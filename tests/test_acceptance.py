"""End-to-end checks for the headline behaviors, one test per claim.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion. Each test also enforces a wall-clock budget so the whole
gate stays cheap enough to run on every change.
"""

import math
import time

import numpy as np

from coherray import (
    BoxVolume,
    DetectorGrid,
    FockSpace,
    ModePair,
    PhasedWaveSet,
    QuantumState,
    WaveMode,
    XorShift64Star,
    biphoton_energy,
    classical_energy,
    commensurate_box,
    dicke_scaling_check,
    expectation_energy,
    farfield_power,
    field_energy_grid,
    find_resonances,
    make_linear_array,
    overlap_integral,
    overlap_integral_quadrature,
    phase_sum,
    single_mode_hamiltonian,
    single_wave_energy,
    transmission_spectrum,
)

TWO_PI = 2.0 * math.pi
UNIT_MODE = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))
UNIT_ENERGY = single_wave_energy(UNIT_MODE)


def test_01_uniform_phases_square_the_energy():
    start = time.monotonic()
    for n in range(1, 17):
        report = classical_energy(PhasedWaveSet(UNIT_MODE, (0.0,) * n))
        expected = n * n * UNIT_ENERGY
        assert abs(report.total - expected) <= 1e-12 * expected
    assert time.monotonic() - start < 1.0


def test_02_antiphase_pair_cancels_classically_and_quantum():
    start = time.monotonic()
    report = classical_energy(PhasedWaveSet(UNIT_MODE, (0.0, math.pi)))
    assert abs(report.total) <= 1e-12 * UNIT_ENERGY

    space = FockSpace(12)
    operator = single_mode_hamiltonian((0.0, math.pi), 1.0, space)
    for occupation in (0, 3, 8):
        state = QuantumState.fock(space, occupation)
        assert abs(expectation_energy(state, operator)) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_03_biphoton_energy_spans_zero_to_four_quanta():
    start = time.monotonic()
    for delta in np.linspace(0.0, TWO_PI, 33):
        for overlap in (0.0, 0.5, 1.0):
            energy = biphoton_energy(float(delta), overlap, 1.0)
            assert -1e-12 <= energy <= 4.0 + 1e-12
    assert abs(biphoton_energy(0.0, 1.0, 1.0) - 4.0) <= 1e-12
    assert abs(biphoton_energy(math.pi, 1.0, 1.0)) <= 1e-12
    assert abs(biphoton_energy(math.pi / 2.0, 1.0, 1.0) - 2.0) <= 1e-12
    # scales linearly in omega (hbar = 1)
    assert abs(biphoton_energy(0.0, 1.0, 2.0) - 8.0) <= 1e-12
    assert time.monotonic() - start < 1.0


def test_04_number_state_energy_tracks_coherent_sum():
    start = time.monotonic()
    stream = XorShift64Star(2024)
    for _ in range(100):
        n_waves = 1 + stream.next_uint64() % 6
        occupation = stream.next_uint64() % 16
        phases = stream.phases(int(n_waves))
        space = FockSpace(max(int(occupation) + 1, 8))
        operator = single_mode_hamiltonian(phases, 1.0, space)
        state = QuantumState.fock(space, int(occupation))
        _, mag_sq = phase_sum(phases)
        expected = mag_sq * (int(occupation) + 0.5)
        actual = expectation_energy(state, operator)
        assert abs(actual - expected) <= 1e-10 * max(1.0, abs(expected))
    assert time.monotonic() - start < 10.0


def test_05_overlap_matches_brute_force_quadrature():
    start = time.monotonic()
    stream = XorShift64Star(77)
    for _ in range(50):
        lengths = np.array([0.5 + 1.5 * stream.uniform() for _ in range(3)])
        delta_k = np.array(
            [(2.0 * stream.uniform() - 1.0) * 0.025 / lengths[i] for i in range(3)]
        )
        phi1 = TWO_PI * stream.uniform()
        phi2 = TWO_PI * stream.uniform()
        k1 = np.array([TWO_PI, 0.0, 0.0])
        pair = ModePair(
            WaveMode.plane(k1),
            WaveMode.plane(k1 + delta_k),
            phi1,
            phi2,
            BoxVolume(lengths),
        )
        analytic = overlap_integral(pair)
        numeric = overlap_integral_quadrature(pair, samples_per_axis=128)
        assert abs(analytic - numeric) <= 1e-8 * max(1.0, abs(analytic))
    assert time.monotonic() - start < 60.0


def test_06_grid_integration_reproduces_closed_form():
    start = time.monotonic()
    box = commensurate_box(UNIT_MODE, (2.0, 1.0, 1.0))
    for phases in ((0.0,), (0.0, math.pi / 2.0), (0.0, 0.0, 0.0, 0.0)):
        waves = PhasedWaveSet(UNIT_MODE, phases)
        grid = field_energy_grid(waves, box, resolution=64)
        closed = classical_energy(waves, box).total
        assert grid.commensurate
        assert abs(grid.energy - closed) <= 1e-5 * max(1.0, closed)
    assert time.monotonic() - start < 60.0


def test_07_subwavelength_array_recovers_collective_scaling():
    start = time.monotonic()
    detector = DetectorGrid(radius=100.0, geometry="arc", samples=1024)
    for n in (2, 5, 10):
        array = make_linear_array(n, spacing=0.01, wavelength=1.0)
        _, enhancement = farfield_power(array, detector)
        assert enhancement >= 0.95 * n
    fit = dicke_scaling_check([2, 4, 8], regime="farfield", spacing_ratio=0.01)
    assert fit.exponent >= 1.9
    assert time.monotonic() - start < 120.0


def test_08_sparse_array_spectrum_shows_resonant_peaks():
    start = time.monotonic()
    array = make_linear_array(5, spacing=2.0, wavelength=1.0)
    detector = DetectorGrid(radius=800.0, geometry="arc", samples=2048)
    curve = transmission_spectrum(array, (0.5, 4.0), 200, detector)
    peaks = find_resonances(curve)
    assert len(peaks) >= 1
    assert any(enhancement > 1.0 for _, enhancement in peaks)
    assert time.monotonic() - start < 120.0


def test_09_commutator_conventions_differ_by_constant_shift():
    start = time.monotonic()
    stream = XorShift64Star(11)
    space = FockSpace(12)
    for _ in range(3):
        phases = stream.phases(4)
        canonical = single_mode_hamiltonian(phases, 1.0, space, "canonical")
        for convention in ("phased-plus", "phased-minus"):
            phased = single_mode_hamiltonian(phases, 1.0, space, convention)
            difference = canonical - phased
            shift = difference[0]
            residue = difference - shift
            assert np.max(np.abs(residue)) <= 1e-12 * max(1.0, abs(shift))
    assert time.monotonic() - start < 5.0


def test_10_random_phases_respect_energy_bounds():
    start = time.monotonic()
    stream = XorShift64Star(7)
    for _ in range(1000):
        n_waves = int(1 + stream.next_uint64() % 8)
        occupation = int(stream.next_uint64() % 11)
        phases = stream.phases(n_waves)

        total = classical_energy(PhasedWaveSet(UNIT_MODE, phases)).total
        ceiling = n_waves * n_waves * UNIT_ENERGY
        assert -1e-9 * UNIT_ENERGY <= total <= ceiling * (1.0 + 1e-9)

        space = FockSpace(max(occupation + 1, 2))
        operator = single_mode_hamiltonian(phases, 1.0, space)
        state = QuantumState.fock(space, occupation)
        unit = occupation + 0.5
        energy = expectation_energy(state, operator)
        assert -1e-9 * unit <= energy <= n_waves * n_waves * unit * (1.0 + 1e-9)
    assert time.monotonic() - start < 10.0


def test_11_four_routes_agree_on_random_phases():
    """Closed form, grid, number-state operator and far field on one
    seeded stream of phase sets; each route against its own identity."""
    start = time.monotonic()
    stream = XorShift64Star(4)
    for _ in range(20):
        n_waves = int(1 + stream.next_uint64() % 6)
        phases = stream.phases(n_waves)
        wavelength = 0.5 + 1.5 * stream.uniform()
        mode = WaveMode.plane(np.array([TWO_PI / wavelength, 0.0, 0.0]))
        center = [stream.uniform() - 0.5 for _ in range(3)]
        box = commensurate_box(mode, (1.0 + 2.0 * stream.uniform(), 0.8, 1.3), center)
        unit = single_wave_energy(mode, box)

        closed = classical_energy(PhasedWaveSet(mode, phases), box).total
        magnitude_sq = closed / unit
        assert -1e-9 * unit <= closed <= n_waves * n_waves * unit * (1.0 + 1e-9)

        grid = field_energy_grid(PhasedWaveSet(mode, phases), box, resolution=32)
        assert grid.commensurate
        assert abs(grid.energy - closed) <= 1e-5 * max(closed, unit)

        occupation = int(stream.next_uint64() % 16)
        space = FockSpace(max(occupation + 1, 8))
        operator = single_mode_hamiltonian(phases, 1.0, space)
        energy = expectation_energy(QuantumState.fock(space, occupation), operator)
        expected = magnitude_sq * (occupation + 0.5)
        assert abs(energy - expected) <= 1e-10 * max(1.0, expected)

        # line array along x, forward hemisphere: the pair identity
        # (1/N) sum_mn cos(phi_m - phi_n) sinc(k |x_m - x_n|)
        extent = (0.3 + 3.7 * stream.uniform()) * wavelength
        spacing = extent / max(n_waves - 1, 1)
        array = make_linear_array(n_waves, spacing, wavelength, phases)
        detector = DetectorGrid(radius=100.0 * max(wavelength, array.extent), samples=128)
        _, enhancement = farfield_power(array, detector)
        x = array.positions[:, 0]
        separation = np.abs(x[:, None] - x[None, :])
        identity = float(
            (np.cos(phases[:, None] - phases[None, :])
             * np.sinc(TWO_PI / wavelength * separation / math.pi)).sum()
        ) / n_waves
        assert abs(enhancement - identity) <= 1e-3 * max(1.0, identity)
    assert time.monotonic() - start < 5.0
