import math
import tracemalloc

import numpy as np
import pytest

from coherray import (
    BoxVolume,
    FockSpace,
    ModePair,
    QuantumState,
    WaveMode,
    WavepacketSpectrum,
    box_overlap,
    build_operators,
    classify_overlap,
    multimode_energy,
    overlap_integral,
    overlap_integral_quadrature,
    single_wave_energy,
    wavepacket_energy,
)
from coherray.core import MEMORY_BUDGET_BYTES
from coherray.experiments import XorShift64Star

TWO_PI = 2.0 * math.pi
UNIT_BOX = BoxVolume((1.0, 1.0, 1.0))


def mode_along_x(k):
    return WaveMode.plane(np.array([k, 0.0, 0.0]))


class TestBoxOverlap:
    def test_zero_mismatch_gives_unity(self):
        assert box_overlap(np.zeros(3), UNIT_BOX) == pytest.approx(1.0)

    def test_whole_period_mismatch_vanishes(self):
        value = box_overlap(np.array([TWO_PI, 0.0, 0.0]), UNIT_BOX)
        assert abs(value) < 1e-15

    def test_half_period_mismatch_is_two_over_pi(self):
        value = box_overlap(np.array([math.pi, 0.0, 0.0]), UNIT_BOX)
        assert abs(value - 2.0 / math.pi) < 1e-15

    def test_axes_factorize(self):
        dk = np.array([1.3, 0.7, 0.2])
        box = BoxVolume((2.0, 1.5, 0.8))
        product = 1.0
        for i in range(3):
            axis_dk = np.zeros(3)
            axis_dk[i] = dk[i]
            product *= box_overlap(axis_dk, box)
        assert box_overlap(dk, box) == pytest.approx(product, rel=1e-12)

    def test_rejects_non_finite_mismatch(self):
        with pytest.raises(ValueError):
            box_overlap([math.inf, 0.0, 0.0], UNIT_BOX)
        with pytest.raises(ValueError):
            box_overlap([0.0, math.nan, 0.0], UNIT_BOX)

    def test_offset_box_adds_center_phase(self):
        dk = np.array([0.9, 0.0, 0.0])
        centered = box_overlap(dk, UNIT_BOX)
        shifted = box_overlap(dk, BoxVolume((1.0, 1.0, 1.0), (0.5, 0.0, 0.0)))
        assert shifted == pytest.approx(centered * np.exp(1j * 0.45), rel=1e-12)


@pytest.mark.parametrize("phi1, phi2", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_mode_pair_rejects_non_finite_phases(phi1, phi2):
    with pytest.raises(ValueError):
        ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI), phi1, phi2)


def test_overlap_integral_carries_source_phase_difference():
    pair = ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI), phi1=0.25, phi2=1.0)
    value = overlap_integral(pair)
    assert value == pytest.approx(np.exp(1j * 0.75), rel=1e-12)


def test_overlap_magnitude_never_exceeds_one():
    rng = XorShift64Star(17)
    for _ in range(60):
        k1 = 1.0 + 5.0 * rng.uniform()
        k2 = 1.0 + 5.0 * rng.uniform()
        lengths = tuple(0.5 + 2.0 * rng.uniform() for _ in range(3))
        pair = ModePair(
            mode_along_x(k1),
            WaveMode.plane(np.array([0.0, k2, 0.0])),
            rng.uniform() * TWO_PI,
            rng.uniform() * TWO_PI,
            BoxVolume(lengths),
        )
        assert abs(overlap_integral(pair)) <= 1.0 + 1e-12


class TestOverlapQuadrature:
    def test_agrees_with_analytic_half_period(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(3.0 * math.pi), box=UNIT_BOX)
        exact = overlap_integral(pair)
        approx = overlap_integral_quadrature(pair, 100)
        assert abs(exact - approx) / abs(exact) < 2e-4

    def test_midpoint_error_shrinks_quadratically(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(3.0 * math.pi), box=UNIT_BOX)
        exact = overlap_integral(pair)
        coarse = abs(exact - overlap_integral_quadrature(pair, 50))
        fine = abs(exact - overlap_integral_quadrature(pair, 100))
        assert fine < coarse / 3.5

    def test_sample_count_over_budget_is_refused_before_allocation(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(3.0 * math.pi))
        tracemalloc.start()
        try:
            for n in (2 ** 25, 10 ** 12):
                with pytest.raises(ValueError) as refused:
                    overlap_integral_quadrature(pair, n)
                assert str(refused.value) == (
                    f"quadrature of {n} samples per axis needs {40 * n} bytes,"
                    f" over the budget of {MEMORY_BUDGET_BYTES} bytes"
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_rejects_degenerate_grid(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI))
        with pytest.raises(ValueError):
            overlap_integral_quadrature(pair, 1)

    def test_separable_form_matches_full_grid_reference(self):
        rng = XorShift64Star(2024)
        for n in (16, 23, 32, 41, 48):
            for _ in range(8):
                k1 = np.array([TWO_PI * (0.2 + rng.uniform()) for _ in range(3)])
                k2 = np.array([(2.0 * rng.uniform() - 1.0) * 12.0 for _ in range(3)])
                lengths = tuple(0.3 + 2.5 * rng.uniform() for _ in range(3))
                center = tuple(2.0 * rng.uniform() - 1.0 for _ in range(3))
                pair = ModePair(
                    WaveMode.plane(k1),
                    WaveMode.plane(k2),
                    TWO_PI * rng.uniform(),
                    TWO_PI * rng.uniform(),
                    BoxVolume(lengths, center),
                )
                reference = full_grid_overlap_quadrature(pair, n)
                assert abs(overlap_integral_quadrature(pair, n) - reference) <= 1e-13


def full_grid_overlap_quadrature(pair, n):
    """Reference midpoint rule: e^{i dk . r} on the full n^3 cell-center grid."""
    delta_k = pair.delta_k
    box = pair.box
    axes = [
        box.center[i] - box.lengths[i] / 2.0 + (np.arange(n) + 0.5) * (box.lengths[i] / n)
        for i in range(3)
    ]
    travel = (
        delta_k[0] * axes[0][:, None, None]
        + delta_k[1] * axes[1][None, :, None]
        + delta_k[2] * axes[2][None, None, :]
    )
    return complex(np.exp(1j * pair.delta_phi) * np.exp(1j * travel).mean())


class TestOverlapRegimes:
    def test_same_mode(self):
        assert classify_overlap(np.zeros(3), UNIT_BOX) == "same_mode"

    def test_vanishing_when_envelope_is_small(self):
        # |dk_x| L_x / 2 = 50 > 10 forces |I| < 0.1
        assert classify_overlap(np.array([100.0, 0.0, 0.0]), UNIT_BOX) == "vanishing"

    def test_small_volume_otherwise(self):
        assert classify_overlap(np.array([2.0, 0.0, 0.0]), UNIT_BOX) == "small_volume"

    def test_pair_wrapper(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI + 1.0), box=UNIT_BOX)
        assert classify_overlap(pair.delta_k, pair.box) == "small_volume"

    def test_vanishing_envelope_bounds_actual_overlap(self):
        rng = XorShift64Star(23)
        for _ in range(40):
            dk = np.array([20.0 + 200.0 * rng.uniform() for _ in range(3)])
            lengths = tuple(0.5 + 2.0 * rng.uniform() for _ in range(3))
            box = BoxVolume(lengths)
            if classify_overlap(dk, box) == "vanishing":
                assert abs(box_overlap(dk, box)) < 0.1


def dense_expectation(state, matrix):
    """Reference: <psi|M|psi> for a dense matrix M, with the imaginary
    residue held to noise."""
    value = complex(np.vdot(state.vector, matrix @ state.vector))
    assert abs(value.imag) <= 1e-10 * max(float(np.linalg.norm(matrix)), 1e-300)
    return value.real


def dense_two_mode_parts(pair, space):
    """Reference operators: the self and cross blocks of the two-mode energy
    as dense matrices, the four exchange terms as literal ladder products."""
    ops1 = build_operators(space, 0)
    ops2 = build_operators(space, 1)
    eye = np.eye(space.dimension)
    omega1 = pair.mode1.omega
    omega2 = pair.mode2.omega
    overlap = overlap_integral(pair)
    diagonal = omega1 * (ops1.number + eye / 2.0) + omega2 * (ops2.number + eye / 2.0)
    coupling = math.sqrt(omega1 * omega2) / 2.0
    cross = coupling * (
        ops1.create @ ops2.destroy * overlap
        + ops1.destroy @ ops2.create * np.conj(overlap)
        + ops2.create @ ops1.destroy * np.conj(overlap)
        + ops2.destroy @ ops1.create * overlap
    )
    return diagonal.astype(complex), cross


class TestTwoModeOperator:
    def test_hermitian(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI + 0.4), 0.0, 0.3, UNIT_BOX)
        diagonal, cross = dense_two_mode_parts(pair, FockSpace(n_max=3, mode_count=2))
        operator = diagonal + cross
        assert np.allclose(operator, operator.conj().T, atol=1e-12)

    def test_agrees_with_dense_operator_on_random_states(self):
        rng = XorShift64Star(4096)
        for trial in range(36):
            n_max = 2 + trial % 11
            space = FockSpace(n_max=n_max, mode_count=2)
            k1 = np.array([TWO_PI * (0.5 + rng.uniform()), 0.0, 0.0])
            k2 = k1 + np.array([2.0 * rng.uniform() - 1.0 for _ in range(3)])
            lengths = tuple(0.5 + 1.5 * rng.uniform() for _ in range(3))
            center = tuple(2.0 * rng.uniform() - 1.0 for _ in range(3))
            pair = ModePair(
                WaveMode.plane(k1),
                WaveMode.plane(k2),
                TWO_PI * rng.uniform(),
                TWO_PI * rng.uniform(),
                BoxVolume(lengths, center),
            )
            amplitudes = np.array(
                [complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0)
                 for _ in range(space.dimension)]
            )
            state = QuantumState(space, amplitudes / np.linalg.norm(amplitudes))
            diagonal_op, cross_op = dense_two_mode_parts(pair, space)
            report = multimode_energy(state, pair)
            diagonal = dense_expectation(state, diagonal_op)
            cross = dense_expectation(state, cross_op)
            assert abs(report.diagonal - diagonal) <= 1e-12 * abs(diagonal)
            assert abs(report.cross - cross) <= 1e-12 * abs(cross)

    def test_rejects_one_mode_state(self):
        pair = ModePair(mode_along_x(TWO_PI), mode_along_x(TWO_PI))
        with pytest.raises(ValueError):
            multimode_energy(QuantumState.fock(FockSpace(n_max=2), 1), pair)

    def test_single_photon_superpositions_split_symmetrically(self):
        # same mode in both slots: I = 1, w = 2 pi
        mode = mode_along_x(TWO_PI)
        pair = ModePair(mode, mode)
        space = FockSpace(n_max=2, mode_count=2)
        inv = 2.0 ** -0.5
        plus = QuantumState.superposition(space, [(inv, (1, 0)), (inv, (0, 1))])
        minus = QuantumState.superposition(space, [(inv, (1, 0)), (-inv, (0, 1))])
        omega = mode.omega

        bright = multimode_energy(plus, pair)
        assert bright.diagonal == pytest.approx(2.0 * omega, rel=1e-12)
        assert bright.cross == pytest.approx(omega, rel=1e-12)
        assert bright.total == pytest.approx(3.0 * omega, rel=1e-12)

        dark = multimode_energy(minus, pair)
        assert dark.cross == pytest.approx(-omega, rel=1e-12)
        assert dark.total == pytest.approx(omega, rel=1e-12)

    def test_product_number_states_carry_no_cross_energy(self):
        mode = mode_along_x(TWO_PI)
        pair = ModePair(mode, mode)
        space = FockSpace(n_max=2, mode_count=2)
        for occupations in ((0, 0), (1, 0), (2, 1)):
            report = multimode_energy(QuantumState.fock(space, occupations), pair)
            assert abs(report.cross) <= 1e-12
            expected = mode.omega * (occupations[0] + 0.5) + mode.omega * (
                occupations[1] + 0.5
            )
            assert report.diagonal == pytest.approx(expected, rel=1e-12)

    def test_coherent_cross_term_matches_analytic_form(self):
        """Matrix expectation must land on 2 sqrt(w1 w2) Re(a1* a2 I)."""
        pair = ModePair(
            mode_along_x(TWO_PI), mode_along_x(TWO_PI + 0.4), 0.0, 0.3, UNIT_BOX
        )
        space = FockSpace(n_max=30, mode_count=2)
        alpha1, alpha2 = 1.3 + 0.2j, 0.4 - 0.7j
        state = QuantumState.coherent(space, (alpha1, alpha2))
        report = multimode_energy(state, pair)
        overlap = overlap_integral(pair)
        analytic = (
            2.0
            * math.sqrt(pair.mode1.omega * pair.mode2.omega)
            * (np.conj(alpha1) * alpha2 * overlap).real
        )
        assert abs(report.cross - analytic) <= 1e-10 * abs(analytic)


class TestWavepacket:
    def test_single_component_matches_single_wave_energy(self):
        box = BoxVolume((2.0, 1.0, 1.5))
        spectrum = WavepacketSpectrum((1.0, 0.0, 0.0), ((TWO_PI, 0.7, 0.4),), box)
        report = wavepacket_energy(spectrum)
        mode = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]), amplitude=0.7)
        assert report.total == pytest.approx(single_wave_energy(mode, box), rel=1e-12)
        assert report.cross == 0.0

    def test_equal_components_in_antiphase_cancel(self):
        spectrum = WavepacketSpectrum(
            (1.0, 0.0, 0.0),
            ((TWO_PI, 1.0, 0.0), (TWO_PI, 1.0, math.pi)),
            UNIT_BOX,
        )
        report = wavepacket_energy(spectrum)
        assert abs(report.total) <= 1e-12 * report.diagonal

    def test_pair_term_follows_box_overlap(self):
        box = BoxVolume((2.0, 1.0, 1.0))
        k1, k2 = TWO_PI, TWO_PI + 1.1
        a1, a2 = 0.9, 0.6
        p1, p2 = 0.3, 1.7
        spectrum = WavepacketSpectrum(
            (1.0, 0.0, 0.0), ((k1, a1, p1), (k2, a2, p2)), box
        )
        report = wavepacket_energy(spectrum)
        scale = box.volume / TWO_PI
        overlap = box_overlap((k1 - k2) * np.array([1.0, 0.0, 0.0]), box)
        expected_cross = (
            2.0 * scale * k1 * k2 * (a1 * a2 * np.exp(1j * (p1 - p2)) * overlap).real
        )
        assert report.cross == pytest.approx(expected_cross, rel=1e-12)
        expected_diagonal = scale * (k1 ** 2 * a1 ** 2 + k2 ** 2 * a2 ** 2)
        assert report.diagonal == pytest.approx(expected_diagonal, rel=1e-12)

    def test_total_energy_never_negative(self):
        # Gram-matrix structure of the overlap keeps the sum nonnegative
        # no matter how adversarial the amplitudes and phases are
        rng = XorShift64Star(31)
        for _ in range(120):
            count = 2 + rng.next_uint64() % 4
            components = tuple(
                (
                    1.0 + 7.0 * rng.uniform(),
                    0.1 + 0.9 * rng.uniform(),
                    rng.uniform() * TWO_PI,
                )
                for _ in range(int(count))
            )
            box = BoxVolume(tuple(0.5 + 1.5 * rng.uniform() for _ in range(3)))
            report = wavepacket_energy(WavepacketSpectrum((1.0, 0.0, 0.0), components, box))
            assert report.total >= -1e-9 * report.diagonal

    def test_rejects_nonpositive_wavenumber(self):
        with pytest.raises(ValueError):
            WavepacketSpectrum((1.0, 0.0, 0.0), ((-1.0, 1.0, 0.0),), UNIT_BOX)
        with pytest.raises(ValueError):
            WavepacketSpectrum((0.0, 0.0, 0.0), ((1.0, 1.0, 0.0),), UNIT_BOX)

    def test_direction_is_normalized(self):
        spectrum = WavepacketSpectrum((3.0, 0.0, 4.0), ((1.0, 1.0, 0.0),), UNIT_BOX)
        assert np.linalg.norm(spectrum.direction) == pytest.approx(1.0, rel=1e-12)
