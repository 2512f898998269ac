import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coherray import (
    BoxVolume,
    DetectorGrid,
    FarFieldViolationError,
    PhasedWaveSet,
    SourceArray,
    SweepSpec,
    WaveMode,
    canonical_coordinates,
    classical_energy,
    commensurate_box,
    dicke_scaling_check,
    farfield_power,
    farfield_powers,
    field_energy_grid,
    make_linear_array,
    phase_sum,
    run_sweep,
    single_wave_energy,
    transmission_spectrum,
)
from coherray import classical, core, experiments
from coherray.classical import SpectrumCurve, _detector_quadrature
from coherray.experiments import XorShift64Star

TWO_PI = 2.0 * math.pi


def unit_mode(amplitude=1.0):
    return WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]), amplitude=amplitude)


def test_single_wave_energy_formula():
    mode = unit_mode(amplitude=0.8)
    expected = mode.omega ** 2 * 0.64 / TWO_PI
    assert math.isclose(single_wave_energy(mode), expected, rel_tol=1e-12)

    box = BoxVolume((2.0, 1.0, 3.0))
    assert math.isclose(single_wave_energy(mode, box), 6.0 * expected, rel_tol=1e-12)


def test_canonical_pair_energy_is_position_independent():
    """(P^2 + w^2 Q^2)/2 must equal E1 wherever the pair is evaluated."""
    mode = unit_mode(amplitude=0.8)
    e1 = single_wave_energy(mode)
    rng = XorShift64Star(3)
    for _ in range(30):
        position = np.array([rng.uniform() * 4 - 2 for _ in range(3)])
        phase = rng.uniform() * TWO_PI
        q, p = canonical_coordinates(mode, phase, position)
        energy = 0.5 * (p ** 2 + mode.omega ** 2 * q ** 2)
        assert abs(energy - e1) <= 1e-12 * e1


def test_classical_energy_uniform_phases():
    mode = unit_mode()
    e1 = single_wave_energy(mode)
    for n in (1, 2, 5, 9):
        report = classical_energy(PhasedWaveSet(mode, (0.25,) * n))
        assert abs(report.total - n * n * e1) <= 1e-12 * n * n * e1
        assert abs(report.enhancement - n) <= 1e-12 * n


def test_classical_energy_antiphase_pair_vanishes():
    mode = unit_mode()
    report = classical_energy(PhasedWaveSet(mode, (0.0, math.pi)))
    assert abs(report.total) <= 1e-12 * single_wave_energy(mode)


def test_classical_energy_tracks_phase_sum():
    mode = unit_mode()
    e1 = single_wave_energy(mode)
    rng = XorShift64Star(12)
    for _ in range(100):
        n = 1 + rng.next_uint64() % 8
        phases = rng.phases(int(n))
        report = classical_energy(PhasedWaveSet(mode, tuple(phases)))
        _, mag_sq = phase_sum(phases)
        assert abs(report.total - mag_sq * e1) <= 1e-10 * max(e1, report.total)
        # bounds: never negative, never above the fully coherent ceiling
        assert report.total >= -1e-9 * e1
        assert report.total <= (n * n + 1e-9) * e1


def test_commensurate_box_rounds_to_whole_wavelengths():
    mode = unit_mode()
    box = commensurate_box(mode, (2.3, 1.0, 1.0))
    assert math.isclose(box.lengths[0], 2.0, rel_tol=1e-12)
    assert math.isclose(box.lengths[1], 1.0, rel_tol=1e-12)

    tiny = commensurate_box(mode, (0.2, 1.0, 1.0))
    assert math.isclose(tiny.lengths[0], 1.0, rel_tol=1e-12)  # at least one wavelength

    diagonal = WaveMode.plane(np.array([TWO_PI, TWO_PI, 0.0]))
    with pytest.raises(ValueError):
        commensurate_box(diagonal, (1.0, 1.0, 1.0))


def test_field_energy_grid_matches_closed_form_on_commensurate_box():
    mode = unit_mode()
    box = commensurate_box(mode, (2.0, 1.0, 1.0))
    cases = ((0.0,), (0.0, math.pi / 2), (0.0, 0.0, 0.0, 0.0))
    for phases in cases:
        waves = PhasedWaveSet(mode, phases)
        grid = field_energy_grid(waves, box, resolution=32)
        closed = classical_energy(waves, box)
        assert grid.commensurate
        assert abs(grid.energy - closed.total) <= 1e-5 * max(closed.total, 1e-12)


def test_field_energy_grid_flags_incommensurate_box():
    mode = unit_mode()
    box = BoxVolume((1.37, 1.0, 1.0))
    grid = field_energy_grid(PhasedWaveSet(mode, (0.0,)), box, resolution=16)
    assert not grid.commensurate


def test_field_energy_grid_antiphase_is_dark_everywhere():
    mode = unit_mode()
    box = commensurate_box(mode, (1.0, 1.0, 1.0))
    grid = field_energy_grid(PhasedWaveSet(mode, (0.0, math.pi)), box, resolution=24)
    assert abs(grid.energy) <= 1e-12 * single_wave_energy(mode, box)


def direct_exp_grid(waves, volume, resolution):
    """Reference: the grid energy with one complex exp per cell per wave,
    as field_energy_grid computed it before the separable table."""
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (3,)).copy()
    mode = waves.mode
    k = mode.wavevector
    lengths = volume.lengths
    residual = np.prod(np.sinc(k * lengths / math.pi))
    commensurate = bool(abs(residual) < 1e-9)
    axes = [
        volume.center[i] - lengths[i] / 2.0 + (np.arange(res[i]) + 0.5) * (lengths[i] / res[i])
        for i in range(3)
    ]
    travel = (
        k[0] * axes[0][:, None, None]
        + k[1] * axes[1][None, :, None]
        + k[2] * axes[2][None, None, :]
    )
    efield = np.zeros(travel.shape, dtype=complex)
    hfield = np.zeros(travel.shape, dtype=complex)
    for phi in waves.phases:
        analytic = mode.amplitude * np.exp(1j * (travel + phi))
        efield += (1j * mode.omega) * analytic
        hfield += 1j * analytic
    e_sq = (2.0 * efield.real) ** 2
    h_sq = mode.wavenumber ** 2 * (2.0 * hfield.real) ** 2
    cell = volume.volume / float(np.prod(res))
    return float(((e_sq + h_sq) / (8.0 * math.pi)).sum() * cell), commensurate


def random_grid_case(rng, case):
    """One seeded wave set, box and resolution: axis-aligned k on a
    commensurate box, axis-aligned k on a free box, or off-axis k."""
    n = 1 + case % 8
    wavelength = 0.4 + 1.6 * rng.uniform()
    amplitude = complex(0.2 + rng.uniform(), rng.uniform() - 0.5)
    center = [2.0 * rng.uniform() - 1.0 for _ in range(3)]
    lengths = [0.3 + 2.0 * rng.uniform() for _ in range(3)]
    if case % 3 == 2:
        direction = np.array([rng.uniform() - 0.5 for _ in range(3)])
        direction /= np.linalg.norm(direction)
    else:
        direction = np.zeros(3)
        direction[case % 3] = 1.0 if rng.uniform() < 0.5 else -1.0
    mode = WaveMode.plane(TWO_PI / wavelength * direction, amplitude)
    if case % 3 == 0:
        box = commensurate_box(mode, lengths, center)
    else:
        box = BoxVolume(lengths, center)
    resolution = (8, 12, (8, 13, 21), (16, 9, 11), 20, (24, 16, 8))[case % 6]
    return PhasedWaveSet(mode, tuple(rng.phases(n))), box, resolution


def test_field_energy_grid_matches_direct_exp_reference():
    rng = XorShift64Star(2025)
    commensurate_cases = 0
    for case in range(30):
        waves, box, resolution = random_grid_case(rng, case)
        grid = field_energy_grid(waves, box, resolution)
        energy, commensurate = direct_exp_grid(waves, box, resolution)
        scale = max(abs(energy), single_wave_energy(waves.mode, box))
        assert abs(grid.energy - energy) <= 1e-12 * scale
        assert grid.commensurate == commensurate
        commensurate_cases += commensurate
    assert 0 < commensurate_cases < 30


def test_field_energy_grid_never_forms_the_phase_sum(monkeypatch):
    from coherray import core

    mode = WaveMode.plane(np.array([0.0, 0.0, 3.0]), amplitude=0.7)
    box = commensurate_box(mode, (1.1, 0.8, 2.5), center=(0.2, -0.1, 0.3))
    waves = PhasedWaveSet(mode, (0.3, 1.9, 4.0, 5.5))
    closed = classical_energy(waves, box).total

    def refuse(phases):
        raise AssertionError("the grid route must not form the phase sum")

    monkeypatch.setattr(core, "phase_sum", refuse)
    monkeypatch.setattr(classical, "phase_sum", refuse)
    grid = field_energy_grid(waves, box, resolution=32)
    assert grid.commensurate
    assert abs(grid.energy - closed) <= 1e-5 * closed


def test_field_energy_grid_evaluates_exp_per_axis_and_per_wave(monkeypatch):
    mode = WaveMode.plane(np.array([1.0, -2.0, 0.5]))
    waves = PhasedWaveSet(mode, (0.1, 2.0, 3.3))
    box = BoxVolume((1.0, 2.0, 0.7), (0.1, 0.0, -0.2))
    expected = field_energy_grid(waves, box, (8, 13, 21))
    evaluated = []
    original = np.exp

    def counted(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    assert field_energy_grid(waves, box, (8, 13, 21)) == expected
    assert sum(evaluated) == 8 + 13 + 21 + 3


def test_field_energy_grid_resolution_must_be_integers():
    waves = PhasedWaveSet(unit_mode(), (0.0, 1.0))
    box = BoxVolume((1.0, 1.0, 1.0))
    for bad in (48.7, 16.0, (8.9, 13, 21), np.array([8.0, 13.0, 21.0]), "16"):
        with pytest.raises(TypeError, match="resolution"):
            field_energy_grid(waves, box, bad)
    with pytest.raises(ValueError):
        field_energy_grid(waves, box, (16, 16))
    with pytest.raises(ValueError, match="at least 8"):
        field_energy_grid(waves, box, (8, 7, 8))
    assert field_energy_grid(waves, box, np.int64(16)) == field_energy_grid(waves, box, 16)
    anisotropic = field_energy_grid(waves, box, (8, 13, 21))
    assert field_energy_grid(waves, box, (np.int64(8), 13, np.int32(21))) == anisotropic
    assert field_energy_grid(waves, box, np.array([8, 13, 21])) == anisotropic


def test_grid_request_over_budget_is_refused_before_allocation():
    waves = PhasedWaveSet(unit_mode(), (0.0, 1.0))
    box = BoxVolume((1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        for resolution, cells in ((10_000, 10 ** 12), ((256, 256, 257), 256 * 256 * 257),
                                  ((8, 8, 2 ** 62), 2 ** 68)):
            message = (
                f"grid request of {cells} cells needs {64 * cells} bytes,"
                f" over the budget of {classical.MEMORY_BUDGET_BYTES} bytes"
            )
            with pytest.raises(ValueError) as refused:
                field_energy_grid(waves, box, resolution)
            assert str(refused.value) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


class TestDetectorGrid:
    def test_defaults(self):
        hemi = DetectorGrid(radius=100.0)
        assert hemi.geometry == "hemisphere"
        assert hemi.samples == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorGrid(radius=100.0, geometry="cube")
        with pytest.raises(ValueError):
            DetectorGrid(radius=100.0, samples=32)
        with pytest.raises(ValueError):
            DetectorGrid(radius=-1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(ValueError):
            DetectorGrid(radius=radius)

    def test_samples_must_be_an_integer(self):
        with pytest.raises(TypeError, match="samples must be an integer"):
            DetectorGrid(radius=100.0, samples=100.5)
        grid = DetectorGrid(radius=100.0, samples=np.int64(128))
        assert type(grid.samples) is int and grid.samples == 128


def test_single_source_enhancement_is_one():
    """The reference source is summed in the engine's blocks from the same
    1/|p| rows, so one origin-centered source scores 1.0 to the bit, on both
    geometries, within one block and across block boundaries, at every
    wavelength."""
    arrays = [make_linear_array(1, 1.0, wavelength) for wavelength in (0.3, 1.0, 7.5)]
    for geometry, samples in (("hemisphere", 128), ("arc", 128), ("arc", 4097),
                              ("arc", 9000), ("hemisphere", 65)):
        det = DetectorGrid(radius=1e3, geometry=geometry, samples=samples)
        _, enhancements = farfield_powers(arrays, det)
        assert enhancements.tolist() == [1.0, 1.0, 1.0]


def test_farfield_requires_distant_detector():
    arr = make_linear_array(4, 2.0, 1.0)  # extent 6 -> radius must be >= 600
    with pytest.raises(FarFieldViolationError):
        farfield_power(arr, DetectorGrid(radius=500.0, geometry="arc", samples=128))


def test_farfield_arc_two_sources_five_wavelength_spacing():
    # frozen quadrature value; any change to the arc rule must show up here
    arr = make_linear_array(2, 5.0, 1.0)
    det = DetectorGrid(radius=500.0, geometry="arc", samples=2048)
    _, enhancement = farfield_power(arr, det)
    assert abs(enhancement - 1.1002773275157816) < 1e-12


def test_farfield_hemisphere_matches_sinc_identity():
    """Uniform-phase hemisphere enhancement equals 1 + (2/N) sum sinc(k d).

    The identity comes from integrating the pair interference term over
    the full sphere; the forward hemisphere gives the same value by
    symmetry of the line array.
    """
    for n, spacing in ((2, 0.5), (5, 0.1), (4, 0.37)):
        arr = make_linear_array(n, spacing, 1.0)
        det = DetectorGrid(radius=100.0 * max(1.0, arr.extent), samples=256)
        _, enhancement = farfield_power(arr, det)
        k = TWO_PI
        pair_sum = sum(
            np.sinc(k * abs(i - j) * spacing / math.pi)
            for i in range(n)
            for j in range(i + 1, n)
        )
        identity = 1.0 + 2.0 * pair_sum / n
        assert abs(enhancement - identity) <= 1e-4 * identity


def test_farfield_subwavelength_enhancement_grows_with_confinement():
    # hemisphere enhancement is nondecreasing as spacing shrinks (small
    # quadrature slack covers the flat sinc-zero start)
    for n in (2, 5):
        values = []
        for spacing in (1.0, 0.5, 0.1, 0.01):
            arr = make_linear_array(n, spacing, 1.0)
            det = DetectorGrid(radius=100.0 * max(1.0, arr.extent), samples=128)
            values.append(farfield_power(arr, det)[1])
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-4
        assert values[-1] >= 0.95 * n


def test_farfield_subwavelength_floor_for_five_sources():
    # N=5 at spacing 0.1: enhancement stays in a narrow band just below N
    # and rises as the wavelength grows past the array
    values = []
    for wavelength in np.linspace(1.0, 2.0, 6):
        arr = make_linear_array(5, 0.1, float(wavelength))
        det = DetectorGrid(radius=100.0 * max(2.0, arr.extent), samples=128)
        values.append(farfield_power(arr, det)[1])
    assert min(values) >= 3.85
    assert max(values) <= 5.0
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_transmission_spectrum_endpoints_match_direct_evaluation():
    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=100.0 * max(3.0, arr.extent), geometry="arc", samples=256)
    curve = transmission_spectrum(arr, (0.5, 3.0), 7, det)
    assert len(curve) == 7

    for index, wavelength in ((0, 0.5), (6, 3.0)):
        power, enhancement = farfield_power(replace(arr, wavelength=wavelength), det)
        assert math.isclose(curve.power[index], power, rel_tol=1e-12)
        assert math.isclose(curve.enhancement[index], enhancement, rel_tol=1e-12)

    assert curve.metadata["kind"] == "transmission_spectrum"
    assert curve.metadata["n_sources"] == 3
    assert curve.metadata["steps"] == 7


def test_spectrum_curve_validation():
    with pytest.raises(ValueError):
        SpectrumCurve(np.array([1.0, 1.0]), np.ones(2), np.ones(2), {})
    with pytest.raises(ValueError):
        SpectrumCurve(np.array([1.0, 2.0]), np.ones(3), np.ones(2), {})


def test_transmission_spectrum_rejects_infinite_upper_wavelength():
    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=1e4, geometry="arc", samples=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="wavelength range"):
            transmission_spectrum(arr, (0.5, math.inf), 5, det)


def separation_tensor_power(points, weights, positions, phases, wavenumber):
    """Reference: the detected power through the full (S, N, 3) separation
    tensor, as the far-field kernel computed it before the engine."""
    separation = points[:, None, :] - positions[None, :, :]
    distances = np.sqrt((separation ** 2).sum(axis=2))
    field = (np.exp(1j * (wavenumber * distances + phases[None, :])) / distances).sum(axis=1)
    intensity = field.real ** 2 + field.imag ** 2
    return float((intensity * weights).sum())


def reference_farfield_power(array, detector):
    points, weights = _detector_quadrature(detector)
    k = array.wavenumber
    power = separation_tensor_power(points, weights, array.positions, array.phases, k)
    single = separation_tensor_power(points, weights, np.zeros((1, 3)), np.zeros(1), k)
    return power, power / (array.n_sources * single)


def random_array(rng, n):
    wavelength = 0.3 + 2.0 * rng.uniform()
    side = 0.05 + 3.0 * rng.uniform()
    positions = np.array([[side * (rng.uniform() - 0.5) for _ in range(3)] for _ in range(n)])
    return SourceArray(positions, rng.phases(n), wavelength)


def far_detector(rng, arrays, geometry, samples):
    extent = max(max(array.wavelength, array.extent) for array in arrays)
    return DetectorGrid(
        radius=classical.FAR_FIELD_FACTOR * extent * (1.0 + rng.uniform()),
        geometry=geometry,
        samples=samples,
    )


def long_double_power(points, weights, positions, phases, wavenumber):
    """Reference: the brute-force sum of e^{i(k r + phi)} / r over the same
    float64 inputs, carried in np.longdouble (64-bit mantissa on x86-64)."""
    points, positions = points.astype(np.longdouble), positions.astype(np.longdouble)
    distances = np.sqrt(((points[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2))
    angle = np.longdouble(wavenumber) * distances + phases.astype(np.longdouble)
    real = (np.cos(angle) / distances).sum(axis=1)
    imag = (np.sin(angle) / distances).sum(axis=1)
    return ((real * real + imag * imag) * weights.astype(np.longdouble)).sum()


# arc: point counts below, at and above one 4096-row block; hemisphere:
# 64^2 = 4096 points, 65^2 = 4225 and 96^2 = 9216
@pytest.mark.parametrize(
    "geometry, samples",
    [("arc", 640), ("arc", 4096), ("arc", 4097), ("arc", 9000),
     ("hemisphere", 64), ("hemisphere", 65), ("hemisphere", 96)],
)
def test_engine_matches_separation_tensor_reference(geometry, samples):
    """The engine sums e^{i(k d + phi)} / r over path differences in real
    cos/sin blocks; the old engine summed complex exp(i k r) / r over full
    distances. Both are the same brute-force sum, so they agree to 1e-12."""
    rng = XorShift64Star(4096 + samples)
    for n in (1, 7, 8, 9, 33, 64):
        array = random_array(rng, n)
        detector = far_detector(rng, [array], geometry, samples)
        power, enhancement = farfield_power(array, detector)
        reference_power, reference_enhancement = reference_farfield_power(array, detector)
        assert math.isclose(power, reference_power, rel_tol=1e-12)
        assert math.isclose(enhancement, reference_enhancement, rel_tol=1e-12)


def test_engine_is_at_least_as_accurate_as_the_old_engine():
    """Against a long-double reference on 20 seeded cases (N 1-64, arc 640
    to 9000 points, hemisphere 64^2 to 96^2), the engine's power and
    enhancement stay within 1e-14 and never do worse than the old engine's
    worst case. The old engine's k r phases reach ~1e4 rad, so its error
    was ~1e-13; path differences keep the phases small."""
    rng = XorShift64Star(2024)
    geometries = [("arc", 640), ("arc", 4097), ("arc", 9000), ("hemisphere", 64),
                  ("hemisphere", 96)]
    errors = {"new": [], "old": []}
    for case in range(20):
        geometry, samples = geometries[case % len(geometries)]
        n = (1, 5, 16, 64)[case // len(geometries)]
        if n == 64 and samples > 4096:
            n = 24  # keeps this test to about two seconds
        array = random_array(rng, n)
        detector = far_detector(rng, [array], geometry, samples)
        points, weights = _detector_quadrature(detector)
        k = array.wavenumber
        exact = long_double_power(points, weights, array.positions, array.phases, k)
        exact_single = long_double_power(points, weights, np.zeros((1, 3)), np.zeros(1), k)
        exact_enhancement = exact / (n * exact_single)
        for engine, (power, enhancement) in (
            ("new", farfield_power(array, detector)),
            ("old", reference_farfield_power(array, detector)),
        ):
            errors[engine].append(float(max(abs(power - exact) / exact,
                                            abs(enhancement - exact_enhancement) / exact_enhancement)))
    assert max(errors["new"]) <= 1e-14
    assert max(errors["new"]) <= max(errors["old"])


def test_farfield_powers_equals_one_call_per_array():
    rng = XorShift64Star(77)
    first = random_array(rng, 9)
    second = random_array(rng, 9)
    # same positions for the first half (wavelength and phase changes only,
    # the last two sharing one cos/sin pass), new positions for the second
    # half, so the table is rebuilt midway
    arrays = [
        replace(first, wavelength=0.5 + rng.uniform()),
        replace(first, phases=rng.phases(9)),
        first,
        second,
        replace(second, wavelength=0.5 + rng.uniform()),
        random_array(rng, 8),
    ]
    detector = far_detector(rng, arrays, "arc", 4500)
    powers, enhancements = farfield_powers(arrays, detector)
    for i, array in enumerate(arrays):
        expected = farfield_power(array, detector)
        assert (powers[i], enhancements[i]) == expected
        reference = reference_farfield_power(array, detector)
        assert math.isclose(expected[0], reference[0], rel_tol=1e-12)
        assert math.isclose(expected[1], reference[1], rel_tol=1e-12)


def test_farfield_powers_checks_every_array_against_the_threshold():
    rng = XorShift64Star(5)
    arrays = [random_array(rng, 4) for _ in range(4)]
    detector = far_detector(rng, arrays, "arc", 256)
    farfield_powers(arrays, detector)
    arrays[2] = make_linear_array(4, detector.radius / 50.0, 1.0)
    with pytest.raises(FarFieldViolationError):
        farfield_powers(arrays, detector)


def test_far_field_request_over_budget_is_refused_before_allocation():
    array = make_linear_array(8, 0.2, 1.0)
    detector = DetectorGrid(radius=1e3, geometry="hemisphere", samples=100_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            farfield_power(array, detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_sweeps_build_the_quadrature_once(monkeypatch):
    calls = {"_detector_quadrature": 0, "_path_differences": 0}
    for name in calls:
        original = getattr(classical, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(classical, name, counted)

    def run(action):
        for name in calls:
            calls[name] = 0
        action()
        return calls["_detector_quadrature"], calls["_path_differences"]

    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=1e3, geometry="arc", samples=256)
    # one path table while the positions hold still; the reference source
    # needs none
    assert run(lambda: transmission_spectrum(arr, (0.5, 3.0), 9, det)) == (1, 1)
    fixed = {"n_sources": 4, "spacing": 0.3, "wavelength": 1.0, "samples": 256}
    phase_sweep = SweepSpec("farfield_power", "phase_delta", 0.0, 3.0, 6, fixed)
    assert run(lambda: run_sweep(phase_sweep)) == (1, 1)
    spacing_sweep = SweepSpec("farfield_power", "spacing", 0.1, 1.0, 6, fixed)
    assert run(lambda: run_sweep(spacing_sweep)) == (1, 6)
    assert run(lambda: dicke_scaling_check([2, 4, 8], "farfield", detector_samples=256)) == (1, 3)


def test_phase_steps_share_one_trig_pass(monkeypatch):
    """Consecutive arrays with the same positions and wavenumber share one
    walk over the path table (one cos/sin pass); a new wavenumber or new
    positions start another."""
    runs = []
    original = classical._run_powers

    def recording(table, norms, weights, wavenumber, phase_sets):
        runs.append(len(phase_sets))
        return original(table, norms, weights, wavenumber, phase_sets)

    monkeypatch.setattr(classical, "_run_powers", recording)
    fixed = {"n_sources": 4, "spacing": 0.3, "wavelength": 1.0, "samples": 256}
    run_sweep(SweepSpec("farfield_power", "phase_delta", 0.0, 3.0, 6, fixed))
    assert runs == [6]
    runs.clear()
    run_sweep(SweepSpec("farfield_power", "wavelength", 1.0, 2.0, 4, fixed))
    assert runs == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "geometry, samples, n_sources",
    [("arc", 9000, 64), ("arc", 5000, 9), ("hemisphere", 96, 64), ("hemisphere", 128, 8)],
)
def test_far_field_budget_covers_the_measured_peak(monkeypatch, geometry, samples, n_sources):
    """The budget charges the path table, the quadrature columns and one
    block's temporaries; what one request really holds stays below it."""
    rng = XorShift64Star(samples + n_sources)
    array = random_array(rng, n_sources)
    detector = far_detector(rng, [array], geometry, samples)
    charged = []
    original = classical._check_budget

    def recording(needed, request):
        charged.append(needed)
        return original(needed, request)

    monkeypatch.setattr(classical, "_check_budget", recording)
    tracemalloc.start()
    try:
        farfield_power(array, detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1
    assert peak <= charged[0]


@pytest.mark.parametrize("n_sources, steps", [(300, 2), (2000, 2), (300, 30), (20, 300)])
@pytest.mark.parametrize(
    "kind", ["spectrum", "wavelength", "phase_delta", "spacing", "source_count"]
)
def test_sweep_budget_covers_the_measured_peak_of_building_the_steps(
    monkeypatch, kind, n_sources, steps
):
    """Each kind of far-field sweep is charged what its steps hold: the
    tracemalloc peak of building them stays below the charge. The far-field
    engine is stubbed out; its own peak has its own budget. A call's few KB
    of fixed overhead are not charged, so each case has 300 sources or 300
    steps."""
    charged = []
    original = classical._check_budget

    def recording(needed, request):
        if request.startswith("far-field sweep"):
            charged.append(needed)
        return original(needed, request)

    peaks = []

    def stub(arrays, detector):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return np.ones(len(arrays)), np.ones(len(arrays))

    monkeypatch.setattr(classical, "_check_budget", recording)
    monkeypatch.setattr(classical, "farfield_powers", stub)
    monkeypatch.setattr(experiments, "farfield_powers", stub)
    tracemalloc.start()
    try:
        if kind == "spectrum":
            array = make_linear_array(n_sources, 0.3, 1.0)
            detector = DetectorGrid(radius=1e6, geometry="arc", samples=64)
            transmission_spectrum(array, (1.0, 2.0), steps, detector)
        else:
            fixed = {"n_sources": n_sources, "spacing": 0.3, "wavelength": 1.0,
                     "phase_profile": "random", "radius": 1e6}
            start, stop = {"wavelength": (1.0, 2.0), "phase_delta": (0.0, 3.0),
                           "spacing": (0.1, 0.5), "source_count": (1, n_sources)}[kind]
            if kind == "source_count":
                del fixed["n_sources"]
            run_sweep(SweepSpec("farfield_power", kind, start, stop, steps, fixed, seed=5))
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and len(peaks) == 1
    assert peaks[0] <= charged[0]


def test_spectrum_steps_are_not_charged_for_positions_they_share():
    """A spectrum's steps share their array's positions and phases, so 20 000
    steps of 2000 sources pass the sweep check (which once charged them 32
    bytes per source each) and reach the far-field budget, which refuses
    this hemisphere at once."""
    array = make_linear_array(2000, 0.5, 1.0)
    detector = DetectorGrid(radius=1e6, geometry="hemisphere", samples=512)
    with pytest.raises(ValueError, match="far-field request of 262144 detector points x 2000"):
        transmission_spectrum(array, (1.0, 2.0), 20_000, detector)


def test_sweeps_validate_the_source_positions_once(monkeypatch):
    """A spectrum and a wavelength or phase sweep keep their positions, so
    the O(N^2)-capable distinctness check runs once, whatever the step count."""
    calls = []
    original = core._checked_extent

    def counted(positions):
        calls.append(len(positions))
        return original(positions)

    monkeypatch.setattr(core, "_checked_extent", counted)
    det = DetectorGrid(radius=1e3, geometry="arc", samples=256)
    for steps in (2, 40):
        calls.clear()
        transmission_spectrum(make_linear_array(5, 2.0, 0.5), (0.5, 3.0), steps, det)
        assert calls == [5]
    fixed = {"n_sources": 4, "spacing": 0.3, "wavelength": 1.0, "samples": 256,
             "phase_profile": "random"}
    for parameter in ("phase_delta", "wavelength"):
        for steps in (3, 30):
            calls.clear()
            run_sweep(SweepSpec("farfield_power", parameter, 1.0, 3.0, steps, fixed))
            assert calls == [4]
