import math

import numpy as np
import pytest

from coherray import (
    BoxVolume,
    DetectorGrid,
    FarFieldViolationError,
    PhasedWaveSet,
    SingularityError,
    WaveMode,
    canonical_coordinates,
    classical_energy,
    commensurate_box,
    farfield_power,
    field_energy_grid,
    make_linear_array,
    phase_sum,
    single_wave_energy,
    transmission_spectrum,
)
from coherray.classical import SpectrumCurve, spherical_field_amplitude
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


def test_spherical_field_amplitude_falls_like_one_over_r():
    source = np.zeros(3)
    k = TWO_PI
    near = spherical_field_amplitude(source, 0.0, np.array([2.0, 0.0, 0.0]), k)
    far = spherical_field_amplitude(source, 0.0, np.array([4.0, 0.0, 0.0]), k)
    assert math.isclose(abs(near) / abs(far), 2.0, rel_tol=1e-12)

    with pytest.raises(SingularityError):
        spherical_field_amplitude(source, 0.0, np.array([0.05, 0.0, 0.0]), k)


class TestDetectorGrid:
    def test_defaults(self):
        hemi = DetectorGrid(radius=100.0)
        assert hemi.geometry == "hemisphere"
        assert math.isclose(hemi.angular_extent, math.pi / 2, rel_tol=1e-12)
        arc = DetectorGrid(radius=100.0, geometry="arc")
        assert math.isclose(arc.angular_extent, math.pi, rel_tol=1e-12)

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


def test_single_source_enhancement_is_one():
    arr = make_linear_array(1, 1.0, 1.0)
    for geometry in ("hemisphere", "arc"):
        det = DetectorGrid(radius=100.0, geometry=geometry, samples=128)
        _, enhancement = farfield_power(arr, det)
        assert abs(enhancement - 1.0) <= 1e-12


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

    from dataclasses import replace

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
