"""Metamorphic relations of the far-field route, the closed form, the grid
and the Hamiltonian.

Far-field power depends on the set of sources with their phases, on the
phases only up to a common shift, and on the detector. So it must not
move, beyond rounding, when:

- the source rows are permuted with their phases, which unfolds a line
  that folds in order or reversed;
- every phase is shifted by the same amount;
- the positions are mirrored by a mirror of the detector: x -> -x on the
  arc and on a hemisphere with even samples, y -> -y on every hemisphere
  (an odd hemisphere has no x -> -x mirror);
- the array is rotated about z by a multiple of 2 pi / samples, which maps
  the hemisphere's phi nodes onto nodes of the same weight.

The folded walk must also agree with the unfolded walk on the same
request. Each relation runs on the arc and on the hemisphere with odd and
even samples, including samples = 2 (mod 4), and on four layouts: a
linear array (which folds with the reversal, and onto y -> -y with the
identity), the same line moved off the x axis (which keeps only x -> -x), a
centered lattice in the x-y plane (which the mirrors map onto itself, but
neither in order nor reversed, so it does not fold) and a random layout
(which does not fold either).

The energy of N phased copies of one mode depends on the set of phases,
only up to a common shift, and on the amplitude a only through |a|^2. So
the closed form (`classical_energy`), the grid integral over a
commensurate box (`field_energy_grid`) and every entry of the
Hamiltonian's diagonal (`single_mode_hamiltonian`, which has no
amplitude) must not move, beyond rounding, when the phases are permuted
or shifted by one amount, and the two classical energies must scale by
|c|^2 when the amplitude is multiplied by a complex c. Each tolerance is
relative to the diagonal energy, the N uncoupled waves' share.

Inputs are seeded.
"""

import math

import numpy as np
import pytest

from coherray import (
    DetectorGrid,
    FockSpace,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    classical,
    classical_energy,
    farfield_power,
    field_energy_grid,
    make_linear_array,
    quantum,
    single_mode_hamiltonian,
    single_wave_energy,
)
from coherray.core import TWO_PI
from coherray.experiments import XorShift64Star
from helpers import commensurate_box

DETECTORS = [("arc", 64), ("arc", 65), ("arc", 66),
             ("hemisphere", 64), ("hemisphere", 65), ("hemisphere", 66)]
LAYOUTS = ("linear", "shifted", "lattice", "random")
# the mirrors each layout folds onto: on the arc, on an even hemisphere and
# on an odd hemisphere (0 is x -> -x, 1 is y -> -y)
FOLDS = {
    "linear": ((0,), (0, 1), (1,)),
    "shifted": ((0,), (0,), ()),
    "lattice": ((), (), ()),
    "random": ((), (), ()),
}
CASES = [(geometry, samples, layout) for geometry, samples in DETECTORS for layout in LAYOUTS]


def seeded_array(rng, layout):
    if layout in ("linear", "shifted"):
        array = make_linear_array(7, 0.35, 1.0, rng.phases(7))
        if layout == "linear":
            return array
        return SourceArray(array.positions + [0.0, 0.2, 0.0], array.phases, 1.0)
    if layout == "lattice":
        x, y = np.meshgrid([-0.3, 0.0, 0.3], [-0.25, 0.0, 0.25])
        positions = np.stack([x.ravel(), y.ravel(), np.zeros(9)], axis=1)
        return SourceArray(positions, rng.phases(9), 0.8)
    positions = np.array([[rng.uniform() - 0.5 for _ in range(3)] for _ in range(6)])
    return SourceArray(positions, rng.phases(6), 0.9)


def detector_for(rng, array, geometry, samples):
    radius = classical.FAR_FIELD_FACTOR * max(array.wavelength, array.extent)
    return DetectorGrid(radius=radius * (1.0 + rng.uniform()), geometry=geometry,
                        samples=samples)


def assert_close(got, expected, tolerance):
    for a, b in zip(got, expected):
        assert abs(a - b) <= tolerance * max(abs(a), abs(b)), (got, expected)


def case_inputs(geometry, samples, layout):
    rng = XorShift64Star(samples * 10 + LAYOUTS.index(layout) + len(geometry))
    array = seeded_array(rng, layout)
    return rng, array, detector_for(rng, array, geometry, samples)


@pytest.mark.parametrize("geometry, samples, layout", CASES)
def test_power_is_invariant_under_a_permutation_of_the_sources(geometry, samples, layout):
    rng, array, detector = case_inputs(geometry, samples, layout)
    order = np.argsort(rng.phases(array.n_sources))
    permuted = SourceArray(array.positions[order], array.phases[order], array.wavelength)
    assert_close(farfield_power(permuted, detector), farfield_power(array, detector), 1e-14)


@pytest.mark.parametrize("geometry, samples, layout", CASES)
def test_power_is_invariant_under_a_global_phase_shift(geometry, samples, layout):
    rng, array, detector = case_inputs(geometry, samples, layout)
    shifted = SourceArray(array.positions, array.phases + 10.0 * rng.uniform(), array.wavelength)
    assert_close(farfield_power(shifted, detector), farfield_power(array, detector), 1e-14)


@pytest.mark.parametrize("geometry, samples, layout", CASES)
def test_power_is_invariant_under_a_mirror_of_the_detector(geometry, samples, layout):
    _, array, detector = case_inputs(geometry, samples, layout)
    axes = (0,) if geometry == "arc" else (0, 1) if samples % 2 == 0 else (1,)
    expected = farfield_power(array, detector)
    for axis in axes:
        positions = array.positions.copy()
        positions[:, axis] *= -1.0
        mirrored = SourceArray(positions, array.phases, array.wavelength)
        assert_close(farfield_power(mirrored, detector), expected, 1e-14)


@pytest.mark.parametrize("geometry, samples, layout", CASES)
def test_folded_walk_agrees_with_the_unfolded_walk(monkeypatch, geometry, samples, layout):
    """With no detector mirror every group takes the unfolded walk over all
    detector rows; the two lines fold by default (the shifted one only onto
    x -> -x, so not on an odd hemisphere), and both walks agree to 1e-13 on
    power and enhancement."""
    _, array, detector = case_inputs(geometry, samples, layout)
    detector_kind = 0 if geometry == "arc" else 1 + samples % 2
    expected = FOLDS[layout][detector_kind]
    assert classical._fold(detector, array.positions).mirrors == expected
    folded = farfield_power(array, detector)
    monkeypatch.setattr(classical, "_detector_mirrors", lambda detector: ())
    assert classical._fold(detector, array.positions).mirrors == ()
    assert_close(folded, farfield_power(array, detector), 1e-13)
    assert not math.isclose(folded[1], 1.0)


def rotated_about_z(array, angle):
    x, y, z = array.positions.T
    cos, sin = math.cos(angle), math.sin(angle)
    return SourceArray(np.stack([cos * x - sin * y, sin * x + cos * y, z], axis=1),
                       array.phases, array.wavelength)


@pytest.mark.parametrize("samples", [64, 65, 66])
def test_hemisphere_power_is_invariant_under_a_rotation_about_z(samples):
    """A line of 40 sources half a wavelength apart (k L = 122, more than
    the phi nodes resolve, so a rotation by half a node step moves the
    power by about 1%) keeps its power when rotated by m 2 pi / samples.
    It folds onto the hemisphere's mirrors and, rotated off the axes, onto
    none, so the relation also checks the folded walk against the unfolded
    one where both walk a block in several chunks."""
    rng = XorShift64Star(4000 + samples)
    array = make_linear_array(40, 0.5, 1.0, rng.phases(40))
    detector = detector_for(rng, array, "hemisphere", samples)
    fold = classical._fold(detector, array.positions)
    assert fold.mirrors == ((0, 1) if samples % 2 == 0 else (1,))
    for mirrors, classes in ((fold.mirrors, len(fold.classes)), ((), 1)):
        rows = classical._fundamental_rows(detector, mirrors)[3]
        assert classical._chunk_rows(rows, 40, classes) < rows
    expected = farfield_power(array, detector)
    for m in (1, 3, samples // 2 - 1):
        rotated = rotated_about_z(array, m * TWO_PI / samples)
        assert classical._fold(detector, rotated.positions).mirrors == ()
        assert_close(farfield_power(rotated, detector), expected, 1e-14)
    off_node = farfield_power(rotated_about_z(array, 1.5 * TWO_PI / samples), detector)
    assert abs(off_node[0] - expected[0]) > 1e-3 * expected[0]


class WaveCase:
    """Seeded inputs of the wave relations: N phased copies of a mode along
    x with a complex amplitude, a shift, a permutation and a complex scale
    of the phases and the amplitude."""

    def __init__(self, seed):
        rng = XorShift64Star(700 + seed)
        self.n = 2 + seed % 11
        self.phases = rng.phases(self.n)
        self.shift = 10.0 * rng.uniform()
        self.order = np.argsort(rng.phases(self.n))
        self.scale = complex(0.5 + 2.0 * rng.uniform(), rng.uniform() - 0.5)
        amplitude = complex(0.5 + rng.uniform(), rng.uniform() - 0.5)
        self.mode = WaveMode.plane([TWO_PI / (0.5 + rng.uniform()), 0.0, 0.0], amplitude)
        self.omega = 0.5 + rng.uniform()
        self.convention = quantum.CONVENTIONS[seed % len(quantum.CONVENTIONS)]
        self.box = commensurate_box(self.mode, (1.0 + rng.uniform(), 0.7, 0.9))

    def variants(self):
        """(mode, phases, energy factor) of each relation: the shift, the
        permutation and the amplitude scale."""
        scaled = WaveMode.plane(self.mode.wavevector, self.mode.amplitude * self.scale)
        return [(self.mode, self.phases + self.shift, 1.0),
                (self.mode, self.phases[self.order], 1.0),
                (scaled, self.phases, abs(self.scale) ** 2)]


def waves(mode, phases):
    return PhasedWaveSet(mode, tuple(phases))


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_energy_obeys_the_wave_relations(seed):
    case = WaveCase(seed)
    expected = classical_energy(waves(case.mode, case.phases)).total
    for mode, phases, factor in case.variants():
        report = classical_energy(waves(mode, phases))
        assert abs(report.total - factor * expected) <= 1e-14 * report.diagonal


@pytest.mark.parametrize("seed", range(8))
def test_grid_energy_obeys_the_wave_relations(seed):
    """On a commensurate box the midpoint sum of e^{2ik.r} vanishes, so the
    grid energy does not depend on the phases' common shift."""
    case = WaveCase(seed)
    expected = field_energy_grid(waves(case.mode, case.phases), case.box, 24).energy
    for mode, phases, factor in case.variants():
        energy = field_energy_grid(waves(mode, phases), case.box, 24).energy
        diagonal = case.n * single_wave_energy(mode, case.box)
        assert abs(energy - factor * expected) <= 1e-14 * diagonal


@pytest.mark.parametrize("seed", range(20))
def test_hamiltonian_obeys_the_phase_relations(seed):
    case = WaveCase(seed)
    space = FockSpace(n_max=8)
    expected = single_mode_hamiltonian(case.phases, case.omega, space, case.convention)
    diagonal = case.n * case.omega * (np.arange(space.levels) + 0.5)
    for phases in (case.phases + case.shift, case.phases[case.order]):
        got = single_mode_hamiltonian(phases, case.omega, space, case.convention)
        assert np.all(np.abs(got - expected) <= 4e-14 * diagonal)
