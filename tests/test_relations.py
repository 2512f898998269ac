"""Metamorphic relations of the far-field route.

Far-field power depends on the set of sources with their phases, on the
phases only up to a common shift, and on the detector. So it must not
move, beyond rounding, when:

- the source rows are permuted with their phases, which changes the
  permutation under which a mirror-symmetric array folds;
- every phase is shifted by the same amount;
- the positions are mirrored by a mirror of the detector: x -> -x on the
  arc and on a hemisphere with even samples, y -> -y on every hemisphere
  (an odd hemisphere has no x -> -x mirror).

The folded walk must also agree with the unfolded walk on the same
request. Each relation runs on the arc and on the hemisphere with odd and
even samples, including samples = 2 (mod 4), and on four layouts: a
linear array (which folds with the reversal, and onto y -> -y with the
identity), the same line moved off the x axis (which keeps only x -> -x), a
centered lattice in the x-y plane (which folds with index permutations) and
a random layout (which does not fold). Inputs are seeded.
"""

import math

import numpy as np
import pytest

from coherray import DetectorGrid, SourceArray, classical, farfield_power, make_linear_array
from coherray.experiments import XorShift64Star

DETECTORS = [("arc", 64), ("arc", 65), ("arc", 66),
             ("hemisphere", 64), ("hemisphere", 65), ("hemisphere", 66)]
LAYOUTS = ("linear", "shifted", "lattice", "random")
# the mirrors each layout folds onto: on the arc, on an even hemisphere and
# on an odd hemisphere (0 is x -> -x, 1 is y -> -y)
FOLDS = {
    "linear": ((0,), (0, 1), (1,)),
    "shifted": ((0,), (0,), ()),
    "lattice": ((0,), (0, 1), (1,)),
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
    detector rows; every layout but the random one folds by default (the
    shifted line only onto x -> -x, so not on an odd hemisphere), and both
    walks agree to 1e-13 on power and enhancement."""
    _, array, detector = case_inputs(geometry, samples, layout)
    detector_kind = 0 if geometry == "arc" else 1 + samples % 2
    expected = FOLDS[layout][detector_kind]
    assert classical._fold(detector, array.positions).mirrors == expected
    folded = farfield_power(array, detector)
    monkeypatch.setattr(classical, "_detector_mirrors", lambda detector: ())
    assert classical._fold(detector, array.positions).mirrors == ()
    assert_close(folded, farfield_power(array, detector), 1e-13)
    assert not math.isclose(folded[1], 1.0)
