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
even samples, including samples = 2 (mod 4), and on five layouts: a
linear array on the x axis (which folds onto the arc's x -> -x with the
reversal; on the hemisphere it is walked as a 1-D rule on the arc's
nodes, so it folds there as on the arc), the same line lifted off the
axis along z and moved off it along y (which fold on the arc as it does,
and take the unfolded (theta, phi) walk on the hemisphere), a centered
lattice in the x-y plane (which x -> -x maps onto itself, but neither in
order nor reversed, so it does not fold) and a random layout (which does
not fold either). Only the arc's mirror folds a walk; the hemisphere's
own mirrors, y -> -y and (for even samples) x -> -x, are relations here
and nothing more.

Only a line on the x axis takes the 1-D rule. A line rotated about z by
any other angle takes the (theta, phi) walk, whose power approaches the
1-D rule's at the midpoint rule's O(h^2) rate; an origin-centered source
still scores exactly 1 on the 1-D rule; and the CLI's spectra, far-field
sweeps and an x-jittered Dicke array build O(samples) hemisphere rows.
Every positions group of every far-field case of the golden CLI corpus
walks the arc's nodes, so no CLI request takes the (theta, phi) walk.

The energy of N phased copies of one mode depends on the set of phases,
only up to a common shift, and on the amplitude a only through |a|^2. So
the closed form (`classical_energy`), the grid integral over a
commensurate box (`field_energy_grid`) and every entry of the
Hamiltonian's diagonal (`single_mode_hamiltonian`, which has no
amplitude) must not move, beyond rounding, when the phases are permuted
or shifted by one amount, and the two classical energies must scale by
|c|^2 when the amplitude is multiplied by a complex c. Each tolerance is
relative to the diagonal energy, the N uncoupled waves' share. N waves of
one phase reach the Dicke limit: N^2 E1 in the closed form and on the
grid, and N times the uncoupled diagonal in the Hamiltonian (canonical
convention).

The CLI's ``units.energy-scale`` acts on emitted energies and nothing
else: a scale of 2 doubles, exactly, the cells that ``cli._ENERGIES``
names, in every subcommand, and leaves every other byte of the output as
it was but the echo of the scale itself. A far-field sweep split into two
sweeps gives the bits of the whole sweep at every step, since each step is
a positions group of its own and its bits do not depend on the other
arrays of the call.

Inputs are seeded.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from coherray import (
    DetectorGrid,
    FockSpace,
    PhasedWaveSet,
    SourceArray,
    SweepSpec,
    WaveMode,
    classical,
    cli,
    classical_energy,
    dicke_scaling_check,
    farfield_power,
    farfield_powers,
    field_energy_grid,
    make_linear_array,
    quantum,
    run_sweep,
    single_mode_hamiltonian,
    single_wave_energy,
)
from coherray.core import TWO_PI
from coherray.experiments import XorShift64Star
from helpers import commensurate_box

GOLDEN = Path(__file__).resolve().parent / "golden"

DETECTORS = [("arc", 64), ("arc", 65), ("arc", 66),
             ("hemisphere", 64), ("hemisphere", 65), ("hemisphere", 66)]
LAYOUTS = ("linear", "shifted", "lattice", "random", "lifted")
# the mirrors each layout folds onto: on the arc, on an even hemisphere and
# on an odd hemisphere (0 is x -> -x); a line on the x axis folds onto the
# arc's mirror of the nodes its 1-D rule walks, and the (theta, phi) walk
# folds onto none
FOLDS = {
    "linear": ((0,), (0,), (0,)),
    "shifted": ((0,), (), ()),
    "lattice": ((), (), ()),
    "random": ((), (), ()),
    "lifted": ((0,), (), ()),
}
CASES = [(geometry, samples, layout) for geometry, samples in DETECTORS for layout in LAYOUTS]


def seeded_array(rng, layout):
    if layout in ("linear", "lifted", "shifted"):
        array = make_linear_array(7, 0.35, 1.0, rng.phases(7))
        if layout == "linear":
            return array
        return lifted(array, [0.0, 0.2, 0.0] if layout == "shifted" else [0.0, 0.0, 0.2])
    if layout == "lattice":
        x, y = np.meshgrid([-0.3, 0.0, 0.3], [-0.25, 0.0, 0.25])
        positions = np.stack([x.ravel(), y.ravel(), np.zeros(9)], axis=1)
        return SourceArray(positions, rng.phases(9), 0.8)
    positions = np.array([[rng.uniform() - 0.5 for _ in range(3)] for _ in range(6)])
    return SourceArray(positions, rng.phases(6), 0.9)


def lifted(array, offset):
    """The array moved by ``offset``, off the x axis, so that the
    hemisphere walks it on its (theta, phi) nodes."""
    return SourceArray(array.positions + offset, array.phases, array.wavelength)


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
    """With no source mirror every group takes the unfolded walk over all
    detector rows, or all u nodes of a line on the hemisphere; the three
    lines fold by default on the arc, and the line on the x axis on the
    hemisphere too, and both walks agree to 1e-13 on power and
    enhancement."""
    _, array, detector = case_inputs(geometry, samples, layout)
    detector_kind = 0 if geometry == "arc" else 1 + samples % 2
    expected = FOLDS[layout][detector_kind]
    fold = classical._fold(detector, array.positions)
    assert ((0,) if fold.folded else ()) == expected
    assert fold.line == (geometry == "hemisphere" and layout == "linear")
    folded = farfield_power(array, detector)
    monkeypatch.setattr(classical, "_source_mirror", lambda positions: None)
    unfolded = classical._fold(detector, array.positions)
    assert unfolded == (False, 1, fold.line)
    assert_close(folded, farfield_power(array, detector), 1e-13)
    assert not math.isclose(folded[1], 1.0)


def rotated_about_z(array, angle):
    x, y, z = array.positions.T
    cos, sin = math.cos(angle), math.sin(angle)
    return SourceArray(np.stack([cos * x - sin * y, sin * x + cos * y, z], axis=1),
                       array.phases, array.wavelength)


@pytest.mark.parametrize("samples", [64, 65, 66])
def test_hemisphere_power_is_invariant_under_a_rotation_about_z(samples):
    """A line of 80 sources half a wavelength apart (k L = 248, more than
    the phi nodes resolve, so a rotation by half a node step moves the
    power by 1-12%), lifted off the x axis along z so that the (theta, phi)
    walk takes it, keeps its power when rotated by m 2 pi / samples, where
    the walk takes each block in several chunks."""
    rng = XorShift64Star(4000 + samples)
    array = lifted(make_linear_array(80, 0.5, 1.0, rng.phases(80)), [0.0, 0.0, 0.2])
    detector = detector_for(rng, array, "hemisphere", samples)
    rows = classical._fundamental_rows(detector, False)[1]
    assert classical._chunk_rows(rows, 80) < rows
    expected = farfield_power(array, detector)
    for m in (1, 3, samples // 2 - 1):
        rotated = rotated_about_z(array, m * TWO_PI / samples)
        assert_close(farfield_power(rotated, detector), expected, 1e-14)
    off_node = farfield_power(rotated_about_z(array, 1.5 * TWO_PI / samples), detector)
    assert abs(off_node[0] - expected[0]) > 1e-3 * expected[0]


@pytest.mark.parametrize("seed", range(4))
def test_a_line_rotated_off_the_x_axis_approaches_the_1d_rule_at_order_two(seed):
    """The 1-D rule takes only lines on the x axis, where the test is exact
    (every y and z zero): a line rotated about z by a generic angle lies on
    its line only up to rounding, so it takes the (theta, phi) walk. That
    walk approaches the 1-D power at the midpoint rule's O(h^2) rate: from
    n^2 to (2n)^2 nodes the Richardson estimate (P_n - P_2n) / 3 of the
    remaining gap is within 10% of the gap P_2n - P_line, while the 1-D
    rule itself moves by less than 1e-14 from n to 2n nodes."""
    rng = XorShift64Star(900 + seed)
    n = 5 + seed
    array = make_linear_array(n, 0.2 + 0.3 * rng.uniform(), 1.0, rng.phases(n))
    rotated = rotated_about_z(array, TWO_PI * rng.uniform())
    radius = classical.FAR_FIELD_FACTOR * max(1.0, array.extent) * (1.0 + rng.uniform())
    for samples in (64, 65):
        coarse, fine = (DetectorGrid(radius=radius, samples=s) for s in (samples, 2 * samples))
        assert classical._fold(coarse, array.positions).line
        assert not classical._fold(coarse, rotated.positions).line
        line, line_fine = (farfield_power(array, d)[0] for d in (coarse, fine))
        assert abs(line_fine - line) <= 1e-14 * line
        p_coarse, p_fine = (farfield_power(rotated, d)[0] for d in (coarse, fine))
        gap = p_fine - line
        assert 1e-7 * line < abs(gap) < 1e-4 * line
        assert abs((p_coarse - p_fine) / 3.0 - gap) <= 0.1 * abs(gap)


@pytest.mark.parametrize("samples", [64, 65, 4097])
def test_an_origin_source_scores_one_on_the_1d_rule(samples):
    """One source at the origin lies on the x axis, so the hemisphere walks
    it on the 1-D rule, as it does the reference source: it scores 1.0 to
    the bit at every wavelength, in one block and, at 4097 samples (2049
    fundamental rows), in two."""
    arrays = [make_linear_array(1, 1.0, wavelength) for wavelength in (0.3, 1.0, 7.5)]
    detector = DetectorGrid(radius=1e3, samples=samples)
    assert classical._fold(detector, arrays[0].positions).line
    assert farfield_powers(arrays, detector)[1].tolist() == [1.0, 1.0, 1.0]


def test_lines_walk_the_hemisphere_on_its_u_nodes(monkeypatch, capsys):
    """A CLI hemisphere spectrum, a far-field sweep on the hemisphere and
    the x-jittered arrays of a far-field Dicke fit on the hemisphere build
    O(samples) quadrature rows, not samples^2: a centered line ceil(n/2)
    (folded onto x -> -x), and the jittered lines, which share one walk of
    every u node, n."""
    rows = []
    build = classical._detector_quadrature

    def counted(detector, index, *line):
        points, weights = build(detector, index, *line)
        rows.append(weights.size)
        return points, weights

    monkeypatch.setattr(classical, "_detector_quadrature", counted)
    assert cli.main(["spectrum", "--n-sources", "6", "--spacing", "0.3", "--wavelength-min",
                     "0.8", "--wavelength-max", "1.2", "--steps", "3",
                     "--geometry", "hemisphere", "--samples", "65"]) == 0
    capsys.readouterr()
    assert sum(rows) == 33
    rows.clear()
    fixed = {"n_sources": 5, "wavelength": 1.0, "geometry": "hemisphere", "samples": 96}
    run_sweep(SweepSpec("farfield_power", "spacing", 0.1, 0.5, 4, fixed))
    assert sum(rows) == 48
    rows.clear()
    monkeypatch.setattr(classical, "DRIVER_GEOMETRY", "hemisphere")
    dicke_scaling_check([2, 4, 8], "farfield", detector_samples=64, jitter=0.2, seed=4)
    assert sum(rows) == 64


def far_field_corpus():
    """The golden CLI cases that reach the far-field engine, each as a
    pytest param of its argv, labelled as tests/golden/compare.py labels it."""
    cases = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))["cases"]
    return [pytest.param(case["argv"] + (["--config", str(GOLDEN / case["config"])]
                                         if "config" in case else []),
                         id=f"{index:02d}-{case['argv'][0]}")
            for index, case in enumerate(cases)
            if case["argv"][0] == "spectrum" or {"farfield", "farfield_power"} & set(case["argv"])]


@pytest.mark.parametrize("argv", far_field_corpus())
def test_every_cli_far_field_group_walks_the_arcs_nodes(monkeypatch, capsys, argv):
    """Every array the CLI builds is a line on the x axis, so every positions
    group of every far-field case of the golden corpus walks the arc's
    nodes, on the arc or as the 1-D rule on the hemisphere: the (theta, phi)
    walk serves no CLI request."""
    walked = []
    fold = classical._fold

    def recording(detector, positions):
        result = fold(detector, positions)
        walked.append(classical._walked(detector, result.line).geometry)
        return result

    monkeypatch.setattr(classical, "_fold", recording)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert walked and set(walked) == {"arc"}


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


@pytest.mark.parametrize("seed", range(8))
def test_equal_phases_reach_the_dicke_limit(seed):
    """N waves of one common phase give N^2 E1: the closed form and the
    grid within their relations' tolerance of the diagonal energy, and
    each Hamiltonian entry N times the uncoupled diagonal, within 4e-14."""
    case = WaveCase(seed)
    n = case.n
    phases = np.full(n, case.shift)
    unit = single_wave_energy(case.mode)
    assert abs(classical_energy(waves(case.mode, phases)).total - n * n * unit) <= (
        1e-14 * n * unit)
    unit = single_wave_energy(case.mode, case.box)
    grid = field_energy_grid(waves(case.mode, phases), case.box, 24).energy
    assert abs(grid - n * n * unit) <= 1e-14 * n * unit
    space = FockSpace(n_max=8)
    uncoupled = n * case.omega * (np.arange(space.levels) + 0.5)
    diagonal = single_mode_hamiltonian(phases, case.omega, space)
    assert np.all(np.abs(diagonal / uncoupled - n) <= 4e-14 * n)


# one cheap run of each subcommand
SUBCOMMAND_RUNS = [
    ["classical", "--n-waves", "3", "--delta-phi", "0.4"],
    ["quantum", "--n-waves", "3", "--delta-phi", "0.7", "--n", "2", "--n-max", "8"],
    ["overlap", "--dk", "1,2,0.5", "--box", "2,1,1"],
    ["biphoton", "--overlap", "0.8,0.1", "--delta-phi", "1.2"],
    ["wavepacket", "--components", "6.28,1,0;7.85,0.5,0.3", "--box", "2,1,1"],
    ["sweep", "--target", "farfield_power", "--parameter", "phase_delta", "--start", "0",
     "--stop", "3", "--steps", "3", "--n-sources", "3", "--spacing", "0.25",
     "--wavelength", "1", "--samples", "64"],
    ["dicke", "--n-values", "2,3,5"],
    ["spectrum", "--n-sources", "4", "--spacing", "0.5", "--wavelength-min", "0.5",
     "--wavelength-max", "2", "--steps", "3", "--samples", "64"],
]


def emitted_rows(text):
    """The CSV output's comment lines, columns and rows, every cell as its
    text."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines[len(comments):]]
    return comments, body[0], body[1:]


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
def test_energy_scale_doubles_the_energy_cells_and_nothing_else(tmp_path, capsys, argv):
    outputs = []
    for scale in ("1.0", "2.0"):
        path = tmp_path / f"scale-{scale}.ini"
        path.write_text(f"units.energy-scale = {scale}\n", encoding="utf-8")
        assert cli.main(argv + ["--config", str(path)]) == 0
        outputs.append(emitted_rows(capsys.readouterr().out))
    (plain_meta, columns, plain), (scaled_meta, scaled_columns, scaled) = outputs
    echoes = [line for line in plain_meta if "config.energy-scale" in line]
    assert len(echoes) == 1
    assert scaled_meta == [line.replace("= 1", "= 2") if line in echoes else line
                           for line in plain_meta]
    assert scaled_columns == columns and len(scaled) == len(plain)
    doubled = 0
    for before, after in zip(plain, scaled):
        assert len(after) == len(before)
        energy_row = before[0] in cli._ENERGIES
        for column, a, b in zip(columns, before, after):
            if is_number(a) and (energy_row or column in cli._ENERGIES):
                assert float(b) == 2.0 * float(a)
                doubled += float(a) != 0.0
            else:
                assert b == a
    assert doubled > 0 or argv[0] == "overlap"


@pytest.mark.parametrize(
    "parameter, start, stop, fixed",
    [("spacing", 0.125, 1.0, {"n_sources": 5, "wavelength": 1.0}),
     ("source_count", 1.0, 8.0, {"spacing": 0.375, "wavelength": 1.0, "phase": 0.5})],
)
def test_a_split_far_field_sweep_gives_the_bits_of_the_whole(parameter, start, stop, fixed):
    """Eight dyadic steps against the same steps as two sweeps of four, on
    one detector: its radius and samples are passed, since the default
    radius depends on the arrays of the whole sweep."""
    fixed = {**fixed, "radius": 1000.0, "samples": 256}
    whole = run_sweep(SweepSpec("farfield_power", parameter, start, stop, 8, fixed))
    middle = start + (stop - start) * 3 / 7
    halves = [run_sweep(SweepSpec("farfield_power", parameter, lo, hi, 4, fixed))
              for lo, hi in ((start, middle), (middle + (stop - start) / 7, stop))]
    for column in ("parameter", "power", "enhancement"):
        split = np.concatenate([getattr(half, column) for half in halves])
        assert split.tobytes() == getattr(whole, column).tobytes()
