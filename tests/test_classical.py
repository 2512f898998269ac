import collections
import functools
import json
import math
import operator
import pathlib
import sys
import time
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
    classical_energy,
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
from coherray import classical, cli, core, experiments
from coherray.classical import SpectrumCurve, _detector_quadrature
from coherray.experiments import XorShift64Star
from helpers import commensurate_box, peak_and_charges

TWO_PI = 2.0 * math.pi


def unit_mode(amplitude=1.0):
    return WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]), amplitude=amplitude)


def test_single_wave_energy_formula():
    mode = unit_mode(amplitude=0.8)
    expected = mode.omega ** 2 * 0.64 / TWO_PI
    assert math.isclose(single_wave_energy(mode), expected, rel_tol=1e-12)

    box = BoxVolume((2.0, 1.0, 3.0))
    assert math.isclose(single_wave_energy(mode, box), 6.0 * expected, rel_tol=1e-12)


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


def whole_grid_reference(waves, volume, resolution):
    """Reference: the grid energy with the whole res^3 plane-wave table, E
    and H held at once, as field_energy_grid computed it before the slab
    walk."""
    res = tuple(np.broadcast_to(np.asarray(resolution, dtype=int), (3,)))
    mode = waves.mode
    k = mode.wavevector
    lengths = volume.lengths
    axes = [
        volume.center[i] - lengths[i] / 2.0 + (np.arange(res[i]) + 0.5) * (lengths[i] / res[i])
        for i in range(3)
    ]
    fx, fy, fz = (np.exp(1j * k[i] * axes[i]) for i in range(3))
    plane = (fx[:, None] * fy)[:, :, None] * fz
    efield = np.zeros(res, dtype=complex)
    hfield = np.zeros(res, dtype=complex)
    for phi in waves.phases:
        analytic = mode.amplitude * np.exp(1j * phi)
        efield += plane * ((1j * mode.omega) * analytic)
        hfield += plane * (1j * analytic)
    density = np.square(efield.real)
    density += mode.wavenumber ** 2 * np.square(hfield.real)
    return float(density.sum() / TWO_PI * (volume.volume / math.prod(res)))


def grid_factors(mode, volume, res):
    """The midpoint grid's 1-D factors e^{ik_i x_i}, one per axis."""
    k = mode.wavevector
    lengths = volume.lengths
    axes = [
        volume.center[i] - lengths[i] / 2.0 + (np.arange(res[i]) + 0.5) * (lengths[i] / res[i])
        for i in range(3)
    ]
    return [np.exp(1j * k[i] * axes[i]) for i in range(3)]


def per_wave_reference(waves, volume, resolution):
    """Reference: the grid energy from real E and H fields onto which a
    plain loop adds each wave's own Re(c p), wave by wave, with p the whole
    res^3 table of fx times the (y, z) table."""
    res = tuple(np.broadcast_to(np.asarray(resolution, dtype=int), (3,)))
    mode = waves.mode
    fx, fy, fz = grid_factors(mode, volume, res)
    plane = fx[:, None, None] * (fy[:, None] * fz)
    efield = np.zeros(res)
    hfield = np.zeros(res)
    for phi in waves.phases:
        analytic = mode.amplitude * np.exp(1j * phi)
        efield += (plane * ((1j * mode.omega) * analytic)).real
        hfield += (plane * (1j * analytic)).real
    density = np.square(efield)
    density += mode.wavenumber ** 2 * np.square(hfield)
    return float(density.sum() / TWO_PI * (volume.volume / math.prod(res)))


def random_grid_case(rng, case, resolutions=(8, 12, (8, 13, 21), (16, 9, 11), 20, (24, 16, 8))):
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
    resolution = resolutions[case % len(resolutions)]
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


def test_slab_walk_matches_the_whole_grid_walk():
    """The walk's one real field F, weighed by 2k^2, gives the energy of E
    and H built separately on the whole grid, to rounding. The shapes fit
    the grid in one chunk and slab (24 x 40 x 24, 37 x 29 x 13,
    8 x 13 x 21), make z-lines longer than one chunk (9 x 8 x 8200), end
    the y axis inside a chunk (16 x 600 x 8), or cut both y and x into
    several chunks and slabs (48^3)."""
    resolutions = ((24, 40, 24), (9, 8, 8200), (37, 29, 13), (8, 13, 21), (16, 600, 8), 48)
    assert classical._TABLE_CELLS < 8200
    rng = XorShift64Star(1991)
    for case in range(30):
        waves, box, resolution = random_grid_case(rng, case, resolutions)
        energy = whole_grid_reference(waves, box, resolution)
        scale = max(abs(energy), single_wave_energy(waves.mode, box))
        assert abs(field_energy_grid(waves, box, resolution).energy - energy) <= 1e-14 * scale


def test_slab_walk_matches_the_per_wave_reference():
    """Each wave's own Re E and Re H, added wave by wave onto real fields,
    give the walk's energy: on the random cases' shapes, on z-lines cut
    into chunks (9 x 8 x 8200), on a long x axis (20000 x 8 x 8), and with
    32 waves."""
    rng = XorShift64Star(1492)
    cases = [random_grid_case(rng, case) for case in range(24)]
    cases += [random_grid_case(rng, case, ((9, 8, 8200), (20_000, 8, 8))) for case in range(4)]
    waves, box, _ = random_grid_case(rng, 2)
    cases.append((PhasedWaveSet(waves.mode, tuple(rng.phases(32))), box, (12, 20, 16)))
    for waves, box, resolution in cases:
        energy = per_wave_reference(waves, box, resolution)
        scale = max(abs(energy), single_wave_energy(waves.mode, box))
        assert abs(field_energy_grid(waves, box, resolution).energy - energy) <= 1e-14 * scale


def test_field_energy_grid_adds_every_wave_onto_every_slab(monkeypatch):
    """Each slab's coefficient table holds N entries per x-plane, each
    wave's own coefficient i a_w times that plane's fx: summing the
    coefficients first would form the phase sum by hand, and would show
    here as one entry per x-plane."""
    mode = WaveMode.plane(np.array([0.0, 3.0, 0.0]), amplitude=0.7 - 0.2j)
    waves = PhasedWaveSet(mode, (0.3, 1.9, 4.0, 5.5, 5.5))
    box = BoxVolume((1.1, 0.8, 2.5))
    coefficients = np.array([1j * mode.amplitude * np.exp(1j * phi) for phi in waves.phases])
    fx = grid_factors(mode, box, (40, 32, 64))[0]
    tables = []
    original = np.einsum

    def recording(subscripts, *operands, **kwargs):
        if subscripts.startswith("xwk,"):
            # a contraction path may sum the waves' coefficients first
            assert not kwargs.get("optimize", False)
            tables.append(operands[0].copy())
        return original(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    field_energy_grid(waves, box, (40, 32, 64))
    # one chunk of 32 z-lines of 64 cells, so slabs of 16 x-planes, 16, then 8
    assert [table.shape for table in tables] == [(16, 5, 2), (16, 5, 2), (8, 5, 2)]
    laid = np.concatenate(tables)
    laid = laid[..., 0] + 1j * laid[..., 1]
    want = fx[:, None] * coefficients
    assert np.all(np.abs(laid - want) <= 1e-14 * np.abs(want))


GRID_PLANS = [(48, 2, (42, 48, 16)), (64, 2, (32, 64, 16)), ((32768, 16, 16), 2, (16, 16, 128)),
              ((16, 16, 32768), 2, (1, 2048, 16)), ((2000, 8, 8), 400, (8, 8, 5))]


@pytest.mark.parametrize("resolution, n_waves, plan", GRID_PLANS,
                         ids=[f"{r}-plan{i}" if isinstance(r, int) else f"resolution{i}-plan{i}"
                              for i, (r, _, _) in enumerate(GRID_PLANS)])
def test_grid_walk_fits_its_chunks_and_slabs(monkeypatch, resolution, n_waves, plan):
    """The walk's (lines, width, planes): every chunk of the (y, z) table
    holds at most _TABLE_CELLS cells, so its rows and one x-plane of field
    stay in L1, and every slab at most _SLAB_CELLS; small (y, z) planes
    take many x-planes per slab, and long z-lines are cut to one chunk. A
    slab's coefficient table, planes x N complex values, holds at most
    _TABLE_CELLS, so 400 waves on 8 x 8 planes take 5 x-planes a slab."""
    plans, slabs = [], []
    walk, original = classical._slab_walk, np.einsum

    def planned(fx, fy, fz, coefficients, plan):
        plans.append((*plan["plane"][:2], plan["table"][0]))
        return walk(fx, fy, fz, coefficients, plan)

    def recording(subscripts, *operands, **kwargs):
        if subscripts.startswith("xwk,"):
            slabs.append(kwargs["out"].shape)
        return original(subscripts, *operands, **kwargs)

    monkeypatch.setattr(classical, "_slab_walk", planned)
    monkeypatch.setattr(np, "einsum", recording)
    phases = tuple(np.linspace(0.1, 2.0, n_waves))
    waves = PhasedWaveSet(WaveMode.plane(np.array([1.0, -2.0, 0.5])), phases)
    field_energy_grid(waves, BoxVolume((1.0, 2.0, 0.7)), resolution)
    assert plans == [plan]
    lines, width, planes = plan
    assert lines * width <= classical._TABLE_CELLS
    assert lines * width * planes <= classical._SLAB_CELLS
    assert planes * n_waves <= classical._TABLE_CELLS
    assert max(n for n, _ in slabs) == planes
    assert max(c for _, c in slabs) == lines * width
    assert sum(n * c for n, c in slabs) == math.prod(np.broadcast_to(resolution, (3,)))


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
    for bad in ((16, 16), (8, 8, 8, 8), [[8, 8, 8]]):
        with pytest.raises(ValueError, match="resolution must be one integer or three"):
            field_energy_grid(waves, box, bad)
    with pytest.raises(ValueError, match="at least 8"):
        field_energy_grid(waves, box, (8, 7, 8))
    assert field_energy_grid(waves, box, np.int64(16)) == field_energy_grid(waves, box, 16)
    anisotropic = field_energy_grid(waves, box, (8, 13, 21))
    assert field_energy_grid(waves, box, (np.int64(8), 13, np.int32(21))) == anisotropic
    assert field_energy_grid(waves, box, np.array([8, 13, 21])) == anisotropic


def test_grid_request_over_budget_is_refused_before_allocation():
    """The charge is 8 bytes per float cell of the plan, plus 8 KB per call:
    the axes, numpy's temporary k x of the longest and the buffers of its
    cast to complex, the axes' factors e^{ik x} and the waves' coefficients
    (two cells per complex value), and the walk's coefficient table,
    complex chunk, Re and -Im rows and slab (one chunk of at most 2048
    cells: a z-line longer than that is cut into chunks), so only the axes
    grow with res_z;
    the walk counts cells x (waves + 3) operations, one update per wave and
    three for the field's zeroing, its square and the sum. A request over
    either budget is refused at once, before it allocates."""
    waves = PhasedWaveSet(unit_mode(), (0.0, 1.0))
    box = BoxVolume((1.0, 1.0, 1.0))
    work = f" operations, over the work budget of {core.WORK_BUDGET} operations"
    memory = f" bytes, over the budget of {core.MEMORY_BUDGET_BYTES} bytes"

    def charge(res_z):
        # the axes, numpy's k x of the longest one and the buffers of its
        # cast, the factors, two waves' coefficients, and 8 x-planes of one
        # 2048-cell chunk
        axes = (16 + res_z) + 2 * res_z + 2 * 8192 + 2 * (16 + res_z) + 2 * 2
        walk = 8 * 2 * 2 + 2 * 2048 + 2 * 2048 + 8 * 2048
        return 8 * (axes + walk) + 8192

    requests = (
        (10_000, f"grid request of {10 ** 12} cells x 2 waves needs {5 * 10 ** 12}{work}"),
        ((1_000_000, 100, 100), f"grid request of {10 ** 10} cells x 2 waves needs {5 * 10 ** 10}{work}"),
        ((8, 8, 2 ** 25), f"grid request of {2 ** 31} cells needs {charge(2 ** 25)}{memory}"),
        ((8, 8, 2 ** 62), f"grid request of {2 ** 68} cells needs {charge(2 ** 62)}{memory}"),
    )
    tracemalloc.start()
    try:
        for resolution, message in requests:
            started = time.perf_counter()
            with pytest.raises(ValueError) as refused:
                field_energy_grid(waves, box, resolution)
            assert time.perf_counter() - started < 1.0
            assert str(refused.value) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_one_wave_grid_counts_its_per_slab_work(monkeypatch):
    """A one-wave grid just under WORK_BUDGET cells costs about four times
    its cell count, since zeroing the field, squaring it and summing the
    squares do not scale with the waves; it is refused before the walk."""
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(classical, "_slab_walk", walk)
    waves = PhasedWaveSet(unit_mode(), (0.0,))
    cells = 2154 ** 3
    assert cells < core.WORK_BUDGET
    with pytest.raises(ValueError, match=f"{cells} cells x 1 waves needs {4 * cells} operations"):
        field_energy_grid(waves, BoxVolume((1.0, 1.0, 1.0)), 2154)


def steps_of(arrays):
    """The far-field engine's steps (see classical._position_groups) of
    these arrays, as farfield_powers hands them to it."""
    return [(array.positions, array.wavelength, array.extent, array.phases) for array in arrays]


def peak_and_charge(monkeypatch, call):
    """The tracemalloc peak of ``call()`` and the one memory charge it
    checked."""
    peak, charges = peak_and_charges(monkeypatch, call)
    assert len(charges) == 1
    return peak, charges[0]


def grid_call(waves, resolution):
    box = BoxVolume((1.0, 2.0, 0.7), (0.1, 0.0, -0.2))
    return lambda: field_energy_grid(waves, box, resolution)


@pytest.mark.parametrize(
    "resolution", [8, 64, (40, 30, 24), (9, 300, 50), (8, 13, 20_000), (20_000, 8, 8)]
)
def test_grid_budget_covers_the_measured_peak(monkeypatch, resolution):
    """The memory charge covers what the slab walk really holds, for
    isotropic and anisotropic grids, z-lines longer than one chunk and a
    long x axis, and charges at most twice that."""
    waves = PhasedWaveSet(WaveMode.plane(np.array([1.0, -2.0, 0.5])), (0.1, 2.0, 3.3))
    peak, charged = peak_and_charge(monkeypatch, grid_call(waves, resolution))
    assert peak <= charged <= 2 * peak


@pytest.mark.parametrize("resolution", [8, (9, 300, 50), (2000, 8, 8)])
def test_grid_budget_covers_the_measured_peak_of_many_waves(monkeypatch, resolution):
    """Each wave's coefficients are charged for every x-plane of a slab:
    400 waves, on slabs of 5 x-planes, the most whose table of coefficients
    fits in a chunk's cells."""
    phases = tuple(np.linspace(0.0, 6.0, 400))
    waves = PhasedWaveSet(WaveMode.plane(np.array([1.0, -2.0, 0.5])), phases)
    peak, charged = peak_and_charge(monkeypatch, grid_call(waves, resolution))
    assert peak <= charged <= 2 * peak


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
    symmetry of the line array. It holds for an infinite radius: the 1-D
    rule on the line's u nodes is exact to rounding here, so the gap, at
    most 4.7e-6, is the finite radius's.
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
        assert abs(enhancement - identity) <= 1e-5 * identity


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


def test_transmission_spectrum_needs_two_steps():
    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=1e4, geometry="arc", samples=256)
    with pytest.raises(ValueError, match="at least 2 steps"):
        transmission_spectrum(arr, (0.5, 3.0), 1, det)


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", None])
def test_transmission_spectrum_steps_must_be_an_integer(steps):
    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=1e4, geometry="arc", samples=256)
    with pytest.raises(TypeError) as refused:
        transmission_spectrum(arr, (0.5, 3.0), steps, det)
    assert str(refused.value) == f"steps must be an integer, got {steps!r}"
    assert len(transmission_spectrum(arr, (0.5, 3.0), np.int64(3), det)) == 3


def separation_tensor_power(points, weights, positions, phases, wavenumber):
    """Reference: the detected power through the full (S, N, 3) separation
    tensor, as the far-field kernel computed it before the engine."""
    separation = points[:, None, :] - positions[None, :, :]
    distances = np.sqrt((separation ** 2).sum(axis=2))
    field = (np.exp(1j * (wavenumber * distances + phases[None, :])) / distances).sum(axis=1)
    intensity = field.real ** 2 + field.imag ** 2
    return float((intensity * weights).sum())


def reference_farfield_power(array, detector):
    points, weights = _detector_quadrature(detector, np.arange(detector.n_points))
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


def lifted_line(*args):
    """make_linear_array(*args) lifted off the x axis along z: the hemisphere
    walks it on every (theta, phi) node, unfolded, and the arc folds it as
    it does the line."""
    array = make_linear_array(*args)
    return replace(array, positions=array.positions + [0.0, 0.0, 0.2])


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
        points, weights = _detector_quadrature(detector, np.arange(detector.n_points))
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
    """An array's power has the same bits whether it shares its call with
    other arrays or not, on an arc and a hemisphere: its chunk rows depend
    only on its own source count and fold, not on the largest group of the
    call. The last three arrays are groups of 40, 300 and 2000 sources (a
    linear array, which folds), whose chunks are shorter than a block; the
    reference sum checks the arrays of up to 40 sources."""
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
        random_array(rng, 40),
        random_array(rng, 300),
        make_linear_array(2000, 1e-3, 0.5 + rng.uniform(), rng.phases(2000)),
    ]
    for geometry, samples in (("arc", 4500), ("hemisphere", 66)):
        detector = far_detector(rng, arrays, geometry, samples)
        powers, enhancements = farfield_powers(arrays, detector)
        for i, array in enumerate(arrays):
            expected = farfield_power(array, detector)
            assert (powers[i], enhancements[i]) == expected
            if array.n_sources < 100:
                reference = reference_farfield_power(array, detector)
                assert math.isclose(expected[0], reference[0], rel_tol=1e-12)
                assert math.isclose(expected[1], reference[1], rel_tol=1e-12)


def test_golden_far_field_blocks_are_one_chunk(monkeypatch, capsys):
    """Every far-field request of the golden corpus has at most 16 sources,
    and up to 16 sources a block is one chunk, on every detector and fold
    that the corpus reaches and on every block size, so the corpus keeps
    its block partials and its bits. Rows fall only above 16 sources: at 17
    a full unfolded block (4096 rows) is cut, above 32 a full folded arc
    block (2048 rows), and more sources never take more rows."""
    calls = set()
    original = classical._chunk_rows

    def recording(block_rows, n_sources):
        calls.add((block_rows, n_sources))
        return original(block_rows, n_sources)

    monkeypatch.setattr(classical, "_chunk_rows", recording)
    golden = pathlib.Path(__file__).parent / "golden"
    for case in json.loads((golden / "cli_corpus.json").read_text(encoding="utf-8"))["cases"]:
        config = ["--config", str(golden / case["config"])] if "config" in case else []
        assert cli.main(case["argv"] + config) == 0
    capsys.readouterr()
    assert {rows for rows, _ in calls} >= {128, 2048, 256}
    for rows, n_sources in calls:
        assert n_sources <= 16
        assert original(rows, n_sources) == rows
    for rows in {rows for rows, _ in calls} | {4096, 2048, 1024}:
        chunks = [original(rows, n) for n in [*range(1, 18), 40, 300, 2000, 20_000, 1 << 17]]
        assert chunks[:16] == [rows] * 16
        assert all(a >= b for a, b in zip(chunks, chunks[1:]))
        assert chunks[-1] == min(rows, classical._CHUNK_MIN_ROWS)
    assert original(4096, 17) < 4096 and original(2048, 32) == 2048 > original(2048, 33)


def test_farfield_powers_checks_every_array_against_the_threshold():
    rng = XorShift64Star(5)
    arrays = [random_array(rng, 4) for _ in range(4)]
    detector = far_detector(rng, arrays, "arc", 256)
    farfield_powers(arrays, detector)
    arrays[2] = make_linear_array(4, detector.radius / 50.0, 1.0)
    with pytest.raises(FarFieldViolationError):
        farfield_powers(arrays, detector)


def test_far_field_request_over_budget_is_refused_before_allocation():
    """A 10^10-point (theta, phi) walk of a line lifted off the x axis is
    refused before anything that grows with the detector is built."""
    refused_before_allocation(lifted_line(8, 0.2, 1.0), 100_000)


def test_a_line_request_over_budget_is_refused_before_its_weights_are_built():
    """A line on the x axis takes the 1-D rule on the hemisphere's u nodes;
    at 200 000 of them the cosine sums of their weights would take 10^10
    terms, and the request is refused before any is summed."""
    refused_before_allocation(make_linear_array(8, 0.2, 1.0), 200_000)


def refused_before_allocation(array, samples):
    detector = DetectorGrid(radius=1e3, geometry="hemisphere", samples=samples)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            farfield_power(array, detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_sweeps_build_the_quadrature_once(monkeypatch):
    """Each fundamental detector row's point and weight are built once per
    call, not once per step or per group; each chunk's path rows are built
    in one pass for a stack of equal-N groups (the six lines of a spacing
    sweep make one), and the reference source needs none. Linear
    arrays fold: the arc builds half its rows (two blocks of 2048 at 5000
    points), and so does the 96^2 hemisphere's 1-D rule on its 96 u nodes
    (one block of 48); a line lifted off the x axis takes every (theta, phi)
    node (blocks of 4096, 4096 and 1024)."""
    calls = {"rows": 0, "_path_differences": 0}
    build, paths = classical._detector_quadrature, classical._path_differences

    def counted_build(detector, rows, *line):
        points, weights = build(detector, rows, *line)
        calls["rows"] += weights.size
        return points, weights

    def counted_paths(*args):
        calls["_path_differences"] += 1
        return paths(*args)

    monkeypatch.setattr(classical, "_detector_quadrature", counted_build)
    monkeypatch.setattr(classical, "_path_differences", counted_paths)

    def run(action):
        for name in calls:
            calls[name] = 0
        action()
        return calls["rows"], calls["_path_differences"]

    arr = make_linear_array(3, 2.0, 0.5)
    det = DetectorGrid(radius=1e3, geometry="arc", samples=256)
    assert run(lambda: transmission_spectrum(arr, (0.5, 3.0), 9, det)) == (128, 1)
    two_blocks = DetectorGrid(radius=1e3, geometry="arc", samples=5000)
    assert run(lambda: transmission_spectrum(arr, (0.5, 3.0), 9, two_blocks)) == (2500, 2)
    hemisphere = DetectorGrid(radius=1e3, geometry="hemisphere", samples=96)
    assert run(lambda: transmission_spectrum(arr, (0.5, 3.0), 3, hemisphere)) == (48, 1)
    lifted = lifted_line(3, 2.0, 0.5)
    assert run(lambda: transmission_spectrum(lifted, (0.5, 3.0), 3, hemisphere)) == (96 ** 2, 3)
    fixed = {"n_sources": 4, "spacing": 0.3, "wavelength": 1.0, "samples": 256}
    phase_sweep = SweepSpec("farfield_power", "phase_delta", 0.0, 3.0, 6, fixed)
    assert run(lambda: run_sweep(phase_sweep)) == (128, 1)
    spacing_sweep = SweepSpec("farfield_power", "spacing", 0.1, 1.0, 6, fixed)
    assert run(lambda: run_sweep(spacing_sweep)) == (128, 1)
    assert run(lambda: dicke_scaling_check([2, 4, 8], "farfield", detector_samples=256)) == (128, 3)


def test_phase_steps_share_one_trig_pass(monkeypatch):
    """Consecutive arrays with the same positions and wavenumber share one
    cos/sin pass over each chunk's fundamental path rows, and consecutive
    runs of as many arrays share one batch, so a wavelength sweep takes one
    pass too; so do the steps of a spacing sweep, whose lines of equal N
    stack. Each pass covers the fundamental rows of the folded arc, half
    its points: 5000 points make blocks of 2048 and 452 rows. A batch holds
    at most 2^16 cells of cos or sin, N per step and row, and 2^12 in each
    matvec output, sets x classes per step and row, where palindromic
    phases (uniform ones here) take their matvecs over the in-order class
    only and a phase ramp over both: a 200-step spectrum of 3 sources on
    175 fundamental rows takes nine passes."""
    passes, widths = [], []
    original = classical._run_powers

    def recording(table, inverse, weights, wavenumbers, phasors, trig, outputs):
        passes.append((wavenumbers.size, phasors.shape[1], table.shape[2]))
        widths.append(phasors.shape[3])
        return original(table, inverse, weights, wavenumbers, phasors, trig, outputs)

    monkeypatch.setattr(classical, "_run_powers", recording)
    fixed = {"n_sources": 4, "spacing": 0.3, "wavelength": 1.0, "samples": 256}
    run_sweep(SweepSpec("farfield_power", "phase_delta", 0.0, 3.0, 6, fixed))
    assert passes == [(1, 6, 128)] and widths == [2]
    passes.clear()
    widths.clear()
    run_sweep(SweepSpec("farfield_power", "wavelength", 1.0, 2.0, 4, fixed))
    assert passes == [(4, 1, 128)] and widths == [1]
    passes.clear()
    run_sweep(SweepSpec("farfield_power", "phase_delta", 0.0, 3.0, 6, {**fixed, "samples": 5000}))
    assert passes == [(1, 6, 2048), (1, 6, 452)]
    passes.clear()
    run_sweep(SweepSpec("farfield_power", "spacing", 0.1, 1.0, 3, fixed))
    assert passes == [(3, 1, 128)]
    passes.clear()
    array = make_linear_array(3, 2.0, 0.5)
    transmission_spectrum(array, (0.5, 3.0), 200, DetectorGrid(radius=1e3, geometry="arc",
                                                                samples=350))
    assert len(passes) == -(-200 // ((1 << 12) // 175)) == 9
    assert sum(steps for steps, _, _ in passes) == 200 and set(widths[-9:]) == {1}
    assert all(steps * rows <= 1 << 12 for steps, _, rows in passes)


@pytest.mark.parametrize(
    "geometry, samples, layout, rows",
    [("arc", 257, "linear", 129), ("arc", 256, "linear", 128),
     ("hemisphere", 96, "linear", 48), ("hemisphere", 65, "linear", 33),
     ("hemisphere", 96, "lifted", 96 ** 2), ("hemisphere", 65, "lifted", 65 ** 2),
     ("arc", 257, "x-jittered", 257), ("hemisphere", 64, "x-jittered", 64),
     ("hemisphere", 64, "lifted-x-jittered", 64 ** 2), ("hemisphere", 64, "jittered", 64 ** 2)],
)
def test_trig_passes_take_one_node_per_orbit(monkeypatch, geometry, samples, layout, rows):
    """cos and sin are taken over the fundamental rows only, N of them per
    row and run: ceil(n/2) rows on the arc for a mirror-symmetric array,
    and on the hemisphere for a centered line on the x axis, which takes
    the 1-D rule on the arc's nodes; any array off the x axis takes every
    one of the hemisphere's n^2 (theta, phi) nodes, and a jittered array
    every row. An array jittered along x only is still a line on the
    hemisphere, with no mirror: n rows."""
    elements = []
    original = classical._run_powers

    def counting(table, inverse, weights, wavenumbers, *rest):
        elements.append(wavenumbers.size * table[0].size)
        return original(table, inverse, weights, wavenumbers, *rest)

    monkeypatch.setattr(classical, "_run_powers", counting)
    array = make_linear_array(5, 0.3, 1.0, [0.1, 2.0, 0.4, 5.0, 1.3])
    positions = array.positions.copy()
    if layout.endswith("jittered"):
        positions[:, 0] += [0.02, -0.01, 0.03, 0.0, -0.02]
    if layout == "jittered":
        positions[:, 1] += [0.01, 0.0, -0.02, 0.03, 0.0]
    if layout.startswith("lifted"):
        positions[:, 2] += 0.2
    array = SourceArray(positions, array.phases, 1.0)
    detector = DetectorGrid(radius=1e3, geometry=geometry, samples=samples)
    transmission_spectrum(array, (0.8, 1.2), 3, detector)
    assert sum(elements) == 3 * rows * 5


def whole_detector_quadrature(detector):
    """Reference: the quadrature as the engine built it before its walk built
    each block's rows, every point at once (a meshgrid for the hemisphere)."""
    n, radius = detector.samples, detector.radius
    if detector.geometry == "arc":
        step = math.pi / n
        theta = -math.pi / 2.0 + (np.arange(n) + 0.5) * step
        directions = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
        return radius * directions, np.full(n, radius * step)
    theta_step, phi_step = (math.pi / 2) / n, 2.0 * math.pi / n
    theta = (np.arange(n) + 0.5) * theta_step
    phi = (np.arange(n) + 0.5) * phi_step
    theta_grid, phi_grid = np.meshgrid(theta, phi, indexing="ij")
    sin_t = np.sin(theta_grid)
    directions = np.stack(
        [sin_t * np.cos(phi_grid), sin_t * np.sin(phi_grid), np.cos(theta_grid)], axis=-1
    ).reshape(-1, 3)
    weights = (radius ** 2 * sin_t * theta_step * phi_step).reshape(-1)
    return radius * directions, weights


@pytest.mark.parametrize(
    "geometry, samples",
    [("arc", 640), ("arc", 9000), ("hemisphere", 64), ("hemisphere", 96), ("hemisphere", 186)],
)
def test_block_quadrature_is_bit_equal_to_the_whole_detector_build(geometry, samples):
    """The walk builds each block's points and weights from the block's row
    indices; every float has the bits that the whole-detector build gave
    that row, in every block and for a slice of all rows."""
    detector = DetectorGrid(radius=1234.5, geometry=geometry, samples=samples)
    points, weights = whole_detector_quadrature(detector)
    blocks = list(classical._row_blocks(weights.size))
    assert len(blocks) == -(-weights.size // 4096)
    for rows in blocks + [slice(None)]:
        block_points, block_weights = _detector_quadrature(detector, np.arange(weights.size)[rows])
        assert block_points.tobytes() == points[rows].tobytes()
        assert block_weights.tobytes() == weights[rows].tobytes()


def row_intensities(table, norms, weights, phases, wavenumber):
    """Weighted intensity (classes, rows) of each row of a path table (rows,
    N), its field summed over the sources one at a time in ascending order,
    as real = sum cos(k d)/r cos(phi) - sum sin(k d)/r sin(phi) and imag =
    sum cos(k d)/r sin(phi) + sum sin(k d)/r cos(phi). A second row of
    ``weights`` is the reversed class: the same rows summed against the
    phases reversed."""
    inverse = 1.0 / (table + norms[:, None])
    cosine = np.cos(table * wavenumber) * inverse
    sine = np.sin(table * wavenumber) * inverse
    intensities = []
    for order in (slice(None), slice(None, None, -1))[:len(weights)]:
        cos_phi, sin_phi = np.cos(phases)[order], np.sin(phases)[order]
        sums = np.zeros((4, len(table)))
        for j in range(len(phases)):
            sums[0] += cosine[:, j] * cos_phi[j]
            sums[1] += sine[:, j] * sin_phi[j]
            sums[2] += cosine[:, j] * sin_phi[j]
            sums[3] += sine[:, j] * cos_phi[j]
        real, imag = sums[0] - sums[1], sums[2] + sums[3]
        intensities.append(real * real + imag * imag)
    return np.array(intensities) * weights


def whole_table_power(detector, positions, phases, wavenumber):
    """Reference: the engine before it streamed. It builds the path table of
    every fundamental row of the positions' fold at once (of the 1-D rule
    on the arc's nodes, for a line on the hemisphere), sums each row's
    field source by source (see row_intensities), then cuts the rows into
    the engine's blocks and chunks, sums each chunk's weighted intensities
    pairwise, class by class, and adds the chunk partials in order."""
    fold = classical._fold(detector, positions)
    walked = classical._walked(detector, fold.line)
    fundamental, block = classical._fundamental_rows(walked, fold.folded)
    nodes = np.arange(fundamental)
    points, weights = _detector_quadrature(detector, nodes, fold.line)
    weights = classical._row_weights(walked, fold, nodes, weights)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    squares = np.einsum("ij,ij->i", positions, positions)
    distance = np.zeros((len(points), len(positions)))
    near = np.zeros_like(distance)
    for axis in range(3):
        offset = points[:, axis:axis + 1] - positions[:, axis]
        distance += offset * offset
        near += points[:, axis:axis + 1] * positions[:, axis]
    table = (near * -2.0 + squares) / (np.sqrt(distance) + norms[:, None])
    intensities = row_intensities(table, norms, weights, phases, wavenumber)
    chunk = classical._chunk_rows(block, len(positions))
    power = 0.0
    for rows in classical._row_blocks(fundamental, block):
        for part in classical._row_blocks(rows.stop - rows.start, chunk):
            assert part.stop - part.start >= 2
            power += float(intensities[:, rows][:, part].sum())
    return power


# (geometry, samples, source counts, stacks): a last row of the arc joining
# the block before it (arc 4097, N = 7); one chunk per block (4096 points,
# N = 12); chunks of three rows longer than einsum's 8192-element buffer,
# the last of two rows (arc 65, N = 20 000); chunks of 1024 rows in three
# blocks (hemisphere 96^2, N = 64); a last chunk of four rows, a lone row
# joined to three, at N = 20 000 (arc 64); and groups of different source
# counts sharing one call. Every group below 1000 sources comes twice: in
# a random layout, which takes the unfolded walk, and as a line, which
# folds with a reversed class (on the hemisphere, on the u nodes of the 1-D
# rule). The stacks cases add equal-N groups (see stack_arrays): lines of
# three spacings as three stacks of one group, each cut into two chunks
# (arc 4097, N = 40), or, lifted off the x axis, unfolded, also as three
# stacks of one group, since one group's matvec outputs on a full block of
# 4096 rows fill _OUTPUT_CELLS (hemisphere 96^2, N = 5); palindromic phases
# on folded lines; and a stack whose next array is jittered, so the stack
# splits at the fold
STREAMED_CASES = [
    ("arc", 4097, (7, 7, 3), None), ("arc", 4096, (12, 1, 12), None),
    ("arc", 65, (20_000, 5), None), ("hemisphere", 96, (64, 9, 64), None),
    ("arc", 64, (20_000,), None), ("arc", 4097, (), "spacings"),
    ("hemisphere", 96, (), "spacings"), ("arc", 257, (), "palindromes"),
    ("hemisphere", 66, (), "palindromes"), ("arc", 513, (), "jittered"),
]


@pytest.mark.parametrize(
    "geometry, samples, counts, stacks", STREAMED_CASES,
    ids=[f"{geometry}-{samples}-{stacks or f'counts{i}'}"
         for i, (geometry, samples, _, stacks) in enumerate(STREAMED_CASES)],
)
def test_streamed_engine_is_bit_equal_to_the_whole_table_walk(geometry, samples, counts, stacks):
    """Each array's power is the sum of its chunk partials in walk order,
    each row's field sums the sources in ascending order, and the reversed
    class sums them against the phases reversed, so neither streaming nor
    batching moves a bit, nor stacking equal-N groups into one path pass,
    nor sharing one class's intensities between both classes of palindromic
    phases. Runs of equal positions and wavenumber share a pass here, and
    each group holds several runs."""
    rng = XorShift64Star(samples + sum(counts))
    arrays = []
    for n in counts:
        # a random layout of 20 000 sources would spend seconds on its O(N^2)
        # distinctness check; a linear array takes the O(N) path, and one
        # off the origin has no mirror to fold onto
        linear = make_linear_array(n, 1e-4, 0.5 + rng.uniform(), rng.phases(n))
        layouts = ([random_array(rng, n), linear] if n < 1000
                   else [replace(linear, positions=linear.positions + [1e-4 / 3, 0.0, 0.0])])
        for array in layouts:
            arrays += [array, replace(array, phases=rng.phases(n)),
                       replace(array, wavelength=array.wavelength * 1.25)]
    if stacks:
        arrays += stack_arrays(rng, stacks, 40 if geometry == "arc" else 5)
    detector = far_detector(rng, arrays, geometry, samples)
    powers, _ = farfield_powers(arrays, detector)
    classes = {classical._fold(detector, array.positions).classes for array in arrays}
    lifted = geometry == "hemisphere" and stacks == "spacings"
    assert classes == ({1} if lifted else {2} if stacks in ("spacings", "palindromes")
                       else {1, 2} if min(counts, default=0) < 1000 else {1})
    if stacks:
        check_stacks(classical._position_groups(steps_of(arrays), detector), stacks, detector)
    for power, array in zip(powers, arrays):
        assert power == whole_table_power(detector, array.positions, array.phases,
                                          array.wavenumber)


def stack_arrays(rng, kind, n):
    """Equal-N groups for the stacks cases: lines of three spacings, each at
    two wavelengths (lifted off the x axis for N = 5, which the hemisphere
    then walks on every (theta, phi) node); a line at uniform phases and at a
    mirrored random set, each at three wavelengths; or two lines of N = 9
    and the second line jittered along x."""
    wavelength = 0.5 + rng.uniform()
    if kind == "palindromes":
        half = rng.phases(n // 2)
        mirrored = [*half, *([rng.uniform()] if n % 2 else []), *half[::-1]]
        arrays = [make_linear_array(n, 1e-4, wavelength, phases)
                  for phases in ([rng.uniform()] * n, mirrored)]
        return [replace(array, wavelength=wavelength * scale)
                for array in arrays for scale in (1.0, 1.1, 1.25)]
    if kind == "spacings":
        build = lifted_line if n == 5 else make_linear_array
        lines = [build(n, spacing, wavelength, rng.phases(n)) for spacing in (1e-4, 2e-4, 3e-4)]
        return [replace(line, wavelength=wavelength * scale)
                for line in lines for scale in (1.0, 1.25)]
    lines = [make_linear_array(9, spacing, wavelength, rng.phases(9)) for spacing in (1e-4, 2e-4)]
    jittered = lines[1].positions + np.outer(rng.phases(9) * 1e-6, [1.0, 0.0, 0.0])
    return [*lines, replace(lines[1], positions=jittered)]


def check_stacks(stacks, kind, detector):
    """The stacks cases walk the stacks they are built for (see
    stack_arrays)."""
    shapes = []
    for stack in stacks:
        n, plan = stack.positions[0].shape[0], stack.plan
        walked = classical._walked(detector, plan.fold.line)
        rows = classical._fundamental_rows(walked, plan.fold.folded)[1]
        chunks = len(list(classical._row_blocks(rows, plan.height)))
        shapes.append((n, len(stack.runs), chunks, plan.fold.classes, plan.width))
    if kind == "spacings":
        arc = detector.geometry == "arc"
        assert shapes == [(40, 1, 2, 2, 2) if arc else (5, 1, 1, 1, 1)] * 3
    elif kind == "palindromes":
        assert shapes[-1][3:] == (2, 1)
    else:
        assert shapes == [(9, 2, 1, 2, 2), (9, 1, 1, 1, 1)]


def test_streamed_engine_holds_one_block_of_the_path_table(monkeypatch):
    """At N = 64, going from 96^2 to 192^2 hemisphere points grows neither
    the charge nor the peak: the walk holds one chunk of path differences
    and builds one block of the quadrature at a time, so nothing it holds
    grows with the detector. The peak may move by a few hundred bytes of
    Python objects, far less than one float column of a block (32 KB), and
    stays below the charge."""
    rng = XorShift64Star(6464)
    array = random_array(rng, 64)
    charged, peaks = [], []
    original = classical._check_budget

    def recording(needed, request):
        charged.append(needed)
        return original(needed, request)

    monkeypatch.setattr(classical, "_check_budget", recording)
    for samples in (96, 192):
        detector = far_detector(rng, [array], "hemisphere", samples)
        tracemalloc.start()
        try:
            farfield_power(array, detector)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert charged[1] == charged[0]
    assert peaks[1] - peaks[0] < 8 * 4096
    assert peaks[0] <= charged[0] and peaks[1] <= charged[1]


def over_work(points, n_sources, arrays, operations):
    return (f"far-field request of {points} detector points x {n_sources} sources x {arrays}"
            f" arrays needs {operations} operations, over the work budget of"
            f" {core.WORK_BUDGET} operations")


def test_far_field_request_over_work_budget_is_refused_before_the_walk(monkeypatch):
    """Per fundamental detector row and source the engine counts 7
    operations for each positions group's path differences and 7 for each
    trig pass, and per materialized row and source 1 for each phase set's
    matvecs. This line, lifted off the x axis, takes the 1024^2
    hemisphere's (theta, phi) walk, unfolded: each of its points is a
    fundamental row and one materialized row. A hemisphere spectrum of
    10 000 steps fits in memory but would take hours; a 400-step phase
    sweep passes on its trig passes alone and is refused for its matvecs.
    Both are refused at once, before the quadrature is built."""
    def build(detector, rows, *line):
        raise AssertionError("the quadrature was built")

    monkeypatch.setattr(classical, "_detector_quadrature", build)
    array = lifted_line(64, 0.01, 1.0)
    detector = DetectorGrid(radius=1e3, geometry="hemisphere", samples=1024)
    points = 1024 ** 2
    spectrum = [(array.positions, 1.0 + i / 10_000, array.extent, array.phases)
                for i in range(10_000)]
    phases = [(array.positions, 1.0, array.extent,
               core._checked_phases(np.arange(64) * (i / 400), 64)) for i in range(400)]
    assert points * 64 * (7 + 7) < core.WORK_BUDGET
    for arrays, operations in ((spectrum, points * 64 * (7 + 10_000 * (7 + 1))),
                               (phases, points * 64 * (7 + 7 + 400))):
        started = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            classical._step_powers(arrays, detector)
        assert time.perf_counter() - started < 1.0
        assert str(refused.value) == over_work(points, 64, len(arrays), operations)


# (geometry, samples, sources, layout): random layouts take the unfolded
# walk, and so does a centered lattice in the x-y plane, which the mirrors
# map onto itself in neither order nor reversed; linear arrays fold onto the
# arc's mirror, on the arc and on a hemisphere's u nodes; on a small arc with
# many sources the fold check's per-source term shows, on 8192-point
# arcs with 1000 and 4000 sources the chunks are shorter than the block, and
# a line on a hemisphere of 17 000 samples sums its weights' cosines one
# node per chunk, since each node's 8500 terms exceed a chunk
BUDGET_CASES = [
    ("arc", 9000, 64, "random"), ("arc", 5000, 9, "random"), ("hemisphere", 96, 64, "random"),
    ("hemisphere", 128, 8, "random"), ("arc", 200, 300, "random"), ("arc", 64, 2000, "random"),
    ("hemisphere", 96, 64, "linear"), ("hemisphere", 66, 49, "lattice"),
    ("arc", 201, 300, "linear"), ("arc", 5000, 9, "linear"), ("arc", 64, 2000, "linear"),
    ("arc", 8192, 1000, "linear"), ("arc", 8192, 4000, "linear"),
    ("hemisphere", 17_000, 8, "linear"),
]


def budget_case_array(rng, n_sources, layout):
    if layout == "random":
        return random_array(rng, n_sources)
    if layout == "linear":
        return make_linear_array(n_sources, 0.3, 1.0, rng.phases(n_sources))
    side = math.isqrt(n_sources)
    x, y = np.meshgrid(np.arange(side) - (side - 1) / 2, np.arange(side) - (side - 1) / 2)
    positions = np.stack([x.ravel(), y.ravel(), np.zeros(side * side)], axis=1) * 0.3
    return SourceArray(positions, rng.phases(side * side), 1.0)


@pytest.mark.parametrize(
    "geometry, samples, n_sources, layout", BUDGET_CASES,
    ids=[f"{g}-{s}-{n}" + ("" if layout == "random" else f"-{layout}")
         for g, s, n, layout in BUDGET_CASES],
)
def test_far_field_budget_covers_the_measured_peak(
    monkeypatch, geometry, samples, n_sources, layout
):
    """The budget charges the quadrature columns and what the block walk
    holds; what one request really holds stays below it. Small detectors
    with many sources are held mostly by the per-source terms and numpy's
    operand buffers. A folded walk holds a path table of fundamental rows
    and trig arrays of every materialized row, one chunk of each."""
    rng = XorShift64Star(samples + n_sources)
    array = budget_case_array(rng, n_sources, layout)
    detector = far_detector(rng, [array], geometry, samples)
    peak, charged = peak_and_charge(monkeypatch, lambda: farfield_power(array, detector))
    assert peak <= charged <= 2 * peak


# (geometry, samples, groups): four lines of rising N that fold onto the
# arc's mirror and cut a block into fewer rows per chunk as N grows; and a
# folded line, the same line jittered (unfolded) and a short line, on one
# hemisphere, so groups of different folds share a call and each other's
# blocks
MULTI_GROUP_CASES = [
    ("arc", 8192, [(9, "linear"), (40, "linear"), (300, "linear"), (4000, "linear")]),
    ("hemisphere", 96, [(64, "linear"), (64, "jittered"), (8, "linear")]),
]


@pytest.mark.parametrize("geometry, samples, groups", MULTI_GROUP_CASES,
                         ids=[f"{g}-{s}" for g, s, _ in MULTI_GROUP_CASES])
def test_far_field_budget_covers_the_measured_peak_of_several_groups(
    monkeypatch, geometry, samples, groups
):
    """A call of several positions groups holds one block's quadrature and
    one group's walk of it at a time, and each group's arrays are freed
    before the next group walks: the charge, the largest single group's
    walk, covers the peak of the whole call."""
    rng = XorShift64Star(samples + len(groups))
    arrays = []
    for n_sources, layout in groups:
        array = budget_case_array(rng, n_sources, "linear")
        if layout == "jittered":
            positions = array.positions.copy()
            positions[:, 0] += [0.01 * (rng.uniform() - 0.5) for _ in range(n_sources)]
            array = SourceArray(positions, rng.phases(n_sources), array.wavelength)
        arrays += [array, replace(array, phases=rng.phases(n_sources))]
    detector = far_detector(rng, arrays, geometry, samples)
    folds = {classical._fold(detector, array.positions).folded for array in arrays}
    assert len(folds) == (1 if geometry == "arc" else 2)
    peak, charged = peak_and_charge(monkeypatch, lambda: farfield_powers(arrays, detector))
    assert peak <= charged <= 2 * peak


# (steps, sources, samples, swept, batch): the most runs in one batch, a
# 200-step spectrum of a 3-source line whose 175 fundamental arc rows take
# 11 runs a batch; the same spectrum on a 2048-point arc, whose 1024 rows
# take 2 runs a batch and whose walk holds under 0.5 MB; and the most phase
# sets in one run, a 117-step phase sweep
BATCH_CASES = [(200, 3, 350, "wavelength", (11, 1)), (200, 3, 2048, "wavelength", (2, 1)),
               (117, 10, 1024, "phases", (1, 117))]


@pytest.mark.parametrize("steps, n_sources, samples, swept, batch", BATCH_CASES,
                         ids=["wavelength-200", "wavelength-200-2048", "phases-117"])
def test_far_field_budget_covers_the_measured_peak_of_a_batch(
    monkeypatch, steps, n_sources, samples, swept, batch
):
    """A batch of runs holds a trig array of all its runs and the matvec
    outputs of all its phase sets at once; the charge covers the peak at
    both extremes, many runs of one set and one run of many sets. A batch
    caps its matvec outputs as well as its cos or sin, so a spectrum of a
    few sources on a large arc holds under 0.5 MB."""
    rng = XorShift64Star(steps + n_sources)
    array = make_linear_array(n_sources, 0.3, 1.0, rng.phases(n_sources))
    if swept == "wavelength":
        arrays = [replace(array, wavelength=float(w)) for w in np.linspace(0.5, 3.0, steps)]
    else:
        arrays = [replace(array, phases=np.arange(n_sources) * delta)
                  for delta in np.linspace(0.0, 3.0, steps)]
    detector = far_detector(rng, arrays, "arc", samples)
    [stack] = classical._position_groups(steps_of(arrays), detector)
    longest = max(stack.plan.batches, key=lambda runs: runs.stop - runs.start)
    sets = stack.plan.offsets[longest.start + 1] - stack.plan.offsets[longest.start]
    assert (longest.stop - longest.start, sets) == batch
    peak, charged = peak_and_charge(monkeypatch, lambda: farfield_powers(arrays, detector))
    assert peak <= charged <= 2 * peak
    if samples == 2048:
        assert peak < 2 ** 19


def walk_allocations(monkeypatch, name, call):
    """Run ``call()`` and record each call of the walk ``classical.<name>``:
    the byte sizes of the arrays its plan lists (numpy's buffers aside, and
    for _slab_walk the walk's own four) and, at every line of the walk and
    of the classical functions it calls, the byte sizes of the numpy arrays
    that the walk has allocated and still holds."""
    walk, walks = getattr(classical, name), []
    numpy_arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def held():
        return collections.Counter(tracemalloc.take_snapshot().filter_traces(numpy_arrays).traces)

    def line(frame, event, arg):
        if event == "line":
            _, before, lines = walks[-1]
            lines.append(collections.Counter(trace.size for trace in (held() - before).elements()))
        return line

    def calls(frame, event, arg):
        return line if frame.f_code.co_filename == classical.__file__ else None

    def recorded(*args):
        if name == "_slab_walk":
            shapes = [args[-1][array] for array in ("table", "plane", "rows", "slab")]
        else:
            shapes = [shape for array, shape in args[0].plan.walk.items() if array != "buffers"]
        walks.append((collections.Counter(8 * math.prod(shape) for shape in shapes), held(), []))
        tracing = sys.gettrace()
        sys.settrace(calls)
        try:
            return walk(*args)
        finally:
            sys.settrace(tracing)

    monkeypatch.setattr(classical, name, recorded)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
    return [(planned, lines) for planned, _, lines in walks]


def far_field_walk_cases():
    """Far-field calls whose stacks fold with two classes and batch several
    runs (a spectrum), take one run of many sets (a phase sweep), stack
    equal-N groups with a shorter last stack (a spacing sweep), or walk
    the hemisphere's (theta, phi) nodes unfolded."""
    line = make_linear_array(5, 0.3, 1.0, [0.1, 2.0, 0.4, 5.0, 1.3])
    arc = DetectorGrid(radius=1e3, geometry="arc", samples=300)
    # seven lines of 40 sources on a 1024-point arc walk as stacks of 3, 3 and 1
    fixed = {"n_sources": 40, "wavelength": 1.0, "phase_profile": "random", "samples": 1024}
    yield lambda: transmission_spectrum(line, (1.0, 2.0), 24, arc)
    yield lambda: farfield_powers([replace(line, phases=np.arange(5) * delta)
                                   for delta in np.linspace(0.0, 3.0, 12)], arc)
    yield lambda: run_sweep(SweepSpec("farfield_power", "spacing", 0.1, 0.5, 7, fixed, seed=3))
    hemisphere = DetectorGrid(radius=1e3, geometry="hemisphere", samples=64)
    yield lambda: farfield_powers([lifted_line(4, 0.3, 1.0), random_array(XorShift64Star(9), 3)],
                                  hemisphere)


@pytest.mark.parametrize("case", range(4))
def test_far_field_walk_allocates_only_its_plan(monkeypatch, case):
    """Every array _stack_walk holds at a line boundary is one its plan
    lists, as many times as listed, and every listed array is allocated:
    chunks and batches take prefixes of the planned arrays, so the charge,
    which counts the plan, counts the walk."""
    walks = walk_allocations(monkeypatch, "_stack_walk", list(far_field_walk_cases())[case])
    assert walks
    for planned, lines in walks:
        assert all(not held - planned for held in lines)
        assert functools.reduce(operator.or_, lines) == planned


def test_a_run_of_equal_stacks_holds_one_plan():
    """A 1000-step spacing sweep of 40 sources on a 1024-point arc walks as
    334 stacks of one plan, so its groups, stacks and plan hold under 400 KB
    (a plan for each stack held 762 KB)."""
    rng = XorShift64Star(3)
    steps = steps_of(make_linear_array(40, float(spacing), 1.0, rng.phases(40))
                     for spacing in np.linspace(0.1, 0.5, 1000))
    detector = DetectorGrid(radius=1e4, geometry="arc", samples=1024)
    tracemalloc.start()
    try:
        stacks = classical._position_groups(steps, detector)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stacks) == 334 and len({id(stack.plan) for stack in stacks}) == 1
    assert held <= 400_000


def test_equal_phase_arrays_share_one_phasor_row():
    """Phase arrays are matched by value: a spacing sweep whose steps each
    build an equal phase array plans one cos/sin row for each stack of
    three groups, not three, and each power is the array's own call's."""
    arrays = [make_linear_array(40, float(spacing), 1.0, np.full(40, 0.3))
              for spacing in np.linspace(0.1, 0.5, 7)]
    detector = DetectorGrid(radius=1e4, geometry="arc", samples=1024)
    stacks = classical._position_groups(steps_of(arrays), detector)
    assert [len(stack.runs) for stack in stacks] == [3, 3, 1]
    assert stacks[0].plan.walk["phasors"][0] == 1
    powers, _ = farfield_powers(arrays, detector)
    assert list(powers) == [farfield_powers([array], detector)[0][0] for array in arrays]


@pytest.mark.parametrize("resolution, n_waves", [(48, 3), ((40, 32, 64), 5), ((8, 8, 2100), 2),
                                                 ((62, 8, 8), 400)])
def test_grid_walk_allocates_only_its_plan(monkeypatch, resolution, n_waves):
    """Every array _slab_walk holds at a line boundary is one of the plan's
    table, plane, rows and slab, and each is allocated once: on one chunk,
    on several chunks and slabs, on z-lines cut into chunks, and on slabs
    capped by 400 waves."""
    waves = PhasedWaveSet(WaveMode.plane(np.array([1.0, -2.0, 0.5])),
                          tuple(np.linspace(0.1, 6.0, n_waves)))
    call = lambda: field_energy_grid(waves, BoxVolume((1.0, 2.0, 0.7)), resolution)  # noqa: E731
    [(planned, lines)] = walk_allocations(monkeypatch, "_slab_walk", call)
    assert all(not held - planned for held in lines)
    assert functools.reduce(operator.or_, lines) == planned


def test_spectrum_of_four_thousand_sources_peaks_under_sixteen_megabytes():
    """The walk holds one chunk of path differences, not a block of them: a
    two-step spectrum of a 4000-source line on an 8192-point arc (two blocks
    of 2048 fundamental rows, which once held a 64 MB path table) peaks
    under 16 MB."""
    array = make_linear_array(4000, 0.3, 1.0)
    detector = DetectorGrid(radius=classical._far_field_radius(2.0, array.extent),
                            geometry="arc", samples=8192)
    tracemalloc.start()
    try:
        transmission_spectrum(array, (1.0, 2.0), 2, detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n_sources, steps",
                         [(300, 2), (2000, 2), (300, 30), (20, 300), (300, 300)])
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
    steps; 300 of each holds tables of every step, whose checks must not
    take temporaries of a whole table."""
    charged = []
    original = classical._check_budget

    def recording(needed, request):
        if request.startswith("far-field sweep"):
            charged.append(needed)
        return original(needed, request)

    peaks = []

    def stub(steps, detector):
        peaks.append(tracemalloc.get_traced_memory()[1])
        steps = list(steps)
        return np.ones(len(steps)), np.ones(len(steps))

    monkeypatch.setattr(classical, "_check_budget", recording)
    monkeypatch.setattr(classical, "_step_powers", stub)
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


def run_charge_case(kind):
    """One far-field call of PINNED_CHARGES."""
    rng = XorShift64Star(len(kind))
    if kind == "spacing-pieces":
        fixed = {"n_sources": 40, "wavelength": 1.0, "phase_profile": "random", "samples": 1024}
        run_sweep(SweepSpec("farfield_power", "spacing", 0.1, 0.5, 7, fixed, seed=3))
    elif kind == "source-count":
        fixed = {"spacing": 0.3, "wavelength": 1.0, "phase_profile": "random"}
        run_sweep(SweepSpec("farfield_power", "source_count", 2, 7, 6, fixed, seed=4))
    elif kind == "palindromes":
        detector = DetectorGrid(radius=1e3, geometry="arc", samples=512)
        transmission_spectrum(make_linear_array(5, 0.4, 1.0), (1.0, 2.0), 30, detector)
    elif kind == "jittered":
        line = make_linear_array(9, 0.2, 1.0, rng.phases(9))
        jittered = line.positions + np.outer(rng.phases(9) * 1e-3, [1.0, 0.0, 0.0])
        arrays = [line, replace(line, phases=rng.phases(9)), replace(line, positions=jittered)]
        farfield_powers(arrays, DetectorGrid(radius=1e3, geometry="arc", samples=300))
    elif kind == "hemisphere-blocks":
        arrays = [lifted_line(4, 0.3, 1.0, rng.phases(4)), random_array(rng, 4)]
        farfield_powers(arrays, DetectorGrid(radius=1e3, geometry="hemisphere", samples=192))
    elif kind == "hemisphere-line":
        line = make_linear_array(9, 0.2, 1.0, rng.phases(9))
        jittered = line.positions + np.outer(rng.phases(9) * 1e-3, [1.0, 0.0, 0.0])
        arrays = [line, replace(line, phases=rng.phases(9)), replace(line, positions=jittered)]
        farfield_powers(arrays, DetectorGrid(radius=1e3, geometry="hemisphere", samples=300))
    else:
        dicke_scaling_check([2, 4, 8], regime="farfield", detector_samples=256)


# every memory and work charge of one far-field call, in order: a spacing
# sweep of 40 sources on a 1024-point arc, whose seven groups walk as stacks
# of three, three and one; a source_count sweep, one stack per N; a
# spectrum of in-phase sources, which takes one fold class; a jittered line
# after two straight ones, so the call walks two folds; a line lifted off
# the x axis and a random layout, both unfolded, on a hemisphere of nine
# blocks (every one of its 36 864 points a row of each); the
# jittered case's lines on a hemisphere, which walks them on the arc's
# nodes: the arc's work, plus 4 operations per term of the weights' cosine
# sum, 150 terms for each of the folded line's 150 fundamental nodes and the
# jittered line's 300, and more memory, since a block's build now holds the
# weights' arrays (see classical._plan); and the dicke fit, a source_count
# sweep. Each far-field sweep, the fit included, charges the bytes its steps
# hold and then each run of its equal positions groups as one stack, folded
# with one class and of width 1 (see classical._check_farfield_sweep), before
# its walk: each of those charges is at most the walk's charge that follows.
# Each memory charge is 8 bytes per cell of the largest plan, one for each
# run of equal stacks, plus the Python objects of the call, its plans and
# their runs, stacks and arrays
FAR = "far-field request of"
PINNED_CHARGES = {
    "spacing-pieces": [
        ("_check_budget", 392, "sweep of 7 steps"),
        ("_check_budget", 16384, "far-field sweep of 7 steps x 40 sources"),
        ("_check_budget", 1705856, f"{FAR} 1024 detector points x 40 sources"),
        ("_check_work", 2150400, f"{FAR} 1024 detector points x 40 sources x 7 arrays"),
        ("_check_budget", 1752656, f"{FAR} 1024 detector points x 40 sources"),
        ("_check_work", 2293760, f"{FAR} 1024 detector points x 40 sources x 7 arrays"),
    ],
    "source-count": [
        ("_check_budget", 336, "sweep of 6 steps"),
        ("_check_budget", 4728, "far-field sweep of 6 steps x 7 sources"),
        ("_check_budget", 222576, f"{FAR} 1024 detector points x 7 sources"),
        ("_check_work", 207360, f"{FAR} 1024 detector points x 7 sources x 6 arrays"),
        ("_check_budget", 239216, f"{FAR} 1024 detector points x 7 sources"),
        ("_check_work", 221184, f"{FAR} 1024 detector points x 7 sources x 6 arrays"),
    ],
    "palindromes": [
        ("_check_budget", 15840, "far-field sweep of 30 steps x 5 sources"),
        ("_check_budget", 467736, f"{FAR} 512 detector points x 5 sources"),
        ("_check_work", 354560, f"{FAR} 512 detector points x 5 sources x 30 arrays"),
    ],
    "jittered": [
        ("_check_budget", 157792, f"{FAR} 300 detector points x 9 sources"),
        ("_check_work", 64800, f"{FAR} 300 detector points x 9 sources x 3 arrays"),
    ],
    "hemisphere-blocks": [
        ("_check_budget", 905040, f"{FAR} 36864 detector points x 4 sources"),
        ("_check_work", 4423680, f"{FAR} 36864 detector points x 4 sources x 2 arrays"),
    ],
    "hemisphere-line": [
        ("_check_budget", 329960, f"{FAR} 300 detector points x 9 sources"),
        ("_check_work", 64800 + 4 * 150 * (150 + 300),
         f"{FAR} 300 detector points x 9 sources x 3 arrays"),
    ],
    "dicke": [
        ("_check_budget", 2832, "far-field sweep of 3 steps x 8 sources"),
        ("_check_budget", 78016, f"{FAR} 256 detector points x 8 sources"),
        ("_check_work", 26880, f"{FAR} 256 detector points x 8 sources x 3 arrays"),
        ("_check_budget", 79048, f"{FAR} 256 detector points x 8 sources"),
        ("_check_work", 28672, f"{FAR} 256 detector points x 8 sources x 3 arrays"),
    ],
}


@pytest.mark.parametrize("kind", list(PINNED_CHARGES))
def test_far_field_charges_are_pinned(monkeypatch, kind):
    """The memory and work charges of these far-field calls are pinned. The
    memory charge is the largest plan, that of a full stack however the walk
    cuts a run of equal-N groups into stacks, plus the Python objects of the
    call, its plans, its stacks and its arrays; the work and array counts
    add up over the stacks' groups."""
    records = []
    for module, name in ((classical, "_check_budget"), (classical, "_check_work"),
                         (experiments, "_check_budget")):
        def recording(amount, request, name=name, original=getattr(module, name)):
            records.append((name, amount, request))
            return original(amount, request)

        monkeypatch.setattr(module, name, recording)
    run_charge_case(kind)
    assert records == PINNED_CHARGES[kind]


def test_spectrum_steps_are_not_charged_for_positions_they_share():
    """A spectrum's steps share their array's positions and phases, so 20 000
    steps of 2000 sources pass the sweep check (which once charged them 32
    bytes per source each) and reach the far-field budgets, whose work
    budget refuses this hemisphere's (theta, phi) walk at once."""
    array = lifted_line(2000, 0.5, 1.0)
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


def test_source_count_steps_of_a_repeated_count_share_their_positions(monkeypatch):
    """A source_count sweep's steps whose rounded counts repeat (1, 2, 2, 2,
    3, 4, 4) reuse the previous step's array, so each distinct count's
    positions are built and validated once, and its steps walk as one
    positions group."""
    calls = []
    original = core._checked_extent

    def counted(positions):
        calls.append(len(positions))
        return original(positions)

    monkeypatch.setattr(core, "_checked_extent", counted)
    fixed = {"spacing": 0.3, "wavelength": 1.0, "samples": 256, "phase_profile": "random"}
    run_sweep(SweepSpec("farfield_power", "source_count", 1, 4, 7, fixed))
    assert calls == [1, 2, 3, 4]


def test_distinct_phases_are_matched_bit_for_bit_in_first_seen_order(monkeypatch):
    """Phase arrays are matched by their bits, not their values or their
    objects: an equal copy joins its original, -0.0 stays apart from 0.0,
    and the distinct arrays keep the order they were first seen in, also
    when every hash collides."""
    zero, copy, negative, other = (core._readonly(np.array(values)) for values in (
        [0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]))
    runs = [[(1.0, [zero, negative]), (2.0, [copy])], [(1.0, [other, zero, copy])]]
    for collide in (False, True):
        if collide:
            monkeypatch.setattr(classical, "hash", lambda data: 0, raising=False)
        distinct, rows = classical._distinct_phases(runs)
        assert [id(phases) for phases in distinct] == [id(zero), id(negative), id(other)]
        assert rows == {id(zero): 0, id(negative): 1, id(copy): 0, id(other): 2}


def test_matching_phase_arrays_keeps_no_copy_of_them():
    """Grouping a sweep's arrays matches their phase arrays without keeping a
    copy of each: 50 arrays of 4000 random phases (1.6 MB) group under a
    quarter of that. Keying each by its bytes once held a second copy of
    every one, made before any budget check and counted in none."""
    rng = np.random.default_rng(5)
    array = make_linear_array(4000, 0.3, 1.0)
    steps = steps_of(replace(array, phases=rng.uniform(0.0, TWO_PI, 4000)) for _ in range(50))
    detector = DetectorGrid(radius=1e6, geometry="arc", samples=64)
    tracemalloc.start()
    try:
        [stack] = classical._position_groups(steps, detector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack.runs[0][0][1]) == 50
    assert peak < 50 * 4000 * 8 / 4


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n_sources", [5, 6])
@pytest.mark.parametrize("geometry, samples", [("arc", 65), ("arc", 64), ("hemisphere", 96)])
def test_line_path_differences_keep_the_general_bits(geometry, samples, n_sources, seed):
    """On a line (sources with y = z = 0, nodes with y = 0) the path
    differences skip the y and z passes and keep every bit of the general
    path, for odd N (a source at x = 0) and even N, and for odd samples (the
    middle node at x = 0) and even ones; the hemisphere walks a line on the
    arc's nodes."""
    rng = XorShift64Star(seed)
    line = make_linear_array(n_sources, 0.1 + rng.uniform(), 1.0)
    detector = DetectorGrid(radius=1e3, geometry=geometry, samples=samples)
    points, _ = _detector_quadrature(detector, np.arange(samples), geometry == "hemisphere")
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    positions = line.positions[None]
    squares = np.einsum("gij,gij->gi", positions, positions)
    tables = []
    for flag in (False, True):
        table, inverse, scratch = (np.empty((1, n_sources, samples)) for _ in range(3))
        classical._path_differences(points, norms, positions, squares, table, inverse, scratch,
                                    flag)
        tables.append((table.tobytes(), inverse.tobytes()))
    assert tables[0] == tables[1]


def test_an_array_off_the_x_axis_takes_the_y_and_z_terms(monkeypatch):
    """Only a line skips the y and z passes: the same line lifted off the x
    axis, on the arc or the hemisphere, takes them."""
    flags = []
    paths = classical._path_differences

    def recorded(*args):
        flags.append(args[-1])
        return paths(*args)

    monkeypatch.setattr(classical, "_path_differences", recorded)
    line = make_linear_array(4, 0.3, 1.0)
    for geometry in ("arc", "hemisphere"):
        detector = DetectorGrid(radius=1e3, geometry=geometry, samples=64)
        for array, expected in ((line, True), (lifted_line(4, 0.3, 1.0), False)):
            flags.clear()
            farfield_powers([array], detector)
            assert flags and set(flags) == {expected}


def test_a_plan_of_many_runs_is_charged_what_it_holds():
    """A plan holds a batch slice and an offset for each of its runs: a plan
    of 4000 runs of one phase set (20 000 sources on a 64-point arc, one run
    a batch) holds 530 KB under tracemalloc, within its charge of a plan and
    its runs (it was once charged a fixed 2 KB)."""
    detector = DetectorGrid(radius=1e6, geometry="arc", samples=64)
    tracemalloc.start()
    try:
        plan = classical._plan(detector, classical._Fold(True, 2), 2, 20_000, [1] * 4000, 1,
                               lambda size: 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(plan.batches) == 4000 and held > 500_000
    assert held <= classical._FARFIELD_PLAN_BYTES + classical._FARFIELD_RUN_BYTES * 4000
