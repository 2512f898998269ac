"""Classical field energies of phased wave sets and source arrays.

Two independent routes to the same physics live here. The closed form
(`classical_energy`) evaluates the interference Hamiltonian analytically:
for N phase-shifted copies of one mode the total energy is E1*|S|^2 with
S the coherent phase sum, from 0 (destructive) to N^2*E1 (constructive).
The brute-force route (`field_energy_grid`) integrates the energy density
(E^2 + H^2)/8pi on a grid, with E = -dA/dt (c = 1) and H = curl A
evaluated pointwise; over a box commensurate with the wavelength the two
agree to quadrature accuracy. It never forms the phase sum: each wave's
field is laid onto the grid and summed there, from the factors e^{ik_x x},
e^{ik_y y} and e^{ik_z z} of the midpoint axes (see _slab_walk).

Far-field power of point-source arrays is integrated over a detector
surface: the forward hemisphere by default (array along x in the z=0
plane, cap around +z, theta from +z), or a 1-D arc in the x-z plane, the
fast mode for sweeps over linear arrays. One engine, `farfield_powers`,
evaluates a list of arrays on one detector; `farfield_power` goes through
it, and spectra and sweeps hand its entry, _step_powers, their steps' rows,
not an array per step. It sums the brute-force field of every source at every
detector point as e^{i(k d + phi)} / r, from the path differences
d = r - |p| (a row's common phase e^{ik|p|} drops out of |field|^2
exactly), so real cos/sin of the small, exact k d replace the complex
exponential of k r. Arrays of equal positions form a group, and
consecutive groups of one source count, fold, run shape and matvec width
form a stack (every step of a spacing sweep); each run of such stacks
shares one plan (see _planned_stacks). The detector rows are walked in
blocks, each built once for every stack that walks its rows.

Each walk allocates what its plan says: the plan records the shape of
every array the walk allocates and each group's work, and before
anything is built, its bytes are checked against MEMORY_BUDGET_BYTES
(numpy's temporaries and buffers, and Python objects, are named,
measured terms) and its work against WORK_BUDGET. Nothing the far-field
engine holds grows with the detector's points (but a line's cosine
table) or couples its rows to N; the grid holds no res^3 array.

An array whose sources all lie on the x axis (every array the CLI builds)
is a line: its field on the hemisphere depends only on u = p_x / R, so the
hemisphere walks it on the arc's nodes, weighted by a 1-D rule in u (see
_line_weights), not on its (theta, phi) nodes. Its stacks walk, fold and
are planned as on the arc of the same radius and samples (see _walked).

The arc is mirror-symmetric under x -> -x, and so are a line's u nodes.
When the mirror also maps an array's positions onto themselves, exactly,
in order or reversed (a linear array centered on the x axis is reversed),
the walk folds: it takes path differences and cos/sin only on one
fundamental node of each mirror pair. An image node is the exact sign flip
of its fundamental node, so its row is the fundamental row with the
sources in order or reversed: an in-order image adds its weight to the
fundamental row, a reversed one sums it against the phases reversed, or
reuses the in-order intensities when the phases equal their reversal. Any
other array (jittered, symmetric only under some other order of its
sources, or off the x axis on the hemisphere) takes every row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TWO_PI,
    BoxVolume,
    EnergyReport,
    FarFieldViolationError,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    _check_budget,
    _check_positive,
    _check_work,
    _finite,
    _integer,
    _one_of,
    _readonly,
    _sinc,
    phase_sum,
)

# far-field validity: detector radius must exceed this multiple of both the
# wavelength and the array extent; _far_field_radius is its one reader
FAR_FIELD_FACTOR = 100.0

# the detector geometries DetectorGrid accepts
GEOMETRIES = ("hemisphere", "arc")

# the detector geometry of spectra, far-field sweeps and the far-field
# scaling fit when none is chosen (a DetectorGrid's own is a hemisphere)
DRIVER_GEOMETRY = "arc"

# the detector samples of far-field sweeps and the far-field scaling fit
# when none are chosen (a spectrum takes DetectorGrid's own default)
DRIVER_SAMPLES = 1024

# the fewest samples per angular axis a DetectorGrid takes
MIN_SAMPLES = 64

_COMMENSURATE_TOL = 1e-9

# grid operations per cell besides one per wave: the einsum's zeroed field,
# its square and the sum (c of t = a (N + c) fitted at 128^3, N = 1, 8, 32:
# 2.3, at a = 0.7-0.8 ns on a 2-vCPU VM)
_GRID_CELL_WORK = 3

# cells per chunk of the (y, z) table (z-lines, or a piece of one), whose
# Re and -Im rows (32 KB) and one x-plane of field (16 KB) stay in L1, and
# per slab: as many x-planes as fit beside a chunk, but no more than keep
# its coefficient table (planes x N complex) within a full chunk's cells
_TABLE_CELLS = 2 ** 11
_SLAB_CELLS = 2 ** 15

# bytes a grid call holds whatever its size: array headers and the walk's
# views and einsum calls (about 6 KB measured at res 8, one wave)
_GRID_CALL_BYTES = 8192

# operands that numpy's iterator buffers in one ufunc call whose inner loop
# is shorter than np.getbufsize() elements, each buffer holding at most that
# many: a broadcast or cast input, two at most (tracemalloc, numpy 2.4)
_BUFFERED_OPERANDS = 2

# bytes of Python objects a far-field call holds (tracemalloc): any call (8-13 KB),
# each plan (1.8-1.9 KB) and run of a plan (its offset and batch slice: 79-134),
# stack (its lists and powers: 250-300) and array (its entries and power: 190-310)
_FARFIELD_CALL_BYTES = 16384
_FARFIELD_PLAN_BYTES = 2048
_FARFIELD_RUN_BYTES = 136
_FARFIELD_STACK_BYTES = 320
_FARFIELD_ARRAY_BYTES = 320

# detector rows per block of the far-field walk: each block builds its own
# quadrature, shared by every positions group that walks the same rows
_BLOCK_ROWS = 4096

# path differences per chunk of a far-field block, in chunks of at least
# _CHUNK_MIN_ROWS rows: a block of up to 16 sources is one chunk, and its
# path differences and 1/r (512 KB each at most) stay in cache; at N = 20 000
# chunks of 16 rows (5 MB arrays) ran 9% slower (2-vCPU VM)
_CHUNK_CELLS = 1 << 16
_CHUNK_MIN_ROWS = 2

# cells per matvec output array of a batch (see _planned_stacks): with no
# cap, a 200-step spectrum of 3 sources on a 2048-point arc, whose outputs
# outnumber its cos or sin, peaked at 1.70 MB; with it, under 0.5 MB
_OUTPUT_CELLS = 1 << 12

# far-field work per detector point and source, in the grid's operations
# (WORK_BUDGET, 2.2 ns each when fitted): the path difference and 1/r (once
# per positions group), a trig pass's cos and sin (once per run of equal k)
# and one set's four matvecs: 14.5, 16 and 1.7 ns (2-vCPU VM, N = 64, 300)
_PATH_WORK = 7
_TRIG_WORK = 7
_MATVEC_WORK = 1

# float columns per block row of numpy's temporaries in building a block's
# quadrature (see _plan): its angles, sines and cosines (5 measured
# with tracemalloc on the hemisphere, 4 on a folded arc)
_QUADRATURE_COLUMNS = 6

# float cells per source of the fold check (see _source_mirror): the
# mirrored copy (3) and one comparison's booleans (3 bytes)
_FOLD_SOURCE_CELLS = 4

# the cosine sum of a line's weights on the hemisphere (see _line_weights):
# terms per chunk, and in the grid's operations per term (WORK_BUDGET),
# timed at 8-9 ns from 1024 samples up (2-vCPU VM)
_LINE_CELLS = 1 << 13
_LINE_WORK = 4

# bytes per step of a far-field sweep besides its phases, and per positions group
# besides its positions: tuples, list entries, values and array headers (tracemalloc:
# 180-200 a step, 335-360 a step and its group), so a group per step peaks under both
_SWEEP_STEP_BYTES = 512
_SWEEP_GROUP_BYTES = 384

# bytes per source held once per sweep: the first array under construction
# and its temporaries (72 measured at 20 000 sources), and the cos and sin
# (16) of one step's phases (the engine charges those of a stack's)
_SWEEP_BUILD_BYTES = 96


@dataclass(frozen=True)
class DetectorGrid:
    """Quadrature surface for far-field power.

    geometry "hemisphere": product (theta, phi) grid over the forward cap,
    solid-angle weighted, ``samples`` points per angular axis.
    geometry "arc": ``samples`` points on a circle arc in the x-z plane,
    line-measure weighted (a fast 1-D proxy whose absolute scale only
    matters through enhancement ratios). The hemisphere spans polar angles
    0..pi/2; the arc opens pi, from -pi/2 to pi/2 about +z. ``n_points``
    is ``samples`` on the arc and ``samples``^2 on the hemisphere: the
    nodes of its (theta, phi) rule.

    The hemisphere integrates an array on the x axis (every array the CLI
    builds) as a 1-D rule in u = p_x / R on the arc's points (see
    _line_weights). Where the engine folds an array onto the arc's mirror
    x -> -x, it builds each image node as the exact sign flip of its
    fundamental node, which may differ from the node as listed in its last
    bit.
    """

    radius: float
    geometry: str = "hemisphere"
    samples: int = 256

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            choices = _one_of(map(repr, GEOMETRIES))
            raise ValueError(f"geometry must be {choices}, got {self.geometry!r}")
        _check_positive(self.radius, "radius")
        object.__setattr__(self, "samples", _integer(self.samples, "samples"))
        if self.samples < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples per angular axis")

    @property
    def n_points(self) -> int:
        return self.samples if self.geometry == "arc" else self.samples ** 2


@dataclass(frozen=True)
class SpectrumCurve:
    """A swept quantity with raw power and normalized enhancement per point."""

    parameter: np.ndarray
    power: np.ndarray
    enhancement: np.ndarray
    metadata: dict

    def __post_init__(self):
        par = np.asarray(self.parameter, dtype=float)
        pw = np.asarray(self.power, dtype=float)
        enh = np.asarray(self.enhancement, dtype=float)
        if not (par.shape == pw.shape == enh.shape) or par.ndim != 1:
            raise ValueError("parameter, power, enhancement must be equal-length 1-D arrays")
        object.__setattr__(self, "parameter", _readonly(_increasing(par)))
        object.__setattr__(self, "power", _readonly(pw))
        object.__setattr__(self, "enhancement", _readonly(enh))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def __len__(self) -> int:
        return int(self.parameter.size)


def _increasing(values: np.ndarray) -> np.ndarray:
    """The 1-D parameter ``values``, refused unless they strictly increase (a
    sweep's linspace over a range too narrow for its steps repeats them)."""
    if values.size >= 2 and not np.all(np.diff(values) > 0.0):
        raise ValueError("parameter values must be strictly increasing")
    return values


class GridEnergy(NamedTuple):
    """Result of the grid integration; ``commensurate`` is False when the
    box does not contain whole wavelengths along the propagation axis, in
    which case the value depends on box placement."""

    energy: float
    commensurate: bool


def single_wave_energy(mode: WaveMode, volume: BoxVolume | None = None) -> float:
    """Energy E1 of one wave of this mode in the given volume (default 1).

    E1 = V * omega^2 * |a|^2 / (2 pi) (c = 1); it is the unit in which
    array energies are reported as enhancements.
    """
    vol = volume.volume if volume is not None else 1.0
    return vol * mode.omega ** 2 * abs(mode.amplitude) ** 2 / TWO_PI


def classical_energy(waves: PhasedWaveSet, volume: BoxVolume | None = None):
    """Closed-form interference energy of N phased copies of one mode.

    Returns an EnergyReport with diagonal = N*E1, cross = E1*(|S|^2 - N),
    total = E1*|S|^2 where S is the coherent phase sum. Uniform phases give
    the N^2 maximum; opposite phases cancel exactly.
    """
    unit = single_wave_energy(waves.mode, volume)
    n = waves.n_waves
    _, magnitude_sq = phase_sum(waves.phases)
    diagonal = n * unit
    cross = unit * (magnitude_sq - n)
    return EnergyReport(diagonal, cross)


def field_energy_grid(waves: PhasedWaveSet, volume: BoxVolume, resolution=64) -> GridEnergy:
    """Midpoint-rule integral of the instantaneous energy density.

    The fields of each wave are evaluated analytically at every cell
    center (snapshot at t = 0; for a commensurate box the integral is
    time-independent) and the density (E^2 + H^2)/8pi is summed. This is
    the brute-force twin of `classical_energy` and never forms the phase
    sum: every wave adds its own term to the one real field F = Re sum_w
    i a_w e^{ik.r}. A PhasedWaveSet is one mode with omega = |k|, so E (along
    pol) is omega F and |H| (along k x pol) is k F, and E^2 + H^2 = 2k^2 F^2;
    waves of several wavevectors would need H's own components again.

    e^{ik.r} separates over the axes of the midpoint grid, so 3*res + N
    exponentials replace N*res^3, and the walk (see _slab_walk) holds what
    grows with the axes and the waves, not with the cell count.

    ``resolution`` is the number of cells per axis, one integer or three.
    Raises TypeError for non-integers, and ValueError for another count,
    below 8 cells per axis, when the walk would need more than
    MEMORY_BUDGET_BYTES, or when its cells x (waves + _GRID_CELL_WORK)
    operations exceed WORK_BUDGET.
    """
    if np.shape(resolution) not in ((), (1,), (3,)):
        raise ValueError(f"resolution must be one integer or three, got {resolution!r}")
    entries = np.broadcast_to(np.asarray(resolution, dtype=object), (3,))
    res = tuple(_integer(r, "resolution") for r in entries)
    if min(res) < 8:
        raise ValueError("resolution must be at least 8 per axis")
    cells = math.prod(res)
    n_waves = waves.n_waves
    plan = _planned_slabs(res, n_waves)
    needed = 8 * sum(map(math.prod, plan.values())) + _GRID_CALL_BYTES
    _check_budget(needed, f"grid request of {cells} cells")
    work = cells * (n_waves + _GRID_CELL_WORK)
    _check_work(work, f"grid request of {cells} cells x {n_waves} waves")

    mode = waves.mode
    k = mode.wavevector
    lengths = volume.lengths
    # the e^{2ik.r} part of the density integrates to prod_i sinc(k_i L_i);
    # only (near-)zero values make the box placement-independent
    residual = np.prod(_sinc(k * lengths))
    commensurate = bool(abs(residual) < _COMMENSURATE_TOL)

    axes = [volume.center[i] - lengths[i] / 2.0 + (np.arange(res[i]) + 0.5) * (lengths[i] / res[i])
            for i in range(3)]
    fx, fy, fz = (np.exp(1j * k[i] * axes[i]) for i in range(3))
    coefficients = 1j * mode.amplitude * np.exp(1j * np.array(waves.phases))
    # the real fields are 2 Re E and 2 Re H: (E^2 + H^2)/8pi = 2k^2 F^2 / 2pi
    total = 2.0 * mode.wavenumber ** 2 * _slab_walk(fx, fy, fz, coefficients, plan)

    cell = volume.volume / cells
    energy = float(total / TWO_PI * cell)
    return GridEnergy(energy, commensurate)


def _buffers(cells: int) -> tuple[int, int]:
    """The shape of numpy's iterator buffers for one ufunc call over
    ``cells`` float cells (see _BUFFERED_OPERANDS)."""
    return _BUFFERED_OPERANDS, min(cells, np.getbufsize())


def _planned_slabs(res, n_waves: int) -> dict:
    """The plan of a grid request of ``res`` cells per axis: the shape in
    float cells (a complex value is two) of every array it holds, by name.
    It builds the midpoint axes, with numpy's temporary k x of one axis and
    the buffers of its cast to complex, their factors e^{ik x} and the
    coefficients; its walk (see _slab_walk) takes chunks of the (y, z)
    table, a "plane" of (lines, width) cells, at most _TABLE_CELLS, and
    slabs of at most _SLAB_CELLS cells, whose coefficient "table" holds
    (planes, N) complex values, at most _TABLE_CELLS, one x-plane at least."""
    width = min(res[2], _TABLE_CELLS)
    lines = min(res[1], _TABLE_CELLS // width)
    planes = min(res[0], _SLAB_CELLS // (lines * width), max(1, _TABLE_CELLS // n_waves))
    return {"axes": (sum(res),), "temporary": (max(res), 2), "buffers": _buffers(max(res)),
            "factors": (sum(res), 2), "coefficients": (n_waves, 2), "table": (planes, n_waves, 2),
            "plane": (lines, width, 2), "rows": (2, lines * width), "slab": (planes, lines * width)}


def _slab_walk(fx, fy, fz, coefficients, plan: dict) -> float:
    """Sum of Re(F)^2 over the grid, F = sum_w ``coefficients``[w] fx fy fz.

    The (y, z) table fy*fz is built once, in chunks of the ``plan``'s
    (lines, width) plane, each kept as two real rows, Re and -Im, and each
    walked in slabs of x-planes, as many as the plan's coefficient table
    holds (fewer in the last). A slab multiplies every wave's coefficient by
    fx at each of its x-planes, a real (x, wave, Re/Im) table, and one
    einsum lays every wave's own Re F onto every cell, Re(c fx) Re(fy fz) -
    Im(c fx) Im(fy fz), in its own loop, with no contraction path to sum
    the coefficients first. Each slab's Re(F)^2 is summed pairwise, in
    order. The walk allocates the plan's table, plane, rows and slab.
    """
    table, plane, rows, slab = (np.empty(plan[name]) for name in ("table", "plane", "rows", "slab"))
    planes, (lines, width) = len(table), plane.shape[:2]
    # the complex products read as floats: the tables' last axis is (Re, Im)
    scaled, plane = table.view(complex)[..., 0], plane.reshape(-1, 2).view(complex)[:, 0]
    total = 0.0
    for y in range(0, fy.size, lines):
        for z in range(0, fz.size, width):
            ys, zs = fy[y:y + lines], fz[z:z + width]
            c = ys.size * zs.size
            # einsum forms the outer products: a broadcasting multiply would
            # allocate numpy's operand buffers
            np.einsum("y,z->yz", ys, zs, out=plane[:c].reshape(ys.size, zs.size))
            yz = _prefix(rows, (2, c))
            yz[0] = plane[:c].real
            np.negative(plane[:c].imag, out=yz[1])
            for x in range(0, fx.size, planes):
                n = min(planes, fx.size - x)
                np.einsum("x,w->xw", fx[x:x + n], coefficients, out=scaled[:n])
                field = _prefix(slab, (n, c))
                np.einsum("xwk,kc->xc", table[:n], yz, out=field)
                np.square(field, out=field)
                total += float(field.sum())
    return total


def _detector_quadrature(detector: DetectorGrid, index, line=False) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint sample points (rows, 3) and integration weights (rows,) of
    the detector points of the integer array ``index``, which runs over phi
    within each theta on the hemisphere, as a (theta, phi) meshgrid
    flattens, with the floats that meshgrid gave each point; for a ``line``
    on the hemisphere, over its u nodes, with the weights of _line_weights."""
    n = detector.samples
    radius = detector.radius
    if detector.geometry == "arc" or line:
        step = math.pi / n
        theta = -math.pi / 2.0 + (index + 0.5) * step
        directions = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
        weights = _line_weights(detector, index) if line else np.full(index.size, radius * step)
        return radius * directions, weights
    theta_step = (math.pi / 2) / n
    phi_step = TWO_PI / n
    theta_index, phi_index = np.divmod(index, n)
    theta = (theta_index + 0.5) * theta_step
    phi = (phi_index + 0.5) * phi_step
    sin_t = np.sin(theta)
    directions = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=1)
    weights = radius ** 2 * sin_t * theta_step * phi_step
    return radius * directions, weights


def _line_weights(detector: DetectorGrid, index) -> np.ndarray:
    """A line's weights on the hemisphere at its u nodes ``index``, the
    arc's points, u_j = sin theta_j.

    A line on the x axis has a field that depends on a hemisphere point p
    only through u = p_x / R, and the hemisphere over u..u + du has area
    pi R^2 du (Archimedes' hat-box theorem), so its power is pi R^2 times
    the integral of |F(u)|^2 over -1..1. The u_j are Chebyshev points, on
    which Fejer's first rule, w_j = (2/n) (1 - 2 sum_{k=1}^{n/2}
    cos(k (2j + 1) pi / n) / (4k^2 - 1)), integrates every polynomial below
    degree n exactly (Trefethen, SIAM Rev. 50, 2008); the (theta, phi) rule
    errs as O(h^2) (Gauss-Legendre would save a third of the nodes from
    k L ~ 110 up, with a Newton iteration of its own). Each cosine is read
    from a table at the exact integer k (2j + 1) mod 2n, in the chunks of
    _line_terms: O(n) memory and O(n) work per node (an FFT takes O(log n),
    but numpy.fft maps 0.5 MB more). It allocates what _plan plans."""
    n = detector.samples
    k = np.arange(1, n // 2 + 1)
    coefficients = 1.0 / (4.0 * k * k - 1.0)
    table = np.cos(np.arange(2 * n) * (math.pi / n))
    sums, chunk = np.empty(index.size), _line_terms(n, index.size)
    angles, terms, rows = np.empty(chunk, np.intp), np.empty(chunk), chunk[0]
    for start in range(0, index.size, rows):
        part = slice(0, min(rows, index.size - start))
        np.multiply(2 * index[start:start + rows, None] + 1, k, out=angles[part])
        angles[part] %= 2 * n
        # mode "clip" takes no buffer of the output, which "raise" would
        np.take(table, angles[part], out=terms[part], mode="clip")
        terms[part] *= coefficients
        terms[part].sum(axis=1, out=sums[start:start + rows])
    sums *= -2.0
    sums += 1.0
    sums *= 2.0 * math.pi * detector.radius ** 2 / n
    return sums


def _line_terms(samples: int, nodes: int) -> tuple[int, int]:
    """A chunk of a line's weight terms for a block of ``nodes`` u nodes:
    as many nodes as _LINE_CELLS terms hold (one at least, the block at
    most), by their samples/2 terms."""
    half = samples // 2
    return min(nodes, max(1, _LINE_CELLS // half)), half


def _walked(detector: DetectorGrid, line: bool) -> DetectorGrid:
    """The detector whose nodes the walk takes: for a line on the
    hemisphere (see _fold), the arc of the same radius and samples."""
    return DetectorGrid(detector.radius, "arc", detector.samples) if line else detector


def _fundamental_rows(detector: DetectorGrid, folded: bool) -> tuple[int, int]:
    """The fundamental rows of the walked ``detector``: its first
    ceil(samples/2) nodes, one of each mirror pair, when ``folded`` (only
    an arc folds), and else every node; and the rows of one block of the
    walk: no more than those, and no more than _BLOCK_ROWS nodes, a folded
    row standing for two."""
    fundamental = (detector.samples + 1) // 2 if folded else detector.n_points
    return fundamental, min(fundamental, _BLOCK_ROWS >> folded)


class _Fold(NamedTuple):
    """How a positions group folds onto the walked detector's mirror (see
    _fold): whether the walk takes the fundamental rows of x -> -x; the
    materialized rows per fundamental node, 2 when the mirror reverses the
    sources (the second sums the fundamental row against the phases
    reversed) and else 1; and whether the group is a line on the hemisphere,
    walked on the arc's nodes (see _walked)."""

    folded: bool
    classes: int
    line: bool = False


def _source_mirror(positions: np.ndarray):
    """Whether x -> -x takes source n to source N - 1 - n (True, a linear
    array) or to itself (False), bit for bit up to the sign of a zero, or
    None when it does neither."""
    mirrored = positions.copy()
    np.negative(mirrored[:, 0], out=mirrored[:, 0])
    for reversed_ in (False, True):
        if np.array_equal(mirrored, positions[::-1] if reversed_ else positions):
            return reversed_
    return None


def _fold(detector: DetectorGrid, positions: np.ndarray) -> _Fold:
    """Whether x -> -x, the mirror of the walked detector's nodes when it
    is an arc (see _walked), also maps ``positions`` onto themselves, in
    order or reversed. Positions on the x axis on the hemisphere are a line,
    walked on the arc's nodes; any other group there is unfolded.

    With p' the exact mirror of a node p, |p'| = |p| and d(p', x_n) =
    d(p, x_m) hold bit for bit, where m is n or N - 1 - n, so the image
    row's cos/sin are the fundamental row's, in order or reversed."""
    line = detector.geometry == "hemisphere" and not positions[:, 1:].any()
    arc = _walked(detector, line).geometry == "arc"
    reversed_ = _source_mirror(positions) if arc else None
    return _Fold(reversed_ is not None, 1 + bool(reversed_), line)


def _row_weights(detector: DetectorGrid, fold: _Fold, nodes, weights) -> np.ndarray:
    """Each class of ``fold``'s weight on each fundamental node of ``nodes``
    (classes, rows): the quadrature ``weights`` and, when the group folds,
    the same weight again for each node's image, added to the in-order
    class or taken by the reversed one. The odd arc's middle node is its
    own mirror, so it has no image and stays a lone row."""
    if not fold.folded:
        return weights[None]
    images = np.where(nodes == detector.samples - 1 - nodes, 0.0, weights)
    return np.array([weights + images] if fold.classes == 1 else [weights, images])


def _path_differences(points, norms, positions, squares, table, inverse, scratch, line):
    """Path differences d = r - |p| from each source x of each group of
    ``positions`` (groups, N, 3) to each detector point p of one chunk,
    r = |p - x|, into ``table`` (groups, N, rows), and 1/r into ``inverse``.

    r is summed one coordinate at a time; d is then formed as
    (|x|^2 - 2 p.x) / (r + |p|), with no cancellation between r and |p|, so
    d keeps full precision however far the detector is (``squares`` holds
    each |x|^2, ``inverse`` r + |p| until then, and ``scratch``, shaped like
    ``table``, the y and z terms). On a ``line`` (sources at y = z = 0, points
    at y = 0) those add p_z^2 to r and zeros to p.x: only p_z^2 is added, bit for bit.
    """
    np.subtract(points[:, 0], positions[..., 0, None], out=inverse)
    inverse *= inverse
    np.multiply(points[:, 0], positions[..., 0, None], out=table)
    if line:
        inverse += np.square(points[:, 2], out=_prefix(scratch, points[:, 2].shape))
    for axis in () if line else (1, 2):
        np.subtract(points[:, axis], positions[..., axis, None], out=scratch)
        scratch *= scratch
        inverse += scratch
        np.multiply(points[:, axis], positions[..., axis, None], out=scratch)
        table += scratch
    np.sqrt(inverse, out=inverse)
    inverse += norms
    table *= -2.0
    table += squares[..., None]
    table /= inverse
    np.add(table, norms, out=inverse)
    np.reciprocal(inverse, out=inverse)


def _row_blocks(count: int, rows: int = _BLOCK_ROWS):
    """Slices of ``count`` detector rows, ``rows`` at a time; a last row that
    would stand alone joins the slice before it, since einsum sums a lone
    row's sources in an order of its own (see _run_powers)."""
    starts = range(0, max(count - 1, 1), rows)
    return (slice(start, start + rows if start + rows in starts else count) for start in starts)


def _chunk_rows(block_rows: int, n_sources: int) -> int:
    """Fundamental rows per chunk of a block of ``block_rows`` rows, for a
    group of ``n_sources`` sources: about _CHUNK_CELLS path differences, at
    least _CHUNK_MIN_ROWS rows and at most the block."""
    return min(block_rows, max(_CHUNK_MIN_ROWS, _CHUNK_CELLS // n_sources))


def _run_powers(table, inverse, weights, wavenumbers, phasors, trig, outputs) -> np.ndarray:
    """One chunk's partial power (groups, runs x sets) of each phase set of
    a batch (see _planned_stacks), from the path ``table`` (groups, N, rows),
    its 1/r, each run's k, each set's cos(phi) and sin(phi) ``phasors``
    (groups x runs, sets, 2, width, N; reversed for a second class, see
    _Fold) and each class's row ``weights``. cos(k d)/r, then sin(k d)/r,
    of every run takes one ``trig`` pass, matvec'd into three ``outputs`` by
    einsums (not BLAS) whose inner loop runs over the rows (two or more, see
    _row_blocks), so every row sums its sources in ascending order on any
    machine. Each set's partial is summed pairwise, the same in any batch."""
    cos_phi, sin_phi = phasors[:, :, 0], phasors[:, :, 1]
    real, imag, product = outputs
    runs = trig.reshape(-1, *trig.shape[2:])
    table, inverse, scaled = table[:, None], inverse[:, None], wavenumbers[:, :, None, None]
    np.multiply(table, scaled, out=trig)
    np.cos(trig, out=trig)
    trig *= inverse
    np.einsum("bjh,bmcj->bmch", runs, cos_phi, out=real)
    np.einsum("bjh,bmcj->bmch", runs, sin_phi, out=imag)
    np.multiply(table, scaled, out=trig)
    np.sin(trig, out=trig)
    trig *= inverse
    real -= np.einsum("bjh,bmcj->bmch", runs, sin_phi, out=product)
    imag += np.einsum("bjh,bmcj->bmch", runs, cos_phi, out=product)
    real *= real
    imag *= imag
    real += imag
    if len(weights) > real.shape[2]:
        real = np.concatenate((real, real), 2, outputs[1:].reshape(*real.shape[:2], 2, -1))
    real *= weights
    return real.reshape(-1, weights.size).sum(axis=1).reshape(len(wavenumbers), -1)


class _Plan(NamedTuple):
    """The one description of a far-field walk: how each stack of a run of
    equal stacks walks a block of its fold's rows, and what it costs."""

    fold: _Fold
    width: int  # the fold classes its matvecs take: 1 when all its phases are palindromic
    height: int  # fundamental rows per chunk
    size: int  # groups per stack: as many as one chunk pass builds
    batches: list  # slices of consecutive runs with as many phase sets
    offsets: list  # each run's first phase set, and the sets per group last
    walk: dict  # the shape in float cells of each array a stack's walk allocates
    cells: int  # the most float cells held while a stack walks a block
    work: int  # one group's work over every fundamental row
    weights: int  # the work of a line's weights over every fundamental row, else 0


class _Stack(NamedTuple):
    """Consecutive positions groups of one N, fold, run shape and width (see
    _position_groups), their plan and their phases matched once (see _planned_stacks)."""

    positions: list  # each group's positions, (N, 3)
    runs: list  # each group's runs of equal wavenumber, [(wavenumber, [phases, ...]), ...]
    plan: _Plan
    phases: tuple  # the distinct phase arrays, and each array's index among them by id


def _plan(detector, fold, width, n, shape, groups, distinct) -> _Plan:
    """The plan, sized for a full stack, of ``groups`` positions groups of
    ``n`` sources folded by ``fold`` onto the walked ``detector`` (see
    _walked), with matvecs of ``width`` classes and runs of ``shape`` phase
    sets, whose stacks of s groups hold ``distinct(s)`` distinct phase
    arrays at most. A run of s sets holds N cos or sin and s width cells of
    each matvec output per group and row: at most _CHUNK_CELLS and
    _OUTPUT_CELLS in a full stack's longest run and in a batch, or one run.
    The walk takes a chunk one row longer (see _row_blocks) and numpy's
    buffers of one broadcast (see _buffers). A block one row longer holds
    its nodes, points, weights, |p|, reference intensities and row weights,
    and the larger of the walk and its build: numpy's temporaries
    (_QUADRATURE_COLUMNS per row), the fold check and a line's arrays of
    _line_weights (k, its coefficients, the cosine table and its temporary,
    the sums, a chunk's angles and terms and their buffers). Work: per
    fundamental row and source, _PATH_WORK and _TRIG_WORK for each run; per
    materialized row and source, _MATVEC_WORK for each set; _LINE_WORK per
    term of a line's weights, samples/2 per fundamental row."""
    fundamental, block = _fundamental_rows(_walked(detector, fold.line), fold.folded)
    height = _chunk_rows(block, n)

    def most(count, sets):
        return max(1, min(_CHUNK_CELLS // (count * n * height),
                          _OUTPUT_CELLS // (count * sets * width * height)))

    size = min(groups, most(1, max(shape)))
    batches, start = [], 0
    for sets, same in itertools.groupby(shape):
        stop, step = start + len(list(same)), most(size, sets)
        bounds = [*range(start, stop, step), stop]
        batches += map(slice, bounds, bounds[1:])
        start = stop
    offsets = [0, *itertools.accumulate(shape)]
    steps = max(batch.stop - batch.start for batch in batches)
    sets = max(offsets[batch.stop] - offsets[batch.start] for batch in batches)
    rows = height + 1
    arrays = dict(positions=(size, n, 3), squares=(size, n), keys=(size, offsets[-1]),
                  wavenumbers=(size, len(shape)), table=(size, n, rows), inverse=(size, n, rows),
                  phasors=(distinct(size), 2, width, n), trig=(size, steps, n, rows),
                  gather=(size * sets, 2, width, n), outputs=(3, size * sets * width * rows))
    walk = {**arrays, "buffers": _buffers(max(map(math.prod, arrays.values())))}
    nodes = block + 1
    held = [(nodes,), (nodes, 3), (nodes,), (nodes,), (nodes,), (fold.classes, nodes)]
    build = [(nodes, _QUADRATURE_COLUMNS), (n, _FOLD_SOURCE_CELLS)]
    if fold.line:
        chunk, table = _line_terms(detector.samples, nodes), (2 * detector.samples,)
        build += [chunk[1:], chunk[1:], table, table, (nodes,), chunk, chunk,
                  _buffers(math.prod(chunk))]
    held, walking, build = (sum(map(math.prod, shapes)) for shapes in (held, walk.values(), build))
    work = fundamental * n * (
        _PATH_WORK + _TRIG_WORK * len(shape) + _MATVEC_WORK * fold.classes * offsets[-1])
    return _Plan(fold, width, height, size, batches, offsets, walk, held + max(walking, build),
                 work, _LINE_WORK * (detector.samples // 2) * fundamental if fold.line else 0)


def _planned_stacks(detector: DetectorGrid, positions, runs, fold: _Fold, width: int) -> list:
    """These consecutive groups of one N, fold, run shape and width as stacks
    of one plan (see _plan), the last perhaps shorter, with phases matched once."""
    matched = functools.cache(lambda size: [_distinct_phases(runs[i:i + size])
                                            for i in range(0, len(runs), size)])
    plan = _plan(detector, fold, width, len(positions[0]), [len(sets) for _, sets in runs[0]],
                 len(runs), lambda size: max(len(phases) for phases, _ in matched(size)))
    return [_Stack(positions[i:i + plan.size], runs[i:i + plan.size], plan, match)
            for i, match in zip(range(0, len(runs), plan.size), matched(plan.size), strict=True)]


def _distinct_phases(runs) -> tuple[list, dict]:
    """The distinct phase arrays of some groups' ``runs``, matched bit for
    bit, and each array's index among them by id. An array is keyed by the
    hash of its bytes, or the next free key if that one holds other bytes,
    so no copy of its bytes is kept."""
    distinct, rows, seen = [], {}, {}
    for phases in (phases for group in runs for _, sets in group for phases in sets):
        if id(phases) not in rows:
            data = phases.tobytes()
            key = hash(data)
            while key in seen and distinct[seen[key]].tobytes() != data:
                key += 1
            rows[id(phases)] = seen.setdefault(key, len(distinct))
            if rows[id(phases)] == len(distinct):
                distinct.append(phases)
    return distinct, rows


def _prefix(array, shape) -> np.ndarray:
    """The first cells of ``array``, as a C-contiguous array of ``shape``."""
    return array.reshape(-1)[:math.prod(shape)].reshape(shape)


def _stack_walk(stack: _Stack, points, norms, row_weights, powers):
    """Walk a block's fundamental rows for ``stack`` by its plan, and add
    each phase set's partial, its intensities weighted by its fold class's
    ``row_weights`` (see _row_weights), to ``powers`` (groups, sets). Each
    chunk builds the path differences and 1/r of every group in one pass,
    and each batch of runs takes one cos and one sin pass (see _run_powers),
    in prefixes of the arrays of plan.walk, which are a full stack's."""
    runs, plan, (distinct, rows) = stack.runs, stack.plan, stack.phases
    width, offsets, walk = plan.width, plan.offsets, plan.walk
    g, n, d = len(runs), walk["positions"][1], len(distinct)
    positions, squares, wavenumbers, phasors, table, inverse, trig, gather, outputs = (
        np.empty(walk[name]) for name in ("positions", "squares", "wavenumbers", "phasors",
                                          "table", "inverse", "trig", "gather", "outputs"))
    keys, wavenumbers = np.empty(walk["keys"], np.intp)[:g], wavenumbers[:g]
    keys[:] = [[rows[id(values)] for _, sets in group_runs for values in sets]
               for group_runs in runs]
    wavenumbers[:] = [[k for k, _ in group_runs] for group_runs in runs]
    positions = np.stack(stack.positions, out=positions[:g])
    squares = np.einsum("gij,gij->gi", positions, positions, out=squares[:g])
    line = not (positions[..., 1:].any() or points[:, 1].any())
    for row, values in zip(phasors, distinct):
        row[:, 0], row[:, 1:] = values, values[::-1]
    np.cos(phasors[:d, 0], out=phasors[:d, 0])
    np.sin(phasors[:d, 1], out=phasors[:d, 1])
    for chunk in _row_blocks(norms.size, plan.height):
        size = chunk.stop - chunk.start
        paths, inverses, scratch = (_prefix(a, (g, n, size)) for a in (table, inverse, trig))
        _path_differences(points[chunk], norms[chunk], positions, squares, paths, inverses,
                          scratch, line)
        for batch in plan.batches:
            sets, steps = slice(offsets[batch.start], offsets[batch.stop]), batch.stop - batch.start
            count = sets.stop - sets.start
            # mode "clip" takes no buffer of the output, which "raise" would
            batch_phasors = np.take(phasors, keys[:, sets], axis=0, mode="clip",
                                    out=_prefix(gather, (g, count, 2, width, n)))
            powers[:, sets] += _run_powers(
                paths, inverses, row_weights[:, chunk], wavenumbers[:, batch],
                batch_phasors.reshape(g * steps, -1, 2, width, n),
                _prefix(trig, (g, steps, n, size)),
                _prefix(outputs, (3, g * steps, count // steps, width, size)))


def _position_groups(steps, detector: DetectorGrid) -> list[_Stack]:
    """The ``steps`` (positions, wavelength, extent, phases, as a SourceArray
    holds them) as consecutive groups of equal positions, each with its runs
    of equal wavenumber, and the groups as stacks of consecutive groups of
    one source count, fold onto ``detector`` (see _fold), run shape and
    matvec width (one class when every phase array equals its reversal bit
    for bit, as both classes then have its intensities), each cut to the
    groups one chunk pass builds (see _planned_stacks). Steps that hold still
    share their positions object, so most skip the positions comparison; a
    step inside its far-field threshold raises FarFieldViolationError."""
    groups = []
    for positions, wavelength, extent, phases in steps:
        threshold = _far_field_radius(wavelength, extent)
        if detector.radius < threshold:
            raise FarFieldViolationError(
                f"detector radius {detector.radius} below far-field threshold {threshold}"
            )
        wavenumber = TWO_PI / wavelength
        if not groups or (
            groups[-1][0] is not positions and groups[-1][0].tobytes() != positions.tobytes()
        ):
            groups.append((positions, [(wavenumber, [phases])]))
        elif groups[-1][1][-1][0] != wavenumber:
            groups[-1][1].append((wavenumber, [phases]))
        else:
            groups[-1][1][-1][1].append(phases)

    def key(group):
        fold = _fold(detector, group[0])
        arrays = {id(phases): phases for _, sets in group[1] for phases in sets}.values()
        width = fold.classes if any(phases.tobytes() != phases[::-1].tobytes()
                                    for phases in arrays) else 1
        return len(group[0]), fold, width, [len(sets) for _, sets in group[1]]

    return [stack for (_, fold, width, _), same in itertools.groupby(groups, key)
            for stack in _planned_stacks(detector, *map(list, zip(*same)), fold, width)]


def _check_farfield_budget(detector: DetectorGrid, walks):
    """Refuse a far-field request over either budget before anything is
    built. Both charges add up the plans (see _plan) of ``walks``, each
    stack's plan and groups: 8 bytes per cell of the most any plan holds
    and the Python objects of the call, its plans and their runs, stacks
    and arrays; each group's work, and each line fold's weights once."""
    plans = {id(plan): plan for plan, _ in walks}.values()
    arrays = sum(groups * plan.offsets[-1] for plan, groups in walks)
    work = sum(groups * plan.work for plan, groups in walks) + sum(
        {(plan.fold.line, plan.fold.folded): plan.weights for plan in plans}.values())
    needed = (8 * max((plan.cells for plan in plans), default=0) + _FARFIELD_CALL_BYTES
              + sum(_FARFIELD_PLAN_BYTES + _FARFIELD_RUN_BYTES * (len(plan.offsets) - 1)
                    for plan in plans) + _FARFIELD_STACK_BYTES * len(walks)
              + _FARFIELD_ARRAY_BYTES * arrays)
    points = max((_walked(detector, plan.fold.line).n_points for plan in plans),
                 default=detector.n_points)
    n_sources = max((plan.walk["positions"][1] for plan in plans), default=0)
    request = f"far-field request of {points} detector points x {n_sources} sources"
    _check_budget(needed, request)
    _check_work(work, f"{request} x {arrays} arrays")


def _check_farfield_sweep(detector: DetectorGrid, steps):
    """Refuse a far-field sweep before any step is built: ``steps`` gives each
    step's N, positions key and wavelength, grouped as _position_groups groups
    (a new group where (N, key) changes, a new run where 2 pi / wavelength does).
    Steps hold phases, groups positions; each run of equal groups is planned as
    one stack folded with one class, the least any fold walks (see _plan)."""
    groups = [(n, [sum(1 for _ in run) for _, run in itertools.groupby(
                   TWO_PI / wavelength for _, _, wavelength in group)])
              for (n, _), group in itertools.groupby(steps, lambda step: step[:2])]
    total, n_max = sum(sum(shape) for _, shape in groups), max(n for n, _ in groups)
    held = total * (_SWEEP_STEP_BYTES + 8 * n_max) + 24 * sum(n for n, _ in groups)
    request = f"far-field sweep of {total} steps x {n_max} sources"
    _check_budget(held + _SWEEP_GROUP_BYTES * len(groups) + _SWEEP_BUILD_BYTES * n_max, request)
    fold = _Fold(True, 1, detector.geometry == "hemisphere")
    runs = [(key, len(list(same))) for key, same in itertools.groupby(groups)]
    _check_farfield_budget(detector, [(_plan(detector, fold, 1, n, shape, count, lambda size: 1),
                                       count) for (n, shape), count in runs])


def _far_field_radius(wavelength: float, extent: float) -> float:
    """The far-field threshold: FAR_FIELD_FACTOR times the larger of the two."""
    return FAR_FIELD_FACTOR * max(wavelength, extent)


def farfield_powers(arrays, detector: DetectorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Detected power and enhancement of each array on one detector.

    Each source radiates e^{i(k r + phi_n)} / r; the coherent intensity is
    integrated over the detector. Enhancement divides by N times the power
    of one origin-centered source on the same detector, so a single
    origin-centered source of phase 0 scores exactly 1 and a subwavelength
    uniform-phase array approaches N.

    The field is summed as e^{i(k d + phi_n)} / r from path differences
    d = r - |p| (see _path_differences): a rearrangement of the brute-force
    sum, not a Fraunhofer approximation. The reference source has
    |e^{ikr}/r|^2 = 1/|p|^2 at every wavenumber, so it is summed with no
    exponential, on the rows and weights of each fold.

    Stacks (see _position_groups) that walk the same nodes (see _fold and
    _walked) and all fold, or all do not, share their fundamental rows,
    walked in blocks of at most _BLOCK_ROWS nodes (see _fundamental_rows):
    each block builds its points, weights and |p| once, weighs each fold's
    classes once (see _row_weights), and each stack of the fold walks it in
    the chunks of its plan (see _stack_walk). A power is the sum of its
    chunk partials in walk order. The call holds one block at a time.

    Raises FarFieldViolationError unless the detector radius is at least
    100x both the wavelength and the extent of every array, and ValueError
    if the request would need more than MEMORY_BUDGET_BYTES or more than
    WORK_BUDGET operations (see _check_farfield_budget).
    """
    return _step_powers(((array.positions, array.wavelength, array.extent, array.phases)
                         for array in arrays), detector)


def _step_powers(steps, detector: DetectorGrid) -> tuple[np.ndarray, np.ndarray]:
    """farfield_powers of the ``steps`` of _position_groups: the engine's
    one entry, which spectra and sweeps call with their steps."""
    stacks = _position_groups(steps, detector)
    _check_farfield_budget(detector, [(stack.plan, len(stack.runs)) for stack in stacks])
    powers = [np.zeros((len(stack.runs), stack.plan.offsets[-1])) for stack in stacks]
    singles = dict.fromkeys((stack.plan.fold for stack in stacks), 0.0)
    for line, folded in dict.fromkeys((fold.line, fold.folded) for fold in singles):
        walked = _walked(detector, line)
        for block in _row_blocks(*_fundamental_rows(walked, folded)):
            nodes = np.arange(block.start, block.stop)
            points, weights = _detector_quadrature(detector, nodes, line)
            norms = np.sqrt(np.einsum("ij,ij->i", points, points))
            # the reference source's intensity 1/|p|^2: an origin-centered
            # source's field is exactly 1/|p| (d = 0) on each fold's rows
            reference = 1.0 / norms
            reference *= reference
            for fold in [fold for fold in singles if (fold.line, fold.folded) == (line, folded)]:
                row_weights = _row_weights(walked, fold, nodes, weights)
                singles[fold] += float(np.multiply(reference, row_weights).sum())
                for stack, power in zip(stacks, powers):
                    if stack.plan.fold == fold:
                        _stack_walk(stack, points, norms, row_weights, power)
            # this block's arrays go before the next block's are built
            del nodes, points, weights, norms, reference, row_weights
    scale = np.repeat([singles[stack.plan.fold] for stack in stacks], [p.size for p in powers])
    scale *= np.repeat([len(stack.positions[0]) for stack in stacks], [p.size for p in powers])
    powers = np.concatenate([np.empty(0), *(power.ravel() for power in powers)])
    return powers, powers / scale


def farfield_power(array: SourceArray, detector: DetectorGrid) -> tuple[float, float]:
    """Detected power of one array and its enhancement; see farfield_powers."""
    powers, enhancements = farfield_powers([array], detector)
    return float(powers[0]), float(enhancements[0])


def transmission_spectrum(
    array: SourceArray, wavelength_range: tuple[float, float], steps: int, detector: DetectorGrid
) -> SpectrumCurve:
    """Far-field power and enhancement as the emission wavelength sweeps.

    Geometry (positions, phases, detector) is held fixed; only the
    wavelength changes. Resonance-like maxima appear when the spacing
    exceeds the wavelength and grating lobes sweep across the detector.
    Raises TypeError unless ``steps`` is an integer.
    """
    lo, hi = (float(x) if _finite(x, "wavelength_range") else math.nan for x in wavelength_range)
    if not 0.0 < lo < hi:
        raise ValueError("wavelength range must satisfy 0 < lo < hi, both finite")
    steps = _integer(steps, "steps")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    # its steps share the array's positions and phases
    _check_budget(_SWEEP_STEP_BYTES * steps + _SWEEP_BUILD_BYTES * array.n_sources,
                  f"far-field sweep of {steps} steps x {array.n_sources} sources")
    values = _increasing(np.linspace(lo, hi, steps))
    powers, enhancements = _step_powers(
        [(array.positions, wavelength, array.extent, array.phases)
         for wavelength in values.tolist()], detector)
    meta = {
        "kind": "transmission_spectrum",
        "n_sources": array.n_sources,
        "spacing": array.spacing if array.spacing is not None else "",
        "wavelength_min": lo,
        "wavelength_max": hi,
        "steps": steps,
        "detector_geometry": detector.geometry,
        "detector_radius": detector.radius,
        "detector_samples": detector.samples,
    }
    return SpectrumCurve(values, powers, enhancements, meta)
