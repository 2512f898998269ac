"""Classical field energies of phased wave sets and source arrays.

Two independent routes to the same physics live here. The closed form
(`classical_energy`) evaluates the interference Hamiltonian analytically:
for N phase-shifted copies of one mode the total energy is E1*|S|^2 with
S the coherent phase sum, so it ranges from 0 (destructive) to N^2*E1
(constructive). The brute-force route (`field_energy_grid`) integrates
the energy density (E^2 + H^2)/8pi on a grid, with E = -dA/dt (c = 1)
and H = curl A evaluated pointwise; over a box commensurate with the
wavelength the two agree to quadrature accuracy. It never forms the phase
sum: each wave's field is laid onto the grid and summed there. Because
e^{ik.r} = e^{ik_x x} e^{ik_y y} e^{ik_z z} on the midpoint grid, a cell's
plane-wave value is the product of three 1-D factors, so the exponential
is evaluated once per axis point and once per wave, not once per cell per
wave. The grid is walked in cache-sized slabs of consecutive z-lines (or
of one z-line's chunks, when it is longer) and holds no res^3 array;
before it starts, its memory is checked against MEMORY_BUDGET_BYTES and
its cell updates against WORK_BUDGET.

Far-field power of point-source arrays is integrated over a detector
surface: the default geometry is the forward hemisphere (array along x in
the z=0 plane, cap around +z, theta measured from +z), with a 1-D arc in
the x-z plane as the fast mode for sweeps over linear arrays. One engine,
`farfield_powers`, evaluates a list of arrays on one detector;
`farfield_power`, `transmission_spectrum` and the far-field sweeps of
`experiments` all go through it. It sums the brute-force field of every
source at every detector point, with one rearrangement: a source at
distance r = |p| + d from the point p contributes e^{i(k d + phi)} / r,
since the row's common phase e^{ik|p|} drops out of |field|^2 exactly.
The path differences d are small and exact to full precision, so real
cos/sin of k d replace the complex exponential of k r. The detector rows
are walked in blocks, and each block in chunks of about 2^16 path
differences, so the engine holds nothing that grows with the detector and
nothing that couples its rows to the source count. Each block builds its
quadrature points and weights once, and each group of arrays with equal
positions walks it in turn, with arrays of its own: it adds its partial of
the origin-centered reference source (1/|p|^2 at every k) and builds each
chunk's d and 1/r once, source-major, for every run of steps that keep
their positions. Steps that change only the phases share a run, and
consecutive runs of as many steps a batch, with one cos and one sin pass
and einsum matvecs that sum each row's sources in ascending order. Before
it builds anything, the engine checks the largest group's walk against
MEMORY_BUDGET_BYTES and its work against WORK_BUDGET.

Both detectors are mirror-symmetric: the arc under x -> -x, the hemisphere
under y -> -y and, when its samples are even, under x -> -x. When a mirror
also maps an array's positions onto themselves, exactly, in order or
reversed (a linear array is centered on the x axis, so x -> -x reverses it
and y -> -y keeps its order), the walk folds: it builds one fundamental
node per orbit of the mirrors, and takes path differences and cos/sin only
there. An image node is the exact sign flip of its fundamental node, so
its row is the fundamental row with the sources in order or reversed. The
in-order images add their weight to the fundamental row; the reversed ones
sum the fundamental row against the phases reversed. A linear array takes
cos/sin over half the arc, a quarter of an even hemisphere and half an odd
one; on the hemisphere its y -> -y images merge, so it takes half the
matvecs. Any other array (a jittered one, or one symmetric only under some
other order of its sources) takes every row, with the nodes as listed.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    MEMORY_BUDGET_BYTES,  # classical.MEMORY_BUDGET_BYTES names the budget its routes check
    TWO_PI,
    BoxVolume,
    EnergyReport,
    FarFieldViolationError,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    _check_budget,
    _check_work,
    _one_of,
    _readonly,
    _sinc,
    _swept,
    phase_sum,
)

# far-field validity: detector radius must exceed this multiple of both the
# wavelength and the array extent; _far_field_radius is its one reader
FAR_FIELD_FACTOR = 100.0

# the detector geometries DetectorGrid accepts
GEOMETRIES = ("hemisphere", "arc")

# the detector geometry of spectra, far-field sweeps and the far-field
# scaling fit when none is chosen: the fast arc (a DetectorGrid built
# without one is a hemisphere)
DRIVER_GEOMETRY = "arc"

_COMMENSURATE_TOL = 1e-9

# grid operations per cell besides one per wave: the plane-wave values, E and
# H zeroed, the density (c of t = a (N + c) fitted at 128^3, N = 1, 8, 32)
_GRID_CELL_WORK = 3

# cells per slab of the grid walk; a slab is a run of consecutive z-lines,
# or a chunk of one z-line when that is longer, so it holds at most this
# many cells, and its six arrays (640 KB) stay in cache while every wave
# is added onto them
_SLAB_CELLS = 8192

# bytes the grid walk holds per slab cell: the plane-wave values, E, H and
# one wave's product (complex), and the density and its H term (float)
_SLAB_CELL_BYTES = 80

# bytes per slab line: the line's x-y factor, and the two index arrays and
# the two gathered factors that build it
_SLAB_LINE_BYTES = 64

# bytes per axis point: the midpoint axis, its factor e^{ik x}, and the two
# complex temporaries of the factor's build
_AXIS_POINT_BYTES = 56

# bytes a grid call holds whatever its size: array headers, the wave
# coefficients and their list (about 4 KB measured)
_GRID_CALL_BYTES = 8192

# detector rows per block of the far-field walk: each block builds its own
# quadrature, shared by every positions group that folds onto the same mirrors
_BLOCK_ROWS = 4096

# path differences per chunk of a far-field block, and runs x sources x
# rows per batch of runs: each group walks a block's fundamental rows in
# chunks of about this many cells and at least _CHUNK_MIN_ROWS rows, so a
# block of up to 16 sources is one chunk, and the three chunk arrays (about
# 512 KB at most: the path differences, their 1/r, a batch's cos or sin)
# stay in cache. Each chunk's weighted intensities are summed pairwise, and
# the chunk partials added in order. The floor of two rows was timed on arc
# spectra at N = 4000 and 20 000 (2-vCPU VM): at 20 000, chunks of 16 rows
# ran 9% slower, since their arrays (5 MB each) no longer stay in cache
_CHUNK_CELLS = 1 << 16
_CHUNK_MIN_ROWS = 2

# far-field work per detector point and source, in the grid's operations
# (WORK_BUDGET): the path difference and its 1/r (once per positions group),
# the cos and sin of a trig pass (once per run of equal wavenumber) and one
# phase set's four matvecs, timed at about 14.5, 16 and 1.7 ns (2-vCPU VM,
# N = 64 and 300, 1/r then in the trig pass), 2.2 ns per grid operation
_PATH_WORK = 7
_TRIG_WORK = 7
_MATVEC_WORK = 1

# float columns per materialized block row: the block's quadrature (of its
# fundamental rows) and its build's temporaries, the previous block's
# quadrature (still referenced while the next is built), the row weights and
# reference intensities; an unfolded hemisphere block peaked at 19.2 with
# one phase set's matvec results, now charged per batch (tracemalloc, N = 8)
_ROW_COLUMNS = 20

# bytes the far-field walk holds whatever its size: the buffers numpy's
# ufuncs and einsum take, up to 8192 elements (64 KB) for each of an einsum's
# three operands; tracemalloc peaks exceeded the other terms by at most 125 KB
# (arcs of 64-1024 points, N = 20-3000)
_WALK_BUFFER_BYTES = 3 << 16

# bytes per source of the fold check (see _source_mirror): the mirrored
# copy (24) and the booleans of one comparison (3); tracemalloc peaked at
# 27.7 at N = 10^5, for linear and jittered arrays alike. The check runs
# before the budget check, like the positions it reads
_FOLD_SOURCE_BYTES = 32

# bytes per step of a far-field sweep besides the sources: the step's
# SourceArray object and curve entries (~250 measured with tracemalloc)
_SWEEP_STEP_BYTES = 512

# bytes per source that a far-field sweep step holds, by kind: spectrum
# steps share their array's positions and phases, wavelength and
# phase_delta steps hold new phases (8), and spacing and source_count steps
# build new positions and phases (32). phase_delta steps share one engine
# pass, which holds the cos and sin of every step's phases at once (16)
_SWEEP_SOURCE_BYTES = dict(spectrum=0, wavelength=8, phase_delta=24, spacing=32, source_count=32)

# bytes per source held once per sweep: the first array under construction
# and its temporaries (72 measured at 20 000 sources, more per source at a
# few hundred, where a call's fixed overhead counts), and the cos and sin
# (16) of one step's phases (the engine's budget charges the cos and sin it
# holds, those of one positions group's distinct phases)
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
    is ``samples`` on the arc and ``samples``^2 on the hemisphere.

    The nodes come in mirror pairs of equal weight: the arc's theta and
    -theta under x -> -x, the hemisphere's phi and -phi under y -> -y and,
    for even ``samples``, phi and pi - phi under x -> -x. Where the engine
    folds an array onto a mirror, it builds each image node as the exact
    sign flip of its fundamental node, which may differ from the node as
    listed in its last bit.
    """

    radius: float
    geometry: str = "hemisphere"
    samples: int = 256

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            choices = _one_of(map(repr, GEOMETRIES))
            raise ValueError(f"geometry must be {choices}, got {self.geometry!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")
        try:
            samples = operator.index(self.samples)
        except TypeError:
            raise TypeError(f"samples must be an integer, got {self.samples!r}") from None
        object.__setattr__(self, "samples", samples)
        if samples < 64:
            raise ValueError("need at least 64 samples per angular axis")

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
        if par.size >= 2 and not np.all(np.diff(par) > 0.0):
            raise ValueError("parameter values must be strictly increasing")
        object.__setattr__(self, "parameter", _readonly(par))
        object.__setattr__(self, "power", _readonly(pw))
        object.__setattr__(self, "enhancement", _readonly(enh))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def __len__(self) -> int:
        return int(self.parameter.size)


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


def field_energy_grid(
    waves: PhasedWaveSet, volume: BoxVolume, resolution=64
) -> GridEnergy:
    """Midpoint-rule integral of the instantaneous energy density.

    The fields of each wave are evaluated analytically at every cell
    center (snapshot at t = 0; for a commensurate box the integral is
    time-independent) and the density (E^2 + H^2)/8pi is summed. This is
    the brute-force twin of `classical_energy` and never forms the phase
    sum: every wave adds its own field to E and to H on the grid.

    e^{ik.r} separates over the axes of the midpoint grid, so a cell's
    plane-wave value is the product of three 1-D factors and each wave is
    that value times a e^{i phi}: 3*res + N exponentials in place of
    N*res^3. The grid is walked in slabs of at most _SLAB_CELLS cells (see
    _slab_walk), so the memory held grows with the axes, not with the cell
    count.

    ``resolution`` is the number of cells per axis, one integer or three.
    Raises TypeError for non-integers, and ValueError below 8 cells per
    axis, when the walk would need more than MEMORY_BUDGET_BYTES, or when
    its cells x (waves + _GRID_CELL_WORK) operations exceed WORK_BUDGET.
    """
    try:
        res = tuple(operator.index(r) for r in np.broadcast_to(np.asarray(resolution), (3,)))
    except TypeError:
        raise TypeError(f"resolution must be integers, got {resolution!r}") from None
    if min(res) < 8:
        raise ValueError("resolution must be at least 8 per axis")
    cells = math.prod(res)
    width = min(res[2], _SLAB_CELLS)
    lines = min(res[0] * res[1], _SLAB_CELLS // width)
    needed = _SLAB_CELL_BYTES * lines * width + _SLAB_LINE_BYTES * lines
    needed += _AXIS_POINT_BYTES * sum(res) + _GRID_CALL_BYTES
    _check_budget(needed, f"grid request of {cells} cells")
    work = cells * (waves.n_waves + _GRID_CELL_WORK)
    _check_work(work, f"grid request of {cells} cells x {waves.n_waves} waves")

    mode = waves.mode
    k = mode.wavevector
    lengths = volume.lengths
    # the e^{2ik.r} part of the density integrates to prod_i sinc(k_i L_i);
    # only (near-)zero values make the box placement-independent
    residual = np.prod(_sinc(k * lengths))
    commensurate = bool(abs(residual) < _COMMENSURATE_TOL)

    axes = [
        volume.center[i] - lengths[i] / 2.0 + (np.arange(res[i]) + 0.5) * (lengths[i] / res[i])
        for i in range(3)
    ]
    fx, fy, fz = (np.exp(1j * k[i] * axes[i]) for i in range(3))
    coefficients = []
    for phi in waves.phases:
        analytic = mode.amplitude * np.exp(1j * phi)
        coefficients.append(((1j * mode.omega) * analytic, 1j * analytic))
    # E along the polarization; H along k x pol with |k x pol| = |k|; the
    # real fields are 2 Re E and 2 Re H, so (E^2 + H^2)/8pi is this sum / 2pi
    total = _slab_walk(fx, fy, fz, coefficients, mode.wavenumber ** 2, lines, width)

    cell = volume.volume / cells
    energy = float(total / TWO_PI * cell)
    return GridEnergy(energy, commensurate)


def _slab_walk(fx, fy, fz, coefficients, k_sq: float, lines: int, width: int) -> float:
    """Sum of Re(E)^2 + k_sq Re(H)^2 over the grid of the 1-D factors.

    The cells are walked in slabs of ``lines`` consecutive z-lines, each
    cut into chunks of ``width`` cells (one chunk unless the z-lines are
    longer than that); the slab arrays are allocated once and sliced for
    the last slab and the last chunk. In a slab, a cell's plane-wave value
    is (fx*fy)*fz, the products the whole-grid outer product forms; E and
    H start at zero, and each wave's (E, H) pair of ``coefficients`` adds
    the plane times that coefficient to them, so each cell's density has
    the bits of a whole-grid walk. Only the grouping of the final sum
    differs: each slab is summed and added to the total in slab order.
    """
    ry = fy.size
    count = fx.size * ry
    shape = (lines, width)
    plane, efield, hfield, product = (np.empty(shape, dtype=complex) for _ in range(4))
    density, magnetic = np.empty(shape), np.empty(shape)
    rows = np.empty(lines, dtype=complex)
    total = 0.0
    for start in range(0, count, lines):
        n = min(lines, count - start)
        x, y = np.divmod(np.arange(start, start + n), ry)
        xy = np.multiply(fx[x], fy[y], out=rows[:n])
        for chunk in range(0, fz.size, width):
            z = fz[chunk:chunk + width]
            cells = (slice(n), slice(z.size))
            p, e, h, wave = plane[cells], efield[cells], hfield[cells], product[cells]
            # both factors are spread into slab arrays first: a broadcasting
            # multiply would allocate numpy's operand buffers (2 x 8192 cells)
            p[...] = xy[:, None]
            wave[...] = z
            np.multiply(p, wave, out=p)
            e.fill(0.0)
            h.fill(0.0)
            for e_coefficient, h_coefficient in coefficients:
                e += np.multiply(p, e_coefficient, out=wave)
                h += np.multiply(p, h_coefficient, out=wave)
            d, m = density[cells], magnetic[cells]
            np.square(e.real, out=d)
            np.square(h.real, out=m)
            m *= k_sq
            d += m
            total += float(d.sum())
    return total


def _detector_quadrature(detector: DetectorGrid, index) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint sample points (rows, 3) and integration weights (rows,) of
    the detector points of the integer array ``index``. The hemisphere's
    index runs over phi within each theta, as a (theta, phi) meshgrid
    flattens, and each point takes the floats that meshgrid gave it."""
    n = detector.samples
    radius = detector.radius
    if detector.geometry == "arc":
        step = math.pi / n
        theta = -math.pi / 2.0 + (index + 0.5) * step
        directions = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1)
        weights = np.full(index.size, radius * step)
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


def _detector_mirrors(detector: DetectorGrid) -> tuple[int, ...]:
    """The axes (0 for x -> -x, 1 for y -> -y) whose mirror maps the
    detector's nodes onto nodes of the same weight, other than every node
    onto itself. The arc takes x -> -x; the hemisphere takes y -> -y, and
    x -> -x when its phi samples are even."""
    if detector.geometry == "arc":
        return (0,)
    return (0, 1) if detector.samples % 2 == 0 else (1,)


def _mirror_node(detector: DetectorGrid, axis: int, node):
    """Index of the mirror under ``axis`` of each ``node`` within its ring:
    the arc is one ring of ``samples`` nodes, and each hemisphere theta a
    ring of ``samples`` phi nodes. x -> -x takes the arc's theta to -theta
    and y -> -y the hemisphere's phi to -phi, both index n - 1 - i; x -> -x
    takes the hemisphere's phi to pi - phi, index (n/2 - 1 - i) mod n."""
    n = detector.samples
    if detector.geometry == "hemisphere" and axis == 0:
        return (n // 2 - 1 - node) % n
    return n - 1 - node


def _fundamental_rows(detector: DetectorGrid, mirrors) -> tuple[int, int, int, int]:
    """The fundamental nodes under ``mirrors``, a run of consecutive nodes
    of each ring that holds one node of every orbit: the run's first index
    and length, the fundamental rows of the whole detector, and the rows of
    one block of the walk: no more than those, and no more than
    _BLOCK_ROWS materialized rows."""
    n = detector.samples
    half = n // 2
    if not mirrors:
        start, count = 0, n
    elif detector.geometry == "hemisphere" and mirrors == (0,):
        start, count = half // 2, 2 * ((half + 1) // 2)
    else:
        start, count = 0, ((half if len(mirrors) == 2 else n) + 1) // 2
    fundamental = detector.n_points // n * count
    return start, count, fundamental, min(fundamental, _BLOCK_ROWS >> len(mirrors))


class _Fold(NamedTuple):
    """How a positions group folds onto the detector's mirrors (see _fold).

    ``mirrors``: the axes whose mirror maps both the detector's nodes and
    the positions onto themselves. ``elements``: the products of those
    mirrors, the identity first, each as a tuple of axes. ``classes``: the
    elements' indices grouped by whether they take the sources in order or
    reversed, the in-order class first; each class is one materialized row
    per fundamental node; the second sums it against the phases reversed."""

    mirrors: tuple
    elements: tuple
    classes: tuple


# a group that no mirror folds: the walk over every detector row
_UNFOLDED = _Fold((), ((),), ((0,),))


def _source_mirror(positions: np.ndarray, axis: int):
    """Whether the mirror under ``axis`` takes source n to source N - 1 - n
    (True, a linear array under x -> -x) or to itself (False), bit for bit
    up to the sign of a zero, or None when it does neither."""
    mirrored = positions.copy()
    np.negative(mirrored[:, axis], out=mirrored[:, axis])
    for reversed_ in (False, True):
        if np.array_equal(mirrored, positions[::-1] if reversed_ else positions):
            return reversed_
    return None


def _fold(detector: DetectorGrid, positions: np.ndarray) -> _Fold:
    """The mirrors of ``detector`` that also map ``positions`` onto
    themselves, in order or reversed, and which products of them reverse
    the sources.

    With p' the exact mirror of a node p, |p'| = |p| and d(p', x_n) =
    d(p, x_m) hold bit for bit, where m is n or N - 1 - n, so the image
    row's cos/sin are the fundamental row's, in order or reversed. A product
    of mirrors reverses the sources when an odd number of its mirrors do.
    The in-order images add their weight to the fundamental row; the
    reversed ones share one row of intensities. A group with no mirror is one
    class of one element, which is the unfolded walk."""
    reverses = {}
    for axis in _detector_mirrors(detector):
        reversed_ = _source_mirror(positions, axis)
        if reversed_ is not None:
            reverses[axis] = reversed_
    mirrors = tuple(reverses)
    elements = tuple(
        tuple(axis for bit, axis in enumerate(mirrors) if k >> bit & 1)
        for k in range(1 << len(mirrors))
    )
    classes = {}
    for index, element in enumerate(elements):
        classes.setdefault(sum(reverses[axis] for axis in element) % 2, []).append(index)
    return _Fold(mirrors, elements, tuple(map(tuple, classes.values())))


def _distinct_images(detector: DetectorGrid, elements, nodes) -> list:
    """For each element, whether its image of each fundamental node is a
    node that no earlier element's image already is (the identity's always
    is). A node that is its own mirror stays a lone row."""
    images, distinct = [], []
    for element in elements:
        image = nodes
        for axis in element:
            image = _mirror_node(detector, axis, image)
        first = np.ones(nodes.shape, dtype=bool)
        for other in images:
            first &= image != other
        distinct.append(first)
        images.append(image)
    return distinct


def _path_differences(points, norms, positions, squares, table, inverse, scratch):
    """Path differences d = r - |p| from each source x to each detector
    point p of one chunk, r = |p - x|, into ``table`` (N, rows), and 1/r
    into ``inverse``.

    r is summed one coordinate at a time; d is then formed as
    (|x|^2 - 2 p.x) / (r + |p|), the same quantity with no cancellation
    between r and |p|, so d keeps full relative precision however far the
    detector is; ``squares`` holds each |x|^2. ``inverse`` holds r + |p|
    until then, and ``scratch``, shaped like ``table``, each coordinate's.
    """
    inverse.fill(0.0)
    table.fill(0.0)
    for axis in range(3):
        np.subtract(points[:, axis], positions[:, axis:axis + 1], out=scratch)
        scratch *= scratch
        inverse += scratch
        np.multiply(points[:, axis], positions[:, axis:axis + 1], out=scratch)
        table += scratch
    np.sqrt(inverse, out=inverse)
    inverse += norms
    table *= -2.0
    table += squares[:, None]
    table /= inverse
    np.add(table, norms, out=inverse)
    np.reciprocal(inverse, out=inverse)


def _row_blocks(count: int, rows: int = _BLOCK_ROWS):
    """Slices of ``count`` detector rows, ``rows`` at a time; a last row that
    would stand alone joins the slice before it, since einsum sums a lone
    row's sources in an order of its own (see _run_powers)."""
    stops = [*range(rows, count - 1, rows), count]
    return map(slice, [0, *stops[:-1]], stops)


def _chunk_rows(block_rows: int, n_sources: int) -> int:
    """Fundamental rows per chunk of a block of ``block_rows`` rows, for a
    group of ``n_sources`` sources: about _CHUNK_CELLS path differences, at
    least _CHUNK_MIN_ROWS rows and at most the block."""
    return min(block_rows, max(_CHUNK_MIN_ROWS, _CHUNK_CELLS // n_sources))


def _batches(runs, cells: int) -> list:
    """The runs of a group (see _Group) in batches of consecutive runs with
    the same number of phase sets, at most _CHUNK_CELLS // ``cells`` runs
    and at least one each, where ``cells`` is a chunk's sources x rows."""
    most = max(1, _CHUNK_CELLS // cells)
    alike = [list(same) for _, same in itertools.groupby(runs, lambda run: len(run[1]))]
    return [same[i:i + most] for same in alike for i in range(0, len(same), most)]


def _run_powers(table, inverse, weights, wavenumbers, phasors, trig) -> list[float]:
    """One chunk's partial power of each phase set of a batch of runs (see
    _batches), in order, for the sources of the chunk's path ``table`` (N,
    rows), whose 1/r is ``inverse``.

    ``wavenumbers`` holds each run's k, ``phasors`` (runs, sets, 2, classes,
    N) each set's cos(phi) and sin(phi), reversed for a second class (see
    _Fold), and ``weights`` (classes, rows) each class's row weights.
    cos(k d)/r of every run is taken into ``trig`` (runs, N, rows) in one
    pass and matvec'd with every phasor, then sin(k d)/r likewise. The
    matvecs are einsums, not BLAS, whose inner loop runs over a chunk's rows
    (at least two, see _row_blocks), so every row sums its sources in
    ascending order on any machine. Each set's weighted intensities, class
    by class, are summed pairwise, so its partial is the same float whether
    it shares the batch or not.
    """
    cos_phi, sin_phi = phasors[:, :, 0], phasors[:, :, 1]
    np.multiply(table, wavenumbers[:, None, None], out=trig)
    np.cos(trig, out=trig)
    trig *= inverse
    real = np.einsum("bjh,bmcj->bmch", trig, cos_phi)
    imag = np.einsum("bjh,bmcj->bmch", trig, sin_phi)
    np.multiply(table, wavenumbers[:, None, None], out=trig)
    np.sin(trig, out=trig)
    trig *= inverse
    real -= np.einsum("bjh,bmcj->bmch", trig, sin_phi)
    imag += np.einsum("bjh,bmcj->bmch", trig, cos_phi)
    real *= real
    imag *= imag
    real += imag
    real *= weights
    return real.reshape(-1, weights.size).sum(axis=1).tolist()


class _Group(NamedTuple):
    """The arrays of a far-field call that share positions (see _position_groups)."""

    positions: np.ndarray
    phases: dict  # the distinct phase arrays, by id
    runs: list  # consecutive runs of equal wavenumber, [(wavenumber, [id, ...]), ...]
    fold: _Fold


def _group_walk(group: _Group, rows: int, points, weights, norms, distinct, reference,
                powers) -> float:
    """Walk one block of _block_walk for ``group``, in chunks (see
    _chunk_rows) of ``rows``, the fundamental rows of a whole block of its
    mirrors: add each phase set's partial to ``powers``, in order, and
    return the group's partial of the reference source, whose intensity on
    each row is ``reference``. Each chunk builds its path differences and
    their 1/r once, and each batch of runs (see _batches) takes one cos and
    one sin pass over them (see _run_powers), with its phasors gathered as
    it is walked. The group's chunk arrays, |x|^2 and the cos and sin of its
    distinct phase arrays are allocated here and freed on return."""
    positions, phases, runs, fold = group
    n, classes = positions.shape[0], len(fold.classes)
    counts = np.array([np.sum([distinct[e] for e in c], axis=0) for c in fold.classes])
    row_weights = counts * weights
    squares = np.einsum("ij,ij->i", positions, positions)
    phasors = np.empty((len(phases), 2, classes, n))
    for row, values in zip(phasors, phases.values()):
        np.cos([values, values[::-1]][:classes], out=row[0])
        np.sin([values, values[::-1]][:classes], out=row[1])
    index = {key: i for i, key in enumerate(phases)}
    height = _chunk_rows(rows, n)
    batches = [(np.array([k for k, _ in batch]), [index[key] for _, keys in batch for key in keys])
               for batch in _batches(runs, n * height)]
    chunks = list(_row_blocks(norms.size, height))
    height = max(chunk.stop - chunk.start for chunk in chunks)
    table, inverse = np.empty((n, height)), np.empty((n, height))
    trig = np.empty((max(len(wavenumbers) for wavenumbers, _ in batches), n, height))
    for chunk in chunks:
        size = chunk.stop - chunk.start
        paths, inverses = table[:, :size], inverse[:, :size]
        _path_differences(points[chunk], norms[chunk], positions, squares, paths, inverses,
                          trig[0, :, :size])
        partials = []
        for wavenumbers, keys in batches:
            partials += _run_powers(paths, inverses, row_weights[:, chunk], wavenumbers,
                                    phasors[keys].reshape(len(wavenumbers), -1, 2, classes, n),
                                    trig[:len(wavenumbers), :, :size])
        powers[:] = map(operator.add, powers, partials)
    return float(np.multiply(reference, row_weights).sum())


def _block_walk(detector: DetectorGrid, groups) -> tuple[list[float], list[float]]:
    """Detected power of every phase set of ``groups`` (see _position_groups),
    in order, and of the origin-centered reference source on the rows of
    each set's group.

    The groups that share their mirrors are walked together, _BLOCK_ROWS
    materialized rows of their fundamental rows (see _fundamental_rows) at a
    time. Each block builds its points, weights (see _detector_quadrature)
    and distances |p| from the origin once per call, and each group walks
    it in turn (see _group_walk); a power is the sum of its chunk partials
    in walk order.
    """
    powers = [[0.0] * sum(len(keys) for _, keys in group.runs) for group in groups]
    singles = [0.0] * len(groups)
    for mirrors in dict.fromkeys(group.fold.mirrors for group in groups):
        members = [g for g, group in enumerate(groups) if group.fold.mirrors == mirrors]
        start, count, fundamental, rows = _fundamental_rows(detector, mirrors)
        elements = groups[members[0]].fold.elements
        for block in _row_blocks(fundamental, rows):
            rings, nodes = np.divmod(np.arange(block.start, block.stop), count)
            nodes += start
            points, weights = _detector_quadrature(detector, rings * detector.samples + nodes)
            norms = np.sqrt(np.einsum("ij,ij->i", points, points))
            distinct = _distinct_images(detector, elements, nodes)
            # the reference source's intensity 1/|p|^2, summed on each group's
            # rows as the engine sums an origin-centered source there, whose
            # field is exactly 1/|p| (d = 0)
            reference = 1.0 / norms
            reference *= reference
            for g in members:
                singles[g] += _group_walk(groups[g], rows, points, weights, norms, distinct,
                                          reference, powers[g])
    return ([power for group_powers in powers for power in group_powers],
            [single for group_powers, single in zip(powers, singles) for _ in group_powers])


def _position_groups(arrays, detector: DetectorGrid) -> list[_Group]:
    """The arrays as consecutive groups of equal positions, each with its
    distinct phase arrays by id, its runs of equal wavenumber and its fold
    onto ``detector`` (see _fold). Sweep steps share their array's positions
    object, so most steps join a group without comparing their positions,
    and a spectrum's steps share one phases object too."""
    groups = []
    for array in arrays:
        positions, wavenumber = array.positions, array.wavenumber
        if not groups or (
            groups[-1].positions is not positions
            and groups[-1].positions.tobytes() != positions.tobytes()
        ):
            groups.append(_Group(positions, {}, [], _fold(detector, positions)))
        _, phases, runs, _ = groups[-1]
        phases.setdefault(id(array.phases), array.phases)
        if not runs or runs[-1][0] != wavenumber:
            runs.append((wavenumber, []))
        runs[-1][1].append(id(array.phases))
    return groups


def _check_farfield_budget(detector: DetectorGrid, groups):
    """Refuse a far-field request for ``groups`` (see _position_groups) over
    either budget, before anything is built. Memory: the most that one
    group's walk of a block holds (see _group_walk): a chunk's path
    differences and 1/r, and the trig array, gathered phasors and three
    matvec outputs per set of its largest batch (see _batches), each chunk
    and block a row more for a last lone row (see _row_blocks); _ROW_COLUMNS
    per materialized block row; per source |x|^2, the fold check and the
    cos and sin of each distinct phase array in each class; plus
    _WALK_BUFFER_BYTES. No term grows with the detector or couples a block's
    rows to the source count. Work: per fundamental row and source,
    _PATH_WORK for each group and _TRIG_WORK for each run, and per
    materialized row and source _MATVEC_WORK for each phase set."""
    needed = work = arrays = n_sources = 0
    for positions, phases, runs, fold in groups:
        n, classes = positions.shape[0], len(fold.classes)
        fundamental, rows = _fundamental_rows(detector, fold.mirrors)[2:]
        height = _chunk_rows(rows, n)
        batches = _batches(runs, n * height)
        steps, batch_sets = max(map(len, batches)), max(len(b) * len(b[0][1]) for b in batches)
        height, rows = height + 1, rows + 1
        needed = max(needed, 8 * ((2 + steps) * height * n + n + classes * (
            rows * _ROW_COLUMNS + (2 * n + 3 * height) * batch_sets))
                     + (16 * classes * len(phases) + _FOLD_SOURCE_BYTES) * n)
        sets = [len(keys) for _, keys in runs]
        work += fundamental * n * (
            _PATH_WORK + sum(_TRIG_WORK + _MATVEC_WORK * classes * s for s in sets)
        )
        arrays += sum(sets)
        n_sources = max(n_sources, n)
    request = f"far-field request of {detector.n_points} detector points x {n_sources} sources"
    _check_budget(needed + _WALK_BUFFER_BYTES, request)
    _check_work(work, f"{request} x {arrays} arrays")


def _check_sweep_budget(steps: int, n_sources: int, kind: str):
    """Refuse a far-field sweep of ``kind`` (a _SWEEP_SOURCE_BYTES key) whose
    steps of up to ``n_sources`` sources exceed the budget."""
    per_step = _SWEEP_STEP_BYTES + _SWEEP_SOURCE_BYTES[kind] * n_sources
    needed = steps * per_step + _SWEEP_BUILD_BYTES * n_sources
    _check_budget(needed, f"far-field sweep of {steps} steps x {n_sources} sources")


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

    Every source's distance to a detector point p is r = |p| + d, and the
    common phase e^{ik|p|} of a detector row drops out of the intensity
    exactly, so the field is summed as e^{i(k d + phi_n)} / r from a table
    of path differences d (see _path_differences). This rearranges the
    brute-force sum; it is not a Fraunhofer approximation. The reference
    source has |e^{ikr}/r|^2 = 1/|p|^2 at every wavenumber, so it is summed
    with no exponential, on the same rows and weights as each group of
    equal positions, in the engine's blocks.

    The detector rows are walked in blocks (see _block_walk): each block
    builds its own quadrature rows and is walked in chunks, each of which
    builds its rows of the path table once for every run of consecutive
    arrays with the same positions, and consecutive runs of arrays share one
    cos/sin pass over them (see _group_walk). The walk holds one block of
    quadrature and one group's chunk of path differences at a time, never
    the whole detector. Positions that a detector mirror maps onto themselves fold
    (see _fold): the walk takes only one node of each mirror orbit through
    the path table and the cos/sin pass.

    Raises FarFieldViolationError unless the detector radius is at least
    100x both the wavelength and the extent of every array, and ValueError
    if the request would need more than MEMORY_BUDGET_BYTES or more than
    WORK_BUDGET operations (see _check_farfield_budget).
    """
    arrays = list(arrays)
    for array in arrays:
        threshold = _far_field_radius(array.wavelength, array.extent)
        if detector.radius < threshold:
            raise FarFieldViolationError(
                f"detector radius {detector.radius} below far-field threshold {threshold}"
            )
    groups = _position_groups(arrays, detector)
    _check_farfield_budget(detector, groups)
    powers, references = (np.array(column, dtype=float) for column in _block_walk(detector, groups))
    counts = np.array([array.n_sources for array in arrays], dtype=float)
    return powers, powers / (counts * references)


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
    """
    lo, hi = float(wavelength_range[0]), float(wavelength_range[1])
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError("wavelength range must satisfy 0 < lo < hi, both finite")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    _check_sweep_budget(steps, array.n_sources, "spectrum")
    values = np.linspace(lo, hi, steps)
    swept = [_swept(array, wavelength=float(wavelength)) for wavelength in values]
    powers, enhancements = farfield_powers(swept, detector)
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
