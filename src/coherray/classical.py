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
e^{ik.r} = e^{ik_x x} e^{ik_y y} e^{ik_z z} on the midpoint grid, the
plane-wave table is the outer product of three 1-D factors, so the
exponential is evaluated once per axis point and once per wave, not once
per cell per wave.

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
cos/sin of k d replace the complex exponential of k r. The table of d is
shared across a sweep while the positions hold still, one cos/sin pass is
shared by consecutive steps that change only the phases, and the
origin-centered reference source, whose intensity 1/|p|^2 does not depend
on k, is summed once per detector.
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
    FarFieldViolationError,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    _check_budget,
    _readonly,
    _sinc,
    _swept,
    phase_sum,
)

# far-field validity: detector radius must exceed this multiple of both the
# wavelength and the array extent
FAR_FIELD_FACTOR = 100.0

_COMMENSURATE_TOL = 1e-9

# complex res^3 arrays the grid holds at its peak: the plane-wave table,
# E, H and the product of one wave (the real density arrays come after the
# table and the product are released, and need less)
_GRID_COMPLEX_ARRAYS = 4

# detector rows per block of the far-field sum
_BLOCK_ROWS = 4096

# (block, N) float arrays one far-field block holds besides the path table:
# cos(k d)/r, sin(k d)/r and 1/r (the table's build holds two)
_BLOCK_ARRAYS = 3

# float columns per detector point besides the path table: the quadrature
# build's temporaries (the hemisphere holds its angle grids, sines and the
# direction stack at once), then the points (3), weights, origin distances
# and the reference source's weighted intensity
_QUADRATURE_COLUMNS = 12

# float columns per block row besides the block arrays: the matvec results
# of the phase set in hand and of the one before it, still referenced
_FIELD_COLUMNS = 6

# bytes per step of a far-field sweep besides the sources: the step's
# SourceArray object and curve entries (~250 measured with tracemalloc)
_SWEEP_STEP_BYTES = 512

# bytes per source that a far-field sweep step holds or makes, by kind: the
# engine makes each step the cos and sin of its phases (16; phase_delta
# steps hold them together, other steps free them after their pass);
# spectrum steps share their array's positions and phases, wavelength and
# phase_delta steps hold new phases (8), and spacing and source_count steps
# build new positions and phases (32)
_SWEEP_SOURCE_BYTES = dict(spectrum=16, wavelength=24, phase_delta=24, spacing=48, source_count=48)

# bytes per source of building one step: the array under construction and
# its temporaries (at most ~50 measured)
_SWEEP_BUILD_BYTES = 64


@dataclass(frozen=True)
class DetectorGrid:
    """Quadrature surface for far-field power.

    geometry "hemisphere": product (theta, phi) grid over the forward cap,
    solid-angle weighted, ``samples`` points per angular axis.
    geometry "arc": ``samples`` points on a circle arc in the x-z plane,
    line-measure weighted (a fast 1-D proxy whose absolute scale only
    matters through enhancement ratios). The hemisphere spans polar angles
    0..pi/2; the arc opens pi, from -pi/2 to pi/2 about +z.
    """

    radius: float
    geometry: str = "hemisphere"
    samples: int = 256

    def __post_init__(self):
        if self.geometry not in ("hemisphere", "arc"):
            raise ValueError(f"geometry must be 'hemisphere' or 'arc', got {self.geometry!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")
        try:
            samples = operator.index(self.samples)
        except TypeError:
            raise TypeError(f"samples must be an integer, got {self.samples!r}") from None
        object.__setattr__(self, "samples", samples)
        if samples < 64:
            raise ValueError("need at least 64 samples per angular axis")


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


def canonical_coordinates(
    mode: WaveMode, phase: float, position, volume: BoxVolume | None = None
) -> tuple[float, float]:
    """Canonical pair (Q, P) of one phased wave at a point.

    Q = sqrt(V/4 pi) (a e^{i(k.r+phi)} + c.c.) and
    P = -i omega sqrt(V/4 pi) (a e^{i(k.r+phi)} - c.c.) (c = 1); both are
    real, and (P^2 + omega^2 Q^2)/2 reproduces E1 independent of position.
    """
    pos = np.asarray(position, dtype=float)
    vol = volume.volume if volume is not None else 1.0
    prefactor = math.sqrt(vol / (4.0 * math.pi))
    rotated = mode.amplitude * np.exp(1j * (float(np.dot(mode.wavevector, pos)) + phase))
    q = 2.0 * prefactor * rotated.real
    p = 2.0 * mode.omega * prefactor * rotated.imag
    return q, p


def classical_energy(waves: PhasedWaveSet, volume: BoxVolume | None = None):
    """Closed-form interference energy of N phased copies of one mode.

    Returns an EnergyReport with diagonal = N*E1, cross = E1*(|S|^2 - N),
    total = E1*|S|^2 where S is the coherent phase sum. Uniform phases give
    the N^2 maximum; opposite phases cancel exactly.
    """
    from .core import EnergyReport

    unit = single_wave_energy(waves.mode, volume)
    n = waves.n_waves
    _, magnitude_sq = phase_sum(waves.phases)
    diagonal = n * unit
    cross = unit * (magnitude_sq - n)
    return EnergyReport.from_parts(diagonal, cross)


def commensurate_box(mode: WaveMode, lengths, center=(0.0, 0.0, 0.0)) -> BoxVolume:
    """Round the box edge along an axis-aligned wavevector to whole
    wavelengths (at least one), so grid energies are placement-independent.
    """
    k = mode.wavevector
    axis = int(np.argmax(np.abs(k)))
    off_axis = np.delete(np.abs(k), axis)
    if np.any(off_axis > 1e-9 * abs(k[axis])):
        raise ValueError("commensurate_box requires an axis-aligned wavevector")
    adjusted = np.array(lengths, dtype=float)
    wavelength = mode.wavelength
    periods = max(1, round(adjusted[axis] / wavelength))
    adjusted[axis] = periods * wavelength
    return BoxVolume(adjusted, np.asarray(center, dtype=float))


def field_energy_grid(
    waves: PhasedWaveSet, volume: BoxVolume, resolution=64
) -> GridEnergy:
    """Midpoint-rule integral of the instantaneous energy density.

    The fields of each wave are evaluated analytically at every cell
    center (snapshot at t = 0; for a commensurate box the integral is
    time-independent) and the density (E^2 + H^2)/8pi is summed. This is
    the brute-force twin of `classical_energy` and never forms the phase
    sum: every wave adds its own field to E and to H on the grid.

    e^{ik.r} separates over the axes of the midpoint grid, so the
    plane-wave table is the outer product of three 1-D factors and each
    wave is that table times a e^{i phi}: 3*res + N exponentials in place
    of N*res^3.

    ``resolution`` is the number of cells per axis, one integer or three.
    Raises TypeError for non-integers, and ValueError below 8 cells per
    axis or when the grid would need more than MEMORY_BUDGET_BYTES.
    """
    try:
        res = tuple(operator.index(r) for r in np.broadcast_to(np.asarray(resolution), (3,)))
    except TypeError:
        raise TypeError(f"resolution must be integers, got {resolution!r}") from None
    if min(res) < 8:
        raise ValueError("resolution must be at least 8 per axis")
    cells = math.prod(res)
    _check_budget(_GRID_COMPLEX_ARRAYS * 16 * cells, f"grid request of {cells} cells")

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
    plane = (fx[:, None] * fy)[:, :, None] * fz

    efield = np.zeros(res, dtype=complex)
    hfield = np.zeros(res, dtype=complex)
    product = np.empty(res, dtype=complex)
    for phi in waves.phases:
        analytic = mode.amplitude * np.exp(1j * phi)
        efield += np.multiply(plane, (1j * mode.omega) * analytic, out=product)
        hfield += np.multiply(plane, 1j * analytic, out=product)
    del plane, product
    # E along the polarization; H along k x pol with |k x pol| = |k|; the
    # real fields are 2 Re E and 2 Re H, so (E^2 + H^2)/8pi is this sum / 2pi
    density = np.square(efield.real)
    density += mode.wavenumber ** 2 * np.square(hfield.real)

    cell = volume.volume / cells
    energy = float(density.sum() / TWO_PI * cell)
    return GridEnergy(energy, commensurate)


def _detector_quadrature(detector: DetectorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint sample points (S, 3) and integration weights (S,)."""
    n = detector.samples
    radius = detector.radius
    if detector.geometry == "arc":
        step = math.pi / n
        theta = -math.pi / 2.0 + (np.arange(n) + 0.5) * step
        directions = np.stack(
            [np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=1
        )
        weights = np.full(n, radius * step)
        return radius * directions, weights
    theta_step = (math.pi / 2) / n
    phi_step = TWO_PI / n
    theta = (np.arange(n) + 0.5) * theta_step
    phi = (np.arange(n) + 0.5) * phi_step
    theta_grid, phi_grid = np.meshgrid(theta, phi, indexing="ij")
    sin_t = np.sin(theta_grid)
    directions = np.stack(
        [sin_t * np.cos(phi_grid), sin_t * np.sin(phi_grid), np.cos(theta_grid)],
        axis=-1,
    ).reshape(-1, 3)
    weights = (radius ** 2 * sin_t * theta_step * phi_step).reshape(-1)
    return radius * directions, weights


def _path_differences(points: np.ndarray, norms: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Path differences d = r - |p| (S, N) from each source x to each
    detector point p, where r = |p - x|.

    r is summed one coordinate at a time; d is then formed as
    (|x|^2 - 2 p.x) / (r + |p|), the same quantity with no cancellation
    between r and |p|, so d keeps full relative precision however far the
    detector is. The table is filled a block of rows at a time, so the
    build holds two block-sized temporaries besides the table.
    """
    table = np.empty((points.shape[0], positions.shape[0]))
    squares = np.einsum("ij,ij->i", positions, positions)
    distances, scratches = _block_buffers(table, 2)
    for rows in _row_blocks(points.shape[0]):
        block, near = points[rows], table[rows]
        distance, scratch = distances[:len(block)], scratches[:len(block)]
        distance.fill(0.0)
        near.fill(0.0)
        for axis in range(3):
            np.subtract(block[:, axis:axis + 1], positions[:, axis], out=scratch)
            scratch *= scratch
            distance += scratch
            np.multiply(block[:, axis:axis + 1], positions[:, axis], out=scratch)
            near += scratch
        np.sqrt(distance, out=distance)
        distance += norms[rows, None]
        near *= -2.0
        near += squares
        near /= distance
    return table


def _row_blocks(count: int):
    """Slices of ``count`` detector rows, _BLOCK_ROWS at a time."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, count, _BLOCK_ROWS))


def _block_buffers(table: np.ndarray, count: int) -> list[np.ndarray]:
    """``count`` uninitialised arrays the shape of one block of ``table``'s
    rows, allocated once per table walk and sliced for a shorter last block."""
    shape = (min(_BLOCK_ROWS, table.shape[0]), table.shape[1])
    return [np.empty(shape) for _ in range(count)]


def _run_powers(
    table: np.ndarray, norms: np.ndarray, weights: np.ndarray, wavenumber: float, phase_sets
) -> list[float]:
    """Detected power of each phase set for the sources of ``table``.

    The detector rows are walked once in blocks. A block's cos(k d)/r and
    sin(k d)/r are shared by every phase set; each set then takes four
    real matvecs with its cos(phi) and sin(phi), and sums its intensity
    times the weights. A set's power is the same float whether it shares
    the walk with other sets or not. The matvecs use einsum rather than
    BLAS, so the bits do not depend on the BLAS kernel that the machine
    selects, and each block's weighted intensity is summed pairwise.
    """
    phasors = [(np.cos(phases), np.sin(phases)) for phases in phase_sets]
    powers = [0.0] * len(phasors)
    cosines, sines, inverses = _block_buffers(table, 3)
    for rows in _row_blocks(weights.size):
        block = table[rows]
        cosine, sine, inverse = cosines[:len(block)], sines[:len(block)], inverses[:len(block)]
        np.add(block, norms[rows, None], out=inverse)
        np.reciprocal(inverse, out=inverse)
        np.multiply(block, wavenumber, out=cosine)
        np.sin(cosine, out=sine)
        np.cos(cosine, out=cosine)
        cosine *= inverse
        sine *= inverse
        for j, (cos_phi, sin_phi) in enumerate(phasors):
            real = np.einsum("ij,j->i", cosine, cos_phi)
            real -= np.einsum("ij,j->i", sine, sin_phi)
            imag = np.einsum("ij,j->i", cosine, sin_phi)
            imag += np.einsum("ij,j->i", sine, cos_phi)
            real *= real
            imag *= imag
            real += imag
            real *= weights[rows]
            powers[j] += float(real.sum())
    return powers


def _check_farfield_budget(detector: DetectorGrid, n_sources: int):
    """Refuse a far-field request whose peak exceeds the budget: the path
    table, the quadrature columns, and the larger of one block's build
    temporaries and its cos, sin and 1/r arrays and field columns."""
    points = detector.samples if detector.geometry == "arc" else detector.samples ** 2
    rows = min(points, _BLOCK_ROWS)
    needed = 8 * points * (n_sources + _QUADRATURE_COLUMNS)
    needed += 8 * rows * (_BLOCK_ARRAYS * n_sources + _FIELD_COLUMNS)
    _check_budget(needed, f"far-field request of {points} detector points x {n_sources} sources")


def _check_sweep_budget(steps: int, n_sources: int, kind: str):
    """Refuse a far-field sweep of ``kind`` (a _SWEEP_SOURCE_BYTES key) whose
    steps of up to ``n_sources`` sources exceed the budget."""
    per_step = _SWEEP_STEP_BYTES + _SWEEP_SOURCE_BYTES[kind] * n_sources
    needed = steps * per_step + _SWEEP_BUILD_BYTES * n_sources
    _check_budget(needed, f"far-field sweep of {steps} steps x {n_sources} sources")


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
    once per detector, with the engine's blocks, and with no exponential.

    The quadrature is built once, and the path table again only when an
    array's positions differ from the previous array's. Consecutive arrays
    with the same positions and wavenumber share one cos/sin pass over the
    table.

    Raises FarFieldViolationError unless the detector radius is at least
    100x both the wavelength and the extent of every array, and ValueError
    if the request would need more than MEMORY_BUDGET_BYTES.
    """
    arrays = list(arrays)
    for array in arrays:
        threshold = FAR_FIELD_FACTOR * max(array.wavelength, array.extent)
        if detector.radius < threshold:
            raise FarFieldViolationError(
                f"detector radius {detector.radius} below far-field threshold {threshold}"
            )
    _check_farfield_budget(detector, max((array.n_sources for array in arrays), default=0))
    points, weights = _detector_quadrature(detector)
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    # the reference source's intensity 1/|p|^2, summed as the engine sums
    # an origin-centered source, whose field is exactly 1/|p| (d = 0)
    reference = 1.0 / norms
    reference *= reference
    reference *= weights
    single = sum(float(reference[rows].sum()) for rows in _row_blocks(weights.size))
    powers = []
    table = table_positions = None
    runs = itertools.groupby(arrays, lambda array: (array.wavenumber, array.positions.tobytes()))
    for (wavenumber, positions), run in runs:
        run = list(run)
        if positions != table_positions:
            table = None  # release the old table before building the new one
            table = _path_differences(points, norms, run[0].positions)
            table_positions = positions
        powers += _run_powers(table, norms, weights, wavenumber, [array.phases for array in run])
    powers = np.array(powers, dtype=float)
    counts = np.array([array.n_sources for array in arrays], dtype=float)
    return powers, powers / (counts * single)


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
