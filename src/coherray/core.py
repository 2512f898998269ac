"""Shared value types and the phase-sum kernel.

Everything in this module is an immutable value object; instances can be
shared freely across threads or worker processes. A value that follows
from others is derived, never passed: a WaveMode's omega, an
EnergyReport's total and enhancement, a SourceArray's extent. Natural
units are fixed: c = 1 throughout and hbar = 1 in the quantum modules.
The CLI's output-only energy scale is the one conversion to physical units.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# bytes one request may hold at its peak; each route that builds a large
# array checks its own count against it before allocating
MEMORY_BUDGET_BYTES = 1 << 30

# operations one request may perform; a route whose time grows faster than
# its memory counts its dominant operation against this before it starts.
# The far-field engine's counts take 2.2-2.5 ns each on a 2-vCPU VM, so
# this is about 22 s of it; the grid's one-field walk takes 0.7-0.8 ns per
# counted operation, with one wave or with 32, about 8 s
WORK_BUDGET = 10 ** 10

# peak bytes per wave of the closed-form route: the phase tuple and
# PhasedWaveSet's reduced copy (a float object per entry) and phase_sum's
# arrays; measured with tracemalloc at 80 bytes per wave
_WAVE_BYTES = 80

# work per unordered source pair of the distinctness check and extent, in
# the grid's operations (WORK_BUDGET): each pair's three differences, their
# squares and sum, and its share of the row's max and min. Timed on a 2-vCPU
# VM at 5.0-9.9 ns per pair for N = 6000 to 20 000, where a request nears the
# budget, against ~2.5 ns per grid operation
_EXTENT_PAIR_WORK = 4


class FarFieldViolationError(ValueError):
    """A detector is too close to the array for far-field formulas to hold."""


class ConfigError(Exception):
    """A sweep or CLI configuration is incomplete or inconsistent."""


class MissingSettingError(ConfigError):
    """A sweep target lacks a setting it requires."""


def _vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    # a copy, so freezing it never freezes the caller's array
    return _readonly(arr)


def _check_budget(needed: int, request: str):
    """Refuse ``request`` (a description naming its size) if it needs more
    than MEMORY_BUDGET_BYTES."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{request} needs {needed} bytes, over the budget of {MEMORY_BUDGET_BYTES} bytes"
        )


def _check_work(count: int, request: str):
    """Refuse ``request`` (a description naming its size) if it needs more
    than WORK_BUDGET operations."""
    if count > WORK_BUDGET:
        raise ValueError(
            f"{request} needs {count} operations, over the work budget of {WORK_BUDGET} operations"
        )


def _check_wave_budget(n_waves: int):
    """Refuse a set of ``n_waves`` phases before it is built."""
    _check_budget(_WAVE_BYTES * n_waves, f"phase set of {n_waves} waves")


def _one_of(names) -> str:
    """The choices ``names`` as the text "a, b or c", for error messages."""
    *rest, last = names
    return f"{', '.join(rest)} or {last}"


def _integer(value, name: str) -> int:
    """``value`` as an int; raises TypeError, naming ``name`` and the value,
    for a float, a bool or anything else that is not an integer. Every count
    the package takes goes through here, so none is truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _finite(value, name: str) -> bool:
    """Whether the real number ``value`` is finite; raises TypeError, naming
    ``name`` and the value, for anything that is not a real number."""
    try:
        return math.isfinite(value)
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {value!r}") from None


def _check_positive(value: float, name: str):
    """Raise ValueError unless ``value`` is positive and finite (TypeError
    unless it is a real number)."""
    if not (_finite(value, name) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


def _sinc(x):
    # sin(x)/x with sinc(0) = 1 (numpy's np.sinc is the normalized variant)
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def reduce_phase(phi: float) -> float:
    """Map a phase to [0, 2*pi)."""
    return float(phi) % TWO_PI


@dataclass(frozen=True)
class WaveMode:
    """A single plane-wave mode.

    Parameters
    ----------
    wavevector : array_like, shape (3,)
        Propagation vector k, nonzero; it fixes ``omega = |k|`` (c = 1).
    amplitude : complex
        Complex amplitude of the analytic-signal part of the vector
        potential.
    """

    wavevector: np.ndarray
    amplitude: complex
    omega: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "wavevector", _vec3(self.wavevector, "wavevector"))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        omega = float(np.linalg.norm(self.wavevector))
        if not 0.0 < omega < math.inf:
            raise ValueError("wavevector must be nonzero, with a finite norm")
        object.__setattr__(self, "omega", omega)

    @classmethod
    def plane(cls, wavevector, amplitude=1.0) -> "WaveMode":
        """Build a plane mode of unit amplitude unless one is given."""
        return cls(wavevector, amplitude)

    @property
    def wavenumber(self) -> float:
        return self.omega

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.wavenumber


@dataclass(frozen=True)
class PhasedWaveSet:
    """N copies of one mode, distinguished only by their phase offsets.

    Phases are reduced mod 2*pi at construction and stored as a tuple;
    a non-finite phase raises ValueError.
    """

    mode: WaveMode
    phases: tuple = ()

    def __post_init__(self):
        if len(self.phases) < 1:
            raise ValueError("a wave set needs at least one phase")
        reduced = []
        for phase in self.phases:
            phase = reduce_phase(phase)
            if not math.isfinite(phase):
                raise ValueError("phases must be finite")
            reduced.append(phase)
        object.__setattr__(self, "phases", tuple(reduced))

    @property
    def n_waves(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class SourceArray:
    """Point sources at fixed positions with per-source emission phases.

    ``spacing`` is the uniform gap for linear arrays (None for free-form
    layouts). ``wavelength`` is the shared emission wavelength. ``extent``
    is the largest pairwise source distance (0 for a single source),
    computed by the distinctness check.
    """

    positions: np.ndarray
    phases: np.ndarray
    wavelength: float
    spacing: float | None = None
    extent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("need at least one source")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        phases = _checked_phases(self.phases, pos.shape[0])
        _check_positive(self.wavelength, "wavelength")
        if self.spacing is not None:
            _check_positive(self.spacing, "spacing")
        object.__setattr__(self, "extent", _checked_extent(pos))
        object.__setattr__(self, "positions", _readonly(pos))
        object.__setattr__(self, "phases", phases)

    @property
    def n_sources(self) -> int:
        return int(self.positions.shape[0])

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength


def _checked_phases(phases, n_sources: int) -> np.ndarray:
    """The phases as a read-only float array reduced mod 2*pi; raises
    ValueError unless there are ``n_sources`` of them, all finite."""
    ph = np.asarray(phases, dtype=float)
    if ph.shape != (n_sources,):
        raise ValueError("phases must match the number of sources")
    if not np.all(np.isfinite(ph)):
        raise ValueError("phases must be finite")
    return _readonly(ph % TWO_PI)


def _swept(array: SourceArray, wavelength: float | None = None, phases=None) -> SourceArray:
    """``array`` with a new wavelength and/or new phases, equal to what
    SourceArray would build from them. The positions and extent are
    already validated and are reused, so a sweep step checks only the
    values it changes."""
    changes = {}
    if wavelength is not None:
        _check_positive(wavelength, "wavelength")
        changes["wavelength"] = wavelength
    if phases is not None:
        changes["phases"] = _checked_phases(phases, array.n_sources)
    step = object.__new__(SourceArray)
    step.__dict__.update(array.__dict__, **changes)
    return step


def _checked_extent(pos: np.ndarray) -> float:
    """Largest pairwise distance of the (N, 3) positions; raises ValueError
    unless they are distinct.

    Sources in ascending order on the x axis (every linear array) take an
    O(N) path: the positive gaps prove them distinct, and the extent is the
    end-to-end gap, bit-equal to the pairwise maximum because rounding is
    monotone and sqrt(x*x) == |x|. Any other layout takes each source's
    squared distances to the sources after it, one coordinate column at a
    time, so every unordered pair is formed once and memory is O(N); the
    N (N - 1) / 2 pairs are checked against WORK_BUDGET first. Each squared
    distance has the bits of the full table's, since (a - b)^2 == (b - a)^2,
    and the extent is the sqrt of the largest, as sqrt is monotone.
    """
    x = pos[:, 0]
    if not pos[:, 1:].any() and np.all(x[1:] > x[:-1]):
        return float(x[-1] - x[0])
    n = pos.shape[0]
    _check_work(_EXTENT_PAIR_WORK * (n * (n - 1) // 2), f"pairwise distance check of {n} sources")
    first, *others = (np.ascontiguousarray(pos[:, axis]) for axis in range(3))
    squares, terms = np.empty(n), np.empty(n)
    largest, smallest = 0.0, math.inf
    for i in range(n - 1):
        square, term = squares[:n - 1 - i], terms[:n - 1 - i]
        np.subtract(first[i + 1:], first[i], out=square)
        square *= square
        for column in others:
            np.subtract(column[i + 1:], column[i], out=term)
            term *= term
            square += term
        largest = max(largest, float(square.max()))
        smallest = min(smallest, float(square.min()))
    if smallest <= 0.0:
        raise ValueError("source positions must be distinct")
    return math.sqrt(largest)


@dataclass(frozen=True)
class BoxVolume:
    """Axis-aligned rectangular integration volume."""

    lengths: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        lengths = _vec3(self.lengths, "lengths")
        if np.any(lengths <= 0.0):
            raise ValueError("box lengths must be positive")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "center", _vec3(self.center, "center"))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))


@dataclass(frozen=True)
class EnergyReport:
    """Energy split into self terms, interference terms, and their sum.

    ``total = diagonal + cross`` and ``enhancement`` are derived; the latter
    is the total over the uncorrelated energy (N times the single-wave unit,
    which equals ``diagonal``), in [0, N] for N equal-amplitude waves.
    """

    diagonal: float
    cross: float
    total: float = field(init=False)
    enhancement: float = field(init=False)

    def __post_init__(self):
        _check_positive(self.diagonal, "diagonal energy")
        if not math.isfinite(self.cross):
            raise ValueError("cross energy must be finite")
        total = self.diagonal + self.cross
        # rounding may leave a tiny negative; anything worse is a real bug
        if total < -1e-9 * self.diagonal:
            raise ValueError(f"total energy {total} is negative beyond tolerance")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "enhancement", total / self.diagonal)


def phase_sum(phases) -> tuple[complex, float]:
    """Coherent sum S = sum_n exp(i*phi_n) and its squared magnitude.

    |S|^2 is the interference enhancement kernel: it equals
    N + 2*sum_{n<m} cos(phi_n - phi_m) and ranges over [0, N^2].

    Returns
    -------
    (S, magnitude_sq) : tuple[complex, float]
    """
    arr = np.asarray(list(phases), dtype=float)
    if arr.size == 0:
        raise ValueError("phase list must not be empty")
    total = complex(np.exp(1j * arr).sum())
    return total, total.real ** 2 + total.imag ** 2


def make_linear_array(
    n_sources: int,
    spacing: float,
    wavelength: float,
    phase_profile=0.0,
) -> SourceArray:
    """Equally spaced sources on the x axis, centered on the origin.

    ``phase_profile`` is either a constant applied to every source or a
    sequence of per-source phases. A single source sits exactly at the
    origin regardless of spacing.
    """
    n_sources = _integer(n_sources, "n_sources")
    if n_sources < 1:
        raise ValueError("n_sources must be at least 1")
    # peak: the offsets, positions and phases (8 + 24 + 8 bytes per source),
    # SourceArray's read-only copies of the positions and phases (24 + 8),
    # and a call's array headers and objects (1.0-1.3 KB measured)
    _check_budget(72 * n_sources + 2048, f"linear array of {n_sources} sources")
    _check_positive(spacing, "spacing")
    _check_positive(wavelength, "wavelength")
    offsets = (np.arange(n_sources) - (n_sources - 1) / 2.0) * spacing
    positions = np.zeros((n_sources, 3))
    positions[:, 0] = offsets
    if np.isscalar(phase_profile):
        phases = np.full(n_sources, float(phase_profile))
    else:
        phases = np.asarray(list(phase_profile), dtype=float)
        if phases.shape != (n_sources,):
            raise ValueError(
                f"phase_profile has {phases.size} entries for {n_sources} sources"
            )
    return SourceArray(positions, phases, wavelength, spacing)
