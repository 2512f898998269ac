"""Shared value types and the phase-sum kernel.

Everything in this module is an immutable value object; instances can be
shared freely across threads or worker processes. Natural units are fixed:
c = 1 throughout and hbar = 1 in the quantum modules. The CLI's output-only
energy scale is the one conversion to physical units.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

_VEC_TOL = 1e-9

# bytes one request may hold at its peak; each route that builds a large
# array checks its own count against it before allocating
MEMORY_BUDGET_BYTES = 1 << 30

# peak bytes per wave of the closed-form route: the phase tuple and
# PhasedWaveSet's reduced copy (a float object per entry) and phase_sum's
# arrays; measured with tracemalloc at 80 bytes per wave
_WAVE_BYTES = 80

# source pairs per block of SourceArray's distinctness check and extent:
# 32 bytes of temporaries per pair, so ~2 MB per block
_PAIR_BLOCK = 1 << 16


class FarFieldViolationError(ValueError):
    """A detector is too close to the array for far-field formulas to hold."""


class ConfigError(Exception):
    """A sweep or CLI configuration is incomplete or inconsistent."""


class MissingSettingError(ConfigError):
    """A sweep target lacks a setting it requires."""


def _vec3(value, name: str) -> np.ndarray:
    # a copy, so freezing it never freezes the caller's array
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _check_budget(needed: int, request: str):
    """Refuse ``request`` (a description naming its size) if it needs more
    than MEMORY_BUDGET_BYTES."""
    if needed > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{request} needs {needed} bytes, over the budget of {MEMORY_BUDGET_BYTES} bytes"
        )


def _check_wave_budget(n_waves: int):
    """Refuse a set of ``n_waves`` phases before it is built."""
    _check_budget(_WAVE_BYTES * n_waves, f"phase set of {n_waves} waves")


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
        Propagation vector k.
    omega : float
        Angular frequency; must equal ``|k|`` (c = 1).
    amplitude : complex
        Complex amplitude of the analytic-signal part of the vector
        potential.
    polarization : array_like, shape (3,)
        Real unit vector orthogonal to ``wavevector``.
    """

    wavevector: np.ndarray
    omega: float
    amplitude: complex
    polarization: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "wavevector", _vec3(self.wavevector, "wavevector"))
        object.__setattr__(self, "polarization", _vec3(self.polarization, "polarization"))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not cmath.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("omega must be positive and finite")
        k_norm = float(np.linalg.norm(self.wavevector))
        if k_norm <= 0.0:
            raise ValueError("wavevector must be nonzero")
        if abs(self.omega - k_norm) > _VEC_TOL * self.omega:
            raise ValueError(f"omega={self.omega} inconsistent with |k|={k_norm}")
        if abs(float(np.dot(self.polarization, self.wavevector))) > _VEC_TOL * k_norm:
            raise ValueError("polarization must be orthogonal to wavevector")
        if abs(float(np.linalg.norm(self.polarization)) - 1.0) > _VEC_TOL:
            raise ValueError("polarization must be a unit vector")

    @classmethod
    def plane(cls, wavevector, amplitude=1.0) -> "WaveMode":
        """Build a plane mode, deriving omega and a transverse polarization."""
        k = _vec3(wavevector, "wavevector")
        return cls(k, float(np.linalg.norm(k)), amplitude, _default_polarization(k))

    @property
    def wavenumber(self) -> float:
        return float(np.linalg.norm(self.wavevector))

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.wavenumber


def _default_polarization(k: np.ndarray) -> np.ndarray:
    k_hat = k / np.linalg.norm(k)
    trial = np.array([0.0, 1.0, 0.0])
    if abs(float(np.dot(k_hat, trial))) > 0.9:
        trial = np.array([0.0, 0.0, 1.0])
    pol = trial - float(np.dot(trial, k_hat)) * k_hat
    return pol / np.linalg.norm(pol)


@dataclass(frozen=True)
class PhasedWaveSet:
    """N copies of one mode, distinguished only by their phase offsets.

    Phases are reduced mod 2*pi at construction and stored as a tuple.
    """

    mode: WaveMode
    phases: tuple = ()

    def __post_init__(self):
        if len(self.phases) < 1:
            raise ValueError("a wave set needs at least one phase")
        object.__setattr__(self, "phases", tuple(reduce_phase(p) for p in self.phases))

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
        _check_wavelength(self.wavelength)
        if self.spacing is not None and not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("spacing must be positive and finite")
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


def _check_wavelength(wavelength: float):
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError("wavelength must be positive and finite")


def _swept(array: SourceArray, wavelength: float | None = None, phases=None) -> SourceArray:
    """``array`` with a new wavelength and/or new phases, equal to what
    SourceArray would build from them. The positions and extent are
    already validated and are reused, so a sweep step checks only the
    values it changes."""
    step = copy.copy(array)
    if wavelength is not None:
        _check_wavelength(wavelength)
        object.__setattr__(step, "wavelength", wavelength)
    if phases is not None:
        object.__setattr__(step, "phases", _checked_phases(phases, array.n_sources))
    return step


def _checked_extent(pos: np.ndarray) -> float:
    """Largest pairwise distance of the (N, 3) positions; raises ValueError
    unless they are distinct.

    Sources in ascending order on the x axis (every linear array) take an
    O(N) path: the positive gaps prove them distinct, and the extent is the
    end-to-end gap, bit-equal to the pairwise maximum because rounding is
    monotone and sqrt(x*x) == |x|. Any other layout builds rows of the
    distance table a block at a time, so memory is O(N) rather than O(N^2).
    """
    x = pos[:, 0]
    if not pos[:, 1:].any() and np.all(x[1:] > x[:-1]):
        return float(x[-1] - x[0])
    n = pos.shape[0]
    rows = max(1, _PAIR_BLOCK // n)
    extent = 0.0
    for start in range(0, n, rows):
        diff = pos[start:start + rows, None, :] - pos[None, :, :]
        np.square(diff, out=diff)
        dist = np.sqrt(diff.sum(axis=2))
        extent = max(extent, float(dist.max()))
        # a source's distance to itself is the one zero allowed
        dist[np.arange(dist.shape[0]), np.arange(start, start + dist.shape[0])] = np.inf
        if dist.min() <= 0.0:
            raise ValueError("source positions must be distinct")
    return extent


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

    ``enhancement`` is the ratio of the total to the uncorrelated energy
    (N times the single-wave unit, which equals ``diagonal``); it lies in
    [0, N] for N equal-amplitude waves.
    """

    diagonal: float
    cross: float
    total: float
    enhancement: float

    @classmethod
    def from_parts(cls, diagonal: float, cross: float) -> "EnergyReport":
        if not (math.isfinite(diagonal) and diagonal > 0.0):
            raise ValueError("diagonal energy must be positive and finite")
        if not math.isfinite(cross):
            raise ValueError("cross energy must be finite")
        total = diagonal + cross
        # rounding may leave a tiny negative; anything worse is a real bug
        if total < -1e-9 * diagonal:
            raise ValueError(f"total energy {total} is negative beyond tolerance")
        return cls(diagonal, cross, total, total / diagonal)


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
    if n_sources < 1:
        raise ValueError("n_sources must be at least 1")
    # peak: the offsets, positions and phases (8 + 24 + 8 bytes per source)
    _check_budget(40 * n_sources, f"linear array of {n_sources} sources")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError("spacing must be positive and finite")
    _check_wavelength(wavelength)
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
