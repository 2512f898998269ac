"""Deterministic parameter sweeps, scaling fits, and resonance detection.

Every randomized draw comes from the xorshift64* generator defined here,
so runs are reproducible bit-for-bit from the seed alone, in any
implementation language. Sweep points are independent pure evaluations
assembled in parameter order; nothing depends on evaluation timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, classical, quantum
from .core import (
    TWO_PI,
    BoxVolume,
    ConfigError,
    MissingSettingError,
    PhasedWaveSet,
    SourceArray,
    WaveMode,
    _check_budget,
    _check_wave_budget,
    _swept,
    make_linear_array,
)
from .classical import DetectorGrid, SpectrumCurve, _check_sweep_budget, farfield_powers
from .multimode import WavepacketSpectrum, wavepacket_energy


class XorShift64Star:
    """xorshift64* pseudo-random stream.

    state' = state ^ (state >> 12); state' ^= state' << 25 (mod 2^64);
    state' ^= state' >> 27; output = state' * 0x2545F4914F6CDD1D mod 2^64.
    Doubles take the top 53 bits of the output. A zero seed (invalid for
    xorshift state) is remapped to 0x9E3779B97F4A7C15.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D
    SEED_FALLBACK = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0):
        state = int(seed) & self._MASK
        self._state = state if state != 0 else self.SEED_FALLBACK

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & self._MASK
        x ^= x >> 27
        self._state = x
        return (x * self.MULTIPLIER) & self._MASK

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def phases(self, count: int) -> np.ndarray:
        """Next ``count`` phases uniform in [0, 2*pi)."""
        return np.array([self.uniform() * TWO_PI for _ in range(count)])


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a 1-D parameter sweep.

    ``target`` picks the observable, ``parameter`` the swept knob, and
    ``fixed`` everything else the target needs. See run_sweep for the
    supported target x parameter matrix and the fixed keys per target.
    """

    target: str
    parameter: str
    start: float
    stop: float
    steps: int
    fixed: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.steps < 2:
            raise ConfigError("sweep needs at least 2 steps")
        if not self.start < self.stop:
            raise ConfigError("sweep range must satisfy start < stop")
        object.__setattr__(self, "fixed", dict(self.fixed))


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit energy ~ N^exponent on log-log axes."""

    exponent: float
    r_squared: float
    points: tuple

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")


_SUPPORTED = {
    "classical_energy": ("phase_delta", "source_count"),
    "quantum_energy": ("phase_delta", "source_count"),
    "farfield_power": ("wavelength", "spacing", "source_count", "phase_delta"),
    "biphoton": ("phase_delta",),
    "wavepacket": ("phase_delta",),
}


def _require(fixed: dict, keys: tuple, target: str):
    missing = [key for key in keys if key not in fixed]
    if missing:
        raise MissingSettingError(
            f"target {target!r} is missing fixed settings: {', '.join(missing)}"
        )


def _default_mode() -> WaveMode:
    return WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))


def _ramp(n: int, delta: float) -> np.ndarray:
    _check_wave_budget(n)
    return np.arange(n) * delta


def _sweep_phase_profile(fixed: dict, n: int, stream: XorShift64Star) -> np.ndarray:
    _check_wave_budget(n)
    profile = fixed.get("phase_profile", "uniform")
    if profile == "uniform":
        return np.full(n, float(fixed.get("phase", 0.0)))
    if profile == "random":
        return stream.phases(n)
    raise ConfigError(f"unknown phase_profile {profile!r} (use 'uniform' or 'random')")


def run_sweep(spec: SweepSpec) -> SpectrumCurve:
    """Evaluate a sweep and return its curve with full metadata attached.

    Supported combinations (anything else raises ConfigError):

    - classical_energy x phase_delta: N waves with the progressive ramp
      phi_n = n * delta. fixed: n_waves.
    - classical_energy x source_count: integer N sweep. fixed optional:
      phase (constant) or phase_profile='random'.
    - quantum_energy x {phase_delta, source_count}: same phase handling,
      expectation on a number state. fixed: n_waves (for phase_delta);
      optional n (occupation, default 0), n_max, omega.
    - farfield_power x {wavelength, spacing, source_count, phase_delta}:
      linear array, arc detector by default. fixed: the two of
      (n_sources, spacing, wavelength) not being swept; optional geometry,
      samples, radius (default: far-field minimum over the swept arrays),
      phase or phase_profile (phase_delta sweeps use the ramp instead).
    - biphoton x phase_delta: fixed: overlap; optional omega.
    - wavepacket x phase_delta: the delta replaces the phase of one
      component. fixed: components, box_lengths; optional direction,
      component (index, default last).

    The power column carries the raw observable (energy, expectation, or
    detected power); enhancement is its uncorrelated-reference ratio.
    """
    if spec.target not in _SUPPORTED:
        raise ConfigError(
            f"unknown sweep target {spec.target!r}; expected one of {sorted(_SUPPORTED)}"
        )
    if spec.parameter not in _SUPPORTED[spec.target]:
        raise ConfigError(
            f"target {spec.target!r} cannot sweep {spec.parameter!r};"
            f" supported: {', '.join(_SUPPORTED[spec.target])}"
        )
    # seven float64 columns: values, power, enhancement, linspace's
    # temporary and the curve's read-only copies of the first three
    _check_budget(56 * spec.steps, f"sweep of {spec.steps} steps")
    values = np.linspace(spec.start, spec.stop, spec.steps)
    runner = {
        "classical_energy": _sweep_closed_form,
        "quantum_energy": _sweep_closed_form,
        "farfield_power": _sweep_farfield,
        "biphoton": _sweep_biphoton,
        "wavepacket": _sweep_wavepacket,
    }[spec.target]
    power, enhancement = runner(spec, values)
    meta = {
        "target": spec.target,
        "parameter": spec.parameter,
        "start": spec.start,
        "stop": spec.stop,
        "steps": spec.steps,
        "seed": spec.seed,
        "version": __version__,
    }
    for key in sorted(spec.fixed):
        meta[f"fixed.{key}"] = _meta_scalar(spec.fixed[key])
    return SpectrumCurve(values, power, enhancement, meta)


def _meta_scalar(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(str(item) for item in np.asarray(value).ravel())
    return value


def _closed_form_observables(spec: SweepSpec, phases) -> tuple[float, float]:
    if spec.target == "classical_energy":
        report = classical.classical_energy(PhasedWaveSet(_default_mode(), tuple(phases)))
        return report.total, report.enhancement
    occupation = int(spec.fixed.get("n", 0))
    omega = float(spec.fixed.get("omega", 1.0))
    n_max = int(spec.fixed.get("n_max", max(occupation + 1, 8)))
    space = quantum.FockSpace(n_max=n_max)
    operator = quantum.single_mode_hamiltonian(phases, omega, space)
    state = quantum.QuantumState.fock(space, occupation)
    energy = quantum.expectation_energy(state, operator)
    reference = len(list(phases)) * omega * (occupation + 0.5)
    return energy, energy / reference


def _sweep_closed_form(spec: SweepSpec, values: np.ndarray):
    stream = XorShift64Star(spec.seed)
    power = np.empty(values.size)
    enhancement = np.empty(values.size)
    if spec.parameter == "phase_delta":
        _require(spec.fixed, ("n_waves",), spec.target)
        n = int(spec.fixed["n_waves"])
        for i, delta in enumerate(values):
            power[i], enhancement[i] = _closed_form_observables(spec, _ramp(n, float(delta)))
    else:
        for i, value in enumerate(values):
            n = int(round(value))
            if n < 1:
                raise ConfigError("source_count sweep values must round to N >= 1")
            phases = _sweep_phase_profile(spec.fixed, n, stream)
            power[i], enhancement[i] = _closed_form_observables(spec, phases)
    return power, enhancement


def _sweep_farfield(spec: SweepSpec, values: np.ndarray):
    fixed = spec.fixed
    stream = XorShift64Star(spec.seed)
    needed = {
        "wavelength": ("n_sources", "spacing"),
        "spacing": ("n_sources", "wavelength"),
        "source_count": ("spacing", "wavelength"),
        "phase_delta": ("n_sources", "spacing", "wavelength"),
    }[spec.parameter]
    _require(fixed, needed, spec.target)
    # values ascend, so a source-count sweep's last array is its largest
    largest = int(fixed["n_sources"]) if "n_sources" in needed else int(round(values[-1]))
    _check_sweep_budget(values.size, largest, spec.parameter)

    arrays = []
    for value in values:
        n = int(round(value)) if spec.parameter == "source_count" else int(fixed["n_sources"])
        spacing = float(value) if spec.parameter == "spacing" else float(fixed["spacing"])
        wavelength = float(value) if spec.parameter == "wavelength" else float(fixed["wavelength"])
        if spec.parameter == "phase_delta":
            profile = _ramp(n, float(value))
        else:
            profile = _sweep_phase_profile(fixed, n, stream)
        if arrays and spec.parameter in ("wavelength", "phase_delta"):
            # the positions hold still: reuse the first step's validated array
            arrays.append(_swept(arrays[0], wavelength, profile))
        else:
            arrays.append(make_linear_array(n, spacing, wavelength, profile))

    # one detector serves the whole sweep: size it for the worst case
    radius = fixed.get("radius")
    if radius is None:
        radius = classical.FAR_FIELD_FACTOR * max(
            max(array.wavelength, array.extent) for array in arrays
        )
    detector = DetectorGrid(
        radius=float(radius),
        geometry=fixed.get("geometry", "arc"),
        samples=int(fixed.get("samples", 1024)),
    )
    return farfield_powers(arrays, detector)


def _sweep_biphoton(spec: SweepSpec, values: np.ndarray):
    _require(spec.fixed, ("overlap",), spec.target)
    overlap = complex(spec.fixed["overlap"])
    omega = float(spec.fixed.get("omega", 1.0))
    power = np.array(
        [quantum.biphoton_energy(float(v), overlap, omega) for v in values]
    )
    return power, power / (2.0 * omega)


def _sweep_wavepacket(spec: SweepSpec, values: np.ndarray):
    _require(spec.fixed, ("components", "box_lengths"), spec.target)
    direction = np.asarray(spec.fixed.get("direction", (1.0, 0.0, 0.0)), dtype=float)
    box = BoxVolume(np.asarray(spec.fixed["box_lengths"], dtype=float))
    base = [tuple(component) for component in spec.fixed["components"]]
    index = int(spec.fixed.get("component", len(base) - 1))
    if not 0 <= index < len(base):
        raise ConfigError(f"component index {index} outside 0..{len(base) - 1}")
    power = np.empty(values.size)
    enhancement = np.empty(values.size)
    for i, delta in enumerate(values):
        components = list(base)
        wavenumber, amplitude, _ = components[index]
        components[index] = (wavenumber, amplitude, float(delta))
        report = wavepacket_energy(WavepacketSpectrum(direction, tuple(components), box))
        power[i] = report.total
        enhancement[i] = report.enhancement
    return power, enhancement


def dicke_scaling_check(
    n_values,
    regime: str = "closed_form",
    spacing_ratio: float = 0.01,
    detector_samples: int = 1024,
    jitter: float = 0.0,
    seed: int = 0,
) -> ScalingFit:
    """Fit the source-count scaling exponent of the collective energy.

    regime "closed_form": uniform-phase closed-form energy, which scales
    exactly as N^2. regime "farfield": detected far-field power of a
    linear array with spacing = spacing_ratio * wavelength; deep in the
    subwavelength regime the exponent stays within [1.9, 2.0], while
    spacings well above the wavelength destroy the collective scaling.

    ``jitter`` displaces each source by up to +-jitter * spacing along the
    array axis (xorshift-seeded), to show the scaling does not rely on
    exact periodicity; it must be finite and nonnegative.
    """
    ns = sorted({int(n) for n in n_values})
    if len(ns) < 3:
        raise ValueError("need at least three distinct N values")
    if any(n < 1 for n in ns):
        raise ValueError("N values must be positive")
    if regime not in ("closed_form", "farfield"):
        raise ValueError(f"regime must be 'closed_form' or 'farfield', got {regime!r}")
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise ValueError("jitter must be nonnegative and finite")

    stream = XorShift64Star(seed)
    energies = []
    if regime == "closed_form":
        mode = _default_mode()
        _check_wave_budget(ns[-1])
        for n in ns:
            energies.append(classical.classical_energy(PhasedWaveSet(mode, (0.0,) * n)).total)
    else:
        wavelength = 1.0
        spacing = spacing_ratio * wavelength
        max_extent = (ns[-1] - 1) * spacing * (1.0 + 2.0 * jitter)
        radius = classical.FAR_FIELD_FACTOR * max(wavelength, max_extent)
        detector = DetectorGrid(radius=radius, geometry="arc", samples=detector_samples)
        arrays = []
        for n in ns:
            array = make_linear_array(n, spacing, wavelength)
            if jitter > 0.0:
                positions = array.positions.copy()
                offsets = np.array(
                    [(2.0 * stream.uniform() - 1.0) * jitter * spacing for _ in range(n)]
                )
                positions[:, 0] += offsets
                array = SourceArray(positions, array.phases, wavelength, None)
            arrays.append(array)
        energies, _ = farfield_powers(arrays, detector)

    log_n = np.log(np.asarray(ns, dtype=float))
    log_e = np.log(np.asarray(energies))
    slope, intercept = np.polyfit(log_n, log_e, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((log_e - predicted) ** 2).sum())
    ss_tot = float(((log_e - log_e.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    points = tuple((n, float(e)) for n, e in zip(ns, energies))
    return ScalingFit(float(slope), min(max(r_squared, 0.0), 1.0), points)


def find_resonances(curve: SpectrumCurve) -> list[tuple[float, float]]:
    """Detect interior enhancement peaks in a swept curve.

    A resonance is a local maximum that strictly exceeds both neighbors
    and exceeds 1.05x the curve's global minimum. A flat-topped peak is
    reported once, at its smallest parameter value. Results are sorted by
    parameter.
    """
    enhancement = curve.enhancement
    parameter = curve.parameter
    count = enhancement.size
    if count < 3:
        return []
    threshold = 1.05 * float(enhancement.min())
    peaks: list[tuple[float, float]] = []
    i = 1
    while i < count - 1:
        if enhancement[i] > enhancement[i - 1]:
            j = i
            while j + 1 < count and enhancement[j + 1] == enhancement[i]:
                j += 1
            if j < count - 1 and enhancement[j + 1] < enhancement[i] and enhancement[i] > threshold:
                peaks.append((float(parameter[i]), float(enhancement[i])))
            i = j + 1
        else:
            i += 1
    return peaks
