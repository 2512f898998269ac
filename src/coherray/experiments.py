"""Deterministic parameter sweeps and scaling fits.

Every randomized draw comes from the xorshift64* generator defined here,
so runs are reproducible bit-for-bit from the seed alone, in any
implementation language. Sweep points are independent pure evaluations
assembled in parameter order; nothing depends on evaluation timing.

``_SWEEPS`` maps each (target, parameter) pair to its runner and fixed
keys; it, ``PHASE_PROFILES`` and ``REGIMES`` are the CLI's choice lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    _check_positive,
    _check_wave_budget,
    _finite,
    _integer,
    _one_of,
    _swept,
    make_linear_array,
)
from .classical import DetectorGrid, SpectrumCurve, farfield_powers
from .multimode import WavepacketSpectrum, wavepacket_energy


class XorShift64Star:
    """xorshift64* pseudo-random stream.

    state' = state ^ (state >> 12); state' ^= state' << 25 (mod 2^64);
    state' ^= state' >> 27; output = state' * 0x2545F4914F6CDD1D mod 2^64.
    Doubles take the top 53 bits of the output. An integer seed of zero
    (invalid xorshift state) is remapped to 0x9E3779B97F4A7C15.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D
    SEED_FALLBACK = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0):
        state = _integer(seed, "seed") & self._MASK
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
    ``fixed`` everything else the target needs. ``_SWEEPS`` lists the
    supported target x parameter pairs, their runners and fixed keys.
    ``steps`` is an integer (TypeError otherwise) of at least 2, and the
    range is finite with start < stop (ConfigError otherwise).
    """

    target: str
    parameter: str
    start: float
    stop: float
    steps: int
    fixed: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "steps", _integer(self.steps, "steps"))
        if self.steps < 2:
            raise ConfigError("sweep needs at least 2 steps")
        if not (_finite(self.start, "start") and _finite(self.stop, "stop")):
            raise ConfigError("sweep range must be finite")
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


# the phase profiles of source_count sweeps and the regimes of
# dicke_scaling_check; the first of each is the default
PHASE_PROFILES = ("uniform", "random")
REGIMES = ("closed_form", "farfield")


def _sweep_phase_profile(fixed: dict, n: int, stream: XorShift64Star) -> np.ndarray:
    profile = fixed.get("phase_profile", PHASE_PROFILES[0])
    if profile not in PHASE_PROFILES:
        choices = _one_of(map(repr, PHASE_PROFILES))
        raise ConfigError(f"unknown phase_profile {profile!r} (use {choices})")
    if profile == "random":
        return stream.phases(n)
    return np.full(n, float(fixed.get("phase", 0.0)))


def _count(fixed: dict, key: str, default=None) -> int:
    """The integer fixed setting ``key``, ``default`` when it is unset."""
    return _integer(fixed.get(key, default), f"fixed setting {key!r}")


def _occupation(fixed: dict) -> tuple[int, int]:
    """A quantum sweep's occupation n and truncation n_max (default: room
    for n, and at least 8)."""
    occupation = _count(fixed, "n", 0)
    return occupation, _count(fixed, "n_max", max(occupation + 1, 8))


def _closed_form_observables(spec: SweepSpec, phases) -> tuple[float, float]:
    if spec.target == "classical_energy":
        mode = WaveMode.plane(np.array([TWO_PI, 0.0, 0.0]))
        report = classical.classical_energy(PhasedWaveSet(mode, tuple(phases)))
        return report.total, report.enhancement
    occupation, n_max = _occupation(spec.fixed)
    omega = float(spec.fixed.get("omega", 1.0))
    space = quantum.FockSpace(n_max=n_max)
    operator = quantum.single_mode_hamiltonian(phases, omega, space)
    state = quantum.QuantumState.fock(space, occupation)
    energy = quantum.expectation_energy(state, operator)
    reference = len(list(phases)) * omega * (occupation + 0.5)
    return energy, energy / reference


def _steps(spec: SweepSpec, values: np.ndarray, count_key: str):
    """The steps' wave counts, an iterator that draws their phases in step
    order, so the caller can refuse the counts before any is built, and the
    seeded stream it draws from (None for a ramp). A source_count sweep
    rounds its values (ConfigError unless the first is at least 1), any
    other holds the fixed ``count_key``; a phase_delta sweep takes its ramp,
    any other its phase profile from the stream."""
    if spec.parameter == "source_count":
        counts = [int(round(value)) for value in values]
        # values ascend, so the first step has the fewest waves
        if counts[0] < 1:
            raise ConfigError("source_count sweep values must round to N >= 1")
    else:
        counts = [_count(spec.fixed, count_key)] * values.size
    if spec.parameter == "phase_delta":
        return counts, (np.arange(n) * float(value) for value, n in zip(values, counts)), None
    stream = XorShift64Star(spec.seed)
    return counts, (_sweep_phase_profile(spec.fixed, n, stream) for n in counts), stream


def _sweep_closed_form(spec: SweepSpec, values: np.ndarray):
    counts, phase_sets, _ = _steps(spec, values, "n_waves")
    # the largest step's phases are refused for their memory before any work
    _check_wave_budget(counts[-1])
    if spec.target == "quantum_energy":
        occupation, n_max = _occupation(spec.fixed)
        if not 0 <= occupation <= n_max:
            raise ConfigError(f"occupation n = {occupation} outside 0..n-max = {n_max}")
        # every step builds a Hamiltonian: charge all their wave pairs at once
        quantum._check_pair_work(
            counts, f"quantum sweep of {values.size} steps x up to {counts[-1]} waves"
        )
    power = np.empty(values.size)
    enhancement = np.empty(values.size)
    for i, phases in enumerate(phase_sets):
        power[i], enhancement[i] = _closed_form_observables(spec, phases)
    return power, enhancement


def _sweep_farfield(spec: SweepSpec, values: np.ndarray):
    fixed = spec.fixed
    counts, phase_sets, stream = _steps(spec, values, "n_sources")
    # one detector serves the whole sweep, which is checked on its steps
    # before any is built; without a radius it is sized for the worst case
    radius = fixed.get("radius")
    detector = DetectorGrid(
        radius=1.0 if radius is None else float(radius),
        geometry=fixed.get("geometry", classical.DRIVER_GEOMETRY),
        samples=_count(fixed, "samples", classical.DRIVER_SAMPLES),
    )
    # only the dicke fit jitters its arrays: _SWEEPS hands no sweep a jitter
    jitter = fixed.get("jitter", 0.0)
    # consecutive steps of one spacing and count share positions (the fit's
    # counts, the only jittered ones, are distinct); a wavelength step is a
    # run of its own, any other a phase set of its positions group's run
    keys = values if spec.parameter == "spacing" else counts
    starts = [i for i in range(values.size) if i == 0 or keys[i] != keys[i - 1]]
    classical._check_farfield_sweep(detector, [
        (counts[i], [1] * (stop - i) if spec.parameter == "wavelength" else [stop - i])
        for i, stop in zip(starts, [*starts[1:], values.size])])
    arrays = []
    for i, (value, n, profile) in enumerate(zip(values, counts, phase_sets)):
        spacing = float(value) if spec.parameter == "spacing" else float(fixed["spacing"])
        wavelength = float(value) if spec.parameter == "wavelength" else float(fixed["wavelength"])
        if i and keys[i] == keys[i - 1]:
            # the positions hold still: reuse the previous step's validated array
            arrays.append(_swept(arrays[-1], wavelength, profile))
            continue
        array = make_linear_array(n, spacing, wavelength, profile)
        if jitter > 0.0:
            # up to +-jitter * spacing along the axis, drawn after the phases
            positions = array.positions.copy()
            positions[:, 0] += [(2.0 * stream.uniform() - 1.0) * jitter * spacing for _ in range(n)]
            array = SourceArray(positions, array.phases, wavelength, None)
        arrays.append(array)

    if radius is None:
        radius = max(classical._far_field_radius(a.wavelength, a.extent) for a in arrays)
        detector = replace(detector, radius=radius)
    return farfield_powers(arrays, detector)


def _sweep_biphoton(spec: SweepSpec, values: np.ndarray):
    overlap = complex(spec.fixed["overlap"])
    omega = float(spec.fixed.get("omega", 1.0))
    power = np.array(
        [quantum.biphoton_energy(float(v), overlap, omega) for v in values]
    )
    return power, power / (2.0 * omega)


def _sweep_wavepacket(spec: SweepSpec, values: np.ndarray):
    direction = np.asarray(spec.fixed.get("direction", (1.0, 0.0, 0.0)), dtype=float)
    box = BoxVolume(np.asarray(spec.fixed["box_lengths"], dtype=float))
    base = [tuple(component) for component in spec.fixed["components"]]
    index = _count(spec.fixed, "component", len(base) - 1)
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


# (target, parameter) -> (runner, required fixed keys, optional fixed keys);
# run_sweep hands the runner only these keys and echoes only them
_PROFILE = ("phase", "phase_profile")
_QUANTUM = ("n", "n_max", "omega")
_DETECTOR = ("geometry", "samples", "radius")
_FARFIELD = _DETECTOR + _PROFILE
_REAL_KEYS = ("phase", "omega", "spacing", "wavelength", "radius")
_SWEEPS = {
    ("classical_energy", "phase_delta"): (_sweep_closed_form, ("n_waves",), ()),
    ("classical_energy", "source_count"): (_sweep_closed_form, (), _PROFILE),
    ("quantum_energy", "phase_delta"): (_sweep_closed_form, ("n_waves",), _QUANTUM),
    ("quantum_energy", "source_count"): (_sweep_closed_form, (), _PROFILE + _QUANTUM),
    ("farfield_power", "wavelength"): (_sweep_farfield, ("n_sources", "spacing"), _FARFIELD),
    ("farfield_power", "spacing"): (_sweep_farfield, ("n_sources", "wavelength"), _FARFIELD),
    ("farfield_power", "source_count"): (_sweep_farfield, ("spacing", "wavelength"), _FARFIELD),
    # a phase sweep sets the phases by its ramp
    ("farfield_power", "phase_delta"): (
        _sweep_farfield, ("n_sources", "spacing", "wavelength"), _DETECTOR),
    ("biphoton", "phase_delta"): (_sweep_biphoton, ("overlap",), ("omega",)),
    ("wavepacket", "phase_delta"): (
        _sweep_wavepacket, ("components", "box_lengths"), ("direction", "component")),
}


def run_sweep(spec: SweepSpec) -> SpectrumCurve:
    """Evaluate a sweep and return its curve with full metadata attached.

    ``_SWEEPS`` lists each supported (target, parameter) pair with its
    runner, the fixed keys it requires and the optional ones it reads;
    any other pair raises ConfigError, a missing key MissingSettingError, a
    _REAL_KEYS value that is not a real number TypeError. The runner sees
    only those keys, and only they are echoed as ``fixed.*``.

    - classical_energy / quantum_energy / farfield_power: a phase_delta
      sweep uses the progressive ramp phi_n = n * delta; any other uses a
      constant phase or phase_profile='random'. A source_count sweep
      rounds its values to counts, the first at least 1 (see _steps).
      quantum_energy takes the expectation on the number state n (default 0).
    - farfield_power: a linear array seen by an arc detector by default;
      the radius defaults to the far-field minimum over the swept arrays.
      The sweep is checked against both budgets on the shape its walk will
      take, every step included (see classical._check_farfield_sweep),
      before any phase or array is built.
    - wavepacket: the delta replaces the phase of one component (default
      the last).

    The power column carries the raw observable (energy, expectation, or
    detected power); enhancement is its uncorrelated-reference ratio.
    """
    targets = {target for target, _ in _SWEEPS}
    if spec.target not in targets:
        raise ConfigError(
            f"unknown sweep target {spec.target!r}; expected one of {sorted(targets)}"
        )
    entry = _SWEEPS.get((spec.target, spec.parameter))
    if entry is None:
        supported = [parameter for target, parameter in _SWEEPS if target == spec.target]
        raise ConfigError(
            f"target {spec.target!r} cannot sweep {spec.parameter!r};"
            f" supported: {', '.join(supported)}"
        )
    # seven float64 columns: values, power, enhancement, linspace's
    # temporary and the curve's read-only copies of the first three
    _check_budget(56 * spec.steps, f"sweep of {spec.steps} steps")
    runner, required, optional = entry
    missing = [key for key in required if key not in spec.fixed]
    if missing:
        raise MissingSettingError(
            f"target {spec.target!r} is missing fixed settings: {', '.join(missing)}"
        )
    fixed = {key: value for key, value in spec.fixed.items() if key in required + optional}
    for key in _REAL_KEYS:
        if key in fixed:  # a number at all: each runner checks its range
            _finite(fixed[key], f"fixed setting {key!r}")
    values = np.linspace(spec.start, spec.stop, spec.steps)
    power, enhancement = runner(replace(spec, fixed=fixed), values)
    meta = {
        "target": spec.target,
        "parameter": spec.parameter,
        "start": spec.start,
        "stop": spec.stop,
        "steps": spec.steps,
        "seed": spec.seed,
        "version": __version__,
    }
    for key in sorted(fixed):
        meta[f"fixed.{key}"] = _meta_scalar(fixed[key])
    return SpectrumCurve(values, power, enhancement, meta)


def _meta_scalar(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(str(item) for item in np.asarray(value).ravel())
    return value


def dicke_scaling_check(
    n_values,
    regime: str = REGIMES[0],
    spacing_ratio: float = 0.01,
    detector_samples: int = classical.DRIVER_SAMPLES,
    jitter: float = 0.0,
    seed: int = 0,
) -> ScalingFit:
    """Fit the source-count scaling exponent of the collective energy.

    Each regime is the source_count sweep of the N values, in phase.
    regime "closed_form": closed-form energy, which scales exactly as N^2.
    regime "farfield": detected far-field power of a linear array with
    spacing = spacing_ratio * wavelength; deep in the subwavelength regime
    the exponent stays within [1.9, 2.0], while spacings well above the
    wavelength destroy the collective scaling.

    ``jitter`` displaces each source by up to +-jitter * spacing along the
    array axis (from the sweep's seeded stream), to show the scaling does
    not rely on exact periodicity; it must be finite and nonnegative. Raises
    TypeError for an N or detector_samples that is not an integer (a bool
    is not).
    """
    ns = sorted({_integer(n, "N value") for n in n_values})
    if len(ns) < 3:
        raise ValueError("need at least three distinct N values")
    if any(n < 1 for n in ns):
        raise ValueError("N values must be positive")
    if regime not in REGIMES:
        raise ValueError(f"regime must be {_one_of(map(repr, REGIMES))}, got {regime!r}")
    if not (_finite(jitter, "jitter") and jitter >= 0.0):
        raise ValueError("jitter must be nonnegative and finite")

    if regime == "closed_form":
        spec = SweepSpec("classical_energy", "source_count", ns[0], ns[-1], len(ns))
        energies, _ = _sweep_closed_form(spec, np.array(ns))
    else:
        _check_positive(spacing_ratio, "spacing_ratio")
        # the detector is far from the widest array, widened for its jitter
        extent = (ns[-1] - 1) * float(spacing_ratio) * (1.0 + 2.0 * jitter)
        fixed = dict(spacing=float(spacing_ratio), wavelength=1.0, jitter=jitter,
                     samples=_integer(detector_samples, "detector_samples"),
                     radius=classical._far_field_radius(1.0, extent))
        spec = SweepSpec("farfield_power", "source_count", ns[0], ns[-1], len(ns), fixed, seed)
        energies, _ = _sweep_farfield(spec, np.array(ns))

    log_n = np.log(np.asarray(ns, dtype=float))
    log_e = np.log(np.asarray(energies))
    slope, intercept = np.polyfit(log_n, log_e, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((log_e - predicted) ** 2).sum())
    ss_tot = float(((log_e - log_e.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    points = tuple((n, float(e)) for n, e in zip(ns, energies))
    return ScalingFit(float(slope), min(max(r_squared, 0.0), 1.0), points)
