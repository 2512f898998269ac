"""Seeded job decks for the four benchmark workloads.

A deck is one pass of jobs. Pass ``p`` of workload ``w`` under seed ``s``
is drawn from ``random.Random(f"{w}/{s}/{p}")``, so the same seed always
gives the same inputs, and every pass has fresh inputs (a memoizing cache
in the package cannot turn later passes into replays of the first).

Sizes are stratified: the ``m`` jobs of one kind in a pass take size
classes ``(i + 0.4 + 0.2 u) / m`` for ``i = 0..m-1`` with ``u`` uniform in
[0, 1), so every pass has the same mix of small and large jobs whatever
the seed, and the cost of a pass hardly depends on it. Jobs run in
ascending size class: with a seeded order, the allocator's state when the
largest job runs, and so the peak RSS, varied by up to 18% between seeds.
Passes of 25 jobs (15 for crosscheck) put the 50th and 90th latency
percentiles inside a size class rather than between two, where they
would jump. This module uses only the standard library: it never calls
coherray, not even its random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("farfield", "operators", "crosscheck", "small_jobs")


@dataclass
class Job:
    """One unit of timed work.

    A CLI job runs ``coherray.cli.main(argv)``; when ``config`` is set the
    runner writes that text to ``config_file`` before the pass and appends
    ``--config <config_file>``, and when ``output`` is set the job also
    passes ``--output <output>``. A library
    job (empty ``argv``) calls the package API named by ``kind``.
    ``params`` holds the inputs the output check needs; ``size`` is the
    job's stratified size class in [0, 1).
    """

    kind: str
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    config: str | None = None
    config_file: str | None = None
    output: str | None = None
    size: float = 0.0


def _num(value: float) -> str:
    return repr(float(value))


def _classes(rng: random.Random, count: int) -> list:
    return [(i + 0.4 + 0.2 * rng.random()) / count for i in range(count)]


def _int_between(lo: int, hi: int, fraction: float) -> int:
    return lo + int(round((hi - lo) * fraction))


def _phase_args(rng: random.Random, n: int, explicit: bool):
    """CLI phase flags plus the phase list the check recomputes from."""
    if explicit:
        phases = [round(rng.uniform(0.0, 2.0 * math.pi), 6) for _ in range(n)]
        return ["--phases", ",".join(_num(p) for p in phases)], phases
    delta = round(rng.uniform(0.0, 2.0 * math.pi), 6)
    return ["--delta-phi", _num(delta)], [k * delta for k in range(n)]


# ---------------------------------------------------------------- farfield


def _farfield(rng: random.Random) -> list:
    jobs = []
    # sparse arc spectra: spacing over wavelength runs from 2.5-5 down to
    # 0.3-0.7, crossing 1 and 2, so grating-lobe peaks exist
    for f in _classes(rng, 9):
        n = _int_between(3, 10, f)
        samples = _int_between(256, 2048, f)
        spacing = rng.uniform(1.5, 2.5)
        lo, hi = rng.uniform(0.5, 0.6), rng.uniform(3.5, 4.5)
        argv = (
            "spectrum", "--n-sources", str(n), "--spacing", _num(spacing),
            "--wavelength-min", _num(lo), "--wavelength-max", _num(hi),
            "--steps", "200", "--samples", str(samples),
        )
        jobs.append(Job("spectrum_arc", argv, {"n": n}, size=f))
    parameters = (("phase_delta", "wavelength", "spacing") * 5)[:14]
    for f, parameter in zip(_classes(rng, 14), rng.sample(parameters, len(parameters))):
        n = _int_between(3, 10, f)
        steps = _int_between(40, 120, f)
        samples = _int_between(256, 1024, f)
        argv = [
            "sweep", "--target", "farfield_power", "--parameter", parameter,
            "--n-sources", str(n), "--steps", str(steps), "--samples", str(samples),
            "--format", rng.choice(("csv", "json")),
        ]
        if parameter == "phase_delta":
            start, stop = -math.pi * rng.uniform(0.5, 1.0), math.pi * rng.uniform(0.5, 1.0)
            argv += ["--spacing", _num(rng.uniform(0.3, 2.5)), "--wavelength", _num(rng.uniform(0.8, 1.2))]
        elif parameter == "wavelength":
            start, stop = rng.uniform(0.5, 0.8), rng.uniform(2.0, 3.0)
            argv += ["--spacing", _num(rng.uniform(1.5, 2.5))]
        else:
            start, stop = rng.uniform(0.2, 0.5), rng.uniform(2.0, 3.0)
            argv += ["--wavelength", _num(rng.uniform(0.8, 1.2))]
        argv += [f"--start={_num(start)}", f"--stop={_num(stop)}", "--phase", _num(rng.uniform(0.0, 6.0))]
        jobs.append(Job("sweep_farfield", tuple(argv), {"n": n}, size=f))
    # hemisphere spectra set the intensity-tensor peak (the larger class
    # is N ~ 50 at ~ 176^2 detector points); extents of 0.3-4 wavelengths
    # keep the midpoint quadrature within 4e-4 of the sinc identity
    for f in _classes(rng, 2):
        n = _int_between(8, 64, f)
        samples = _int_between(128, 192, f)
        spacing = rng.uniform(0.3, 4.0) / (n - 1)
        lo, hi = rng.uniform(0.7, 0.8), rng.uniform(1.2, 1.4)
        argv = (
            "spectrum", "--geometry", "hemisphere", "--n-sources", str(n),
            "--spacing", _num(spacing), "--wavelength-min", _num(lo),
            "--wavelength-max", _num(hi), "--steps", "3", "--samples", str(samples),
            "--format", "json",
        )
        jobs.append(Job("spectrum_hemisphere", argv, {"n": n, "spacing": spacing}, size=f))
    return jobs


# --------------------------------------------------------------- operators

_CONVENTIONS = ("canonical", "phased-plus", "phased-minus")


def _unit_disk(rng: random.Random) -> complex:
    radius = math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(radius * math.cos(angle), radius * math.sin(angle))


def _operators(rng: random.Random) -> list:
    jobs = []
    conventions = rng.sample(_CONVENTIONS * 5, 15)
    for i, (f, convention) in enumerate(zip(_classes(rng, 15), conventions)):
        n_max = _int_between(64, 384, f)
        n_waves = _int_between(2, 16, f)
        occupation = rng.randint(0, n_max)
        omega = rng.uniform(0.5, 2.0)
        phase_args, phases = _phase_args(rng, n_waves, explicit=i % 2 == 0)
        argv = (
            "quantum", "--n-waves", str(n_waves), *phase_args, "--n", str(occupation),
            "--omega", _num(omega), "--convention", convention, "--n-max", str(n_max),
            "--format", ("csv", "json")[i % 2],
        )
        params = {
            "phases": phases, "n": occupation, "omega": omega,
            "convention": convention, "scale": 1.0,
        }
        jobs.append(Job("quantum", argv, params, size=f))
    for f in _classes(rng, 4):
        stop = _int_between(4, 16, f)
        n_max = _int_between(64, 256, f)
        occupation = rng.randint(0, n_max)
        argv = (
            "sweep", "--target", "quantum_energy", "--parameter", "source_count",
            "--start", "1", "--stop", str(stop), "--steps", str(stop),
            "--n", str(occupation), "--n-max", str(n_max),
            "--phase", _num(rng.uniform(0.0, 6.0)),
        )
        jobs.append(Job("sweep_quantum", argv, {"n": occupation, "omega": 1.0}, size=f))
    for f in _classes(rng, 6):
        lengths = [rng.uniform(0.5, 2.0) for _ in range(3)]
        k1 = [2.0 * math.pi / rng.uniform(0.5, 2.0), 0.0, 0.0]
        k2 = [k1[0] + rng.uniform(-2.0, 2.0) / lengths[0]] + [
            rng.uniform(-2.0, 2.0) / lengths[i] for i in (1, 2)
        ]
        params = {
            "n_max": _int_between(12, 32, f),
            "k1": k1, "k2": k2, "lengths": lengths,
            "center": [rng.uniform(-0.5, 0.5) for _ in range(3)],
            "phi1": rng.uniform(0.0, 2.0 * math.pi), "phi2": rng.uniform(0.0, 2.0 * math.pi),
            "alpha1": _unit_disk(rng), "alpha2": _unit_disk(rng),
        }
        jobs.append(Job("multimode", (), params, size=f))
    return jobs


# -------------------------------------------------------------- crosscheck


def _crosscheck(rng: random.Random) -> list:
    jobs = []
    for f in _classes(rng, 15):
        n_waves = _int_between(1, 8, f)
        wavelength = rng.uniform(0.5, 2.0)
        lengths = [wavelength * rng.randint(1, 3), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
        params = {
            "phases": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_waves)],
            "wavelength": wavelength,
            "lengths": lengths,
            "center": [rng.uniform(-0.5, 0.5) for _ in range(3)],
            "resolution": _int_between(48, 64, f),
            "occupation": rng.randint(0, 20),
            "delta_k": [rng.uniform(-0.025, 0.025) / lengths[i] for i in range(3)],
            "phi1": rng.uniform(0.0, 2.0 * math.pi),
            "phi2": rng.uniform(0.0, 2.0 * math.pi),
            "quadrature": _int_between(96, 128, f),
        }
        jobs.append(Job("crosscheck", (), params, size=f))
    return jobs


# -------------------------------------------------------------- small_jobs

_SUBCOMMANDS = ("classical", "quantum", "overlap", "biphoton", "wavepacket", "sweep", "dicke", "spectrum")


def _small_classical(rng, keys):
    n = rng.randint(1, 16)
    phase_args, phases = _phase_args(rng, n, explicit=rng.random() < 0.5)
    amplitude, wavelength = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    keys.update({"n-waves": str(n), "amplitude": _num(amplitude), "wavelength": _num(wavelength)})
    return phase_args, {"phases": phases, "amplitude": amplitude, "wavelength": wavelength}


def _small_quantum(rng, keys):
    n_max = rng.randint(8, 32)
    n = rng.randint(1, 8)
    phase_args, phases = _phase_args(rng, n, explicit=rng.random() < 0.5)
    occupation, omega = rng.randint(0, n_max), rng.uniform(0.5, 2.0)
    convention = rng.choice(_CONVENTIONS)
    keys.update({"n-waves": str(n), "n": str(occupation), "omega": _num(omega), "convention": convention})
    return phase_args + ["--n-max", str(n_max)], {
        "phases": phases, "n": occupation, "omega": omega, "convention": convention,
    }


def _small_overlap(rng, keys):
    box = [rng.uniform(0.5, 2.0) for _ in range(3)]
    dk = [rng.uniform(-8.0, 8.0) for _ in range(3)]
    center = [rng.uniform(-0.5, 0.5) for _ in range(3)]
    phi1, phi2 = rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)
    keys.update({
        "dk": ",".join(map(_num, dk)), "box": ",".join(map(_num, box)),
        "center": ",".join(map(_num, center)), "phi1": _num(phi1), "phi2": _num(phi2),
    })
    return [], {"dk": dk, "box": box, "center": center, "phi1": phi1, "phi2": phi2}


def _small_biphoton(rng, keys):
    overlap = _unit_disk(rng)
    delta, omega = rng.uniform(0.0, 6.0), rng.uniform(0.5, 2.0)
    keys.update({
        "overlap": f"{_num(overlap.real)},{_num(overlap.imag)}",
        "delta-phi": _num(delta), "omega": _num(omega),
    })
    return [], {"overlap": overlap, "delta_phi": delta, "omega": omega}


def _small_wavepacket(rng, keys):
    components = [
        (rng.uniform(1.0, 12.0), rng.uniform(0.2, 1.5), rng.uniform(0.0, 6.0))
        for _ in range(rng.randint(2, 4))
    ]
    box = [rng.uniform(0.5, 2.0) for _ in range(3)]
    keys.update({
        "components": ";".join(",".join(map(_num, c)) for c in components),
        "box": ",".join(map(_num, box)),
    })
    return [], {"components": components, "box": box}


def _small_sweep(rng, keys):
    if rng.random() < 0.5:
        n = rng.randint(2, 8)
        keys.update({"target": "classical_energy", "parameter": "phase_delta", "n-waves": str(n)})
        start, stop = -rng.uniform(0.0, 3.0), rng.uniform(0.1, 3.0)
        extra, params = [], {"target": "classical_energy", "n_waves": n}
    else:
        keys.update({
            "target": "farfield_power", "parameter": "source_count",
            "spacing": _num(rng.uniform(0.05, 0.5)), "wavelength": "1.0",
        })
        start, stop = 1.0, float(rng.randint(3, 6))
        extra, params = ["--samples", str(rng.randint(64, 128))], {"target": "farfield_power"}
    keys.update({"start": _num(start), "stop": _num(stop), "steps": str(rng.randint(4, 8))})
    return extra, params


def _small_dicke(rng, keys):
    values = sorted(rng.sample(range(1, 13), 3))
    regime = rng.choice(("closed_form", "farfield"))
    keys.update({"n-values": ",".join(map(str, values)), "regime": regime})
    extra = ["--samples", str(rng.randint(64, 256))] if regime == "farfield" else []
    return extra, {"regime": regime}


def _small_spectrum(rng, keys):
    n = rng.randint(2, 5)
    keys.update({
        "n-sources": str(n), "spacing": _num(rng.uniform(0.5, 2.5)),
        "wavelength-min": _num(rng.uniform(0.5, 0.8)), "wavelength-max": _num(rng.uniform(2.0, 3.0)),
        "steps": str(rng.randint(4, 10)),
    })
    return ["--samples", str(rng.randint(64, 128))], {"n": n}


_SMALL = {
    "classical": _small_classical,
    "quantum": _small_quantum,
    "overlap": _small_overlap,
    "biphoton": _small_biphoton,
    "wavepacket": _small_wavepacket,
    "sweep": _small_sweep,
    "dicke": _small_dicke,
    "spectrum": _small_spectrum,
}


def _small_jobs(rng: random.Random, workdir: str) -> list:
    """Five jobs per subcommand: every third job takes some keys from a
    config file, every fourth writes with --output, and formats alternate."""
    jobs = []
    count = 5 * len(_SUBCOMMANDS)
    for slot in range(count):
        subcommand = _SUBCOMMANDS[slot % len(_SUBCOMMANDS)]
        keys = {}
        extra, params = _SMALL[subcommand](rng, keys)
        scale = 1.0
        fmt = ("csv", "json")[slot % 2]
        config = config_file = None
        argv = [subcommand, "--format", fmt, *extra]
        if slot % 3 == 0:
            scale = round(rng.uniform(0.5, 3.0), 3)
            moved = [key for key in keys if rng.random() < 0.5]
            lines = [f"{subcommand}.{key} = {keys.pop(key)}" for key in moved]
            lines.append(f"units.energy-scale = {_num(scale)}")
            config = "# small_jobs config\n" + "\n".join(lines) + "\n"
            config_file = f"{workdir}/cfg{slot:02d}.txt"
        argv += [f"--{key}={value}" for key, value in keys.items()]
        output = f"{workdir}/out{slot:02d}.{fmt}" if slot % 4 == 1 else None
        params["scale"] = scale
        jobs.append(Job(subcommand, tuple(argv), params, config, config_file, output, slot / count))
    return jobs


def generate(workload: str, seed: int, pass_index: int, workdir: str) -> list:
    """Jobs of one pass, in timed order."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "farfield":
        jobs = _farfield(rng)
    elif workload == "operators":
        jobs = _operators(rng)
    elif workload == "crosscheck":
        jobs = _crosscheck(rng)
    elif workload == "small_jobs":
        jobs = _small_jobs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return sorted(jobs, key=lambda job: job.size)


def first_of_each_kind(jobs: list) -> list:
    """One job per kind, the first in deck order (the smallest)."""
    chosen = {}
    for job in jobs:
        chosen.setdefault(job.kind, job)
    return list(chosen.values())
