"""Run one deck job against coherray and return its output text.

CLI jobs call ``coherray.cli.main(argv)`` in this process with stdout and
stderr captured. Library jobs call the public API through module
attributes looked up at call time, so the tracer's rebinding sees them.
Library outputs are JSON with every float at full precision, so they can
be hashed and checked like CLI output.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from coherray import classical, cli, core, multimode, quantum


class JobFailed(Exception):
    """The job exited nonzero or raised; the message says which."""


def cli_argv(job, with_output: bool = True) -> list:
    argv = list(job.argv)
    if job.config_file is not None:
        argv += ["--config", job.config_file]
    if with_output and job.output is not None:
        argv += ["--output", job.output]
    return argv


def run_cli(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _complex(value) -> list:
    value = complex(value)
    return [value.real, value.imag]


def _multimode(params: dict) -> dict:
    space = quantum.FockSpace(n_max=params["n_max"], mode_count=2)
    state = quantum.QuantumState.coherent(space, (params["alpha1"], params["alpha2"]))
    pair = multimode.ModePair(
        core.WaveMode.plane(np.array(params["k1"])),
        core.WaveMode.plane(np.array(params["k2"])),
        params["phi1"],
        params["phi2"],
        core.BoxVolume(np.array(params["lengths"]), np.array(params["center"])),
    )
    report = multimode.multimode_energy(state, pair)
    return {"diagonal": report.diagonal, "cross": report.cross, "total": report.total}


def _crosscheck(params: dict) -> dict:
    """The four route pairs of one random phase set, box and mismatch."""
    k = 2.0 * np.pi / params["wavelength"]
    mode = core.WaveMode.plane(np.array([k, 0.0, 0.0]))
    waves = core.PhasedWaveSet(mode, tuple(params["phases"]))
    box = core.BoxVolume(np.array(params["lengths"]), np.array(params["center"]))
    closed = classical.classical_energy(waves, box)
    grid = classical.field_energy_grid(waves, box, params["resolution"])

    occupation = params["occupation"]
    space = quantum.FockSpace(n_max=occupation + 1)
    operator = quantum.single_mode_hamiltonian(params["phases"], 1.0, space)
    expectation = quantum.expectation_energy(quantum.QuantumState.fock(space, occupation), operator)

    pair = multimode.ModePair(
        mode,
        core.WaveMode.plane(np.array([k, 0.0, 0.0]) + np.array(params["delta_k"])),
        params["phi1"],
        params["phi2"],
        box,
    )
    analytic = multimode.overlap_integral(pair)
    numeric = multimode.overlap_integral_quadrature(pair, params["quadrature"])
    return {
        "closed_total": closed.total,
        "grid_energy": grid.energy,
        "grid_commensurate": bool(grid.commensurate),
        "operator_energy": expectation,
        "overlap": _complex(analytic),
        "overlap_quadrature": _complex(numeric),
    }


_LIBRARY = {"multimode": _multimode, "crosscheck": _crosscheck}


def run_library(job) -> str:
    return json.dumps(_LIBRARY[job.kind](job.params), sort_keys=True) + "\n"


def read_output_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def write_config(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
