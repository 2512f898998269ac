"""Output checks for deck jobs, run after the timed region.

Every expected value here is a closed form computed with numpy from the
job's own inputs; no check calls the coherray route it is checking.
Tolerances follow tests/test_acceptance.py: 1e-5 for grid integration,
1e-8 for overlap quadrature, 1e-10 for number-state operators.
A check returns None when the output is right and a reason otherwise.
Comparisons are written so that a nan anywhere fails them.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
OPERATOR_TOL = 1e-10
GRID_TOL = 1e-5
QUADRATURE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-10
HEMISPHERE_TOL = 1e-3


class CheckError(Exception):
    """An output value disagrees with its closed form."""


def parse(text: str):
    """CLI output (CSV or JSON) as (meta, columns, rows of floats or str)."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["meta"], doc["columns"], doc["rows"]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    rows = [[_cell(cell) for cell in line.split(",")] for line in body[1:]]
    return meta, body[0].split(","), rows


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _close(name: str, actual, expected, tol: float, scale: float = 1.0):
    if not abs(actual - expected) <= tol * max(1.0, abs(scale)):
        raise CheckError(f"{name}: got {actual!r}, expected {expected!r} (tol {tol:g} x {scale:g})")


def _magnitude_sq(phases) -> float:
    total = np.exp(1j * np.asarray(phases, dtype=float)).sum()
    return float(total.real ** 2 + total.imag ** 2)


def _sinc(x):
    return np.sinc(np.asarray(x, dtype=float) / math.pi)


def _box_overlap(dk, lengths, center=(0.0, 0.0, 0.0)) -> complex:
    dk = np.asarray(dk, dtype=float)
    geometric = float(np.prod(_sinc(dk * np.asarray(lengths) / 2.0)))
    return complex(np.exp(1j * float(np.dot(dk, center))) * geometric)


def _quantities(rows) -> dict:
    return {row[0]: row[1] for row in rows}


def _curve(rows, columns: int = 3) -> np.ndarray:
    table = np.array(rows, dtype=float)
    if table.ndim != 2 or table.shape[1] != columns or table.shape[0] < 2:
        raise CheckError(f"curve has shape {table.shape}")
    if not np.all(np.isfinite(table)):
        raise CheckError("curve has non-finite cells")
    return table


def _enhancement_bounds(enhancement, ceiling):
    if not (np.all(enhancement >= 0.0) and np.all(enhancement <= 1.05 * np.asarray(ceiling))):
        raise CheckError("enhancement outside [0, 1.05 N]")


# ---------------------------------------------------------------- farfield


def _spectrum_arc(job, text):
    curve = _curve(parse(text)[2])
    enhancement = curve[:, 2]
    _enhancement_bounds(enhancement, job.params["n"])
    inner = enhancement[1:-1]
    peaks = (inner > enhancement[:-2]) & (inner >= enhancement[2:]) & (inner > 1.0)
    if not peaks.any():
        raise CheckError("sparse arc spectrum has no interior enhancement peak above 1")


def _sweep_farfield(job, text):
    curve = _curve(parse(text)[2])
    _enhancement_bounds(curve[:, 2], job.params["n"])


def _spectrum_hemisphere(job, text):
    curve = _curve(parse(text)[2])
    n, spacing = job.params["n"], job.params["spacing"]
    _enhancement_bounds(curve[:, 2], n)
    separations = np.concatenate([np.full(n - gap, gap) for gap in range(1, n)])
    for wavelength, _, enhancement in curve:
        identity = 1.0 + 2.0 * float(_sinc(TWO_PI / wavelength * separations * spacing).sum()) / n
        _close(f"hemisphere enhancement at {wavelength}", enhancement, identity, HEMISPHERE_TOL, identity)


# --------------------------------------------------------------- operators


def _number_state_energy(params, n_waves: int, magnitude_sq: float):
    """(self part, total) of the N-wave operator in |n>, per convention."""
    omega, occupation = params["omega"], params["n"]
    diagonal = n_waves * omega * (occupation + 0.5)
    convention = params.get("convention", "canonical")
    if convention == "canonical":
        return diagonal, omega * magnitude_sq * (occupation + 0.5)
    sign = 1.0 if convention == "phased-plus" else -1.0
    pairs = n_waves * (n_waves - 1) / 2.0
    return diagonal, omega * (magnitude_sq * occupation + n_waves / 2.0 + sign * pairs)


def _quantum(job, text):
    params = job.params
    phases = params["phases"]
    n_waves = len(phases)
    values = _quantities(parse(text)[2])
    diagonal, total = _number_state_energy(params, n_waves, _magnitude_sq(phases))
    scale = params["scale"]
    reference = params["omega"] * n_waves ** 2 * (params["n"] + 1) * scale
    _close("diagonal", values["diagonal"], diagonal * scale, OPERATOR_TOL, reference)
    _close("total", values["total"], total * scale, OPERATOR_TOL, reference)
    _close("cross", values["cross"], (total - diagonal) * scale, OPERATOR_TOL, reference)
    _close("enhancement", values["enhancement"], total / diagonal, OPERATOR_TOL, n_waves)


def _sweep_quantum(job, text):
    curve = _curve(parse(text)[2])
    omega, occupation = job.params["omega"], job.params["n"]
    for count, power, enhancement in curve:
        n_waves = int(round(count))
        expected = omega * n_waves ** 2 * (occupation + 0.5)
        _close(f"energy at N={n_waves}", power, expected, OPERATOR_TOL, expected)
        _close(f"enhancement at N={n_waves}", enhancement, n_waves, OPERATOR_TOL, n_waves)


def _multimode(job, text):
    params = job.params
    values = json.loads(text)
    omega1 = float(np.linalg.norm(params["k1"]))
    omega2 = float(np.linalg.norm(params["k2"]))
    alpha1, alpha2 = complex(params["alpha1"]), complex(params["alpha2"])
    dk = np.asarray(params["k2"]) - np.asarray(params["k1"])
    overlap = np.exp(1j * (params["phi2"] - params["phi1"])) * _box_overlap(
        dk, params["lengths"], params["center"]
    )
    diagonal = omega1 * (abs(alpha1) ** 2 + 0.5) + omega2 * (abs(alpha2) ** 2 + 0.5)
    cross = 2.0 * math.sqrt(omega1 * omega2) * (alpha1.conjugate() * alpha2 * overlap).real
    reference = 2.0 * (omega1 + omega2)
    _close("diagonal", values["diagonal"], diagonal, QUADRATURE_TOL, reference)
    _close("cross", values["cross"], cross, QUADRATURE_TOL, reference)
    _close("total", values["total"], diagonal + cross, QUADRATURE_TOL, reference)


# -------------------------------------------------------------- crosscheck


def _crosscheck(job, text):
    params = job.params
    values = json.loads(text)
    phases = params["phases"]
    n_waves = len(phases)
    omega = TWO_PI / params["wavelength"]
    unit = float(np.prod(params["lengths"])) * omega ** 2 / TWO_PI
    closed = unit * _magnitude_sq(phases)
    ceiling = unit * n_waves ** 2
    _close("classical_energy vs closed form", values["closed_total"], closed, CLOSED_FORM_TOL, ceiling)
    if values["grid_commensurate"] is not True:
        raise CheckError("grid box reported as not commensurate")
    _close("field_energy_grid vs classical_energy", values["grid_energy"], values["closed_total"],
           GRID_TOL, values["closed_total"])

    occupation = params["occupation"]
    expected = _magnitude_sq(phases) * (occupation + 0.5)
    _close("operator vs |S|^2 (n + 1/2)", values["operator_energy"], expected, OPERATOR_TOL, expected)

    analytic = complex(*values["overlap"])
    numeric = complex(*values["overlap_quadrature"])
    own = np.exp(1j * (params["phi2"] - params["phi1"])) * _box_overlap(
        params["delta_k"], params["lengths"], params["center"]
    )
    _close("overlap_integral vs sinc product", abs(analytic - own), 0.0, CLOSED_FORM_TOL)
    _close("overlap quadrature vs overlap_integral", abs(numeric - analytic), 0.0, QUADRATURE_TOL,
           abs(analytic))


# -------------------------------------------------------------- small_jobs


def _classical(job, text):
    params = job.params
    phases = params["phases"]
    n_waves = len(phases)
    omega = TWO_PI / params["wavelength"]
    unit = omega ** 2 * params["amplitude"] ** 2 / TWO_PI * params["scale"]
    magnitude_sq = _magnitude_sq(phases)
    values = _quantities(parse(text)[2])
    reference = unit * n_waves ** 2
    _close("diagonal", values["diagonal"], n_waves * unit, CLOSED_FORM_TOL, reference)
    _close("total", values["total"], magnitude_sq * unit, CLOSED_FORM_TOL, reference)
    _close("enhancement", values["enhancement"], magnitude_sq / n_waves, CLOSED_FORM_TOL, n_waves)


def _overlap(job, text):
    params = job.params
    values = _quantities(parse(text)[2])
    expected = np.exp(1j * (params["phi2"] - params["phi1"])) * _box_overlap(
        params["dk"], params["box"], params["center"]
    )
    _close("overlap_re", values["overlap_re"], expected.real, CLOSED_FORM_TOL)
    _close("overlap_im", values["overlap_im"], expected.imag, CLOSED_FORM_TOL)
    _close("overlap_abs", values["overlap_abs"], abs(expected), CLOSED_FORM_TOL)
    if values["regime"] not in ("same_mode", "small_volume", "vanishing"):
        raise CheckError(f"unknown overlap regime {values['regime']!r}")


def _biphoton(job, text):
    params = job.params
    values = _quantities(parse(text)[2])
    photon = 2.0 * params["omega"] * (
        1.0 + (complex(params["overlap"]) * np.exp(1j * params["delta_phi"])).real
    ) * params["scale"]
    reference = 4.0 * params["omega"] * params["scale"]
    _close("photon_energy", values["photon_energy"], photon, CLOSED_FORM_TOL, reference)
    _close("vacuum_energy", values["vacuum_energy"], photon / 2.0, CLOSED_FORM_TOL, reference)
    _close("total_energy", values["total_energy"], 1.5 * photon, CLOSED_FORM_TOL, reference)


def _wavepacket(job, text):
    params = job.params
    lengths = params["box"]
    factor = float(np.prod(lengths)) / TWO_PI * params["scale"]
    parts = params["components"]
    diagonal = factor * sum(k ** 2 * a ** 2 for k, a, _ in parts)
    cross = 0.0
    for n, (kn, an, pn) in enumerate(parts):
        for km, am, pm in parts[n + 1:]:
            overlap = _box_overlap([kn - km, 0.0, 0.0], lengths)
            cross += 2.0 * factor * kn * km * (an * am * np.exp(1j * (pn - pm)) * overlap).real
    values = _quantities(parse(text)[2])
    reference = factor * sum(k * a for k, a, _ in parts) ** 2
    _close("diagonal", values["diagonal"], diagonal, CLOSED_FORM_TOL, reference)
    _close("cross", values["cross"], cross, CLOSED_FORM_TOL, reference)
    _close("total", values["total"], diagonal + cross, CLOSED_FORM_TOL, reference)


def _sweep(job, text):
    params = job.params
    curve = _curve(parse(text)[2])
    if params["target"] == "farfield_power":
        _enhancement_bounds(curve[:, 2], np.round(curve[:, 0]))
        return
    n_waves = params["n_waves"]
    for delta, power, enhancement in curve:
        magnitude_sq = _magnitude_sq(np.arange(n_waves) * delta)
        unit = TWO_PI * params["scale"]
        _close(f"energy at {delta}", power, unit * magnitude_sq, CLOSED_FORM_TOL, unit * n_waves ** 2)
        _close(f"enhancement at {delta}", enhancement, magnitude_sq / n_waves, CLOSED_FORM_TOL, n_waves)


def _dicke(job, text):
    curve = _curve(parse(text)[2], columns=2)
    if not np.all(curve[:, 1] > 0.0):
        raise CheckError("non-positive energy")
    if job.params["regime"] == "closed_form":
        for n, energy in curve:
            expected = TWO_PI * n * n * job.params["scale"]
            _close(f"energy at N={n:g}", energy, expected, CLOSED_FORM_TOL, expected)


def _spectrum(job, text):
    curve = _curve(parse(text)[2])
    _enhancement_bounds(curve[:, 2], job.params["n"])


CHECKS = {
    "spectrum_arc": _spectrum_arc,
    "sweep_farfield": _sweep_farfield,
    "spectrum_hemisphere": _spectrum_hemisphere,
    "quantum": _quantum,
    "sweep_quantum": _sweep_quantum,
    "multimode": _multimode,
    "crosscheck": _crosscheck,
    "classical": _classical,
    "overlap": _overlap,
    "biphoton": _biphoton,
    "wavepacket": _wavepacket,
    "sweep": _sweep,
    "dicke": _dicke,
    "spectrum": _spectrum,
}


def check(job, text: str) -> str | None:
    """None if the output is right, else a one-line reason."""
    try:
        CHECKS[job.kind](job, text)
    except Exception as err:  # any malformed output is a failed job
        return f"{job.kind}: {type(err).__name__}: {err}"
    return None


def strip_output_echo(text: str, path: str) -> str:
    """The output with its echoed --output path blanked, as stdout shows it."""
    return text.replace(f"# config.output = {path}\n", "# config.output = \n").replace(
        f'"config.output": {json.dumps(path)}', '"config.output": ""'
    )
