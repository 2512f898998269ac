"""Command-line front end: config resolution, dispatch, CSV/JSON emission.

Resolution order for every setting: built-in default, then the config
file (section ``global`` for shared flags, one section per subcommand),
then command-line flags. Outputs carry the full resolved configuration
in their metadata and are byte-identical for identical configurations.

Config file grammar: flat text, one ``section.key = value`` per line,
``#`` comments and blank lines ignored. Sections are ``global``,
``units``, and the subcommand names; keys are spelled exactly like the
corresponding flags (without the leading dashes). Unknown sections or
keys are rejected.

Exit codes: 0 success; 1 runtime failure (far-field violation, bad
physics input, unwritable output); 2 usage or unknown subcommand;
3 type mismatch or invalid value; 4 missing required key; 5 unknown flag or key.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import classical, experiments, multimode, quantum
from .core import (
    TWO_PI,
    BoxVolume,
    ConfigError,
    EnergyReport,
    MissingSettingError,
    PhasedWaveSet,
    WaveMode,
    _check_wave_budget,
    make_linear_array,
)
from .classical import DetectorGrid, SpectrumCurve
from .experiments import SweepSpec

_FLOAT_FMT = ".17g"


class _CliError(Exception):
    """Configuration failure carrying its process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt_float(value: float) -> str:
    return format(float(value), _FLOAT_FMT)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_floats(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


def _parse_vec3(text: str) -> tuple:
    values = _parse_floats(text)
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {len(values)}")
    return values


def _parse_ints(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


def _parse_complex(text: str) -> complex:
    if "," in text:
        values = _parse_floats(text)
        if len(values) != 2:
            raise ValueError("complex values are 're' or 're,im'")
        return complex(values[0], values[1])
    value = complex(text)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_components(text: str) -> tuple:
    """Wavepacket components: 'k,amp,phase;k,amp,phase;...'."""
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        values = _parse_floats(chunk)
        if len(values) != 3:
            raise ValueError(f"component {chunk!r} is not 'k,amp,phase'")
        triples.append(values)
    if not triples:
        raise ValueError("expected at least one component")
    return tuple(triples)


def _choice(*options):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return convert


_REQUIRED = object()


@dataclass(frozen=True)
class _Field:
    name: str
    convert: object
    default: object
    help: str

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_GLOBAL_FIELDS = (
    _Field("seed", int, 0, "seed for randomized phase draws"),
    _Field("samples", int, None, "quadrature density (detector points per axis)"),
    _Field("n-max", int, 32, "number-state truncation of the quantum space"),
    _Field("format", _choice("csv", "json"), "csv", "output format"),
    _Field("output", str, None, "output path (default: standard output)"),
)

_UNITS_FIELDS = (
    _Field("energy-scale", _parse_float, 1.0, "multiplies emitted energies (outputs only)"),
)

_SWEEP_TARGETS = _choice(
    "classical_energy", "quantum_energy", "farfield_power", "biphoton", "wavepacket"
)
_SWEEP_PARAMETERS = _choice("phase_delta", "spacing", "wavelength", "source_count")

_SUBCOMMAND_FIELDS = {
    "classical": (
        _Field("n-waves", int, _REQUIRED, "number of phase-coherent waves"),
        _Field("delta-phi", _parse_float, 0.0, "progressive phase step phi_n = n * delta"),
        _Field("phases", _parse_floats, None, "explicit phase list (overrides delta-phi)"),
        _Field("amplitude", _parse_float, 1.0, "common wave amplitude"),
        _Field("wavelength", _parse_float, 1.0, "wavelength of the shared mode"),
    ),
    "quantum": (
        _Field("n-waves", int, _REQUIRED, "number of phase-coherent waves"),
        _Field("delta-phi", _parse_float, 0.0, "progressive phase step phi_n = n * delta"),
        _Field("phases", _parse_floats, None, "explicit phase list (overrides delta-phi)"),
        _Field("n", int, 0, "occupation of the number state"),
        _Field("omega", _parse_float, 1.0, "mode frequency"),
        _Field(
            "convention",
            _choice("canonical", "phased-plus", "phased-minus"),
            "canonical",
            "cross-term commutator convention",
        ),
    ),
    "overlap": (
        _Field("dk", _parse_vec3, _REQUIRED, "wavevector mismatch k2 - k1 as 'x,y,z'"),
        _Field("box", _parse_vec3, _REQUIRED, "box side lengths as 'Lx,Ly,Lz'"),
        _Field("center", _parse_vec3, (0.0, 0.0, 0.0), "box center as 'x,y,z'"),
        _Field("phi1", _parse_float, 0.0, "phase of the first source"),
        _Field("phi2", _parse_float, 0.0, "phase of the second source"),
    ),
    "biphoton": (
        _Field("overlap", _parse_complex, _REQUIRED, "mode overlap I as 're' or 're,im'"),
        _Field("delta-phi", _parse_float, 0.0, "phase difference of the two sources"),
        _Field("omega", _parse_float, 1.0, "photon frequency"),
    ),
    "wavepacket": (
        _Field(
            "components",
            _parse_components,
            _REQUIRED,
            "spectral components 'k,amp,phase;...'",
        ),
        _Field("box", _parse_vec3, (1.0, 1.0, 1.0), "box side lengths as 'Lx,Ly,Lz'"),
        _Field("direction", _parse_vec3, (1.0, 0.0, 0.0), "common propagation direction"),
    ),
    "sweep": (
        _Field("target", _SWEEP_TARGETS, _REQUIRED, "observable to sweep"),
        _Field("parameter", _SWEEP_PARAMETERS, _REQUIRED, "swept knob"),
        _Field("start", _parse_float, _REQUIRED, "first parameter value"),
        _Field("stop", _parse_float, _REQUIRED, "last parameter value"),
        _Field("steps", int, _REQUIRED, "number of sweep points"),
        _Field("n-waves", int, None, "fixed: wave count (phase_delta sweeps)"),
        _Field("n-sources", int, None, "fixed: source count (farfield)"),
        _Field("spacing", _parse_float, None, "fixed: array spacing"),
        _Field("wavelength", _parse_float, None, "fixed: wavelength"),
        _Field("n", int, None, "fixed: occupation (quantum_energy)"),
        _Field("omega", _parse_float, None, "fixed: frequency"),
        _Field("overlap", _parse_complex, None, "fixed: mode overlap (biphoton)"),
        _Field("phase", _parse_float, None, "fixed: constant phase offset"),
        _Field(
            "phase-profile",
            _choice("uniform", "random"),
            None,
            "fixed: phase profile for source_count sweeps",
        ),
        _Field("geometry", _choice("hemisphere", "arc"), None, "fixed: detector geometry"),
        _Field("radius", _parse_float, None, "fixed: detector radius"),
        _Field("components", _parse_components, None, "fixed: wavepacket components"),
        _Field("box", _parse_vec3, None, "fixed: box side lengths"),
        _Field("direction", _parse_vec3, None, "fixed: wavepacket direction"),
        _Field("component", int, None, "fixed: swept component index"),
    ),
    "dicke": (
        _Field("n-values", _parse_ints, _REQUIRED, "source counts to fit, e.g. '2,4,8'"),
        _Field(
            "regime",
            _choice("closed_form", "farfield"),
            "closed_form",
            "closed-form energies or detected far-field power",
        ),
        _Field("spacing-ratio", _parse_float, 0.01, "array spacing over wavelength"),
        _Field("jitter", _parse_float, 0.0, "position jitter as a fraction of spacing"),
    ),
    "spectrum": (
        _Field("n-sources", int, _REQUIRED, "source count of the linear array"),
        _Field("spacing", _parse_float, _REQUIRED, "array spacing"),
        _Field("wavelength-min", _parse_float, _REQUIRED, "sweep start wavelength"),
        _Field("wavelength-max", _parse_float, _REQUIRED, "sweep stop wavelength"),
        _Field("steps", int, 200, "number of wavelengths"),
        _Field("geometry", _choice("hemisphere", "arc"), "arc", "detector geometry"),
        _Field("radius", _parse_float, None, "detector radius (default: far-field minimum)"),
    ),
}

_SUBCOMMAND_HELP = {
    "classical": "closed-form energy of N phase-coherent classical waves",
    "quantum": "number-state expectation of the N-wave energy operator",
    "overlap": "analytic mode-overlap integral over a box",
    "biphoton": "photon energy of a phase-correlated photon pair",
    "wavepacket": "energy of a multi-component wavepacket in a box",
    "sweep": "sweep one parameter of a chosen observable",
    "dicke": "power-law fit of energy versus source count",
    "spectrum": "far-field transmission spectrum of a linear array",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings: subcommand, typed parameters, output."""

    subcommand: str
    parameters: dict
    output_format: str = "csv"
    output_path: str | None = None
    seed: int = 0
    samples: int | None = None
    n_max: int = 32
    energy_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))


class _RaisingParser(argparse.ArgumentParser):
    """argparse that raises every usage failure as exit code 2 instead of
    exiting; no flag has argparse choices or is argparse-required."""

    def error(self, message):
        raise _CliError(2, message)


def _build_parser(argv) -> _RaisingParser:
    """Parser for ``argv``: the named subcommand's subparser only, else all eight.

    A run parses with exactly one subparser, so building the other seven
    is wasted work. Help, a missing command, an unknown command or a flag
    first need the full parser, whose usage and choice list are unchanged.
    """
    names = [argv[0]] if argv and argv[0] in _SUBCOMMAND_FIELDS else _SUBCOMMAND_FIELDS
    shared = _RaisingParser(add_help=False)
    for field_spec in _GLOBAL_FIELDS:
        shared.add_argument(f"--{field_spec.name}", default=None, help=field_spec.help)
    shared.add_argument("--config", default=None, help="config file path")

    parser = _RaisingParser(
        prog="coherray",
        description="Collective energy of N phase-coherent waves",
        epilog=(
            "config file: one 'section.key = value' per line; sections are"
            " 'global', 'units', and the subcommand names"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in names:
        sub = subparsers.add_parser(name, parents=[shared], help=_SUBCOMMAND_HELP[name])
        for field_spec in _SUBCOMMAND_FIELDS[name]:
            sub.add_argument(f"--{field_spec.name}", default=None, help=field_spec.help)
    return parser


def _read_config_file(path: str) -> dict:
    """Parse 'section.key = value' lines into {(section, key): raw string}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise _CliError(2, f"cannot read config file {path}: {err}") from err
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _CliError(2, f"{path}:{lineno}: expected 'section.key = value'")
        left, _, value = line.partition("=")
        left = left.strip()
        if "." not in left:
            raise _CliError(5, f"{path}:{lineno}: key {left!r} has no section prefix")
        section, _, key = left.partition(".")
        entries[(section.strip(), key.strip())] = value.strip()
    _validate_config_keys(path, entries)
    return entries


def _validate_config_keys(path: str, entries: dict):
    tables = {"global": _GLOBAL_FIELDS, "units": _UNITS_FIELDS}
    tables.update(_SUBCOMMAND_FIELDS)
    for section, key in entries:
        if section not in tables:
            raise _CliError(5, f"{path}: unknown config section {section!r}")
        if key not in {field_spec.name for field_spec in tables[section]}:
            raise _CliError(5, f"{path}: unknown key {key!r} in section {section!r}")


def _convert(field_spec: _Field, raw: str, origin: str):
    try:
        return field_spec.convert(raw)
    except (ValueError, TypeError) as err:
        raise _CliError(
            3, f"type mismatch for key '{origin}{field_spec.name}': {err}"
        ) from err


def _resolve(fields, flag_values: dict, file_section: dict, origin: str) -> dict:
    resolved = {}
    for field_spec in fields:
        raw_flag = flag_values.get(field_spec.dest)
        if raw_flag is not None:
            resolved[field_spec.dest] = _convert(field_spec, raw_flag, origin)
        elif field_spec.name in file_section:
            resolved[field_spec.dest] = _convert(
                field_spec, file_section[field_spec.name], origin
            )
        elif field_spec.default is _REQUIRED:
            raise _CliError(4, f"missing required key: {field_spec.name}")
        else:
            resolved[field_spec.dest] = field_spec.default
    return resolved


def parse_config(argv, config_path: str | None = None) -> RunConfig:
    """Resolve argv plus an optional config file into a RunConfig.

    ``config_path`` is a fallback used when no --config flag is present.
    Raises _CliError with the documented exit code on any failure.
    """
    argv = list(argv)
    namespace, unknown = _build_parser(argv).parse_known_args(argv)
    if unknown:
        raise _CliError(5, f"unrecognized arguments: {' '.join(unknown)}")
    flag_values = vars(namespace)
    subcommand = flag_values.pop("command")

    path = flag_values.pop("config", None) or config_path
    file_entries = _read_config_file(path) if path else {}

    def section(name: str) -> dict:
        return {key: value for (sec, key), value in file_entries.items() if sec == name}

    global_values = _resolve(_GLOBAL_FIELDS, flag_values, section("global"), "global.")
    units_values = _resolve(_UNITS_FIELDS, {}, section("units"), "units.")
    parameters = _resolve(
        _SUBCOMMAND_FIELDS[subcommand], flag_values, section(subcommand), ""
    )

    energy_scale = units_values["energy_scale"]
    if not energy_scale > 0.0:
        raise _CliError(3, "type mismatch for key 'units.energy-scale': must be positive")
    n_max = global_values["n_max"]
    if n_max < 1:
        raise _CliError(3, "type mismatch for key 'global.n-max': must be at least 1")

    return RunConfig(
        subcommand=subcommand,
        parameters=parameters,
        output_format=global_values["format"],
        output_path=global_values["output"],
        seed=global_values["seed"],
        samples=global_values["samples"],
        n_max=n_max,
        energy_scale=energy_scale,
    )


@dataclass(frozen=True)
class ResultTable:
    """Serialized-result shape: columns, rows, metadata, scaling hints.

    ``scaled_columns`` names columns whose cells are energies (multiplied
    by the unit scale on emission); ``scaled_rows`` does the same for
    quantity/value tables keyed by the quantity cell.
    """

    columns: tuple
    rows: tuple
    meta: dict
    scaled_columns: frozenset = frozenset()
    scaled_rows: frozenset = frozenset()


_ENERGY_QUANTITIES = frozenset(
    {"diagonal", "cross", "total", "photon_energy", "vacuum_energy", "total_energy"}
)


def _report_table(report: EnergyReport, meta: dict) -> ResultTable:
    rows = (
        ("diagonal", report.diagonal),
        ("cross", report.cross),
        ("total", report.total),
        ("enhancement", report.enhancement),
    )
    return ResultTable(("quantity", "value"), rows, meta, scaled_rows=_ENERGY_QUANTITIES)


def _curve_table(curve: SpectrumCurve) -> ResultTable:
    meta = dict(curve.metadata)
    name = meta.get("parameter", "wavelength")
    rows = tuple(
        (float(p), float(pw), float(e))
        for p, pw, e in zip(curve.parameter, curve.power, curve.enhancement)
    )
    return ResultTable((name, "power", "enhancement"), rows, meta, scaled_columns={"power"})


def _ramp_or_phases(params: dict) -> np.ndarray:
    n = params["n_waves"]
    if n < 1:
        raise ConfigError("n-waves must be at least 1")
    _check_wave_budget(n)
    if params.get("phases") is not None:
        phases = np.asarray(params["phases"], dtype=float)
        if phases.size != n:
            raise ConfigError(f"phases has {phases.size} entries for n-waves = {n}")
        return phases
    return np.arange(n) * params["delta_phi"]


def _run_classical(config: RunConfig) -> ResultTable:
    params = config.parameters
    phases = _ramp_or_phases(params)
    if params["wavelength"] <= 0.0:
        raise ConfigError("wavelength must be positive")
    mode = WaveMode.plane(
        np.array([TWO_PI / params["wavelength"], 0.0, 0.0]), amplitude=params["amplitude"]
    )
    report = classical.classical_energy(PhasedWaveSet(mode, tuple(phases)))
    return _report_table(report, {"kind": "classical_energy", "n_waves": params["n_waves"]})


def _run_quantum(config: RunConfig) -> ResultTable:
    params = config.parameters
    phases = _ramp_or_phases(params)
    occupation = params["n"]
    if not 0 <= occupation <= config.n_max:
        raise ConfigError(f"occupation n = {occupation} outside 0..n-max = {config.n_max}")
    convention = params["convention"]
    space = quantum.FockSpace(n_max=config.n_max)
    state = quantum.QuantumState.fock(space, occupation)
    full = quantum.single_mode_hamiltonian(phases, params["omega"], space, convention)
    self_only = quantum.single_mode_hamiltonian(
        phases, params["omega"], space, convention, include_cross=False
    )
    diagonal = quantum.expectation_energy(state, self_only)
    total = quantum.expectation_energy(state, full)
    rows = (
        ("diagonal", diagonal),
        ("cross", total - diagonal),
        ("total", total),
        ("enhancement", total / diagonal),
    )
    meta = {
        "kind": "quantum_energy",
        "n_waves": params["n_waves"],
        "n": occupation,
        "convention": convention,
    }
    return ResultTable(("quantity", "value"), rows, meta, scaled_rows=_ENERGY_QUANTITIES)


def _run_overlap(config: RunConfig) -> ResultTable:
    params = config.parameters
    box = BoxVolume(np.asarray(params["box"]), np.asarray(params["center"]))
    delta_k = np.asarray(params["dk"], dtype=float)
    value = multimode.box_overlap(delta_k, box) * np.exp(
        1j * (params["phi2"] - params["phi1"])
    )
    regime = multimode.classify_overlap(delta_k, box)
    rows = (
        ("overlap_re", float(value.real)),
        ("overlap_im", float(value.imag)),
        ("overlap_abs", float(abs(value))),
        ("regime", regime),
    )
    return ResultTable(("quantity", "value"), rows, {"kind": "overlap"})


def _run_biphoton(config: RunConfig) -> ResultTable:
    params = config.parameters
    photon = quantum.biphoton_energy(
        params["delta_phi"], params["overlap"], params["omega"]
    )
    rows = (
        ("photon_energy", photon),
        ("vacuum_energy", photon / 2.0),
        ("total_energy", 1.5 * photon),
    )
    return ResultTable(
        ("quantity", "value"), rows, {"kind": "biphoton"}, scaled_rows=_ENERGY_QUANTITIES
    )


def _run_wavepacket(config: RunConfig) -> ResultTable:
    params = config.parameters
    spectrum = multimode.WavepacketSpectrum(
        np.asarray(params["direction"], dtype=float),
        params["components"],
        BoxVolume(np.asarray(params["box"])),
    )
    report = multimode.wavepacket_energy(spectrum)
    meta = {"kind": "wavepacket", "n_components": spectrum.n_components}
    return _report_table(report, meta)


def _run_sweep(config: RunConfig) -> ResultTable:
    params = config.parameters
    # every optional sweep flag is a fixed setting; "box" is spelled box_lengths there
    fixed = {
        ("box_lengths" if field_spec.dest == "box" else field_spec.dest): params[field_spec.dest]
        for field_spec in _SUBCOMMAND_FIELDS["sweep"]
        if field_spec.default is not _REQUIRED and params[field_spec.dest] is not None
    }
    if params["target"] == "farfield_power" and config.samples is not None:
        fixed["samples"] = config.samples
    if params["target"] == "quantum_energy":
        fixed["n_max"] = config.n_max
    spec = SweepSpec(
        target=params["target"],
        parameter=params["parameter"],
        start=params["start"],
        stop=params["stop"],
        steps=params["steps"],
        fixed=fixed,
        seed=config.seed,
    )
    return _curve_table(experiments.run_sweep(spec))


def _run_dicke(config: RunConfig) -> ResultTable:
    params = config.parameters
    fit = experiments.dicke_scaling_check(
        params["n_values"],
        regime=params["regime"],
        spacing_ratio=params["spacing_ratio"],
        detector_samples=config.samples if config.samples is not None else 1024,
        jitter=params["jitter"],
        seed=config.seed,
    )
    meta = {
        "kind": "dicke_scaling",
        "regime": params["regime"],
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
    }
    rows = tuple((int(n), float(e)) for n, e in fit.points)
    return ResultTable(("n", "energy"), rows, meta, scaled_columns={"energy"})


def _run_spectrum(config: RunConfig) -> ResultTable:
    params = config.parameters
    lo, hi = params["wavelength_min"], params["wavelength_max"]
    array = make_linear_array(params["n_sources"], params["spacing"], lo)
    radius = params["radius"]
    if radius is None:
        radius = classical.FAR_FIELD_FACTOR * max(hi, array.extent)
    detector = DetectorGrid(
        radius=radius,
        geometry=params["geometry"],
        samples=config.samples if config.samples is not None else 256,
    )
    curve = classical.transmission_spectrum(array, (lo, hi), params["steps"], detector)
    return _curve_table(curve)


_RUNNERS = {
    "classical": _run_classical,
    "quantum": _run_quantum,
    "overlap": _run_overlap,
    "biphoton": _run_biphoton,
    "wavepacket": _run_wavepacket,
    "sweep": _run_sweep,
    "dicke": _run_dicke,
    "spectrum": _run_spectrum,
}


def _format_meta_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, complex):
        return f"{_fmt_float(value.real)},{_fmt_float(value.imag)}"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        items = list(value)
        parts = []
        for item in items:
            if isinstance(item, (tuple, list, np.ndarray)):
                parts.append(",".join(_format_meta_value(sub) for sub in item))
            else:
                parts.append(_format_meta_value(item))
        nested = bool(items) and isinstance(items[0], (tuple, list, np.ndarray))
        return (";" if nested else ",").join(parts)
    return str(value)


def _config_echo(config: RunConfig) -> dict:
    echo = {
        "config.subcommand": config.subcommand,
        "config.format": config.output_format,
        "config.output": _format_meta_value(config.output_path),
        "config.seed": str(config.seed),
        "config.samples": _format_meta_value(config.samples),
        "config.n-max": str(config.n_max),
        "config.energy-scale": _fmt_float(config.energy_scale),
    }
    for field_spec in _SUBCOMMAND_FIELDS[config.subcommand]:
        echo[f"config.{field_spec.name}"] = _format_meta_value(
            config.parameters[field_spec.dest]
        )
    return echo


def _scaled_rows(table: ResultTable, scale: float) -> list:
    rows = []
    quantity_table = table.columns[:1] == ("quantity",)
    for row in table.rows:
        cells = list(row)
        if quantity_table:
            if cells[0] in table.scaled_rows and isinstance(cells[1], float):
                cells[1] *= scale
        else:
            for i, column in enumerate(table.columns):
                if column in table.scaled_columns and isinstance(cells[i], float):
                    cells[i] *= scale
        rows.append(cells)
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _json_scalar(value) -> str:
    if isinstance(value, float):
        text = _fmt_float(value)
        if not any(mark in text for mark in (".", "e", "E")):
            text += ".0"
        return text
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


def _render_csv(meta: dict, columns, rows) -> str:
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, columns, rows) -> str:
    lines = ["{", '  "meta": {']
    meta_items = sorted(meta.items())
    for i, (key, value) in enumerate(meta_items):
        comma = "," if i < len(meta_items) - 1 else ""
        lines.append(f"    {json.dumps(key)}: {json.dumps(value)}{comma}")
    lines.append("  },")
    lines.append(f'  "columns": [{", ".join(json.dumps(c) for c in columns)}],')
    lines.append('  "rows": [')
    for i, row in enumerate(rows):
        comma = "," if i < len(rows) - 1 else ""
        lines.append(f'    [{", ".join(_json_scalar(cell) for cell in row)}]{comma}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_results(result: ResultTable, config: RunConfig) -> int:
    """Serialize a result table per the config.

    CSV: '# key = value' metadata lines (sorted), a header row, then data
    rows. JSON: {meta, columns, rows}. Floats use 17 significant digits
    in both formats, so parsing the output reproduces them exactly.
    Returns the process exit code (0 on success).
    """
    meta = {key: _format_meta_value(value) for key, value in result.meta.items()}
    meta.update(_config_echo(config))
    rows = _scaled_rows(result, config.energy_scale)
    if config.output_format == "json":
        text = _render_json(meta, result.columns, rows)
    else:
        text = _render_csv(meta, result.columns, rows)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    try:
        table = _RUNNERS[config.subcommand](config)
        return emit_results(table, config)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4 if isinstance(err, MissingSettingError) else 3
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
