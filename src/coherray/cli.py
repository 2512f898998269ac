"""Command-line front end: config resolution, dispatch, CSV/JSON emission.

The field tables (``_GLOBAL_FIELDS``, ``_UNITS_FIELDS`` and one table
per subcommand) are the only list of settings: they define the flags,
the config keys, the resolved settings and the ``config.*`` metadata.
Resolution order for every setting: built-in default, then the config
file (section ``global`` for shared flags, one section per subcommand),
then command-line flags. Outputs echo every field of the global, units
and subcommand tables as ``config.<name>`` metadata and are
byte-identical for identical configurations. The choices of the
enumerated flags and the far-field default radius come from the library
modules that check them.

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
from dataclasses import astuple, dataclass, fields

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


def _parse_list(convert, kind: str):
    def parse(text: str) -> tuple:
        parts = [p for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise ValueError(f"expected a comma-separated list of {kind}")
        return tuple(convert(p) for p in parts)

    return parse


_parse_floats = _parse_list(_parse_float, "numbers")
_parse_ints = _parse_list(int, "integers")


def _parse_vec3(text: str) -> tuple:
    values = _parse_floats(text)
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated numbers, got {len(values)}")
    return values


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


def _bounded(convert, holds, rule: str):
    """``convert``, refusing a value for which ``holds`` is false."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(f"must be {rule}, got {text!r}")
        return value

    return parse


_positive = _bounded(_parse_float, lambda value: value > 0.0, "positive")
_nonzero = _bounded(_parse_float, lambda value: value != 0.0, "nonzero")
_count = _bounded(int, lambda value: value >= 1, "at least 1")
_steps = _bounded(int, lambda value: value >= 2, "at least 2")
_samples = _bounded(int, lambda value: value >= classical.MIN_SAMPLES,
                    f"at least {classical.MIN_SAMPLES}")

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
    _Field("samples", _samples, None, "quadrature density (detector points per axis)"),
    _Field("n-max", _count, 32, "number-state truncation of the quantum space"),
    _Field("format", _choice("csv", "json"), "csv", "output format"),
    _Field("output", str, None, "output path (default: standard output)"),
)

# the flags of _GLOBAL_FIELDS and --config, which every subcommand takes
_GLOBAL_FLAGS = frozenset([f"--{field_spec.name}" for field_spec in _GLOBAL_FIELDS] + ["--config"])

_UNITS_FIELDS = (
    _Field("energy-scale", _positive, 1.0, "multiplies emitted energies (outputs only)"),
)

_SWEEP_TARGETS = _choice(*dict.fromkeys(target for target, _ in experiments._SWEEPS))
_SWEEP_PARAMETERS = _choice(*dict.fromkeys(parameter for _, parameter in experiments._SWEEPS))

_SUBCOMMAND_FIELDS = {
    "classical": (
        _Field("n-waves", _count, _REQUIRED, "number of phase-coherent waves"),
        _Field("delta-phi", _parse_float, 0.0, "progressive phase step phi_n = n * delta"),
        _Field("phases", _parse_floats, None, "explicit phase list (overrides delta-phi)"),
        _Field("amplitude", _nonzero, 1.0, "common wave amplitude"),
        _Field("wavelength", _positive, 1.0, "wavelength of the shared mode"),
    ),
    "quantum": (
        _Field("n-waves", _count, _REQUIRED, "number of phase-coherent waves"),
        _Field("delta-phi", _parse_float, 0.0, "progressive phase step phi_n = n * delta"),
        _Field("phases", _parse_floats, None, "explicit phase list (overrides delta-phi)"),
        _Field("n", int, 0, "occupation of the number state"),
        _Field("omega", _positive, 1.0, "mode frequency"),
        _Field(
            "convention",
            _choice(*quantum.CONVENTIONS),
            quantum.CONVENTIONS[0],
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
        _Field("omega", _positive, 1.0, "photon frequency"),
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
        _Field("n-waves", _count, None, "fixed: wave count (phase_delta sweeps)"),
        _Field("n-sources", _count, None, "fixed: source count (farfield)"),
        _Field("spacing", _positive, None, "fixed: array spacing"),
        _Field("wavelength", _positive, None, "fixed: wavelength"),
        _Field("n", int, None, "fixed: occupation (quantum_energy)"),
        _Field("omega", _positive, None, "fixed: frequency"),
        _Field("overlap", _parse_complex, None, "fixed: mode overlap (biphoton)"),
        _Field("phase", _parse_float, None, "fixed: constant phase offset"),
        _Field(
            "phase-profile",
            _choice(*experiments.PHASE_PROFILES),
            None,
            "fixed: phase profile for source_count sweeps",
        ),
        _Field("geometry", _choice(*classical.GEOMETRIES), None, "fixed: detector geometry"),
        _Field("radius", _positive, None, "fixed: detector radius"),
        _Field("components", _parse_components, None, "fixed: wavepacket components"),
        _Field("box", _parse_vec3, None, "fixed: box side lengths"),
        _Field("direction", _parse_vec3, None, "fixed: wavepacket direction"),
        _Field("component", int, None, "fixed: swept component index"),
    ),
    "dicke": (
        _Field("n-values", _parse_ints, _REQUIRED, "source counts to fit, e.g. '2,4,8'"),
        _Field(
            "regime",
            _choice(*experiments.REGIMES),
            experiments.REGIMES[0],
            "closed-form energies or detected far-field power",
        ),
        _Field("spacing-ratio", _positive, 0.01, "array spacing over wavelength"),
        _Field("jitter", _parse_float, 0.0, "position jitter as a fraction of spacing"),
    ),
    "spectrum": (
        _Field("n-sources", _count, _REQUIRED, "source count of the linear array"),
        _Field("spacing", _positive, _REQUIRED, "array spacing"),
        _Field("wavelength-min", _positive, _REQUIRED, "sweep start wavelength"),
        _Field("wavelength-max", _positive, _REQUIRED, "sweep stop wavelength"),
        _Field("steps", _steps, 200, "number of wavelengths"),
        _Field(
            "geometry",
            _choice(*classical.GEOMETRIES),
            classical.DRIVER_GEOMETRY,
            "detector geometry",
        ),
        _Field("radius", _positive, None, "detector radius (default: far-field minimum)"),
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


def _sections(subcommand: str | None) -> dict:
    """Field tables by config section: the subcommand's (every subcommand's
    when ``subcommand`` is None), then global and units. A missing
    subcommand key is thus reported before a global value out of range."""
    names = _SUBCOMMAND_FIELDS if subcommand is None else (subcommand,)
    sections = {name: _SUBCOMMAND_FIELDS[name] for name in names}
    sections.update({"global": _GLOBAL_FIELDS, "units": _UNITS_FIELDS})
    return sections


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run: the subcommand and every setting of its
    sections, keyed by field dest."""

    subcommand: str
    settings: dict


class _RaisingParser(argparse.ArgumentParser):
    """argparse that raises every usage failure as exit code 2 instead of
    exiting; no flag has argparse choices or is argparse-required."""

    def error(self, message):
        raise _CliError(2, message)


def _add_flags(parser: _RaisingParser, name: str) -> _RaisingParser:
    """``parser`` with the global flags, ``--config`` and subcommand ``name``'s fields."""
    for field_spec in _GLOBAL_FIELDS:
        parser.add_argument(f"--{field_spec.name}", default=None, help=field_spec.help)
    parser.add_argument("--config", default=None, help="config file path")
    for field_spec in _SUBCOMMAND_FIELDS[name]:
        parser.add_argument(f"--{field_spec.name}", default=None, help=field_spec.help)
    return parser


def _build_parser(name: str | None) -> _RaisingParser:
    """A run's flat parser for subcommand ``name``, else the full parser.

    A run is an argv whose first word names a subcommand; one flat
    ``coherray NAME`` parser reads the words after it. Help, a missing or
    unknown command and a flag before the command (``name`` None) build
    the full parser, the top level with all eight subparsers, which alone
    prints the top-level usage and choice list.
    """
    if name is not None:
        return _add_flags(_RaisingParser(prog=f"coherray {name}"), name)
    parser = _RaisingParser(
        prog="coherray",
        description="Collective energy of N phase-coherent waves",
        epilog=(
            "config file: one 'section.key = value' per line; sections are"
            " 'global', 'units', and the subcommand names"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for sub in _SUBCOMMAND_FIELDS:
        _add_flags(subparsers.add_parser(sub, help=_SUBCOMMAND_HELP[sub]), sub)
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
    tables = _sections(None)
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


def parse_config(argv) -> RunConfig:
    """Resolve argv plus an optional --config file into a RunConfig.

    Raises _CliError with the documented exit code on any failure.
    """
    argv = list(argv)
    # argparse reads the global flags only after the subcommand; before it,
    # it would take the flag's value for the subcommand
    flag = argv[0].partition("=")[0] if argv else ""
    if flag in _GLOBAL_FLAGS:
        raise _CliError(
            2, f"global flag {flag} goes after the subcommand: coherray COMMAND {flag} ..."
        )
    name = argv[0] if argv and argv[0] in _SUBCOMMAND_FIELDS else None
    namespace, unknown = _build_parser(name).parse_known_args(argv[1:] if name else argv)
    if unknown:
        raise _CliError(5, f"unrecognized arguments: {' '.join(unknown)}")
    flag_values = vars(namespace)
    # only the full parser sets the command; a run's parser reads what follows it
    subcommand = flag_values.pop("command", name)

    path = flag_values.pop("config")
    file_entries = _read_config_file(path) if path else {}

    # no flag has a units dest, so that section reads only the file
    settings = {}
    for name, fields in _sections(subcommand).items():
        file_section = {key: value for (sec, key), value in file_entries.items() if sec == name}
        origin = "" if name == subcommand else f"{name}."
        settings.update(_resolve(fields, flag_values, file_section, origin))
    return RunConfig(subcommand, settings)


@dataclass(frozen=True)
class ResultTable:
    """Serialized-result shape: columns, rows and metadata."""

    columns: tuple
    rows: tuple
    meta: dict


# energy quantities (first cell of a quantity/value row) and energy
# columns: the cells they name are multiplied by the unit scale on emission
_ENERGIES = frozenset(
    {"diagonal", "cross", "total", "photon_energy", "vacuum_energy", "total_energy",
     "power", "energy"}
)


def _report_table(values, meta: dict) -> ResultTable:
    """One quantity/value row per EnergyReport field, in field order."""
    names = (field_spec.name for field_spec in fields(EnergyReport))
    return ResultTable(("quantity", "value"), tuple(zip(names, values)), meta)


def _curve_table(curve: SpectrumCurve) -> ResultTable:
    meta = dict(curve.metadata)
    name = meta.get("parameter", "wavelength")
    rows = tuple(
        (float(p), float(pw), float(e))
        for p, pw, e in zip(curve.parameter, curve.power, curve.enhancement)
    )
    return ResultTable((name, "power", "enhancement"), rows, meta)


def _ramp_or_phases(params: dict) -> np.ndarray:
    n = params["n_waves"]
    _check_wave_budget(n)
    if params.get("phases") is not None:
        phases = np.asarray(params["phases"], dtype=float)
        if phases.size != n:
            raise ConfigError(f"phases has {phases.size} entries for n-waves = {n}")
        return phases
    return np.arange(n) * params["delta_phi"]


def _run_classical(params: dict) -> ResultTable:
    phases = _ramp_or_phases(params)
    mode = WaveMode.plane(
        np.array([TWO_PI / params["wavelength"], 0.0, 0.0]), amplitude=params["amplitude"]
    )
    report = classical.classical_energy(PhasedWaveSet(mode, tuple(phases)))
    meta = {"kind": "classical_energy", "n_waves": params["n_waves"]}
    return _report_table(astuple(report), meta)


def _run_quantum(params: dict) -> ResultTable:
    phases = _ramp_or_phases(params)
    occupation, n_max = experiments._occupation(params)
    convention = params["convention"]
    space = quantum.FockSpace(n_max=n_max)
    state = quantum.QuantumState.fock(space, occupation)
    operator = quantum.single_mode_hamiltonian(phases, params["omega"], space, convention)
    total = quantum.expectation_energy(state, operator)
    # the self part on |n>: N uncorrelated waves of omega * (n + 1/2) each
    diagonal = params["n_waves"] * params["omega"] * (occupation + 0.5)
    meta = {
        "kind": "quantum_energy",
        "n_waves": params["n_waves"],
        "n": occupation,
        "convention": convention,
    }
    return _report_table((diagonal, total - diagonal, total, total / diagonal), meta)


def _run_overlap(params: dict) -> ResultTable:
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


def _run_biphoton(params: dict) -> ResultTable:
    photon = quantum.biphoton_energy(
        params["delta_phi"], params["overlap"], params["omega"]
    )
    rows = (
        ("photon_energy", photon),
        ("vacuum_energy", photon / 2.0),
        ("total_energy", 1.5 * photon),
    )
    return ResultTable(("quantity", "value"), rows, {"kind": "biphoton"})


def _run_wavepacket(params: dict) -> ResultTable:
    spectrum = multimode.WavepacketSpectrum(
        np.asarray(params["direction"], dtype=float),
        params["components"],
        BoxVolume(np.asarray(params["box"])),
    )
    report = multimode.wavepacket_energy(spectrum)
    meta = {"kind": "wavepacket", "n_components": spectrum.n_components}
    return _report_table(astuple(report), meta)


def _run_sweep(params: dict) -> ResultTable:
    # run_sweep keeps only the keys the sweep reads; "box" is spelled box_lengths there
    fixed = {
        ("box_lengths" if key == "box" else key): value
        for key, value in params.items()
        if value is not None
    }
    spec = SweepSpec(
        target=params["target"],
        parameter=params["parameter"],
        start=params["start"],
        stop=params["stop"],
        steps=params["steps"],
        fixed=fixed,
        seed=params["seed"],
    )
    return _curve_table(experiments.run_sweep(spec))


def _run_dicke(params: dict) -> ResultTable:
    # without --samples, the fit takes its own default detector size
    samples = {} if params["samples"] is None else {"detector_samples": params["samples"]}
    fit = experiments.dicke_scaling_check(
        params["n_values"],
        regime=params["regime"],
        spacing_ratio=params["spacing_ratio"],
        jitter=params["jitter"],
        seed=params["seed"],
        **samples,
    )
    meta = {
        "kind": "dicke_scaling",
        "regime": params["regime"],
        "exponent": fit.exponent,
        "r_squared": fit.r_squared,
    }
    rows = tuple((int(n), float(e)) for n, e in fit.points)
    return ResultTable(("n", "energy"), rows, meta)


def _run_spectrum(params: dict) -> ResultTable:
    lo, hi = params["wavelength_min"], params["wavelength_max"]
    if not lo < hi:
        raise ConfigError(f"wavelength-min = {lo} must be below wavelength-max = {hi}")
    array = make_linear_array(params["n_sources"], params["spacing"], lo)
    radius = params["radius"]
    if radius is None:
        radius = classical._far_field_radius(hi, array.extent)
    # without --samples, the detector takes DetectorGrid's own default
    samples = {} if params["samples"] is None else {"samples": params["samples"]}
    detector = DetectorGrid(radius=radius, geometry=params["geometry"], **samples)
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
    if isinstance(value, tuple):
        # a tuple of tuples (wavepacket components) joins its rows with ';'
        nested = bool(value) and isinstance(value[0], tuple)
        return (";" if nested else ",").join(_format_meta_value(item) for item in value)
    return str(value)


def _config_echo(config: RunConfig) -> dict:
    echo = {"config.subcommand": config.subcommand}
    for fields in _sections(config.subcommand).values():
        for field_spec in fields:
            value = config.settings[field_spec.dest]
            echo[f"config.{field_spec.name}"] = _format_meta_value(value)
    return echo


def _scaled_rows(table: ResultTable, scale: float) -> list:
    """Rows with every float cell whose column or row label is an energy scaled."""
    return [
        [
            cell * scale
            if isinstance(cell, float) and (column in _ENERGIES or row[0] in _ENERGIES)
            else cell
            for column, cell in zip(table.columns, row)
        ]
        for row in table.rows
    ]


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
        lines.append(",".join(_format_meta_value(cell) for cell in row))
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
    settings = config.settings
    rows = _scaled_rows(result, settings["energy_scale"])
    if settings["format"] == "json":
        text = _render_json(meta, result.columns, rows)
    else:
        text = _render_csv(meta, result.columns, rows)
    if settings["output"] is None:
        sys.stdout.write(text)
    else:
        with open(settings["output"], "w", encoding="utf-8") as handle:
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
        table = _RUNNERS[config.subcommand](config.settings)
        return emit_results(table, config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4 if isinstance(err, MissingSettingError) else 3
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
