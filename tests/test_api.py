"""The public names the package exports and the benchmark tracer rebinds,
and the input rules every entry point shares.

The tracer in ``bench/trace.py`` wraps functions by name; a rename or
deletion there would only surface as a crash of the benchmark run, so the
names are checked here. The tracer file is parsed, not imported.
"""

import ast
import functools
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import coherray
from coherray import classical, experiments, multimode, quantum

TRACE_FILE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"

PACKAGE = Path(coherray.__file__).resolve().parent

TESTS = Path(__file__).resolve().parent

TWO_PI = 2.0 * math.pi

# a docstring or comment pointing at a private helper: "see" and its name,
# bare or behind the name of one of the package's modules
SEE_PRIVATE = re.compile(r"\bsee\s+(?:(\w+)\.)?(_\w+)")


def traced_spans():
    """(module, function) pairs listed in the tracer's SPANS table."""
    tree = ast.parse(TRACE_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANS" for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in table.items() for name in names]
    raise AssertionError(f"no SPANS table in {TRACE_FILE}")


def test_every_exported_name_resolves():
    missing = [name for name in coherray.__all__ if not hasattr(coherray, name)]
    assert not missing, f"coherray.__all__ lists undefined names {missing}"


def test_every_traced_function_exists():
    spans = traced_spans()
    assert spans
    missing = [
        f"coherray.{layer}.{name}"
        for layer, name in spans
        if not callable(getattr(importlib.import_module(f"coherray.{layer}"), name, None))
    ]
    assert not missing, f"bench/trace.py wraps functions that are gone: {missing}"


# (module, choices tuple, call with an unknown choice, its message)
CHOICE_ERRORS = [
    (classical, "GEOMETRIES", lambda: classical.DetectorGrid(1.0, "disc"),
     "geometry must be {}, got 'disc'", "'hemisphere' or 'arc'"),
    (experiments, "REGIMES", lambda: experiments.dicke_scaling_check([2, 4, 8], regime="x"),
     "regime must be {}, got 'x'", "'closed_form' or 'farfield'"),
    (experiments, "PHASE_PROFILES",
     lambda: experiments._sweep_phase_profile({"phase_profile": "x"}, 3, None),
     "unknown phase_profile 'x' (use {})", "'uniform' or 'random'"),
    (quantum, "CONVENTIONS",
     lambda: quantum.single_mode_hamiltonian([0.0], 1.0, coherray.FockSpace(3), "x"),
     "convention 'x' is not {}", "canonical, phased-plus or phased-minus"),
]


@pytest.mark.parametrize("module, name, call, message, choices", CHOICE_ERRORS,
                         ids=[case[1] for case in CHOICE_ERRORS])
def test_choice_errors_name_the_choices_of_their_tuple(monkeypatch, module, name, call,
                                                       message, choices):
    """Each message has its fixed text, and the choices it lists are the
    tuple's: a choice added to the tuple shows up in the message."""
    with pytest.raises((ValueError, coherray.ConfigError)) as refused:
        call()
    assert str(refused.value) == message.format(choices)
    monkeypatch.setattr(module, name, (*getattr(module, name), "new"))
    with pytest.raises((ValueError, coherray.ConfigError)) as refused:
        call()
    last = "'new'" if "'" in choices else "new"
    assert str(refused.value) == message.format(choices.replace(" or ", ", ") + " or " + last)


def top_level_names(tree):
    """The names a module's top-level statements define or assign."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def read_names(node):
    """The names that ``node`` reads: loaded names and attribute names."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute)}


def test_no_private_helper_is_left_unread():
    """Each private top-level name of the package is read somewhere in its
    source outside its own definition, so a helper whose last caller is
    deleted goes with it. An import is not a read."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    private, read = set(), set()
    for tree in trees:
        for node in tree.body:
            own = {name for name in top_level_names(ast.Module([node], []))
                   if name.startswith("_") and not name.startswith("__")}
            private |= own
            read |= read_names(node) - own
    assert len(private) >= 100
    unread = sorted(private - read)
    assert not unread, f"private top-level names read nowhere: {unread}"


def test_every_see_pointer_names_a_top_level_definition():
    """Each "see" pointer to a private name, in the package's source or in
    the tests, names a function, class or constant defined at the top of
    one of the package's modules (or of the test's own module), and each
    pointer behind a module's name, at the top of that module, so a helper
    that is renamed or folded away leaves no pointer to it behind."""
    sources = {path: path.read_text(encoding="utf-8")
               for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]}
    defined = {path: top_level_names(ast.parse(text)) for path, text in sources.items()}
    package = set().union(*(names for path, names in defined.items() if path.parent == PACKAGE))

    def targets(path, module):
        if module:
            return defined.get(PACKAGE / f"{module}.py", set())
        return package | defined[path] if path.parent == TESTS else package

    pointers = [(path, module, name) for path, text in sources.items()
                for module, name in SEE_PRIVATE.findall(text)]
    assert len(pointers) >= 20 and any(module for _, module, _ in pointers)
    dangling = [f"{path.name}: see {module + '.' if module else ''}{name}"
                for path, module, name in pointers if name not in targets(path, module)]
    assert not dangling, f"pointers to no top-level definition: {dangling}"


def _grid(resolution):
    waves = coherray.PhasedWaveSet(coherray.WaveMode.plane((TWO_PI, 0.0, 0.0)), (0.0, 1.0))
    return classical.field_energy_grid(waves, coherray.BoxVolume((1.0, 1.0, 1.0)), resolution)


def _spectrum(steps):
    array = coherray.make_linear_array(3, 2.0, 0.5)
    detector = classical.DetectorGrid(radius=1e4, geometry="arc", samples=256)
    return classical.transmission_spectrum(array, (0.5, 3.0), steps, detector)


def _spectrum_range(lo, hi):
    array = coherray.make_linear_array(3, 0.5, 1.0)
    detector = classical.DetectorGrid(radius=1e4, geometry="arc", samples=64)
    return classical.transmission_spectrum(array, (lo, hi), 3, detector)


def _farfield_sweep(parameter, key):
    """A call running a far-field sweep of ``parameter`` whose fixed ``key``
    holds the value it is given."""
    fixed = {"n_sources": 3, "spacing": 0.3, "wavelength": 1.0, "samples": 64}
    return lambda value: experiments.run_sweep(experiments.SweepSpec(
        "farfield_power", parameter, 0.5, 1.0, 2, {**fixed, key: value}))


def _quadrature(samples):
    pair = multimode.ModePair(coherray.WaveMode.plane((TWO_PI, 0.0, 0.0)),
                              coherray.WaveMode.plane((3.0 * math.pi, 0.0, 0.0)))
    return multimode.overlap_integral_quadrature(pair, samples)


# (entry point, name in its message, call taking the count, a float it
# refuses, an integer it takes): every count the package reads, each read
# through core._integer
INTEGER_ENTRIES = [
    ("DetectorGrid", "samples", lambda n: classical.DetectorGrid(100.0, samples=n), 100.5, 128),
    ("field_energy_grid", "resolution", _grid, 16.0, 8),
    ("field_energy_grid-entry", "resolution", lambda n: _grid((8, n, 8)), 13.5, 13),
    ("transmission_spectrum", "steps", _spectrum, 3.0, 3),
    ("XorShift64Star", "seed", experiments.XorShift64Star, 3.7, 3),
    ("run_sweep", "fixed setting 'n_waves'",
     lambda n: experiments.run_sweep(experiments.SweepSpec(
         "classical_energy", "phase_delta", 0.0, 1.0, 3, {"n_waves": n})), 2.0, 2),
    ("dicke_scaling_check", "N value",
     lambda n: experiments.dicke_scaling_check([2, 4, n]), 8.0, 8),
    ("dicke_scaling_check-detector_samples", "detector_samples",
     lambda n: experiments.dicke_scaling_check([2, 4, 8], "farfield", detector_samples=n),
     64.5, classical.MIN_SAMPLES),
    ("overlap_integral_quadrature", "samples_per_axis", _quadrature, 2.5, 3),
    ("FockSpace-n_max", "n_max", lambda n: quantum.FockSpace(n_max=n), 2.5, 2),
    ("FockSpace-mode_count", "mode_count", lambda n: quantum.FockSpace(mode_count=n), 1.5, 2),
    ("fock", "occupation",
     lambda n: quantum.QuantumState.fock(quantum.FockSpace(n_max=4), n), 2.7, 2),
    ("superposition", "occupation", lambda n: quantum.QuantumState.superposition(
        quantum.FockSpace(n_max=4), [(1, n)]), 1.5, 1),
    ("SweepSpec", "steps",
     lambda n: experiments.SweepSpec("classical_energy", "phase_delta", 0.0, 1.0, n),
     np.float64(3.0), 3),
    ("make_linear_array", "n_sources", lambda n: coherray.make_linear_array(n, 0.5, 1.0), 2.5, 3),
]


@pytest.mark.parametrize("name, call, bad, good", [case[1:] for case in INTEGER_ENTRIES],
                         ids=[case[0] for case in INTEGER_ENTRIES])
def test_every_count_is_an_integer(name, call, bad, good):
    """A float is refused, not truncated, and a bool is not taken for 0 or
    1: each raises a TypeError that names the entry and the value. A numpy
    integer is taken."""
    for value in (bad, True):
        with pytest.raises(TypeError) as refused:
            call(value)
        assert str(refused.value) == f"{name} must be an integer, got {value!r}"
    call(np.int64(good))


def test_sweep_steps_are_stored_as_an_int():
    spec = experiments.SweepSpec("classical_energy", "phase_delta", 0.0, 1.0, np.int64(3))
    assert type(spec.steps) is int and spec.steps == 3


MODE = coherray.WaveMode.plane(np.array([1.0, 0.0, 0.0]))

# (entry point, name in its message, call taking the value, a value that is
# not a number, a number it takes): scales read through core._check_positive
# and phases, a sweep's fixed real settings and a range read through
# core._finite
REAL_ENTRIES = [
    ("DetectorGrid", "radius", lambda r: classical.DetectorGrid(radius=r), "100", 100.0),
    ("make_linear_array", "spacing", lambda d: coherray.make_linear_array(3, d, 1.0), "0.5", 0.5),
    ("biphoton_energy", "omega", lambda w: quantum.biphoton_energy(0.0, 1.0, w), None, 1.0),
    ("SweepSpec", "start",
     lambda x: experiments.SweepSpec("classical_energy", "phase_delta", x, 1.0, 3), "0", 0.0),
    ("biphoton_energy-delta_phi", "delta_phi", lambda p: quantum.biphoton_energy(p, 1.0, 1.0),
     "0", 0.0),
    ("ModePair-phi1", "phi1", lambda p: multimode.ModePair(MODE, MODE, phi1=p), "0", 0.0),
    ("ModePair-phi2", "phi2", lambda p: multimode.ModePair(MODE, MODE, phi2=p), "0", 0.0),
    ("dicke_scaling_check", "spacing_ratio",
     lambda s: experiments.dicke_scaling_check(
         [2, 4, 8], regime="farfield", spacing_ratio=s, detector_samples=classical.MIN_SAMPLES),
     "0.01", 0.01),
    ("transmission_spectrum-lo", "wavelength_range", lambda lo: _spectrum_range(lo, 3), "0.5", 0.5),
    ("transmission_spectrum-hi", "wavelength_range", lambda hi: _spectrum_range(0.5, hi), "3", 3.0),
    ("run_sweep-spacing", "fixed setting 'spacing'", _farfield_sweep("wavelength", "spacing"),
     "0.3", 0.3),
    ("run_sweep-wavelength", "fixed setting 'wavelength'", _farfield_sweep("spacing", "wavelength"),
     "1", 1.0),
    ("run_sweep-radius", "fixed setting 'radius'", _farfield_sweep("wavelength", "radius"),
     "1000", 1000.0),
    ("run_sweep-phase", "fixed setting 'phase'", _farfield_sweep("wavelength", "phase"), "0", 0.0),
    ("run_sweep-omega", "fixed setting 'omega'", lambda w: experiments.run_sweep(
        experiments.SweepSpec("biphoton", "phase_delta", 0.0, 1.0, 2, {"overlap": 1.0, "omega": w})),
     "1", 1.0),
]


@pytest.mark.parametrize("name, call, bad, good", [case[1:] for case in REAL_ENTRIES],
                         ids=[case[0] for case in REAL_ENTRIES])
def test_every_scale_is_a_real_number(name, call, bad, good):
    """A value that is not a number raises a TypeError that names the entry
    and the value, not Python's own "must be real number, not str"."""
    with pytest.raises(TypeError) as refused:
        call(bad)
    assert str(refused.value) == f"{name} must be a real number, got {bad!r}"
    call(good)


# what only the owners of the input rules may write: the integer idiom and
# the rules' messages
RULE_TEXT = re.compile(
    r"operator\.index|must be (?:an )?integers?\b|positive and finite|must be a real number"
)


def test_core_alone_owns_the_input_rules():
    """Outside core.py, no module calls operator.index or raises its own
    integer, real-number or positive-and-finite message: each goes through
    core._integer, core._finite or core._check_positive, so the rules
    cannot drift."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert RULE_TEXT.search(sources["core.py"])
    copies = [f"{name}: {match.group()}" for name, text in sorted(sources.items())
              if name != "core.py" for match in RULE_TEXT.finditer(text)]
    assert not copies, f"input rules restated outside core.py: {copies}"


@functools.cache
def package_functions():
    """(module.function, source) for each function of the package, each
    module parsed once per session."""
    functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        functions += [(f"{path.stem}.{node.name}", ast.get_source_segment(text, node))
                      for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)]
    return functions


def functions_writing(pattern):
    """module.function for each function of the package whose source
    matches ``pattern``."""
    return [name for name, source in package_functions() if pattern.search(source)]


@pytest.mark.parametrize("pattern", [r"\bround\(", r"N >= 1", r"XorShift64Star\(spec\.seed\)"],
                         ids=["round", "refusal", "stream"])
def test_one_function_owns_the_step_rule(pattern):
    """One function gives every sweep its steps' counts and phases: only it
    rounds values to counts, refuses a count below 1 and seeds the phase
    stream, so the closed-form, far-field and dicke routes cannot drift."""
    assert functions_writing(re.compile(pattern)) == ["experiments._steps"]


@pytest.mark.parametrize("pattern", [r"\b_step_powers\(", r"\bmake_linear_array\(",
                                     r"\b_checked_extent\(", r"\b_check_farfield_sweep\("],
                         ids=["walk", "build", "table", "pre-check"])
def test_one_function_drives_the_far_field(pattern):
    """Within experiments, only _sweep_farfield builds arrays and tables of
    steps, checks them and walks them: the far-field dicke fit is one of its
    sweeps, so no second far-field driver, with its own checks, can drift
    from it."""
    found = [name for name in functions_writing(re.compile(pattern))
             if name.startswith("experiments.")]
    assert found == ["experiments._sweep_farfield"]
