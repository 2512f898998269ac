"""The public names the package exports and the benchmark tracer rebinds.

The tracer in ``bench/trace.py`` wraps functions by name; a rename or
deletion there would only surface as a crash of the benchmark run, so the
names are checked here. The tracer file is parsed, not imported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import coherray
from coherray import classical, experiments, quantum

TRACE_FILE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"

PACKAGE = Path(coherray.__file__).resolve().parent

TESTS = Path(__file__).resolve().parent

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
