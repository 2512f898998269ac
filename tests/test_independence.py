"""The brute-force routes never reach the closed forms they are checked against.

A route that called the formula it is compared with would agree with it by
construction, and every cross-check built on it would pass whatever the
physics. ROUTES names each guarded route and the closed forms it must not
reach. The package source is parsed, not imported: from the route, every
call and every name that refers to a coherray function, class or method
is followed, through helpers, modules and classes, and the closed forms
must stay outside that set.

The walk over-approximates on purpose. A reached class brings in all of
its methods, and ``obj.attr`` brings in every coherray method or property
named ``attr``, whatever the type of ``obj``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coherray"

CLOSED_FORMS = ("phase_sum", "_sinc", "box_overlap", "overlap_integral", "classical_energy")

# route (module, function) -> closed forms it is checked against
ROUTES = {
    ("classical", "farfield_powers"): CLOSED_FORMS,
    # the grid calls _sinc on purpose: the sinc product feeds only its
    # `commensurate` flag, never the energy it integrates
    ("classical", "field_energy_grid"): tuple(name for name in CLOSED_FORMS if name != "_sinc"),
    ("multimode", "overlap_integral_quadrature"): CLOSED_FORMS,
    ("quantum", "expectation_energy"): CLOSED_FORMS,
    ("quantum", "single_mode_hamiltonian"): CLOSED_FORMS,
}


class CallGraph:
    """Top-level functions, classes and methods of the package, each with
    the coherray definitions its body refers to."""

    def __init__(self, package: Path):
        self.bodies = {}  # (module, qualified name) -> ast node
        self.methods = {}  # method or property name -> [(module, "Class.name")]
        self.namespaces = {}  # module -> {local name: (module, name) or module}
        trees = {
            path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))
        }
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.bodies[(module, node.name)] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            key = (module, f"{node.name}.{item.name}")
                            self.bodies[key] = item
                            self.methods.setdefault(item.name, []).append(key)
        for module, tree in trees.items():
            namespace = {name: (mod, name) for mod, name in self.bodies if mod == module}
            # imports anywhere in the module, including those inside functions
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if node.module is None:
                            namespace[local] = alias.name  # a sibling module
                        else:
                            namespace[local] = (node.module, alias.name)
            self.namespaces[module] = namespace

    def references(self, key):
        """Definitions the body of ``key`` refers to, directly."""
        module = key[0]
        namespace = self.namespaces[module]
        found = set()
        node = self.bodies[key]
        if isinstance(node, ast.ClassDef):
            found.update(k for k in self.bodies if k[0] == module
                         and k[1].startswith(f"{node.name}."))
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                target = namespace.get(child.id)
                if isinstance(target, tuple):
                    found.add(target)
            elif isinstance(child, ast.Attribute):
                owner = child.value.id if isinstance(child.value, ast.Name) else None
                if isinstance(namespace.get(owner), str):
                    found.add((namespace[owner], child.attr))
                found.update(self.methods.get(child.attr, ()))
        return {target for target in found if target in self.bodies}

    def reachable(self, start):
        seen, stack = {start}, [start]
        while stack:
            for target in self.references(stack.pop()) - seen:
                seen.add(target)
                stack.append(target)
        return seen


@pytest.fixture(scope="module")
def graph():
    return CallGraph(PACKAGE)


def reached_names(graph, route):
    return {name.rpartition(".")[2] for _, name in graph.reachable(route)}


@pytest.mark.parametrize("route", sorted(ROUTES), ids=lambda route: ".".join(route))
def test_route_never_reaches_its_closed_forms(graph, route):
    assert route in graph.bodies, f"route {route} is not defined in the package"
    reached = reached_names(graph, route)
    forbidden = sorted(reached.intersection(ROUTES[route]))
    assert not forbidden, f"{'.'.join(route)} reaches {forbidden}"


def test_the_walk_follows_helpers_modules_and_methods(graph):
    """The graph sees what the routes really use, so an empty intersection
    above means something."""
    farfield = reached_names(graph, ("classical", "farfield_powers"))
    assert {"_stack_walk", "_planned_stacks", "_row_blocks", "_chunk_rows", "_path_differences",
            "_run_powers", "_row_weights", "_fold", "_fundamental_rows", "_detector_quadrature",
            "_check_budget", "_check_work", "_step_powers", "_distinct_phases", "wavenumber",
            "n_points"} <= farfield
    grid = reached_names(graph, ("classical", "field_energy_grid"))
    assert {"_slab_walk", "_check_budget", "_check_work", "wavenumber", "n_waves"} <= grid
    # positive controls: closed forms reached through a module attribute,
    # through a name imported from another module and through a helper
    assert "classical_energy" in reached_names(graph, ("experiments", "dicke_scaling_check"))
    assert "phase_sum" in reached_names(graph, ("classical", "classical_energy"))
    assert "box_overlap" in reached_names(graph, ("multimode", "overlap_integral"))
