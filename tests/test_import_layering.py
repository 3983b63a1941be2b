"""Import-direction guard: production code never reaches the oracles.

Every ``import`` statement of every module under ``src/repro`` —
module-level and deferred (inside functions) alike — is read with
``ast`` and checked against four rules:

* only ``repro.testing`` itself imports ``repro.testing``; the CLI's
  ``selfcheck`` subcommand, the harness's entry point, is the one
  exception;
* the engine does not import the dict twins of the four kernel metrics
  (``repro.metrics.resilience``, ``repro.metrics.distortion``) nor the
  dict partitioner, covers and biconnectivity they stand on
  (``repro.graph.partition``, ``repro.graph.cover``,
  ``repro.graph.components``) — those run only as test oracles — nor
  the dict policy DAG and the policy ball built from it
  (``repro.routing.policy.policy_dag``,
  ``repro.metrics.balls._policy_ball_from_dag``), the references of its
  array-sliced policy balls;
* the CSR kernels (``repro.graph.kernels*``) do not import
  ``repro.metrics`` — the graph layer sits below the metrics — nor the
  dict partitioner, covers and biconnectivity they are checked against
  (``repro.graph.partition``, ``repro.graph.cover``,
  ``repro.graph.components``): a kernel shares no code with its oracle;
* the generators (``repro.generators.*``) do not import ``scipy``:
  ``scipy.sparse.csgraph`` alone adds about 33 MB of resident memory to
  a process, more than the 10% peak-RSS budget of a streamed 500k-node
  PLRG build, whose component labelling is plain numpy.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules allowed to import ``repro.testing`` from outside it.
TESTING_IMPORTERS = {"repro.cli"}

#: The dict twins of the four kernel metrics' graph algorithms.
DICT_GRAPH_TWINS = (
    "repro.graph.partition",
    "repro.graph.cover",
    "repro.graph.components",
)

ENGINE_FORBIDDEN = (
    "repro.metrics.resilience",
    "repro.metrics.distortion",
    "repro.routing.policy.policy_dag",
    "repro.metrics.balls._policy_ball_from_dag",
) + DICT_GRAPH_TWINS

KERNELS_FORBIDDEN = ("repro.metrics",) + DICT_GRAPH_TWINS

GENERATORS_FORBIDDEN = ("scipy",)


def module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: pathlib.Path, name: str):
    """Every module an ``import`` statement in ``path`` names.

    ``from package import name`` yields both ``package`` and
    ``package.name``, so importing a submodule through its package is
    seen as importing the submodule.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def modules(root: pathlib.Path = SRC):
    for path in sorted((root / "repro").rglob("*.py")):
        name = module_name(path, root)
        yield name, imported_modules(path, name)


def within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def violations(root: pathlib.Path = SRC):
    found = []
    for name, imports in modules(root):
        for target in sorted(imports):
            if (
                within(target, "repro.testing")
                and not within(name, "repro.testing")
                and name not in TESTING_IMPORTERS
            ):
                found.append(f"{name} imports {target} (an oracle)")
            if within(name, "repro.engine") and any(
                within(target, forbidden) for forbidden in ENGINE_FORBIDDEN
            ):
                found.append(f"{name} imports {target} (a dict twin)")
            if name.startswith("repro.graph.kernels") and any(
                within(target, forbidden) for forbidden in KERNELS_FORBIDDEN
            ):
                found.append(f"{name} imports {target} (a layer above or a twin)")
            if within(name, "repro.generators") and any(
                within(target, forbidden) for forbidden in GENERATORS_FORBIDDEN
            ):
                found.append(f"{name} imports {target} (a heavy dependency)")
    return found


def test_import_directions_hold():
    assert violations() == []


def test_guard_sees_every_module_and_deferred_imports():
    names = dict(modules())
    assert {
        "repro.engine.core",
        "repro.engine.requests",
        "repro.graph.kernels",
        "repro.graph.kernels_flow",
        "repro.graph.kernels_trees",
        "repro.cli",
    } <= set(names)
    # The CLI imports the selfcheck harness inside a function: the walk
    # must see deferred imports, or the guard would miss them.
    assert "repro.testing.selfcheck" in names["repro.cli"]


@pytest.mark.parametrize(
    "source,name,expected",
    [
        ("from repro.metrics.resilience import resilience_of\n",
         "repro.engine.requests", "a dict twin"),
        ("def f():\n    from repro.metrics import distortion\n",
         "repro.graph.kernels_trees", "a layer above or a twin"),
        ("from repro.graph.partition import balance_bound\n",
         "repro.graph.kernels_flow", "a layer above or a twin"),
        ("from ..testing import oracles\n",
         "repro.harness.report", "an oracle"),
        ("from repro.routing.policy import PolicyProduct, policy_dag\n",
         "repro.engine.core", "a dict twin"),
        ("def f():\n    from ..metrics.balls import _policy_ball_from_dag\n",
         "repro.engine.core", "a dict twin"),
        ("def f():\n    from scipy.sparse import csgraph\n",
         "repro.generators.builder", "a heavy dependency"),
    ],
)
def test_guard_flags_a_planted_import(tmp_path, source, name, expected):
    # Plant the offending module in a throwaway tree: the guard must
    # flag it (a guard that cannot fail shows nothing).
    path = tmp_path.joinpath(*name.split(".")).with_suffix(".py")
    path.parent.mkdir(parents=True)
    path.write_text(source)
    assert any(expected in v for v in violations(tmp_path))
