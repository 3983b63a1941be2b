#!/usr/bin/env python
"""CI determinism gate: the same computation must produce the same
output, byte for byte.

Generates two small topologies, runs ``repro compare`` on them twice
(cache disabled, fresh process each time so no in-process state can
leak, ``PYTHONHASHSEED`` 0 in the first run and 1 in the second), and
diffs the two reports.  Each run also appends the output of
``repro metric clustering`` and ``repro metric path-length`` on the
PLRG, so the two dict-evaluator series are gated too.  The CLI prints
three significant digits, so each run also prints, at full precision
(``repr``), all seven series of one ``MetricEngine`` pass, the six
ball-metric series of a synthetic AS graph under policy routing
(Appendix E's policy-induced balls), the same series on that graph
relabelled ``as<i>`` (string labels, whose hashing differs between the
two runs), the Section 5 link values of a
small PLRG and of that AS graph with and without policy routing, and
the PLRG's ``graph_fingerprint`` in dict and frozen form (the key of
every cache entry and journal record).  It also prints the six
ball-metric series of a 20,000-node streamed PLRG at their default
``max_ball_size``, a ball-only pass whose per-center BFS stops once the
largest bound is passed; the first run computes them serially and the
second with ``--workers``, so they are compared across worker counts
too.  Any drift — RNG seeded off the clock,
dict-ordering or hash-ordering leaks, float nondeterminism — fails the
build.

Usage: python tools/check_determinism.py [--workers N]
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Printed by a fresh interpreter per run: ``python -c VALUES_SCRIPT
# WORKERS REACH_WORKERS``.
VALUES_SCRIPT = """
import sys

from repro.engine import METRICS, MetricEngine, MetricRequest, graph_fingerprint
from repro.generators.builder import GraphBuilder
from repro.generators.plrg import plrg
from repro.graph.core import Graph
from repro.hierarchy import link_values
from repro.internet import synthetic_as_graph
from repro.internet.asgraph import ASGraphParams
from repro.routing.policy import CUSTOMER, PEER, PROVIDER, Relationships

engine = MetricEngine(workers=int(sys.argv[1]), use_cache=False)
requests = [
    MetricRequest(name, num_centers=4, max_ball_size=200, seed=1)
    for name in METRICS
]
graph = plrg(300, 2.246, seed=5)
print("fingerprint", graph_fingerprint(graph), graph_fingerprint(graph.freeze()))
series = engine.compute(graph, requests)
for name in METRICS:
    print(name, repr(series[name]))
print("plrg", repr(sorted(link_values(plrg(150, 2.246, seed=5), seed=1).items())))
as_graph = synthetic_as_graph(ASGraphParams(n=150), seed=4)
ball_names = [name for name in METRICS if METRICS[name].kind == "ball"]
label = {v: f"as{v}" for v in as_graph.graph.nodes()}
relabelled = Graph()
relabelled.add_nodes_from(label.values())
relabelled.add_edges_from((label[u], label[v]) for u, v in as_graph.graph.iter_edges())
relabelled_rels = Relationships()
for u, v in as_graph.relationships.annotated_edges():
    rel = as_graph.relationships.rel(u, v)
    if rel == PROVIDER:
        relabelled_rels.set_provider_customer(provider=label[v], customer=label[u])
    elif rel == CUSTOMER:
        relabelled_rels.set_provider_customer(provider=label[u], customer=label[v])
    elif rel == PEER:
        relabelled_rels.set_peer(label[u], label[v])
    else:
        relabelled_rels.set_sibling(label[u], label[v])
for tag, graph, rels in (
    ("policy", as_graph.graph, as_graph.relationships),
    ("policy-as<i>", relabelled, relabelled_rels),
):
    policy = engine.compute(graph, [
        MetricRequest(name, num_centers=4, max_ball_size=120, rels=rels, seed=1)
        for name in ball_names
    ])
    for name in ball_names:
        print(tag, name, repr(policy[name]))
for rels in (None, as_graph.relationships):
    values = link_values(as_graph.graph, rels=rels, seed=1)
    print("as", rels is not None, repr(sorted(values.items())))
streamed = plrg(20_000, 2.246, seed=1, sink=GraphBuilder())
reach = MetricEngine(workers=int(sys.argv[2]), use_cache=False).compute(
    streamed, [MetricRequest(name, seed=1) for name in ball_names]
)
for name in ball_names:
    print("reach-bounded", name, repr(reach[name]))
"""


def run_python(args: list[str], cwd: str, hash_seed: str = "0") -> str:
    """Run ``python ARGS`` with ``src/`` on ``PYTHONPATH`` and the given
    ``PYTHONHASHSEED``; returns stdout."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout


def run_cli(args: list[str], cwd: str, hash_seed: str = "0") -> str:
    """Run ``python -m repro ARGS``; returns its stdout."""
    return run_python(["-m", "repro", *args], cwd, hash_seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=0)
    opts = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        tree, plrg = os.path.join(tmp, "tree.edges"), os.path.join(tmp, "plrg.edges")
        run_cli(["generate", "tree", "--k", "3", "--depth", "5", "--out", tree], tmp)
        run_cli(
            ["generate", "plrg", "--n", "300", "--seed", "5", "--out", plrg], tmp
        )

        ball_flags = [
            "--centers", "4", "--max-ball", "200",
            "--workers", str(opts.workers), "--no-cache",
        ]
        reports = []
        for i in (1, 2):
            seed = str(i - 1)
            out = os.path.join(tmp, f"report{i}.md")
            run_cli(["compare", tree, plrg, *ball_flags, "--out", out], tmp, seed)
            with open(out) as fh:
                report = fh.read()
            for metric in ("clustering", "path-length"):
                report += run_cli(["metric", plrg, metric, *ball_flags], tmp, seed)
            reach_workers = 0 if i == 1 else opts.workers
            report += run_python(
                ["-c", VALUES_SCRIPT, str(opts.workers), str(reach_workers)],
                tmp,
                seed,
            )
            reports.append(report)

    if reports[0] != reports[1]:
        sys.stderr.write("determinism check FAILED: reports differ\n\n")
        sys.stderr.writelines(
            difflib.unified_diff(
                reports[0].splitlines(keepends=True),
                reports[1].splitlines(keepends=True),
                fromfile="report1.md",
                tofile="report2.md",
            )
        )
        return 1

    print(
        "determinism check OK: identical reports "
        f"({len(reports[0])} bytes, workers={opts.workers})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
