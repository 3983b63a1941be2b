"""Metamorphic/invariant checkers for graphs, metric series, and the engine.

Each ``check_*`` function returns a list of human-readable violation
strings — empty means everything held.  Collecting violations (instead
of asserting) lets :mod:`repro.testing.selfcheck` aggregate results
across many random inputs and report them together, while the property
tests simply assert the list is empty.

The invariants encode paper-level facts that hold for *any* correct
implementation, independent of the topology under test:

* ``Graph`` internal consistency (symmetry, edge counts, no self-loops);
* E(h) is monotone non-decreasing and reaches exactly 1 on a connected
  graph (every ball eventually covers everything);
* R(n) >= 1 and D(n) >= 1 on connected balls (a connected ball always
  needs at least one cut edge; tree distances are at least 1);
* label-invariance: relabelling the nodes must not change any metric
  that is a pure function of the isomorphism class (expansion,
  biconnectivity, clustering, path length).  Metrics computed by
  randomised heuristics (resilience, distortion) and order-sensitive
  tie-breaking (vertex cover) are excluded here and bounded against
  oracles in the property tests instead;
* engine equivalence: ``MetricEngine(workers=N)``, with or without the
  cache, and the dict-of-sets :class:`~repro.testing.OracleEngine` must
  all reproduce ``workers=0`` and the legacy per-metric path bitwise
  (the engine's determinism contract, extended to the CSR
  representation and the fused batch kernels).
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.core import Graph
from repro.graph.traversal import is_connected

Series = Sequence[Tuple[float, float]]

#: Metrics whose value is a pure function of the isomorphism class at
#: small sizes.  Integer-summing metrics are checked for *exact*
#: relabelling invariance; ``clustering`` and ``path_length`` accumulate
#: floats in node/center order, so they are compared with a tolerance
#: (reassociation moves the last bits).
RELABEL_EXACT = ("expansion", "biconnectivity")
RELABEL_APPROX = ("clustering", "path_length")


def check_graph_invariants(graph: Graph) -> List[str]:
    """Internal-consistency invariants of the ``Graph`` substrate."""
    problems: List[str] = []
    adj_total = 0
    for node in graph.nodes():
        neighbors = graph.neighbors(node)
        adj_total += len(neighbors)
        if node in neighbors:
            problems.append(f"self-loop stored at node {node!r}")
        for other in neighbors:
            if other not in graph:
                problems.append(f"edge to unknown node {other!r} from {node!r}")
            elif node not in graph.neighbors(other):
                problems.append(f"asymmetric edge {node!r} -> {other!r}")
    if adj_total != 2 * graph.number_of_edges():
        problems.append(
            f"degree sum {adj_total} != 2 * number_of_edges "
            f"{graph.number_of_edges()}"
        )
    edges = graph.edges()
    if len(edges) != graph.number_of_edges():
        problems.append(
            f"edges() yields {len(edges)} edges, counter says "
            f"{graph.number_of_edges()}"
        )
    if len({frozenset(e) for e in edges}) != len(edges):
        problems.append("edges() reported a duplicate edge")
    copy = graph.copy()
    if copy.number_of_nodes() != graph.number_of_nodes() or set(
        map(frozenset, copy.iter_edges())
    ) != set(map(frozenset, edges)):
        problems.append("copy() is not structure-preserving")
    return problems


def check_series_invariants(
    metric: str, series: Series, graph: Graph
) -> List[str]:
    """Paper-level invariants of one metric series on plain (BFS) balls.

    ``metric`` is an engine metric name; ``series`` its
    ``[(x, value), ...]`` output computed on ``graph`` with
    ``max_ball_size=None`` (so expansion may reach full coverage).
    """
    problems: List[str] = []
    if metric == "expansion":
        values = [v for _h, v in series]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"E(h) not monotone non-decreasing: {values}")
        if any(not (0.0 < v <= 1.0) for v in values):
            problems.append(f"E(h) outside (0, 1]: {values}")
        hs = [h for h, _v in series]
        if hs and hs != list(range(hs[0], hs[0] + len(hs))):
            problems.append(f"E(h) radii not consecutive: {hs}")
        if is_connected(graph) and series and series[-1][1] != 1.0:
            problems.append(
                f"E(h) on a connected graph must reach exactly 1.0, "
                f"got {series[-1][1]!r}"
            )
        return problems

    # Ball-size sanity shared by every ball metric series.
    sizes = [x for x, _v in series]
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        problems.append(f"{metric}: average ball sizes not sorted: {sizes}")
    if any(x < 1 for x in sizes):
        problems.append(f"{metric}: average ball size below 1: {sizes}")

    values = [v for _x, v in series]
    if metric in ("resilience", "distortion", "path_length"):
        # Connected balls of >= min_ball_size nodes: cutting a connected
        # graph needs >= 1 edge; tree/graph distances are >= 1 hop.
        if any(v < 1.0 for v in values):
            problems.append(f"{metric}: value below 1 on connected balls: {values}")
    elif metric == "clustering":
        if any(not (0.0 <= v <= 1.0) for v in values):
            problems.append(f"clustering outside [0, 1]: {values}")
    elif metric in ("vertex_cover", "biconnectivity"):
        if any(v < 1.0 for v in values):
            problems.append(f"{metric}: value below 1 on balls with edges: {values}")
    return problems


def check_relabeling_invariance(
    graph: Graph, seed: int = 0, tolerance: float = 1e-9
) -> List[str]:
    """Label-invariant metrics must not change under a node permutation.

    Computes each metric in :data:`RELABEL_EXACT` / :data:`RELABEL_APPROX`
    with *every* node as a ball center (so the center sets correspond
    across the relabelling) and compares the series.
    """
    from repro.engine import MetricEngine
    from repro.testing.strategies import relabelled_copy

    problems: List[str] = []
    shuffled, _mapping = relabelled_copy(graph, seed)
    engine = MetricEngine(workers=0, use_cache=False)
    n = graph.number_of_nodes()
    for metric in RELABEL_EXACT + RELABEL_APPROX:
        params = {"num_centers": n, "seed": 0}
        if metric != "expansion":
            params["max_ball_size"] = None
        original = engine.compute_one(graph, metric, **params)
        permuted = engine.compute_one(shuffled, metric, **params)
        if metric in RELABEL_EXACT:
            if original != permuted:
                problems.append(
                    f"{metric} changed under relabelling: "
                    f"{original} != {permuted}"
                )
        else:
            if len(original) != len(permuted) or any(
                abs(a[0] - b[0]) > tolerance or abs(a[1] - b[1]) > tolerance
                for a, b in zip(original, permuted)
            ):
                problems.append(
                    f"{metric} changed under relabelling beyond float "
                    f"reassociation: {original} != {permuted}"
                )
    return problems


#: Every engine metric, in registry order — the default scope for
#: :func:`check_engine_equivalence` since the CSR refactor: all seven
#: series must agree bitwise across representations and execution modes.
ALL_ENGINE_METRICS = (
    "expansion",
    "resilience",
    "distortion",
    "vertex_cover",
    "biconnectivity",
    "clustering",
    "path_length",
)


def check_engine_equivalence(
    graph: Graph,
    seed: int = 0,
    metrics: Sequence[str] = ALL_ENGINE_METRICS,
    workers: int = 2,
    num_centers: int = 4,
    max_ball_size: Optional[int] = 60,
) -> List[str]:
    """Serial, parallel, cached, journaled, and dict-oracle engine paths
    must agree bitwise.

    The serial engine (CSR kernels) is the reference; the parallel
    engine, the cached engine (cold and warm), the journaled engine
    (cold and resumed — the resume must recompute **zero** centers), and
    the dict-of-sets :class:`~repro.testing.OracleEngine` (dict BFS and
    dict evaluators, no metric kernel) must all reproduce it exactly.  Also
    cross-checks RNG-free ball metrics against the legacy
    :func:`repro.metrics.balls.ball_growing_series` machinery, closing
    the loop back to the pre-engine implementation.
    """
    from repro.engine import METRICS, MetricEngine, MetricRequest
    from repro.metrics.balls import ball_growing_series
    from repro.testing.oracles import ORACLE_EVALUATORS, OracleEngine

    def requests():
        reqs = []
        for name in metrics:
            params: Dict[str, object] = {"num_centers": num_centers, "seed": seed}
            if name != "expansion":
                params["max_ball_size"] = max_ball_size
            reqs.append(MetricRequest(name, params))
        return reqs

    problems: List[str] = []
    serial = MetricEngine(workers=0, use_cache=False).compute(graph, requests())
    parallel = MetricEngine(workers=workers, use_cache=False).compute(
        graph, requests()
    )
    for name in metrics:
        if serial[name] != parallel[name]:
            problems.append(
                f"engine(workers={workers}) != engine(workers=0) for {name}"
            )

    oracle = OracleEngine().compute(graph, requests())
    for name in metrics:
        if serial[name] != oracle[name]:
            problems.append(f"engine != OracleEngine for {name}")

    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-cache-") as tmp:
        cached_engine = MetricEngine(workers=0, use_cache=True, cache_dir=tmp)
        first = cached_engine.compute(graph, requests())
        second = cached_engine.compute(graph, requests())
        for name in metrics:
            if first[name] != serial[name]:
                problems.append(f"engine(cache=on, cold) != engine(cache=off) for {name}")
            if second[name] != serial[name]:
                problems.append(f"engine(cache=on, warm) != engine(cache=off) for {name}")
        if cached_engine.stats["cache_hits"] < len(metrics):
            problems.append(
                "cache reported no hits on the second pass: "
                f"{cached_engine.stats}"
            )

    # The journal rides on the supervised executor, so give both runs an
    # explicit fault-free runtime (empty FaultPlan keeps them fault-free
    # even under a REPRO_FAULTS environment).
    from repro.runtime import FaultPlan, RuntimePolicy

    no_faults = lambda: RuntimePolicy(backoff=0.0, faults=FaultPlan([]))
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-journal-") as tmp:
        jpath = os.path.join(tmp, "journal.jsonl")
        cold = MetricEngine(
            workers=0, use_cache=False, runtime=no_faults(), journal=jpath
        ).compute(graph, requests())
        resumed_engine = MetricEngine(
            workers=0, use_cache=False, runtime=no_faults(), journal=jpath
        )
        resumed = resumed_engine.compute(graph, requests())
        for name in metrics:
            if cold[name] != serial[name]:
                problems.append(
                    f"engine(journal, cold) != engine(cache=off) for {name}"
                )
            if resumed[name] != serial[name]:
                problems.append(
                    f"engine(journal, resumed) != engine(cache=off) for {name}"
                )
        if resumed_engine.stats["centers_computed"] != 0:
            problems.append(
                "journal resume recomputed "
                f"{resumed_engine.stats['centers_computed']} centers "
                "despite a complete journal"
            )

    for name in metrics:
        if name == "expansion" or METRICS[name].uses_rng:
            continue
        spec = METRICS[name]
        evaluator = ORACLE_EVALUATORS[name]

        legacy = ball_growing_series(
            graph,
            lambda ball: evaluator(ball, None, dict(spec.defaults)),
            num_centers=num_centers,
            max_ball_size=max_ball_size,
            seed=seed,
        )
        if legacy != serial[name]:
            problems.append(f"engine != legacy ball_growing_series for {name}")
    return problems
