"""Brute-force reference implementations ("oracles") of the core routines.

Every conclusion in the paper flows through a handful of graph
algorithms: min cuts (Dinic), minimum vertex covers, the balanced
bipartition behind resilience, BFS ball membership, and spanning-tree
distortion.  A silent bug in any of them would skew the degree-based vs.
structural comparison without a test noticing.  This module provides
small, *obviously correct* implementations of each — exhaustive
enumeration or fixpoint iteration, no clever data structures — valid on
graphs of up to :data:`ORACLE_MAX_NODES` nodes, so the production
implementations can be checked differentially (see
:mod:`repro.testing.selfcheck` and ``tests/test_property_graph.py``).
:func:`edmonds_karp_min_cut` is a second exact max-flow solver rather
than an enumeration, so flow networks of any size have a reference.

Oracles deliberately share no code with the implementations they check.
Two exceptions: :class:`OracleEngine`, the dict-of-sets twin of the
metric engine, shares the engine's planning and merge, and replaces the
CSR BFS and the fused batch kernels with dict BFS and the dict
evaluators of :data:`ORACLE_EVALUATORS` (for the four kernel metrics,
dict twins no production path runs); the Section 5 oracles
(:func:`oracle_link_traversal_sets`, :func:`oracle_link_value`) walk
the dict shortest-path DAG per pair and run ``Dinic.max_flow`` on a
network built arc by arc, replacing only the array construction of
traversal sets, vertex weights and cover networks.  The PLRG draw
oracles (:func:`oracle_power_law_degrees`, :func:`oracle_shuffled_stubs`)
are the per-draw loops the array draws replaced.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine import METRICS, MetricEngine
from repro.graph.components import count_biconnected_components
from repro.graph.core import Graph
from repro.graph.cover import vertex_cover_size
from repro.graph.flow import INF, Dinic
from repro.graph.traversal import bfs_distances
# The reference Appendix E ball constructor; the engine slices the same
# balls from the frozen graph with PolicyProduct's arc radii.
from repro.metrics.balls import _policy_ball_from_dag
from repro.metrics.distortion import distortion_of
from repro.metrics.resilience import resilience_of
from repro.routing.policy import policy_dag
from repro.routing.shortest import pair_edge_fractions, shortest_path_dag

Node = Hashable

#: Oracles refuse graphs larger than this; enumeration beyond it is
#: impractical and silently slow checks are worse than loud ones.
ORACLE_MAX_NODES = 20


class OracleSizeError(ValueError):
    """Raised when an oracle is asked about a graph too large to enumerate."""


def _guard(n: int, limit: int = ORACLE_MAX_NODES) -> None:
    if n > limit:
        raise OracleSizeError(
            f"oracle limited to {limit} nodes, got {n}; "
            "oracles are exhaustive by design"
        )


# ----------------------------------------------------------------------
# Connectivity and distances
# ----------------------------------------------------------------------

def oracle_connected_components(graph: Graph) -> List[FrozenSet[Node]]:
    """Connected components by naive label propagation to a fixpoint.

    Each node starts in its own component; components merge along edges
    until nothing changes.  Independent of the BFS used by
    :func:`repro.graph.traversal.connected_components`.
    """
    label: Dict[Node, int] = {node: i for i, node in enumerate(graph.nodes())}
    changed = True
    while changed:
        changed = False
        for u, v in graph.iter_edges():
            low = min(label[u], label[v])
            if label[u] != low:
                label[u] = low
                changed = True
            if label[v] != low:
                label[v] = low
                changed = True
    groups: Dict[int, Set[Node]] = {}
    for node, lab in label.items():
        groups.setdefault(lab, set()).add(node)
    return [frozenset(group) for group in groups.values()]


def oracle_bfs_distances(graph: Graph, source: Node) -> Dict[Node, int]:
    """Hop distances by Bellman–Ford-style edge relaxation to a fixpoint.

    No queue, no frontier — just "relax every edge until nothing
    improves", which is trivially correct for unit weights.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    INF = graph.number_of_nodes() + 1
    dist: Dict[Node, int] = {node: INF for node in graph.nodes()}
    dist[source] = 0
    changed = True
    while changed:
        changed = False
        for u, v in graph.iter_edges():
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
                changed = True
            if dist[v] + 1 < dist[u]:
                dist[u] = dist[v] + 1
                changed = True
    return {node: d for node, d in dist.items() if d < INF}


def oracle_ball_members(graph: Graph, center: Node, radius: int) -> Set[Node]:
    """Nodes within ``radius`` hops of ``center`` (the Section 3.2.1 ball)."""
    dist = oracle_bfs_distances(graph, center)
    return {node for node, d in dist.items() if d <= radius}


# ----------------------------------------------------------------------
# Cuts
# ----------------------------------------------------------------------

def oracle_min_st_cut(
    num_nodes: int,
    arcs: Sequence[Tuple[int, int, float]],
    source: int,
    sink: int,
) -> float:
    """Minimum s–t cut of a directed capacity graph by subset enumeration.

    Enumerates every vertex set ``S`` with ``source in S, sink not in S``
    and returns the smallest total capacity of arcs leaving ``S``.  By
    max-flow/min-cut duality this must equal
    :meth:`repro.graph.flow.Dinic.max_flow`.
    """
    _guard(num_nodes, 16)
    others = [v for v in range(num_nodes) if v not in (source, sink)]
    best = float("inf")
    for mask in range(1 << len(others)):
        in_s = {source}
        for i, v in enumerate(others):
            if mask >> i & 1:
                in_s.add(v)
        cut = sum(cap for u, v, cap in arcs if u in in_s and v not in in_s)
        if cut < best:
            best = cut
    return best


def edmonds_karp_min_cut(
    num_nodes: int, arcs: Sequence[Tuple[int, int, int]], source: int, sink: int
) -> Tuple[int, List[bool]]:
    """Max s–t flow and min-cut source side by Edmonds–Karp.

    The independent solver that :func:`repro.graph.kernels_flow.
    max_flow_min_cut` (Dinic) is checked against: one BFS per
    augmenting path over plain lists of exact Python integers, no
    level graph and no blocking flow.  Same contract — ``arcs`` are
    directed ``(u, v, capacity)``; returns ``(flow_value, reachable)``,
    ``reachable`` marking the residual-reachable source side, which is
    the same for every maximum flow.
    """
    head: List[int] = []
    cap: List[int] = []
    adj: List[List[int]] = [[] for _ in range(num_nodes)]
    for u, v, c in arcs:
        if c < 0:
            raise ValueError(f"arc capacity {c} is negative")
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    def residual_bfs() -> List[int]:
        pred = [-1] * num_nodes
        pred[source] = -2
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for a in adj[u]:
                v = head[a]
                if cap[a] > 0 and pred[v] == -1:
                    pred[v] = a
                    frontier.append(v)
        return pred

    flow = 0
    while True:
        pred = residual_bfs()
        if pred[sink] == -1:
            break
        path: List[int] = []
        v = sink
        while v != source:
            a = pred[v]
            path.append(a)
            v = head[a ^ 1]  # the paired reverse arc points at the tail
        bottleneck = min(cap[a] for a in path)
        for a in path:
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
        flow += bottleneck
    pred = residual_bfs()
    return flow, [p != -1 for p in pred]


def oracle_balanced_bipartition_cut(
    graph: Graph, max_side: Optional[int] = None
) -> int:
    """Exact minimum balanced-bipartition cut by enumerating every split.

    The resilience metric's inner problem (Section 3.2.1): split the
    nodes into two non-empty sides, each of at most ``max_side`` nodes,
    minimising the number of crossing edges.  ``max_side`` defaults to
    :func:`heuristic_balance_bound`, the exact balance envelope the
    production partitioner operates under, so the heuristic's answer can
    never legitimately be smaller than this oracle's.
    """
    nodes = graph.nodes()
    n = len(nodes)
    _guard(n, 16)
    if n < 2:
        return 0
    if max_side is None:
        max_side = heuristic_balance_bound(n)
    edges = graph.edges()
    best: Optional[int] = None
    # Fix nodes[0] on side A to halve the enumeration (sides are unordered).
    anchor, rest = nodes[0], nodes[1:]
    for mask in range(1 << len(rest)):
        side_a = {anchor}
        for i, node in enumerate(rest):
            if mask >> i & 1:
                side_a.add(node)
        size_a = len(side_a)
        if size_a > max_side or (n - size_a) > max_side or size_a == n:
            continue
        cut = sum(1 for u, v in edges if (u in side_a) != (v in side_a))
        if best is None or cut < best:
            best = cut
    assert best is not None  # max_side >= ceil(n/2) always admits a split
    return best


def heuristic_balance_bound(n: int, balance_slack: float = 0.05) -> int:
    """Largest side size the production partitioner may return.

    Mirrors the FM balance constraint in :mod:`repro.graph.partition`
    for unit node weights and no coarsening (always the case at oracle
    sizes, which sit far below the coarsening threshold): each side's
    weight is capped at ``min(n - 1, n/2 + max(1, slack * n))``.
    """
    import math

    return min(n - 1, math.floor(n / 2 + max(1.0, balance_slack * n)))


def count_crossing_edges(graph: Graph, side_a: Iterable[Node]) -> int:
    """Number of edges with exactly one endpoint in ``side_a``.

    An independent recount used to validate cut sizes *reported* by the
    partitioner against the split it actually returned.
    """
    members = set(side_a)
    return sum(1 for u, v in graph.iter_edges() if (u in members) != (v in members))


# ----------------------------------------------------------------------
# Vertex covers
# ----------------------------------------------------------------------

def oracle_min_vertex_cover_size(graph: Graph) -> int:
    """Exact minimum unweighted vertex cover size by branch and bound.

    Classic branching: pick any uncovered edge ``(u, v)``; some minimum
    cover contains ``u`` or contains ``v``, so recurse on both choices.
    """
    _guard(graph.number_of_nodes())
    edges = graph.edges()

    def solve(remaining: Tuple[Tuple[Node, Node], ...], budget: int) -> int:
        if not remaining:
            return 0
        if budget == 0:
            return ORACLE_MAX_NODES + 1  # prune: cannot cover anything more
        u, v = remaining[0]
        without_u = tuple(e for e in remaining if u not in e)
        take_u = 1 + solve(without_u, budget - 1)
        without_v = tuple(e for e in remaining if v not in e)
        take_v = 1 + solve(without_v, budget - 1)
        return min(take_u, take_v)

    return solve(tuple(edges), graph.number_of_nodes())


def oracle_bipartite_vertex_cover_weight(
    left_weights: Dict[Node, float],
    right_weights: Dict[Node, float],
    pairs: Sequence[Tuple[Node, Node]],
) -> float:
    """Exact minimum *weighted* bipartite vertex cover by left-subset scan.

    For every subset of the left side taken into the cover, the right
    vertices of the still-uncovered pairs are forced; the minimum over
    all ``2^|left|`` subsets is the optimum.  The Section 5 link-value
    solver (:func:`repro.graph.flow.bipartite_vertex_cover_weight`,
    exact via min-cut) must agree with this.
    """
    left = list(left_weights)
    _guard(len(left), 14)
    best = float("inf")
    for mask in range(1 << len(left)):
        chosen = {left[i] for i in range(len(left)) if mask >> i & 1}
        weight = sum(left_weights[v] for v in chosen)
        forced = {v for u, v in pairs if u not in chosen}
        weight += sum(right_weights[v] for v in forced)
        if weight < best:
            best = weight
    return best


# ----------------------------------------------------------------------
# Section 5 traversal sets and link values
# ----------------------------------------------------------------------

def oracle_link_traversal_sets(
    graph: Graph,
    sources: Optional[Sequence[Node]] = None,
    pair_weight=None,
) -> Dict[Tuple[Node, Node], List[Tuple[Node, Node, float]]]:
    """Shortest-path traversal sets by walking every pair's DAG.

    One dict shortest-path DAG per source (Python-int path counts, so
    never an overflow) and one
    :func:`~repro.routing.shortest.pair_edge_fractions` walk per pair,
    appending entries pair by pair.  The array construction in
    :func:`repro.hierarchy.link_traversal_sets` must return the same
    keys, entries, entry order and weight bits.
    """
    graph = graph.thaw() if not isinstance(graph, Graph) else graph
    nodes = graph.nodes()
    node_index = {node: i for i, node in enumerate(nodes)}
    if sources is None:
        sources = nodes

    def canonical(u: Node, v: Node) -> Tuple[Node, Node]:
        return (u, v) if node_index[u] <= node_index[v] else (v, u)

    sets: Dict[Tuple[Node, Node], List[Tuple[Node, Node, float]]] = {
        canonical(u, v): [] for u, v in graph.iter_edges()
    }
    source_set = set(sources)
    for s in sources:
        dag = shortest_path_dag(graph, s)
        for t in nodes:
            if t == s:
                continue
            # Each unordered pair once: skip (s, t) when t is also a
            # source with smaller index.
            if t in source_set and node_index[t] < node_index[s]:
                continue
            fractions = pair_edge_fractions(dag, t)
            demand = pair_weight(s, t) if pair_weight is not None else 1.0
            if demand <= 0:
                continue
            for (a, b), w in fractions.items():
                # Edge traversed a -> b on the s -> t path: s on a's side.
                key = canonical(a, b)
                if key == (a, b):
                    sets[key].append((s, t, w * demand))
                else:
                    sets[key].append((t, s, w * demand))
    return sets


def oracle_link_value(entries: Iterable[Tuple[Node, Node, float]]) -> float:
    """One link's value from its entries, with dict sums and a Dinic
    network built one :meth:`~repro.graph.flow.Dinic.add_edge` at a time.

    Vertex weights are running ``dict.get(v, 0.0) + w`` sums over the
    entries divided by entry counts, vertices numbered in first-seen
    order — the reference for
    :func:`repro.hierarchy.link_value_from_entries`.
    """
    left_sum: Dict[Node, float] = {}
    left_count: Dict[Node, int] = {}
    right_sum: Dict[Node, float] = {}
    right_count: Dict[Node, int] = {}
    pairs = []
    for u, v, w in entries:
        left_sum[u] = left_sum.get(u, 0.0) + w
        left_count[u] = left_count.get(u, 0) + 1
        right_sum[v] = right_sum.get(v, 0.0) + w
        right_count[v] = right_count.get(v, 0) + 1
        pairs.append((u, v))
    if not pairs:
        return 0.0
    left_index = {u: i for i, u in enumerate(left_sum)}
    right_index = {v: len(left_index) + i for i, v in enumerate(right_sum)}
    source = len(left_index) + len(right_index)
    sink = source + 1
    dinic = Dinic(source + 2)
    for u, i in left_index.items():
        dinic.add_edge(source, i, left_sum[u] / left_count[u])
    for v, i in right_index.items():
        dinic.add_edge(i, sink, right_sum[v] / right_count[v])
    for u, v in pairs:
        dinic.add_edge(left_index[u], right_index[v], INF)
    return dinic.max_flow(source, sink)


# ----------------------------------------------------------------------
# Spanning trees and distortion
# ----------------------------------------------------------------------

def oracle_tree_distance(
    parent: Dict[Node, Optional[Node]], u: Node, v: Node
) -> int:
    """Hop distance between ``u`` and ``v`` on a rooted tree, by BFS.

    Materialises the parent map as an undirected graph and runs the
    fixpoint-relaxation distance oracle on it — no LCA, no binary
    lifting, nothing shared with :class:`repro.graph.trees.TreeIndex`.
    """
    tree = Graph()
    for node, par in parent.items():
        tree.add_node(node)
        if par is not None:
            tree.add_edge(node, par)
    return oracle_bfs_distances(tree, u)[v]


def oracle_spanning_tree_distortion(
    graph: Graph, parent: Dict[Node, Optional[Node]]
) -> float:
    """Average tree distance between endpoints of every graph edge.

    The paper's per-tree distortion, computed with
    :func:`oracle_tree_distance` per edge instead of a preprocessed LCA
    index.
    """
    edges = graph.edges()
    if not edges:
        return 0.0
    tree = Graph()
    for node, par in parent.items():
        tree.add_node(node)
        if par is not None:
            tree.add_edge(node, par)
    total = 0
    for u, v in edges:
        total += oracle_bfs_distances(tree, u)[v]
    return total / len(edges)


def _is_spanning_tree(nodes: Sequence[Node], edges: Sequence[Tuple[Node, Node]]) -> bool:
    if len(edges) != len(nodes) - 1:
        return False
    tree = Graph()
    tree.add_nodes_from(nodes)
    tree.add_edges_from(edges)
    return len(oracle_connected_components(tree)) == 1


def oracle_exact_distortion(graph: Graph) -> float:
    """Exact distortion: the minimum over *all* spanning trees.

    Section 3.2.1 defines distortion as the smallest per-tree average
    over every possible spanning tree; the production code (like the
    paper) only tries a handful of heuristic trees, so its value must be
    ``>=`` this oracle's.  Enumeration over edge subsets limits use to
    connected graphs with at most ~12 edges.
    """
    nodes = graph.nodes()
    n = len(nodes)
    _guard(graph.number_of_edges(), 14)
    edges = graph.edges()
    if not edges:
        return 0.0
    best = float("inf")
    for subset in itertools.combinations(edges, n - 1):
        if not _is_spanning_tree(nodes, subset):
            continue
        tree = Graph()
        tree.add_nodes_from(nodes)
        tree.add_edges_from(subset)
        total = 0
        for u, v in edges:
            total += oracle_bfs_distances(tree, u)[v]
        best = min(best, total / len(edges))
    if best == float("inf"):
        raise ValueError("graph is not connected; it has no spanning tree")
    return best


# ----------------------------------------------------------------------
# PLRG draws
# ----------------------------------------------------------------------

def oracle_power_law_degrees(
    n: int,
    exponent: float,
    rng: random.Random,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
) -> List[int]:
    """:func:`~repro.generators.degree_sequence.power_law_degrees` one
    draw at a time: the same weight table, one ``bisect_left`` per
    ``rng.random()``, then the same odd-sum fix-up."""
    k_max = max_degree if max_degree is not None else max(min_degree, n - 1)
    support = np.arange(min_degree, k_max + 1, dtype=np.float64)
    cumulative = np.cumsum(support ** (-exponent))
    total = cumulative[-1]
    degrees = []
    for _ in range(n):
        r = rng.random() * total
        degrees.append(min_degree + bisect.bisect_left(cumulative, r))
    if sum(degrees) % 2 == 1:
        degrees[rng.randrange(n)] += 1
    return degrees


def oracle_shuffled_stubs(degrees: Sequence[int], rng: random.Random) -> List[int]:
    """The stub list (node ``i`` repeated ``degrees[i]`` times) shuffled
    as a plain Python list."""
    stubs = [node for node, degree in enumerate(degrees) for _ in range(degree)]
    rng.shuffle(stubs)
    return stubs


# ----------------------------------------------------------------------
# The dict-of-sets engine
# ----------------------------------------------------------------------

def _eval_resilience(ball, rng, params):
    return resilience_of(ball, rng=rng, trials=params["trials"])


def _eval_distortion(ball, rng, params):
    return distortion_of(ball, rng=rng)


def _eval_vertex_cover(ball, rng, params):
    return float(vertex_cover_size(ball))


def _eval_biconnectivity(ball, rng, params):
    return float(count_biconnected_components(ball))


#: The dict evaluator ``(ball, rng, params) -> float`` of every ball
#: metric, as :class:`OracleEngine` runs it.  The four kernel metrics'
#: dict twins live only here; clustering and path length share the
#: engine's own dict evaluator.
ORACLE_EVALUATORS = {
    "resilience": _eval_resilience,
    "distortion": _eval_distortion,
    "vertex_cover": _eval_vertex_cover,
    "biconnectivity": _eval_biconnectivity,
    "clustering": METRICS["clustering"].evaluator,
    "path_length": METRICS["path_length"].evaluator,
}


def oracle_compute_center(ctx, plan, ci: int):
    """One center of an engine plan, computed on dict-of-sets graphs only.

    The twin of the engine's per-center function, with the same
    ``(counts_at, group_contributions)`` result: dict BFS
    (:func:`~repro.graph.traversal.bfs_distances`) instead of the CSR
    kernel, and every metric's :data:`ORACLE_EVALUATORS` entry on every
    ball instead of the fused batch kernels.  Balls, plain and policy,
    are built on the canonical thawed graph in ascending node-index
    order, and each metric draws from its own per-center RNG stream, as
    the engine's determinism contract requires.
    """
    center = plan.centers[ci]
    graph = ctx.csr.thaw()
    dag = None
    if plan.rels is not None:
        dag = policy_dag(graph, plan.rels, center)
        dist = dag.distances()
    else:
        dist = bfs_distances(graph, center)
    per_level = [0] * (max(dist.values(), default=0) + 1)
    for d in dist.values():
        per_level[d] += 1
    counts_at = per_level if plan.distance_rids else None

    canonical = ctx.csr.node_list()
    group_contributions = []
    for group in plan.groups:
        rngs = {
            member.rid: (
                random.Random(member.center_seeds[ci])
                if member.center_seeds is not None
                else None
            )
            for member in group.members
        }
        contributions = []
        size = per_level[0]
        for radius in range(1, len(per_level)):
            if per_level[radius] == 0:
                continue  # the ball did not grow
            size += per_level[radius]
            if size < group.min_ball_size:
                continue
            if group.max_ball_size is not None and size > group.max_ball_size:
                break
            if dag is not None:
                ball = _policy_ball_from_dag(graph, dag, radius)
            else:
                ball = graph.subgraph(
                    [node for node in canonical if dist.get(node, radius + 1) <= radius]
                )
            values = {
                member.rid: ORACLE_EVALUATORS[member.name](
                    ball, rngs[member.rid], member.eval_params
                )
                for member in group.members
            }
            contributions.append((radius, size, values))
        group_contributions.append(contributions)
    return counts_at, group_contributions


class OracleEngine(MetricEngine):
    """The dict-of-sets reference :class:`~repro.engine.MetricEngine`.

    Same requests, planning, RNG streams, merge and ``last_run`` as the
    production engine; only the per-center function differs
    (:func:`oracle_compute_center`).  It runs serially and never
    caches, so its answers cannot be served from the production
    engine's cache.  Production results must equal this engine's
    bitwise — the ``kernels`` selfcheck family, the engine-equivalence
    invariant and ``tests/test_engine.py`` enforce it.
    """

    _center_task = staticmethod(oracle_compute_center)

    def __init__(self):
        super().__init__(workers=0, use_cache=False)
