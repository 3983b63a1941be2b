"""Link traversal sets (Section 5).

"usage as measured by the set of node pairs (source-destination pairs)
whose traffic traverses the link when using shortest path routing; we
call this the link's traversal set" — weighted per footnote 27: "The
weight w(u, v; l) assigned to a node pair (u, v) for a link l is the
fraction of the total number of equal cost shortest paths between u and
v that traverse link l."

For every unordered pair we accumulate, per link, the pair and its
weight, with the pair oriented by which side of the link each endpoint
lies on (the traversal-set graph is bipartite across the link).  Policy
variants use the valley-free DAGs instead of the plain shortest-path
DAGs: "for the AS and RL topologies, we use the simple policy model ...
to evaluate link values using policy-constrained paths."
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.generators.base import Seed, make_rng
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph
from repro.routing.policy import (
    Relationships,
    policy_dag,
    policy_pair_edge_fractions,
)
from repro.routing.shortest import shortest_path_dag

Node = Hashable
GraphLike = Union[Graph, CSRGraph]
LinkKey = Tuple[Node, Node]
# Traversal entry: (left endpoint, right endpoint, weight); "left" is the
# pair member on the canonical first endpoint's side of the link.
Entry = Tuple[Node, Node, float]

#: Every integer up to this is exact in float64.  A path-count quotient
#: computed in float64 equals the exact Python-int quotient
#: ``sigma_a * sigma_b / sigma_t`` (both are the correctly rounded
#: value) when the numerator and denominator are at most this.
_FLOAT_EXACT = 1 << 53

#: Stands in the count matrix for exact counts above it.  It exceeds
#: :data:`_FLOAT_EXACT`, so every entry touching one takes the exact path.
_HUGE_COUNT = 1 << 62


class TraversalSet(Sequence):
    """One link's traversal set, backed by parallel arrays.

    A read-only sequence of ``(u, v, w)`` entries: ``left``/``right``
    hold node *indices* into ``nodes`` and ``weight`` the float64 pair
    weights, so :func:`repro.hierarchy.link_values.link_value_from_entries`
    reads the arrays directly while other callers index and iterate
    labelled tuples.
    """

    __slots__ = ("nodes", "left", "right", "weight")

    def __init__(
        self,
        nodes: Sequence[Node],
        left: np.ndarray,
        right: np.ndarray,
        weight: np.ndarray,
    ):
        self.nodes = nodes
        self.left = left
        self.right = right
        self.weight = weight

    @classmethod
    def from_entries(cls, entries: Sequence[Entry]) -> "TraversalSet":
        """The array form of a sequence of ``(u, v, w)`` tuples."""
        index: Dict[Node, int] = {}
        left = [index.setdefault(u, len(index)) for u, _, _ in entries]
        right = [index.setdefault(v, len(index)) for _, v, _ in entries]
        return cls(
            list(index),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            np.array([w for _, _, w in entries], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, i: int) -> Entry:
        return (
            self.nodes[self.left[i]],
            self.nodes[self.right[i]],
            float(self.weight[i]),
        )

    def __iter__(self) -> Iterator[Entry]:
        nodes = self.nodes
        for u, v, w in zip(
            self.left.tolist(), self.right.tolist(), self.weight.tolist()
        ):
            yield nodes[u], nodes[v], w

    def __repr__(self) -> str:
        return f"TraversalSet({list(self)!r})"


def link_traversal_sets(
    graph: GraphLike,
    rels: Optional[Relationships] = None,
    sources: Optional[Sequence[Node]] = None,
    pair_weight: Optional[Callable[[Node, Node], float]] = None,
    seed: Seed = None,
) -> Dict[LinkKey, Sequence[Entry]]:
    """Traversal sets of every link, for all (or sampled-source) pairs.

    Parameters
    ----------
    graph:
        Topology; link values are usually computed on graphs of a few
        hundred nodes (the paper used the RL *core* for the same
        reason — footnote 29).
    rels:
        If given, paths are valley-free policy paths.
    sources:
        Restrict pairs to those with at least one endpoint in
        ``sources`` — an optional subsampling knob for larger graphs.
        Defaults to all nodes (every unordered pair counted once).
    pair_weight:
        Optional traffic-demand model: each pair's contribution is
        multiplied by ``pair_weight(u, v)``.  The paper measures usage
        "not ... by the level of traffic" (uniform demand); this hook
        supports the extension experiment that checks the hierarchy
        conclusions against non-uniform (e.g. gravity-model) demand —
        see :func:`gravity_demand` and
        ``benchmarks/test_extension_traffic.py``.

    Returns a map from canonical link key ``(a, b)`` (insertion-index
    order) to its entries.  In every entry ``(u, v, w)``, ``u`` lies on
    the ``a`` side and ``v`` on the ``b`` side of the link.  Each
    link's entries run in pair order: by source (in ``sources`` order),
    then by target index.  Shortest-path sets are array-backed
    :class:`TraversalSet` sequences; policy sets are lists.
    """
    nodes = graph.nodes()
    node_index = {node: i for i, node in enumerate(nodes)}
    if sources is None:
        sources = nodes
    make_rng(seed)  # reserved for future sampling strategies
    if rels is None:
        csr = graph if isinstance(graph, CSRGraph) else graph.freeze()
        return _shortest_path_sets(csr, graph, node_index, sources, pair_weight)
    return _policy_sets(graph, rels, node_index, sources, pair_weight)


def _policy_sets(
    graph: GraphLike,
    rels: Relationships,
    node_index: Dict[Node, int],
    sources: Sequence[Node],
    pair_weight: Optional[Callable[[Node, Node], float]],
) -> Dict[LinkKey, List[Entry]]:
    """Traversal sets over valley-free DAGs, one pair walk at a time.

    Policy DAGs walk the annotated relationship automaton on the dict
    graph.
    """
    nodes = list(node_index)
    routed = graph.thaw() if isinstance(graph, CSRGraph) else graph
    sets: Dict[LinkKey, List[Entry]] = {
        _canonical(u, v, node_index): [] for u, v in graph.iter_edges()
    }
    source_set = set(sources)
    for s in sources:
        dag = policy_dag(routed, rels, s)
        for t in nodes:
            if t == s:
                continue
            # Count each unordered pair once: skip (s, t) when t is also
            # a source with smaller index.
            if t in source_set and node_index[t] < node_index[s]:
                continue
            fractions = policy_pair_edge_fractions(dag, t)
            demand = pair_weight(s, t) if pair_weight is not None else 1.0
            if demand <= 0:
                continue
            for (a, b), w in fractions.items():
                # Edge traversed a -> b on the s -> t path: s on a's side.
                key = _canonical(a, b, node_index)
                if key == (a, b):
                    sets[key].append((s, t, w * demand))
                else:
                    sets[key].append((t, s, w * demand))
    return sets


def _canonical(u: Node, v: Node, node_index: Dict[Node, int]) -> LinkKey:
    return (u, v) if node_index[u] <= node_index[v] else (v, u)


def _shortest_path_sets(
    csr: CSRGraph,
    graph: GraphLike,
    node_index: Dict[Node, int],
    sources: Sequence[Node],
    pair_weight: Optional[Callable[[Node, Node], float]],
) -> Dict[LinkKey, TraversalSet]:
    """Shortest-path traversal sets from per-node distance/count rows.

    Each source's entries come out target-major; a stable sort by link
    then gives every link its entries in pair order.  Holds two
    ``n x n`` matrices (:class:`_PathCounts`), which is fine at the few
    hundred nodes link values are computed on.
    """
    nodes = list(node_index)
    link_ids: Dict[Tuple[int, int], int] = {}
    for u, v in graph.iter_edges():
        i, j = sorted((node_index[u], node_index[v]))
        link_ids.setdefault((i, j), len(link_ids))
    keys = [(nodes[i], nodes[j]) for i, j in link_ids]

    tails = np.repeat(
        np.arange(len(nodes), dtype=np.int64), np.diff(csr.indptr)
    )
    heads = csr.indices.astype(np.int64)
    arc_links = np.array(
        [
            link_ids[(i, j) if i < j else (j, i)]
            for i, j in zip(tails.tolist(), heads.tolist())
        ],
        dtype=np.int64,
    )
    # The arc a -> b puts the source on a's side: on the canonical left
    # when a is the lower-index endpoint.
    arc_forward = tails < heads

    counts = _PathCounts.of(csr, graph, nodes)
    is_source = np.zeros(len(nodes), dtype=bool)
    is_source[[node_index[s] for s in sources]] = True

    links, lefts, rights, weights = [], [], [], []
    for s in sources:
        si = node_index[s]
        targets = np.flatnonzero(counts.dist[si] > 0)
        # Each unordered pair once: drop targets that are sources of
        # smaller index.
        targets = targets[~(is_source[targets] & (targets < si))]
        if pair_weight is not None:
            demand = np.array(
                [float(pair_weight(s, nodes[t])) for t in targets.tolist()],
                dtype=np.float64,
            )
            keep = ~(demand <= 0)
            targets, demand = targets[keep], demand[keep]
        found = _source_entries(counts, si, targets, tails, heads)
        if found is None:
            continue
        pair, arcs, weight = found
        if pair_weight is not None:
            weight = weight * demand[pair]
        forward = arc_forward[arcs]
        links.append(arc_links[arcs])
        lefts.append(np.where(forward, si, targets[pair]))
        rights.append(np.where(forward, targets[pair], si))
        weights.append(weight)

    if links:
        link = np.concatenate(links)
        by_link = np.argsort(link, kind="stable")
        left = np.concatenate(lefts)[by_link]
        right = np.concatenate(rights)[by_link]
        weight = np.concatenate(weights)[by_link]
        bounds = np.searchsorted(link[by_link], np.arange(len(keys) + 1)).tolist()
    else:
        left = right = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
        bounds = [0] * (len(keys) + 1)
    return {
        key: TraversalSet(nodes, left[lo:hi], right[lo:hi], weight[lo:hi])
        for key, lo, hi in zip(keys, bounds, bounds[1:])
    }


class _PathCounts(NamedTuple):
    """All-pairs hop distances and equal-cost shortest-path counts.

    ``dist[i]``/``sigma[i]`` are
    :func:`repro.graph.kernels.bfs_with_path_counts` of node ``i``.  A
    row whose counts overflow int64 takes the exact big-integer counts
    of the dict shortest-path DAG instead: ``exact_rows[i]`` keeps them,
    and ``sigma`` holds :data:`_HUGE_COUNT` wherever they exceed it.
    """

    dist: np.ndarray
    sigma: np.ndarray
    exact_rows: Dict[int, List[int]]

    @classmethod
    def of(cls, csr: CSRGraph, graph: GraphLike, nodes: List[Node]) -> "_PathCounts":
        n = len(nodes)
        dist = np.empty((n, n), dtype=np.int32)
        sigma = np.empty((n, n), dtype=np.int64)
        exact_rows: Dict[int, List[int]] = {}
        thawed = None
        for i in range(n):
            try:
                dist[i], sigma[i] = kernels.bfs_with_path_counts(csr, i)
            except kernels.PathCountOverflow:
                if thawed is None:
                    thawed = graph if isinstance(graph, Graph) else csr.thaw()
                dag = shortest_path_dag(thawed, nodes[i])
                exact = [dag.sigma.get(node, 0) for node in nodes]
                exact_rows[i] = exact
                dist[i] = [dag.dist.get(node, kernels.UNREACHED) for node in nodes]
                sigma[i] = [min(count, _HUGE_COUNT) for count in exact]
        return cls(dist, sigma, exact_rows)

    def exact(self, row: int, col: int) -> int:
        """The exact path count between nodes ``row`` and ``col``."""
        exact = self.exact_rows.get(row)
        return exact[col] if exact is not None else int(self.sigma[row, col])


def _source_entries(
    counts: _PathCounts,
    si: int,
    targets: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Source ``si``'s entries toward ``targets``, as ``(pair, arc,
    weight)`` arrays: position in ``targets``, arc id, path share.

    The arc ``a -> b`` lies on a shortest ``s -> t`` path exactly when
    ``d_s(a) + 1 + d_t(b) == d_s(t)``, and then carries the share
    ``sigma_s(a) * sigma_t(b) / sigma_s(t)`` of the pair's equal-cost
    paths — the quotient the per-pair DAG walk of
    :func:`repro.routing.shortest.pair_edge_fractions` divides in
    Python integers.  float64 gives the same bits when numerator and
    denominator are at most :data:`_FLOAT_EXACT`; other entries divide
    exact integers.  Entries run target-major (then by arc); ``None``
    when there are none.
    """
    ds = counts.dist[si]
    arcs = np.flatnonzero((ds[tails] >= 0) & (ds[heads] == ds[tails] + 1))
    if not targets.size or not arcs.size:
        return None
    arc_heads = heads[arcs]
    # d_t(b) == d_s(t) - d_s(b); the graph is undirected, so d_t(b) is
    # dist[t, b].
    on_path = counts.dist[np.ix_(targets, arc_heads)] == (
        ds[targets][:, None] - ds[arc_heads][None, :]
    )
    pair, cols = np.nonzero(on_path)
    arcs = arcs[cols]
    t, a, b = targets[pair], tails[arcs], heads[arcs]
    sa, sb, st = counts.sigma[si, a], counts.sigma[t, b], counts.sigma[si, t]
    # Check the bound before multiplying: the int64 product may wrap.
    fast = (st <= _FLOAT_EXACT) & (sa <= _FLOAT_EXACT // sb)
    weight = np.empty(len(t), dtype=np.float64)
    weight[fast] = (sa[fast] * sb[fast]).astype(np.float64) / st[fast].astype(
        np.float64
    )
    slow = np.flatnonzero(~fast)
    weight[slow] = [
        counts.exact(si, ai) * counts.exact(ti, bi) / counts.exact(si, ti)
        for ai, bi, ti in zip(a[slow].tolist(), b[slow].tolist(), t[slow].tolist())
    ]
    return pair, arcs, weight


def gravity_demand(graph: GraphLike, exponent: float = 1.0) -> Callable[[Node, Node], float]:
    """A gravity traffic-demand model: demand(u, v) ∝ (deg_u · deg_v)^e.

    Degree proxies node "size" (for the AS graph, Tangmunarunkit et al.
    2001 — cited in Section 2 — argue AS degree tracks AS size), so
    hub-to-hub pairs exchange the most traffic.  Normalised so the mean
    demand over a random pair is ~1, keeping the link-value magnitudes
    comparable to the uniform-demand case.
    """
    degrees = graph.degrees()
    mean = sum(degrees.values()) / max(1, len(degrees))
    norm = (mean * mean) ** exponent

    def demand(u: Node, v: Node) -> float:
        return ((degrees[u] * degrees[v]) ** exponent) / norm

    return demand


def traversal_set_size(entries: Sequence[Entry]) -> float:
    """Total pair weight crossing the link.

    The paper initially considered raw traversal-set size as the
    hierarchy measure before rejecting it ("This simple measure turns out
    to be misleading") — kept for the ablation bench that reproduces why.
    """
    return sum(w for _, _, w in entries)
