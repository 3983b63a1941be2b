"""Max-flow / min-cut (Dinic) and exact bipartite weighted vertex cover.

Section 5 defines a link's *value* as the minimum weighted vertex cover of
the bipartite graph formed by its traversal set.  For bipartite graphs the
weighted vertex cover LP is integral (König–Egerváry), so the exact
optimum equals a minimum s–t cut:

    source → each left vertex  (capacity = vertex weight)
    left → right per pair edge (capacity = ∞)
    each right vertex → sink   (capacity = vertex weight)

The paper used approximation algorithms; exact-by-min-cut is strictly
better and is feasible at our scale.  A from-scratch Dinic implementation
provides the cut.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

INF = float("inf")


class Dinic:
    """Dinic's max-flow algorithm on a directed capacity graph.

    Nodes are integers ``0..n-1``; add arcs with :meth:`add_edge` and call
    :meth:`max_flow`.  Capacities may be floats (``float('inf')`` allowed).
    ``zero`` is the empty capacity of reverse arcs and the starting flow
    total: pass ``0`` for a network of Python integers, which then stays
    exact at any size (no capacity ever turns float).

    Examples
    --------
    >>> d = Dinic(4)
    >>> d.add_edge(0, 1, 3.0); d.add_edge(1, 2, 2.0); d.add_edge(2, 3, 3.0)
    >>> d.max_flow(0, 3)
    2.0
    """

    def __init__(self, num_nodes: int, zero: float = 0.0):
        self.n = num_nodes
        self.zero = zero
        # Edge i stored as (to, capacity); edge i^1 is its reverse.
        self.to: List[int] = []
        self.cap: List[float] = []
        self.head: List[List[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add arc u→v with the given capacity; returns the edge id."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        edge_id = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[u].append(edge_id)
        self.to.append(u)
        self.cap.append(self.zero)
        self.head[v].append(edge_id + 1)
        return edge_id

    def _bfs_levels(self, source: int, sink: int) -> bool:
        to, cap, head = self.to, self.cap, self.head
        level = self.level = [-1] * self.n
        level[source] = 0
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            next_level = level[u] + 1
            for eid in head[u]:
                if cap[eid] > 0:
                    v = to[eid]
                    if level[v] < 0:
                        level[v] = next_level
                        frontier.append(v)
        return level[sink] >= 0

    def _dfs_blocking(self, source: int, sink: int) -> float:
        to, cap, head, level = self.to, self.cap, self.head, self.level
        total = self.zero
        it = [0] * self.n  # per-node pointer into head lists
        path: List[int] = []  # edge ids along the current partial path
        u = source
        while True:
            if u == sink:
                bottleneck = min([cap[eid] for eid in path])
                for eid in path:
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                total += bottleneck
                # Retreat to just before the first saturated edge.
                for i, eid in enumerate(path):
                    if cap[eid] <= 0:
                        del path[i:]
                        break
                u = to[path[-1]] if path else source
                continue
            # Scan u's arcs from its pointer for an admissible one; the
            # pointer stays on the arc taken.
            row = head[u]
            want = level[u] + 1
            for i in range(it[u], len(row)):
                eid = row[i]
                if cap[eid] > 0 and level[to[eid]] == want:
                    break
            else:
                i = len(row)
            it[u] = i
            if i < len(row):
                path.append(eid)
                u = to[eid]
                continue
            if u == source:
                break
            # Dead end: exclude this node from the level graph and retreat.
            level[u] = -1
            eid = path.pop()
            u = to[eid ^ 1]
            it[u] += 1
        return total

    def max_flow(self, source: int, sink: int) -> float:
        """Maximum flow value from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        flow = self.zero
        while self._bfs_levels(source, sink):
            flow += self._dfs_blocking(source, sink)
        return flow

    def min_cut_reachable(self, source: int) -> List[bool]:
        """After :meth:`max_flow`, the source side of a minimum cut."""
        reach = [False] * self.n
        reach[source] = True
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and not reach[v]:
                    reach[v] = True
                    frontier.append(v)
        return reach


def _cover_network(
    left_weights: Dict[Hashable, float],
    right_weights: Dict[Hashable, float],
    pairs: Iterable[Tuple[Hashable, Hashable]],
) -> Tuple[Dinic, Dict[Hashable, int], Dict[Hashable, int]]:
    """The min-cut network of a weighted bipartite cover instance.

    Left vertices are nodes ``0..L-1`` and right vertices ``L..n-1`` in
    weight-map order; the source is ``n`` and the sink ``n + 1``.  The
    arc lists are built in one shot, identical to calling
    :meth:`Dinic.add_edge` for source -> each left vertex, each right
    vertex -> sink, then one infinite arc per pair, in that order.
    Returns the network and the two vertex-index maps.
    """
    left_index = {v: i for i, v in enumerate(left_weights)}
    offset = len(left_index)
    right_index = {v: offset + i for i, v in enumerate(right_weights)}
    n = offset + len(right_index)
    source, sink = n, n + 1
    lefts, rights = list(zip(*pairs)) or [(), ()]
    tails = list(map(left_index.__getitem__, lefts))
    heads = list(map(right_index.__getitem__, rights))
    caps = [*left_weights.values(), *right_weights.values()]
    if any(w < 0 for w in caps):
        raise ValueError("capacity must be non-negative")

    # Arc 2k is the k-th added arc and 2k + 1 its reverse.
    first_pair = 2 * n
    network = Dinic(n + 2)
    to = network.to = [0] * (first_pair + 2 * len(tails))
    to[0 : 2 * offset : 2] = range(offset)
    to[1 : 2 * offset : 2] = [source] * offset
    to[2 * offset : first_pair : 2] = [sink] * (n - offset)
    to[2 * offset + 1 : first_pair : 2] = range(offset, n)
    to[first_pair::2] = heads
    to[first_pair + 1 :: 2] = tails
    cap = network.cap = [0.0] * len(to)
    cap[0:first_pair:2] = caps
    cap[first_pair::2] = [INF] * len(tails)
    head = network.head
    for v in range(n):
        head[v].append(2 * v + 1 if v < offset else 2 * v)
    head[source].extend(range(0, 2 * offset, 2))
    head[sink].extend(range(2 * offset + 1, first_pair, 2))
    for eid, u in enumerate(tails, first_pair // 2):
        head[u].append(2 * eid)
    for eid, v in enumerate(heads, first_pair // 2):
        head[v].append(2 * eid + 1)
    return network, left_index, right_index


def bipartite_vertex_cover_weight(
    left_weights: Dict[Hashable, float],
    right_weights: Dict[Hashable, float],
    pairs: Iterable[Tuple[Hashable, Hashable]],
) -> float:
    """Exact minimum weighted vertex cover of a bipartite graph.

    Parameters
    ----------
    left_weights / right_weights:
        Vertex weights of the two sides.  A vertex mentioned in ``pairs``
        must appear in the corresponding weight map.
    pairs:
        Edges ``(left_vertex, right_vertex)``.

    Returns the minimum total weight of a vertex set touching every pair.
    """
    network, _left, _right = _cover_network(left_weights, right_weights, pairs)
    return network.max_flow(network.n - 2, network.n - 1)


def bipartite_vertex_cover(
    left_weights: Dict[Hashable, float],
    right_weights: Dict[Hashable, float],
    pairs: Sequence[Tuple[Hashable, Hashable]],
) -> Tuple[float, List[Hashable]]:
    """Exact minimum weighted vertex cover, returning the cover itself.

    The cover is recovered from the minimum cut: a left vertex is in the
    cover iff it is *unreachable* from the source in the residual graph, a
    right vertex iff it is reachable.
    """
    network, left_index, right_index = _cover_network(
        left_weights, right_weights, pairs
    )
    source = network.n - 2
    weight = network.max_flow(source, network.n - 1)
    reach = network.min_cut_reachable(source)
    cover: List[Hashable] = []
    for v, i in left_index.items():
        if not reach[i]:
            cover.append(v)
    for v, i in right_index.items():
        if reach[i]:
            cover.append(v)
    return weight, cover
