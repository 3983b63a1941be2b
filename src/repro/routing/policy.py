"""Valley-free policy routing (Section 3.2.1, Appendix E).

"At the AS level, this policy model computes the shortest AS path between
two nodes that does not violate provider-customer relationships (an
example of a path that would violate these relationship is one that
traverses a provider, followed by a customer and then back to another
provider)."

A path is *valley-free* (Gao) when it has the shape::

    up* (peer)? down*

i.e. it climbs customer→provider links, crosses at most one peer link at
the top, and then only descends provider→customer links.  We model this
with a two-state automaton layered over the graph:

* state 0 (*ascent*): only up / sibling edges keep state 0; a peer edge
  or a down edge moves to state 1;
* state 1 (*descent*): only down / sibling edges are allowed.

Shortest policy paths are BFS over the (node, state) product graph.  The
same DAG/path-counting machinery as plain shortest paths then yields the
policy-constrained link traversal fractions used by the Section 5
hierarchy analysis, and the policy-induced balls of Appendix E.  The
engine builds the same product once on arrays (:class:`PolicyProduct`)
and reads every policy ball of a center off one BFS over it.

For the router-level graph the paper computes AS-level policy paths and
then router-level shortest paths within the AS sequence.  We realise the
same constraint by annotating intra-AS router links as *sibling* (state
preserved, always allowed) and lifting each inter-AS link's relationship
from its AS edge — a router path is then valid exactly when its AS-level
projection is valley-free.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph

Node = Hashable
Edge = Tuple[Node, Node]
State = Tuple[Node, int]

# Relationship of an edge *as traversed* from u to v:
PROVIDER = "provider"  # v is u's provider: the traversal climbs (up)
CUSTOMER = "customer"  # v is u's customer: the traversal descends (down)
PEER = "peer"          # u and v peer: crossable once, at the top
SIBLING = "sibling"    # same organisation: free, state-preserving

_ASCENT = 0
_DESCENT = 1


class Relationships:
    """Directed relationship annotation over a graph's edges.

    ``rel(u, v)`` answers "what is v to u?" — e.g. after
    ``set_provider_customer(p, c)``, ``rel(c, p) == PROVIDER`` and
    ``rel(p, c) == CUSTOMER``.

    Edges without an annotation default to ``SIBLING`` when
    ``default_sibling`` is set (used for intra-AS router links); with the
    default strict mode an unannotated edge raises ``KeyError``, which
    catches annotation bugs early.
    """

    def __init__(self, default_sibling: bool = False):
        self._rel: Dict[Edge, str] = {}
        self._default_sibling = default_sibling

    def set_provider_customer(self, provider: Node, customer: Node) -> None:
        """Record that ``provider`` sells transit to ``customer``."""
        self._rel[(customer, provider)] = PROVIDER
        self._rel[(provider, customer)] = CUSTOMER

    def set_peer(self, u: Node, v: Node) -> None:
        self._rel[(u, v)] = PEER
        self._rel[(v, u)] = PEER

    def set_sibling(self, u: Node, v: Node) -> None:
        self._rel[(u, v)] = SIBLING
        self._rel[(v, u)] = SIBLING

    def rel(self, u: Node, v: Node) -> str:
        result = self._rel.get((u, v))
        if result is None:
            if self._default_sibling:
                return SIBLING
            raise KeyError(f"edge ({u!r}, {v!r}) has no relationship annotation")
        return result

    def annotated_edges(self) -> List[Edge]:
        """Each annotated undirected edge once (canonical direction)."""
        seen = set()
        result = []
        for (u, v) in self._rel:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                result.append((u, v))
        return result

    def providers_of(self, node: Node) -> List[Node]:
        return [v for (u, v), r in self._rel.items() if u == node and r == PROVIDER]

    def customers_of(self, node: Node) -> List[Node]:
        return [v for (u, v), r in self._rel.items() if u == node and r == CUSTOMER]

    def peers_of(self, node: Node) -> List[Node]:
        return [v for (u, v), r in self._rel.items() if u == node and r == PEER]


def _transition(state: int, rel: str) -> Optional[int]:
    """Next automaton state, or None if the edge is not allowed."""
    if rel == SIBLING:
        return state
    if state == _ASCENT:
        if rel == PROVIDER:
            return _ASCENT
        if rel == PEER:
            return _DESCENT
        if rel == CUSTOMER:
            return _DESCENT
        raise ValueError(f"unknown relationship {rel!r}")
    # descent state
    if rel == CUSTOMER:
        return _DESCENT
    if rel in (PROVIDER, PEER):
        return None
    raise ValueError(f"unknown relationship {rel!r}")


@dataclasses.dataclass
class PolicyDAG:
    """Shortest *policy* path DAG over the (node, state) product graph."""

    source: Node
    state_dist: Dict[State, int]
    state_sigma: Dict[State, int]
    state_preds: Dict[State, List[State]]

    def distances(self) -> Dict[Node, int]:
        """Shortest valley-free distance to each reachable node."""
        result: Dict[Node, int] = {}
        for (node, _state), d in self.state_dist.items():
            if node not in result or d < result[node]:
                result[node] = d
        return result

    def distance(self, node: Node) -> Optional[int]:
        """Shortest valley-free distance to ``node`` (None if unreachable)."""
        best = None
        for state in (_ASCENT, _DESCENT):
            d = self.state_dist.get((node, state))
            if d is not None and (best is None or d < best):
                best = d
        return best

    def optimal_states(self, node: Node) -> List[State]:
        """The (node, state) pairs achieving the policy distance."""
        d = self.distance(node)
        if d is None:
            return []
        return [
            (node, s)
            for s in (_ASCENT, _DESCENT)
            if self.state_dist.get((node, s)) == d
        ]

    def total_paths(self, node: Node) -> int:
        """Number of distinct shortest policy paths to ``node``."""
        return sum(self.state_sigma[st] for st in self.optimal_states(node))


def policy_dag(graph: Graph, rels: Relationships, source: Node) -> PolicyDAG:
    """BFS the valley-free product graph from ``source``.

    The source starts in the ascent state (it may climb to providers, use
    one peer link, then descend).
    """
    start: State = (source, _ASCENT)
    state_dist: Dict[State, int] = {start: 0}
    state_sigma: Dict[State, int] = {start: 1}
    state_preds: Dict[State, List[State]] = {start: []}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        node, state = cur
        d = state_dist[cur]
        sig = state_sigma[cur]
        for nbr in graph.neighbors(node):
            nxt_state = _transition(state, rels.rel(node, nbr))
            if nxt_state is None:
                continue
            nxt: State = (nbr, nxt_state)
            nd = state_dist.get(nxt)
            if nd is None:
                state_dist[nxt] = d + 1
                state_sigma[nxt] = sig
                state_preds[nxt] = [cur]
                frontier.append(nxt)
            elif nd == d + 1:
                state_sigma[nxt] += sig
                state_preds[nxt].append(cur)
    return PolicyDAG(
        source=source,
        state_dist=state_dist,
        state_sigma=state_sigma,
        state_preds=state_preds,
    )


def policy_distances(graph: Graph, rels: Relationships, source: Node) -> Dict[Node, int]:
    """Valley-free shortest distance from ``source`` to each reachable node."""
    return policy_dag(graph, rels, source).distances()


def policy_pair_edge_fractions(dag: PolicyDAG, target: Node) -> Dict[Edge, float]:
    """Per-physical-edge shortest-policy-path fractions for one pair.

    Analogue of :func:`repro.routing.shortest.pair_edge_fractions` on the
    product graph; fractions of parallel state edges over the same
    physical link are summed.  Edges are oriented in the direction of
    travel (toward the target).
    """
    finals = dag.optimal_states(target)
    if not finals or target == dag.source:
        return {}
    total = sum(dag.state_sigma[st] for st in finals)
    h: Dict[State, int] = {}
    order: List[State] = []
    queue = deque()
    for st in finals:
        h[st] = 1
        order.append(st)
        queue.append(st)
    while queue:
        st = queue.popleft()
        for p in dag.state_preds[st]:
            if p not in h:
                h[p] = 0
                order.append(p)
                queue.append(p)
    order.sort(key=lambda st: -dag.state_dist[st])
    for st in order:
        hv = h[st]
        if hv == 0:
            continue
        for p in dag.state_preds[st]:
            h[p] += hv
    fractions: Dict[Edge, float] = {}
    for st in order:
        node, _ = st
        hv = h[st]
        if hv == 0:
            continue
        for p in dag.state_preds[st]:
            pnode, _ = p
            key = (pnode, node)
            fractions[key] = fractions.get(key, 0.0) + dag.state_sigma[p] * hv / total
    return fractions


def policy_path_edges(dag: PolicyDAG, targets: Iterable[Node]) -> List[Edge]:
    """All physical edges lying on some shortest policy path to ``targets``.

    Used by policy-induced ball growing (Appendix E): the ball's links
    are exactly the links on the policy paths from the center.
    """
    h_seen: Dict[State, bool] = {}
    queue = deque()
    for t in targets:
        for st in dag.optimal_states(t):
            if st not in h_seen:
                h_seen[st] = True
                queue.append(st)
    edges = set()
    while queue:
        st = queue.popleft()
        node, _ = st
        for p in dag.state_preds[st]:
            pnode, _ = p
            if pnode != node:
                a, b = (pnode, node) if repr(pnode) <= repr(node) else (node, pnode)
                edges.add((a, b))
            if p not in h_seen:
                h_seen[p] = True
                queue.append(p)
    return list(edges)


#: Ball radius of an arc that lies in no policy ball.
NO_BALL = np.iinfo(np.int32).max


class PolicyProduct:
    """The valley-free product of a frozen graph, on arrays.

    Product node ``s * n + i`` is node index ``i`` in automaton state
    ``s``.  Ascent rows hold every CSR arc, landing in the state
    :func:`_transition` gives; descent rows hold only the arcs the
    descent state may take.  Built once per (graph, relationships) and
    walked by the plain BFS kernel, one BFS per center
    (:meth:`ball_radii`).
    """

    __slots__ = ("n", "product", "tail", "descent_arcs", "reverse")

    def __init__(self, csr: CSRGraph, rels: Relationships):
        n = csr.number_of_nodes()
        nodes = csr.node_list()
        indptr = csr.indptr.astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        dst = csr.indices.astype(np.int64)
        arc_rels = [
            rels.rel(nodes[u], nodes[v])
            for u, v in zip(src.tolist(), dst.tolist())
        ]
        steps = {
            rel: (_transition(_ASCENT, rel), _transition(_DESCENT, rel))
            for rel in set(arc_rels)
        }
        ascent_to = np.array([steps[rel][0] for rel in arc_rels], dtype=np.int64)
        descent_ok = np.array(
            [steps[rel][1] is not None for rel in arc_rels], dtype=bool
        )
        descent_arcs = np.flatnonzero(descent_ok)
        descent_ends = np.concatenate([[0], np.cumsum(descent_ok)])[indptr[1:]]
        self.n = n
        self.product = CSRGraph(
            np.concatenate([indptr, indptr[-1] + descent_ends]),
            np.concatenate([dst + n * ascent_to, dst[descent_arcs] + n]),
            range(2 * n),
        )
        self.tail = np.concatenate([src, src[descent_arcs] + n])
        self.descent_arcs = descent_arcs
        # Rows are sorted, so ordering arcs by (head, tail) lists each
        # arc's reverse in CSR order.
        self.reverse = np.lexsort((src, dst))

    def ball_radii(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        """Policy distances and arc ball radii from node index ``source``.

        Returns ``(dist, arc_radius)``.  ``dist`` is each node's policy
        distance, the minimum over its states (``-1`` when unreached).
        ``arc_radius[a]`` is the smallest radius h whose policy ball
        holds CSR arc ``a``: the arc lies on a shortest policy path to
        an optimal state of some node within distance h.  Both arcs of
        an edge agree; :data:`NO_BALL` marks an arc in no ball.  The
        ball of radius h is the nodes with ``dist <= h`` and the arcs
        with ``arc_radius <= h``, the links :func:`policy_path_edges`
        finds.
        """
        state_dist = kernels.bfs_levels(self.product, source).astype(np.int64)
        state_dist[state_dist < 0] = NO_BALL
        node_dist = state_dist.reshape(2, self.n).min(axis=0)
        # need[q]: the least distance of a node whose optimal state is
        # reachable from q along shortest-path arcs.
        need = np.where(state_dist == np.tile(node_dist, 2), state_dist, NO_BALL)
        head = self.product.indices
        tail_dist = state_dist[self.tail]
        tight = np.flatnonzero(
            (tail_dist < NO_BALL) & (state_dist[head] == tail_dist + 1)
        )
        tight = tight[np.argsort(tail_dist[tight], kind="stable")]
        levels = tail_dist[tight]
        # One backward sweep: a level's heads are final before its tails.
        for level in range(int(levels[-1]) if levels.size else -1, -1, -1):
            lo, hi = np.searchsorted(levels, (level, level + 1))
            arcs = tight[lo:hi]
            np.minimum.at(need, self.tail[arcs], need[head[arcs]])
        state_radius = np.full(head.size, NO_BALL, dtype=np.int64)
        state_radius[tight] = need[head[tight]]
        # State arcs map to CSR arcs: ascent arcs one to one, then the
        # descent arcs; an arc takes its lesser state radius.
        arc_count = self.reverse.size
        arc_radius = state_radius[:arc_count]
        arc_radius[self.descent_arcs] = np.minimum(
            arc_radius[self.descent_arcs], state_radius[arc_count:]
        )
        arc_radius = np.minimum(arc_radius, arc_radius[self.reverse])
        dist = np.where(node_dist < NO_BALL, node_dist, -1).astype(np.int32)
        return dist, arc_radius
