"""Balanced graph bipartition (the resilience metric's inner solver).

The paper defines resilience R(n) as "the average minimum cut-set size
within an n-node ball", where the cut-set is for a *balanced bi-partition*
("the minimal number of links that must be cut so that the two resulting
components have approximately n/2 nodes").  The problem is NP-hard; the
paper uses the multilevel heuristics of Karypis & Kumar (METIS).

This module is a from-scratch multilevel partitioner in the same spirit:

1. **Exact regime** for tiny graphs (``n <= _EXACT_MAX``): Gray-code
   enumeration of every balanced split, so small balls get the true
   optimum.
2. **Coarsening** by deterministic heavy-edge handshake matching until
   the graph is small.
3. **Initial partitioning** of the coarsest graph by weight-bounded BFS
   growth from a random seed.
4. **Uncoarsening** with boundary Fiduccia–Mattheyses (FM) refinement at
   every level, under a node-weight balance constraint, finished by an
   exact max-flow re-assignment of the boundary region.

Every step is *canonical*: given the node index order and the seed draws,
the algorithm is a deterministic function with min-index tie-breaking
throughout.  :mod:`repro.graph.kernels_flow` implements the same
algorithm over CSR arrays and owns the tuning constants both share; the
two must agree bitwise — the differential suite in ``tests/test_kernels_metrics.py`` and the
``kernels`` selfcheck family enforce it.

Tests verify the known growth laws the paper quotes: R(n) ∝ n for random
graphs, R(n) ∝ sqrt(n) for meshes, and R(n) = 1 for trees.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graph.core import Graph
from repro.graph.flow import Dinic
from repro.graph.kernels_flow import (
    _COARSEST,
    _EXACT_MAX,
    _FLOW_REGION_MAX,
    _FM_STALL,
    _side_weight_bound,
    balance_bound,
)

Node = Hashable

# Adjacency with edge weights: _WAdj[u][v] == weight of edge (u, v).
_WAdj = List[Dict[int, int]]


def balanced_bipartition(
    graph: Graph,
    rng: Optional[random.Random] = None,
    trials: int = 4,
    balance_slack: float = 0.05,
) -> Tuple[int, Tuple[Set[Node], Set[Node]]]:
    """Heuristic minimum balanced bipartition of ``graph``.

    Returns ``(cut_size, (side_a, side_b))`` where the two sides partition
    the node set and each side holds between ``(0.5 - slack)`` and
    ``(0.5 + slack)`` of the nodes (slack is widened when node merging
    during coarsening makes a perfect split impossible).

    Parameters
    ----------
    graph:
        Graph to split; graphs with fewer than 2 nodes return cut 0.
    rng:
        Source of randomness (defaults to a fixed-seed ``Random`` so
        results are reproducible).  Graphs in the exact regime draw
        nothing; heuristic trials draw exactly one seed node each.
    trials:
        Independent multilevel runs; the best cut wins.  Ignored in the
        exact regime.
    balance_slack:
        Allowed deviation of each side's weight from half the total.
    """
    rng = rng if rng is not None else random.Random(0)
    n = graph.number_of_nodes()
    if n < 2:
        nodes = set(graph.nodes())
        return 0, (nodes, set())
    adj_lists, node_order = graph.adjacency_lists()
    weighted_adj: _WAdj = [
        {v: 1 for v in sorted(nbrs)} for nbrs in adj_lists
    ]

    if n <= _EXACT_MAX:
        cut, side = _exact_bipartition(weighted_adj, balance_slack)
    else:
        node_weights = [1] * n
        best_cut: Optional[int] = None
        best_side: Optional[List[int]] = None
        for _ in range(max(1, trials)):
            start = rng.randrange(n)
            grown = _grow_from(weighted_adj, node_weights, start)
            grown_cut = _cut_size(weighted_adj, grown)
            cut, side = _multilevel(
                weighted_adj, node_weights, start, balance_slack
            )
            if grown_cut < cut:
                cut, side = grown_cut, grown
            if best_cut is None or cut < best_cut:
                best_cut, best_side = cut, side
        assert best_cut is not None and best_side is not None
        cut, side = _cut_size(weighted_adj, best_side), best_side
    side_a = {node_order[i] for i in range(n) if side[i] == 0}
    side_b = {node_order[i] for i in range(n) if side[i] == 1}
    return cut, (side_a, side_b)


def bisection_cut_size(
    graph: Graph, rng: Optional[random.Random] = None, trials: int = 4
) -> int:
    """Just the balanced-bipartition cut size (the resilience value)."""
    cut, _ = balanced_bipartition(graph, rng=rng, trials=trials)
    return cut


def greedy_bisection_cut_size(
    graph: Graph, rng: Optional[random.Random] = None
) -> int:
    """Ablation baseline: single BFS-grown split with *no* FM refinement.

    Used by ``benchmarks/test_ablation_partition.py`` to quantify how much
    the multilevel/FM machinery matters for the resilience curves.  The
    refined partitioner evaluates this exact partition as a candidate in
    its first trial, so it can never do worse than this baseline under
    the same ``rng``.
    """
    rng = rng if rng is not None else random.Random(0)
    n = graph.number_of_nodes()
    if n < 2:
        return 0
    adj_lists, _ = graph.adjacency_lists()
    weighted_adj: _WAdj = [{v: 1 for v in sorted(nbrs)} for nbrs in adj_lists]
    node_weights = [1] * n
    side = _grow_initial_partition(weighted_adj, node_weights, rng)
    return _cut_size(weighted_adj, side)


# ----------------------------------------------------------------------
# Exact regime
# ----------------------------------------------------------------------

def _exact_bipartition(
    adj: _WAdj, balance_slack: float
) -> Tuple[int, List[int]]:
    """Optimal balanced bipartition by Gray-code enumeration.

    Node 0 is anchored on side 0.  Among feasible splits the winner is
    the minimum ``(cut, side-1 bitmask)`` pair, a canonical choice that
    does not depend on enumeration order — the vectorized kernel
    enumerates the same masks in chunks and must land on the same split.
    """
    n = len(adj)
    bitmask = [0] * n
    for u in range(n):
        for v in adj[u]:
            bitmask[u] |= 1 << v
    degree = [len(adj[u]) for u in range(n)]
    bound = balance_bound(n, balance_slack)

    best: Optional[Tuple[int, int]] = None
    cur_cut = 0
    prev_gray = 0
    for m in range(1, 1 << (n - 1)):
        gray = m ^ (m >> 1)
        # ``gray`` covers nodes 1..n-1; the full side mask is gray << 1.
        node = (gray ^ prev_gray).bit_length()
        in_b = (prev_gray << 1 >> node) & 1
        nbrs_in_b = bin(bitmask[node] & (prev_gray << 1)).count("1")
        if in_b:
            cur_cut += 2 * nbrs_in_b - degree[node]
        else:
            cur_cut += degree[node] - 2 * nbrs_in_b
        prev_gray = gray
        size_b = bin(gray).count("1")
        if max(size_b, n - size_b) <= bound:
            key = (cur_cut, gray)
            if best is None or key < best:
                best = key
    assert best is not None  # a feasible split always exists for n >= 2
    mask = best[1] << 1
    side = [(mask >> i) & 1 for i in range(n)]
    return _cut_size(adj, side), side


# ----------------------------------------------------------------------
# Multilevel machinery
# ----------------------------------------------------------------------

def _multilevel(
    adj: _WAdj,
    node_weights: List[int],
    start: int,
    balance_slack: float,
) -> Tuple[int, List[int]]:
    """One full V-cycle: coarsen, split, uncoarsen with FM refinement.

    Deterministic given ``start``, the fine-level seed node.
    """
    levels: List[Tuple[_WAdj, List[int], List[int]]] = []
    current_adj, current_w = adj, node_weights
    seed = start
    # Cap merged node weight so the coarsest graph still admits a balanced
    # split (uncapped heavy-edge matching collapses stars/trees into
    # supernodes holding half the graph, which voids the balance bound).
    max_merge_weight = max(2, sum(node_weights) // 32)
    while len(current_adj) > _COARSEST:
        coarse_adj, coarse_w, mapping = _coarsen(
            current_adj, current_w, max_merge_weight
        )
        if len(coarse_adj) >= 0.95 * len(current_adj):
            break  # matching is no longer making real progress
        levels.append((current_adj, current_w, mapping))
        current_adj, current_w = coarse_adj, coarse_w
        seed = mapping[seed]

    side = _grow_from(current_adj, current_w, seed)
    side = _fm_refine(current_adj, current_w, side, balance_slack)

    while levels:
        fine_adj, fine_w, mapping = levels.pop()
        side = [side[mapping[i]] for i in range(len(fine_adj))]
        side = _fm_refine(fine_adj, fine_w, side, balance_slack)
    side = _flow_refine(adj, node_weights, side, balance_slack)
    return _cut_size(adj, side), side


def _coarsen(
    adj: _WAdj,
    node_weights: List[int],
    max_merge_weight: int,
) -> Tuple[_WAdj, List[int], List[int]]:
    """Heavy-edge *handshake* matching coarsening with a weight cap.

    Rounds of proposals: every unmatched node proposes the unmatched
    neighbor maximizing the total-order edge key ``(weight, -min(u, v),
    -max(u, v))`` subject to the merged-weight cap; mutual proposals
    match.  The globally best eligible edge is always mutual, so every
    round makes progress and the result is a maximal matching — with no
    randomness, unlike classic randomized heavy-edge matching, so the
    CSR kernel can replay it exactly.

    Returns the coarse adjacency, coarse node weights, and the
    fine-index -> coarse-index mapping.
    """
    n = len(adj)
    match = [-1] * n
    while True:
        proposal = [-1] * n
        for u in range(n):
            if match[u] != -1:
                continue
            best_key = None
            best_v = -1
            for v, w in adj[u].items():
                if match[v] != -1:
                    continue
                if node_weights[u] + node_weights[v] > max_merge_weight:
                    continue
                key = (w, -min(u, v), -max(u, v))
                if best_key is None or key > best_key:
                    best_key, best_v = key, v
            proposal[u] = best_v
        progress = False
        for u in range(n):
            v = proposal[u]
            if v > u and proposal[v] == u:
                match[u] = v
                match[v] = u
                progress = True
        if not progress:
            break
    for u in range(n):
        if match[u] == -1:
            match[u] = u  # unmatched: maps to itself

    mapping = [-1] * n
    next_coarse = 0
    for u in range(n):
        if mapping[u] != -1:
            continue
        mapping[u] = next_coarse
        partner = match[u]
        if partner != u and mapping[partner] == -1:
            mapping[partner] = next_coarse
        next_coarse += 1

    coarse_adj: _WAdj = [dict() for _ in range(next_coarse)]
    coarse_w = [0] * next_coarse
    for u in range(n):
        cu = mapping[u]
        coarse_w[cu] += node_weights[u]
        for v, w in adj[u].items():
            cv = mapping[v]
            if cu == cv:
                continue
            coarse_adj[cu][cv] = coarse_adj[cu].get(cv, 0) + w
    # Note: iterating every fine node's adjacency adds each fine edge once
    # to coarse_adj[cu][cv] (from u) and once to coarse_adj[cv][cu] (from
    # v), so both direction maps carry the correct undirected weight.
    return coarse_adj, coarse_w, mapping


def _grow_initial_partition(
    adj: _WAdj, node_weights: List[int], rng: random.Random
) -> List[int]:
    """BFS-grow side 0 from a random seed until it holds half the weight."""
    return _grow_from(adj, node_weights, rng.randrange(len(adj)))


def _grow_from(
    adj: _WAdj, node_weights: List[int], start: int
) -> List[int]:
    """Canonical BFS-grow: admit nodes in (BFS level, index) order.

    The visit order is BFS levels with each level sorted ascending, then
    any unreached nodes ascending; nodes are admitted to side 0 in that
    order while it holds less than half the total weight.
    """
    n = len(adj)
    total = sum(node_weights)
    target = total // 2
    max_w = max(node_weights)
    dist = [-1] * n
    dist[start] = 0
    order = [start]
    frontier = [start]
    while frontier:
        discovered: List[int] = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    discovered.append(v)
        frontier = sorted(discovered)
        order.extend(frontier)
    order.extend(v for v in range(n) if dist[v] < 0)

    side = [1] * n
    grown = 0
    for v in order:
        if grown >= target:
            break
        if grown + node_weights[v] <= target + max_w:
            side[v] = 0
            grown += node_weights[v]
    return side


def _cut_size(adj: _WAdj, side: Sequence[int]) -> int:
    cut = 0
    for u in range(len(adj)):
        su = side[u]
        for v, w in adj[u].items():
            if v > u and side[v] != su:
                cut += w
    return cut


def _fm_refine(
    adj: _WAdj,
    node_weights: List[int],
    side: List[int],
    balance_slack: float,
    max_passes: int = 8,
) -> List[int]:
    """Boundary Fiduccia–Mattheyses refinement with a balance bound.

    Each pass seeds a max-gain heap with the *boundary* nodes (those with
    a neighbor on the other side), moves the best feasible node, updates
    neighbor gains, and keeps the best prefix of the move sequence.  A
    pass ends when the heap empties or after ``_FM_STALL`` consecutive
    non-improving moves; refinement ends after a pass with no strict
    improvement.  Heap entries are ``(-gain, node, version)`` tuples, so
    the pop order is a pure function of the entry multiset and the CSR
    kernel reproduces it exactly.
    """
    n = len(adj)
    max_side_w = _side_weight_bound(node_weights, balance_slack)

    side = list(side)
    for _ in range(max_passes):
        gain = [0] * n
        boundary = [False] * n
        for u in range(n):
            su = side[u]
            g = 0
            for v, w in adj[u].items():
                if side[v] != su:
                    g += w
                    boundary[u] = True
                else:
                    g -= w
            gain[u] = g
        side_w = [0, 0]
        for u in range(n):
            side_w[side[u]] += node_weights[u]

        version = [0] * n
        heap: List[Tuple[int, int, int]] = [
            (-gain[u], u, 0) for u in range(n) if boundary[u]
        ]
        heapq.heapify(heap)
        locked = [False] * n

        pass_start_cut = _cut_size(adj, side)
        cur_cut = pass_start_cut
        best_cut = cur_cut
        best_snapshot = list(side)
        since_best = 0

        while heap and since_best < _FM_STALL:
            neg_g, u, ver = heapq.heappop(heap)
            if locked[u] or ver != version[u]:
                continue
            target = 1 - side[u]
            if side_w[target] + node_weights[u] > max_side_w:
                continue  # move would break balance; skip (stays locked out)
            # Execute the move.
            locked[u] = True
            cur_cut -= gain[u]
            side_w[side[u]] -= node_weights[u]
            side_w[target] += node_weights[u]
            side[u] = target
            for v, w in adj[u].items():
                if locked[v]:
                    continue
                # u just switched sides: an edge to a now-same-side v went
                # from cut to internal (v's gain drops by 2w), and vice versa.
                gain[v] += -2 * w if side[v] == side[u] else 2 * w
                version[v] += 1
                heapq.heappush(heap, (-gain[v], v, version[v]))
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_snapshot = list(side)
                since_best = 0
            else:
                since_best += 1

        side = best_snapshot
        if best_cut >= pass_start_cut:
            break  # pass found no improvement; a further pass won't either
    return side


def _flow_refine(
    adj: _WAdj,
    node_weights: List[int],
    side: List[int],
    balance_slack: float,
) -> List[int]:
    """Exact max-flow re-assignment of the boundary region.

    Contract side 0 minus the boundary into a source, side 1 minus the
    boundary into a sink, keep the boundary nodes (endpoints of cut
    edges) free, and solve the s–t min cut exactly.  The source side of
    the *residual-reachable* min cut — the unique inclusion-minimal one,
    identical for every max flow — becomes the new side 0 assignment of
    the boundary.  Accepted only if the cut strictly improves and the
    balance bound still holds.
    """
    n = len(adj)
    region = sorted(
        u
        for u in range(n)
        if any(side[v] != side[u] for v in adj[u])
    )
    if not region or len(region) > _FLOW_REGION_MAX:
        return side
    in_region = [False] * n
    for u in region:
        in_region[u] = True
    if all(in_region[u] or side[u] == 0 for u in range(n)):
        return side  # no contracted sink
    if all(in_region[u] or side[u] == 1 for u in range(n)):
        return side  # no contracted source
    local = {u: i + 2 for i, u in enumerate(region)}
    dinic = Dinic(len(region) + 2)
    for u in region:
        to_source = 0
        to_sink = 0
        for v, w in adj[u].items():
            if in_region[v]:
                if v > u:
                    dinic.add_edge(local[u], local[v], w)
                    dinic.add_edge(local[v], local[u], w)
            elif side[v] == 0:
                to_source += w
            else:
                to_sink += w
        if to_source:
            dinic.add_edge(0, local[u], to_source)
        if to_sink:
            dinic.add_edge(local[u], 1, to_sink)
    dinic.max_flow(0, 1)
    reach = dinic.min_cut_reachable(0)

    new_side = list(side)
    for u in region:
        new_side[u] = 0 if reach[local[u]] else 1
    if _cut_size(adj, new_side) >= _cut_size(adj, side):
        return side
    max_side_w = _side_weight_bound(node_weights, balance_slack)
    side_w = [0, 0]
    for u in range(n):
        side_w[new_side[u]] += node_weights[u]
    if max(side_w) > max_side_w:
        return side
    return new_side
