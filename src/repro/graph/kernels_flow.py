"""CSR flow kernels: max flow / min cut and the balanced-bipartition
solver behind the resilience metric.

The dict twin is :mod:`repro.graph.partition` (multilevel FM with exact
max-flow boundary refinement) driven by :func:`repro.metrics.resilience.
resilience_of`.  This module re-implements the same *canonical*
algorithm over CSR arrays and owns its tuning constants (the twin
imports them from here):

* :func:`max_flow_min_cut` — :class:`~repro.graph.flow.Dinic` max flow
  over exact Python integers, with the residual-reachable source side
  of the min cut.  The flow value and the residual-reachable set are
  unique — identical for *every* max flow — so the kernel agrees
  exactly with the twin's float network and with the independent
  Edmonds–Karp oracle (:func:`repro.testing.oracles.edmonds_karp_min_cut`).
* :func:`bisection_cut_csr` — the per-ball solver, a bitwise mirror of
  :func:`repro.graph.partition.bisection_cut_size`: same exact-regime
  Gray-code enumeration (vectorized over all masks at once), same
  deterministic handshake coarsening, canonical BFS growth, boundary FM
  and flow refinement, making literally the same ``rng`` draws.  The
  bulk array work (gain initialization, cut sizes, coarsening,
  membership) is vectorized; the FM move loop itself stays a scalar
  heap loop because its pop sequence *is* the algorithm — heap entries
  are totally ordered ``(-gain, node, version)`` tuples, so the
  sequence is a pure function of the entry multiset and both
  implementations walk the same moves.
* :func:`resilience_csr_batch` — the metric on every ball of a
  :class:`~repro.graph.kernels.FusedBatch`, bitwise equal to
  ``resilience_of`` on each thawed ball.  A disconnected ball is
  evaluated on its largest component
  (:func:`repro.graph.kernels.largest_component_csr`), the component
  the dict twin picks; engine balls are always connected.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.flow import Dinic
from repro.graph.kernels import (
    UNREACHED,
    FusedBatch,
    _gather_rows,
    fused_bfs_levels,
    largest_component_csr,
)

#: Graphs this small are solved exactly by enumeration.
_EXACT_MAX = 14

#: Coarsening stops once the graph has at most this many nodes.
_COARSEST = 48

#: An FM pass ends after this many consecutive non-improving moves.
_FM_STALL = 24

#: Flow refinement only runs when the boundary region is at most this
#: large.  Exact max flow on huge boundary bands (dense random balls)
#: costs more than every other stage combined and essentially never
#: improves an FM-refined cut there; small regions — trees, meshes, the
#: low-resilience topologies where the refinement matters — keep it.
_FLOW_REGION_MAX = 300


def balance_bound(n: int, balance_slack: float = 0.05) -> int:
    """Maximum side size of a feasible split of ``n`` unit-weight nodes."""
    return min(n - 1, int(n / 2 + max(1.0, balance_slack * n)))


def _side_weight_bound(
    node_weights: List[int], balance_slack: float
) -> float:
    """Maximum weight either side may hold during refinement."""
    total = sum(node_weights)
    max_node_w = max(node_weights) if node_weights else 0
    min_node_w = min(node_weights) if node_weights else 0
    # Each side may hold at most half the weight plus slack; the slack is
    # never smaller than the heaviest node so a legal move always exists,
    # but neither side may ever be emptied out completely.
    return min(
        total - min_node_w,
        total / 2 + max(max_node_w, balance_slack * total),
    )


#: Arc list type for :func:`max_flow_min_cut`: directed ``(u, v, cap)``.
Arc = Tuple[int, int, int]

# A weighted graph level as flat arrays: (indptr, indices, weights,
# node_weights), all int64; arcs appear in both directions.
_Level = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Max flow / min cut
# ----------------------------------------------------------------------

def max_flow_min_cut(
    num_nodes: int, arcs: Sequence[Arc], source: int, sink: int
) -> Tuple[int, List[bool]]:
    """Max s–t flow and the canonical min-cut source side.

    ``arcs`` are directed ``(u, v, capacity)`` entries (the reverse
    residual arc is created automatically with capacity 0, as in
    :meth:`repro.graph.flow.Dinic.add_edge`).  Returns
    ``(flow_value, reachable)`` where ``reachable[v]`` marks the nodes
    residual-reachable from ``source`` after the flow — the source side
    of the inclusion-minimal min cut, which is unique and therefore
    independent of the augmenting order and of the solver used.

    Runs :class:`~repro.graph.flow.Dinic` (blocking flow per BFS phase)
    on a network of Python integers, so capacities of any size stay
    exact; a negative capacity raises ``ValueError``.
    """
    network = Dinic(num_nodes, zero=0)
    for u, v, c in arcs:
        network.add_edge(u, v, c)
    flow = network.max_flow(source, sink)
    return flow, network.min_cut_reachable(source)


# ----------------------------------------------------------------------
# Balanced bipartition (twin: repro.graph.partition)
# ----------------------------------------------------------------------

def _arc_sources(indptr: np.ndarray) -> np.ndarray:
    """Arc source indices: node ``u`` repeated ``degree(u)`` times."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def _cut_csr(level: _Level, side: np.ndarray) -> int:
    """Weighted cut size (twin: ``repro.graph.partition._cut_size``)."""
    indptr, indices, weights, _node_weights = level
    src = _arc_sources(indptr)
    once = src < indices
    crossing = once & (side[src] != side[indices])
    return int(weights[crossing].sum())


def _exact_bipartition_csr(level: _Level, balance_slack: float) -> Tuple[int, np.ndarray]:
    """Vectorized Gray-mask enumeration (twin: ``_exact_bipartition``).

    Enumerates every side mask with node 0 anchored on side 0, scoring
    all masks in one broadcast, and picks the minimum ``(cut, mask)``
    key among feasible splits — the twin's canonical winner.
    """
    indptr, indices, weights, _node_weights = level
    n = len(indptr) - 1
    bound = balance_bound(n, balance_slack)
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    smask = masks << 1  # bit i of smask == node i's side
    src = _arc_sources(indptr)
    once = src < indices
    u = src[once]
    v = indices[once]
    if u.size:
        crossing = ((smask[None, :] >> u[:, None]) ^ (smask[None, :] >> v[:, None])) & 1
        cuts = (weights[once][:, None] * crossing).sum(axis=0)
    else:
        cuts = np.zeros(masks.size, dtype=np.int64)
    size_b = np.zeros(masks.size, dtype=np.int64)
    for k in range(n - 1):
        size_b += (masks >> k) & 1
    feasible = np.maximum(size_b, n - size_b) <= bound
    keys = (cuts << (n - 1)) | masks
    keys = keys[feasible]
    best_mask = int(masks[feasible][np.argmin(keys)])
    side = ((best_mask << 1) >> np.arange(n, dtype=np.int64)) & 1
    return _cut_csr(level, side), side


def _coarsen_csr(level: _Level, max_merge_weight: int) -> Tuple[_Level, np.ndarray]:
    """Deterministic handshake coarsening (twin: ``_coarsen``).

    Proposal selection maximizes the edge key ``(w, -min(u, v),
    -max(u, v))``, encoded into a single int64 (the components are
    bounded by ``n``, so the packing is exactly lexicographic); mutual
    proposals match, and the coarse ids are the ascending ranks of each
    group's representative ``min(u, match[u])`` — the twin's first-seen
    ascending numbering.
    """
    indptr, indices, weights, node_weights = level
    n = len(indptr) - 1
    src = _arc_sources(indptr)
    dst = indices
    span = np.int64(n + 1)
    mn = np.minimum(src, dst)
    mx = np.maximum(src, dst)
    edge_key = (weights * span + (span - 1 - mn)) * span + (span - 1 - mx)
    under_cap = node_weights[src] + node_weights[dst] <= max_merge_weight

    match = np.full(n, -1, dtype=np.int64)
    while True:
        live = under_cap & (match[src] == -1) & (match[dst] == -1)
        best = np.zeros(n, dtype=np.int64)
        np.maximum.at(best, src[live], edge_key[live])
        proposal = np.full(n, -1, dtype=np.int64)
        hit = live & (best[src] > 0) & (edge_key == best[src])
        proposal[src[hit]] = dst[hit]
        cand = np.flatnonzero(proposal >= 0)
        cand = cand[proposal[cand] > cand]
        if cand.size:
            cand = cand[proposal[proposal[cand]] == cand]
        if not cand.size:
            break
        match[cand] = proposal[cand]
        match[proposal[cand]] = cand
    unmatched = np.flatnonzero(match == -1)
    match[unmatched] = unmatched

    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    _uniq, mapping = np.unique(rep, return_inverse=True)
    mapping = mapping.astype(np.int64)
    nc = len(_uniq)
    coarse_node_w = np.bincount(
        mapping, weights=node_weights, minlength=nc
    ).astype(np.int64)

    csrc = mapping[src]
    cdst = mapping[dst]
    keep = csrc != cdst
    pair = csrc[keep] * nc + cdst[keep]
    uniq_pair, inverse = np.unique(pair, return_inverse=True)
    coarse_w = np.bincount(
        inverse, weights=weights[keep], minlength=len(uniq_pair)
    ).astype(np.int64)
    coarse_src = uniq_pair // nc
    coarse_indices = uniq_pair % nc
    coarse_indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(coarse_src, minlength=nc), out=coarse_indptr[1:])
    coarse: _Level = (coarse_indptr, coarse_indices, coarse_w, coarse_node_w)
    return coarse, mapping


def _grow_from_csr(level: _Level, start: int) -> np.ndarray:
    """Canonical BFS-grow (twin: ``_grow_from``).

    Visit order is BFS levels each sorted ascending, then unreached
    nodes ascending; side 0 admits nodes in that order while it holds
    less than half the total weight.
    """
    indptr, indices, _weights, node_weights = level
    n = len(indptr) - 1
    dist = np.full(n, UNREACHED, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        neighbors, _counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if not fresh.size:
            break
        depth += 1
        dist[fresh] = depth
        frontier = np.flatnonzero(dist == depth)
    rank = np.where(dist == UNREACHED, np.int64(n), dist)
    order = np.lexsort((np.arange(n, dtype=np.int64), rank))

    total = int(node_weights.sum())
    target = total // 2
    max_w = int(node_weights.max())
    side = np.ones(n, dtype=np.int64)
    if max_w == 1:
        side[order[:target]] = 0  # unit weights: every candidate is admitted
        return side
    grown = 0
    weights_list = node_weights.tolist()
    side_list = side.tolist()
    for v in order.tolist():
        if grown >= target:
            break
        if grown + weights_list[v] <= target + max_w:
            side_list[v] = 0
            grown += weights_list[v]
    return np.asarray(side_list, dtype=np.int64)


def _flat_lists(level: _Level) -> Tuple[List[int], List[int], List[int], List[int]]:
    """A level's arrays as plain Python lists for the scalar FM loop."""
    indptr, indices, weights, node_weights = level
    return (
        indptr.tolist(),
        indices.tolist(),
        weights.tolist(),
        node_weights.tolist(),
    )


def _fm_refine_csr(
    level: _Level,
    lists: Tuple[List[int], List[int], List[int], List[int]],
    side: np.ndarray,
    balance_slack: float,
    max_passes: int = 8,
) -> np.ndarray:
    """Boundary FM refinement (twin: ``_fm_refine``).

    Per-pass gain/boundary/cut initialization is vectorized; the move
    loop is the twin's heap loop verbatim (its pop order is a pure
    function of the entry multiset, so both walk identical moves).
    """
    indptr, indices, weights, node_weights = level
    n = len(indptr) - 1
    indptr_l, dst_l, w_l, node_w = lists
    max_side_w = _side_weight_bound(node_w, balance_slack)
    src = _arc_sources(indptr)
    once = src < indices
    once_u, once_v, once_w = src[once], indices[once], weights[once]

    side = np.asarray(side, dtype=np.int64)
    for _ in range(max_passes):
        crossing = side[src] != side[indices]
        cut_w = np.bincount(src[crossing], weights=weights[crossing], minlength=n)
        deg_w = np.bincount(src, weights=weights, minlength=n).astype(np.int64)
        gain_arr = (2 * cut_w.astype(np.int64)) - deg_w
        boundary = cut_w > 0
        pass_start_cut = int(
            once_w[side[once_u] != side[once_v]].sum()
        )
        side_w = [
            int(node_weights[side == 0].sum()),
            int(node_weights[side == 1].sum()),
        ]

        gain = gain_arr.tolist()
        side_l = side.tolist()
        version = [0] * n
        heap: List[Tuple[int, int, int]] = [
            (-gain[u], u, 0) for u in np.flatnonzero(boundary).tolist()
        ]
        heapq.heapify(heap)
        locked = [False] * n

        cur_cut = pass_start_cut
        best_cut = cur_cut
        best_snapshot = list(side_l)
        since_best = 0

        while heap and since_best < _FM_STALL:
            _neg_g, u, ver = heapq.heappop(heap)
            if locked[u] or ver != version[u]:
                continue
            target = 1 - side_l[u]
            if side_w[target] + node_w[u] > max_side_w:
                continue  # move would break balance; skip (stays locked out)
            locked[u] = True
            cur_cut -= gain[u]
            side_w[side_l[u]] -= node_w[u]
            side_w[target] += node_w[u]
            side_l[u] = target
            for k in range(indptr_l[u], indptr_l[u + 1]):
                v = dst_l[k]
                if locked[v]:
                    continue
                w = w_l[k]
                gain[v] += -2 * w if side_l[v] == side_l[u] else 2 * w
                version[v] += 1
                heapq.heappush(heap, (-gain[v], v, version[v]))
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_snapshot = list(side_l)
                since_best = 0
            else:
                since_best += 1

        side = np.asarray(best_snapshot, dtype=np.int64)
        if best_cut >= pass_start_cut:
            break  # pass found no improvement; a further pass won't either
    return side


def _flow_refine_csr(
    level: _Level, side: np.ndarray, balance_slack: float
) -> np.ndarray:
    """Exact max-flow boundary re-assignment (twin: ``_flow_refine``).

    The contracted s–t network is identical to the twin's Dinic network
    up to arc ordering; the residual-reachable source side is the
    unique inclusion-minimal min cut, so both solvers re-assign the
    boundary identically.
    """
    indptr, indices, weights, node_weights = level
    n = len(indptr) - 1
    src = _arc_sources(indptr)
    crossing = side[src] != side[indices]
    region = np.unique(src[crossing])
    if not region.size or region.size > _FLOW_REGION_MAX:
        return side
    in_region = np.zeros(n, dtype=bool)
    in_region[region] = True
    outside = ~in_region
    if bool(np.all(side[outside] == 0)):
        return side  # no contracted sink
    if bool(np.all(side[outside] == 1)):
        return side  # no contracted source

    arcs: List[Arc] = []
    inner = in_region[src] & in_region[indices] & (indices > src)
    local_u = np.searchsorted(region, src[inner]) + 2
    local_v = np.searchsorted(region, indices[inner]) + 2
    for lu, lv, w in zip(local_u.tolist(), local_v.tolist(), weights[inner].tolist()):
        arcs.append((lu, lv, w))
        arcs.append((lv, lu, w))
    outward = in_region[src] & ~in_region[indices]
    to_side = side[indices[outward]]
    out_src = src[outward]
    out_w = weights[outward]
    to_source = np.bincount(
        out_src[to_side == 0], weights=out_w[to_side == 0], minlength=n
    ).astype(np.int64)
    to_sink = np.bincount(
        out_src[to_side == 1], weights=out_w[to_side == 1], minlength=n
    ).astype(np.int64)
    for i, u in enumerate(region.tolist()):
        if to_source[u]:
            arcs.append((0, i + 2, int(to_source[u])))
        if to_sink[u]:
            arcs.append((i + 2, 1, int(to_sink[u])))
    _flow, reachable = max_flow_min_cut(len(region) + 2, arcs, 0, 1)

    new_side = side.copy()
    new_side[region] = np.where(np.asarray(reachable[2:], dtype=bool), 0, 1)
    if _cut_csr(level, new_side) >= _cut_csr(level, side):
        return side
    max_side_w = _side_weight_bound(node_weights.tolist(), balance_slack)
    side_w = [
        int(node_weights[new_side == 0].sum()),
        int(node_weights[new_side == 1].sum()),
    ]
    if max(side_w) > max_side_w:
        return side
    return new_side


_Lists = Tuple[List[int], List[int], List[int], List[int]]
_Chain = Tuple[List[Tuple[_Level, _Lists, np.ndarray]], _Level, _Lists]


def _build_level_chain(fine: _Level) -> _Chain:
    """The coarsening chain of one V-cycle (twin: ``_multilevel``'s loop).

    Coarsening is seed-independent, so the chain (and each level's flat
    Python lists for the FM loop) is computed once per graph and shared
    across heuristic trials — the twin recomputes it per trial with
    identical results.
    """
    levels: List[Tuple[_Level, _Lists, np.ndarray]] = []
    current = fine
    max_merge_weight = max(2, int(fine[3].sum()) // 32)
    while len(current[0]) - 1 > _COARSEST:
        coarse, mapping = _coarsen_csr(current, max_merge_weight)
        if len(coarse[0]) - 1 >= 0.95 * (len(current[0]) - 1):
            break  # matching is no longer making real progress
        levels.append((current, _flat_lists(current), mapping))
        current = coarse
    return levels, current, _flat_lists(current)


def _multilevel_csr(
    fine: _Level,
    chain: _Chain,
    start: int,
    balance_slack: float,
) -> Tuple[int, np.ndarray]:
    """One V-cycle from a precomputed chain (twin: ``_multilevel``)."""
    levels, coarsest, coarsest_lists = chain
    seed = start
    for _level, _lists, mapping in levels:
        seed = int(mapping[seed])
    side = _grow_from_csr(coarsest, seed)
    side = _fm_refine_csr(coarsest, coarsest_lists, side, balance_slack)
    for level, lists, mapping in reversed(levels):
        side = side[mapping]
        side = _fm_refine_csr(level, lists, side, balance_slack)
    side = _flow_refine_csr(fine, side, balance_slack)
    return _cut_csr(fine, side), side


def _unit_level(sub: CSRGraph) -> _Level:
    """A CSR ball as a unit-weight flat level."""
    n = sub.number_of_nodes()
    return (
        sub.indptr.astype(np.int64),
        sub.indices.astype(np.int64),
        np.ones(len(sub.indices), dtype=np.int64),
        np.ones(n, dtype=np.int64),
    )


def bisection_cut_csr(
    sub: CSRGraph,
    rng: Optional[random.Random] = None,
    trials: int = 4,
    balance_slack: float = 0.05,
) -> int:
    """Balanced-bipartition cut size of a CSR graph, bitwise equal to
    :func:`repro.graph.partition.bisection_cut_size` on the thawed
    graph (same draws from ``rng``, same canonical tie-breaks).
    """
    rng = rng if rng is not None else random.Random(0)
    n = sub.number_of_nodes()
    if n < 2:
        return 0
    fine = _unit_level(sub)
    if n <= _EXACT_MAX:
        cut, _side = _exact_bipartition_csr(fine, balance_slack)
        return cut
    chain = _build_level_chain(fine)
    best_cut: Optional[int] = None
    best_side: Optional[np.ndarray] = None
    for _ in range(max(1, trials)):
        start = rng.randrange(n)
        grown = _grow_from_csr(fine, start)
        grown_cut = _cut_csr(fine, grown)
        cut, side = _multilevel_csr(fine, chain, start, balance_slack)
        if grown_cut < cut:
            cut, side = grown_cut, grown
        if best_cut is None or cut < best_cut:
            best_cut, best_side = cut, side
    assert best_side is not None
    return _cut_csr(fine, best_side)


def resilience_csr_batch(
    fused: FusedBatch,
    rng: Optional[random.Random] = None,
    trials: int = 3,
) -> List[float]:
    """Every ball's resilience, sharing one fused connectivity probe.

    Bitwise equal to ``[resilience_of(fused.sub_csr(b).thaw(), rng,
    trials) ...]`` on the same rng.  The bisection solver is a scalar
    multilevel loop (its heap pop sequence *is* the algorithm), so each
    ball still runs it separately — this entry point's wins are the
    single fused connectivity sweep replacing one probe BFS per ball and
    the ``range``-labelled local CSR views that skip ``sub_csr``'s node-
    label materialisation (the solver never reads labels).  Draws stay
    sequential per ball in schedule order; a disconnected ball is cut on
    its largest component, drawing nothing before the solver.
    """
    rng = rng if rng is not None else random.Random(0)
    num_balls = len(fused)
    results: List[float] = [0.0] * num_balls
    if num_balls == 0:
        return results
    probe_sources = np.array(
        [
            int(fused.node_offsets[b]) if fused.ball_size(b) else -1
            for b in range(num_balls)
        ],
        dtype=np.int64,
    )
    probe = fused_bfs_levels(fused, probe_sources)
    for b in range(num_balls):
        ball = fused.local_csr(b)
        if bool((probe[fused.ball_slice(b)] == UNREACHED).any()):
            ball = largest_component_csr(ball)
        if ball.number_of_nodes() < 2:
            continue  # twin returns 0.0 without drawing
        results[b] = float(bisection_cut_csr(ball, rng=rng, trials=trials))
    return results
