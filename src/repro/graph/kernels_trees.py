"""CSR tree kernels: canonical BFS spanning trees and distortion.

The dict twin is :func:`repro.metrics.distortion.distortion_of`, whose
inner loop scores canonical BFS trees (minimum-index parents) with the
``TreeIndex`` LCA machinery.  :func:`distortion_csr_batch` vectorizes
the same math over every ball of a
:class:`~repro.graph.kernels.FusedBatch` at once:

* one packed multi-source BFS sums each node's closeness score
  (:func:`_fused_closeness_scores`);
* per root slot, the min-index-parent BFS trees of every ball come from
  one ``np.minimum.at`` scatter (:func:`_fused_parents`);
* the integer sum over graph edges of their tree distance comes from
  vectorized binary-lifting LCA over all edges at once
  (:func:`_fused_tree_totals`).

Each ball's value is bitwise equal to the twin's (both reduce to
``min(integer totals) / num_edges``; IEEE division is monotone in the
numerator, so the minima coincide).  A disconnected ball is evaluated
on its largest component
(:func:`repro.graph.kernels.largest_component_csr`), the component the
dict twin picks; engine balls are always connected.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.graph.kernels import (
    UNREACHED,
    FusedBatch,
    _gather_rows,
    fused_bfs_levels,
    largest_component_csr,
)

#: Sample size for the closeness-center source set (twin:
#: ``repro.metrics.distortion._BETWEENNESS_SOURCES``).
CENTER_SOURCES = 24

_RANDOM_ROOTS = 2


# ----------------------------------------------------------------------
# Fused batch distortion: every ball's trees in a handful of sweeps
# ----------------------------------------------------------------------

def _fused_closeness_scores(
    fused: FusedBatch, sources_per_ball: List[List[int]]
) -> np.ndarray:
    """Summed source-BFS distance per fused node, one packed sweep.

    ``sources_per_ball[b]`` lists ball ``b``'s sources as *fused* node
    indices (empty to skip the ball).  Each ball's source ``j`` rides
    bit ``j`` of the per-node int64 mask — bits are **reused** across
    balls because the union's components never cross balls, so at most
    :data:`CENTER_SOURCES` bits are live regardless of batch size.
    A node's score accrues ``depth * popcount(fresh)`` the moment new
    sources reach it, which totals exactly the twin's
    ``sum_s dist(s, node)`` on connected balls.
    """
    n = int(fused.node_offsets[-1])
    score = np.zeros(n, dtype=np.int64)
    flat_sources: List[int] = []
    flat_bits: List[int] = []
    for sources in sources_per_ball:
        for j, s in enumerate(sources):
            flat_sources.append(s)
            flat_bits.append(j)
    if not flat_sources:
        return score
    src_arr = np.asarray(flat_sources, dtype=np.int64)
    bits_arr = np.asarray(flat_bits, dtype=np.int64)
    bit_ids = np.arange(int(bits_arr.max()) + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.int64)
    frontier_mask = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(visited, src_arr, np.int64(1) << bits_arr)
    np.bitwise_or.at(frontier_mask, src_arr, np.int64(1) << bits_arr)
    frontier = np.unique(src_arr)
    indptr, indices = fused.indptr, fused.indices
    depth = 0
    while frontier.size:
        neighbors, counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        masks = np.repeat(frontier_mask[frontier], counts)
        frontier_mask[frontier] = 0
        order = np.argsort(neighbors, kind="stable")
        targets = neighbors[order].astype(np.int64)
        starts = np.flatnonzero(
            np.concatenate(([True], targets[1:] != targets[:-1]))
        )
        merged = np.bitwise_or.reduceat(masks[order], starts)
        targets = targets[starts]
        fresh = merged & ~visited[targets]
        keep = fresh != 0
        if not np.any(keep):
            break
        depth += 1
        targets = targets[keep]
        fresh = fresh[keep]
        visited[targets] |= fresh
        frontier_mask[targets] = fresh
        arrivals = ((fresh[:, None] >> bit_ids[None, :]) & 1).sum(axis=1)
        score[targets] += depth * arrivals
        frontier = targets
    return score


def _fused_parents(fused: FusedBatch, dist: np.ndarray) -> np.ndarray:
    """Canonical min-index BFS parents over the whole fused union.

    Every node's parent is its smallest-index neighbor one BFS level up
    — the tree ``repro.metrics.distortion._canonical_bfs_parents`` builds
    node by node — for every ball at once: node-index order within a
    ball is preserved by the fused shift, so each ball's slice is its
    own canonical parent vector.  Roots (and
    nodes unreached in this sweep) keep the sentinel ``n`` — the LCA
    machinery maps any out-of-range parent to "self".
    """
    n = int(fused.node_offsets[-1])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fused.indptr))
    dst = fused.indices
    up_edge = dist[dst] == dist[src] - 1
    parent = np.full(n, n, dtype=np.int64)
    np.minimum.at(parent, src[up_edge], dst[up_edge])
    return parent


def _fused_tree_totals(
    fused: FusedBatch, parent: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """Per-ball integer total of tree distances between every graph
    edge's ends, one lifted LCA pass.

    Each undirected edge ``(u, v)`` contributes ``depth[u] + depth[v] -
    2 * depth[lca(u, v)]``.  Returns an int64 vector of length
    ``len(fused)``.  Edges never
    cross balls, so one binary-lifting table over the union serves all
    trees at once; each edge's contribution is scattered into its
    ball's total with an exact integer ``np.add.at``.  Balls whose
    slots were inactive in this sweep (all-:data:`UNREACHED` depths)
    contribute ``-1 + -1 - 2 * -1 == 0`` per edge and read back 0 —
    callers ignore those entries anyway.
    """
    num_balls = len(fused)
    totals = np.zeros(num_balls, dtype=np.int64)
    n = int(fused.node_offsets[-1])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fused.indptr))
    dst = fused.indices
    once = src < dst
    a0 = src[once]
    b0 = dst[once]
    if not a0.size:
        return totals

    depth = depth.astype(np.int64)
    max_depth = max(int(depth.max()), 0)
    levels = max(1, max_depth.bit_length())
    up = np.empty((levels, n), dtype=np.int64)
    up[0] = np.where(
        (parent < 0) | (parent >= n), np.arange(n, dtype=np.int64), parent
    )
    for k in range(1, levels):
        up[k] = up[k - 1][up[k - 1]]

    swap = depth[a0] < depth[b0]
    a = np.where(swap, b0, a0)
    b = np.where(swap, a0, b0)
    diff = depth[a] - depth[b]
    for k in range(levels):
        lift = (diff >> k) & 1 == 1
        a = np.where(lift, up[k][a], a)
    for k in range(levels - 1, -1, -1):
        apart = up[k][a] != up[k][b]
        a = np.where(apart, up[k][a], a)
        b = np.where(apart, up[k][b], b)
    lca = np.where(a == b, a, up[0][a])

    contrib = depth[a0] + depth[b0] - 2 * depth[lca]
    np.add.at(totals, fused.ball_of_node[a0], contrib)
    return totals


def distortion_csr_batch(
    fused: FusedBatch,
    rng: Optional[random.Random] = None,
    random_roots: int = _RANDOM_ROOTS,
) -> List[float]:
    """Every ball's distortion, in a handful of fused sweeps.

    Scores each ball's closeness-center, max-degree and ``random_roots``
    random-rooted canonical BFS trees and returns the minimum integer
    total divided by the edge count — bitwise equal to
    ``[distortion_of(fused.sub_csr(b).thaw(), rng) ...]`` on the *same*
    rng.  The twin's draws (``rng.sample`` for the closeness sources,
    ``rng.randrange`` per random root) depend only on each ball's node
    count, so they are replayed per ball in schedule order up front,
    before any fused array work.  Edgeless balls draw
    nothing and score 0.0; a disconnected ball is scored *in sequence*
    as a one-ball batch of its largest component, which consumes the
    rng exactly where the per-ball loop would.  Connected balls then
    share one packed closeness sweep and one BFS + parents + LCA pass
    per root *slot* (center / max-degree / each random root) instead of
    per ball.
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

    sources_per_ball: List[List[int]] = [[] for _ in range(num_balls)]
    rand_roots_per_ball: List[List[int]] = [[] for _ in range(num_balls)]
    fused_balls: List[int] = []
    for b in range(num_balls):
        if fused.ball_edge_count(b) == 0:
            continue  # twin returns 0.0 before drawing anything
        lo = int(fused.node_offsets[b])
        hi = int(fused.node_offsets[b + 1])
        n_b = hi - lo
        if bool((probe[lo:hi] == UNREACHED).any()):
            # Disconnected: score the (connected) largest component as
            # its own batch, consuming the rng here, in the same
            # schedule position as a per-ball loop would.
            component = largest_component_csr(fused.local_csr(b))
            results[b] = distortion_csr_batch(
                FusedBatch.from_csrs([component]),
                rng=rng,
                random_roots=random_roots,
            )[0]
            continue
        if n_b <= CENTER_SOURCES:
            local_sources: List[int] = list(range(n_b))
        else:
            local_sources = rng.sample(range(n_b), CENTER_SOURCES)
        sources_per_ball[b] = [lo + s for s in local_sources]
        rand_roots_per_ball[b] = [
            rng.randrange(n_b) for _ in range(random_roots)
        ]
        fused_balls.append(b)
    if not fused_balls:
        return results

    score = _fused_closeness_scores(fused, sources_per_ball)
    degrees = np.diff(fused.indptr)
    num_slots = 2 + random_roots
    roots = np.full((num_slots, num_balls), -1, dtype=np.int64)
    for b in fused_balls:
        lo = int(fused.node_offsets[b])
        hi = int(fused.node_offsets[b + 1])
        center = lo + int(np.argmin(score[lo:hi]))
        roots[0, b] = center
        max_degree_node = lo + int(np.argmax(degrees[lo:hi]))
        if max_degree_node != center:
            roots[1, b] = max_degree_node
        for j, r in enumerate(rand_roots_per_ball[b]):
            roots[2 + j, b] = lo + r

    best = np.full(num_balls, -1, dtype=np.int64)
    for slot in range(num_slots):
        slot_sources = roots[slot]
        active = slot_sources >= 0
        if not bool(active.any()):
            continue
        depth = fused_bfs_levels(fused, slot_sources)
        parent = _fused_parents(fused, depth)
        totals = _fused_tree_totals(fused, parent, depth)
        better = active & ((best < 0) | (totals < best))
        best = np.where(better, totals, best)

    for b in fused_balls:
        results[b] = int(best[b]) / fused.ball_edge_count(b)
    return results
