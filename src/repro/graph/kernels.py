"""Vectorized numpy kernels over :class:`~repro.graph.csr.CSRGraph`.

These are the hot loops behind the paper's ball-growing metrics
(Section 3.2.1) and the Section 5 all-pairs machinery, rewritten from
per-node hash-table BFS into frontier-at-a-time array operations:

* :func:`bfs_levels` / :func:`multi_source_distances` — level-
  synchronous BFS producing dense int32 distance vectors (``-1`` marks
  unreached nodes);
* :func:`bfs_with_path_counts` — BFS with equal-cost shortest-path
  counting (the sigma of Section 5's traversal-set weights);
* :func:`ball_members` — the index array of a ball, ascending;
* :func:`degree_vector` — all degrees as one array;
* :func:`induced_subgraph` — CSR-to-CSR subgraph slicing;
* :class:`BallBatch` — many balls sliced per numpy call;
* :class:`FusedBatch` — a whole batch concatenated into one disjoint-
  union CSR with ``indptr``-style ball-offset segmentation, so one
  kernel sweep serves every ball (:func:`fused_bfs_levels`,
  :func:`fused_level_counts`, :func:`fused_degrees`);
* :func:`batch_vertex_cover_sizes` — the canonical matching/greedy
  vertex-cover pair, per ball of a fused batch;
* :func:`batch_biconnected_counts` — array-stack Tarjan block counting,
  per ball of a fused batch.

Every kernel is bitwise-equivalent to the dict-of-sets implementation it
replaces (asserted by ``repro selfcheck --family kernels`` and the property
tests in ``tests/test_graph_csr.py``): distances, memberships and counts
are identical; only internal ordering conventions are canonicalised to
ascending node index.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

#: Distance value marking a node the BFS never reached.
UNREACHED = -1


#: Path counts at or above this raise :class:`PathCountOverflow`.
_SIGMA_BOUND = float(1 << 62)


class PathCountOverflow(OverflowError):
    """Equal-cost path counts exceeded the int64 range.

    Raised instead of silently wrapping; callers fall back to the exact
    big-integer dict implementation (:func:`repro.routing.shortest.
    shortest_path_dag` on a thawed graph).
    """


def _row_positions(indptr: np.ndarray, frontier: np.ndarray):
    """Where every frontier node's CSR row sits in ``indices``.

    ``indptr`` must already be int64 (hoisted out of the BFS loop by the
    callers).  Returns ``(positions, counts)`` where ``positions`` is
    the concatenation of each frontier node's arc positions and
    ``counts[k]`` is the row length of ``frontier[k]``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    # Each element's position in ``indices``: a running arange, shifted
    # per row from the concatenation offset to the row start.
    ends = np.cumsum(counts)
    positions = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    positions += np.repeat(starts - ends + counts, counts)
    return positions, counts


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray):
    """Concatenated neighbor indices of every frontier node, with the
    row lengths (see :func:`_row_positions`)."""
    positions, counts = _row_positions(indptr, frontier)
    if not positions.size:
        return np.empty(0, dtype=np.int32), counts
    return indices[positions], counts


def bfs_levels(
    csr: CSRGraph,
    source: int,
    max_depth: Optional[int] = None,
    *,
    max_reach: Optional[int] = None,
) -> np.ndarray:
    """Hop distances from node index ``source`` to every node.

    Returns an int32 vector of length n with ``dist[i]`` the BFS
    distance of node ``i`` (``-1`` when unreached, or beyond
    ``max_depth``).  Expansion is level-at-a-time: with
    ``max_depth=0`` only the source is reached; with ``max_depth``
    at least the graph's eccentricity the result equals the unbounded
    BFS.  ``max_reach`` stops it after the first level at which more
    than ``max_reach`` nodes (source included) are reached; the levels
    swept are exact.
    """
    n = csr.number_of_nodes()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} nodes")
    # Depth stays below n and the reach at most n: those bounds are free.
    max_depth = n if max_depth is None else max_depth
    max_reach = n if max_reach is None else max_reach
    indptr = csr.indptr64
    indices = csr.indices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth, reached = 0, 1
    while frontier.size and depth < max_depth and reached <= max_reach:
        neighbors, _counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        fresh = neighbors[dist[neighbors] == UNREACHED]
        if not fresh.size:
            break
        depth += 1
        # Marking distances first dedupes ``fresh`` for free; the next
        # frontier is then read back in ascending index order.
        dist[fresh] = depth
        frontier = np.flatnonzero(dist == depth)
        reached += frontier.size
    return dist


#: Maximum source count handled by the packed-bitmask simultaneous BFS
#: (one int64 bit per source, keeping clear of the sign bit).
_BITMASK_SOURCES_MAX = 62


def _multi_source_bitmask(
    csr: CSRGraph, sources: Sequence[int], max_depth: Optional[int]
) -> np.ndarray:
    """All sources' BFS levels in one synchronized sweep.

    Each node carries an int64 bitmask of the sources that have reached
    it; one level expands *every* source's frontier at once, so the
    graph's rows are gathered once per level instead of once per level
    per source.  Hop distances are unique, so the result is bitwise
    identical to stacking :func:`bfs_levels` rows.
    """
    n = csr.number_of_nodes()
    k = len(sources)
    indptr = csr.indptr64
    indices = csr.indices
    src_arr = np.asarray(sources, dtype=np.int64)
    if np.any((src_arr < 0) | (src_arr >= n)):
        bad = src_arr[(src_arr < 0) | (src_arr >= n)][0]
        raise IndexError(f"source index {bad} out of range for {n} nodes")
    bits = np.arange(k, dtype=np.int64)
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    dist[bits, src_arr] = 0
    visited = np.zeros(n, dtype=np.int64)
    frontier_mask = np.zeros(n, dtype=np.int64)
    np.bitwise_or.at(visited, src_arr, np.int64(1) << bits)
    np.bitwise_or.at(frontier_mask, src_arr, np.int64(1) << bits)
    frontier = np.unique(src_arr)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        neighbors, counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        masks = np.repeat(frontier_mask[frontier], counts)
        frontier_mask[frontier] = 0
        # OR the propagated masks per target node: group equal targets
        # with a sort, then one C-speed segmented reduction.
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
        # Unpack the new bits into per-source distance rows.
        rows, cols = np.nonzero((fresh[:, None] >> bits[None, :]) & 1)
        dist[cols, targets[rows]] = depth
        frontier = targets
    return dist


def multi_source_distances(
    csr: CSRGraph, sources: Sequence[int], max_depth: Optional[int] = None
) -> np.ndarray:
    """Stacked BFS distance vectors, one row per source index.

    Returns an int32 array of shape ``(len(sources), n)``; row ``k`` is
    ``bfs_levels(csr, sources[k], max_depth)``.  Up to
    :data:`_BITMASK_SOURCES_MAX` sources are swept simultaneously with
    per-node source bitmasks (hop distances are unique, so the fused
    sweep is bitwise identical to the per-source loop it replaces).
    """
    if 1 < len(sources) <= _BITMASK_SOURCES_MAX:
        return _multi_source_bitmask(csr, sources, max_depth)
    n = csr.number_of_nodes()
    out = np.empty((len(sources), n), dtype=np.int32)
    for k, source in enumerate(sources):
        out[k] = bfs_levels(csr, int(source), max_depth)
    return out


def bfs_with_path_counts(csr: CSRGraph, source: int):
    """BFS distances plus equal-cost shortest-path counts (sigma).

    Returns ``(dist, sigma)``: ``dist`` as in :func:`bfs_levels` and
    ``sigma[i]`` the number of distinct shortest paths from ``source``
    to node ``i`` (0 for unreached nodes, 1 for the source).  Raises
    :class:`PathCountOverflow` if a count reaches 2**62, short of the
    int64 range — the caller then falls back to the exact big-int dict
    implementation.
    """
    n = csr.number_of_nodes()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} nodes")
    indptr = csr.indptr64
    indices = csr.indices
    dist = np.full(n, UNREACHED, dtype=np.int32)
    sigma = np.zeros(n, dtype=np.int64)
    dist[source] = 0
    sigma[source] = 1
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        neighbors, counts = _gather_rows(indptr, indices, frontier)
        if not neighbors.size:
            break
        contributions = np.repeat(sigma[frontier], counts)
        undiscovered = dist[neighbors] == UNREACHED
        targets = neighbors[undiscovered]
        if not targets.size:
            break
        contributions = contributions[undiscovered]
        # Each count is below 2**62, but several can sum past 2**64 and
        # wrap back to a positive int64, so bound the sums in float64
        # rather than test the sign: their rounding error is far smaller
        # than the gap between the bound and 2**63.
        if np.bincount(targets, weights=contributions).max() >= _SIGMA_BOUND:
            raise PathCountOverflow(
                f"shortest-path count reached 2**62 at BFS depth {depth + 1}"
            )
        np.add.at(sigma, targets, contributions)
        depth += 1
        dist[targets] = depth
        frontier = np.flatnonzero(dist == depth)
    return dist, sigma


def ball_members(dist: np.ndarray, radius: int) -> np.ndarray:
    """Indices of the ball of ``radius`` hops, ascending.

    ``dist`` is a distance vector from :func:`bfs_levels`; the result is
    every index with ``0 <= dist <= radius``, in ascending index order —
    the canonical member ordering every CSR-era compute path shares.
    """
    return np.flatnonzero((dist != UNREACHED) & (dist <= radius)).astype(
        np.int32
    )


def degree_vector(csr: CSRGraph) -> np.ndarray:
    """All node degrees as an int32 vector aligned with node indices."""
    return np.diff(csr.indptr).astype(np.int32)


def level_counts(dist: np.ndarray) -> np.ndarray:
    """Node count at each BFS distance: ``out[h] == |{i: dist[i] == h}|``.

    The empty-reach case returns ``[0]`` so ``out`` is always indexable
    at distance 0.
    """
    reached = dist[dist != UNREACHED]
    if not reached.size:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(reached, minlength=int(reached.max()) + 1)


def induced_subgraph(csr: CSRGraph, members: np.ndarray) -> CSRGraph:
    """The sub-CSR induced by ``members`` (ascending index array).

    Rows stay sorted because the original rows are sorted and the
    member relabelling ``old index -> rank in members`` is monotone.
    The result's nodes are the member node objects in index order.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size and np.any(members[1:] <= members[:-1]):
        raise ValueError("members must be strictly ascending")
    n = csr.number_of_nodes()
    keep = np.zeros(n, dtype=bool)
    keep[members] = True
    rank = np.cumsum(keep) - 1  # old index -> new index, where kept
    neighbors, counts = _gather_rows(csr.indptr64, csr.indices, members)
    kept_mask = keep[neighbors] if neighbors.size else np.empty(0, dtype=bool)
    row_ids = np.repeat(np.arange(members.size), counts)
    new_counts = np.bincount(row_ids[kept_mask], minlength=members.size)
    new_indptr = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    new_indices = rank[neighbors[kept_mask]].astype(np.int32)
    nodes: List = [csr.node_at(int(i)) for i in members]
    return CSRGraph(
        new_indptr.astype(np.int32), new_indices, nodes, name=csr.name
    )


def largest_component_csr(csr: CSRGraph) -> CSRGraph:
    """The sub-CSR induced by the largest connected component.

    Picks the component :func:`repro.graph.traversal.
    largest_connected_component` picks: components are found in index
    order, the largest wins, and a tie goes to the component with the
    lowest first index.  Members stay in ascending index order, so the
    result equals the dict twin's subgraph node for node.
    """
    n = csr.number_of_nodes()
    seen = np.zeros(n, dtype=bool)
    best = np.empty(0, dtype=np.int64)
    covered = 0
    start = 0
    # Stop once no unseen component could be strictly larger.
    while start < n and best.size < n - covered:
        members = np.flatnonzero(bfs_levels(csr, start) != UNREACHED)
        seen[members] = True
        covered += members.size
        if members.size > best.size:
            best = members
        unseen = np.flatnonzero(~seen[start:])
        start = start + int(unseen[0]) if unseen.size else n
    return induced_subgraph(csr, best)


class BallBatch:
    """Batched CSR slicing: many balls' induced subgraphs per numpy call.

    Construction gathers the CSR rows of *all* balls' members with one
    :func:`_row_positions` call and finds every arc's head in its own
    ball with one ``np.searchsorted`` over the packed keys ``ball * n +
    member``, which ascend across the batch: a hit keeps the arc, and
    its slot minus the ball's offset is the head's rank in the ball.
    Every temporary is sized by the balls and their arcs, never by the
    graph.  :meth:`sub_csr` then just wraps the precomputed slices.

    The contract — asserted by the batching property tests — is that
    ``BallBatch(csr, members_list).sub_csr(i)`` is *bitwise identical*
    (same ``indptr``/``indices`` arrays, same node list) to
    ``induced_subgraph(csr, members_list[i])``, for any grouping of
    balls into batches.

    ``arc_radius``, a pair ``(radius of every CSR arc, radius of every
    ball)``, slices Appendix E's policy balls instead: a ball keeps
    only the arcs between its members whose radius is at most its own
    (:meth:`repro.routing.policy.PolicyProduct.ball_radii`).
    """

    __slots__ = ("csr", "_members", "_indptrs", "_indices")

    def __init__(
        self,
        csr: CSRGraph,
        members_list: Sequence[np.ndarray],
        *,
        arc_radius: Optional[Tuple[np.ndarray, Sequence[int]]] = None,
    ):
        self.csr = csr
        self._members = [np.asarray(m, dtype=np.int64) for m in members_list]
        for m in self._members:
            if m.size and np.any(m[1:] <= m[:-1]):
                raise ValueError("members must be strictly ascending")
        sizes = np.array([m.size for m in self._members], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        mcat = np.concatenate([np.empty(0, dtype=np.int64), *self._members])
        positions, counts = _row_positions(csr.indptr64, mcat)
        neighbors = csr.indices[positions]
        member_ball = np.repeat(np.arange(sizes.size), sizes)
        elem_ball = np.repeat(member_ball, counts)
        n = csr.number_of_nodes()
        keys = member_ball * n + mcat
        probes = elem_ball * n + neighbors
        slots = np.searchsorted(keys, probes)
        kept_mask = keys[np.minimum(slots, keys.size - 1)] == probes
        if arc_radius is not None:
            arc_limit, ball_limit = arc_radius
            kept_mask &= arc_limit[positions] <= np.asarray(ball_limit)[elem_ball]
        kept_rows = np.repeat(np.arange(mcat.size), counts)[kept_mask]
        new_counts = np.bincount(kept_rows, minlength=mcat.size)
        kept_indices = (
            slots[kept_mask] - offsets[elem_ball[kept_mask]]
        ).astype(np.int32)
        # ``kept_rows`` ascends, so each ball's kept edges are contiguous.
        boundaries = np.searchsorted(kept_rows, offsets)
        self._indptrs: List[np.ndarray] = []
        self._indices: List[np.ndarray] = []
        for b, m in enumerate(self._members):
            indptr = np.zeros(m.size + 1, dtype=np.int64)
            np.cumsum(new_counts[offsets[b] : offsets[b + 1]], out=indptr[1:])
            self._indptrs.append(indptr.astype(np.int32))
            self._indices.append(kept_indices[boundaries[b] : boundaries[b + 1]])

    def __len__(self) -> int:
        return len(self._members)

    def sub_csr(self, i: int) -> CSRGraph:
        """Ball ``i``'s sub-CSR; for a plain ball, bitwise-equal to
        :func:`induced_subgraph` on the same members."""
        csr = self.csr
        nodes: List = [csr.node_at(int(j)) for j in self._members[i]]
        return CSRGraph(
            self._indptrs[i], self._indices[i], nodes, name=csr.name
        )


# ----------------------------------------------------------------------
# Fused batch execution: one disjoint-union CSR per BallBatch
# ----------------------------------------------------------------------

def _fused_offsets(node_counts, edge_counts):
    """Ball-offset segmentation arrays of a fused concatenation.

    Returns ``(node_offsets, edge_offsets)``, both int64 and of length
    ``len(node_counts) + 1`` — int64 deliberately: per-ball arrays are
    int32, but *cumulative* counts across a batch may cross the int32
    boundary, and the fused ``indptr``/``indices`` index with these
    offsets.
    """
    node_offsets = np.zeros(len(node_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(node_counts, dtype=np.int64), out=node_offsets[1:])
    edge_offsets = np.zeros(len(edge_counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(edge_counts, dtype=np.int64), out=edge_offsets[1:])
    return node_offsets, edge_offsets


class FusedBatch:
    """Per-ball CSRs concatenated into one disjoint-union CSR.

    The balls' sub-CSRs are stacked in batch order with each ball's
    local node indices shifted by its node offset, producing a single
    valid CSR whose connected components never cross balls.  Kernels
    can therefore sweep *all* balls in one pass (BFS frontiers of
    disjoint components cannot interact), and a segmented result is
    read back per ball through ``node_offsets`` — the same
    ``indptr``-style segmentation idea one level up.

    Two constructors share the one layout: ``FusedBatch(batch)`` fuses
    a :class:`BallBatch` (ascending original node index within each
    ball, the order :meth:`BallBatch.sub_csr` fixes), and
    :meth:`from_csrs` fuses balls that are already CSRs in their own
    node order (a single graph, a component).  Either way
    every fused kernel is bitwise-comparable to a per-ball loop over
    ``sub_csr(i)`` — asserted by the ``kernels`` selfcheck family and
    ``tests/test_fused_batch.py``.
    """

    __slots__ = (
        "_indptrs",
        "_indices",
        "_sub_csr",
        "_name",
        "node_offsets",
        "edge_offsets",
        "indptr",
        "indices",
        "ball_of_node",
    )

    def __init__(self, batch: BallBatch):
        self._fuse(batch._indptrs, batch._indices, batch.sub_csr, batch.csr.name)

    @classmethod
    def from_csrs(cls, balls: Sequence[CSRGraph]) -> "FusedBatch":
        """Fuse already-built per-ball CSRs, keeping each one's node order.

        ``from_csrs(balls).sub_csr(i)`` is ``balls[i]`` itself.
        """
        balls = list(balls)
        fused = cls.__new__(cls)
        fused._fuse(
            [ball.indptr for ball in balls],
            [ball.indices for ball in balls],
            balls.__getitem__,
            balls[0].name if balls else "",
        )
        return fused

    def _fuse(self, indptrs, indices, sub_csr, name: str) -> None:
        self._indptrs = indptrs
        self._indices = indices
        self._sub_csr = sub_csr
        self._name = name
        node_counts = [len(ip) - 1 for ip in indptrs]
        edge_counts = [ix.size for ix in indices]
        self.node_offsets, self.edge_offsets = _fused_offsets(
            node_counts, edge_counts
        )
        total_nodes = int(self.node_offsets[-1])
        indptr = np.zeros(total_nodes + 1, dtype=np.int64)
        ptr_pieces = [
            ip[1:].astype(np.int64) + off
            for ip, off in zip(indptrs, self.edge_offsets[:-1].tolist())
        ]
        if ptr_pieces:
            np.concatenate(ptr_pieces, out=indptr[1:])
        self.indptr = indptr
        idx_pieces = [
            ix.astype(np.int64) + off
            for ix, off in zip(indices, self.node_offsets[:-1].tolist())
        ]
        self.indices = (
            np.concatenate(idx_pieces)
            if idx_pieces
            else np.empty(0, dtype=np.int64)
        )
        self.ball_of_node = np.repeat(
            np.arange(len(indptrs), dtype=np.int64), node_counts
        )

    def __len__(self) -> int:
        return len(self._indptrs)

    def ball_slice(self, i: int) -> slice:
        """The fused-array node span of ball ``i``."""
        return slice(int(self.node_offsets[i]), int(self.node_offsets[i + 1]))

    def ball_size(self, i: int) -> int:
        return int(self.node_offsets[i + 1] - self.node_offsets[i])

    def ball_edge_count(self, i: int) -> int:
        """Undirected edge count of ball ``i``."""
        return int(self.edge_offsets[i + 1] - self.edge_offsets[i]) // 2

    def ball_arrays(self, i: int):
        """Ball ``i``'s own int32 ``(indptr, indices)``, local indices."""
        return self._indptrs[i], self._indices[i]

    def sub_csr(self, i: int) -> CSRGraph:
        """Ball ``i`` as a standalone CSR with its node labels."""
        return self._sub_csr(i)

    def local_csr(self, i: int) -> CSRGraph:
        """Ball ``i``'s arrays wrapped with ``range`` labels.

        O(1) labels instead of materialising the original node objects;
        only safe for label-agnostic kernels (the bisection solver, the
        largest-component slice of a disconnected ball).
        """
        return CSRGraph(
            self._indptrs[i],
            self._indices[i],
            range(self.ball_size(i)),
            name=self._name,
        )


def fused_bfs_levels(fused: FusedBatch, sources: np.ndarray) -> np.ndarray:
    """Per-ball BFS levels over the fused union, one sweep for all.

    ``sources`` holds one *fused-array* node index per ball (``-1``
    skips that ball).  Because the union's components never cross
    balls, the synchronized sweep assigns exactly the distances a
    per-ball :func:`bfs_levels` would — bitwise, since hop distances
    are unique.  Skipped balls stay entirely :data:`UNREACHED`.
    """
    n = int(fused.node_offsets[-1])
    dist = np.full(n, UNREACHED, dtype=np.int32)
    src = np.asarray(sources, dtype=np.int64)
    src = src[src >= 0]
    if not src.size:
        return dist
    dist[src] = 0
    frontier = np.unique(src)
    depth = 0
    indptr, indices = fused.indptr, fused.indices
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
    return dist


def fused_degrees(fused: FusedBatch) -> np.ndarray:
    """Every ball's degree vectors, concatenated (int32).

    ``fused_degrees(f)[f.ball_slice(i)]`` equals
    ``degree_vector(f.sub_csr(i))``.
    """
    return np.diff(fused.indptr).astype(np.int32)


def fused_level_counts(fused: FusedBatch, dist: np.ndarray) -> List[np.ndarray]:
    """Per-ball :func:`level_counts`, via one segmented bincount.

    ``dist`` is a fused distance vector (:func:`fused_bfs_levels`);
    the result list's entry ``i`` is bitwise equal to
    ``level_counts(dist[fused.ball_slice(i)])``.
    """
    num_balls = len(fused)
    if num_balls == 0:
        return []
    reached = dist != UNREACHED
    local_max = np.full(num_balls, -1, dtype=np.int64)
    if bool(reached.any()):
        np.maximum.at(
            local_max,
            fused.ball_of_node[reached],
            dist[reached].astype(np.int64),
        )
    width = int(local_max.max()) + 1
    if width <= 0:
        return [np.zeros(1, dtype=np.int64) for _ in range(num_balls)]
    keys = fused.ball_of_node[reached] * width + dist[reached]
    table = np.bincount(keys, minlength=num_balls * width).reshape(
        num_balls, width
    )
    return [
        table[b, : int(local_max[b]) + 1].copy()
        if local_max[b] >= 0
        else np.zeros(1, dtype=np.int64)
        for b in range(num_balls)
    ]


def batch_matching_cover_sizes(fused: FusedBatch) -> np.ndarray:
    """Per-ball handshake-matching cover sizes, one fused run (int64).

    The handshake rounds run on the union: each round's proposals and
    mutual matches in one ball depend only on that ball's flags (edges
    never cross balls), so the union's fixpoint restricted to a ball is
    exactly the ball's own fixpoint — a finished ball simply stays
    unchanged while slower balls keep matching.
    """
    num_balls = len(fused)
    matched = _handshake_matching_arrays(fused.indptr, fused.indices)
    if not bool(matched.any()):
        return np.zeros(num_balls, dtype=np.int64)
    return np.bincount(
        fused.ball_of_node[matched], minlength=num_balls
    ).astype(np.int64)


def batch_vertex_cover_sizes(fused: FusedBatch) -> List[int]:
    """Per-ball vertex cover sizes (Figure 8 a–c), matching fused.

    Each ball's size is the smaller of the matching and greedy covers,
    value-equal to :func:`repro.graph.cover.vertex_cover_size` on the
    thawed ball.

    The matching half runs once over the union; the greedy half is an
    inherently sequential argmax loop and stays per ball — but on the
    batch's local arrays directly, skipping the node-label
    materialisation ``sub_csr`` would pay.
    """
    matching = batch_matching_cover_sizes(fused)
    out: List[int] = []
    for b in range(len(fused)):
        indptr, indices = fused.ball_arrays(b)
        if not indices.size:
            out.append(0)
            continue
        greedy = _greedy_cover_arrays(indptr, indices)
        out.append(min(int(matching[b]), greedy))
    return out


def batch_biconnected_counts(fused: FusedBatch) -> List[int]:
    """Per-ball biconnected-component counts, one array-stack Tarjan pass.

    Counts one block per tree-edge pop event with ``low[child] >=
    depth[parent]`` — the same events on which the dict twin
    (:func:`repro.graph.components.biconnected_components`) emits a
    component; no edge stack is kept.  The union's biconnected
    components are exactly the union of each ball's (blocks never span
    disconnected parts), so attributing each pop event to its node's
    ball yields every ball's own count.
    """
    counts = [0] * len(fused)
    n = int(fused.node_offsets[-1])
    indptr = fused.indptr.tolist()
    indices = fused.indices.tolist()
    ball_of = fused.ball_of_node.tolist()
    depth = [-1] * n
    low = [0] * n
    parent = [-1] * n
    ptr = list(indptr[:-1])
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        low[root] = 0
        stack = [root]
        while stack:
            u = stack[-1]
            if ptr[u] < indptr[u + 1]:
                v = indices[ptr[u]]
                ptr[u] += 1
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    low[v] = depth[v]
                    parent[v] = u
                    stack.append(v)
                elif v != parent[u] and depth[v] < low[u]:
                    low[u] = depth[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    if low[u] >= depth[p]:
                        counts[ball_of[u]] += 1
                    if low[u] < low[p]:
                        low[p] = low[u]
    return counts


# ----------------------------------------------------------------------
# Vertex cover helpers (canonical twins live in repro.graph.cover)
# ----------------------------------------------------------------------

def _handshake_matching_arrays(indptr, indices) -> np.ndarray:
    """Matched flags of the canonical handshake matching, vectorized.

    Rounds mirror :func:`repro.graph.cover._handshake_matching`: every
    unmatched node proposes its minimum-index unmatched neighbor
    (``np.minimum.at`` over the live edge set) and mutual proposals
    match.  Terminates because the minimum-index active node is always
    mutually matched each round.  The rounds only touch
    ``indptr``/``indices``, never node labels.
    """
    n = len(indptr) - 1
    matched = np.zeros(n, dtype=bool)
    if not len(indices):
        return matched
    src = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(np.asarray(indptr, dtype=np.int64))
    )
    dst = np.asarray(indices, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    while True:
        live = ~(matched[src] | matched[dst])
        proposal = np.full(n, n, dtype=np.int64)
        np.minimum.at(proposal, src[live], dst[live])
        candidates = np.flatnonzero((proposal < n) & (proposal > idx))
        if candidates.size:
            candidates = candidates[
                proposal[proposal[candidates]] == candidates
            ]
        if not candidates.size:
            return matched
        matched[candidates] = True
        matched[proposal[candidates]] = True


def _greedy_cover_arrays(indptr, indices) -> int:
    """Size of the canonical max-degree greedy cover of one ball.

    Mirrors :func:`repro.graph.cover._greedy_cover`: repeatedly remove
    the maximum-residual-degree node (``np.argmax`` breaks ties toward
    the minimum index, exactly like the twin's strict-``>`` scan).
    """
    deg = np.diff(np.asarray(indptr, dtype=np.int64))
    uncovered = int(deg.sum()) // 2
    if uncovered == 0:
        return 0
    removed = np.zeros(len(deg), dtype=bool)
    picked = 0
    while uncovered > 0:
        best = int(np.argmax(np.where(removed, -1, deg)))
        removed[best] = True
        uncovered -= int(deg[best])
        row = indices[indptr[best] : indptr[best + 1]]
        live = row[~removed[row]]
        deg[live] -= 1
        picked += 1
    return picked
