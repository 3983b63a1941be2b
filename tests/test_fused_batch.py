"""Edge cases and Hypothesis differentials for the fused batch layer.

``FusedBatch`` concatenates a ``BallBatch``'s per-ball CSR graphs (or,
through ``FusedBatch.from_csrs``, already-built ball CSRs such as the
engine's policy balls) into one disjoint-union CSR so the segmented kernels can sweep every ball in
a single pass.  The contract is *bitwise*: slicing any fused result back
per ball must reproduce the per-ball single-graph kernels, and each ball
metric must equal its dict twin on the thawed ball — same integers,
same final floats, same RNG draws in the same order.

This suite pins the degenerate shapes (empty batches, empty member
lists, singleton balls, the whole graph as one ball, int32-boundary
offsets) and then lets Hypothesis draw arbitrary graphs, arbitrary ball
chunkings and disconnected prebuilt balls, checking every segmented
kernel and all four batch metric kernels — plus the production engine
against the dict-of-sets ``OracleEngine`` across all seven metric
series.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import MetricEngine, MetricRequest
from repro.graph import kernels
from repro.graph.components import count_biconnected_components
from repro.graph.core import Graph
from repro.graph.cover import matching_vertex_cover, vertex_cover_size
from repro.graph.kernels import (
    BallBatch,
    FusedBatch,
    _fused_offsets,
    batch_biconnected_counts,
    batch_matching_cover_sizes,
    batch_vertex_cover_sizes,
    fused_bfs_levels,
    fused_degrees,
    fused_level_counts,
)
from repro.graph.kernels_flow import resilience_csr_batch
from repro.graph.kernels_trees import distortion_csr_batch
from repro.graph.traversal import largest_connected_component
from repro.metrics.distortion import distortion_of
from repro.metrics.resilience import resilience_of
from repro.testing import OracleEngine
from repro.testing.strategies import (
    connected_graphs,
    disconnected_graphs,
    graphs,
)

ALL_SERIES = (
    "expansion",
    "resilience",
    "distortion",
    "vertex_cover",
    "biconnectivity",
    "clustering",
    "path_length",
)


def path_graph(n: int) -> Graph:
    g = Graph(name="path")
    g.add_node(0)
    for i in range(1, n):
        g.add_edge(i - 1, i)
    return g


def fuse(csr, members_list):
    batch = BallBatch(csr, members_list)
    return batch, FusedBatch(batch)


def assert_fused_matches_per_ball(batch, fused, seed: int) -> None:
    """Every segmented kernel == the per-ball loop, and every batch
    metric == its dict twin on the thawed ball, sharing one RNG stream."""
    subs = [batch.sub_csr(i) for i in range(len(batch))]
    thawed = [sub.thaw() for sub in subs]

    degs = fused_degrees(fused)
    sources = np.array(
        [
            int(fused.node_offsets[b]) if fused.ball_size(b) else -1
            for b in range(len(fused))
        ],
        dtype=np.int64,
    )
    dist = fused_bfs_levels(fused, sources)
    counts = fused_level_counts(fused, dist)
    matching = batch_matching_cover_sizes(fused)
    covers = batch_vertex_cover_sizes(fused)
    biconn = batch_biconnected_counts(fused)

    for i, sub in enumerate(subs):
        sl = fused.ball_slice(i)
        assert fused.ball_size(i) == sub.number_of_nodes()
        assert fused.ball_edge_count(i) == sub.number_of_edges()
        assert np.array_equal(degs[sl], kernels.degree_vector(sub))
        if sub.number_of_nodes():
            solo = kernels.bfs_levels(sub, 0)
            assert np.array_equal(dist[sl], solo)
            assert np.array_equal(counts[i], kernels.level_counts(solo))
        ball = thawed[i]
        assert int(matching[i]) == len(matching_vertex_cover(ball))
        assert covers[i] == vertex_cover_size(ball)
        assert biconn[i] == count_biconnected_components(ball)

    solo_rng, batch_rng = random.Random(seed), random.Random(seed)
    want = [distortion_of(ball, rng=solo_rng) for ball in thawed]
    got = distortion_csr_batch(fused, rng=batch_rng)
    assert [repr(v) for v in want] == [repr(v) for v in got]
    assert solo_rng.getrandbits(64) == batch_rng.getrandbits(64)

    solo_rng, batch_rng = random.Random(seed ^ 0x5DEECE), random.Random(
        seed ^ 0x5DEECE
    )
    want = [resilience_of(ball, rng=solo_rng, trials=3) for ball in thawed]
    got = resilience_csr_batch(fused, rng=batch_rng, trials=3)
    assert [repr(v) for v in want] == [repr(v) for v in got]
    assert solo_rng.getrandbits(64) == batch_rng.getrandbits(64)


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------

def test_empty_batch_has_no_balls_and_empty_results():
    csr = path_graph(5).freeze()
    batch, fused = fuse(csr, [])
    assert len(fused) == 0
    assert fused.indptr.tolist() == [0]
    assert fused.indices.size == 0
    assert fused_degrees(fused).size == 0
    assert fused_bfs_levels(fused, np.empty(0, dtype=np.int64)).size == 0
    assert fused_level_counts(fused, np.empty(0, dtype=np.int32)) == []
    assert batch_matching_cover_sizes(fused).size == 0
    assert batch_vertex_cover_sizes(fused) == []
    assert batch_biconnected_counts(fused) == []
    assert distortion_csr_batch(fused) == []
    assert resilience_csr_batch(fused) == []
    assert_fused_matches_per_ball(batch, fused, seed=7)


def test_empty_member_lists_interleave_with_real_balls():
    csr = path_graph(6).freeze()
    empty = np.empty(0, dtype=np.int64)
    members = [
        empty,
        np.array([0, 1, 2], dtype=np.int64),
        empty,
        np.array([3, 4, 5], dtype=np.int64),
        empty,
    ]
    batch, fused = fuse(csr, members)
    assert len(fused) == 5
    assert fused.ball_size(0) == 0 and fused.ball_size(2) == 0
    assert fused.ball_slice(0) == slice(0, 0)
    assert_fused_matches_per_ball(batch, fused, seed=13)


def test_singleton_balls_are_edgeless_and_zero_valued():
    csr = path_graph(4).freeze()
    members = [np.array([i], dtype=np.int64) for i in range(4)]
    batch, fused = fuse(csr, members)
    assert all(fused.ball_edge_count(i) == 0 for i in range(4))
    assert distortion_csr_batch(fused) == [0.0, 0.0, 0.0, 0.0]
    assert_fused_matches_per_ball(batch, fused, seed=21)


def test_whole_graph_ball_reproduces_the_csr_arrays():
    rng = random.Random(5)
    g = Graph(name="whole")
    g.add_node(0)
    for i in range(1, 30):
        g.add_edge(i, rng.randrange(i))
    for _ in range(20):
        g.add_edge(rng.randrange(30), rng.randrange(30))
    csr = g.freeze()
    members = [np.arange(csr.number_of_nodes(), dtype=np.int64)]
    batch, fused = fuse(csr, members)
    # One ball covering everything: the fused union IS the input CSR.
    assert np.array_equal(fused.indptr, np.asarray(csr.indptr, dtype=np.int64))
    assert np.array_equal(fused.indices, np.asarray(csr.indices))
    assert_fused_matches_per_ball(batch, fused, seed=3)


def test_duplicate_and_overlapping_balls_stay_independent():
    csr = path_graph(8).freeze()
    members = [
        np.array([0, 1, 2, 3], dtype=np.int64),
        np.array([0, 1, 2, 3], dtype=np.int64),
        np.array([2, 3, 4, 5], dtype=np.int64),
    ]
    batch, fused = fuse(csr, members)
    assert_fused_matches_per_ball(batch, fused, seed=17)


def test_fused_offsets_survive_the_int32_boundary():
    node_offsets, edge_offsets = _fused_offsets([2**30] * 3, [2**31] * 3)
    assert node_offsets.dtype == np.int64
    assert edge_offsets.dtype == np.int64
    assert node_offsets.tolist() == [0, 2**30, 2**31, 3 * 2**30]
    assert edge_offsets.tolist() == [0, 2**31, 2**32, 3 * 2**31]


# ----------------------------------------------------------------------
# Hypothesis differentials: arbitrary graphs, arbitrary chunkings
# ----------------------------------------------------------------------

@st.composite
def graph_and_batch(draw):
    """An arbitrary graph plus an arbitrary radius-ball chunking of it."""
    g = draw(graphs(min_nodes=1, max_nodes=14))
    csr = g.freeze()
    n = csr.number_of_nodes()
    num_balls = draw(st.integers(0, 4))
    members_list = []
    for _ in range(num_balls):
        center = draw(st.integers(0, n - 1))
        radius = draw(st.integers(0, 4))
        dist = kernels.bfs_levels(csr, center)
        members_list.append(kernels.ball_members(dist, radius))
    seed = draw(st.integers(0, 2**32 - 1))
    return csr, members_list, seed


@given(graph_and_batch())
@settings(max_examples=60, deadline=None)
def test_fused_equals_per_ball_loop_byte_for_byte(drawn):
    csr, members_list, seed = drawn
    batch, fused = fuse(csr, members_list)
    assert_fused_matches_per_ball(batch, fused, seed)


@st.composite
def relabeled_graph_and_schedule(draw):
    """A graph with shuffled string labels plus one center's radius
    schedule, so node index and node label disagree."""
    base = draw(graphs(min_nodes=1, max_nodes=14))
    n = base.number_of_nodes()
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    g = Graph(name="relabeled")
    g.add_nodes_from(labels)
    g.add_edges_from((labels[u], labels[v]) for u, v in base.iter_edges())
    csr = g.freeze()
    dist = kernels.bfs_levels(csr, draw(st.integers(0, n - 1)))
    max_radius = int(dist.max())
    return csr, [
        kernels.ball_members(dist, radius) for radius in range(max_radius + 1)
    ]


@given(relabeled_graph_and_schedule())
@settings(max_examples=60, deadline=None)
def test_sub_csr_thaw_equals_whole_graph_thaw_subgraph(drawn):
    # The engine's dict evaluators read sub_csr(i).thaw(); it must be
    # the ball the whole graph's canonical thaw would induce.
    csr, schedule = drawn
    fused = FusedBatch(BallBatch(csr, schedule))
    whole = csr.thaw()
    nodes = csr.node_list()
    for i, members in enumerate(schedule):
        got = fused.sub_csr(i).thaw()
        want = whole.subgraph([nodes[j] for j in members])
        assert got.nodes() == want.nodes()
        for node in want.nodes():
            assert got.neighbors(node) == want.neighbors(node)
        assert got.number_of_edges() == want.number_of_edges()
        assert got.name == want.name


@st.composite
def prebuilt_balls(draw):
    """Up to four graphs, each frozen in its own shuffled node order —
    balls the way the engine builds policy balls, not sliced in
    ascending index from one parent graph.  Many are disconnected, so
    components are not index ranges; some get an extra path as large as
    their largest component, a tie the lowest first index must break
    as the dict twins break it."""
    balls = []
    for _ in range(draw(st.integers(0, 4))):
        base = draw(
            st.one_of(graphs(min_nodes=1, max_nodes=12), disconnected_graphs())
        )
        if draw(st.booleans()):
            size = largest_connected_component(base).number_of_nodes()
            tail = base.number_of_nodes()
            base.add_node(tail)
            base.add_edges_from((tail + i, tail + i + 1) for i in range(size - 1))
        order = draw(st.permutations(base.nodes()))
        g = Graph(name="prebuilt")
        g.add_nodes_from(order)
        g.add_edges_from(base.iter_edges())
        balls.append(g.freeze())
    return balls, draw(st.integers(0, 2**32 - 1))


@given(prebuilt_balls())
@settings(max_examples=60, deadline=None)
def test_from_csrs_equals_per_ball_loop_byte_for_byte(drawn):
    balls, seed = drawn
    fused = FusedBatch.from_csrs(balls)
    assert len(fused) == len(balls)
    for i, ball in enumerate(balls):
        assert fused.sub_csr(i) is ball
        indptr, indices = fused.ball_arrays(i)
        assert np.array_equal(indptr, ball.indptr)
        assert np.array_equal(indices, ball.indices)
    # The fused batch serves as its own per-ball source of sub-CSRs.
    assert_fused_matches_per_ball(fused, fused, seed)


@given(connected_graphs(min_nodes=3, max_nodes=10), st.integers(0, 2**16 - 1))
@settings(max_examples=15, deadline=None)
def test_engine_matches_oracle_on_all_seven_series(g, seed):
    requests = [
        MetricRequest(name, num_centers=3, seed=seed) for name in ALL_SERIES
    ]
    fused_run = MetricEngine(use_cache=False).compute(g, requests)
    oracle_run = OracleEngine().compute(g, requests)
    assert set(fused_run) == set(ALL_SERIES)
    for name in ALL_SERIES:
        assert repr(fused_run[name]) == repr(oracle_run[name])
