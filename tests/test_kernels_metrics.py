"""Differential equivalence suite for the CSR-native metric kernels.

The kernels in :mod:`repro.graph.kernels_flow` /
:mod:`repro.graph.kernels_trees` / :mod:`repro.graph.kernels` are not
approximations: each one re-expresses the *same* canonical algorithm as
its pure-Python twin over flat arrays, so its output must be **bitwise**
identical — same integers, same final floats, same RNG draws.  The ball
metrics have one kernel each, the fused batch kernel, so a single graph
is scored as a one-ball :class:`~repro.graph.kernels.FusedBatch`.  This
suite enforces that contract three ways:

* per-kernel differential tests against the dict twins on
  Hypothesis-drawn graphs (trees, connected, disconnected, bridge);
* oracle bounds: the flow kernel (Dinic on integers) against the
  independent Edmonds–Karp solver, a float ``Dinic`` network and the
  subset-enumeration min-cut oracle, with the residual-reachable side
  required to *certify* the flow value;
* structural properties: batching balls in arbitrary groups never
  changes a single byte of any per-ball result, and flow capacities
  beyond int64 stay exact.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import kernels
from repro.graph.components import count_biconnected_components
from repro.graph.core import Graph
from repro.graph.cover import vertex_cover_size
from repro.graph.flow import Dinic
from repro.graph.kernels import (
    FusedBatch,
    batch_biconnected_counts,
    batch_vertex_cover_sizes,
)
from repro.graph.kernels_flow import (
    bisection_cut_csr,
    max_flow_min_cut,
    resilience_csr_batch,
)
from repro.graph.kernels_trees import distortion_csr_batch
from repro.graph.partition import bisection_cut_size
from repro.graph.traversal import largest_connected_component
from repro.metrics.distortion import distortion_of
from repro.metrics.resilience import resilience_of
from repro.testing import oracles
from repro.testing.strategies import (
    bridge_graphs,
    connected_graphs,
    disconnected_graphs,
    graphs,
    trees,
)

#: Every graph-shape strategy the kernels must survive.  Disconnected
#: inputs exercise the delegation paths (largest component / thaw).
ALL_SHAPES = st.one_of(
    trees(), connected_graphs(), disconnected_graphs(), bridge_graphs(), graphs()
)


def one_ball(g):
    """``g`` as a one-ball fused batch."""
    return FusedBatch.from_csrs([g.freeze()])


# ----------------------------------------------------------------------
# Flow kernel: max_flow_min_cut vs Edmonds–Karp, Dinic and the subset oracle
# ----------------------------------------------------------------------

@st.composite
def flow_instances(draw):
    """A small capacitated digraph with distinct source/sink."""
    n = draw(st.integers(min_value=2, max_value=6))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                arcs.append((u, v, draw(st.integers(min_value=0, max_value=7))))
    return n, arcs


@given(flow_instances())
def test_max_flow_matches_dinic_and_oracle(instance):
    n, arcs = instance
    flow, reachable = max_flow_min_cut(n, arcs, 0, n - 1)
    assert type(flow) is int
    assert (flow, reachable) == oracles.edmonds_karp_min_cut(n, arcs, 0, n - 1)

    dinic = Dinic(n)
    for u, v, cap in arcs:
        dinic.add_edge(u, v, float(cap))
    assert float(flow) == dinic.max_flow(0, n - 1)
    assert flow == oracles.oracle_min_st_cut(n, arcs, 0, n - 1)

    # The residual-reachable side is a *certificate*: it contains the
    # source, excludes the sink, and its crossing capacity equals the
    # flow (max-flow/min-cut duality, checked exactly in integers).
    assert reachable[0] and not reachable[n - 1]
    crossing = sum(c for u, v, c in arcs if reachable[u] and not reachable[v])
    assert crossing == flow


@given(flow_instances())
def test_min_cut_side_is_solver_independent(instance):
    """Scaling capacities by 2**61 pushes the totals past int64;
    linearity of max flow and uniqueness of the inclusion-minimal
    source-side cut mean both value and side must track exactly."""
    n, arcs = instance
    flow, reachable = max_flow_min_cut(n, arcs, 0, n - 1)
    scale = 1 << 61
    big_flow, big_reach = max_flow_min_cut(
        n, [(u, v, c * scale) for u, v, c in arcs], 0, n - 1
    )
    assert big_flow == flow * scale
    assert big_reach == reachable


# ----------------------------------------------------------------------
# Capacities beyond int64
# ----------------------------------------------------------------------

def test_capacities_beyond_int64_stay_exact():
    # A flow value past 2**53 would lose bits if any total turned float.
    big = 1 << 62
    # A single arc, and two parallel arcs whose total passes 2**63.
    assert max_flow_min_cut(2, [(0, 1, big)], 0, 1) == (big, [True, False])
    arcs = [(0, 1, 3 * big), (0, 1, 3 * big - 1)]
    assert max_flow_min_cut(2, arcs, 0, 1) == (6 * big - 1, [True, False])
    # A bottleneck path: the cut certifies the exact flow.
    path = [(0, 1, 5 * big + 7), (1, 2, 5 * big + 3), (2, 3, 9 * big)]
    assert max_flow_min_cut(4, path, 0, 3) == (
        5 * big + 3, [True, True, False, False]
    )


def test_negative_capacity_is_rejected():
    with pytest.raises(ValueError):
        max_flow_min_cut(2, [(0, 1, -1)], 0, 1)
    with pytest.raises(ValueError):
        oracles.edmonds_karp_min_cut(2, [(0, 1, -1)], 0, 1)


# ----------------------------------------------------------------------
# Metric kernels vs. their dict twins, bitwise
# ----------------------------------------------------------------------

@given(ALL_SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
def test_resilience_kernel_bitwise(g, seed):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    [got] = resilience_csr_batch(one_ball(g), rng=got_rng, trials=3)
    want = resilience_of(g, rng=want_rng, trials=3)
    assert repr(got) == repr(want)
    assert got_rng.getstate() == want_rng.getstate()


@given(connected_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
def test_bisection_kernel_bitwise(g, seed):
    got = bisection_cut_csr(g.freeze(), rng=random.Random(seed), trials=4)
    want = bisection_cut_size(g, rng=random.Random(seed), trials=4)
    assert got == want


@given(ALL_SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
def test_distortion_kernel_bitwise(g, seed):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    [got] = distortion_csr_batch(one_ball(g), rng=got_rng)
    want = distortion_of(g, rng=want_rng)
    assert repr(got) == repr(want)
    assert got_rng.getstate() == want_rng.getstate()


def two_part_graph(path_nodes, clique_nodes):
    """A path on one node set and a clique on another, nodes 0..n-1
    inserted in index order."""
    g = Graph()
    g.add_nodes_from(range(len(path_nodes) + len(clique_nodes)))
    g.add_edges_from(zip(path_nodes, path_nodes[1:]))
    g.add_edges_from(
        (u, v) for i, u in enumerate(clique_nodes) for v in clique_nodes[i + 1 :]
    )
    return g


@pytest.mark.parametrize(
    "path_nodes, clique_nodes, winner",
    [
        # Two tied largest components on interleaved indices: the one
        # holding the lowest index wins, as in connected_components.
        ([0, 2, 4, 6, 8], [1, 3, 5, 7, 9], "path"),
        ([1, 3, 5, 7, 9], [0, 2, 4, 6, 8], "clique"),
        # A strictly larger component whose indices are not contiguous
        # and do not start at 0.
        ([0, 4], [1, 3, 5, 8, 2, 6, 7], "clique"),
        ([2, 6, 7, 1, 3, 5, 8], [0, 4], "path"),
    ],
)
def test_largest_component_slice_matches_dict_twin(path_nodes, clique_nodes, winner):
    g = two_part_graph(path_nodes, clique_nodes)
    want_nodes = sorted(path_nodes if winner == "path" else clique_nodes)
    component = kernels.largest_component_csr(g.freeze())
    assert component.nodes() == want_nodes
    assert component.nodes() == largest_connected_component(g).nodes()
    assert component.edges() == largest_connected_component(g).freeze().edges()
    for seed in range(4):
        [got_r] = resilience_csr_batch(
            one_ball(g), rng=random.Random(seed), trials=3
        )
        want_r = resilience_of(g, rng=random.Random(seed), trials=3)
        assert repr(got_r) == repr(want_r)
        [got_d] = distortion_csr_batch(one_ball(g), rng=random.Random(seed))
        want_d = distortion_of(g, rng=random.Random(seed))
        assert repr(got_d) == repr(want_d)
    # The slice picked the right component: a path cuts at 1 and is its
    # own spanning tree, a clique of k >= 3 nodes does neither.
    if winner == "path":
        assert (got_r, got_d) == (1.0, 1.0)
    else:
        assert got_r > 1.0 and got_d > 1.0


def test_largest_component_of_connected_graph_is_the_graph():
    csr = two_part_graph([3, 0, 1, 2], []).freeze()
    component = kernels.largest_component_csr(csr)
    assert component.nodes() == csr.nodes()
    assert np.array_equal(component.indptr, csr.indptr)
    assert np.array_equal(component.indices, csr.indices)


@given(trees(), st.integers(min_value=0, max_value=2**32 - 1))
def test_distortion_kernel_exact_on_trees(g, seed):
    # A tree's only spanning tree is itself: distortion is exactly 1.
    assert distortion_csr_batch(one_ball(g), rng=random.Random(seed)) == [1.0]


@given(ALL_SHAPES)
def test_vertex_cover_kernel_bitwise(g):
    assert batch_vertex_cover_sizes(one_ball(g)) == [vertex_cover_size(g)]


@given(ALL_SHAPES)
def test_biconnectivity_kernel_bitwise(g):
    assert batch_biconnected_counts(one_ball(g)) == [
        count_biconnected_components(g)
    ]


@given(graphs(min_nodes=2, max_nodes=9))
def test_vertex_cover_kernel_within_oracle_bounds(g):
    exact = oracles.oracle_min_vertex_cover_size(g)
    [got] = batch_vertex_cover_sizes(one_ball(g))
    assert exact <= got <= 2 * exact


# ----------------------------------------------------------------------
# Batch-splitting invariance: grouping never changes a byte
# ----------------------------------------------------------------------

def _ball_list(csr, rng):
    """A handful of balls (ascending member indices) around one center."""
    center = rng.randrange(csr.number_of_nodes())
    dist = kernels.bfs_levels(csr, center)
    return [kernels.ball_members(dist, radius) for radius in range(1, 5)]


@given(
    ALL_SHAPES,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
)
def test_ballbatch_grouping_invariance(g, seed, split_sizes):
    """Splitting the same ball list into arbitrary BallBatch groups (or
    extracting one at a time) yields byte-identical sub-CSRs."""
    rng = random.Random(seed)
    csr = g.freeze()
    balls = _ball_list(csr, rng)

    whole = kernels.BallBatch(csr, balls)
    solo = [kernels.induced_subgraph(csr, members) for members in balls]

    grouped = []
    pos = 0
    for size in split_sizes:
        if pos >= len(balls):
            break
        chunk = balls[pos : pos + size]
        batch = kernels.BallBatch(csr, chunk)
        grouped.extend(batch.sub_csr(i) for i in range(len(chunk)))
        pos += size
    while pos < len(balls):  # leftovers, one batch each
        grouped.append(kernels.BallBatch(csr, [balls[pos]]).sub_csr(0))
        pos += 1

    for i in range(len(balls)):
        for sub in (whole.sub_csr(i), grouped[i]):
            assert np.array_equal(sub.indptr, solo[i].indptr)
            assert np.array_equal(sub.indices, solo[i].indices)
            assert sub.nodes() == solo[i].nodes()


@given(
    connected_graphs(min_nodes=4, max_nodes=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ballbatch_kernel_values_grouping_invariant(g, seed):
    """Per-ball kernel *values* and RNG draws are identical whether the
    balls share one fused batch or each rides a one-ball batch — the
    engine may batch balls however it likes without perturbing a
    single float."""
    rng = random.Random(seed)
    csr = g.freeze()
    balls = _ball_list(csr, rng)
    shared = FusedBatch(kernels.BallBatch(csr, balls))
    singles = [FusedBatch(kernels.BallBatch(csr, [ball])) for ball in balls]
    stream = rng.getrandbits(32)
    for kernel, kwargs in (
        (resilience_csr_batch, {"trials": 3}),
        (distortion_csr_batch, {}),
    ):
        shared_rng, single_rng = random.Random(stream), random.Random(stream)
        got = kernel(shared, rng=shared_rng, **kwargs)
        want = [kernel(one, rng=single_rng, **kwargs)[0] for one in singles]
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert shared_rng.getstate() == single_rng.getstate()
    assert batch_vertex_cover_sizes(shared) == [
        batch_vertex_cover_sizes(one)[0] for one in singles
    ]
    assert batch_biconnected_counts(shared) == [
        batch_biconnected_counts(one)[0] for one in singles
    ]
