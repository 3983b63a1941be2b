"""Tests for the frozen CSR representation and its numpy kernels.

Two layers of guarantees:

* ``Graph.freeze()`` round-trips *any* graph the mutable API can build —
  including the adversarial shapes (isolated nodes, non-integer labels,
  disconnected graphs, the empty graph) — and ``thaw().freeze()`` is
  bit-identical, making the frozen form canonical.
* Every kernel in :mod:`repro.graph.kernels` is equivalent to the
  dict-of-sets implementation it replaces, checked property-style
  against Hypothesis-drawn graphs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph import csr as csr_module
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSR_LAYOUT_VERSION, CSRGraph, csr_from_graph
from repro.graph.traversal import bfs_distances
from repro.routing.shortest import shortest_path_dag
from repro.testing.strategies import graphs


def freeze_roundtrip(g):
    """Assert freeze/thaw preserves structure and order; return the CSR."""
    csr = g.freeze()
    assert csr.number_of_nodes() == g.number_of_nodes()
    assert csr.number_of_edges() == g.number_of_edges()
    assert csr.nodes() == g.nodes()
    thawed = csr.thaw()
    assert thawed.nodes() == g.nodes()
    assert set(map(frozenset, thawed.iter_edges())) == set(
        map(frozenset, g.iter_edges())
    )
    refrozen = thawed.freeze()
    assert np.array_equal(refrozen.indptr, csr.indptr)
    assert np.array_equal(refrozen.indices, csr.indices)
    assert refrozen.nodes() == csr.nodes()
    return csr


# ----------------------------------------------------------------------
# Freeze round-trips on adversarial shapes
# ----------------------------------------------------------------------

def test_freeze_empty_graph():
    csr = freeze_roundtrip(Graph())
    assert len(csr) == 0
    assert list(csr.indptr) == [0]
    assert csr.indices.size == 0
    assert list(csr) == []


def test_freeze_isolated_nodes():
    g = Graph()
    g.add_nodes_from([3, 1, 2])
    csr = freeze_roundtrip(g)
    assert csr.number_of_edges() == 0
    assert all(csr.degree(n) == 0 for n in g.nodes())
    assert list(kernels.degree_vector(csr)) == [0, 0, 0]


def test_freeze_non_integer_node_ids():
    g = Graph()
    g.add_edge("as-7018", "as-701")
    g.add_edge(("router", 1), "as-701")
    g.add_node(frozenset({"stub"}))
    csr = freeze_roundtrip(g)
    assert csr.has_edge("as-7018", "as-701")
    assert not csr.has_edge("as-7018", ("router", 1))
    assert csr.neighbors("as-701") == ["as-7018", ("router", 1)]
    assert csr.degree(frozenset({"stub"})) == 0


def test_freeze_disconnected_graph():
    g = Graph([(0, 1), (1, 2)])
    g.add_edge("a", "b")
    g.add_node(99)
    csr = freeze_roundtrip(g)
    dist = kernels.bfs_levels(csr, csr.index_of(0))
    assert dist[csr.index_of(2)] == 2
    assert dist[csr.index_of("a")] == kernels.UNREACHED
    assert dist[csr.index_of(99)] == kernels.UNREACHED


def test_freeze_single_node_and_single_edge():
    g = Graph()
    g.add_node("only")
    freeze_roundtrip(g)
    freeze_roundtrip(Graph([("u", "v")]))


def test_csr_arrays_are_read_only_and_int32():
    csr = Graph([(0, 1), (1, 2)]).freeze()
    assert csr.indptr.dtype == np.int32
    assert csr.indices.dtype == np.int32
    with pytest.raises(ValueError):
        csr.indices[0] = 7
    with pytest.raises(ValueError):
        csr.indptr[0] = 7


def test_csr_rows_sorted_ascending():
    g = Graph([(0, 3), (0, 1), (0, 2), (2, 1)])
    csr = g.freeze()
    for i in range(len(csr)):
        row = csr.indices[csr.indptr[i] : csr.indptr[i + 1]]
        assert list(row) == sorted(row)


def test_freeze_of_frozen_is_identity():
    csr = Graph([(0, 1)]).freeze()
    assert csr.freeze() is csr
    assert csr_from_graph(csr) is csr


def test_csr_pickle_roundtrip():
    g = Graph([(0, 1), (1, "x")])
    g.add_node((2, 3))
    csr = g.freeze()
    copy = pickle.loads(pickle.dumps(csr))
    assert np.array_equal(copy.indptr, csr.indptr)
    assert np.array_equal(copy.indices, csr.indices)
    assert copy.nodes() == csr.nodes()
    assert not copy.indices.flags.writeable
    assert copy.index_of("x") == csr.index_of("x")


def test_int64_indptr_is_built_once_read_only_and_never_pickled():
    csr = Graph([(0, 1), (1, 2)]).freeze()
    wide = csr.indptr64
    assert wide.dtype == np.int64 and np.array_equal(wide, csr.indptr)
    assert csr.indptr64 is wide
    with pytest.raises(ValueError):
        wide[0] = 7
    fresh = Graph([(0, 1), (1, 2)]).freeze()
    assert pickle.dumps(csr) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(csr))._indptr64 is None


def test_csr_graph_compatible_read_api():
    g = Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    csr = g.freeze()
    assert 2 in csr and 99 not in csr
    assert len(csr) == 4
    assert list(csr) == g.nodes()
    assert csr.degree_sequence() == g.degree_sequence()
    assert csr.degrees() == g.degrees()
    assert csr.average_degree() == g.average_degree()
    assert csr.max_degree() == g.max_degree()
    assert sorted(map(frozenset, csr.iter_edges())) == sorted(
        map(frozenset, g.iter_edges())
    )
    assert csr.neighbors(2) == sorted(g.neighbors(2))


@given(graphs(min_nodes=0, max_nodes=14), st.sampled_from([1, 3, 1 << 14]))
def test_iter_edges_walks_rows_in_index_order(g, block_rows):
    """Each edge once, as ``(node_at(i), node_at(j))`` with ``i < j``, in
    row order — also when the rows are converted a few at a time."""
    csr = g.freeze()
    indptr, indices = csr.indptr, csr.indices
    want = [
        (csr.node_at(i), csr.node_at(int(j)))
        for i in range(len(csr))
        for j in indices[indptr[i] : indptr[i + 1]]
        if j > i
    ]
    saved = csr_module._EDGE_BLOCK_ROWS
    csr_module._EDGE_BLOCK_ROWS = block_rows
    try:
        got = list(csr.iter_edges())
    finally:
        csr_module._EDGE_BLOCK_ROWS = saved
    assert got == want
    assert all(type(u) is type(a) and type(v) is type(b)
               for (u, v), (a, b) in zip(got, want))


def test_layout_version_is_pinned():
    # Bumping the layout invalidates every cache entry (cache keys embed
    # it); this pin makes such a bump an explicit, reviewed change.
    assert CSR_LAYOUT_VERSION == 1


# ----------------------------------------------------------------------
# Kernel equivalence properties (CSR vs dict oracle)
# ----------------------------------------------------------------------

@given(graphs(min_nodes=1, max_nodes=14), st.integers(0, 2**16))
def test_bfs_levels_matches_dict_bfs(g, salt):
    csr = g.freeze()
    nodes = g.nodes()
    source = nodes[salt % len(nodes)]
    for max_depth in (None, 0, 1, 2, salt % 7):
        dist = kernels.bfs_levels(csr, csr.index_of(source), max_depth=max_depth)
        got = {
            csr.node_at(i): int(d)
            for i, d in enumerate(dist)
            if d != kernels.UNREACHED
        }
        assert got == bfs_distances(g, source, max_depth=max_depth)


@given(graphs(min_nodes=1, max_nodes=14), st.integers(0, 2**16))
def test_bfs_levels_max_reach_stops_after_the_level_that_passes_it(g, salt):
    # Every level up to the first whose cumulative count exceeds the
    # limit is the unbounded BFS's; every deeper node stays unreached.
    csr = g.freeze()
    n = csr.number_of_nodes()
    source = salt % n
    full = kernels.bfs_levels(csr, source)
    cumulative = np.cumsum(kernels.level_counts(full))
    level_total = int(cumulative[salt % cumulative.size])
    for limit in (0, 1, n - 1, n, level_total):
        passed = np.flatnonzero(cumulative > limit)
        stop = int(passed[0]) if passed.size else cumulative.size - 1
        want = np.where(full <= stop, full, kernels.UNREACHED)
        dist = kernels.bfs_levels(csr, source, max_reach=limit)
        assert dist.dtype == np.int32
        assert np.array_equal(dist, want), (limit, stop)


@given(graphs(min_nodes=2, max_nodes=12))
def test_multi_source_distances_matches_per_source_bfs(g):
    csr = g.freeze()
    sources = list(range(0, len(csr), 2))
    matrix = kernels.multi_source_distances(csr, sources)
    assert matrix.shape == (len(sources), len(csr))
    for row, si in zip(matrix, sources):
        assert np.array_equal(row, kernels.bfs_levels(csr, si))


@given(graphs(min_nodes=1, max_nodes=14))
def test_degree_vector_matches_graph_degrees(g):
    csr = g.freeze()
    deg = kernels.degree_vector(csr)
    assert [int(d) for d in deg] == [g.degree(n) for n in g.nodes()]


@given(graphs(min_nodes=1, max_nodes=12), st.integers(0, 5))
def test_ball_members_matches_dict_ball(g, radius):
    csr = g.freeze()
    source = g.nodes()[0]
    dist = kernels.bfs_levels(csr, csr.index_of(source))
    members = kernels.ball_members(dist, radius)
    want = {n for n, d in bfs_distances(g, source, max_depth=radius).items()}
    assert {csr.node_at(int(i)) for i in members} == want
    assert list(members) == sorted(members)


@given(graphs(min_nodes=1, max_nodes=12), st.integers(0, 4))
def test_induced_subgraph_matches_dict_subgraph(g, radius):
    csr = g.freeze()
    source = g.nodes()[0]
    dist = kernels.bfs_levels(csr, csr.index_of(source))
    members = kernels.ball_members(dist, radius)
    sub = kernels.induced_subgraph(csr, members)
    want = g.subgraph([csr.node_at(int(i)) for i in members])
    assert isinstance(sub, CSRGraph)
    assert set(sub.nodes()) == set(want.nodes())
    assert set(map(frozenset, sub.iter_edges())) == set(
        map(frozenset, want.iter_edges())
    )


def test_induced_subgraph_rejects_unsorted_members():
    csr = Graph([(0, 1), (1, 2)]).freeze()
    with pytest.raises(ValueError):
        kernels.induced_subgraph(csr, np.array([2, 0], dtype=np.int64))


@given(graphs(min_nodes=2, max_nodes=12), st.integers(0, 2**16))
def test_path_counts_match_dict_dag(g, salt):
    csr = g.freeze()
    nodes = g.nodes()
    source = nodes[salt % len(nodes)]
    dist, sigma = kernels.bfs_with_path_counts(csr, csr.index_of(source))
    dag = shortest_path_dag(g, source)
    for i, node in enumerate(nodes):
        if node in dag.dist:
            assert int(dist[i]) == dag.dist[node]
            assert int(sigma[i]) == dag.sigma[node]
        else:
            assert int(dist[i]) == kernels.UNREACHED
            assert int(sigma[i]) == 0


def test_path_count_overflow_is_detected_when_the_sum_wraps_positive():
    # 62 diamonds give 2**62 paths to node 186; five parallel two-hop
    # routes then give 5 * 2**62, which wraps an int64 sum back to the
    # positive 2**62.
    g = Graph()
    for k in range(62):
        for mid in (3 * k + 1, 3 * k + 2):
            g.add_edge(3 * k, mid)
            g.add_edge(mid, 3 * k + 3)
    for j in range(5):
        g.add_edge(186, 1000 + j)
        g.add_edge(1000 + j, 2000)
    csr = g.freeze()
    with pytest.raises(kernels.PathCountOverflow):
        kernels.bfs_with_path_counts(csr, csr.index_of(0))
    assert shortest_path_dag(csr, 0).sigma[2000] == 5 * 2**62


def test_bfs_levels_source_out_of_range():
    csr = Graph([(0, 1)]).freeze()
    with pytest.raises(IndexError):
        kernels.bfs_levels(csr, 2)
    with pytest.raises(IndexError):
        kernels.bfs_with_path_counts(csr, -1)


def test_level_counts_known_values():
    csr = Graph([(0, 1), (1, 2), (2, 3)]).freeze()
    dist = kernels.bfs_levels(csr, 0)
    assert list(kernels.level_counts(dist)) == [1, 1, 1, 1]
    empty = np.full(3, kernels.UNREACHED, dtype=np.int32)
    assert list(kernels.level_counts(empty)) == [0]
