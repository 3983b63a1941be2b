"""Unit and property tests for the streaming edge sinks
(:mod:`repro.generators.builder`).

The load-bearing invariant: a :class:`GraphBuilder` fed any chunking of
an edge list finalizes to arrays bit-identical to ``Graph.freeze()`` on
the same edges — the streaming path is just another route to the one
canonical CSR form.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    EdgeSpool,
    GraphBuilder,
    GraphSink,
    materialize_into,
)
from repro.generators.plrg import plrg
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import (
    connected_components,
    is_connected,
    largest_connected_component,
)


def assert_same_csr(got: CSRGraph, want: CSRGraph):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert list(got.nodes()) == list(want.nodes())


def stream(edges, n_nodes=None, **kwargs) -> GraphBuilder:
    builder = GraphBuilder(**kwargs)
    if n_nodes is not None:
        builder.add_nodes_from(range(n_nodes))
    for u, v in edges:
        builder.add_edge(u, v)
    return builder


# ----------------------------------------------------------------------
# Round trips against Graph.freeze()
# ----------------------------------------------------------------------

def test_finalize_matches_graph_freeze():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    g = Graph(edges, name="square")
    got = stream(edges).finalize(name="square")
    assert_same_csr(got, g.freeze())
    assert got.name == "square"


def test_streamed_plrg_bits_are_pinned():
    # Degrees, stub permutation, dedupe, giant component and labels all
    # feed these bytes; the digest was taken from the per-draw bisect,
    # numpy-array shuffle and union-find build this one replaced.
    csr = plrg(50_000, seed=7, sink=GraphBuilder())
    nodes = np.asarray(list(csr.nodes()), dtype=np.int64)
    digest = hashlib.sha256(
        csr.indptr.tobytes() + csr.indices.tobytes() + nodes.tobytes()
    ).hexdigest()
    assert csr.number_of_nodes() == 39_965
    assert digest == (
        "73eae0bebad264ea2572881a424af53bab894f2b8d93a759d21ea2fc3b7e0ee1"
    )


def test_duplicates_and_self_loops_are_dropped():
    g = Graph([(0, 1), (1, 2)])
    builder = stream([(0, 1), (1, 0), (1, 2), (2, 2), (0, 1)])
    assert_same_csr(builder.finalize(), g.freeze())


def test_isolated_nodes_survive():
    builder = GraphBuilder()
    builder.add_nodes_from(range(5))
    builder.add_edge(0, 1)
    csr = builder.finalize()
    assert csr.number_of_nodes() == 5
    assert csr.degree(4) == 0


def test_add_chunk_matches_per_edge_adds():
    edges = [(i, (i * 7 + 3) % 50) for i in range(200)]
    per_edge = stream(edges).finalize()
    chunked = GraphBuilder()
    chunked.add_chunk(np.asarray(edges, dtype=np.int64))
    assert_same_csr(chunked.finalize(), per_edge)


def test_buffer_doubling_past_min_capacity():
    # > _MIN_CAPACITY edges forces several doublings.
    edges = [(i, i + 1) for i in range(5000)]
    g = Graph(edges)
    assert_same_csr(stream(edges).finalize(), g.freeze())


def test_materialize_into_replays_a_graph():
    g = Graph([(0, 1), (1, 2), (2, 0), (3, 4)], name="two-parts")
    csr = materialize_into(GraphBuilder(), g)
    assert_same_csr(csr, g.freeze())
    assert csr.name == "two-parts"


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def test_rejects_negative_labels():
    builder = GraphBuilder()
    with pytest.raises(ValueError):
        builder.add_edge(-1, 2)
    with pytest.raises(ValueError):
        builder.add_node(-3)
    with pytest.raises(ValueError):
        builder.add_chunk(np.array([[0, 1], [-2, 3]]))


def test_rejects_malformed_chunks():
    builder = GraphBuilder()
    with pytest.raises(ValueError):
        builder.add_chunk(np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError):
        builder.finalize(component="mainland")


# ----------------------------------------------------------------------
# Exact mode: membership queries and removal
# ----------------------------------------------------------------------

def test_exact_mode_queries():
    builder = stream([(0, 1), (0, 1), (1, 2)])
    assert builder.number_of_edges() == 2  # dedupe on activation
    assert builder.has_edge(1, 0)
    assert not builder.has_edge(0, 2)
    assert not builder.has_edge(0, 99)
    assert builder.degree(1) == 2
    with pytest.raises(KeyError):
        builder.degree(99)


def test_exact_mode_upfront_matches_lazy():
    edges = [(i % 17, (i * 5) % 17) for i in range(100)]
    lazy = stream(edges)
    lazy.number_of_edges()  # activate after the fact
    eager = stream(edges, exact=True)
    assert eager.number_of_edges() == lazy.number_of_edges()
    assert_same_csr(eager.finalize(), stream(edges).finalize())


def test_remove_edge():
    builder = stream([(0, 1), (1, 2), (2, 3)])
    builder.remove_edge(2, 1)
    with pytest.raises(KeyError):
        builder.remove_edge(1, 2)
    assert not builder.connected()
    g = Graph([(0, 1), (2, 3)])
    g.add_node(2)
    assert_same_csr(builder.finalize(), Graph([(0, 1), (2, 3)]).freeze())


def test_degrees_with_and_without_exact_mode():
    edges = [(0, 1), (0, 2), (0, 1), (3, 0)]
    plain = stream(edges, n_nodes=5)
    assert plain.degrees().tolist() == [3, 1, 1, 1, 0]
    exact = stream(edges, n_nodes=5, exact=True)
    assert exact.degrees().tolist() == [3, 1, 1, 1, 0]


# ----------------------------------------------------------------------
# Connectivity and giant-component extraction
# ----------------------------------------------------------------------

def test_connected_tracks_is_connected():
    builder = GraphBuilder()
    g = Graph()
    for u, v in [(0, 1), (2, 3), (1, 2), (4, 5)]:
        builder.add_edge(u, v)
        g.add_edge(u, v)
        assert builder.connected() == is_connected(g)
    builder.add_edge(3, 4)
    g.add_edge(3, 4)
    assert builder.connected() and is_connected(g)


def test_trailing_isolated_node_breaks_connectivity():
    builder = stream([(0, 1), (1, 2)])
    assert builder.connected()
    builder.add_node(3)
    assert not builder.connected()


def test_giant_component_matches_dict_path():
    edges = [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7), (7, 8), (8, 5), (10, 11)]
    g = Graph(edges)
    giant = largest_connected_component(g)
    csr = stream(edges).finalize(component="giant")
    assert sorted(csr.nodes()) == sorted(giant.nodes())
    want = {frozenset(e) for e in giant.iter_edges()}
    assert {frozenset(e) for e in csr.iter_edges()} == want


def test_giant_component_tie_break_prefers_smallest_node_id():
    # Two 3-node components.  Under the generator convention (labels
    # allocated densely in insertion order) the dict path's
    # first-discovered tie-break is exactly smallest-node-id.
    edges = [(4, 5), (5, 6), (0, 1), (1, 2)]
    g = Graph()
    g.add_nodes_from(range(7))
    g.add_edges_from(edges)
    giant = largest_connected_component(g)
    assert sorted(giant.nodes()) == [0, 1, 2]
    csr = stream(edges).finalize(component="giant")
    assert sorted(csr.nodes()) == sorted(giant.nodes())


# ----------------------------------------------------------------------
# Spill and spool
# ----------------------------------------------------------------------

def test_memmap_spill_roundtrip(tmp_path):
    edges = [(i, i + 1) for i in range(3000)]
    builder = stream(edges, spill_dir=str(tmp_path), spill_threshold=2048)
    assert builder._spill_path is not None
    spill_file = builder._spill_path
    assert_same_csr(builder.finalize(), Graph(edges).freeze())
    # finalize() closes the builder, which removes the spill file
    import os

    assert not os.path.exists(spill_file)


def test_edge_spool_records_and_replays(tmp_path):
    path = str(tmp_path / "edges.i32")
    edges = [(i % 40, (i * 3 + 1) % 40) for i in range(500)]
    with EdgeSpool(path) as spool:
        builder = GraphBuilder(spool=spool)
        for u, v in edges[:100]:
            builder.add_edge(u, v)
        builder.add_chunk(np.asarray(edges[100:], dtype=np.int64))
        direct = builder.finalize()
        assert len(spool) == direct.number_of_edges() or len(spool) >= len(
            [e for e in edges if e[0] != e[1]]
        )
        replayed = spool.replay_into(GraphBuilder()).finalize()
    assert_same_csr(replayed, direct)


def test_edge_spool_chunks_preserve_order(tmp_path):
    path = str(tmp_path / "edges.i32")
    arr = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int32)
    with EdgeSpool(path) as spool:
        spool.append(arr)
        back = np.concatenate(list(spool.chunks(chunk_edges=2)))
        assert np.array_equal(back, arr)
        with pytest.raises(ValueError):
            spool.append(np.arange(3))


# ----------------------------------------------------------------------
# GraphSink parity
# ----------------------------------------------------------------------

def test_graph_sink_matches_direct_graph_build():
    sink = GraphSink()
    sink.add_nodes_from(range(4))
    sink.add_chunk(np.array([[0, 1], [1, 2]], dtype=np.int64))
    g = sink.finalize(name="sinked")
    assert isinstance(g, Graph)
    assert g.name == "sinked"
    assert all(isinstance(node, int) for node in g.nodes())
    assert g.edges() == Graph([(0, 1), (1, 2)], name="sinked").edges()


def test_graph_sink_giant_component():
    sink = GraphSink()
    sink.add_edges_from([(0, 1), (1, 2), (5, 6)])
    g = sink.finalize(component="giant")
    assert sorted(g.nodes()) == [0, 1, 2]


# ----------------------------------------------------------------------
# Hypothesis: the growing-CSR buffer round-trips any chunking
# ----------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=0, max_size=120
)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists, data=st.data())
def test_property_any_chunking_matches_freeze(edges, data):
    g = Graph()
    g.add_nodes_from(range(31))
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    builder = GraphBuilder()
    builder.add_nodes_from(range(31))
    i = 0
    while i < len(edges):
        k = data.draw(st.integers(1, len(edges) - i), label="chunk")
        chunk = edges[i : i + k]
        if data.draw(st.booleans(), label="bulk"):
            builder.add_chunk(np.asarray(chunk, dtype=np.int64))
        else:
            builder.add_edges_from(chunk)
        i += k
    assert_same_csr(builder.finalize(name=g.name), g.freeze())


@settings(max_examples=80, deadline=None)
@given(edges=edge_lists, data=st.data())
def test_property_connectivity_and_giant_match_dict_path(edges, data):
    real = [e for e in edges if e[0] != e[1]]
    if not real:
        return
    if data.draw(st.booleans(), label="twin"):
        # A relabelled copy beside the original: every component has an
        # equal-sized twin, so the giant is always a tie.
        shift = max(max(e) for e in real) + 1
        real += [(u + shift, v + shift) for u, v in real]
    n = max(max(e) for e in real) + 1 + data.draw(st.integers(0, 3), label="trailing")
    # The dict side holds the node universe in label order (the generator
    # convention, under which its first-discovered tie-break is the
    # smallest id); the builder may learn of the nodes only after the
    # edges that touch them.
    g = Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(real)
    builder = GraphBuilder(exact=data.draw(st.booleans(), label="exact"))
    nodes_first = data.draw(st.booleans(), label="nodes first")
    if nodes_first:
        builder.add_nodes_from(range(n))
    builder.add_edges_from(real)
    if not nodes_first:
        builder.add_nodes_from(range(n))
    present = sorted({(min(e), max(e)) for e in real})
    for u, v in data.draw(
        st.lists(st.sampled_from(present), unique=True, max_size=4), label="removed"
    ):
        g.remove_edge(u, v)
        builder.remove_edge(v, u)
    want = np.arange(n)
    for component in connected_components(g):
        want[component] = min(component)
    assert builder.component_roots().tolist() == want.tolist()
    assert builder.connected() == is_connected(g)
    giant = largest_connected_component(g)
    csr = builder.finalize(component="giant")
    assert list(csr.nodes()) == sorted(giant.nodes())
    assert {frozenset(e) for e in csr.iter_edges()} == {
        frozenset(e) for e in giant.iter_edges()
    }
