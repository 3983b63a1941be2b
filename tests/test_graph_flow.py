"""Tests for Dinic max-flow and exact bipartite weighted vertex cover."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.flow import (
    Dinic,
    bipartite_vertex_cover,
    bipartite_vertex_cover_weight,
)


def test_single_path_flow():
    d = Dinic(4)
    d.add_edge(0, 1, 3.0)
    d.add_edge(1, 2, 2.0)
    d.add_edge(2, 3, 3.0)
    assert d.max_flow(0, 3) == pytest.approx(2.0)


def test_parallel_paths():
    d = Dinic(4)
    d.add_edge(0, 1, 1.0)
    d.add_edge(1, 3, 1.0)
    d.add_edge(0, 2, 2.0)
    d.add_edge(2, 3, 2.0)
    assert d.max_flow(0, 3) == pytest.approx(3.0)


def test_classic_diamond_with_cross_edge():
    # The textbook example where the cross edge enables extra flow.
    d = Dinic(4)
    d.add_edge(0, 1, 10)
    d.add_edge(0, 2, 10)
    d.add_edge(1, 2, 1)
    d.add_edge(1, 3, 10)
    d.add_edge(2, 3, 10)
    assert d.max_flow(0, 3) == pytest.approx(20.0)


def test_no_path_zero_flow():
    d = Dinic(3)
    d.add_edge(0, 1, 5.0)
    assert d.max_flow(0, 2) == 0.0


def test_flow_keeps_the_network_number_type():
    # A float network (the Section 5 covers) still answers 0.0, not 0,
    # when no path exists.
    d = Dinic(3)
    d.add_edge(0, 1, 5.0)
    assert d.max_flow(0, 2).hex() == (0.0).hex()
    # An integer network never turns float, so totals past 2**53 stay
    # exact.
    big = 1 << 60
    d = Dinic(3, zero=0)
    d.add_edge(0, 1, big + 1)
    d.add_edge(1, 2, big + 1)
    d.add_edge(0, 2, big)
    flow = d.max_flow(0, 2)
    assert type(flow) is int and flow == 2 * big + 1
    assert all(type(c) is int for c in d.cap)
    assert type(Dinic(2, zero=0).max_flow(0, 1)) is int


def test_infinite_middle_edge():
    d = Dinic(4)
    d.add_edge(0, 1, 4.0)
    d.add_edge(1, 2, float("inf"))
    d.add_edge(2, 3, 6.0)
    assert d.max_flow(0, 3) == pytest.approx(4.0)


def test_source_equals_sink_raises():
    d = Dinic(2)
    with pytest.raises(ValueError):
        d.max_flow(0, 0)


def test_negative_capacity_rejected():
    d = Dinic(2)
    with pytest.raises(ValueError):
        d.add_edge(0, 1, -1.0)


def test_min_cut_reachable_side():
    d = Dinic(4)
    d.add_edge(0, 1, 1.0)
    d.add_edge(1, 2, 0.5)
    d.add_edge(2, 3, 1.0)
    d.max_flow(0, 3)
    reach = d.min_cut_reachable(0)
    assert reach[0] and reach[1]
    assert not reach[2] and not reach[3]


def test_vertex_cover_simple():
    w, cover = bipartite_vertex_cover(
        {"a": 1.0, "b": 1.0},
        {"x": 1.0, "y": 1.0},
        [("a", "x"), ("a", "y"), ("b", "x")],
    )
    assert w == pytest.approx(2.0)
    covered = set(cover)
    for u, v in [("a", "x"), ("a", "y"), ("b", "x")]:
        assert u in covered or v in covered


def test_vertex_cover_weighted_prefers_cheap_side():
    # One heavy left vertex vs three cheap right vertices.
    w, cover = bipartite_vertex_cover(
        {"hub": 10.0},
        {"x": 1.0, "y": 1.0, "z": 1.0},
        [("hub", "x"), ("hub", "y"), ("hub", "z")],
    )
    assert w == pytest.approx(3.0)
    assert set(cover) == {"x", "y", "z"}


def test_vertex_cover_star_access_link():
    # The paper's example: an access link's traversal set is a star on
    # the singleton node -> cover weight = that node's weight.
    left = {"leaf": 1.0}
    right = {i: 1.0 for i in range(50)}
    pairs = [("leaf", i) for i in range(50)]
    assert bipartite_vertex_cover_weight(left, right, pairs) == pytest.approx(1.0)


def brute_force_cover(left, right, pairs):
    vertices = list(left) + list(right)
    weights = {**left, **right}
    best = float("inf")
    for mask in range(1 << len(vertices)):
        chosen = {v for i, v in enumerate(vertices) if mask >> i & 1}
        if all(u in chosen or v in chosen for u, v in pairs):
            best = min(best, sum(weights[v] for v in chosen))
    return best


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_vertex_cover_matches_brute_force(nl, nr, data):
    left = {
        f"l{i}": data.draw(st.integers(1, 5)) * 1.0 for i in range(nl)
    }
    right = {
        f"r{i}": data.draw(st.integers(1, 5)) * 1.0 for i in range(nr)
    }
    pairs = []
    for u in left:
        for v in right:
            if data.draw(st.booleans()):
                pairs.append((u, v))
    if not pairs:
        pairs = [(next(iter(left)), next(iter(right)))]
    exact = bipartite_vertex_cover_weight(left, right, pairs)
    brute = brute_force_cover(left, right, pairs)
    assert exact == pytest.approx(brute)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_unweighted_cover_equals_matching_size(nl, nr, data):
    """König: in bipartite graphs, min unweighted VC = max matching."""
    import networkx as nx

    left = {f"l{i}": 1.0 for i in range(nl)}
    right = {f"r{i}": 1.0 for i in range(nr)}
    pairs = []
    for u in left:
        for v in right:
            if data.draw(st.booleans()):
                pairs.append((u, v))
    if not pairs:
        return
    g = nx.Graph(pairs)
    matching = nx.algorithms.bipartite.maximum_matching(
        g, top_nodes=[u for u in left if u in g]
    )
    ours = bipartite_vertex_cover_weight(left, right, pairs)
    assert ours == pytest.approx(len(matching) // 2)
