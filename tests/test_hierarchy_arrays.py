"""Section 5 on arrays vs. the per-pair DAG walk, to the bit.

:func:`repro.hierarchy.link_traversal_sets` builds shortest-path
traversal sets from per-node distance and path-count rows, and
:func:`repro.hierarchy.link_value_from_entries` sums vertex weights with
``np.bincount`` and builds each cover network in one shot.  Each must
reproduce the DAG-walk oracle exactly: the same links, the same entries
in the same order, and the same ``float.hex`` of every weight and link
value — including where path counts leave the float-exact range or
int64.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.generators.canonical import mesh
from repro.graph.core import Graph
from repro.graph.flow import INF, Dinic, _cover_network
from repro.graph.kernels import PathCountOverflow, bfs_with_path_counts
from repro.hierarchy import (
    link_traversal_sets,
    link_value_from_entries,
    link_values,
)
from repro.testing.oracles import oracle_link_traversal_sets, oracle_link_value
from repro.testing.strategies import (
    connected_graphs,
    disconnected_graphs,
    graphs,
    relabelled_copy,
    weighted_bipartite_instances,
)


def hexed(entries):
    return [(u, v, float.hex(w)) for u, v, w in entries]


def assert_matches_oracle(g, sources=None, pair_weight=None, value_stride=1):
    """Compare every traversal set, and every ``value_stride``-th link's
    value, with the oracle."""
    got = link_traversal_sets(g, sources=sources, pair_weight=pair_weight)
    want = oracle_link_traversal_sets(g, sources, pair_weight)
    assert list(got) == list(want)
    for link, entries in want.items():
        assert hexed(got[link]) == hexed(entries), link
    for link in list(want)[::value_stride]:
        assert float.hex(link_value_from_entries(got[link])) == float.hex(
            oracle_link_value(want[link])
        ), link
    return got


@st.composite
def link_value_cases(draw):
    """A graph with shuffled labels, optional sources in random order
    (repeats allowed) and an optional demand table with zero entries."""
    g = draw(st.one_of(graphs(1, 10), connected_graphs(2, 10), disconnected_graphs(5)))
    g, _ = relabelled_copy(g, draw(st.integers(0, 2**16)))
    nodes = g.nodes()
    sources = draw(st.none() | st.lists(st.sampled_from(nodes), min_size=1, max_size=12))
    pair_weight = None
    if draw(st.booleans()):
        demand = st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e-3])
        table = {(u, v): draw(demand) for u in nodes for v in nodes}
        pair_weight = lambda u, v: table[u, v]  # noqa: E731
    return g, sources, pair_weight


@settings(max_examples=150, deadline=None)
@given(link_value_cases())
def test_array_sets_and_values_match_dag_walk(case):
    g, sources, pair_weight = case
    got = assert_matches_oracle(g, sources, pair_weight)
    values = link_values(g, sources=sources, pair_weight=pair_weight)
    assert {link: float.hex(v) for link, v in values.items()} == {
        link: float.hex(link_value_from_entries(entries))
        for link, entries in got.items()
    }
    for entries in got.values():
        # The array-backed and the plain-list paths of the value agree,
        # for the exact cover and the local-ratio approximation.
        listed = list(entries)
        assert float.hex(link_value_from_entries(listed)) == float.hex(
            link_value_from_entries(entries)
        )
        assert float.hex(link_value_from_entries(listed, exact=False)) == float.hex(
            link_value_from_entries(entries, exact=False)
        )


def test_mesh_path_counts_beyond_float_exact_range():
    """On the paper's 30x30 mesh, corner-to-corner path counts (~3e16)
    exceed 2**53, so those quotients take the exact integer path."""
    g = mesh(30)
    _dist, sigma = bfs_with_path_counts(g.freeze(), 0)
    assert int(sigma.max()) > 2**53
    assert_matches_oracle(g, sources=[899, 0], value_stride=40)


def fan_chain(width: int, length: int) -> Graph:
    """``length`` fans of ``width`` parallel two-hop routes in series:
    ``width**length`` shortest end-to-end paths."""
    g = Graph()
    step = width + 1
    for k in range(length):
        hub, nxt = step * k, step * (k + 1)
        for mid in range(hub + 1, nxt):
            g.add_edge(hub, mid)
            g.add_edge(mid, nxt)
    return g


def test_quotients_beyond_float_exact_range_divide_exact_integers():
    # 3**36 end-to-end paths: above 2**53 and below int64.  Here a
    # float64 quotient of the rounded counts differs from the exact one
    # (unlike the mesh's, whose counts carry many factors of two).
    g = fan_chain(3, 36)
    _dist, sigma = bfs_with_path_counts(g.freeze(), 0)
    assert int(sigma.max()) == 3**36
    assert float(3**35) / float(3**36) != 3**35 / 3**36
    assert_matches_oracle(g, sources=[4 * 36, 0, 70])


def test_path_counts_beyond_int64_use_exact_rows():
    g = fan_chain(2, 66)
    with pytest.raises(PathCountOverflow):
        bfs_with_path_counts(g.freeze(), 0)
    assert_matches_oracle(g, sources=[3 * 66, 0, 100])


@given(weighted_bipartite_instances())
def test_cover_network_equals_sequential_add_edge(instance):
    left, right, pairs = instance
    network, left_index, right_index = _cover_network(left, right, pairs)
    n = len(left) + len(right)
    sequential = Dinic(n + 2)
    for v, w in left.items():
        sequential.add_edge(n, left_index[v], w)
    for v, w in right.items():
        sequential.add_edge(right_index[v], n + 1, w)
    for u, v in pairs:
        sequential.add_edge(left_index[u], right_index[v], INF)
    assert network.n == sequential.n
    assert network.to == sequential.to
    assert network.cap == sequential.cap
    assert network.head == sequential.head


def test_cover_network_rejects_negative_weights():
    with pytest.raises(ValueError):
        _cover_network({"a": -1.0}, {"b": 1.0}, [("a", "b")])
