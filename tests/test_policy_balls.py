"""Reproduction of the paper's Figure 15 policy-induced ball example
(Appendix E).

The figure's annotated AS graph has center A with neighbours B, C, H;
D and E at policy distance 2; G at 3; F at 4 (F is *not* at distance 3,
because the shorter physical route A-B-E-F contains a valley).  The
paper states:

  "a ball of radius 3 includes nodes A, B, C, D, E, G and H and links
  (A,B), (A,C), (A,H), (B,E), (C,D) and (E,G).  A ball of radius 4
  includes all nodes and links in the ball of radius 3 plus node F and
  links (D,E) and (E,F)."

We encode relationships realising exactly those distances and assert the
ball contents verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import METRICS, MetricEngine, MetricRequest
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import csr_from_graph
from repro.graph.traversal import is_connected
from repro.internet import synthetic_as_graph
from repro.internet.asgraph import ASGraphParams
from repro.metrics.balls import _policy_ball_from_dag, policy_ball_subgraph
from repro.routing.policy import (
    CUSTOMER,
    PEER,
    PROVIDER,
    PolicyProduct,
    Relationships,
    policy_dag,
    policy_distances,
)
from repro.testing import OracleEngine
from repro.testing.strategies import connected_graphs


@pytest.fixture()
def figure15():
    g = Graph(
        [
            ("A", "B"),
            ("A", "C"),
            ("A", "H"),
            ("B", "E"),
            ("C", "D"),
            ("D", "E"),
            ("E", "F"),
            ("E", "G"),
        ]
    )
    rels = Relationships()
    # A climbs to B and C; H is A's customer.
    rels.set_provider_customer(provider="B", customer="A")
    rels.set_provider_customer(provider="C", customer="A")
    rels.set_provider_customer(provider="A", customer="H")
    # Via B the path descends to E (so it can never climb to F).
    rels.set_provider_customer(provider="B", customer="E")
    # Via C the path keeps climbing C -> D -> E -> F.
    rels.set_provider_customer(provider="D", customer="C")
    rels.set_provider_customer(provider="E", customer="D")
    rels.set_provider_customer(provider="F", customer="E")
    # G hangs below E.
    rels.set_provider_customer(provider="E", customer="G")
    return g, rels


def edge_set(graph):
    return {frozenset(e) for e in graph.iter_edges()}


def test_policy_distances_match_figure(figure15):
    g, rels = figure15
    dist = policy_distances(g, rels, "A")
    assert dist == {
        "A": 0,
        "B": 1,
        "C": 1,
        "H": 1,
        "D": 2,
        "E": 2,
        "G": 3,
        "F": 4,
    }


def test_f_not_reachable_in_three_policy_hops(figure15):
    g, rels = figure15
    # Physically F is 3 hops away (A-B-E-F), but that path has a valley
    # (down to E, then up to F), so the policy distance is 4.
    from repro.graph.traversal import bfs_distances

    assert bfs_distances(g, "A")["F"] == 3
    assert policy_distances(g, rels, "A")["F"] == 4


def test_ball_radius_3_contents(figure15):
    g, rels = figure15
    ball = policy_ball_subgraph(g, rels, "A", 3)
    assert set(ball.nodes()) == {"A", "B", "C", "D", "E", "G", "H"}
    assert edge_set(ball) == {
        frozenset(("A", "B")),
        frozenset(("A", "C")),
        frozenset(("A", "H")),
        frozenset(("B", "E")),
        frozenset(("C", "D")),
        frozenset(("E", "G")),
    }


def test_ball_radius_4_adds_f_and_links(figure15):
    g, rels = figure15
    ball3 = policy_ball_subgraph(g, rels, "A", 3)
    ball4 = policy_ball_subgraph(g, rels, "A", 4)
    assert set(ball4.nodes()) == set(ball3.nodes()) | {"F"}
    assert edge_set(ball4) == edge_set(ball3) | {
        frozenset(("D", "E")),
        frozenset(("E", "F")),
    }


def test_ball_radius_1_is_immediate_neighbours(figure15):
    g, rels = figure15
    ball = policy_ball_subgraph(g, rels, "A", 1)
    assert set(ball.nodes()) == {"A", "B", "C", "H"}
    assert len(edge_set(ball)) == 3


def test_ball_radius_2(figure15):
    g, rels = figure15
    ball = policy_ball_subgraph(g, rels, "A", 2)
    assert set(ball.nodes()) == {"A", "B", "C", "H", "D", "E"}
    # Links on shortest policy paths to those nodes: the (D,E) link is
    # not included because D and E are each reached another way.
    assert edge_set(ball) == {
        frozenset(("A", "B")),
        frozenset(("A", "C")),
        frozenset(("A", "H")),
        frozenset(("B", "E")),
        frozenset(("C", "D")),
    }


def test_policy_ball_on_unannotated_graph_equals_plain_ball():
    from repro.metrics.balls import ball_subgraph

    g = Graph([(0, 1), (1, 2), (2, 3), (0, 3)])
    rels = Relationships(default_sibling=True)
    plain = ball_subgraph(g, 0, 2)
    policy = policy_ball_subgraph(g, rels, 0, 2)
    assert set(policy.nodes()) == set(plain.nodes())
    # All-sibling: every shortest path is policy-valid, so only links on
    # shortest paths appear; they form a subset of the plain ball.
    assert edge_set(policy) <= edge_set(plain)


@st.composite
def annotated_graphs(draw):
    """A connected graph, every edge annotated at random: either
    provider direction, peer, or sibling."""
    g = draw(connected_graphs(min_nodes=2, max_nodes=14))
    rels = Relationships()
    for u, v in g.iter_edges():
        kind = draw(st.sampled_from(("up", "down", "peer", "sibling")))
        if kind == "up":
            rels.set_provider_customer(provider=v, customer=u)
        elif kind == "down":
            rels.set_provider_customer(provider=u, customer=v)
        elif kind == "peer":
            rels.set_peer(u, v)
        else:
            rels.set_sibling(u, v)
    center = draw(st.sampled_from(g.nodes()))
    return g, rels, center


@settings(max_examples=150, deadline=None)
@given(annotated_graphs())
def test_every_policy_ball_is_connected_and_holds_its_center(case):
    # The engine's policy balls ride the connected-input fast path of the
    # resilience and distortion kernels; every ball the DAG yields must
    # be connected (each member keeps a whole shortest policy path back
    # to the center) and contain the center.
    g, rels, center = case
    dag = policy_dag(g, rels, center)
    reach = max(policy_distances(g, rels, center).values())
    for radius in range(0, reach + 1):
        ball = _policy_ball_from_dag(g, dag, radius)
        assert center in ball
        assert is_connected(ball), (radius, ball.edges())


# ----------------------------------------------------------------------
# The engine's array-sliced policy balls
# ----------------------------------------------------------------------

def assert_array_balls_match_reference(g, rels):
    """Every center and radius: the ball sliced from the frozen graph
    with the product's arc radii equals ``policy_ball_subgraph``
    frozen, node list and arrays alike."""
    csr = g.freeze()
    product = PolicyProduct(csr, rels)
    for center in g.nodes():
        dist, arc_radius = product.ball_radii(csr.index_of(center))
        for radius in range(int(dist.max()) + 1):
            got = kernels.BallBatch(
                csr,
                [kernels.ball_members(dist, radius)],
                arc_radius=(arc_radius, [radius]),
            ).sub_csr(0)
            want = csr_from_graph(policy_ball_subgraph(g, rels, center, radius))
            assert got.node_list() == want.node_list(), (center, radius)
            assert np.array_equal(got.indptr, want.indptr), (center, radius)
            assert np.array_equal(got.indices, want.indices), (center, radius)


def test_array_policy_balls_match_reference_on_figure15(figure15):
    assert_array_balls_match_reference(*figure15)


@settings(max_examples=150, deadline=None)
@given(annotated_graphs())
def test_array_policy_balls_match_reference(case):
    g, rels, _center = case
    assert_array_balls_match_reference(g, rels)


def relabelled_as_strings(graph, rels):
    """The graph and its annotation with node ``v`` renamed ``as<v>``,
    node order kept."""
    label = {v: f"as{v}" for v in graph.nodes()}
    out = Graph()
    out.add_nodes_from(label.values())
    out.add_edges_from((label[u], label[v]) for u, v in graph.iter_edges())
    out_rels = Relationships()
    for u, v in rels.annotated_edges():
        rel = rels.rel(u, v)
        if rel == PROVIDER:
            out_rels.set_provider_customer(provider=label[v], customer=label[u])
        elif rel == CUSTOMER:
            out_rels.set_provider_customer(provider=label[u], customer=label[v])
        elif rel == PEER:
            out_rels.set_peer(label[u], label[v])
        else:
            out_rels.set_sibling(label[u], label[v])
    return out, out_rels


def test_policy_series_ignore_label_type():
    # A policy ball's members are in node-index order, so string labels
    # (whose set order follows the hash seed) give the int series.
    as_graph = synthetic_as_graph(ASGraphParams(n=150), seed=4)
    names = [name for name in METRICS if METRICS[name].kind == "ball"]
    results = []
    for graph, rels in (
        (as_graph.graph, as_graph.relationships),
        relabelled_as_strings(as_graph.graph, as_graph.relationships),
    ):
        requests = [
            MetricRequest(name, num_centers=4, max_ball_size=120, rels=rels, seed=1)
            for name in names
        ]
        got = MetricEngine(use_cache=False).compute(graph, requests)
        want = OracleEngine().compute(graph, requests)
        assert repr(got) == repr(want)
        results.append([got[name] for name in names])
    assert len(results[0]) == 6 and all(results[0])
    assert repr(results[0]) == repr(results[1])
