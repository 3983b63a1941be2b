"""Tests for degree-sequence sampling and the Appendix D.1 wiring
variants."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators.degree_sequence import (
    WIRING_METHODS,
    _shuffled_stubs,
    degree_ccdf,
    expected_average_degree,
    fit_power_law_exponent,
    is_graphical,
    power_law_degrees,
    rewire_with_method,
    wire_deterministic,
    wire_plrg,
    wire_proportional,
    wire_uniform,
    wire_unsatisfied_proportional,
)
from repro.generators.barabasi_albert import barabasi_albert
from repro.graph.core import Graph
from repro.testing.oracles import oracle_power_law_degrees, oracle_shuffled_stubs


def test_power_law_degrees_even_sum():
    degrees = power_law_degrees(501, 2.2, seed=1)
    assert sum(degrees) % 2 == 0
    assert len(degrees) == 501
    assert min(degrees) >= 1


def test_power_law_exponent_shifts_mass():
    shallow = power_law_degrees(2000, 2.0, seed=2)
    steep = power_law_degrees(2000, 3.0, seed=2)
    assert sum(shallow) > sum(steep)


def test_power_law_max_degree_cap():
    degrees = power_law_degrees(500, 2.0, seed=3, max_degree=10)
    assert max(degrees) <= 11  # +1 possible from the even-sum fixup


def test_power_law_invalid():
    with pytest.raises(ValueError):
        power_law_degrees(10, 1.0)
    with pytest.raises(ValueError):
        power_law_degrees(0, 2.5)
    with pytest.raises(ValueError):
        power_law_degrees(10, 2.5, min_degree=0)


def test_power_law_degrees_match_the_per_draw_bisect_loop():
    """The array draw is the old per-draw ``bisect_left`` loop, bit for
    bit: the same Python ints and the same RNG state afterwards, through
    the odd-sum ``randrange`` fix-up too."""
    fixups = 0
    grid = itertools.product(
        (1, 2, 3, 999, 5000),
        (1.5, 2.246, 3.1),
        ((1, None), (2, None), (1, 7), (3, 40)),
        (0, 7, 2024),
    )
    for n, exponent, (lo, hi), seed in grid:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = power_law_degrees(n, exponent, rng, min_degree=lo, max_degree=hi)
        want = oracle_power_law_degrees(n, exponent, ref_rng, lo, hi)
        assert got == want, (n, exponent, lo, hi, seed)
        assert all(type(d) is int for d in got)
        assert rng.getstate() == ref_rng.getstate()
        draws_only = random.Random(seed)
        for _ in range(n):
            draws_only.random()
        fixups += draws_only.getstate() != rng.getstate()
    assert fixups > 0


@pytest.mark.parametrize(
    "degrees",
    [[], [0, 0], [1], [3, 0, 2, 5], power_law_degrees(2000, 2.246, seed=4)],
)
def test_shuffled_stubs_match_a_list_shuffle(degrees):
    rng, ref_rng = random.Random(11), random.Random(11)
    got = _shuffled_stubs(degrees, rng)
    assert got.dtype == np.int32
    assert got.tolist() == oracle_shuffled_stubs(degrees, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


def test_expected_average_degree_decreases_with_exponent():
    assert expected_average_degree(2.0) > expected_average_degree(2.5)


def test_is_graphical_known_cases():
    assert is_graphical([1, 1])
    assert is_graphical([2, 2, 2])
    assert not is_graphical([1, 1, 1])  # odd sum
    assert not is_graphical([3, 1, 1])  # fails Erdos-Gallai
    assert is_graphical([3, 3, 3, 3])  # K4


def test_wire_plrg_respects_degrees_approximately():
    degrees = [4, 3, 3, 2, 2, 1, 1]
    if sum(degrees) % 2:
        degrees[-1] += 1
    g = wire_plrg(degrees, seed=1)
    # Self-loop/duplicate removal only ever lowers degrees.
    for node, target in enumerate(degrees):
        assert g.degree(node) <= target


def test_wire_deterministic_is_deterministic():
    degrees = power_law_degrees(60, 2.2, seed=4)
    g1 = wire_deterministic(degrees)
    g2 = wire_deterministic(degrees)
    assert set(map(frozenset, g1.iter_edges())) == set(
        map(frozenset, g2.iter_edges())
    )


def test_wire_deterministic_high_to_high():
    # Highest-degree node links to the next-highest nodes first.
    degrees = [3, 2, 2, 2, 1]
    g = wire_deterministic(degrees)
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 2)
    assert g.has_edge(0, 3)


@pytest.mark.parametrize("method", sorted(WIRING_METHODS))
def test_all_wiring_methods_respect_degree_budget(method):
    degrees = power_law_degrees(120, 2.3, seed=5)
    g = WIRING_METHODS[method](degrees, 6)
    for node in g.nodes():
        assert g.degree(node) <= degrees[node]


@pytest.mark.parametrize(
    "wire",
    [wire_plrg, wire_uniform, wire_proportional, wire_unsatisfied_proportional],
)
def test_random_wirings_fill_most_degree_budget(wire):
    degrees = power_law_degrees(300, 2.3, seed=6)
    g = wire(degrees, 7)
    assert g.number_of_edges() >= 0.6 * (sum(degrees) // 2)


def test_rewire_with_method_preserves_degree_distribution_shape():
    base = barabasi_albert(500, 2, seed=7)
    rewired = rewire_with_method(base, "plrg", seed=8)
    # The giant component may drop a few nodes but the tail must persist.
    assert rewired.max_degree() >= 0.5 * base.max_degree()
    assert abs(rewired.average_degree() - base.average_degree()) < 1.5


@pytest.mark.parametrize("method", ["plrg", "uniform", "proportional"])
def test_fig13_wiring_degree_deficit_report(method):
    """Appendix D.1's inputs: how much of the B-A degree sequence each
    wiring method realizes.  Prints the deficit (run with ``-s``) and
    asserts only what holds for every method: no node gets more edges
    than it was assigned.  Uniform wiring loses the hubs (top degrees
    41/35/33 against 111/97/63), the suspected cause of the Figure 13
    "Uniform" rows reading high distortion."""
    base = barabasi_albert(1600, 2, seed=3)
    assigned = [base.degree(node) for node in base.nodes()]
    rewired = rewire_with_method(base, method, seed=4)
    # Rewired nodes are labelled by position in the base graph's order.
    realized = [
        rewired.degree(i) if i in rewired else 0 for i in range(len(assigned))
    ]
    hubs = sorted(range(len(assigned)), key=lambda i: -assigned[i])[:10]
    top_assigned = [assigned[i] for i in hubs]
    top_realized = sorted(realized, reverse=True)[:10]
    print(
        f"\n{method}: edges {rewired.number_of_edges()} of "
        f"{sum(assigned) // 2} assigned, nodes {rewired.number_of_nodes()} "
        f"of {len(assigned)}, degree deficit {sum(assigned) - sum(realized)} "
        f"(top-10 hubs {sum(top_assigned) - sum(realized[i] for i in hubs)})"
        f"\n  top degrees assigned {top_assigned}\n  top degrees realized "
        f"{top_realized}"
    )
    assert rewired.number_of_edges() <= sum(assigned) // 2
    assert all(r <= a for r, a in zip(realized, assigned))
    assert all(r <= a for r, a in zip(top_realized, top_assigned))


def test_rewire_unknown_method():
    g = barabasi_albert(50, 2, seed=9)
    with pytest.raises(ValueError):
        rewire_with_method(g, "magic")


def test_degree_ccdf_endpoints():
    g = Graph([(0, 1), (1, 2), (1, 3)])
    ccdf = degree_ccdf(g)
    ks = [k for k, _ in ccdf]
    ps = [p for _, p in ccdf]
    assert ks[0] == 1 and ps[0] == 1.0
    assert ks[-1] == 3 and ps[-1] == pytest.approx(0.25)


def test_degree_ccdf_empty():
    assert degree_ccdf(Graph()) == []


def test_fit_power_law_exponent_on_synthetic_sequence():
    degrees = power_law_degrees(4000, 2.4, seed=10)
    g = wire_plrg(degrees, seed=10)
    fitted = fit_power_law_exponent(g, k_min=2)
    assert 1.8 < fitted < 3.2


def test_fit_power_law_requires_enough_nodes():
    g = Graph([(0, 1)])
    with pytest.raises(Exception):
        fit_power_law_exponent(g, k_min=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 200), st.floats(1.8, 3.2), st.integers(0, 10**6))
def test_power_law_degrees_property(n, exponent, seed):
    degrees = power_law_degrees(n, exponent, seed=seed)
    assert len(degrees) == n
    assert sum(degrees) % 2 == 0
    assert all(1 <= d <= n for d in degrees)


@settings(max_examples=15, deadline=None)
@given(st.integers(20, 120), st.integers(0, 10**6))
def test_plrg_wiring_is_simple_graph(n, seed):
    degrees = power_law_degrees(n, 2.3, seed=seed)
    g = wire_plrg(degrees, seed=seed)
    # No self-loops or duplicates by construction of Graph.
    for u, v in g.iter_edges():
        assert u != v
    assert g.number_of_edges() <= sum(degrees) // 2


def test_wire_highest_first_random_but_ordered():
    from repro.generators.degree_sequence import wire_highest_first

    degrees = power_law_degrees(200, 2.3, seed=11)
    g1 = wire_highest_first(degrees, seed=1)
    g2 = wire_highest_first(degrees, seed=2)
    # Random: different seeds give different graphs.
    assert set(map(frozenset, g1.iter_edges())) != set(
        map(frozenset, g2.iter_edges())
    )
    # Degree budgets respected and mostly filled.
    for node in g1.nodes():
        assert g1.degree(node) <= degrees[node]
    assert g1.number_of_edges() >= 0.6 * (sum(degrees) // 2)


def test_wire_highest_first_behaves_like_plrg_not_deterministic():
    """Appendix D.1: randomness in the wiring preserves PLRG behaviour;
    the fully deterministic wiring collapses into a dense core."""
    from repro.generators.base import giant_component
    from repro.generators.degree_sequence import wire_highest_first
    from repro.metrics.clustering import clustering_coefficient

    degrees = power_law_degrees(600, 2.3, seed=12)
    ordered_random = giant_component(wire_highest_first(degrees, seed=12))
    plrg_wired = giant_component(wire_plrg(degrees, seed=12))
    det = giant_component(wire_deterministic(degrees))
    # Clustering: the deterministic core is near-clique; both random
    # wirings stay sparse.
    assert clustering_coefficient(det) > 0.5
    assert clustering_coefficient(ordered_random) < 0.35
    assert abs(
        clustering_coefficient(ordered_random) - clustering_coefficient(plrg_wired)
    ) < 0.3
