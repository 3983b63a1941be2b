"""Power-law degree sequences and the node-wiring variants of Appendix D.1.

The paper's central degree-based generator, PLRG, separates two concerns:

1. **The degree sequence** — degrees drawn from a power law
   ``P(degree = k) ∝ k^(-beta)``.
2. **The wiring method** — how stubs are matched into edges.

Appendix D.1 asks "does connectivity matter?" and answers *no*, provided
the wiring has "some notion of random connectivity": the PLRG clone
method, uniformly random matching, proportional matching and
unsatisfied-proportional matching all yield the same large-scale metrics,
while the *deterministic* high-to-high wiring produces "graphs that are
quite different from the PLRG".  Every one of those variants is
implemented here so the Figure 12/13 benches can reproduce that finding.

Every wiring takes an optional ``sink`` (see
:mod:`repro.generators.builder`): omitted, it returns the mutable
``Graph`` exactly as before; given, the same emission core streams into
the sink and the frozen result of ``sink.finalize()`` is returned.  Both
paths consume the RNG identically, so the edge set per seed is the same
either way.
"""

from __future__ import annotations

import array
import itertools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.generators.base import Seed, giant_component, make_rng, require
from repro.generators.builder import EdgeSink, GraphSink
from repro.graph.core import Graph

#: Edge rows emitted per ``add_chunk`` call on the streaming path.
_CHUNK_EDGES = 1 << 17


# ----------------------------------------------------------------------
# Degree sequence sampling
# ----------------------------------------------------------------------

def power_law_degrees(
    n: int,
    exponent: float,
    seed: Seed = None,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
) -> List[int]:
    """Sample ``n`` degrees with ``P(k) ∝ k^(-exponent)``.

    Parameters
    ----------
    n:
        Number of nodes.
    exponent:
        Power-law exponent beta; the paper's PLRG instances use
        2.246–2.550 (Appendix C).
    min_degree / max_degree:
        Support of the distribution; ``max_degree`` defaults to ``n - 1``.

    The sum of the sampled degrees is forced even (one stub is added to a
    random node if necessary) so a stub matching exists.
    """
    require(n >= 1, "n must be >= 1")
    require(exponent > 1.0, "exponent must be > 1 for a normalisable power law")
    require(min_degree >= 1, "min_degree must be >= 1")
    rng = make_rng(seed)
    k_max = max_degree if max_degree is not None else max(min_degree, n - 1)
    require(k_max >= min_degree, "max_degree must be >= min_degree")

    # Inverse-CDF sampling over the discrete support, drawn in the
    # historical random.Random order and mapped in one searchsorted
    # (the first index whose cumulative weight reaches the draw, exactly
    # what a per-draw bisect_left returns), so sequences are unchanged
    # per seed.  The support table stays a numpy array: at million-node
    # scale a Python float list would dwarf the streaming build.
    support = np.arange(min_degree, k_max + 1, dtype=np.float64)
    cumulative = np.cumsum(support ** (-exponent))
    random = rng.random
    draws = np.fromiter((random() for _ in range(n)), dtype=np.float64, count=n)
    idx = np.searchsorted(cumulative, draws * cumulative[-1], side="left")
    degrees = (idx + min_degree).tolist()
    if sum(degrees) % 2 == 1:
        degrees[rng.randrange(n)] += 1
    return degrees


def expected_average_degree(
    exponent: float, min_degree: int = 1, max_degree: int = 10**4
) -> float:
    """Mean of the truncated power law (handy for parameter planning)."""
    num = sum(k * k ** (-exponent) for k in range(min_degree, max_degree + 1))
    den = sum(k ** (-exponent) for k in range(min_degree, max_degree + 1))
    return num / den


def is_graphical(degrees: Sequence[int]) -> bool:
    """Erdős–Gallai test: can ``degrees`` be realised by a simple graph?

    Inet runs "a feasibility test on the generated degree distribution";
    this is the classical check.
    """
    if sum(degrees) % 2 == 1:
        return False
    seq = sorted(degrees, reverse=True)
    n = len(seq)
    prefix = list(itertools.accumulate(seq))
    for k in range(1, n + 1):
        left = prefix[k - 1]
        right = k * (k - 1) + sum(min(d, k) for d in seq[k:])
        if left > right:
            return False
    return True


# ----------------------------------------------------------------------
# Wiring methods (Appendix D.1) — emission cores
# ----------------------------------------------------------------------
#
# Each `_emit_*` core writes one wiring into an EdgeSink.  The public
# `wire_*` wrappers below keep their historical (degrees, seed) -> Graph
# signature when `sink` is omitted.

def _shuffled_stubs(degrees: Sequence[int], rng) -> np.ndarray:
    """The stub multiset as int32, shuffled with ``random.Random``.

    ``rng.shuffle`` runs its usual Fisher–Yates over a 4-byte
    ``array.array`` copy (plain int items, no numpy scalar per swap):
    the draws depend only on the length and the initial contents equal
    the historical Python stub list, so the permutation (and every
    downstream edge) is identical per seed to the old list-based code
    while costing 4 bytes per stub instead of a Python object.
    """
    stubs = array.array("i")
    stubs.frombytes(
        np.repeat(
            np.arange(len(degrees), dtype=np.int32),
            np.asarray(degrees, dtype=np.int64),
        ).data.cast("B")
    )
    rng.shuffle(stubs)
    return np.frombuffer(stubs, dtype=np.int32)


def _emit_plrg(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    stubs = _shuffled_stubs(degrees, rng)
    dest.add_nodes_from(range(len(degrees)))
    pairs = stubs[: 2 * (len(stubs) // 2)].reshape(-1, 2)
    for start in range(0, len(pairs), _CHUNK_EDGES):
        dest.add_chunk(pairs[start : start + _CHUNK_EDGES])


def _emit_uniform(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    remaining = list(degrees)
    unsatisfied = [node for node, d in enumerate(remaining) if d > 0]
    dest.add_nodes_from(range(len(degrees)))
    stale_limit = 50 * max(1, sum(degrees))
    attempts = 0
    while len(unsatisfied) > 1 and attempts < stale_limit:
        attempts += 1
        u, v = rng.sample(unsatisfied, 2)
        if dest.has_edge(u, v):
            continue
        dest.add_edge(u, v)
        for node in (u, v):
            remaining[node] -= 1
            if remaining[node] == 0:
                unsatisfied.remove(node)


def _emit_proportional(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    n = len(degrees)
    remaining = list(degrees)
    # Stub list sampling = degree-proportional choice.
    stubs = np.repeat(np.arange(n, dtype=np.int32), np.asarray(degrees, dtype=np.int64))
    dest.add_nodes_from(range(n))
    target_edges = sum(degrees) // 2
    attempts = 0
    limit = 50 * max(1, target_edges)
    while dest.number_of_edges() < target_edges and attempts < limit:
        attempts += 1
        u = int(stubs[rng.randrange(len(stubs))])
        v = int(stubs[rng.randrange(len(stubs))])
        if u == v or remaining[u] <= 0 or remaining[v] <= 0:
            continue
        if dest.has_edge(u, v):
            continue
        dest.add_edge(u, v)
        remaining[u] -= 1
        remaining[v] -= 1


def _emit_unsatisfied(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    stubs: List[int] = []
    for node, degree in enumerate(degrees):
        stubs.extend([node] * degree)
    dest.add_nodes_from(range(len(degrees)))
    attempts = 0
    limit = 50 * max(1, len(stubs))
    while len(stubs) > 1 and attempts < limit:
        attempts += 1
        i = rng.randrange(len(stubs))
        j = rng.randrange(len(stubs))
        if i == j:
            continue
        u, v = stubs[i], stubs[j]
        if u == v or dest.has_edge(u, v):
            # Swap-delete nothing: failed draw, try again.
            continue
        dest.add_edge(u, v)
        # Remove the two consumed stubs (larger index first).
        for k in sorted((i, j), reverse=True):
            stubs[k] = stubs[-1]
            stubs.pop()


def _emit_deterministic(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    del rng  # deterministic by construction
    n = len(degrees)
    order = sorted(range(n), key=lambda node: (-degrees[node], node))
    remaining = list(degrees)
    dest.add_nodes_from(range(n))
    for pos, u in enumerate(order):
        if remaining[u] <= 0:
            continue
        for v in order[pos + 1:]:
            if remaining[u] <= 0:
                break
            if remaining[v] <= 0 or dest.has_edge(u, v):
                continue
            dest.add_edge(u, v)
            remaining[u] -= 1
            remaining[v] -= 1


def _emit_highest_first(dest: EdgeSink, degrees: Sequence[int], rng) -> None:
    n = len(degrees)
    remaining = list(degrees)
    stubs = np.repeat(np.arange(n, dtype=np.int32), np.asarray(degrees, dtype=np.int64))
    dest.add_nodes_from(range(n))
    order = sorted(range(n), key=lambda node: (-degrees[node], node))
    limit = 50 * max(1, len(stubs))
    attempts = 0
    for u in order:
        while remaining[u] > 0 and attempts < limit:
            attempts += 1
            v = int(stubs[rng.randrange(len(stubs))])
            if v == u or remaining[v] <= 0 or dest.has_edge(u, v):
                continue
            dest.add_edge(u, v)
            remaining[u] -= 1
            remaining[v] -= 1
        if attempts >= limit:
            break


_EMITTERS: Dict[str, Callable] = {
    "plrg": _emit_plrg,
    "uniform": _emit_uniform,
    "proportional": _emit_proportional,
    "unsatisfied": _emit_unsatisfied,
    "highest_first": _emit_highest_first,
    "deterministic": _emit_deterministic,
}


def _wire(
    method: str, name: str, degrees: Sequence[int], seed: Seed, sink: Optional[EdgeSink]
):
    require(
        all(d >= 0 for d in degrees),
        "degrees must be non-negative",
    )
    rng = make_rng(seed)
    dest = sink if sink is not None else GraphSink()
    _EMITTERS[method](dest, degrees, rng)
    return dest.finalize(name=name, component="all")


def wire_plrg(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """The PLRG wiring: clone each node per its degree, match uniformly.

    "the PLRG generator makes v_i copies of each node i.  Links are then
    assigned by randomly picking two node copies and assigning a link
    between them, until no more copies remain" — self-loops and duplicate
    links are dropped afterwards.
    """
    return _wire("plrg", "PLRG-wired", degrees, seed, sink)


def wire_uniform(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """Uniformly random wiring, *not* proportional to unsatisfied degree.

    Repeatedly picks two distinct nodes uniformly among those with
    unsatisfied degree and links them (Palmer & Steffen style, "connects
    the nodes randomly, without cloning").  Appendix D.1: "Even for the
    uniformly random connectivity method ... the large-scale metrics are
    qualitatively similar to the PLRG."
    """
    return _wire("uniform", "uniform-wired", degrees, seed, sink)


def wire_proportional(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """Wiring proportional to *assigned* degree.

    Each endpoint of each new link is drawn with probability proportional
    to the node's assigned degree (with replacement of candidates), until
    every node's degree budget is exhausted or no progress is possible.
    """
    return _wire("proportional", "proportional-wired", degrees, seed, sink)


def wire_unsatisfied_proportional(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """Wiring proportional to *unsatisfied* degree (assigned minus used).

    One of the "other variants of these random connectivity techniques"
    Appendix D.1 lists: endpoints drawn in proportion to the degree still
    to be satisfied.  Implemented as a dynamic stub pool: links consume
    stubs, so the pool is exactly unsatisfied-degree-proportional.
    """
    return _wire("unsatisfied", "unsatisfied-wired", degrees, seed, sink)


def wire_deterministic(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """The deterministic high-to-high wiring of Appendix D.1.

    "Start with the highest degree node, add one link each from this node
    to each lower degree node in decreasing degree order (skipping nodes
    whose degree has already been satisfied), then repeat for the next
    highest degree node whose degree has not been satisfied."

    The paper: "not surprisingly, deterministic connectivity results in
    graphs that are quite different from the PLRG" — the Figure 13
    ablation bench verifies exactly that.  ``seed`` is accepted for
    interface uniformity but unused.
    """
    return _wire("deterministic", "deterministic-wired", degrees, seed, sink)


def wire_highest_first(
    degrees: Sequence[int], seed: Seed = None, sink: Optional[EdgeSink] = None
):
    """Ordered processing with random partners.

    Another Appendix D.1 variant: "start with the highest degree ...
    nodes and connect to other nodes either uniformly, or in proportion
    to the degree, or in proportion to the 'unsatisfied' degree".  This
    one processes nodes in decreasing degree order and draws each
    partner in proportion to assigned degree (rejecting satisfied
    candidates) — ordered like the deterministic wiring, random like the
    PLRG, and (per the paper) it behaves like the PLRG because the
    randomness is what matters.
    """
    return _wire("highest_first", "highest-first-wired", degrees, seed, sink)


WIRING_METHODS: Dict[str, Callable[..., Graph]] = {
    "plrg": wire_plrg,
    "uniform": wire_uniform,
    "proportional": wire_proportional,
    "unsatisfied": wire_unsatisfied_proportional,
    "highest_first": wire_highest_first,
    "deterministic": wire_deterministic,
}


def rewire_with_method(
    graph: Graph,
    method: str = "plrg",
    seed: Seed = None,
    sink: Optional[EdgeSink] = None,
):
    """Reconnect an existing graph's degree sequence with another wiring.

    This is the Appendix D.1 / Figure 13 experiment: "we created two new
    graphs by first assigning degrees to nodes in each graph using the
    degree distributions of the B-A and respectively Brite graphs ... we
    connect them together using the PLRG connectivity algorithm."
    Returns the giant component of the rewired graph.
    """
    require(
        method in _EMITTERS,
        f"unknown wiring method {method!r}; choose from {sorted(_EMITTERS)}",
    )
    degrees = [graph.degree(node) for node in graph.nodes()]
    rng = make_rng(seed)
    name = f"{graph.name}+{method}-rewired"
    if sink is None:
        dest = GraphSink()
        _EMITTERS[method](dest, degrees, rng)
        rewired = dest.graph
        rewired.name = name
        return giant_component(rewired)
    _EMITTERS[method](sink, degrees, rng)
    return sink.finalize(name=name, component="giant")


# Canonical implementations live in repro.metrics.degree (measuring a
# graph's degree distribution is a metric); re-exported here so the
# generator-side API keeps working and the two can never drift.
from repro.metrics.degree import (  # noqa: E402
    degree_ccdf,
    fit_power_law_exponent,
)
