"""Link values — the hierarchy measure of Section 5.

"We therefore chose ... to measure the (weighted) vertex cover of the
traversal set.  ... Intuitively, the vertex cover counts the smallest set
of nodes affected by removal of the link.  A link for which this number
is high is more important ... than links for which the number is low."

Per footnote 27, the traversal set forms a bipartite graph (pair members
on the two sides of the link); each vertex u gets weight W(u, l) = the
average of w(u, v; l) over its pairs, and the link's value is the minimum
weighted vertex cover of that bipartite graph.

The paper used "well-known approximation algorithms [Motwani]"; since the
graph is bipartite, the weighted cover LP is integral and we solve it
*exactly* by min-cut (:mod:`repro.graph.flow`).  The local-ratio 2-approx
is retained as an ablation (``benchmarks/test_ablation_vc.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.generators.base import Seed
from repro.graph.core import Graph
from repro.graph.cover import local_ratio_vertex_cover
from repro.graph.flow import bipartite_vertex_cover_weight
from repro.hierarchy.traversal_sets import (
    Entry,
    LinkKey,
    TraversalSet,
    link_traversal_sets,
)
from repro.routing.policy import Relationships

Node = Hashable


def link_value_from_entries(
    entries: Sequence[Entry], exact: bool = True
) -> float:
    """The value of one link from its traversal-set entries.

    ``exact`` selects the min-cut solver; ``False`` uses the local-ratio
    2-approximation on the same bipartite instance.

    Each side's vertices are numbered in order of first appearance and
    each vertex weight is the mean of its entries' weights, summed in
    entry order (``np.bincount`` adds in input order, as a running
    ``sum += w`` does), so the cover instance is the same whatever the
    entries' container.
    """
    if not len(entries):
        return 0.0
    if not isinstance(entries, TraversalSet):
        entries = TraversalSet.from_entries(entries)
    left, left_nodes = _first_seen(entries.left)
    right, right_nodes = _first_seen(entries.right)
    left_weights = _mean_by_vertex(left, entries.weight)
    right_weights = _mean_by_vertex(right, entries.weight)
    if exact:
        return bipartite_vertex_cover_weight(
            dict(enumerate(left_weights)),
            dict(enumerate(right_weights)),
            zip(left.tolist(), right.tolist()),
        )
    left_nodes = [entries.nodes[i] for i in left_nodes]
    right_nodes = [entries.nodes[i] for i in right_nodes]
    # Non-exact path: one weight map over both sides (node labels on the
    # two sides are disjoint node sets of the graph, so merging is safe —
    # a node cannot be on both sides of the same link's shortest paths).
    weights = dict(zip(left_nodes, left_weights))
    for v, w in zip(right_nodes, right_weights):
        weights[v] = min(w, weights[v]) if v in weights else w
    pairs = [
        (left_nodes[u], right_nodes[v])
        for u, v in zip(left.tolist(), right.tolist())
    ]
    value, _cover = local_ratio_vertex_cover(weights, pairs)
    return value


def _first_seen(ids: np.ndarray) -> Tuple[np.ndarray, List]:
    """Renumber ``ids`` 0, 1, ... in order of first appearance.

    Returns the per-entry numbers and the distinct ids in that order.
    """
    distinct, first, inverse = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], distinct[order].tolist()


def _mean_by_vertex(vertex: np.ndarray, weight: np.ndarray) -> List[float]:
    """Each vertex's mean entry weight, summed in entry order."""
    return (np.bincount(vertex, weights=weight) / np.bincount(vertex)).tolist()


def link_values(
    graph: Graph,
    rels: Optional[Relationships] = None,
    sources: Optional[Sequence[Node]] = None,
    exact: bool = True,
    pair_weight=None,
    seed: Seed = None,
) -> Dict[LinkKey, float]:
    """Value of every link in ``graph``.

    With ``rels``, paths (and therefore traversal sets) are
    policy-constrained: "with policy routing since paths are more
    concentrated, the highest link values are larger than with shortest
    path routing."  ``pair_weight`` plugs in a traffic-demand model (see
    :func:`repro.hierarchy.traversal_sets.gravity_demand`).
    """
    sets = link_traversal_sets(
        graph, rels=rels, sources=sources, pair_weight=pair_weight, seed=seed
    )
    return {
        link: link_value_from_entries(entries, exact=exact)
        for link, entries in sets.items()
    }


def normalized_rank_distribution(
    values: Dict[LinkKey, float], num_nodes: int
) -> List[Tuple[float, float]]:
    """Figures 3/4: (normalised rank, normalised value), highest first.

    "the x-axis plots the rank of a link according to its value (a higher
    rank indicating a higher value), normalized by the number of links in
    the topology.  The y-axis depicts the link value normalized by the
    number of nodes in the network."
    """
    if not values:
        return []
    ordered = sorted(values.values(), reverse=True)
    num_links = len(ordered)
    return [
        ((rank + 1) / num_links, value / num_nodes)
        for rank, value in enumerate(ordered)
    ]
