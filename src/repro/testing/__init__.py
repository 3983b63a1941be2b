"""Correctness harness: oracles, strategies, invariants, and selfcheck.

The paper's conclusions rest on a handful of graph routines (min cuts,
vertex covers, balanced bipartitions, ball growing, spanning-tree
distortion) being computed correctly; this subsystem is the standing
gate that keeps them that way as the engine grows backends and caches:

* :mod:`repro.testing.oracles` — exhaustive, obviously-correct
  reference implementations valid on tiny graphs, plus
  :class:`~repro.testing.oracles.OracleEngine`, the dict-of-sets engine
  the production metric engine is checked bitwise against;
* :mod:`repro.testing.strategies` — Hypothesis graph generators for the
  property suites (requires the ``hypothesis`` dev dependency);
* :mod:`repro.testing.invariants` — metamorphic checks: paper-level
  series facts, relabelling invariance, engine path equivalence;
* :mod:`repro.testing.selfcheck` — the ``repro selfcheck`` command:
  seeded differential fuzzing across ten check families.

See ``docs/TESTING.md`` for the full picture, including the checklist
for adding a new metric safely.
"""

from repro.testing.invariants import (
    check_engine_equivalence,
    check_graph_invariants,
    check_relabeling_invariance,
    check_series_invariants,
)
from repro.testing.oracles import (
    ORACLE_EVALUATORS,
    ORACLE_MAX_NODES,
    OracleEngine,
    OracleSizeError,
    count_crossing_edges,
    edmonds_karp_min_cut,
    heuristic_balance_bound,
    oracle_balanced_bipartition_cut,
    oracle_ball_members,
    oracle_bfs_distances,
    oracle_bipartite_vertex_cover_weight,
    oracle_connected_components,
    oracle_exact_distortion,
    oracle_link_traversal_sets,
    oracle_link_value,
    oracle_min_st_cut,
    oracle_min_vertex_cover_size,
    oracle_power_law_degrees,
    oracle_shuffled_stubs,
    oracle_spanning_tree_distortion,
    oracle_tree_distance,
)
from repro.testing.selfcheck import (
    SelfCheckReport,
    random_connected_graph,
    random_graph,
    run_selfcheck,
)

__all__ = [
    "ORACLE_EVALUATORS",
    "ORACLE_MAX_NODES",
    "OracleEngine",
    "OracleSizeError",
    "count_crossing_edges",
    "edmonds_karp_min_cut",
    "heuristic_balance_bound",
    "oracle_balanced_bipartition_cut",
    "oracle_ball_members",
    "oracle_bfs_distances",
    "oracle_bipartite_vertex_cover_weight",
    "oracle_connected_components",
    "oracle_exact_distortion",
    "oracle_link_traversal_sets",
    "oracle_link_value",
    "oracle_min_st_cut",
    "oracle_min_vertex_cover_size",
    "oracle_power_law_degrees",
    "oracle_shuffled_stubs",
    "oracle_spanning_tree_distortion",
    "oracle_tree_distance",
    "check_engine_equivalence",
    "check_graph_invariants",
    "check_relabeling_invariance",
    "check_series_invariants",
    "SelfCheckReport",
    "random_connected_graph",
    "random_graph",
    "run_selfcheck",
]
