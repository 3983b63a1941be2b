"""Tests for the ``repro selfcheck`` harness itself.

The most important ones are the *mutation* tests: seeding a deliberate
off-by-one into a production routine must flip the harness to a failing
verdict.  A selfcheck that cannot catch a planted bug is worthless.
"""

import random

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.testing import (
    OracleSizeError,
    oracle_balanced_bipartition_cut,
    oracle_bfs_distances,
    oracle_exact_distortion,
    oracle_min_st_cut,
    oracle_min_vertex_cover_size,
    run_selfcheck,
)
from repro.testing import selfcheck as selfcheck_mod
from repro.generators import kary_tree, mesh


# ----------------------------------------------------------------------
# Oracle sanity on known-value inputs
# ----------------------------------------------------------------------

def triangle():
    from repro.graph.core import Graph

    g = Graph()
    g.add_edges_from([(0, 1), (1, 2), (0, 2)])
    return g


def test_oracle_known_values():
    tri = triangle()
    # Min vertex cover of a triangle is any 2 nodes.
    assert oracle_min_vertex_cover_size(tri) == 2
    # Dropping any triangle edge stretches it to a 2-path: mean 4/3.
    assert oracle_exact_distortion(tri) == pytest.approx(4 / 3)
    # Both balanced splits of a triangle cut 2 edges.
    assert oracle_balanced_bipartition_cut(tri) == 2
    # Star K_{1,4}: cover is the hub, balanced cut moves >= 2 leaves.
    star = kary_tree(4, 1)
    assert oracle_min_vertex_cover_size(star) == 1
    assert oracle_balanced_bipartition_cut(star) == 2
    assert oracle_bfs_distances(star, star.nodes()[0])[star.nodes()[-1]] == 1


def test_oracle_min_st_cut_parallel_arcs():
    # Two parallel unit arcs 0->1 sum to capacity 2.
    assert oracle_min_st_cut(2, [(0, 1, 1.0), (0, 1, 1.0)], 0, 1) == 2.0
    # No path at all: cut 0.
    assert oracle_min_st_cut(3, [(1, 2, 5.0)], 0, 2) == 0.0


def test_oracles_refuse_oversized_inputs():
    big = mesh(40)
    with pytest.raises(OracleSizeError):
        oracle_min_vertex_cover_size(big)
    with pytest.raises(OracleSizeError):
        oracle_balanced_bipartition_cut(big)


# ----------------------------------------------------------------------
# Harness behaviour
# ----------------------------------------------------------------------

def test_run_selfcheck_passes_and_reports_all_families():
    lines = []
    report = run_selfcheck(rounds=4, seed=1, out=lines.append)
    assert report.ok
    assert report.total_failures == 0
    names = [fam.family for fam in report.families]
    assert names == [
        "oracle-diff",
        "networkx-diff",
        "invariants",
        "engine-equivalence",
        "determinism",
        "faults",
        "streaming",
        "kernels",
        "service",
        "shards",
    ]
    assert all(fam.checks > 0 or fam.skipped for fam in report.families)
    assert any("— OK" in line for line in lines)


def test_run_selfcheck_is_reproducible():
    first = run_selfcheck(rounds=3, seed=7, families=["oracle-diff"], out=lambda _: None)
    second = run_selfcheck(rounds=3, seed=7, families=["oracle-diff"], out=lambda _: None)
    assert first.total_checks == second.total_checks
    assert first.families[0].optimal_rounds == second.families[0].optimal_rounds


def test_family_selection_and_unknown_family():
    report = run_selfcheck(rounds=2, seed=0, families=["determinism"], out=lambda _: None)
    assert [fam.family for fam in report.families] == ["determinism"]
    with pytest.raises(ValueError):
        run_selfcheck(rounds=1, families=["no-such-family"], out=lambda _: None)


def test_cli_selfcheck_exit_codes():
    assert cli_main(["selfcheck", "--rounds", "2", "--seed", "1"]) == 0
    assert (
        cli_main(
            ["selfcheck", "--rounds", "2", "--family", "determinism", "--family", "invariants"]
        )
        == 0
    )


# ----------------------------------------------------------------------
# Mutation tests: planted bugs must be caught
# ----------------------------------------------------------------------

def test_selfcheck_catches_partition_cut_off_by_one(monkeypatch):
    from repro.graph import partition as partition_mod

    real = partition_mod._cut_size

    def off_by_one(*args, **kwargs):
        return real(*args, **kwargs) + 1

    monkeypatch.setattr(partition_mod, "_cut_size", off_by_one)
    report = run_selfcheck(
        rounds=10, seed=0, families=["oracle-diff"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "cut" in messages


def test_selfcheck_catches_inflated_resilience(monkeypatch):
    real = selfcheck_mod.resilience_mod.resilience_of

    def inflated(graph, **kwargs):
        return real(graph, **kwargs) + 1.0

    monkeypatch.setattr(selfcheck_mod.resilience_mod, "resilience_of", inflated)
    report = run_selfcheck(
        rounds=5, seed=0, families=["oracle-diff"], out=lambda _: None
    )
    assert not report.ok


def test_selfcheck_catches_nondeterministic_metric(monkeypatch):
    real = selfcheck_mod.resilience_mod.resilience_of
    jitter = random.Random(99)

    def noisy(graph, **kwargs):
        return real(graph, **kwargs) + jitter.random() * 1e-6

    monkeypatch.setattr(selfcheck_mod.resilience_mod, "resilience_of", noisy)
    report = run_selfcheck(
        rounds=4, seed=0, families=["determinism"], out=lambda _: None
    )
    assert not report.ok


def test_selfcheck_catches_csr_bfs_off_by_one(monkeypatch):
    from repro.graph import kernels

    real = kernels.bfs_levels

    def off_by_one(csr, source, max_depth=None, **kwargs):
        dist = real(csr, source, max_depth=max_depth, **kwargs).copy()
        dist[dist > 0] += 1  # every non-source level shifted one out
        return dist

    monkeypatch.setattr(kernels, "bfs_levels", off_by_one)
    report = run_selfcheck(rounds=5, seed=0, families=["kernels"], out=lambda _: None)
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "bfs_levels" in messages


@pytest.mark.parametrize(
    "levels,message", [(1, "max_reach"), (2, "engine reach-bounded series")]
)
def test_selfcheck_catches_reach_bounded_bfs_stopping_early(
    monkeypatch, levels, message
):
    """A reach-bounded BFS that stops early (it leaves its deepest
    ``levels`` levels unreached) goes red.  One level early is invisible
    in the engine's series, since the level past the bound only ends
    each schedule, so the kernel leg checks the levels themselves; two
    levels early also lose balls, and the engine leg shows it."""
    from repro.graph import kernels

    real = kernels.bfs_levels

    def stops_early(csr, source, max_depth=None, *, max_reach=None):
        dist = real(csr, source, max_depth, max_reach=max_reach).copy()
        if max_reach is not None and np.count_nonzero(dist >= 0) > max_reach:
            dist[dist > max(int(dist.max()) - levels, 0)] = kernels.UNREACHED
        return dist

    monkeypatch.setattr(kernels, "bfs_levels", stops_early)
    report = run_selfcheck(rounds=5, seed=0, families=["kernels"], out=lambda _: None)
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert message in messages


def test_selfcheck_catches_csr_ball_off_by_one(monkeypatch):
    from repro.graph import kernels

    real = kernels.ball_members

    def shrunk(dist, radius):
        return real(dist, radius - 1 if radius > 0 else radius)

    monkeypatch.setattr(kernels, "ball_members", shrunk)
    report = run_selfcheck(rounds=5, seed=0, families=["kernels"], out=lambda _: None)
    assert not report.ok


def test_selfcheck_catches_kernel_cut_off_by_one(monkeypatch):
    """Flow sub-stream: a planted +1 in the CSR cut counter desyncs
    ``bisection_cut_csr`` from the dict partitioner."""
    from repro.graph import kernels_flow

    real = kernels_flow._cut_csr

    def off_by_one(level, side):
        return real(level, side) + 1

    monkeypatch.setattr(kernels_flow, "_cut_csr", off_by_one)
    report = run_selfcheck(
        rounds=5, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "bisection" in messages or "resilience" in messages


def test_selfcheck_catches_kernel_bigint_fallback_off_by_one(monkeypatch):
    """Flow sub-stream: a planted +1 in the big-integer flow kernel
    (Dinic on exact integers) is caught by the capacity-scaling leg."""
    from repro.graph import kernels_flow

    real = kernels_flow.max_flow_min_cut

    def off_by_one(num_nodes, arcs, source, sink):
        flow, reachable = real(num_nodes, arcs, source, sink)
        return flow + 1, reachable

    monkeypatch.setattr(kernels_flow, "max_flow_min_cut", off_by_one)
    report = run_selfcheck(
        rounds=5, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "capacity-scaled" in messages


def test_selfcheck_catches_link_weight_off_by_one(monkeypatch):
    """Links sub-stream: a planted +1 on the array traversal-set
    weights desyncs them, and the link values, from the DAG walk."""
    from repro.hierarchy import traversal_sets

    real = traversal_sets._source_entries

    def off_by_one(*args, **kwargs):
        found = real(*args, **kwargs)
        if found is None:
            return None
        pair, arcs, weight = found
        return pair, arcs, weight + 1

    monkeypatch.setattr(traversal_sets, "_source_entries", off_by_one)
    report = run_selfcheck(
        rounds=5, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "link_traversal_sets entries" in messages
    assert "link value" in messages


def test_selfcheck_catches_kernel_tree_distance_off_by_one(monkeypatch):
    """Tree sub-stream: a planted +1 in the fused tree-distance
    accumulator desyncs ``distortion_csr_batch`` from ``distortion_of``."""
    from repro.graph import kernels_trees

    real = kernels_trees._fused_tree_totals

    def off_by_one(*args, **kwargs):
        return real(*args, **kwargs) + 1

    monkeypatch.setattr(kernels_trees, "_fused_tree_totals", off_by_one)
    report = run_selfcheck(
        rounds=5, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "distortion" in messages


def test_selfcheck_catches_kernel_biconn_off_by_one(monkeypatch):
    """Biconn sub-stream: the fused array-stack Tarjan count drifting by
    one block must flip the family red."""
    from repro.graph import kernels

    real = kernels.batch_biconnected_counts

    def off_by_one(fused):
        return [count + 1 for count in real(fused)]

    monkeypatch.setattr(kernels, "batch_biconnected_counts", off_by_one)
    report = run_selfcheck(
        rounds=5, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "biconnected" in messages


def test_selfcheck_catches_kernel_cover_off_by_one(monkeypatch):
    """Cover sub-stream: an off-by-one in the vectorized greedy cover
    (the usual winner of the min) desyncs the cover kernel from the
    dict heuristic."""
    from repro.graph import kernels

    real = kernels._greedy_cover_arrays

    def off_by_one(indptr, indices):
        return real(indptr, indices) + 1

    monkeypatch.setattr(kernels, "_greedy_cover_arrays", off_by_one)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "cover" in messages


def test_selfcheck_catches_fused_bfs_off_by_one(monkeypatch):
    """Fused sub-stream: a planted +1 on every non-root fused BFS level
    desyncs the fused sweep from the per-ball ``bfs_levels`` loop."""
    from repro.graph import kernels

    real = kernels.fused_bfs_levels

    def off_by_one(fused, sources):
        dist = real(fused, sources).copy()
        dist[dist > 0] += 1
        return dist

    monkeypatch.setattr(kernels, "fused_bfs_levels", off_by_one)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "fused_bfs_levels" in messages


def test_selfcheck_catches_fused_tree_total_off_by_one(monkeypatch):
    """Fused sub-stream: a planted +1 in the fused LCA tree-distance totals
    desyncs ``distortion_csr_batch`` from the scalar twin."""
    from repro.graph import kernels_trees

    real = kernels_trees._fused_tree_totals

    def off_by_one(fused, parent, depth):
        return real(fused, parent, depth) + 1

    monkeypatch.setattr(kernels_trees, "_fused_tree_totals", off_by_one)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "distortion_csr_batch" in messages


def test_selfcheck_catches_batch_matching_off_by_one(monkeypatch):
    """Fused sub-stream: the fused handshake matching drifting by one node
    must flip both the matching and vertex-cover batch checks red."""
    from repro.graph import kernels

    real = kernels.batch_matching_cover_sizes

    def off_by_one(fused):
        return real(fused) + 1

    monkeypatch.setattr(kernels, "batch_matching_cover_sizes", off_by_one)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "matching" in messages


def test_selfcheck_catches_batch_resilience_drift(monkeypatch):
    """Fused sub-stream: a batched resilience value drifting off the scalar
    twin's floats must flip the family red."""
    from repro.graph import kernels_flow

    real = kernels_flow.resilience_csr_batch

    def drifted(fused, rng=None, trials=3):
        return [value + 1.0 for value in real(fused, rng=rng, trials=trials)]

    monkeypatch.setattr(kernels_flow, "resilience_csr_batch", drifted)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "resilience_csr_batch" in messages


def test_selfcheck_catches_policy_arc_radius_off_by_one(monkeypatch):
    """Kernels family, policy leg: a backward sweep that gives every arc
    a radius one too large (a ball keeps its arcs one radius late) must
    flip the engine-vs-oracle policy-ball check red."""
    from repro.routing import policy

    real = policy.PolicyProduct.ball_radii

    def late(self, source):
        dist, arc_radius = real(self, source)
        return dist, arc_radius + (arc_radius < policy.NO_BALL)

    monkeypatch.setattr(policy.PolicyProduct, "ball_radii", late)
    report = run_selfcheck(
        rounds=8, seed=0, families=["kernels"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "policy-ball" in messages


def test_selfcheck_catches_builder_chunk_off_by_one(monkeypatch):
    """A planted chunk off-by-one (first edge of every chunk dropped)
    must flip the ``streaming`` family red."""
    from repro.generators import builder as builder_mod

    real = builder_mod.GraphBuilder.add_chunk

    def drops_first(self, chunk):
        import numpy as np

        arr = np.asarray(chunk)
        return real(self, arr[1:] if len(arr) > 1 else arr)

    monkeypatch.setattr(builder_mod.GraphBuilder, "add_chunk", drops_first)
    report = run_selfcheck(
        rounds=8, seed=0, families=["streaming"], out=lambda _: None
    )
    assert not report.ok


def test_selfcheck_catches_builder_keeping_the_last_tied_giant(monkeypatch):
    """A ``GraphBuilder.finalize`` that keeps the *last* of two tied
    largest components must flip the ``streaming`` family red."""
    from repro.generators import builder as builder_mod

    class LastArgmax:
        """numpy, except that ``argmax`` picks the last maximum."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argmax(values):
            values = np.asarray(values)
            return values.size - 1 - int(np.argmax(values[::-1]))

    monkeypatch.setattr(builder_mod, "np", LastArgmax())
    report = run_selfcheck(
        rounds=10, seed=0, families=["streaming"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "tied giant" in messages


def _degrees_off_by_one(real):
    def shifted(*args, **kwargs):
        return [degree + 1 for degree in real(*args, **kwargs)]

    return shifted


def _stubs_rotated(real):
    def rotated(degrees, rng):
        return np.roll(real(degrees, rng), 1)

    return rotated


@pytest.mark.parametrize(
    "target,mutant,message",
    [
        ("power_law_degrees", _degrees_off_by_one, "power_law_degrees"),
        ("_shuffled_stubs", _stubs_rotated, "_shuffled_stubs"),
    ],
)
def test_selfcheck_catches_plrg_draw_mutations(monkeypatch, target, mutant, message):
    """A ``min_degree`` off-by-one in the degree draw, or a shuffled stub
    array rotated by one, must flip the ``streaming`` family red."""
    from repro.generators import degree_sequence

    monkeypatch.setattr(
        degree_sequence, target, mutant(getattr(degree_sequence, target))
    )
    report = run_selfcheck(
        rounds=4, seed=0, families=["streaming"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert message in messages


def test_selfcheck_catches_merge_off_by_one(monkeypatch):
    """A shard merge that drops the last record of every row chunk — the
    classic off-by-one — must flip the ``shards`` family red: the merged
    journal can no longer be byte-identical to the unsharded run."""
    from repro.runtime import shards as shards_mod

    real = shards_mod._dedupe

    def off_by_one(chunk):
        return real(chunk)[:-1]

    monkeypatch.setattr(shards_mod, "_dedupe", off_by_one)
    report = run_selfcheck(
        rounds=3, seed=0, families=["shards"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "merge" in messages or "byte" in messages


def test_selfcheck_catches_partitioner_off_by_one(monkeypatch):
    """A partitioner that shifts every row to the next shard breaks the
    documented ``index % num_shards`` contract and must be caught."""
    from repro.runtime import shards as shards_mod

    real = shards_mod.assign_shard

    def shifted(index, num_shards):
        return (real(index, num_shards) + 1) % num_shards

    monkeypatch.setattr(shards_mod, "assign_shard", shifted)
    report = run_selfcheck(
        rounds=3, seed=0, families=["shards"], out=lambda _: None
    )
    assert not report.ok


def test_selfcheck_catches_service_result_drift(monkeypatch):
    """A daemon whose responses drift from the engine by one ULP must
    flip the ``service`` family red — the bitwise gate has no epsilon."""
    from repro.service import scheduler as scheduler_mod

    real = scheduler_mod.CoalescingScheduler._exec_engine_pass

    def drifted(self, group):
        real(self, group)
        for job in group:
            series = (job.result or {}).get("series")
            if isinstance(series, list) and series:
                series[0][1] += 1e-9

    monkeypatch.setattr(
        scheduler_mod.CoalescingScheduler, "_exec_engine_pass", drifted
    )
    report = run_selfcheck(
        rounds=3, seed=0, families=["service"], out=lambda _: None
    )
    assert not report.ok
    messages = " ".join(f.message for f in report.families[0].failures)
    assert "expansion" in messages
