"""CSR kernels vs. the dict-of-sets oracle: BFS sweep and expansion.

The CSR refactor's claim is that the frontier-at-a-time numpy kernels
make the ball-growing hot path several times faster without changing a
single output bit.  This bench measures both halves of that claim on
PLRGs of three sizes:

* **BFS sweep** — single-source distances from a fixed sample of
  sources, ``repro.graph.kernels.bfs_levels`` vs. the dict BFS
  ``repro.graph.traversal.bfs_distances``;
* **Expansion series** — the engine's full ball-growing expansion
  computation, ``MetricEngine`` vs. the dict-of-sets
  ``repro.testing.OracleEngine``, serial, single process, identical
  bits.
* **Metric cores** — the four CSR-native metric kernels
  (``resilience_csr_batch``, ``distortion_csr_batch``,
  ``batch_vertex_cover_sizes``, ``batch_biconnected_counts``), each
  run on a one-ball ``FusedBatch``, vs. their dict twins on the same
  large ball (grown to about half the graph around the max-degree
  hub), bitwise-verified before timing.
* **Fused batch** — the ball-dominated inner loop: a ``FusedBatch``
  union sweep over many radius balls vs. the per-ball ``sub_csr``
  loop, for the segmented BFS/level-count kernels and for
  ``distortion_csr_batch`` (the loop runs it on one-ball batches),
  bitwise-verified before timing.
* **Transport** — the parallel engine end to end, shared-memory
  segment publish (``transport="shm"``) vs. pickled-array workers
  (``transport="copy"``), wall-clock (the pool is the workload).

The numbers land in ``BENCH_csr.json``.  The acceptance gates are at
the largest size: on the 10k-node PLRG the CSR expansion series must be
at least 5x faster than the dict path, the resilience and distortion
kernels at least 5x faster than their twins, the cover and
biconnectivity kernels must not lose to theirs, and the fused batch
distortion sweep must be at least 2x faster than the per-ball loop.
The transport comparison is a non-regression guard only: pool spin-up
noise dominates at these sizes, so shm merely must not lose badly.

Timing methodology matches ``test_perf_engine.py``: CPU seconds with
the GC paused, interleaved rounds with alternating order.

Run explicitly (excluded from quick runs by the markers):

    PYTHONPATH=src python -m pytest benchmarks/test_perf_csr.py -m perf
"""

import gc
import json
import random
import time

import numpy as np
import pytest

from repro.engine import MetricEngine, MetricRequest
from repro.generators.plrg import plrg
from repro.graph import kernels
from repro.graph.components import count_biconnected_components
from repro.graph.cover import vertex_cover_size
from repro.graph.kernels_flow import resilience_csr_batch
from repro.graph.kernels_trees import distortion_csr_batch
from repro.runtime import shm
from repro.graph.traversal import bfs_distances
from repro.metrics.distortion import distortion_of
from repro.metrics.resilience import resilience_of
from repro.testing import OracleEngine

pytestmark = [pytest.mark.slow, pytest.mark.perf]

SIZES = [2500, 5000, 10000]
EXPONENT = 2.246
GRAPH_SEED = 3
SEED = 1
EXPANSION_CENTERS = 24
BFS_SOURCES = 32
ROUNDS = 3

OUTPUT = "BENCH_csr.json"

#: Required CSR-over-dict speedup for the expansion series at the
#: largest size (the PR-5 acceptance gate).
MIN_EXPANSION_SPEEDUP_AT_10K = 5.0

#: Required kernel-over-twin speedup for the resilience and distortion
#: cores at the largest size (the PR-6 acceptance gate).  The cover and
#: biconnectivity kernels only need to not lose (> 1x).
MIN_METRIC_SPEEDUP_AT_10K = 5.0
METRIC_TRIALS = 3

#: Required fused-batch-over-per-ball speedup for the ball-dominated
#: distortion sweep at the largest size (the PR-9 acceptance gate).
#: The segmented BFS sweep only needs to not lose (> 1x).
MIN_FUSED_SPEEDUP_AT_10K = 2.0
FUSED_CENTERS = 48

#: The shm-vs-copy transport guard: pool spin-up dominates wall time at
#: these sizes, so the gate only rejects a gross regression.
MIN_TRANSPORT_RATIO = 0.5
TRANSPORT_WORKERS = 2


def _timed(fn):
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        result = fn()
        return time.process_time() - start, result
    finally:
        gc.enable()


def _interleaved(run_a, run_b, rounds=ROUNDS):
    """Summed CPU seconds of both runners over alternating rounds."""
    seconds_a = seconds_b = 0.0
    for round_idx in range(rounds):
        if round_idx % 2 == 0:
            ta, _ = _timed(run_a)
            tb, _ = _timed(run_b)
        else:
            tb, _ = _timed(run_b)
            ta, _ = _timed(run_a)
        seconds_a += ta
        seconds_b += tb
    return seconds_a, seconds_b


def _bench_bfs(graph, csr):
    nodes = graph.nodes()
    step = max(1, len(nodes) // BFS_SOURCES)
    sources = nodes[::step][:BFS_SOURCES]
    source_idx = [csr.index_of(s) for s in sources]

    def run_dict():
        return [bfs_distances(graph, s) for s in sources]

    def run_csr():
        return kernels.multi_source_distances(csr, source_idx)

    # Equivalence before timing: same distances, to the last node.
    dict_result = run_dict()
    csr_result = run_csr()
    for want, row in zip(dict_result, csr_result):
        got = {
            csr.node_at(i): int(d)
            for i, d in enumerate(row)
            if d != kernels.UNREACHED
        }
        assert got == want

    dict_seconds, csr_seconds = _interleaved(run_dict, run_csr)
    return {
        "sources": len(sources),
        "dict_seconds": round(dict_seconds, 4),
        "csr_seconds": round(csr_seconds, 4),
        "speedup": round(dict_seconds / csr_seconds, 3),
    }


def _bench_expansion(graph, csr):
    # Each side computes from its native representation: the CSR engine
    # from the once-frozen graph (freezing is per-graph, not per-call),
    # the dict engine from the mutable graph it operates on.
    request = [MetricRequest("expansion", num_centers=EXPANSION_CENTERS, seed=SEED)]

    def run_dict():
        return OracleEngine().compute(graph, request)

    def run_csr():
        return MetricEngine(workers=0, use_cache=False).compute(csr, request)

    # Bitwise equivalence (also warms both paths).
    assert run_csr() == run_dict()

    dict_seconds, csr_seconds = _interleaved(run_dict, run_csr)
    return {
        "centers": EXPANSION_CENTERS,
        "dict_seconds": round(dict_seconds, 4),
        "csr_seconds": round(csr_seconds, 4),
        "speedup": round(dict_seconds / csr_seconds, 3),
    }


def _hub_ball(graph, csr):
    """A large deterministic ball: grown around the max-degree hub until
    it covers about half the graph.  Returns the dict ball and its CSR
    twin in the same canonical (ascending-index) node order."""
    center = int(np.argmax(kernels.degree_vector(csr)))
    dist = kernels.bfs_levels(csr, center)
    # About half the graph: large enough that the metric inner loops
    # dominate and the kernel-vs-twin ratio is stable run to run.
    target = csr.number_of_nodes() // 2
    radius = 1
    while kernels.ball_members(dist, radius).size < target and radius < 64:
        radius += 1
    members = kernels.ball_members(dist, radius)
    sub_csr = kernels.induced_subgraph(csr, members)
    nodes = graph.nodes()
    ball = graph.subgraph([nodes[i] for i in members.tolist()])
    return ball, sub_csr


def _one_ball(sub):
    """``sub`` as a one-ball fused batch, the batch kernels' input."""
    return kernels.FusedBatch.from_csrs([sub])


#: metric name -> (dict twin runner, CSR kernel runner).  Each call
#: constructs a fresh seeded RNG so every timed round replays the exact
#: same draw sequence on both sides.
METRIC_CORES = {
    "resilience": (
        lambda ball: resilience_of(
            ball, rng=random.Random(SEED), trials=METRIC_TRIALS
        ),
        lambda sub: resilience_csr_batch(
            _one_ball(sub), rng=random.Random(SEED), trials=METRIC_TRIALS
        )[0],
    ),
    "distortion": (
        lambda ball: distortion_of(ball, rng=random.Random(SEED)),
        lambda sub: distortion_csr_batch(
            _one_ball(sub), rng=random.Random(SEED)
        )[0],
    ),
    "vertex_cover": (
        lambda ball: float(vertex_cover_size(ball)),
        lambda sub: float(kernels.batch_vertex_cover_sizes(_one_ball(sub))[0]),
    ),
    "biconnectivity": (
        lambda ball: float(count_biconnected_components(ball)),
        lambda sub: float(kernels.batch_biconnected_counts(_one_ball(sub))[0]),
    ),
}


def _bench_metric_cores(graph, csr):
    """Per-metric inner loops, kernel vs. twin, on the same hub ball."""
    ball, sub_csr = _hub_ball(graph, csr)
    results = {
        "ball_nodes": ball.number_of_nodes(),
        "ball_edges": ball.number_of_edges(),
    }
    for name, (run_twin, run_kernel) in METRIC_CORES.items():
        # Bitwise equivalence before timing (also warms both paths).
        assert run_kernel(sub_csr) == run_twin(ball), name
        dict_seconds, csr_seconds = _interleaved(
            lambda: run_twin(ball), lambda: run_kernel(sub_csr)
        )
        results[name] = {
            "dict_seconds": round(dict_seconds, 4),
            "csr_seconds": round(csr_seconds, 4),
            "speedup": round(dict_seconds / csr_seconds, 3),
        }
    return results


def _radius_balls(csr, centers=FUSED_CENTERS):
    """A ball-dominated workload: ``centers`` deterministic centers,
    radii alternating 1/2 — the small-to-medium balls that dominate
    the engine's schedules, where per-ball numpy dispatch overhead
    dominates and fusing pays."""
    rng = random.Random(SEED)
    n = csr.number_of_nodes()
    members_list = []
    for i in range(centers):
        dist = kernels.bfs_levels(csr, rng.randrange(n))
        members_list.append(kernels.ball_members(dist, 1 + i % 2))
    return kernels.BallBatch(csr, members_list)


def _bench_fused_batch(csr):
    batch = _radius_balls(csr)

    def sweep_per_ball():
        out = []
        for i in range(len(batch)):
            sub = batch.sub_csr(i)
            out.append(
                (
                    kernels.degree_vector(sub),
                    kernels.level_counts(kernels.bfs_levels(sub, 0)),
                )
            )
        return out

    def sweep_fused():
        fused = kernels.FusedBatch(batch)
        sources = np.array(
            [
                int(fused.node_offsets[b]) if fused.ball_size(b) else -1
                for b in range(len(fused))
            ],
            dtype=np.int64,
        )
        dist = kernels.fused_bfs_levels(fused, sources)
        counts = kernels.fused_level_counts(fused, dist)
        degs = kernels.fused_degrees(fused)
        return [
            (degs[fused.ball_slice(b)], counts[b]) for b in range(len(fused))
        ]

    def distortion_per_ball():
        r = random.Random(SEED)
        return [
            distortion_csr_batch(_one_ball(batch.sub_csr(i)), rng=r)[0]
            for i in range(len(batch))
        ]

    def distortion_fused():
        r = random.Random(SEED)
        return distortion_csr_batch(kernels.FusedBatch(batch), rng=r)

    # Bitwise equivalence before timing (also warms both paths).
    for (want_deg, want_cnt), (got_deg, got_cnt) in zip(
        sweep_per_ball(), sweep_fused()
    ):
        assert np.array_equal(want_deg, got_deg)
        assert np.array_equal(want_cnt, got_cnt)
    assert [repr(v) for v in distortion_per_ball()] == [
        repr(v) for v in distortion_fused()
    ]

    results = {
        "balls": len(batch),
        "ball_nodes": int(sum(batch.sub_csr(i).number_of_nodes()
                              for i in range(len(batch)))),
    }
    for name, run_loop, run_fused in (
        ("segmented_sweep", sweep_per_ball, sweep_fused),
        ("distortion", distortion_per_ball, distortion_fused),
    ):
        loop_seconds, fused_seconds = _interleaved(run_loop, run_fused)
        results[name] = {
            "per_ball_seconds": round(loop_seconds, 4),
            "fused_seconds": round(fused_seconds, 4),
            "speedup": round(loop_seconds / fused_seconds, 3),
        }
    return results


def _interleaved_wall(run_a, run_b, rounds=ROUNDS):
    """Wall-clock twin of :func:`_interleaved`, for multi-process runs
    where child CPU time is invisible to ``time.process_time``."""
    seconds_a = seconds_b = 0.0
    for round_idx in range(rounds):
        order = (run_a, run_b) if round_idx % 2 == 0 else (run_b, run_a)
        times = {}
        for fn in order:
            gc.collect()
            start = time.perf_counter()
            fn()
            times[fn] = time.perf_counter() - start
        seconds_a += times[run_a]
        seconds_b += times[run_b]
    return seconds_a, seconds_b


def _bench_transport(csr):
    request = [
        MetricRequest("expansion", num_centers=EXPANSION_CENTERS, seed=SEED),
        MetricRequest("resilience", num_centers=8, seed=SEED),
    ]

    def run(transport):
        engine = MetricEngine(
            workers=TRANSPORT_WORKERS, use_cache=False, transport=transport
        )
        return engine.compute(csr, request), engine.stats

    # Bitwise equivalence, and the shm run must actually publish and
    # must leave /dev/shm clean.
    shm_result, shm_stats = run("shm")
    copy_result, copy_stats = run("copy")
    assert shm_result == copy_result
    assert shm_stats["shm_published"] == 1
    assert copy_stats["shm_published"] == 0
    assert shm.active_segments() == []
    assert shm.stray_segments() == []

    copy_seconds, shm_seconds = _interleaved_wall(
        lambda: run("copy"), lambda: run("shm")
    )
    return {
        "workers": TRANSPORT_WORKERS,
        "copy_wall_seconds": round(copy_seconds, 4),
        "shm_wall_seconds": round(shm_seconds, 4),
        "speedup": round(copy_seconds / shm_seconds, 3),
    }


def test_perf_csr_kernels_beat_dict_bfs():
    record = {
        "graphs": f"plrg(n, exponent={EXPONENT}, seed={GRAPH_SEED})",
        "timing": f"summed CPU seconds over {ROUNDS} interleaved rounds",
        "min_expansion_speedup_at_largest": MIN_EXPANSION_SPEEDUP_AT_10K,
        "min_metric_speedup_at_largest": MIN_METRIC_SPEEDUP_AT_10K,
        "min_fused_speedup_at_largest": MIN_FUSED_SPEEDUP_AT_10K,
        "sizes": [],
    }
    for n in SIZES:
        graph = plrg(n, EXPONENT, seed=GRAPH_SEED)
        csr = graph.freeze()
        entry = {
            "n": n,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "bfs_sweep": _bench_bfs(graph, csr),
            "expansion_series": _bench_expansion(graph, csr),
            "metric_cores": _bench_metric_cores(graph, csr),
            "fused_batch": _bench_fused_batch(csr),
            "transport": _bench_transport(csr),
        }
        record["sizes"].append(entry)

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    # CSR must win everywhere, and by >= 5x on the 10k expansion series.
    for entry in record["sizes"]:
        assert entry["bfs_sweep"]["speedup"] > 1.0, entry
        assert entry["expansion_series"]["speedup"] > 1.0, entry
    largest = record["sizes"][-1]
    assert (
        largest["expansion_series"]["speedup"] >= MIN_EXPANSION_SPEEDUP_AT_10K
    ), largest
    # The non-BFS metric kernels: >= 5x on the flow/tree cores at 10k,
    # and the cover/biconn kernels must not lose to their twins.
    cores = largest["metric_cores"]
    for name in ("resilience", "distortion"):
        assert cores[name]["speedup"] >= MIN_METRIC_SPEEDUP_AT_10K, (name, cores)
    for name in ("vertex_cover", "biconnectivity"):
        assert cores[name]["speedup"] > 1.0, (name, cores)
    # The fused batch sweep: >= 2x on the ball-dominated distortion
    # workload at 10k, and the segmented BFS sweep must not lose.
    fused = largest["fused_batch"]
    assert fused["distortion"]["speedup"] >= MIN_FUSED_SPEEDUP_AT_10K, fused
    assert fused["segmented_sweep"]["speedup"] > 1.0, fused
    # Transport: shm must not grossly lose to pickled workers.
    for entry in record["sizes"]:
        assert entry["transport"]["speedup"] > MIN_TRANSPORT_RATIO, entry
