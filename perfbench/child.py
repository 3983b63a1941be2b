"""One benchmark run inside a fresh interpreter (started by run.py).

Usage: ``python3 child.py --workload NAME --seed N --seconds S --trace 0|1
[--scale full|tiny]`` with ``src`` and this directory on ``PYTHONPATH``
and a fresh work directory as the current directory.

Untraced, it sets up several times (``setup_s`` is the median), repeats
measured iterations until ``--seconds`` have passed (at least one) and
prints the end-to-end metrics.
Traced, it warms up at tiny scale, runs one untraced and one traced
iteration and prints the per-layer metrics, including the tracing
overhead.  The last line of
standard output is the JSON result; the line before it carries the
counts read from the program's own stats objects.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, PlrgPool, POOL_WORKERS, DaemonMix

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
    "ok_frac": "ratio",
}

# per-layer metric -> (unit, key in tracer.layer_metrics or None when
# the workload supplies it).
PER_LAYER = {
    "generators.build_s": ("s", "generators.build.total_s"),
    "graph.freeze_s": ("s", "graph.freeze.total_s"),
    "graph.bfs_s": ("s", "graph.bfs.total_s"),
    "graph.bfs_calls": ("count", "graph.bfs.calls"),
    "graph.fuse_s": ("s", "graph.fuse.total_s"),
    "graph.balls": ("count", "graph.fuse.count"),
    "graph.resilience_s": ("s", "graph.resilience.total_s"),
    "graph.distortion_s": ("s", "graph.distortion.total_s"),
    "graph.cover_biconn_s": ("s", "graph.cover_biconn.total_s"),
    "graph.dict_eval_s": ("s", "graph.dict_eval.total_s"),
    "graph.flow_cover_s": ("s", "graph.flow_cover.total_s"),
    "graph.flow_cover_calls": ("count", "graph.flow_cover.calls"),
    "routing.dag_s": ("s", "routing.dag.total_s"),
    "routing.dag_calls": ("count", "routing.dag.calls"),
    "routing.fractions_s": ("s", "routing.fractions.total_s"),
    "routing.fraction_calls": ("count", "routing.fractions.calls"),
    "hierarchy.traversal_self_s": ("s", "hierarchy.traversal.self_s"),
    "hierarchy.entries": ("count", "hierarchy.traversal.count"),
    "hierarchy.value_self_s": ("s", "hierarchy.value.self_s"),
    "engine.compute_s": ("s", "engine.compute.total_s"),
    "engine.centers": ("count", "engine.compute.centers_computed"),
    "engine.fingerprint_s": ("s", "engine.fingerprint.total_s"),
    "engine.cache_get_s": ("s", "engine.cache_get.total_s"),
    "engine.cache_hits": ("count", "engine.compute.cache_hits"),
    "engine.cache_put_s": ("s", "engine.cache_put.total_s"),
    "engine.cache_misses": ("count", "engine.compute.cache_misses"),
    "engine.pool_efficiency": ("ratio", None),
    "runtime.shm_publish_s": ("s", "runtime.shm_publish.total_s"),
    "runtime.shm_segments": ("count", "runtime.shm_publish.count"),
    "service.prepare_s": ("s", "service.prepare.total_s"),
    "service.engine_pass_s": ("s", "engine.compute.scheduler_s"),
    "service.overhead_ms": ("ms", None),
    "service.coalesced": ("count", None),
    "service.engine_passes": ("count", None),
    "service.series_computed": ("count", None),
    "service.series_cached": ("count", None),
    "service.graph_loads": ("count", None),
    **{f"layer.{layer}_self_s": ("s", f"{layer}.layer_self_s") for layer in LAYERS},
    "trace.untraced_wall_s": ("s", None),
    "trace.traced_wall_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and the largest child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed: int, seconds: float):
    """The untraced run: set-ups, then iterations for ``seconds``."""
    setup_times = []

    def set_up():
        started = time.perf_counter()
        inputs = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        return inputs

    # Half the set-ups run before the measured loop and half after it,
    # so they sample the machine at moments ``seconds`` apart.
    before = (workload.setups + 1) // 2
    inputs = None
    for _ in range(before):
        inputs = None  # drop the previous inputs before building anew
        inputs = set_up()
    workload.prepare(inputs)
    iterations = []
    started = time.perf_counter()
    while not iterations or time.perf_counter() - started < seconds:
        cpu_before = cpu_seconds()
        iteration = workload.run(inputs)
        iteration.cpu = cpu_seconds() - cpu_before
        iterations.append(iteration)
    inputs = None
    for _ in range(workload.setups - before):
        set_up()
    # Request i is the same table, pass or scripted request in every
    # iteration: its latency is its median over the iterations.
    latencies = [
        statistics.median(same_request)
        for same_request in zip(*(it.latencies for it in iterations))
    ]
    attempted = sum(len(it.verdicts) for it in iterations)
    failed = sum(not verdict for it in iterations for verdict in it.verdicts)
    setup_s = statistics.median(setup_times) + statistics.median(
        it.extra_setup for it in iterations
    )
    metrics = {
        "wall_s": statistics.median(it.wall for it in iterations),
        "setup_s": setup_s,
        "cpu_s": statistics.median(it.cpu for it in iterations),
        "peak_rss_mb": peak_rss_mb(),
        "req_p50_ms": percentile(latencies, 50) * 1e3,
        "req_p90_ms": percentile(latencies, 90) * 1e3,
        "req_per_s": statistics.median(len(it.verdicts) / it.wall for it in iterations),
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"iterations": len(iterations), "setups": len(setup_times),
            "counts": iterations[-1].counts}
    return attempted, failed, metrics, info


def measure_traced(workload, seed: int, dump_dir: str):
    """A warm-up, an untraced and a traced iteration; per-layer metrics.

    The warm-up runs the same code once at tiny scale, so one-time costs
    of a fresh interpreter do not land in the untraced iteration and
    show as negative tracing overhead.
    """
    warm_up = type(workload)("tiny", os.path.join(workload.workdir, "warm-up"))
    os.makedirs(warm_up.workdir)
    warm_inputs = warm_up.setup(seed)
    warm_up.prepare(warm_inputs)
    warm_up.run(warm_inputs)
    warm_inputs = None
    inputs = workload.setup(seed)
    workload.prepare(inputs)
    untraced = workload.run(inputs)
    inputs = None
    tracer = Tracer(dump_dir).install()
    try:
        inputs = workload.setup(seed)
        traced = workload.run(inputs)
        tracer.collect()
        values = layer_metrics(tracer.spans)
        extra = {}
        if isinstance(workload, PlrgPool):
            # Pool efficiency: the same pass run serially, traced.
            pooled_s = values.get("engine.compute.total_s", 0.0)
            tracer.reset()
            _wall, serial_series, _engine = workload.compute(inputs, workers=0)
            serial_s = layer_metrics(tracer.spans).get("engine.compute.total_s", 0.0)
            extra["engine.pool_efficiency"] = serial_s / (POOL_WORKERS * pooled_s)
            if serial_series != workload.first_series:
                traced.verdicts = [False] * len(traced.verdicts)
    finally:
        tracer.uninstall()
    if isinstance(workload, DaemonMix):
        latency_s = sum(traced.latencies)
        overhead = (latency_s - values.get("service.prepare.total_s", 0.0)
                    - values.get("engine.compute.scheduler_s", 0.0))
        extra["service.overhead_ms"] = overhead / len(traced.latencies) * 1e3
    extra.update(traced.counts)
    extra["trace.untraced_wall_s"] = untraced.wall
    extra["trace.traced_wall_s"] = traced.wall
    extra["trace.overhead_s"] = traced.wall - untraced.wall
    metrics = {
        name: extra.get(name, values.get(key, 0) if key else 0)
        for name, (_unit, key) in PER_LAYER.items()
    }
    verdicts = untraced.verdicts + traced.verdicts
    failed = sum(not verdict for verdict in verdicts)
    info = {"counts": traced.counts, "untraced_counts": untraced.counts}
    return len(verdicts), failed, metrics, info


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker the first shared-memory
    publication started, so it cannot outlive this run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    workdir = os.getcwd()
    workload = WORKLOADS[args.workload](args.scale, workdir)
    try:
        if args.trace:
            dump_dir = os.path.join(workdir, "spans")
            os.makedirs(dump_dir, exist_ok=True)
            attempted, failed, metrics, info = measure_traced(
                workload, args.seed, dump_dir
            )
            units = {name: unit for name, (unit, _key) in PER_LAYER.items()}
        else:
            attempted, failed, metrics, info = measure(
                workload, args.seed, args.seconds
            )
            units = END_TO_END_UNITS
    finally:
        stop_resource_tracker()
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
