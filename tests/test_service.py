"""Tests for the ``repro serve`` daemon stack (repro.service).

Three layers, mirroring the package:

* protocol — schema validation catches every malformed request before
  it can occupy a queue slot;
* scheduler — coalescing/batching/backpressure semantics, driven
  deterministically through :meth:`CoalescingScheduler.run_once`;
* server — real unix-socket round trips, byte-identical to the local
  CLI, including the concurrent-duplicate and SIGTERM-drain behavior
  the service exists to provide.

Unix sockets go under ``tempfile.mkdtemp`` rather than pytest's
``tmp_path`` because ``AF_UNIX`` paths are limited to ~108 chars and
pytest nests deeply.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.engine.cache import SeriesCache
from repro.generators import plrg
from repro.graph.io import write_edgelist
from repro.service import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_UNSUPPORTED_VERSION,
    ProtocolError,
    ReproServer,
    ServiceClient,
    ServiceError,
    parse_request,
    validate_request,
)
from repro.service.scheduler import CoalescingScheduler, GraphStore


def _write_graph(path, n=150, seed=3):
    write_edgelist(plrg(n, 2.2, seed=seed), path)
    return str(path)


def _metric_request(graph, metric="expansion", centers=4, seed=1, **extra):
    params = {"num_centers": centers, "seed": seed}
    params.update(extra)
    return validate_request(
        {"v": 1, "op": "metric", "graph": graph, "metric": metric,
         "params": params}
    )


def _socket_path():
    return os.path.join(tempfile.mkdtemp(prefix="repro-svc-"), "s.sock")


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

def test_protocol_rejects_wrong_version():
    with pytest.raises(ProtocolError) as err:
        validate_request({"v": 99, "op": "status"})
    assert err.value.code == ERR_UNSUPPORTED_VERSION


def test_protocol_rejects_unknown_op_and_fields():
    with pytest.raises(ProtocolError):
        validate_request({"v": 1, "op": "frobnicate"})
    with pytest.raises(ProtocolError) as err:
        validate_request(
            {"v": 1, "op": "metric", "graph": "g", "metric": "expansion",
             "bogus": 1}
        )
    assert err.value.code == ERR_BAD_REQUEST
    assert "bogus" in str(err.value)


def test_protocol_requires_required_fields_and_types():
    with pytest.raises(ProtocolError) as err:
        validate_request({"v": 1, "op": "metric", "graph": "g"})
    assert "metric" in str(err.value)
    with pytest.raises(ProtocolError):
        validate_request(
            {"v": 1, "op": "metric", "graph": "g", "metric": 7}
        )
    # bool is not an acceptable int (json true/false must not slip
    # through Python's bool-is-int subtyping)
    with pytest.raises(ProtocolError):
        validate_request({"v": 1, "op": "signature", "graph": "g",
                          "centers": True})


def test_protocol_fills_defaults_and_parses_lines():
    request = parse_request(
        json.dumps({"v": 1, "op": "signature", "graph": "g", "id": "r7"})
    )
    assert request.id == "r7"
    assert request.payload == {
        "graph": "g", "centers": 12, "max_ball": 900, "seed": 1,
    }
    # Mutable defaults are copies, not aliases of the schema.
    first = validate_request(
        {"v": 1, "op": "metric", "graph": "g", "metric": "expansion"}
    )
    first.payload["params"]["n"] = 1
    second = validate_request(
        {"v": 1, "op": "metric", "graph": "g", "metric": "expansion"}
    )
    assert second.payload["params"] == {}


def test_protocol_rejects_bad_deadline():
    for deadline in (0, -1, "soon", True):
        with pytest.raises(ProtocolError):
            validate_request({"v": 1, "op": "status", "deadline": deadline})


# ----------------------------------------------------------------------
# Scheduler (deterministic, via run_once)
# ----------------------------------------------------------------------

def test_scheduler_coalesces_duplicates_one_compute(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=True, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    request = _metric_request(graph)
    primary, coalesced = sched.submit(sched.prepare(request))
    duplicate, was_coalesced = sched.submit(sched.prepare(request))
    assert not coalesced and was_coalesced
    assert duplicate is primary  # late arrival subscribes to the leader
    sched.run_once()
    assert primary.done.is_set()
    assert sched.counters["series_computed"] == 1
    assert sched.counters["coalesced"] == 1
    assert sched.counters["engine_passes"] == 1


def test_scheduler_sequential_duplicate_hits_cache(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=True, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    request = _metric_request(graph)
    first, _ = sched.submit(sched.prepare(request))
    sched.run_once()
    second, _ = sched.submit(sched.prepare(request))
    sched.run_once()
    assert first.result == second.result
    # The exactly-one-compute invariant, sequential flavor: the second
    # run is a cache hit, never a recompute.
    assert sched.counters["series_computed"] == 1
    assert sched.counters["series_cached"] == 1


def test_scheduler_hashes_a_cached_graph_once(tmp_path, monkeypatch):
    """Repeat requests about one loaded graph reuse the digest taken at
    load time: neither the scheduler's keys nor the engine's cache
    lookups rehash the edge list."""
    from repro.engine import cache as cache_mod

    real = cache_mod._content_digest
    calls = []

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(cache_mod, "_content_digest", counting)
    graph = _write_graph(tmp_path / "g.edges")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=True, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    requests = [
        _metric_request(graph, metric, seed=seed)
        for metric in ("expansion", "distortion")
        for seed in (1, 2)
    ] * 3
    for request in requests:
        job, _ = sched.submit(sched.prepare(request))
        sched.run_once()
        assert job.error is None
    assert sched.counters["series_computed"] == 4
    assert sched.counters["series_cached"] == len(requests) - 4
    assert sched.graphs.stats == {"hits": len(requests) - 1, "loads": 1, "shared": 0}
    assert len(calls) == 1


def test_scheduler_batches_compatible_metrics_into_one_pass(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    sched.submit(sched.prepare(_metric_request(graph, "expansion", seed=2)))
    sched.submit(sched.prepare(
        _metric_request(graph, "resilience", seed=2, max_ball_size=150)
    ))
    sched.run_once()
    assert sched.counters["engine_passes"] == 1
    assert sched.counters["batched_requests"] == 2


def test_scheduler_busy_backpressure(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sched = CoalescingScheduler(
        max_pending=0, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    with pytest.raises(ProtocolError) as err:
        sched.submit(sched.prepare(_metric_request(graph)))
    assert err.value.code == ERR_BUSY
    assert sched.counters["busy_rejected"] == 1


# ----------------------------------------------------------------------
# Server: socket round trips
# ----------------------------------------------------------------------

def test_server_metric_bitwise_identical_to_cli(tmp_path, capsys):
    graph = _write_graph(tmp_path / "g.edges")
    assert main(["metric", graph, "expansion", "--centers", "4"]) == 0
    local = capsys.readouterr().out
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        code = main(
            ["query", "--socket", sock, "metric", graph, "expansion",
             "--centers", "4"]
        )
    assert code == 0
    assert capsys.readouterr().out == local


def test_server_signature_bitwise_identical_to_cli(tmp_path, capsys):
    graph = _write_graph(tmp_path / "g.edges")
    args = ["--centers", "4", "--max-ball", "200"]
    assert main(["signature", graph] + args) == 0
    local = capsys.readouterr().out
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        assert main(["query", "--socket", sock, "signature", graph] + args) == 0
    assert capsys.readouterr().out == local


def test_server_concurrent_duplicates_compute_once(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sock = _socket_path()
    results = []
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        def ask():
            with ServiceClient(sock) as client:
                results.append(client.metric(
                    graph, "expansion",
                    params={"num_centers": 4, "seed": 1},
                ))
        threads = [threading.Thread(target=ask) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServiceClient(sock) as client:
            counters = client.status()["counters"]
    assert len(results) == 4
    assert all(series == results[0] for series in results)
    # Coalesced if concurrent, cache hits if the scheduler got to some
    # first — either way the BFS ran exactly once.
    assert counters["series_computed"] == 1


def test_server_busy_reply_and_status_always_answer(tmp_path):
    graph = _write_graph(tmp_path / "g.edges")
    sock = _socket_path()
    with ReproServer(
        socket_path=sock, max_pending=0, cache_dir=str(tmp_path / "svc-cache")
    ):
        with ServiceClient(sock) as client:
            with pytest.raises(ServiceError) as err:
                client.metric(graph, "expansion",
                              params={"num_centers": 3, "seed": 1})
            assert err.value.code == ERR_BUSY
            # Control ops bypass the full queue.
            assert client.status()["counters"]["busy_rejected"] == 1


def test_server_rejects_malformed_and_unknown_graph(tmp_path):
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        with ServiceClient(sock) as client:
            with pytest.raises(ServiceError) as err:
                client.request("metric", {"graph": "missing.edges",
                                          "metric": "expansion"})
            assert err.value.code == "not-found"
            with pytest.raises(ServiceError) as err:
                client.request("metric", {"graph": "g", "metric": "nope",
                                          "params": {}})
            assert err.value.code == "not-found"


def test_server_answers_an_edgeless_graph_as_malformed(tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("# no edges here\n")
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        with ServiceClient(sock) as client:
            with pytest.raises(ServiceError) as err:
                client.metric(str(empty), "expansion")
            assert err.value.code == "not-found"
            assert str(err.value) == f"{empty}: edge list has no edges"
            assert client.status()["counters"]["engine_passes"] == 0


def test_server_fresh_metric_provenance_carries_the_run_report(tmp_path):
    # The shape docs/SERVICE.md shows for a freshly computed answer.
    graph = _write_graph(tmp_path / "g.edges")
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        with ServiceClient(sock) as client:
            response = client.request(
                "metric",
                {"graph": graph, "metric": "expansion",
                 "params": {"num_centers": 3, "seed": 1}},
            )
    assert response["provenance"] == {
        "source": "computed",
        "report": {
            "source": "computed",
            "states": ["ok", "ok", "ok"],
            "errors": [],
            "complete": True,
        },
    }


#: Malformed parameters: each must be refused before admission, never
#: reach an engine pass, and never be coerced into a valid cache key.
MALFORMED_PARAMS = [
    ("metric", {"params": {"num_centers": -2}}),
    ("metric", {"params": {"num_centers": "3"}}),
    ("metric", {"params": {"max_ball_size": "x"}}),
    ("metric", {"params": {"seed": [1]}}),
    ("metric", {"params": {"num_centers": 2.5}}),
    ("metric", {"params": {"centers": "ab"}}),
    ("metric", {"params": {"num_centers": True}}),
    ("metric", {"params": {"no_such_param": 1}}),
    ("signature", {"centers": -1}),
    ("compare", {"max_ball": -1}),
]


@pytest.mark.parametrize("op,fields", MALFORMED_PARAMS, ids=repr)
def test_server_malformed_params_are_bad_requests(tmp_path, op, fields):
    graph = _write_graph(tmp_path / "g.edges")
    if op == "compare":
        payload = {"graphs": [graph], **fields}
    else:
        payload = {"graph": graph, "metric": "vertex_cover", **fields}
        if op == "signature":
            del payload["metric"]
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        with ServiceClient(sock) as client:
            with pytest.raises(ServiceError) as err:
                client.request(op, payload)
            status = client.status()
    assert err.value.code == ERR_BAD_REQUEST
    # Rejected before admission: no engine pass, not even a graph load.
    assert status["counters"]["engine_passes"] == 0
    assert status["graphs"]["loads"] == 0


# ----------------------------------------------------------------------
# sweep-shard: partitioned sweeps on the daemon
# ----------------------------------------------------------------------

@pytest.fixture
def tiny_service_grid():
    from repro.generators import erdos_renyi
    from repro.harness import SWEEP_GRIDS

    SWEEP_GRIDS["tinysvc"] = (
        erdos_renyi,
        [{"n": 14, "p": 0.3}, {"n": 16, "p": 0.3}, {"n": 18, "p": 0.28}],
    )
    try:
        yield "tinysvc"
    finally:
        del SWEEP_GRIDS["tinysvc"]


def _sweep_shard_request(journal, shards, shard_id, generator, **extra):
    payload = {"v": 1, "op": "sweep-shard", "journal": journal,
               "shards": shards, "shard_id": shard_id,
               "generators": [generator]}
    payload.update(extra)
    return validate_request(payload)


def test_scheduler_sweep_shard_runs_one_shard(tmp_path, tiny_service_grid):
    from repro.runtime import merge_segments

    journal = str(tmp_path / "sweep.jsonl")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    for shard_id in (0, 1):
        job, _ = sched.submit(sched.prepare(_sweep_shard_request(
            journal, 2, shard_id, tiny_service_grid
        )))
        sched.run_once()
        assert job.error is None
        assert job.result["shard"] == shard_id
        assert job.result["assigned_rows"] == len(job.result["rows"])
        assert os.path.exists(job.result["segment"])
        assert os.path.exists(job.result["report_path"])
        assert job.provenance == {"source": "computed"}
    assert merge_segments(journal).ok


def test_scheduler_sweep_shard_coalesces_same_shard(
    tmp_path, tiny_service_grid
):
    journal = str(tmp_path / "sweep.jsonl")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    request = _sweep_shard_request(journal, 2, 0, tiny_service_grid)
    primary, coalesced = sched.submit(sched.prepare(request))
    duplicate, was_coalesced = sched.submit(sched.prepare(request))
    assert not coalesced and was_coalesced
    assert duplicate is primary  # one run answers both clients
    sched.run_once()
    assert primary.error is None and primary.done.is_set()


def test_scheduler_sweep_shard_rejects_bad_arguments(
    tmp_path, tiny_service_grid
):
    sched = CoalescingScheduler(
        max_pending=8, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    journal = str(tmp_path / "sweep.jsonl")
    with pytest.raises(ProtocolError) as err:
        sched.prepare(_sweep_shard_request(journal, 2, 5, tiny_service_grid))
    assert err.value.code == "failed"
    with pytest.raises(ProtocolError) as err:
        sched.prepare(_sweep_shard_request(journal, 2, 0, "no-such-gen"))
    assert err.value.code == "not-found"


def test_scheduler_sweep_shard_held_lease_is_busy(
    tmp_path, tiny_service_grid
):
    from repro.runtime import ShardLease, shard_lease_path

    journal = str(tmp_path / "sweep.jsonl")
    sched = CoalescingScheduler(
        max_pending=8, use_cache=False, cache_dir=str(tmp_path / "cache"),
        graphs=GraphStore(),
    )
    lease = ShardLease(shard_lease_path(journal, 0)).acquire()
    try:
        job, _ = sched.submit(sched.prepare(_sweep_shard_request(
            journal, 2, 0, tiny_service_grid
        )))
        sched.run_once()
        # A live CLI worker on the shard is backpressure, not failure.
        assert job.error is not None and job.error[0] == ERR_BUSY
    finally:
        lease.release()


def test_server_sweep_shard_round_trip(tmp_path, tiny_service_grid):
    journal = str(tmp_path / "sweep.jsonl")
    sock = _socket_path()
    with ReproServer(socket_path=sock, cache_dir=str(tmp_path / "svc-cache")):
        with ServiceClient(sock) as client:
            results = [
                client.sweep_shard(
                    journal, 2, shard_id, generators=[tiny_service_grid]
                )
                for shard_id in (0, 1)
            ]
    assert [r["shard"] for r in results] == [0, 1]
    assert sum(len(r["rows"]) for r in results) == 3
    assert all(r["resumed_rows"] == 0 for r in results)
    from repro.runtime import merge_segments

    assert merge_segments(journal).ok


def test_server_shutdown_op_drains(tmp_path):
    sock = _socket_path()
    server = ReproServer(
        socket_path=sock, cache_dir=str(tmp_path / "svc-cache")
    ).start_in_background()
    with ServiceClient(sock) as client:
        assert client.shutdown() == {"draining": True}
    assert server.wait_closed(timeout=10)
    assert not os.path.exists(sock)


def test_serve_cli_sigterm_clean_drain(tmp_path):
    """`repro serve` in a real subprocess exits 0 on SIGTERM and removes
    its socket file."""
    sock = _socket_path()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock],
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 15
        while not os.path.exists(sock):
            assert process.poll() is None, process.stdout.read().decode()
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=15)
    finally:
        if process.poll() is None:
            process.kill()
    assert process.returncode == 0, out.decode()
    assert b"drained" in out
    assert not os.path.exists(sock)


# ----------------------------------------------------------------------
# Concurrent cache writers (fork stress)
# ----------------------------------------------------------------------

def _compute_worker(graph_path, cache_dir, queue):
    from repro.engine import MetricEngine
    from repro.graph.io import read_edgelist

    graph = read_edgelist(graph_path)
    engine = MetricEngine(use_cache=True, cache_dir=cache_dir)
    series = engine.compute_one(graph, "expansion", num_centers=4, seed=1)
    queue.put(series)


def test_concurrent_cache_writers_never_corrupt(tmp_path):
    """Two processes racing on the same cache entry must both answer
    correctly and leave exactly one committed, valid entry."""
    graph = _write_graph(tmp_path / "g.edges")
    cache_dir = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_compute_worker, args=(graph, cache_dir, queue))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    results = [queue.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    assert results[0] == results[1]
    cache = SeriesCache(cache_dir)
    report = cache.verify()
    assert report == {"ok": 1, "quarantined": 0}  # one entry, committed once
    # And the committed entry replays the exact same series.
    entries = list(cache._iter_entries())
    assert len(entries) == 1
    cached = cache.get(entries[0].stem)
    assert [tuple(point) for point in cached] == \
        [tuple(point) for point in results[0]]
