"""Request coalescing and batched engine passes.

The daemon's workload is repeat-heavy: many clients asking the same
metric/signature/compare questions about the same graphs.  Three layers
keep the engine from recomputing anything:

1. **Coalescing** — every admissible request gets a *token* built from
   the engine's own :func:`~repro.engine.cache.cache_key` identity
   (graph fingerprint + metric + resolved params).  A request whose
   token matches one already in flight does not enter the queue at all:
   it subscribes to the first computation and receives the same result,
   marked ``"source": "coalesced"`` in its provenance.
2. **Batching** — queued ``metric`` requests for the same graph (and
   the same deadline policy) are folded into a *single*
   :class:`~repro.engine.MetricEngine` pass, so their ball growths are
   shared exactly as ``repro signature`` shares them; the engine's
   determinism contract makes batched results bitwise-identical to
   standalone ones.
3. **The shared cache** — a request arriving *after* its twin completed
   is served from the sharded on-disk series cache.

Between the three, duplicate requests trigger exactly one engine
computation no matter how they interleave — the property the
``service-smoke`` CI job asserts through the ``status`` counters.

The scheduler runs one worker thread (``start()``); tests instead call
:meth:`CoalescingScheduler.run_once` for deterministic, synchronous
draining of whatever is queued.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import SIGNATURE_HINTS, signature as metric_signature
from repro.analysis import signature_requests
from repro.engine import METRICS, MetricEngine, MetricRequest
from repro.engine.cache import SeriesCache, cache_key, graph_fingerprint
from repro.graph.csr import CSRGraph, csr_from_graph
from repro.graph.io import read_edgelist
from repro.runtime import RuntimePolicy
from repro.runtime import shm as _shm
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_FAILED,
    ERR_NOT_FOUND,
    ProtocolError,
    Request,
)


@contextlib.contextmanager
def _bad_request():
    """Answer a parameter ``TypeError``/``ValueError`` as ``bad-request``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ProtocolError(ERR_BAD_REQUEST, str(exc)) from exc


class GraphStore:
    """A small LRU of loaded, frozen graphs keyed by path + stat.

    The daemon answers many requests about few graphs; loading and
    fingerprinting a large edge list per request would dwarf the metric
    work.  A graph is hashed once, when it is loaded: the digest lives on
    the frozen graph (:func:`~repro.engine.cache.graph_fingerprint`), so
    the scheduler's keys and the engine's cache lookups share it.  An
    entry is invalidated when the file's (mtime_ns, size) changes, so
    overwriting an edge list is picked up on the next request.

    With ``share=True`` (the daemon's default when it runs worker
    processes) the store also pins one shared-memory publication per
    cached graph: engine passes over the same graph then re-acquire the
    store's segment instead of republishing per pass, and a respawned
    pool attaches to memory that was never re-copied.  The pinned
    references are dropped on LRU eviction, stamp invalidation, and
    :meth:`close` — the daemon's drain path calls :meth:`close`, so a
    clean shutdown leaves ``/dev/shm`` empty.
    """

    def __init__(self, capacity: int = 8, share: bool = False):
        self.capacity = int(capacity)
        self.share = bool(share)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple]" = OrderedDict()
        self.stats = {"hits": 0, "loads": 0, "shared": 0}

    def load(self, path: str) -> Tuple[CSRGraph, str]:
        """``(frozen graph, fingerprint)`` for an edge-list path."""
        try:
            real = os.path.realpath(path)
            stat = os.stat(real)
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError as exc:
            raise ProtocolError(ERR_NOT_FOUND, f"{path}: {exc}") from exc
        with self._lock:
            entry = self._entries.get(real)
            if entry is not None and entry[0] == stamp:
                self._entries.move_to_end(real)
                self.stats["hits"] += 1
                return entry[1], graph_fingerprint(entry[1])
        try:
            graph = read_edgelist(path)
            if graph.number_of_edges() == 0:
                raise ValueError("edge list has no edges")
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            message = str(exc) or exc.__class__.__name__
            raise ProtocolError(ERR_NOT_FOUND, f"{path}: {message}") from exc
        csr = csr_from_graph(graph)
        fingerprint = graph_fingerprint(csr)  # hashed here, once per load
        segment = _shm.publish(csr) if self.share else None
        if segment is not None:
            self.stats["shared"] += 1
        evicted: List[Tuple] = []
        with self._lock:
            stale = self._entries.pop(real, None)
            if stale is not None:
                evicted.append(stale)
            self._entries[real] = (stamp, csr, segment)
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False)[1])
            self.stats["loads"] += 1
        for entry in evicted:
            if entry[2] is not None:
                entry[2].release()
        return csr, fingerprint

    def close(self) -> None:
        """Drop every cached graph and its pinned shm reference."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            if entry[2] is not None:
                entry[2].release()


@dataclasses.dataclass
class Job:
    """One admitted compute request travelling through the queue."""

    request: Request
    #: Coalescing identity; ``None`` disables coalescing for this job.
    token: Optional[str] = None
    #: For metric/signature jobs: the graph and its engine requests.
    graph: Optional[CSRGraph] = None
    fingerprint: Optional[str] = None
    engine_requests: List[MetricRequest] = dataclasses.field(default_factory=list)
    #: Filled by the scheduler when the job resolves.
    result: Optional[Dict[str, Any]] = None
    provenance: Optional[Dict[str, Any]] = None
    error: Optional[Tuple[str, str]] = None
    done: threading.Event = dataclasses.field(default_factory=threading.Event)

    @property
    def deadline(self) -> Optional[float]:
        return self.request.deadline


class CoalescingScheduler:
    """Bounded queue + coalescing map + batched engine execution.

    Parameters mirror the daemon flags: ``max_pending`` is the
    admission watermark (a submit finding the queue full raises a
    ``busy`` :class:`ProtocolError`), ``workers``/``use_cache``/
    ``cache``/``policy`` configure the engine passes.
    """

    def __init__(
        self,
        max_pending: int = 32,
        workers: int = 0,
        use_cache: bool = True,
        cache: Optional[SeriesCache] = None,
        cache_dir: Optional[str] = None,
        policy: Optional[RuntimePolicy] = None,
        graphs: Optional[GraphStore] = None,
    ):
        self.max_pending = int(max_pending)
        self.workers = int(workers)
        self.use_cache = bool(use_cache)
        self.cache = cache if cache is not None else SeriesCache(cache_dir)
        self.policy = policy
        self.graphs = graphs if graphs is not None else GraphStore()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: "deque[Job]" = deque()
        self._in_flight: Dict[str, Job] = {}
        self._busy = False
        self._draining = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        self.counters = {
            "admitted": 0,
            "coalesced": 0,
            "busy_rejected": 0,
            "completed": 0,
            "failed": 0,
            "engine_passes": 0,
            "batched_requests": 0,
            "series_computed": 0,
            "series_cached": 0,
        }

    # ------------------------------------------------------------------
    # Admission (called from connection threads)
    # ------------------------------------------------------------------
    def prepare(self, request: Request) -> Job:
        """Build the job for a validated compute request.

        Loads and fingerprints the graph, resolves metric parameters and
        computes the coalescing token — raising :class:`ProtocolError`
        (``not-found`` / ``bad-request`` / ``failed``) *before* the
        request can occupy a queue slot.
        """
        builder = {
            "metric": self._prepare_metric,
            "signature": self._prepare_signature,
            "compare": self._prepare_compare,
            "sweep-row": self._prepare_sweep_row,
            "sweep-shard": self._prepare_sweep_shard,
        }.get(request.op)
        if builder is None:
            raise ProtocolError(ERR_FAILED, f"op {request.op!r} is not a compute op")
        return builder(request)

    def submit(self, job: Job) -> Tuple[Job, bool]:
        """Admit ``job``; returns ``(job to wait on, coalesced?)``.

        A duplicate of an in-flight job subscribes to it (no queue
        slot).  A full queue raises ``busy``; a draining scheduler
        raises ``draining``.
        """
        with self._lock:
            if self._draining:
                raise ProtocolError(ERR_DRAINING, "server is draining; retry elsewhere")
            if job.token is not None:
                primary = self._in_flight.get(job.token)
                if primary is not None:
                    self.counters["coalesced"] += 1
                    return primary, True
            if len(self._queue) >= self.max_pending:
                self.counters["busy_rejected"] += 1
                raise ProtocolError(
                    ERR_BUSY,
                    f"queue full ({len(self._queue)} pending, "
                    f"max-pending {self.max_pending}); retry later",
                )
            if job.token is not None:
                self._in_flight[job.token] = job
            self._queue.append(job)
            self.counters["admitted"] += 1
            self._wakeup.notify()
        return job, False

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the single scheduler worker thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._worker, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._wakeup.wait(0.2)
                if self._stopped and not self._queue:
                    self._idle.notify_all()
                    return
                batch = list(self._queue)
                self._queue.clear()
                self._busy = True
            try:
                self._run_batch(batch)
            finally:
                with self._lock:
                    self._busy = False
                    if not self._queue:
                        self._idle.notify_all()

    def run_once(self) -> int:
        """Synchronously drain whatever is queued *now* (test hook).

        Returns the number of jobs processed.  Must not race the
        background worker — use it only on an unstarted scheduler.
        """
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
        self._run_batch(batch)
        return len(batch)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting work and wait until everything queued finished."""
        with self._lock:
            self._draining = True
            self._wakeup.notify_all()
            return self._idle.wait_for(
                lambda: not self._queue and not self._busy, timeout
            )

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Drain, then stop the worker thread."""
        self.drain(timeout)
        with self._lock:
            self._stopped = True
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def snapshot(self) -> Dict[str, Any]:
        """The ``status`` op's counter block."""
        with self._lock:
            state = {
                "pending": len(self._queue),
                "in_flight": len(self._in_flight),
                "draining": self._draining,
                "max_pending": self.max_pending,
                "counters": dict(self.counters),
            }
        state["cache"] = dict(self.cache.stats)
        state["graphs"] = dict(self.graphs.stats)
        return state

    # ------------------------------------------------------------------
    # Job preparation per op
    # ------------------------------------------------------------------
    def _prepare_metric(self, request: Request) -> Job:
        name = request.payload["metric"]
        spec = METRICS.get(name)
        if spec is None:
            raise ProtocolError(
                ERR_NOT_FOUND,
                f"unknown metric {name!r}; available: {sorted(METRICS)}",
            )
        params = request.payload["params"]
        with _bad_request():
            resolved = spec.resolve_params(params)
        csr, fingerprint = self.graphs.load(request.payload["graph"])
        key = cache_key(fingerprint, name, resolved)
        return Job(
            request=request,
            token=key,
            graph=csr,
            fingerprint=fingerprint,
            engine_requests=[MetricRequest(name, dict(params))],
        )

    def _prepare_signature(self, request: Request) -> Job:
        payload = request.payload
        with _bad_request():
            reqs = signature_requests(
                payload["centers"], payload["max_ball"], payload["seed"]
            )
        csr, fingerprint = self.graphs.load(payload["graph"])
        keys = []
        for req in reqs:
            resolved = METRICS[req.name].resolve_params(req.params)
            keys.append(cache_key(fingerprint, req.name, resolved) or "-")
        return Job(
            request=request,
            token="signature|" + "|".join(keys),
            graph=csr,
            fingerprint=fingerprint,
            engine_requests=reqs,
        )

    def _prepare_compare(self, request: Request) -> Job:
        payload = request.payload
        graphs = payload["graphs"]
        if not graphs or not all(isinstance(p, str) for p in graphs):
            raise ProtocolError(
                ERR_FAILED, "compare needs a non-empty list of edge-list paths"
            )
        with _bad_request():
            # The report pass builds these requests per graph; resolving
            # them here rejects bad centers/max_ball before any load.
            signature_requests(payload["centers"], payload["max_ball"], None)
        fingerprints = []
        for path in graphs:
            _csr, fingerprint = self.graphs.load(path)
            fingerprints.append(fingerprint)
        token = "compare|" + "|".join(fingerprints) + (
            f"|centers={payload['centers']}|ball={payload['max_ball']}"
        )
        return Job(request=request, token=token)

    def _prepare_sweep_row(self, request: Request) -> Job:
        from repro.harness.sweep import SWEEP_GRIDS, sweep_row_key

        payload = request.payload
        if payload["generator"] not in SWEEP_GRIDS:
            raise ProtocolError(
                ERR_NOT_FOUND,
                f"unknown sweep generator {payload['generator']!r}; "
                f"available: {sorted(SWEEP_GRIDS)}",
            )
        token = sweep_row_key(
            payload["generator"],
            ", ".join(f"{k}={v}" for k, v in payload["params"].items()),
            payload["classify"],
            payload["centers"],
            payload["max_ball"],
            payload["seed"],
        )
        return Job(request=request, token=token)

    def _prepare_sweep_shard(self, request: Request) -> Job:
        from repro.harness.sweep import SWEEP_GRIDS, sweep_shard_key

        payload = request.payload
        shards, shard_id = payload["shards"], payload["shard_id"]
        if shards <= 0 or not 0 <= shard_id < shards:
            raise ProtocolError(
                ERR_FAILED,
                f"shard_id must be in [0, shards) with shards > 0, "
                f"got shards={shards} shard_id={shard_id}",
            )
        for name in payload["generators"] or ():
            if name not in SWEEP_GRIDS:
                raise ProtocolError(
                    ERR_NOT_FOUND,
                    f"unknown sweep generator {name!r}; "
                    f"available: {sorted(SWEEP_GRIDS)}",
                )
        # Coalesce concurrent claims on the same shard of the same
        # journal: the second client gets the first run's report instead
        # of bouncing off the shard lease.
        token = sweep_shard_key(payload["journal"], shards, shard_id)
        return Job(request=request, token=token)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _policy_for(self, deadline: Optional[float]) -> Optional[RuntimePolicy]:
        """The engine runtime policy for one pass: the server's base
        policy, with a per-request deadline layered on top."""
        if deadline is None:
            return self.policy
        base = self.policy if self.policy is not None else RuntimePolicy()
        return dataclasses.replace(base, deadline=deadline)

    def _make_engine(self, deadline: Optional[float]) -> MetricEngine:
        return MetricEngine(
            workers=self.workers,
            use_cache=self.use_cache,
            cache=self.cache,
            runtime=self._policy_for(deadline),
        )

    def _run_batch(self, jobs: List[Job]) -> None:
        """Execute one drained queue snapshot: fold compatible metric
        jobs into shared engine passes, run everything else standalone."""
        passes: List[List[Job]] = []
        for job in jobs:
            if job.request.op == "metric":
                # Greedy pack: same graph, same deadline, disjoint
                # metric names -> one engine pass.
                for group in passes:
                    if (
                        group[0].request.op == "metric"
                        and group[0].fingerprint == job.fingerprint
                        and group[0].deadline == job.deadline
                        and all(
                            g.engine_requests[0].name
                            != job.engine_requests[0].name
                            for g in group
                        )
                    ):
                        group.append(job)
                        break
                else:
                    passes.append([job])
            else:
                passes.append([job])
        for group in passes:
            if len(group) > 1:
                self.counters["batched_requests"] += len(group)
            self._run_pass(group)

    def _run_pass(self, group: List[Job]) -> None:
        try:
            runner = {
                "metric": self._exec_engine_pass,
                "signature": self._exec_engine_pass,
                "compare": self._exec_compare,
                "sweep-row": self._exec_sweep_row,
                "sweep-shard": self._exec_sweep_shard,
            }[group[0].request.op]
            runner(group)
        except ProtocolError as exc:
            for job in group:
                job.error = (exc.code, str(exc))
        except Exception as exc:  # a handler bug must not kill the daemon
            for job in group:
                job.error = (ERR_FAILED, f"{exc.__class__.__name__}: {exc}")
        finally:
            with self._lock:
                for job in group:
                    if job.token is not None:
                        self._in_flight.pop(job.token, None)
                    self.counters[
                        "failed" if job.error is not None else "completed"
                    ] += 1
            for job in group:
                job.done.set()

    def _account_run(self, engine: MetricEngine) -> Dict[str, str]:
        """Fold one pass's provenance into the counters; returns
        ``{metric name: source}`` for the response blocks."""
        sources = {
            name: status.source
            for name, status in engine.last_run.metrics.items()
        }
        self.counters["engine_passes"] += 1
        # "computed" means this pass ran the BFS fresh; only "cache"
        # skipped the work.
        self.counters["series_computed"] += sum(
            1 for source in sources.values() if source != "cache"
        )
        self.counters["series_cached"] += sum(
            1 for source in sources.values() if source == "cache"
        )
        return sources

    def _exec_engine_pass(self, group: List[Job]) -> None:
        """One shared engine pass for metric jobs (or one signature)."""
        requests = [req for job in group for req in job.engine_requests]
        engine = self._make_engine(group[0].deadline)
        series = engine.compute(group[0].graph, requests)
        sources = self._account_run(engine)
        report = engine.last_run.to_payload()
        for job in group:
            if job.request.op == "metric":
                name = job.engine_requests[0].name
                job.result = {
                    "metric": name,
                    "series": [list(point) for point in series[name]],
                }
                job.provenance = {
                    "source": sources.get(name, "computed"),
                    "report": report.get(name, {}),
                }
            else:  # signature
                n = job.graph.number_of_nodes()
                sig = metric_signature(
                    series["expansion"],
                    series["resilience"],
                    series["distortion"],
                    n,
                )
                job.result = {
                    "signature": sig,
                    "interpretation": SIGNATURE_HINTS.get(sig),
                    "series": {
                        name: [list(point) for point in values]
                        for name, values in series.items()
                    },
                }
                job.provenance = {"sources": sources, "report": report}

    def _exec_compare(self, group: List[Job]) -> None:
        from repro.harness import ReportInput, generate_report

        job = group[0]
        payload = job.request.payload
        items = []
        for path in payload["graphs"]:
            name = os.path.splitext(os.path.basename(path))[0]
            try:
                graph = read_edgelist(path)
            except (OSError, UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(ERR_NOT_FOUND, f"{path}: {exc}") from exc
            items.append(ReportInput(name, graph))
        report = generate_report(
            items,
            num_centers=payload["centers"],
            max_ball_size=payload["max_ball"],
            workers=self.workers,
            use_cache=self.use_cache,
            cache_dir=str(self.cache.root),
            runtime=self._policy_for(job.deadline),
        )
        job.result = {"report_markdown": report}
        job.provenance = {"source": "computed"}

    def _exec_sweep_row(self, group: List[Job]) -> None:
        from repro.harness.sweep import run_sweep_row

        job = group[0]
        engine = self._make_engine(job.deadline)
        row = run_sweep_row(job.request.payload, engine=engine)
        sources = self._account_run(engine) if job.request.payload["classify"] else {}
        job.result = {"row": dataclasses.asdict(row)}
        job.provenance = {"sources": sources}

    def _exec_sweep_shard(self, group: List[Job]) -> None:
        from repro.harness.sweep import run_sweep
        from repro.runtime.shards import (
            DEFAULT_STALE_AFTER,
            LeaseHeldError,
            ManifestError,
        )

        job = group[0]
        payload = job.request.payload
        stale_after = payload["stale_after"]
        try:
            run = run_sweep(
                payload["generators"],
                classify=payload["classify"],
                num_centers=payload["centers"],
                max_ball_size=payload["max_ball"],
                seed=payload["seed"],
                workers=self.workers,
                use_cache=self.use_cache,
                cache_dir=str(self.cache.root),
                runtime=self._policy_for(job.deadline),
                journal=payload["journal"],
                resume=payload["resume"],
                num_shards=payload["shards"],
                shard_id=payload["shard_id"],
                lease_stale_after=(
                    float(stale_after)
                    if stale_after is not None
                    else DEFAULT_STALE_AFTER
                ),
            )
        except LeaseHeldError as exc:
            # Someone else (another daemon, a CLI worker) is live on this
            # shard; that is backpressure, not failure.
            raise ProtocolError(ERR_BUSY, str(exc)) from exc
        except (ManifestError, ValueError) as exc:
            raise ProtocolError(ERR_FAILED, str(exc)) from exc
        job.result = {
            "shard": run.shard_id,
            "num_shards": run.num_shards,
            "journal": run.journal,
            "segment": run.segment,
            "report_path": run.report_path,
            "assigned_rows": run.assigned_rows,
            "resumed_rows": run.resumed_rows,
            "corrupt_lines": run.corrupt_lines,
            "rows": [dataclasses.asdict(row) for row in run.rows],
        }
        job.provenance = {"source": "computed"}
