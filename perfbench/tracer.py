"""Span tracer for the benchmark's traced mode (``--trace 1``).

The tracer wraps public entry points of :mod:`repro` from the outside:
it replaces each named function or method *where it is looked up* (every
``repro.*`` module attribute bound to the same object, so a call through
``repro.engine.requests.resilience_csr_batch`` is seen as well as one
through ``repro.graph.kernels_flow``), records a ``perf_counter_ns`` span
with its parent on a per-thread stack, and keeps every span in memory.
Nothing under ``src/`` changes, and an untraced run installs nothing.

Worker processes forked by the engine's pool inherit the wrappers; each
worker starts an empty span list after the fork and writes it to a JSON
file when it exits, which :meth:`Tracer.collect` merges back in.

:func:`layer_metrics` turns the spans into the benchmark's per-layer
metrics: inclusive time per entry point (outermost calls only), self
time (a span's duration minus its direct children), call counts and the
counts some entry points report through their arguments or results.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import multiprocessing.util as mp_util
from typing import Any, Callable, Dict, List, Optional, Tuple

NS = 1e-9


def _balls(args, kwargs, result, before):
    # BallBatch(csr, members_list): one ball per member array.
    members = args[2] if len(args) > 2 else kwargs["members_list"]
    return len(members)


def _entries(args, kwargs, result, before):
    return sum(len(entries) for entries in result.values())


def _segment(args, kwargs, result, before):
    return 0 if result is None else 1


def _engine_before(args, kwargs):
    return dict(args[0].stats)


def _engine_delta(args, kwargs, result, before):
    after = args[0].stats
    return {
        key: after[key] - before[key]
        for key in ("centers_computed", "cache_hits", "cache_misses")
    }


# (span name, "module:qualified.name", count hook, before hook).  The
# span names are the per-layer metric stems; their prefix is the layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("generators.build", "repro.generators.registry:GeneratorSpec.build", None, None),
    ("generators.build", "repro.harness.registry:topology", None, None),
    ("graph.freeze", "repro.graph.csr:csr_from_graph", None, None),
    ("graph.freeze", "repro.generators.builder:GraphBuilder.finalize", None, None),
    ("graph.bfs", "repro.graph.kernels:bfs_levels", None, None),
    ("graph.bfs", "repro.graph.kernels:multi_source_distances", None, None),
    ("graph.bfs", "repro.graph.kernels:fused_bfs_levels", None, None),
    ("graph.fuse", "repro.graph.kernels:BallBatch.__init__", _balls, None),
    ("graph.fuse", "repro.graph.kernels:FusedBatch.__init__", None, None),
    ("graph.resilience", "repro.graph.kernels_flow:resilience_csr_batch", None, None),
    ("graph.distortion", "repro.graph.kernels_trees:distortion_csr_batch", None, None),
    ("graph.cover_biconn", "repro.graph.kernels:batch_vertex_cover_sizes", None, None),
    ("graph.cover_biconn", "repro.graph.kernels:batch_biconnected_counts", None, None),
    ("graph.dict_eval", "repro.graph.csr:CSRGraph.thaw", None, None),
    ("graph.dict_eval", "repro.metrics.clustering:clustering_coefficient", None, None),
    ("graph.dict_eval", "repro.metrics.pathlength:average_ball_path_length", None, None),
    ("graph.flow_cover", "repro.graph.flow:bipartite_vertex_cover_weight", None, None),
    ("routing.dag", "repro.routing.shortest:shortest_path_dag", None, None),
    ("routing.dag", "repro.routing.policy:policy_dag", None, None),
    ("routing.fractions", "repro.routing.shortest:pair_edge_fractions", None, None),
    ("routing.fractions", "repro.routing.policy:policy_pair_edge_fractions", None, None),
    ("hierarchy.traversal", "repro.hierarchy.traversal_sets:link_traversal_sets", _entries, None),
    ("hierarchy.value", "repro.hierarchy.link_values:link_value_from_entries", None, None),
    ("engine.compute", "repro.engine.core:MetricEngine.compute", _engine_delta, _engine_before),
    ("engine.fingerprint", "repro.engine.cache:graph_fingerprint", None, None),
    ("engine.cache_get", "repro.engine.cache:SeriesCache.get", None, None),
    ("engine.cache_put", "repro.engine.cache:SeriesCache.put", None, None),
    ("runtime.shm_publish", "repro.runtime.shm:publish", _segment, None),
    ("service.prepare", "repro.service.scheduler:CoalescingScheduler.prepare", None, None),
)

LAYERS = ("generators", "graph", "routing", "hierarchy", "engine", "runtime", "service")

# The scheduler's worker thread name (repro.service.scheduler).
SCHEDULER_THREAD = "repro-scheduler"

# Span: (pid, span id, parent id, name, start ns, end ns, thread, count).
Span = Tuple[int, int, int, str, int, int, str, Any]


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps :data:`ENTRY_POINTS` and records spans until :meth:`uninstall`."""

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, count_hook, before_hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            before = before_hook(args, kwargs) if before_hook else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = count_hook(args, kwargs, result, before) if count_hook else None
            tracer.spans.append(
                (os.getpid(), sid, parent, name, start, end,
                 threading.current_thread().name, count)
            )
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        """Import every traced module and patch each lookup site."""
        targets = [(_resolve(t), name, hook, before)
                   for name, t, hook, before in ENTRY_POINTS]
        # Import the modules that look the entry points up by name, so
        # every binding exists before the scan below.
        for module in ("repro.engine", "repro.engine.requests", "repro.harness",
                       "repro.hierarchy", "repro.routing", "repro.service",
                       "repro.service.server", "repro.metrics", "repro.graph"):
            __import__(module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for (owner, attr), name, hook, before in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original, hook, before)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        self.active = True
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- worker processes ----------------------------------------------
    def _after_fork(self) -> None:
        if not self.active:
            return
        self.spans = []
        self._local = threading.local()
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def collect(self) -> None:
        """Merge the span files that exited workers left behind."""
        for entry in sorted(os.listdir(self.dump_dir)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                path = os.path.join(self.dump_dir, entry)
                with open(path, encoding="utf-8") as handle:
                    self.spans.extend(tuple(span) for span in json.load(handle))
                os.unlink(path)

    def reset(self) -> None:
        self.collect()
        self.spans = []


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-entry-point and per-layer totals from a span list.

    Keys: ``<name>.total_s`` (inclusive, outermost calls of a name
    only), ``<name>.self_s``, ``<name>.calls``, ``<name>.count`` or
    ``<name>.<key>`` (sums of what the count hooks return),
    ``<layer>.layer_self_s`` and, for the scheduler thread,
    ``engine.compute.scheduler_s``.
    """
    by_id = {(span[0], span[1]): span for span in spans}
    child_ns: Dict[Tuple[int, int], int] = {}
    for span in spans:
        if span[2]:
            key = (span[0], span[2])
            child_ns[key] = child_ns.get(key, 0) + span[5] - span[4]
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for span in spans:
        pid, sid, parent, name, start, end, thread, count = span
        duration = end - start
        own = duration - child_ns.get((pid, sid), 0)
        add(f"{name}.self_s", own * NS)
        add(f"{name}.calls", 1)
        add(f"{name.split('.')[0]}.layer_self_s", own * NS)
        if isinstance(count, dict):
            for key, value in count.items():
                add(f"{name}.{key}", value)
        elif count is not None:
            add(f"{name}.count", count)
        ancestor = by_id.get((pid, parent))
        nested = False
        while ancestor is not None:
            if ancestor[3] == name:
                nested = True
                break
            ancestor = by_id.get((pid, ancestor[2]))
        if not nested:
            add(f"{name}.total_s", duration * NS)
            if name == "engine.compute" and thread == SCHEDULER_THREAD:
                add("engine.compute.scheduler_s", duration * NS)
    return out
