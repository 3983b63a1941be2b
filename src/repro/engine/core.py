"""The shared-ball :class:`MetricEngine`.

Every series function in :mod:`repro.metrics` measures quantities on the
same family of ball subgraphs.  Computed independently, a full report
re-runs BFS from every center and re-materialises every ball once per
metric.  The engine instead takes a *batch* of
:class:`~repro.engine.requests.MetricRequest` objects and

1. grows each center's balls **once**, evaluating all requested per-ball
   metrics against the shared induced subgraph (and serving distance-only
   metrics like expansion from the same distance maps),
2. runs one task per center through the
   :class:`~repro.runtime.supervisor.Supervisor`, serially or fanned out
   across a process pool (``workers=0`` is serial, with identical
   results), journaling every finished center when given a journal, and
3. caches finished series on disk under ``.repro-cache/`` keyed by a
   content hash of (edge set, metric name, params, seed) — see
   :mod:`repro.engine.cache`.

Determinism contract
--------------------
Results are a pure function of ``(graph, metric, params, seed)``:

* Ball centers are sampled exactly as the legacy per-metric functions
  sampled them (including the legacy functions' pre-sampling RNG draws),
  so the engine visits the same centers for the same seed.
* Metrics that randomise per ball (resilience's partitioner, distortion's
  tree heuristics) draw from a per-(metric, center) RNG stream derived
  from the seed and the center index.  A center's stream does not depend
  on which other metrics share the pass, on worker count, or on
  scheduling — so serial and parallel runs, and batched and standalone
  runs, are bitwise identical.
* Per-radius averages are accumulated in center order regardless of
  which worker finished first, so float addition order is fixed.

Representation
--------------
The engine freezes the input graph once per :meth:`compute` into a
:class:`~repro.graph.csr.CSRGraph` (accepting either representation)
and runs BFS through the vectorized kernels in
:mod:`repro.graph.kernels`; worker processes are initialised with the
compact CSR arrays instead of re-pickling the dict-of-sets graph.  Ball
members are taken in ascending node index, so member ordering — and
therefore every downstream float — is a pure function of graph
content, independent of adjacency-set insertion history and of label
hashing.  No pass thaws the whole graph.

Evaluation follows one rule.  Each center's radius schedule is one
:class:`~repro.graph.kernels.FusedBatch` of one ``BallBatch`` sliced
from the frozen graph.  A policy plan (``rels`` given) builds the
valley-free product once per process
(:class:`~repro.routing.policy.PolicyProduct`); one BFS over it per
center gives the policy distances and every arc's ball radius, and a
policy ball keeps only the arcs its radius reaches
(``BallBatch(..., arc_radius=...)``).  A metric with a
``batch_evaluator`` runs it once per center over that batch; a metric
without one (clustering, path length) runs its dict ``evaluator`` on
each ball's sub-CSR, thawed (``FusedBatch.sub_csr(i).thaw()``, for a
plain ball the same nodes and adjacency sets as
``csr.thaw().subgraph(members)``).  The dict-only
engine that the batch kernels are tested bitwise-equal against is
:class:`repro.testing.OracleEngine`, with the dict twins in its
evaluator table; it replaces the per-center function
(``MetricEngine._center_task``) and nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.cache import SeriesCache, cache_key, graph_fingerprint
from repro.engine.requests import METRICS, MetricRequest, MetricSpec
from repro.generators.base import make_rng
from repro.graph import kernels
from repro.graph.core import Graph
from repro.graph.csr import CSRGraph, csr_from_graph
from repro.metrics.balls import sample_centers
from repro.routing.policy import PolicyProduct
from repro.runtime import faults as _faults
from repro.runtime import shm as _shm
from repro.runtime.journal import Journal, as_journal
from repro.runtime.status import CenterStatus, RunReport, SeriesStatus
from repro.runtime.supervisor import RuntimePolicy, Supervisor

Series = List[Tuple[float, float]]

# Request parameters that shape the pass itself; everything else is
# forwarded to the per-ball evaluator (e.g. resilience's ``trials``).
_STRUCTURAL_PARAMS = frozenset(
    ("num_centers", "centers", "max_ball_size", "min_ball_size", "rels", "seed")
)


@dataclasses.dataclass
class _Resolved:
    """A request with its parameters, centers and RNG streams pinned."""

    request: MetricRequest
    spec: MetricSpec
    params: Dict[str, Any]
    centers: List[Any]
    center_seeds: Optional[List[int]]
    key: Optional[str] = None
    series: Optional[Series] = None


@dataclasses.dataclass
class _BallMember:
    """One ball metric riding a shared group."""

    rid: int  # index into the pending request list
    name: str
    eval_params: Dict[str, Any]
    center_seeds: Optional[List[int]]


@dataclasses.dataclass
class _BallGroup:
    """Ball metrics that share the exact same ball family."""

    max_ball_size: Optional[int]
    min_ball_size: int
    members: List[_BallMember]


@dataclasses.dataclass
class _Plan:
    """All work sharing one (centers, relationships) pass.

    ``product`` is the policy plan's valley-free product, built on first
    use in each process that runs the plan's centers.
    """

    centers: List[Any]
    rels: Any
    distance_rids: List[int]
    groups: List[_BallGroup]
    product: Optional[PolicyProduct] = None


class _ComputeContext:
    """The frozen graph every task of one pass reads.

    The context is what the supervisor hands every task (serial or in a
    pool worker) instead of the raw graph: pickling it ships only the compact
    CSR arrays — or, after :meth:`publish`, just a shared-memory
    :class:`~repro.runtime.shm.SegmentHandle` that workers attach to
    zero-copy.
    """

    __slots__ = ("csr", "_segment")

    def __init__(self, csr: CSRGraph):
        self.csr = csr
        self._segment: Optional[_shm.SharedGraph] = None

    def publish(self, transport: str = "auto") -> bool:
        """Move worker transport onto a shared-memory segment.

        After a successful publish, pickling this context ships only
        the segment handle; workers attach read-only by name.  Returns
        whether shm transport is active.  ``transport="copy"`` skips
        publication; ``"shm"`` raises if a segment cannot be created;
        ``"auto"`` silently keeps copy transport on failure.  The
        caller owns the published reference and must pair this with
        :meth:`release` (engine and service do so in ``finally``
        blocks, so exception paths cannot leak segments).
        """
        if transport == "copy":
            return False
        if self._segment is not None and self._segment.alive:
            return True
        segment = _shm.publish(self.csr)
        if segment is None:
            if transport == "shm":
                raise RuntimeError(
                    "shared-memory transport requested but unavailable"
                )
            return False
        self._segment = segment
        return True

    def release(self) -> None:
        """Drop this context's segment reference (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.release()

    def __reduce__(self):
        segment = self._segment
        if segment is not None and segment.alive:
            return (_ctx_from_handle, (segment.handle,))
        return (_ComputeContext, (self.csr,))


def _ctx_from_handle(handle: "_shm.SegmentHandle") -> _ComputeContext:
    """Worker-side unpickle target: attach instead of copying arrays."""
    return _ComputeContext(_shm.attach(handle))


def _center_distances(ctx: _ComputeContext, plan: _Plan, ci: int):
    """Distance vector (and policy arc radii, if any) for one center.

    Returns ``(dist, arc_radius)``: ``dist`` is a dense int32 array over
    node indices (``-1`` = unreached, or past a ball-only plan's
    largest ``max_ball_size``); ``arc_radius`` is every CSR
    arc's policy ball radius for policy plans
    (:meth:`~repro.routing.policy.PolicyProduct.ball_radii`), else
    ``None``.
    """
    source = ctx.csr.index_of(plan.centers[ci])
    if plan.rels is None:
        # A ball-only plan slices no ball past its largest bound.
        bounds = [group.max_ball_size for group in plan.groups]
        reach = None if plan.distance_rids or None in bounds else max(bounds)
        return kernels.bfs_levels(ctx.csr, source, max_reach=reach), None
    if plan.product is None:
        plan.product = PolicyProduct(ctx.csr, plan.rels)
    return plan.product.ball_radii(source)


def _compute_center(ctx: _ComputeContext, plan: _Plan, ci: int):
    """Everything ``plan`` needs from one center, in a single pass.

    Returns ``(counts_at, group_contributions)`` where ``counts_at`` is
    the per-distance node count (``None`` when no distance metric was
    requested) and ``group_contributions[g]`` is a list of
    ``(radius, ball_size, {rid: value})`` tuples for ball group ``g``.
    """
    dist, arc_radius = _center_distances(ctx, plan, ci)
    per_level = kernels.level_counts(dist)
    max_radius = len(per_level) - 1

    counts_at = None
    if plan.distance_rids:
        counts_at = [int(c) for c in per_level]

    group_contributions: List[List[Tuple[int, int, Dict[int, float]]]] = []
    if plan.groups:
        cumulative = np.cumsum(per_level)
        for group in plan.groups:
            rngs = {
                member.rid: (
                    random.Random(member.center_seeds[ci])
                    if member.center_seeds is not None
                    else None
                )
                for member in group.members
            }
            # First pass: pin the (radius, size) schedule so every ball of
            # this group can be sliced and fused in one batched call.
            schedule: List[Tuple[int, int]] = []
            prev_size = 0
            for radius in range(1, max_radius + 1):
                size = int(cumulative[radius])
                if size == prev_size:
                    continue
                prev_size = size
                if size < group.min_ball_size:
                    continue
                if group.max_ball_size is not None and size > group.max_ball_size:
                    break
                schedule.append((radius, size))

            # Every ball, plain or policy, is one ball of the group's
            # fused batch, sliced from the frozen graph with its members
            # in ascending index order.  A policy ball keeps only the
            # arcs its radius reaches.
            fused = None
            if schedule:
                radii = [radius for radius, _size in schedule]
                fused = kernels.FusedBatch(
                    kernels.BallBatch(
                        ctx.csr,
                        [kernels.ball_members(dist, radius) for radius in radii],
                        arc_radius=None if arc_radius is None else (arc_radius, radii),
                    )
                )
            # The one evaluator rule.  A metric with a batch evaluator
            # runs once over the fused schedule, before the per-radius
            # loop (each member draws from its *own* rng stream, so
            # consuming it across all balls up front is the draw
            # sequence a per-ball loop makes).  Every other metric runs
            # its dict evaluator on the ball's own sub-CSR, thawed —
            # built once per ball, without thawing the whole graph.
            fused_values: Dict[int, List[float]] = {}
            if fused is not None:
                for member in group.members:
                    spec = METRICS[member.name]
                    if spec.batch_evaluator is not None:
                        fused_values[member.rid] = spec.batch_evaluator(
                            fused, rngs[member.rid], member.eval_params
                        )
            contributions: List[Tuple[int, int, Dict[int, float]]] = []
            for bi, (radius, size) in enumerate(schedule):
                ball = None
                values: Dict[int, float] = {}
                for member in group.members:
                    if member.rid in fused_values:
                        values[member.rid] = fused_values[member.rid][bi]
                        continue
                    if ball is None:
                        ball = fused.sub_csr(bi).thaw()
                    values[member.rid] = METRICS[member.name].evaluator(
                        ball, rngs[member.rid], member.eval_params
                    )
                contributions.append((radius, size, values))
            group_contributions.append(contributions)
    return counts_at, group_contributions


def _expansion_series(
    n: int,
    per_center_counts: List[List[int]],
    num_centers_used: int,
    max_ball_size: Optional[int],
) -> List[Tuple[int, float]]:
    """Fold per-center distance counts into the E(h) series.

    Identical to the legacy :func:`repro.metrics.expansion.expansion`
    fold: a center whose ball stops growing keeps counting at full reach
    for larger radii.  ``max_ball_size`` (an engine extension) truncates
    the series once the average ball exceeds that many nodes.
    """
    if not per_center_counts or n == 0 or num_centers_used == 0:
        return []
    global_max = max(len(counts) for counts in per_center_counts) - 1
    reach_counts = [0] * (global_max + 1)
    for counts_at in per_center_counts:
        running = 0
        for h in range(global_max + 1):
            if h < len(counts_at):
                running += counts_at[h]
            reach_counts[h] += running
    series: List[Tuple[int, float]] = []
    for h, total in enumerate(reach_counts):
        if max_ball_size is not None and total / num_centers_used > max_ball_size:
            break
        series.append((h, total / (num_centers_used * n)))
    return series


class MetricEngine:
    """One-pass, parallel, cached evaluation of the paper's metrics.

    Parameters
    ----------
    workers:
        Number of worker processes to fan ball centers across.  ``0``
        (the default) computes serially in-process; results are
        identical either way.
    transport:
        How workers receive the frozen graph: ``"auto"`` (the default)
        publishes it to a shared-memory segment when possible and falls
        back to pickled-array copies, ``"shm"`` requires shared memory
        (raises if unavailable), ``"copy"`` always pickles.  ``None``
        reads ``REPRO_TRANSPORT``.  Results are identical either way.
    use_cache:
        Store and reuse finished series on disk.
    cache_dir:
        Cache directory, ``.repro-cache/`` by default.
    runtime:
        A :class:`repro.runtime.RuntimePolicy` for the supervisor that
        runs every center (deadlines, retries, pool respawn, graceful
        degradation).  ``None`` is fail-fast: one attempt per center and
        the first exception propagates — unless the ``REPRO_FAULTS``
        environment variable is set, which auto-enables a default policy
        so injected faults are supervised.  Fault-free runs are bitwise
        identical under every policy.
    journal:
        A :class:`repro.runtime.Journal` (or path) checkpointing every
        completed (graph, plan, center) task; a later engine given the
        same journal skips those tasks entirely (``--resume``).
    cache:
        An already-open :class:`~repro.engine.cache.SeriesCache` to use
        instead of opening ``cache_dir`` — the service daemon shares
        one sharded store across every pass this way.

    After every :meth:`compute`, :attr:`last_run` holds a
    :class:`repro.runtime.RunReport` with the per-center
    ``ok|retried|timeout|failed`` status block of each metric; a metric
    whose retries were exhausted returns a *partial* series (surviving
    centers only) instead of raising.

    Examples
    --------
    >>> from repro.engine import MetricEngine, MetricRequest
    >>> from repro.generators import kary_tree
    >>> engine = MetricEngine(use_cache=False)
    >>> results = engine.compute(kary_tree(3, 5), [
    ...     MetricRequest("expansion", num_centers=8, seed=1),
    ...     MetricRequest("resilience", num_centers=4, seed=1),
    ... ])
    >>> sorted(results)
    ['expansion', 'resilience']
    """

    #: The per-center computation ``(ctx, plan, ci) -> result`` that the
    #: supervisor runs, serially or in pool workers.  It is the engine's
    #: one seam: :class:`repro.testing.OracleEngine` swaps in
    #: the dict-of-sets oracle here.
    _center_task = staticmethod(_compute_center)

    def __init__(
        self,
        workers: int = 0,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        runtime: Optional[RuntimePolicy] = None,
        journal: Optional[Union[Journal, str]] = None,
        cache: Optional[SeriesCache] = None,
        transport: Optional[str] = None,
    ):
        self.workers = int(workers)
        self.use_cache = bool(use_cache)
        if transport is None:
            transport = os.environ.get("REPRO_TRANSPORT") or "auto"
        if transport not in ("auto", "shm", "copy"):
            raise ValueError(
                f"transport must be 'auto', 'shm' or 'copy', got {transport!r}"
            )
        self.transport = transport
        self.cache = cache if cache is not None else SeriesCache(cache_dir)
        if runtime is None and os.environ.get(_faults.ENV_VAR):
            # Injected faults only make sense under supervision.
            runtime = RuntimePolicy()
        self.runtime = runtime
        self.journal = as_journal(journal)
        self.last_run = RunReport()
        self.stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "centers_computed": 0,
            "journal_skipped": 0,
            "shm_published": 0,
            "shm_reused": 0,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compute(
        self,
        graph: Union[Graph, CSRGraph],
        requests: Sequence[Union[MetricRequest, str]],
    ) -> Dict[str, Series]:
        """Evaluate a batch of metric requests in one shared pass.

        ``graph`` may be a mutable :class:`Graph` or an already-frozen
        :class:`~repro.graph.csr.CSRGraph`; it is frozen (once) either
        way.  ``requests`` may mix :class:`MetricRequest` objects and
        bare metric names (which use that metric's default parameters).
        Returns ``{metric name: series}`` in request order.
        """
        reqs = [
            req if isinstance(req, MetricRequest) else MetricRequest(req)
            for req in requests
        ]
        names = [req.name for req in reqs]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate metric names in one compute call: {names}"
            )
        resolved = [self._resolve(graph, req) for req in reqs]
        ctx = _ComputeContext(csr_from_graph(graph))
        # One content hash keys both the series cache and the journal;
        # a frozen graph remembers it, so a repeat pass does not rehash.
        fingerprint = (
            graph_fingerprint(ctx.csr)
            if self.use_cache or self.journal is not None
            else None
        )

        if self.use_cache:
            for res in resolved:
                res.key = cache_key(fingerprint, res.request.name, res.params)
                if res.key is None:
                    continue
                hit = self.cache.get(res.key)
                if hit is not None:
                    res.series = hit
                    self.stats["cache_hits"] += 1
                else:
                    self.stats["cache_misses"] += 1

        report = RunReport()
        for res in resolved:
            if res.series is not None:
                report.metrics[res.request.name] = SeriesStatus(
                    metric=res.request.name, source="cache"
                )

        pending = [res for res in resolved if res.series is None]
        if pending:
            plans = self._build_plans(pending)
            per_plan_results, per_plan_statuses = self._execute(
                ctx, fingerprint, plans, pending
            )
            self._merge(ctx, plans, per_plan_results, pending)
            self._attach_statuses(plans, per_plan_statuses, pending, report)
            if self.use_cache:
                for res in pending:
                    # Partial (degraded) series must never be served as
                    # complete later: only fully-ok series are cached.
                    if (
                        res.key is not None
                        and report.metrics[res.request.name].complete
                    ):
                        self.cache.put(res.key, res.request.name, res.series)
        self.last_run = report
        return {res.request.name: res.series for res in resolved}

    def compute_one(
        self, graph: Union[Graph, CSRGraph], name: str, **params: Any
    ) -> Series:
        """Convenience wrapper: one metric, parameters as kwargs."""
        return self.compute(graph, [MetricRequest(name, params)])[name]

    def clear_cache(self) -> int:
        """Delete every cached series; returns the number removed."""
        return self.cache.clear()

    # ------------------------------------------------------------------
    # Resolution and planning
    # ------------------------------------------------------------------
    def _resolve(
        self, graph: Union[Graph, CSRGraph], request: MetricRequest
    ) -> _Resolved:
        spec = METRICS[request.name]
        params = spec.resolve_params(request.params)
        rng = make_rng(params["seed"])
        # Legacy RNG protocol: metrics with a per-ball RNG drew their
        # stream seed *before* sampling centers; replicating the draw
        # keeps the engine on the same centers as the legacy functions.
        master_bits = rng.getrandbits(32) if spec.uses_rng else None
        centers = params["centers"]
        if centers is None:
            centers = sample_centers(graph, params["num_centers"], seed=rng)
        else:
            centers = list(centers)
        center_seeds = None
        if spec.uses_rng:
            seeder = random.Random(master_bits)
            center_seeds = [seeder.getrandbits(64) for _ in centers]
        return _Resolved(
            request=request,
            spec=spec,
            params=params,
            centers=centers,
            center_seeds=center_seeds,
        )

    def _build_plans(self, pending: List[_Resolved]) -> List[_Plan]:
        plans: List[_Plan] = []
        plans_by_key: Dict[Tuple, _Plan] = {}
        for rid, res in enumerate(pending):
            rels = res.params["rels"]
            key = (
                tuple(res.centers),
                id(rels) if rels is not None else None,
            )
            plan = plans_by_key.get(key)
            if plan is None:
                plan = _Plan(
                    centers=res.centers,
                    rels=rels,
                    distance_rids=[],
                    groups=[],
                )
                plans_by_key[key] = plan
                plans.append(plan)
            if res.spec.kind == "distance":
                plan.distance_rids.append(rid)
                continue
            gkey = (res.params["max_ball_size"], res.params["min_ball_size"])
            group = next(
                (
                    g
                    for g in plan.groups
                    if (g.max_ball_size, g.min_ball_size) == gkey
                ),
                None,
            )
            if group is None:
                group = _BallGroup(
                    max_ball_size=gkey[0], min_ball_size=gkey[1], members=[]
                )
                plan.groups.append(group)
            group.members.append(
                _BallMember(
                    rid=rid,
                    name=res.request.name,
                    eval_params={
                        k: v
                        for k, v in res.params.items()
                        if k not in _STRUCTURAL_PARAMS
                    },
                    center_seeds=res.center_seeds,
                )
            )
        return plans

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        ctx: _ComputeContext,
        fingerprint: Optional[str],
        plans: List[_Plan],
        pending: List[_Resolved],
    ):
        """Run every (plan, center) task through the :class:`Supervisor`.

        Returns per-plan result lists (aligned with center order,
        ``None`` for centers a runtime policy dropped) and per-plan
        :class:`CenterStatus` lists.  Centers already in the journal are
        preloaded instead of recomputed; every freshly computed center
        is journaled under a key built from ``fingerprint`` (the graph's
        content hash, ``None`` when there is no journal).
        """
        tasks = [
            (pi, ci)
            for pi, plan in enumerate(plans)
            for ci in range(len(plan.centers))
        ]
        metric_names = [
            self._plan_metric_names(plan, pending) for plan in plans
        ]
        task_keys: List[Optional[str]] = [None] * len(tasks)
        preloaded: Dict[int, Any] = {}
        if self.journal is not None:
            plan_sigs = [
                self._plan_signature(fingerprint, plan, pending)
                for plan in plans
            ]
            for ti, (pi, ci) in enumerate(tasks):
                if plan_sigs[pi] is None:
                    continue
                task_keys[ti] = f"center|{plan_sigs[pi]}|{ci}"
                stored = self.journal.get(task_keys[ti])
                if stored is not None:
                    decoded = self._decode_center_result(plans[pi], stored)
                    if decoded is not None:
                        preloaded[ti] = decoded
        self.stats["centers_computed"] += len(tasks) - len(preloaded)
        self.stats["journal_skipped"] += len(preloaded)

        def on_done(ti: int, result) -> None:
            if self.journal is not None and task_keys[ti] is not None:
                pi = tasks[ti][0]
                self.journal.append(
                    task_keys[ti],
                    self._encode_center_result(plans[pi], result),
                )

        # Publish the frozen graph to shared memory before a pool can
        # pickle the context; the reference is dropped in ``finally`` so
        # no exception (including a BrokenProcessPool mid-respawn) can
        # leak the segment.
        if self.workers > 0 and len(tasks) > 1 and ctx.publish(self.transport):
            if ctx._segment is not None and ctx._segment.refs > 1:
                self.stats["shm_reused"] += 1
            else:
                self.stats["shm_published"] += 1
        try:
            supervisor = Supervisor(self.runtime, self.workers, self._center_task)
            flat, task_statuses = supervisor.run(
                ctx, plans, tasks, metric_names, preloaded, on_done
            )
        finally:
            ctx.release()
        per_plan: List[List[Any]] = [[] for _ in plans]
        per_plan_statuses: List[List[CenterStatus]] = [[] for _ in plans]
        for (pi, _ci), result, status in zip(tasks, flat, task_statuses):
            # Tasks were generated (and execution preserves) center
            # order, so appending here keeps the merge order
            # deterministic.
            per_plan[pi].append(result)
            per_plan_statuses[pi].append(status)
        return per_plan, per_plan_statuses

    # ------------------------------------------------------------------
    # Journal plumbing: plan signatures and center-result codecs
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_metric_names(plan: _Plan, pending: List[_Resolved]) -> Tuple[str, ...]:
        names = [pending[rid].request.name for rid in plan.distance_rids]
        for group in plan.groups:
            names.extend(member.name for member in group.members)
        return tuple(sorted(names))

    @staticmethod
    def _plan_signature(
        fingerprint: str, plan: _Plan, pending: List[_Resolved]
    ) -> Optional[str]:
        """Content hash identifying one plan across runs, or ``None``
        when the plan is not journalable (policy relationships have no
        stable content representation, exactly as in the series cache).
        """
        if plan.rels is not None:
            return None
        members: List[Tuple] = []
        for rid in plan.distance_rids:
            res = pending[rid]
            members.append(
                (
                    "distance",
                    res.request.name,
                    repr(sorted((k, repr(v)) for k, v in res.params.items())),
                )
            )
        for group in plan.groups:
            for member in group.members:
                members.append(
                    (
                        "ball",
                        member.name,
                        repr(sorted(
                            (k, repr(v)) for k, v in member.eval_params.items()
                        )),
                        group.min_ball_size,
                        group.max_ball_size,
                    )
                )
        payload = repr(
            (fingerprint, [repr(c) for c in plan.centers], sorted(members))
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    @staticmethod
    def _encode_center_result(plan: _Plan, result) -> Dict[str, Any]:
        """JSON-able form of one center result.  Per-ball values are
        keyed by *metric name* (stable across runs) rather than request
        index (which depends on what the cache already served).
        """
        counts_at, group_contributions = result
        encoded_groups = []
        for group, contributions in zip(plan.groups, group_contributions):
            rid_to_name = {m.rid: m.name for m in group.members}
            encoded_groups.append(
                [
                    [
                        radius,
                        size,
                        [[rid_to_name[rid], value] for rid, value in values.items()],
                    ]
                    for radius, size, values in contributions
                ]
            )
        return {"counts": counts_at, "groups": encoded_groups}

    @staticmethod
    def _decode_center_result(plan: _Plan, stored) -> Optional[Tuple]:
        """Inverse of :meth:`_encode_center_result`; ``None`` if the
        stored payload does not match the current plan shape."""
        try:
            counts_at = stored["counts"]
            encoded_groups = stored["groups"]
            if len(encoded_groups) != len(plan.groups):
                return None
            group_contributions = []
            for group, contributions in zip(plan.groups, encoded_groups):
                name_to_rid = {m.name: m.rid for m in group.members}
                decoded = []
                for radius, size, values in contributions:
                    decoded.append(
                        (
                            int(radius),
                            int(size),
                            {name_to_rid[name]: value for name, value in values},
                        )
                    )
                group_contributions.append(decoded)
        except (KeyError, TypeError, ValueError):
            return None
        return counts_at, group_contributions

    def _attach_statuses(
        self,
        plans: List[_Plan],
        per_plan_statuses: List[List[CenterStatus]],
        pending: List[_Resolved],
        report: RunReport,
    ) -> None:
        rid_to_plan: Dict[int, int] = {}
        for pi, plan in enumerate(plans):
            for rid in plan.distance_rids:
                rid_to_plan[rid] = pi
            for group in plan.groups:
                for member in group.members:
                    rid_to_plan[member.rid] = pi
        for rid, res in enumerate(pending):
            name = res.request.name
            statuses = per_plan_statuses[rid_to_plan[rid]]
            report.metrics[name] = SeriesStatus(
                metric=name,
                source="computed",
                states=[status.state for status in statuses],
                errors=[status.error for status in statuses],
            )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _merge(
        self,
        ctx: _ComputeContext,
        plans: List[_Plan],
        per_plan_results,
        pending: List[_Resolved],
    ) -> None:
        n = ctx.csr.number_of_nodes()
        for plan, center_results in zip(plans, per_plan_results):
            # Centers whose retries a runtime policy exhausted arrive as
            # None: the series is averaged over the surviving centers
            # (the per-center status block records the gap).  On a
            # fault-free run this filter is the identity.
            surviving = [result for result in center_results if result is not None]
            if plan.distance_rids:
                per_center_counts = [counts for counts, _groups in surviving]
                for rid in plan.distance_rids:
                    res = pending[rid]
                    res.series = _expansion_series(
                        n,
                        per_center_counts,
                        len(surviving),
                        res.params["max_ball_size"],
                    )
            for gi, group in enumerate(plan.groups):
                accs: Dict[int, Dict[int, List[float]]] = {
                    member.rid: {} for member in group.members
                }
                for _counts, group_results in surviving:
                    for radius, size, values in group_results[gi]:
                        for rid, value in values.items():
                            bucket = accs[rid].setdefault(
                                radius, [0.0, 0.0, 0]
                            )
                            bucket[0] += size
                            bucket[1] += value
                            bucket[2] += 1
                for member in group.members:
                    acc = accs[member.rid]
                    series: Series = []
                    for radius in sorted(acc):
                        sum_n, sum_value, count = acc[radius]
                        series.append((sum_n / count, sum_value / count))
                    pending[member.rid].series = series
