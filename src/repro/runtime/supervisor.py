"""The engine's task executor: deadlines, retries, pool respawn,
graceful degradation.

The :class:`Supervisor` runs every per-center task of every
:class:`~repro.engine.MetricEngine` pass, serially or on a process pool.
Without a :class:`RuntimePolicy` it is fail-fast: one attempt per task,
no deadline, and the first task exception propagates unchanged after
the pool is torn down.  Under a policy it survives the ways long
computations actually die:

* **Per-center deadlines.**  Waiting on a task is bounded by
  ``RuntimePolicy.deadline``; a hung worker is killed with its pool and
  the task retried on a fresh pool.
* **Retry with exponential backoff.**  Worker crashes, garbage results
  (every result passes a shape/NaN validator) and deadline expiries are
  retried up to ``retries`` times, sleeping ``backoff * factor**attempt``
  between waves.
* **``BrokenProcessPool`` recovery.**  An OOM-killed worker breaks the
  whole pool and poisons every in-flight future; the supervisor records
  a *strike* against each unfinished task, respawns the pool, and
  resubmits.  After ``strikes`` pool breaks a task is degraded to
  **serial in-process execution** — a deterministic fault there fails
  only its own task instead of taking the pool down again.
* **Graceful degradation.**  A task whose retries are exhausted is
  returned as ``None`` with a ``timeout``/``failed``
  :class:`~repro.runtime.status.CenterStatus`; the engine averages the
  surviving centers and surfaces the status block instead of aborting.

The supervisor is generic over the compute callable so that
:mod:`repro.engine` can depend on it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor, wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime import faults as faults_mod
from repro.runtime.faults import FaultPlan, InjectedHang, apply_fault
from repro.runtime.status import (
    STATE_FAILED,
    STATE_OK,
    STATE_RETRIED,
    STATE_TIMEOUT,
    CenterStatus,
)

Task = Tuple[int, int]  # (plan index, center index)


@dataclasses.dataclass
class RuntimePolicy:
    """Knobs of the fault-tolerant runtime.

    ``deadline`` is the per-center wall-clock budget while the run is
    waiting on that center (``None`` disables timeouts); ``retries`` is
    the number of *re*-attempts after the first; ``strikes`` is how many
    pool breaks a task survives before being degraded to serial
    execution; ``faults`` optionally injects deterministic faults (else
    the ``REPRO_FAULTS`` environment variable is consulted).
    """

    deadline: Optional[float] = 120.0
    retries: int = 2
    backoff: float = 0.1
    backoff_factor: float = 2.0
    strikes: int = 2
    faults: Optional[FaultPlan] = None

    def backoff_for(self, attempt: int) -> float:
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (self.backoff_factor ** max(0, attempt - 1))


class GarbageResultError(RuntimeError):
    """A task returned a result that failed shape/NaN validation."""


def validate_center_result(result: Any) -> bool:
    """Shape-check one center result before it can poison an average.

    Expected: ``(counts_at, group_contributions)`` where ``counts_at``
    is ``None`` or a list of non-negative ints and each group
    contribution is ``(radius:int, size:int, {rid:int -> finite float})``.
    """
    try:
        counts_at, groups = result
    except (TypeError, ValueError):
        return False
    if counts_at is not None:
        if not isinstance(counts_at, (list, tuple)):
            return False
        for count in counts_at:
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                return False
    if not isinstance(groups, (list, tuple)):
        return False
    for contributions in groups:
        if not isinstance(contributions, (list, tuple)):
            return False
        for entry in contributions:
            try:
                radius, size, values = entry
            except (TypeError, ValueError):
                return False
            if not isinstance(radius, int) or not isinstance(size, int):
                return False
            if not isinstance(values, dict):
                return False
            for value in values.values():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    return False
                if value != value or value in (float("inf"), float("-inf")):
                    return False
    return True


# ----------------------------------------------------------------------
# Worker-side plumbing.  The pool initializer pins the compute callable,
# graph, plans and fault plan once per worker; tasks then ship only
# small index tuples.
# ----------------------------------------------------------------------

_W_COMPUTE: Optional[Callable] = None
_W_GRAPH: Any = None
_W_PLANS: Any = None
_W_FAULTS: Optional[FaultPlan] = None


def _init_worker(compute, graph, plans, fault_text: str) -> None:
    global _W_COMPUTE, _W_GRAPH, _W_PLANS, _W_FAULTS
    _W_COMPUTE = compute
    _W_GRAPH = graph
    _W_PLANS = plans
    _W_FAULTS = FaultPlan.parse(fault_text) if fault_text else None


def _run_in_worker(task: Tuple[int, int, int, Tuple[str, ...]]):
    pi, ci, attempt, metric_names = task
    if _W_FAULTS is not None:
        spec = _W_FAULTS.find(metric_names, ci, attempt)
        if spec is not None:
            injected = apply_fault(spec, in_worker=True)
            if spec.kind == "garbage":
                return injected
    return _W_COMPUTE(_W_GRAPH, _W_PLANS[pi], ci)


class Supervisor:
    """The engine's one executor for per-center tasks.

    Tasks run supervised under a :class:`RuntimePolicy`, or fail-fast
    when ``policy`` is ``None``.  ``compute`` is the serial per-task
    callable ``(graph, plan, ci) -> result`` (the engine passes its
    per-center function, ``MetricEngine._center_task``); it must be a
    module-level function so worker processes can unpickle it.

    Whatever the policy, a pool that finished its tasks is joined before
    :meth:`run` returns; any other exit (a task exception under
    fail-fast, Ctrl-C, a failed respawn) kills it without waiting.
    """

    def __init__(
        self,
        policy: Optional[RuntimePolicy],
        workers: int,
        compute: Callable,
    ):
        self.fail_fast = policy is None
        if policy is None:
            policy = RuntimePolicy(deadline=None, retries=0, backoff=0.0)
        self.policy = policy
        self.workers = int(workers)
        self.compute = compute
        self.faults = (
            policy.faults if policy.faults is not None else faults_mod.plan_from_env()
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Any,
        plans: Sequence[Any],
        tasks: Sequence[Task],
        metric_names: Sequence[Tuple[str, ...]],
        preloaded: Optional[Dict[int, Any]] = None,
        on_done: Optional[Callable[[int, Any], None]] = None,
    ) -> Tuple[List[Any], List[CenterStatus]]:
        """Execute ``tasks``; returns (results, statuses) aligned with
        ``tasks``.  Failed tasks yield ``None`` results.

        ``metric_names[pi]`` names the metrics plan ``pi`` computes (for
        fault matching); ``preloaded`` maps task indices to journaled
        results that must not be recomputed; ``on_done`` is called once
        per freshly computed success (the engine journals there).
        """
        results: List[Any] = [None] * len(tasks)
        statuses = [CenterStatus() for _ in tasks]
        todo: List[int] = []
        for index in range(len(tasks)):
            if preloaded and index in preloaded:
                results[index] = preloaded[index]
            else:
                todo.append(index)
        if not todo:
            return results, statuses
        if self.workers > 0 and len(todo) > 1:
            self._run_parallel(
                graph, plans, tasks, metric_names, todo, results, statuses, on_done
            )
        else:
            for index in todo:
                self._run_one_serial(
                    graph, plans, tasks, metric_names, index, results, statuses, on_done
                )
        return results, statuses

    # ------------------------------------------------------------------
    # Serial execution (also the degraded path for striked tasks)
    # ------------------------------------------------------------------
    def _run_one_serial(
        self, graph, plans, tasks, metric_names, index, results, statuses, on_done
    ) -> None:
        policy = self.policy
        pi, ci = tasks[index]
        status = statuses[index]
        last_error: Optional[str] = None
        last_state = STATE_FAILED
        for attempt in range(policy.retries + 1):
            status.attempts = attempt + 1
            try:
                spec = (
                    self.faults.find(metric_names[pi], ci, attempt)
                    if self.faults is not None
                    else None
                )
                if spec is not None:
                    result = apply_fault(spec, in_worker=False)
                    if spec.kind != "garbage":  # hang/crash raise above
                        result = self.compute(graph, plans[pi], ci)
                else:
                    result = self.compute(graph, plans[pi], ci)
                if not validate_center_result(result):
                    raise GarbageResultError(
                        f"center {ci} of plan {pi} returned a malformed result"
                    )
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                if self.fail_fast:
                    raise
                last_error = str(exc)
                last_state = (
                    STATE_TIMEOUT if isinstance(exc, InjectedHang) else STATE_FAILED
                )
            else:
                status.state = STATE_RETRIED if attempt > 0 else STATE_OK
                results[index] = result
                if on_done is not None:
                    on_done(index, result)
                return
            if attempt < policy.retries:
                delay = policy.backoff_for(attempt + 1)
                if delay:
                    time.sleep(delay)
        status.state = last_state
        status.error = last_error

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def _spawn_pool(self, graph, plans, fault_text, n_tasks):
        try:
            return ProcessPoolExecutor(
                max_workers=min(self.workers, n_tasks),
                initializer=_init_worker,
                initargs=(self.compute, graph, plans, fault_text),
            )
        except (OSError, PermissionError):  # pragma: no cover - sandboxes
            return None

    def _kill_pool(self, pool) -> None:
        """Tear a pool down *now*, hung workers included."""
        processes = []
        manager = None
        try:
            processes = list(getattr(pool, "_processes", {}).values())
            manager = getattr(pool, "_executor_manager_thread", None)
        except Exception:  # pragma: no cover - executor internals moved
            pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover
                pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:  # pragma: no cover
                pass
        # The executor's manager thread reaps the same workers.  When it
        # wins the race to ``waitpid``, our join returns before the exit
        # code is recorded and the dead worker still shows up in
        # ``multiprocessing.active_children()``; wait for the thread so
        # every worker is reaped on return.
        if manager is not None:
            try:
                manager.join(timeout=1.0)
            except Exception:  # pragma: no cover
                pass

    def _run_parallel(
        self, graph, plans, tasks, metric_names, todo, results, statuses, on_done
    ) -> None:
        policy = self.policy
        fault_text = self.faults.to_text() if self.faults is not None else ""
        attempts: Dict[int, int] = {i: 0 for i in todo}
        strikes: Dict[int, int] = {i: 0 for i in todo}
        pool = None
        try:
            while todo:
                # Tasks that broke (or were suspected of breaking) the
                # pool too often run serially in-process: a fault there
                # is attributable and cannot take the pool down.
                degraded = [i for i in todo if strikes[i] >= policy.strikes]
                if degraded:
                    for index in degraded:
                        self._run_one_serial(
                            graph, plans, tasks, metric_names,
                            index, results, statuses, on_done,
                        )
                    remaining = set(degraded)
                    todo = [i for i in todo if i not in remaining]
                    continue
                if pool is None:
                    pool = self._spawn_pool(graph, plans, fault_text, len(todo))
                    if pool is None:
                        # Subprocesses unavailable: everything serial.
                        for index in todo:
                            self._run_one_serial(
                                graph, plans, tasks, metric_names,
                                index, results, statuses, on_done,
                            )
                        return
                futures = {}
                for index in todo:
                    pi, ci = tasks[index]
                    futures[index] = pool.submit(
                        _run_in_worker,
                        (pi, ci, attempts[index], tuple(metric_names[pi])),
                    )
                next_todo: List[int] = []
                dead_pool = False
                for index in todo:
                    future = futures[index]
                    status = statuses[index]
                    if dead_pool and not future.done():
                        # In-flight work lost with the pool through no
                        # fault of its own: requeue penalty-free.
                        next_todo.append(index)
                        continue
                    # Wait first, then read: a task that itself raises
                    # ``TimeoutError`` (``concurrent.futures.TimeoutError``
                    # on 3.11+) is a task error, not an expired deadline.
                    if not future.done():
                        wait_futures([future], timeout=policy.deadline)
                    if not future.done():
                        attempts[index] += 1
                        status.attempts = attempts[index]
                        if attempts[index] > policy.retries:
                            status.state = STATE_TIMEOUT
                            status.error = (
                                f"no result within {policy.deadline:g}s "
                                f"deadline after {attempts[index]} attempts"
                            )
                        else:
                            next_todo.append(index)
                        dead_pool = True  # a worker is stuck; kill the pool
                        continue
                    try:
                        result = future.result()
                        if not validate_center_result(result):
                            raise GarbageResultError(
                                "returned a malformed (garbage) result"
                            )
                    except BrokenProcessPool as exc:
                        if self.fail_fast:
                            raise
                        # Culprit unknown: strike every task poisoned by
                        # this break.  Innocents finish on the respawned
                        # pool long before their strikes run out.
                        strikes[index] += 1
                        status.error = str(exc) or "process pool broke"
                        next_todo.append(index)
                        dead_pool = True
                        continue
                    except Exception as exc:  # noqa: BLE001 - task raised
                        if self.fail_fast:
                            raise
                        attempts[index] += 1
                        status.attempts = attempts[index]
                        if attempts[index] > policy.retries:
                            status.state = STATE_FAILED
                            status.error = str(exc)
                        else:
                            next_todo.append(index)
                        continue
                    status.attempts = attempts[index] + 1
                    status.state = (
                        STATE_RETRIED
                        if (attempts[index] or strikes[index])
                        else STATE_OK
                    )
                    results[index] = result
                    if on_done is not None:
                        on_done(index, result)
                if dead_pool:
                    self._kill_pool(pool)
                    pool = None
                    if next_todo:
                        delay = policy.backoff_for(
                            max(attempts[i] for i in next_todo) or 1
                        )
                        if delay:
                            time.sleep(delay)
                todo = next_todo
            if pool is not None:
                pool.shutdown(wait=True)  # fault-free end: join the workers
        except BaseException:
            # Fail-fast task exceptions, Ctrl-C and failed respawns must
            # not orphan workers: stop now, hung ones included.
            if pool is not None:
                self._kill_pool(pool)
            raise
