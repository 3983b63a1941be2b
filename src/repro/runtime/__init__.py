"""Fault-tolerant runtime: supervision, checkpointing, fault injection.

Long metric sweeps die in boring ways — a hung resilience cut, an
OOM-killed worker, a truncated cache file, a Ctrl-C at hour three.  This
package makes :class:`repro.engine.MetricEngine` (and the sweep/report
harness on top of it) survive partial failure and resume instead of
restarting:

* :class:`Supervisor` / :class:`RuntimePolicy` — the engine's one
  executor: fail-fast without a policy; under one, per-center
  deadlines, retry with exponential backoff, ``BrokenProcessPool``
  respawn, and degradation of repeat offenders to serial execution;
* :class:`Journal` — an append-only checksummed JSONL checkpoint of
  completed (graph, metric, center) results powering ``--resume``;
* :mod:`repro.runtime.shards` — partitioned sweeps: a deterministic
  row partitioner, per-shard journal segments guarded by heartbeat
  lease files (:class:`ShardLease`), and a crash-safe merge
  (:func:`merge_segments`) that reassembles a canonical journal
  byte-identical to an unsharded run;
* :mod:`repro.runtime.shm` — zero-copy shared-memory worker transport:
  :func:`publish` puts a frozen graph's CSR arrays in one
  ``/dev/shm`` segment that workers :func:`attach` to by name, with
  refcounted unlink and a copy-transport fallback;
* :class:`FaultPlan` / ``REPRO_FAULTS`` — deterministic fault injection
  (crash / hang / garbage) so every recovery path is exercised in tests
  and CI chaos runs;
* :class:`RunReport` / :class:`SeriesStatus` — per-center
  ``ok|retried|timeout|failed`` provenance attached to every computed
  series, surfaced in reports and exports.

See ``docs/ROBUSTNESS.md`` for the full semantics.
"""

from repro.runtime.faults import (
    ENV_VAR as FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedHang,
    apply_fault,
    plan_from_env,
)
from repro.runtime.drain import DrainSignal
from repro.runtime.journal import Journal, as_journal, read_journal_records
from repro.runtime.shards import (
    DEFAULT_STALE_AFTER,
    LeaseHeldError,
    LeaseInfo,
    ManifestError,
    MergeReport,
    SegmentInfo,
    ShardLease,
    assign_shard,
    manifest_path,
    merge_segments,
    read_manifest,
    shard_lease_path,
    shard_report_path,
    shard_segment_path,
    write_manifest,
)
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    SegmentHandle,
    SharedGraph,
    active_segments,
    attach,
    publish,
    stray_segments,
)
from repro.runtime.status import (
    CenterStatus,
    RunReport,
    SeriesStatus,
    STATE_FAILED,
    STATE_OK,
    STATE_RETRIED,
    STATE_TIMEOUT,
)
from repro.runtime.supervisor import (
    GarbageResultError,
    RuntimePolicy,
    Supervisor,
    validate_center_result,
)

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedHang",
    "apply_fault",
    "plan_from_env",
    "DrainSignal",
    "Journal",
    "as_journal",
    "read_journal_records",
    "DEFAULT_STALE_AFTER",
    "LeaseHeldError",
    "LeaseInfo",
    "ManifestError",
    "MergeReport",
    "SegmentInfo",
    "ShardLease",
    "assign_shard",
    "manifest_path",
    "merge_segments",
    "read_manifest",
    "shard_lease_path",
    "shard_report_path",
    "shard_segment_path",
    "write_manifest",
    "SEGMENT_PREFIX",
    "SegmentHandle",
    "SharedGraph",
    "active_segments",
    "attach",
    "publish",
    "stray_segments",
    "CenterStatus",
    "RunReport",
    "SeriesStatus",
    "STATE_OK",
    "STATE_RETRIED",
    "STATE_TIMEOUT",
    "STATE_FAILED",
    "GarbageResultError",
    "RuntimePolicy",
    "Supervisor",
    "validate_center_result",
]
