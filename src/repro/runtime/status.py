"""Per-center execution status: the provenance of every series.

When retries are exhausted the engine returns *partial* series rather
than aborting — so every computed series carries a status block saying,
center by center, whether the value came from a clean computation
(``ok``), a recovered failure (``retried``), an expired deadline
(``timeout``), or exhausted retries (``failed``, that center excluded
from the averages).  Reports and exports surface these blocks so a
partial series can never be mistaken for a complete one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

#: Per-center states, in increasing order of severity.
STATE_OK = "ok"
STATE_RETRIED = "retried"
STATE_TIMEOUT = "timeout"
STATE_FAILED = "failed"

#: States whose center still contributed a result.
SUCCESS_STATES = (STATE_OK, STATE_RETRIED)


@dataclasses.dataclass
class CenterStatus:
    """Outcome of one (plan, center) task."""

    state: str = STATE_OK
    attempts: int = 0
    error: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.state in SUCCESS_STATES


@dataclasses.dataclass
class SeriesStatus:
    """Outcome of one metric's series.

    ``source`` records where the series came from: ``computed`` (this
    run, with one entry in ``states`` per center) or ``cache`` (the
    on-disk series cache).
    """

    metric: str
    source: str = "computed"  # computed | cache
    states: List[str] = dataclasses.field(default_factory=list)
    errors: List[Optional[str]] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(state in SUCCESS_STATES for state in self.states)

    @property
    def complete(self) -> bool:
        """True when no center had to be dropped from the averages."""
        return self.ok

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for state in self.states:
            out[state] = out.get(state, 0) + 1
        return out

    def summary(self) -> str:
        if self.source == "cache":
            return "cached"
        if not self.states:
            return "ok"
        counts = self.counts
        if set(counts) == {STATE_OK}:
            return f"ok ({counts[STATE_OK]} centers)"
        return ", ".join(
            f"{counts[state]} {state}"
            for state in (STATE_OK, STATE_RETRIED, STATE_TIMEOUT, STATE_FAILED)
            if state in counts
        )


@dataclasses.dataclass
class RunReport:
    """Status of every metric in one ``MetricEngine.compute`` call."""

    metrics: Dict[str, SeriesStatus] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(status.ok for status in self.metrics.values())

    @property
    def degraded_metrics(self) -> List[str]:
        """Metrics whose series are partial (some center dropped)."""
        return [name for name, status in self.metrics.items() if not status.ok]

    def summary(self) -> str:
        if not self.metrics:
            return "ok"
        return "; ".join(
            f"{name}: {status.summary()}"
            for name, status in self.metrics.items()
        )

    def to_payload(self) -> Dict[str, Dict]:
        """JSON-able form for exports (see ``write_series_json``)."""
        return {
            name: {
                "source": status.source,
                "states": list(status.states),
                "errors": [e for e in status.errors if e] or [],
                "complete": status.complete,
            }
            for name, status in self.metrics.items()
        }
