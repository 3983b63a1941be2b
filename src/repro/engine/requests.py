"""Metric requests and the engine's metric registry.

Every large-scale metric in the paper is defined over the same family of
ball subgraphs (Section 3.2.1): grow a ball of radius h around a center,
evaluate a quantity on the induced subgraph, average per radius.  The
registry below captures each metric as a :class:`MetricSpec` so the
:class:`repro.engine.MetricEngine` can grow each center's balls **once**
and evaluate every requested metric against the shared subgraph.

Two kinds of metric exist:

``distance``
    Needs only the per-center distance map (expansion: count nodes within
    radius h).  No subgraph is ever materialised.

``ball``
    Needs the induced ball subgraph at every radius (resilience,
    distortion, vertex cover, biconnectivity, clustering, path length).

Every ball metric has exactly one production evaluator.  The four whose
inner loops have CSR kernels (resilience, distortion, vertex cover,
biconnectivity) have a ``batch_evaluator`` that takes one center's whole
radius schedule as a :class:`~repro.graph.kernels.FusedBatch`, plain or
policy-induced; clustering and path length have a dict ``evaluator``
that the engine runs on each ball's thawed sub-CSR.  The dict twins of
the four kernel metrics are test oracles only: they live in the
evaluator table of :class:`repro.testing.OracleEngine`.

The registry also records each metric's legacy keyword defaults and its
random-number protocol, so the engine reproduces the legacy per-metric
functions exactly (same centers, same floats) — see
:mod:`repro.engine.core` for the determinism contract.
"""

from __future__ import annotations

import dataclasses
import numbers
import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.graph.core import Graph
from repro.graph.kernels import (
    FusedBatch,
    batch_biconnected_counts,
    batch_vertex_cover_sizes,
)
from repro.graph.kernels_flow import resilience_csr_batch
from repro.graph.kernels_trees import distortion_csr_batch
from repro.metrics.clustering import clustering_coefficient
from repro.metrics.pathlength import average_ball_path_length

# A per-ball evaluator: (ball subgraph, per-center RNG or None, params).
Evaluator = Callable[[Graph, Optional[random.Random], Mapping[str, Any]], float]

# A fused batch evaluator: (whole fused batch, per-center RNG or None,
# params) -> one float per ball, aligned with the batch's schedule.
BatchEvaluator = Callable[
    [FusedBatch, Optional[random.Random], Mapping[str, Any]], List[float]
]


# Integer parameters and their least valid value (``max_ball_size`` may
# also be ``None``: no cap).
_INT_PARAMS = (
    ("num_centers", 0),
    ("min_ball_size", 0),
    ("max_ball_size", 0),
    ("trials", 1),
)


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """How the engine computes one named metric.

    A ball metric sets exactly one of its two evaluators.
    ``batch_evaluator`` evaluates one center's *whole* fused radius
    schedule in a single call and returns one float per ball;
    ``evaluator`` evaluates one dict-of-sets ball.  A batch evaluator
    must return the same floats as its dict twin (the oracle evaluator
    table, :data:`repro.testing.oracles.ORACLE_EVALUATORS`) mapped over
    the thawed balls with the same rng — the ``kernels`` selfcheck
    family, ``tests/test_kernels_metrics.py`` and
    ``tests/test_fused_batch.py`` enforce it.
    """

    name: str
    kind: str  # "distance" | "ball"
    uses_rng: bool
    defaults: Tuple[Tuple[str, Any], ...]
    evaluator: Optional[Evaluator] = None
    batch_evaluator: Optional[BatchEvaluator] = None

    def resolve_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults merged with ``overrides``.

        Unknown keys and shared parameters of the wrong type raise
        ``TypeError``; out-of-range values raise ``ValueError``.  Values
        are never coerced, so a valid request keeps its cache key.
        """
        params = dict(self.defaults)
        allowed = set(params)
        unknown = set(overrides) - allowed
        if unknown:
            raise TypeError(
                f"metric {self.name!r} got unexpected parameters "
                f"{sorted(unknown)}; accepts {sorted(allowed)}"
            )
        params.update(overrides)
        for key, low in _INT_PARAMS:
            if key not in params or (key == "max_ball_size" and params[key] is None):
                continue
            value = params[key]
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"metric {self.name!r}: {key} must be an integer, "
                    f"got {value!r}"
                )
            if value < low:
                raise ValueError(
                    f"metric {self.name!r}: {key} must be at least {low}, "
                    f"got {value}"
                )
        seed = params.get("seed")
        if seed is not None and (
            isinstance(seed, bool)
            or not isinstance(seed, (int, str, random.Random))
        ):
            raise TypeError(
                f"metric {self.name!r}: seed must be None, an int, a str "
                f"or a random.Random, got {seed!r}"
            )
        centers = params.get("centers")
        if centers is not None and not isinstance(centers, (list, tuple)):
            raise TypeError(
                f"metric {self.name!r}: centers must be None or a list of "
                f"nodes, got {centers!r}"
            )
        return params


def _eval_clustering(ball, rng, params):
    return clustering_coefficient(ball)


def _eval_path_length(ball, rng, params):
    return average_ball_path_length(ball)


def _batch_resilience(fused, rng, params):
    return resilience_csr_batch(fused, rng=rng, trials=params["trials"])


def _batch_distortion(fused, rng, params):
    return distortion_csr_batch(fused, rng=rng)


def _batch_vertex_cover(fused, rng, params):
    return [float(size) for size in batch_vertex_cover_sizes(fused)]


def _batch_biconnectivity(fused, rng, params):
    return [float(count) for count in batch_biconnected_counts(fused)]


# The shared kwargs contract (see docs/API.md "Series function contract"):
# every ball-growing metric accepts num_centers / centers / max_ball_size
# / rels / seed; extras (trials, min_ball_size) are metric-specific.
def _ball_defaults(num_centers: int, max_ball_size: Optional[int], **extra):
    base = (
        ("num_centers", num_centers),
        ("centers", None),
        ("max_ball_size", max_ball_size),
        ("min_ball_size", 3),
        ("rels", None),
        ("seed", None),
    )
    return base + tuple(sorted(extra.items()))


METRICS: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        MetricSpec(
            name="expansion",
            kind="distance",
            uses_rng=False,
            defaults=(
                ("num_centers", 48),
                ("centers", None),
                ("max_ball_size", None),
                ("rels", None),
                ("seed", None),
            ),
        ),
        MetricSpec(
            name="resilience",
            kind="ball",
            uses_rng=True,
            defaults=_ball_defaults(10, 1500, trials=3),
            batch_evaluator=_batch_resilience,
        ),
        MetricSpec(
            name="distortion",
            kind="ball",
            uses_rng=True,
            defaults=_ball_defaults(10, 1500),
            batch_evaluator=_batch_distortion,
        ),
        MetricSpec(
            name="vertex_cover",
            kind="ball",
            uses_rng=False,
            defaults=_ball_defaults(10, 2500),
            batch_evaluator=_batch_vertex_cover,
        ),
        MetricSpec(
            name="biconnectivity",
            kind="ball",
            uses_rng=False,
            defaults=_ball_defaults(10, 2500),
            batch_evaluator=_batch_biconnectivity,
        ),
        MetricSpec(
            name="clustering",
            kind="ball",
            uses_rng=False,
            defaults=_ball_defaults(10, 2500),
            evaluator=_eval_clustering,
        ),
        MetricSpec(
            name="path_length",
            kind="ball",
            uses_rng=False,
            defaults=_ball_defaults(8, 1500),
            evaluator=_eval_path_length,
        ),
    )
}


class MetricRequest:
    """One metric to evaluate, with optional parameter overrides.

    >>> MetricRequest("resilience", num_centers=6, max_ball_size=900)
    MetricRequest('resilience', max_ball_size=900, num_centers=6)

    Parameters may be given as a mapping or as keyword arguments; unknown
    parameter names raise ``TypeError`` immediately.
    """

    __slots__ = ("name", "params")

    def __init__(
        self,
        name: str,
        params: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ):
        if name not in METRICS:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(METRICS)}"
            )
        merged: Dict[str, Any] = dict(params or {})
        merged.update(kwargs)
        # Validate parameter names eagerly (values are checked at compute
        # time, where the graph is known).
        METRICS[name].resolve_params(merged)
        self.name = name
        self.params = merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = "".join(
            f", {k}={self.params[k]!r}" for k in sorted(self.params)
        )
        return f"MetricRequest({self.name!r}{args})"
