"""The paper's claims at the benchmark's scale, checked on every change.

Section 4.4's signature table: the Low/High letters of expansion,
resilience and distortion on every default-scale registry topology, with
the benchmark suite's requests, must equal the paper's.  Each letter is
a threshold call, so every row also prints its statistic, the threshold
and the relative margin (run with ``-s`` to see them): a drift toward a
flip shows up before the flip does.  The margins are a report only.

Figure 2 (d–f)'s measured row: AS and RL expand exponentially, have high
resilience and low distortion, with and without policy routing; policy
"decreases" resilience and leaves distortion low.

Section 5.1's hierarchy classes: the link-value rank distribution of
each small-scale registry topology (the inputs of the ``paper-tables``
benchmark workload) must land in the paper's class.  "Accounting for
policy in computing the link values does not qualitatively alter our
groupings", so the AS graph stays moderate under policy routing.
"""

import functools
import math

import pytest

import repro.harness as harness
from repro.analysis import (
    HIGH,
    LOW,
    PAPER_SIGNATURES,
    ClassifierThresholds,
    classify_distortion,
    classify_expansion,
    classify_resilience,
)
from repro.engine import MetricEngine, MetricRequest
from repro.hierarchy import (
    classify_hierarchy,
    link_values,
    normalized_rank_distribution,
)
from repro.metrics.expansion import radius_to_reach

# The benchmark suite's Section 4.4 requests (benchmarks/conftest.py).
EXPANSION_CENTERS = 32
BALL_CENTERS = 6
MAX_BALL = 900

SEC44_ROWS = ("Mesh", "Random", "Tree", "AS", "RL", "PLRG", "Tiers", "TS", "Waxman")


@functools.lru_cache(maxsize=None)
def sec44_series(name, policy=False):
    """Expansion, resilience and distortion of one registry topology."""
    entry = harness.topology(name)
    rels = entry.relationships if policy else None
    requests = [
        MetricRequest("expansion", num_centers=EXPANSION_CENTERS, rels=rels, seed=1),
        MetricRequest(
            "resilience",
            num_centers=BALL_CENTERS,
            max_ball_size=MAX_BALL,
            rels=rels,
            seed=1,
        ),
        MetricRequest(
            "distortion",
            num_centers=BALL_CENTERS,
            max_ball_size=MAX_BALL,
            rels=rels,
            seed=1,
        ),
    ]
    return MetricEngine(use_cache=False).compute(entry.graph, requests)


def eligible(series, min_n, fallback):
    values = [v for n, v in series if n >= min_n]
    return values or [v for _n, v in series[fallback:]]


def margins(series, num_nodes, t=ClassifierThresholds()):
    """Per metric: (statistic, threshold, relative margin, letter it gives).

    The statistics are the ones the classifiers compare: half-reach
    radius against its budget, max R against the ceiling, mean D against
    the threshold.  A positive margin lies on the High side.
    """
    half = radius_to_reach(series["expansion"], 0.5)
    budget = t.expansion_ratio * math.log2(num_nodes)
    max_r = max(eligible(series["resilience"], t.resilience_min_n, 0))
    d = eligible(series["distortion"], t.distortion_min_n, -3)
    mean_d = sum(d) / len(d)
    return {
        "E": (half, budget, (budget - half) / budget, HIGH if half <= budget else LOW),
        "R": (
            max_r,
            t.resilience_ceiling,
            (max_r - t.resilience_ceiling) / t.resilience_ceiling,
            LOW if max_r < t.resilience_ceiling else HIGH,
        ),
        "D": (
            mean_d,
            t.distortion_threshold,
            (mean_d - t.distortion_threshold) / t.distortion_threshold,
            HIGH if mean_d >= t.distortion_threshold else LOW,
        ),
    }


def letters(series, num_nodes):
    return (
        classify_expansion(series["expansion"], num_nodes)
        + classify_resilience(series["resilience"])
        + classify_distortion(series["distortion"])
    )


@pytest.mark.parametrize("name", SEC44_ROWS)
def test_sec44_signature(name):
    series = sec44_series(name)
    n = harness.topology(name).graph.number_of_nodes()
    got = letters(series, n)
    report = margins(series, n)
    print()
    for metric, (stat, threshold, margin, letter) in report.items():
        print(
            f"{name:7s} {metric}={letter}  statistic {stat:8.3f}  "
            f"threshold {threshold:7.3f}  margin {margin:+.1%}"
        )
    # The printed statistics are the ones the classifiers decide on.
    assert "".join(letter for *_rest, letter in report.values()) == got
    assert got == PAPER_SIGNATURES[name]


def tail_max(points, min_n=150):
    return max(eligible(points, min_n, 0))


def tail_mean(points, min_n=150):
    values = eligible(points, min_n, -3)
    return sum(values) / len(values)


@pytest.mark.parametrize("name", ["AS", "RL"])
def test_fig2_measured_row_with_and_without_policy(name):
    n = harness.topology(name).graph.number_of_nodes()
    plain, policy = sec44_series(name), sec44_series(name, policy=True)
    # Figure 2 (d-f): E high, R high, D low, policy or not.
    assert letters(plain, n) == "HHL"
    assert letters(policy, n) == "HHL"
    # Policy reduces resilience's magnitude only...
    assert tail_max(policy["resilience"]) <= tail_max(plain["resilience"])
    # ...and keeps distortion low ("more so when policy routing is taken
    # into account").
    assert tail_mean(policy["distortion"]) <= tail_mean(plain["distortion"]) + 0.15


SEC51_CLASSES = [
    ("Tree", "strict", False),
    ("TS", "strict", False),
    ("Tiers", "strict", False),
    ("AS", "moderate", False),
    ("PLRG", "moderate", False),
    ("Waxman", "loose", False),
    ("AS", "moderate", True),
]


@pytest.mark.parametrize("name, expected, policy", SEC51_CLASSES)
def test_sec51_hierarchy_class(name, expected, policy):
    entry = harness.topology(name, scale="small")
    rels = entry.relationships if policy else None
    values = link_values(entry.graph, rels=rels, seed=1)
    distribution = normalized_rank_distribution(
        values, entry.graph.number_of_nodes()
    )
    assert classify_hierarchy(distribution) == expected
