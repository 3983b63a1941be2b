"""The paper's claims at the benchmark's scale, checked on every change.

Section 5.1's hierarchy classes: the link-value rank distribution of
each small-scale registry topology (the inputs of the ``paper-tables``
benchmark workload) must land in the paper's class.  "Accounting for
policy in computing the link values does not qualitatively alter our
groupings", so the AS graph stays moderate under policy routing.
"""

import pytest

import repro.harness as harness
from repro.hierarchy import (
    classify_hierarchy,
    link_values,
    normalized_rank_distribution,
)

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
