"""Aggregation families turning multi-valued lookups into binary indicators.

Two families are supported.  ``any`` fires when the target value occurs at
all.  ``majority`` fires when the target value has maximal multiplicity and
is the lexicographically smallest among the maxima, so that exactly one
target fires per non-empty multiset and the resulting feature group forms a
partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

FAMILIES = ("majority", "any")


def majority_aggregate(values: Iterable[str], v: str) -> int:
    """1 iff `v` is the unique designated majority element of the multiset.

    Ties between equally frequent values resolve to the lexicographically
    smallest, so summing over all targets gives exactly 1 on non-empty
    input.  Empty input yields 0 for every target.
    """
    counts = Counter(values)
    if not counts:
        return 0
    top = max(counts.values())
    winner = min(val for val, c in counts.items() if c == top)
    return int(v == winner)


def any_aggregate(values: Iterable[str], v: str) -> int:
    """1 iff `v` occurs in the multiset at all."""
    return int(v in set(values))


@dataclass(frozen=True)
class AggregatorInstance:
    """One concrete binary aggregator: a family applied at a target value."""

    family: str
    value: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown aggregator family {self.family!r}")

    def apply(self, values: Iterable[str]) -> int:
        if self.family == "majority":
            return majority_aggregate(values, self.value)
        return any_aggregate(values, self.value)

    def to_json(self) -> dict:
        return {"family": self.family, "value": self.value}

