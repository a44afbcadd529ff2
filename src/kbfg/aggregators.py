"""Aggregation families turning multi-valued lookups into binary indicators.

Two families are supported.  ``any`` fires when the target value occurs at
all.  ``majority`` fires when the target value has maximal multiplicity and
is the lexicographically smallest among the maxima, so that exactly one
target fires per non-empty multiset and the resulting feature group forms a
partition.

``fired_targets`` gives every target that fires on one multiset.  It is
the one test of an aggregator, with no per-target form: evaluating one
indicator feature asks whether its target is in that set, and
``materialize`` fills all the indicator columns of one ``majority`` family
(inner feature, relation, family) from one such set per distinct inner
value, fired on that value's rows.  An ``any`` set is every object looked
up, so ``any`` distributes over the tokens and ``materialize`` fills an
``any`` family from one index read per covered token: each object fires on
the rows of the tokens paired with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable

FAMILIES = ("majority", "any")


def fired_targets(family: str, values: Iterable[str]) -> FrozenSet[str]:
    """The targets whose `family` aggregator fires on the multiset `values`.

    ``any`` fires at every value present.  ``majority`` fires at the one
    value of maximal multiplicity, ties resolved to the lexicographically
    smallest, so it fires at exactly one target on non-empty input.  Empty
    input fires nothing.  This is the one place the semantics live: a
    single aggregator feature and a whole family of them read the same set.
    """
    if family == "any":
        return frozenset(values)
    counts = Counter(values)
    if not counts:
        return frozenset()
    top = max(counts.values())
    return frozenset((min(val for val, c in counts.items() if c == top),))


@dataclass(frozen=True)
class AggregatorInstance:
    """One concrete binary aggregator: a family applied at a target value."""

    family: str
    value: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown aggregator family {self.family!r}")

    def to_json(self) -> dict:
        return {"family": self.family, "value": self.value}

