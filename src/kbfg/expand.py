"""Label-agnostic feature generation by relational expansion.

For every existing feature, every relation that covers enough of its
observed values spawns new features: function relations compose directly,
other relations spawn one binary aggregator feature per codomain value
actually observed through the lookups.  Restricting the enumeration to
observed codomain values keeps the output finite on large knowledge bases
while preserving every feature distinguishable on the training data.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from kbfg.aggregators import FAMILIES, AggregatorInstance
from kbfg.data import Dataset
from kbfg.features import Feature, RelationFeature, evaluate_feature
from kbfg.kb import KnowledgeBase, Relation
from kbfg.values import iter_atoms


def observed_values(ds: Dataset, feature: Feature, kb: KnowledgeBase) -> List[str]:
    """Distinct tokens the feature takes over the dataset (set members unpacked)."""
    seen: Set[str] = set()
    for x in ds.examples:
        seen.update(iter_atoms(evaluate_feature(feature, x, kb)))
    return sorted(seen)


def expand_features(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                    family: str = "any", coverage_threshold: float = 1.0) -> List[Feature]:
    """One pass of relational expansion over `features`.

    Output order is deterministic: input feature order, then relation name,
    then codomain value.  Duplicate generated names are emitted once.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown aggregator family {family!r}")
    if not 0 < coverage_threshold <= 1:
        raise ValueError("coverage_threshold must be in (0, 1]")
    generated: List[Feature] = []
    seen_names: Set[str] = set()
    for f in features:
        values = observed_values(ds, f, kb)
        if not values:
            continue
        for rel in kb.applicable_relations(values, coverage_threshold):
            for new in _expand_one(f, rel, values, kb, family):
                if new.name not in seen_names:
                    seen_names.add(new.name)
                    generated.append(new)
    return generated


def _expand_one(f: Feature, rel: Relation, values: List[str], kb: KnowledgeBase,
                family: str) -> List[Feature]:
    if rel.is_function:
        return [RelationFeature(f, rel.name)]
    codomain: Set[str] = set()
    for v in values:
        codomain.update(rel.index.get(v, ()))
    return [RelationFeature(f, rel.name, AggregatorInstance(family, target))
            for target in sorted(codomain)]
