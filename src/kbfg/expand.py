"""Label-agnostic feature generation by relational expansion.

``relation_features`` is the relational step both generators share:
function relations compose directly onto a feature, other relations spawn
one binary aggregator feature per codomain value actually reached from the
feature's observed values.  ``expand_features`` takes it for every existing
feature, and the recursive generator for every derived problem, with the
coverage threshold and aggregator family of one ``GenerationConfig``.
Restricting the enumeration to reached codomain values keeps the output
finite on large knowledge bases while preserving every feature
distinguishable on the training data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Set

from kbfg.aggregators import AggregatorInstance
from kbfg.data import Dataset
from kbfg.features import Feature, RelationFeature, evaluate_feature
from kbfg.kb import KnowledgeBase, Relation
from kbfg.values import iter_atoms

if TYPE_CHECKING:  # recursive imports this module
    from kbfg.recursive import GenerationConfig


def observed_values(ds: Dataset, feature: Feature, kb: KnowledgeBase) -> List[str]:
    """Distinct tokens the feature takes over the dataset (set members unpacked)."""
    seen: Set[str] = set()
    for x in ds.examples:
        seen.update(iter_atoms(evaluate_feature(feature, x, kb)))
    return sorted(seen)


def relation_features(f: Feature, values: Sequence[str], relations: Sequence[Relation],
                      family: str) -> List[Feature]:
    """The features `relations` spawn over `f`, in their order: a function
    relation composes onto `f`, any other gives one `family` indicator per
    target reached from `f`'s `values`, in target order."""
    out: List[Feature] = []
    for rel in relations:
        if rel.is_function:
            out.append(RelationFeature(f, rel.name))
        else:
            targets = set().union(*(rel.index.get(v, ()) for v in values))
            out.extend(RelationFeature(f, rel.name, AggregatorInstance(family, target))
                       for target in sorted(targets))
    return out


def expand_features(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                    cfg: GenerationConfig) -> List[Feature]:
    """One pass of relational expansion over `features`.

    Output order is deterministic: input feature order, then relation name,
    then codomain value.  Duplicate generated names are emitted once.
    """
    generated: List[Feature] = []
    seen_names: Set[str] = set()
    for f in features:
        values = observed_values(ds, f, kb)
        if not values:
            continue
        rels = kb.applicable_relations(values, cfg.coverage_threshold)
        for new in relation_features(f, values, rels, cfg.aggregator_family):
            if new.name not in seen_names:
                seen_names.add(new.name)
                generated.append(new)
    return generated
