"""Label-agnostic feature generation by relational expansion.

``relation_features`` is the relational step both generators share: the
relations covering a feature's observed values (of one departure type, if
given) spawn new features.  Function relations compose directly onto the
feature, others give one binary aggregator feature per codomain value
reached from those values.  ``expand_features`` takes it for every existing
feature, the recursive generator for every derived problem; both read the
values as the ``token_masks`` of a materialized column's ``FeatureMatrix.masks``.
Restricting the enumeration to reached codomain values keeps the output
finite on large knowledge bases while preserving every feature
distinguishable on the training data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from kbfg.aggregators import AggregatorInstance
from kbfg.data import Dataset, FeatureMatrix, materialize, token_masks
# evaluate_feature is not called here; perfbench/tracer.py requires this binding
from kbfg.features import Feature, RelationFeature, evaluate_feature
from kbfg.kb import KnowledgeBase

if TYPE_CHECKING:  # recursive imports this module
    from kbfg.recursive import GenerationConfig


def relation_features(f: Feature, values: Sequence[str], kb: KnowledgeBase,
                      cfg: GenerationConfig, departure_type: Optional[str] = None) -> List[Feature]:
    """The features spawned over `f` by the relations that cover `values` at
    `cfg`'s threshold (of `departure_type` only, if given), in name order: a
    function relation composes onto `f`, any other gives one indicator of
    `cfg`'s family per target, in target order.  A relation's targets are
    the objects of the values it covers, read from its index by subject."""
    out: List[Feature] = []
    covered = set(values)
    for rel in kb.applicable_relations(values, cfg.coverage_threshold):
        if departure_type is not None and rel.departure_type != departure_type:
            continue
        if rel.is_function:
            out.append(RelationFeature(f, rel.name))
        else:
            targets = set().union(*map(rel.index.__getitem__, rel.index.keys() & covered))
            out.extend(RelationFeature(f, rel.name,
                                       AggregatorInstance(cfg.aggregator_family, target))
                       for target in sorted(targets))
    return out


def source_matrix(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                  matrix: Optional[FeatureMatrix]) -> FeatureMatrix:
    """The columns of `features` on `ds`: `matrix`, checked to hold them, or evaluated here."""
    if matrix is None:
        return materialize(ds, features, kb)
    if matrix.feature_names != [f.name for f in features] or matrix.labels != ds.labels:
        raise ValueError("matrix must hold the columns of `features` on `ds`")
    return matrix


def expand_features(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                    cfg: GenerationConfig, matrix: Optional[FeatureMatrix] = None) -> List[Feature]:
    """One pass of relational expansion over `features`.

    Output order is deterministic: input feature order, then relation name,
    then codomain value.  No generated name is an input's or repeats.
    `matrix`, when given, holds the columns of `features` on `ds`; it is read, not changed.
    """
    if not features:
        return []
    matrix = source_matrix(ds, features, kb, matrix)
    generated: List[Feature] = []
    seen_names = {f.name for f in features}
    for j, f in enumerate(features):
        values = sorted(token_masks(matrix.masks(j)))
        if not values:
            continue
        for new in relation_features(f, values, kb, cfg):
            if new.name not in seen_names:
                seen_names.add(new.name)
                generated.append(new)
    return generated
