"""Feature generation by recursive induction over feature values.

For each source feature a derived induction problem is built: its objects
are the distinct values the feature takes on the training examples, each
labeled with the majority label of the examples carrying that value (ties
to 0).  The derived problem's features come from relational expansion's
own step, ``expand.relation_features``, over the relations applicable to
those values; below the depth limit the generator recurses on the derived
problem to extend that feature map.  A classifier trained on the derived
problem is then composed back onto the source feature and emitted as a new
feature for the original examples.

Set-valued sources contribute every member token as an object.  Their
objects are first split into one candidate problem per knowledge-base
departure type covering them, whose features come from the applicable
relations of that type, and each surviving candidate emits its own feature.

Each (example, feature) cell is evaluated once.  The caller's features are
materialized once, or handed in by a caller that already holds their
columns (each ``deep`` node passes the rows it received from its parent).
Each derived problem is materialized once, before recursing: the same
matrix gives the nested pass its source columns and, with only the columns
of the features that pass adds evaluated and appended, is the classifier's
training matrix.  A source enters ``create_new_problem`` as its column's
row masks (``FeatureMatrix.masks``): the distinct values are the mask
keys, and a token's majority label comes from the union of the masks of
the values holding it, so the tree that trains on the same matrix reads
the same groups.

A candidate with fewer than ``min_recursive_size`` objects, a single object
class, or no applicable relations is dropped; the objects are labelled only
once some candidate of the source has enough of them.  A candidate
whose induced feature has the name of one already present (an input feature
or one generated earlier in the pass) is dropped as ``duplicate``.  Every
candidate looked at, dropped or not, is recorded once as a
``CandidateRecord`` whose status says which filter it met; the ``generate``
summary and the ``deep`` per-depth report are reductions over those
records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from kbfg.aggregators import FAMILIES
from kbfg.data import Dataset, Example, FeatureMatrix, materialize, row_masks
from kbfg.expand import relation_features
from kbfg.features import (
    VALUE_COLUMN,
    BaseFeature,
    ClassifierFeature,
    Feature,
    evaluate_feature,
)
from kbfg.kb import KnowledgeBase
from kbfg.learners import LEARNER_KINDS, TrainConfig, train_model
from kbfg.values import FeatureValue, iter_atoms


@dataclass
class GenerationConfig:
    depth: int = 2
    min_recursive_size: int = 8
    coverage_threshold: float = 1.0
    aggregator_family: str = "any"
    learner_kind: str = "tree"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.min_recursive_size < 1:
            raise ValueError("min_recursive_size must be >= 1")
        if not 0 < self.coverage_threshold <= 1:
            raise ValueError("coverage_threshold must be in (0, 1]")
        if self.aggregator_family not in FAMILIES:
            raise ValueError(f"unknown aggregator family {self.aggregator_family!r}")
        if self.learner_kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner {self.learner_kind!r}")


@dataclass
class RecursiveProblem:
    source_name: str
    objects: List[Tuple[str, int]]      # (value token, majority label), sorted by token
    features: List[Feature]             # feature map over the value column
    partition_type: Optional[str] = None
    # the problem's entry in the generation stats, re-marked if its feature is dropped
    record: Optional[CandidateRecord] = field(default=None, compare=False, repr=False)

    def as_dataset(self) -> Dataset:
        vtype = self.partition_type or VALUE_COLUMN
        examples = [Example(v, y, {VALUE_COLUMN: v}) for v, y in self.objects]
        return Dataset(examples, [(VALUE_COLUMN, vtype)])


@dataclass
class CandidateRecord:
    """Bookkeeping for one candidate problem, kept for reports."""

    source_name: str
    level: int                  # 0 = problem over the caller's own features
    n_objects: int
    n_examples: int
    status: str                 # generated | too_small | single_class | no_relations | duplicate
    partition_type: Optional[str] = None


@dataclass
class GenerationStats:
    records: List[CandidateRecord] = field(default_factory=list)

    def add(self, rec: CandidateRecord) -> None:
        self.records.append(rec)

    def summary(self) -> dict:
        by_reason = Counter(r.status for r in self.records if r.status != "generated")
        return {
            "candidates_tried": len(self.records),
            "features_generated": sum(1 for r in self.records if r.status == "generated"),
            "filtered": dict(sorted(by_reason.items())),
        }


def _value_labels(masks: Mapping[FeatureValue, int], labels: Sequence[int]) -> Dict[str, int]:
    """Majority label of the examples carrying each token (ties to 0).

    `masks` gives the rows carrying each value, so a token's rows are the
    union of the masks of the values holding it.
    """
    carried: Dict[str, int] = {}
    for v, m in masks.items():
        for tok in iter_atoms(v):
            carried[tok] = carried.get(tok, 0) | m
    positive = row_masks(labels).get(1, 0)
    return {tok: int((m & positive).bit_count() * 2 > m.bit_count())
            for tok, m in carried.items()}


def create_new_problem(f: Feature, ds: Dataset, masks: Mapping[FeatureValue, int],
                       kb: KnowledgeBase, cfg: GenerationConfig,
                       stats: Optional[GenerationStats] = None,
                       level: int = 0) -> List[RecursiveProblem]:
    """The surviving candidate problems for one source feature, possibly none.

    `masks` groups the examples of `ds` by the value `f` takes on them, as
    ``row_masks`` of its column does (``FeatureMatrix.masks``).
    Atom-valued sources yield at most one problem; set-valued sources yield
    one per covering departure type.  Every candidate, surviving or not, is
    recorded in `stats` with its status.
    """
    stats = stats if stats is not None else GenerationStats()
    all_values = sorted({tok for v in masks for tok in iter_atoms(v)})
    if any(isinstance(v, frozenset) for v in masks):
        candidates = _partition_by_type(all_values, kb)
    else:
        candidates = [(None, all_values)]

    # the values are labelled once, and only if some candidate is large enough
    label_of: Optional[Dict[str, int]] = None
    problems: List[RecursiveProblem] = []
    for ptype, values in candidates:
        status = None
        feats: List[Feature] = []
        if label_of is None and len(values) >= cfg.min_recursive_size:
            label_of = _value_labels(masks, ds.labels)
        if len(values) < cfg.min_recursive_size:
            status = "too_small"
        elif len({label_of[v] for v in values}) == 1:
            status = "single_class"
        else:
            rels = [r for r in kb.applicable_relations(values, cfg.coverage_threshold)
                    if ptype in (None, r.departure_type)]
            feats = relation_features(BaseFeature(VALUE_COLUMN), values, rels,
                                      cfg.aggregator_family)
            if not feats:
                status = "no_relations"
        record = CandidateRecord(f.name, level, len(values), len(ds.examples),
                                 status or "generated", ptype)
        stats.add(record)
        if status is None:
            problems.append(RecursiveProblem(
                f.name, [(v, label_of[v]) for v in values], feats, ptype, record))
    return problems


def _partition_by_type(values: List[str], kb: KnowledgeBase) -> List[Tuple[str, List[str]]]:
    """Per departure type, in type order, the tokens its relations cover."""
    out = []
    for t in sorted({rel.departure_type for rel in kb.relations.values()}):
        rels = kb.relations_of_departure_type(t)
        covered = [v for v in values if any(v in rel.index for rel in rels)]
        if covered:
            out.append((t, covered))
    return out


def generate_features(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                      cfg: Optional[GenerationConfig] = None,
                      stats: Optional[GenerationStats] = None,
                      matrix: Optional[FeatureMatrix] = None) -> List[Feature]:
    """Emit one induced feature per surviving (source feature x partition).

    Below the depth limit each derived problem's feature map is first
    extended by recursive generation over the problem itself; the
    configured learner is then trained on the materialized problem and the
    resulting model composed onto the source feature.  Output follows the
    input feature order.

    `matrix`, when given, holds the columns of `features` on `ds` (a caller
    that already evaluated them, such as a ``deep`` node); it is read, not
    changed.  Without it the features are evaluated here.
    """
    cfg = cfg or GenerationConfig()
    stats = stats if stats is not None else GenerationStats()
    if not features:
        return []
    if matrix is None:
        matrix = materialize(ds, features, kb)
    elif matrix.feature_names != [f.name for f in features] or matrix.labels != ds.labels:
        raise ValueError("matrix must hold the columns of `features` on `ds`")
    return _generate(ds, matrix, features, kb, cfg, cfg.depth, stats, level=0)


def _generate(ds: Dataset, matrix: FeatureMatrix, features: Sequence[Feature],
              kb: KnowledgeBase, cfg: GenerationConfig, depth: int,
              stats: GenerationStats, level: int) -> List[Feature]:
    """Generation over `ds`, whose `matrix` holds the columns of `features`."""
    out: List[Feature] = []
    seen_names = {f.name for f in features}
    for j, f in enumerate(features):
        for problem in create_new_problem(f, ds, matrix.masks(j), kb, cfg, stats, level):
            problem_ds = problem.as_dataset()
            problem_matrix = materialize(problem_ds, problem.features, kb)
            # never returns a name in its input, so the extension is disjoint
            added = _generate(problem_ds, problem_matrix, problem.features, kb, cfg,
                              depth - 1, stats, level + 1) if depth > 0 else []
            if added:
                problem_matrix.append_columns(materialize(problem_ds, added, kb))
            model = train_model(cfg.learner_kind, problem_matrix, cfg.train)
            del problem_matrix  # freed before the next problem builds its own
            new = ClassifierFeature(inner=f, model=model,
                                    value_features=tuple(problem.features + added),
                                    partition_type=problem.partition_type)
            if new.name in seen_names:
                problem.record.status = "duplicate"
            else:
                seen_names.add(new.name)
                out.append(new)
    return out


def apply_generated(feature: ClassifierFeature, x, kb: KnowledgeBase) -> int:
    """The induced feature's label for one example (composition of model and inner)."""
    if not isinstance(feature, ClassifierFeature):
        raise TypeError("apply_generated expects an induced classifier feature")
    return int(evaluate_feature(feature, x, kb))
