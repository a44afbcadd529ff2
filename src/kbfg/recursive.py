"""Feature generation by recursive induction over feature values.

For each source feature a derived induction problem is built: its objects
are the distinct values the feature takes on the training examples, each
labeled with the majority label of the examples carrying that value (ties
to 0).  The derived problem's features come from relational expansion's
own step, ``expand.relation_features``, which chooses the relations
applicable to those values; below the depth limit the generator recurses on
the derived problem to extend that feature map.  A classifier trained on
the derived problem is then composed back onto the source feature and
emitted as a new feature for the original examples.

Set-valued sources contribute every member token as an object.  Their
objects are first split into one candidate problem per knowledge-base
departure type covering them, whose features come from the applicable
relations of that type (``relation_features`` given the type), and each
surviving candidate emits its own feature.

Each (example, feature) cell is evaluated once.  The caller's features are
materialized once, or handed in by a caller that already holds their
columns (a ``deep`` node its parent's rows, ``cross_validate`` a fold's).
Each derived problem is materialized once, before recursing: the same
matrix gives the nested pass its source columns and, extended with the
features that pass adds (``FeatureMatrix.extend``), is the classifier's
training matrix.  A source enters ``create_new_problem`` as its column's
row masks (``FeatureMatrix.masks``), as ``expand_features`` reads its
sources: its tokens and the rows carrying each are ``data.token_masks`` of
those masks, so the tree that trains on the same matrix reads the same
groups.

A candidate with fewer than ``min_recursive_size`` objects, a single object
class, or no applicable relations is dropped; the objects are labelled only
once some candidate of the source has enough of them.  An atom-valued
source's objects are its distinct non-missing values, so one with too few
is counted from its groups and dropped before its tokens are grouped and
sorted.  A candidate
whose induced feature has the name of one already present (an input feature
or one generated earlier in the pass) is dropped as ``duplicate``.  Every
candidate is recorded once, with its final status, as a ``CandidateRecord``
(a survivor after its nested pass, once its feature is known to be new);
the ``generate`` summary and ``deep`` per-depth report reduce those records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from kbfg.aggregators import FAMILIES
from kbfg.data import Dataset, Example, FeatureMatrix, materialize, row_masks, token_masks
from kbfg.expand import relation_features, source_matrix
from kbfg.features import (
    VALUE_COLUMN,
    BaseFeature,
    ClassifierFeature,
    Feature,
    evaluate_feature,  # not called here; perfbench/tracer.py requires this binding
)
from kbfg.kb import KnowledgeBase
from kbfg.learners import LEARNER_KINDS, train_model
from kbfg.values import FeatureValue


@dataclass
class GenerationConfig:
    depth: int = 2
    min_recursive_size: int = 8
    coverage_threshold: float = 1.0
    aggregator_family: str = "any"
    learner_kind: str = "tree"

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
    objects: List[Tuple[str, int]]      # (value token, majority label), sorted by token
    features: List[Feature]             # feature map over the value column
    partition_type: Optional[str] = None

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


def _value_labels(token_rows: Mapping[str, int], labels: Sequence[int]) -> Dict[str, int]:
    """Majority label of the examples carrying each token (ties to 0), from
    the rows carrying it (``token_masks``)."""
    positive = row_masks(labels).get(1, 0)
    return {tok: int((m & positive).bit_count() * 2 > m.bit_count())
            for tok, m in token_rows.items()}


def create_new_problem(f: Feature, ds: Dataset, masks: Mapping[FeatureValue, int],
                       kb: KnowledgeBase, cfg: GenerationConfig,
                       stats: Optional[GenerationStats] = None,
                       level: int = 0) -> List[RecursiveProblem]:
    """The surviving candidate problems for one source feature, possibly none.

    `masks` groups the examples of `ds` by the value `f` takes on them, as
    ``row_masks`` of its column does (``FeatureMatrix.masks``).
    Atom-valued sources yield at most one problem; set-valued sources yield
    one per covering departure type.  Each dropped candidate is recorded in
    `stats`; the generator records the survivors.  An atom-valued source
    with fewer than ``min_recursive_size`` non-missing groups is recorded
    ``too_small`` from their count alone.
    """
    stats = stats if stats is not None else GenerationStats()
    set_valued = any(isinstance(v, frozenset) for v in masks)
    if not set_valued:  # its objects are its groups' values
        n_values = len(masks) - (None in masks)
        if n_values < cfg.min_recursive_size:
            stats.add(CandidateRecord(f.name, level, n_values, len(ds.examples), "too_small"))
            return []
    token_rows = token_masks(masks)
    all_values = sorted(token_rows)
    if set_valued:
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
            label_of = _value_labels(token_rows, ds.labels)
        if len(values) < cfg.min_recursive_size:
            status = "too_small"
        elif len({label_of[v] for v in values}) == 1:
            status = "single_class"
        else:
            feats = relation_features(BaseFeature(VALUE_COLUMN), values, kb, cfg, ptype)
            if not feats:
                status = "no_relations"
        if status is None:
            problems.append(RecursiveProblem([(v, label_of[v]) for v in values], feats, ptype))
        else:
            stats.add(CandidateRecord(f.name, level, len(values), len(ds.examples),
                                      status, ptype))
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
    configured learner is then trained on the problem's matrix, extended
    with those features, and the model composed onto the source feature.
    Output follows the input feature order.

    `matrix`, when given, holds the columns of `features` on `ds` (a caller
    that already evaluated them, such as a ``deep`` node or a fold of
    ``cross_validate``); it is read, not changed.  Without it they are evaluated here.
    """
    cfg = cfg or GenerationConfig()
    stats = stats if stats is not None else GenerationStats()
    if not features:
        return []
    return _generate(ds, source_matrix(ds, features, kb, matrix), features, kb, cfg,
                     cfg.depth, stats, level=0)


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
                problem_matrix.extend(problem_ds, added, kb)
            model = train_model(cfg.learner_kind, problem_matrix)
            del problem_matrix  # freed before the next problem builds its own
            new = ClassifierFeature(inner=f, model=model,
                                    value_features=tuple(problem.features + added),
                                    partition_type=problem.partition_type)
            status = "duplicate" if new.name in seen_names else "generated"
            stats.add(CandidateRecord(f.name, level, len(problem.objects), len(ds.examples),
                                      status, problem.partition_type))
            if status == "generated":
                seen_names.add(new.name)
                out.append(new)
    return out
