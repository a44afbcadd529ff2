"""Divide-&-conquer feature generation over an information-gain split tree.

The training set is split recursively the way a decision tree would be
built: at each node the recursive generator runs on the node's examples,
its output joins the node's feature set, and the feature (original or
generated) with the highest information gain becomes the split.  Splitting
stops on pure nodes, nodes below ``min_node_size``, or the tree-depth
safeguard.  The tree itself is thrown away; the value of the procedure is
the pool of features generated inside the local contexts, which a single
global generation pass can miss when an uninformative majority of examples
drowns out a locally strong candidate.

The report is a reduction, per split-tree depth, over the candidate records
of the node-level generator (its own sources only, not nested recursion):
candidates tried, features generated, candidates filtered and the size of
surviving problems relative to the node.

Every (example, feature) cell is evaluated once.  The input features are
evaluated at the root; each node receives its parent's rows for its own
examples, hands them to the generator, and evaluates only the features it
generates, onto its own matrix (``FeatureMatrix.extend``).  One
information-gain pass over the node's matrix gives the split, the gains of
the generated features and the best gain among the plain (not induced)
features, which the report also averages; the split groups are the chosen
column's row masks in the same matrix (built once per column and shared
with that pass), and each child gets a copy of its group's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from kbfg.data import Dataset, FeatureMatrix, materialize
from kbfg.features import ClassifierFeature, Feature, serialize_feature
from kbfg.kb import KnowledgeBase
from kbfg.learners import column_information_gain
from kbfg.recursive import (
    CandidateRecord,
    GenerationConfig,
    GenerationStats,
    generate_features,
)
from kbfg.values import value_sort_key


@dataclass
class DeepConfig:
    min_node_size: int = 10
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    max_tree_depth: int = 10

    def __post_init__(self):
        if self.min_node_size < 2:
            raise ValueError("min_node_size must be >= 2")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be >= 1")


@dataclass
class DepthStats:
    """The node-level candidate records and information gains of one depth."""

    records: List[CandidateRecord] = field(default_factory=list)
    generated_igs: List[float] = field(default_factory=list)
    best_plain_igs: List[float] = field(default_factory=list)

    def row(self, depth: int) -> dict:
        def mean(xs):
            return math.fsum(xs) / len(xs) if xs else None

        summary = GenerationStats(self.records).summary()
        return {
            "depth": depth,
            "candidates_tried": summary["candidates_tried"],
            "features_generated": summary["features_generated"],
            "filtered_count": sum(summary["filtered"].values()),
            "mean_size_ratio": mean([r.n_objects / r.n_examples for r in self.records
                                     if r.status == "generated"]),
            "mean_generated_ig": mean(self.generated_igs),
            "mean_best_plain_ig": mean(self.best_plain_igs),
        }


@dataclass
class GenerationReport:
    per_depth: Dict[int, DepthStats] = field(default_factory=dict)

    def at(self, depth: int) -> DepthStats:
        return self.per_depth.setdefault(depth, DepthStats())

    def check(self) -> None:
        for row in self.rows():
            if row["candidates_tried"] != row["features_generated"] + row["filtered_count"]:
                raise AssertionError(
                    f"depth {row['depth']}: tried {row['candidates_tried']} != generated "
                    f"{row['features_generated']} + filtered {row['filtered_count']}")

    def rows(self) -> List[dict]:
        return [self.per_depth[d].row(d) for d in sorted(self.per_depth)]

    def to_json(self) -> dict:
        return {"per_depth": self.rows()}

    def to_text(self) -> str:
        header = f"{'depth':>5} {'tried':>6} {'generated':>9} {'filtered':>8} " \
                 f"{'size-ratio':>10} {'gen-IG':>8} {'plain-IG':>8}"
        lines = [header, "-" * len(header)]
        for row in self.rows():
            def fmt(x):
                return f"{x:.4f}" if isinstance(x, float) else ("-" if x is None else str(x))

            lines.append(f"{row['depth']:>5} {row['candidates_tried']:>6} "
                         f"{row['features_generated']:>9} {row['filtered_count']:>8} "
                         f"{fmt(row['mean_size_ratio']):>10} "
                         f"{fmt(row['mean_generated_ig']):>8} "
                         f"{fmt(row['mean_best_plain_ig']):>8}")
        return "\n".join(lines)


def feature_igs(matrix: FeatureMatrix) -> List[float]:
    """The information gain of each column of `matrix`, in column order."""
    return [column_information_gain(matrix, j) for j in range(len(matrix.feature_names))]


def select_feature(features: Sequence[Feature], igs: Sequence[float]) -> Feature:
    """The feature with maximal information gain, `igs[j]` being that of `features[j]`.

    Gains within 1e-12 of the maximum tie; ties break to the lowest name.
    """
    if not features:
        raise ValueError("select_feature requires at least one feature")
    if len(igs) != len(features):
        raise ValueError(f"{len(igs)} gains for {len(features)} features")
    best_ig = max(igs)
    tied = [j for j in range(len(features)) if abs(igs[j] - best_ig) <= 1e-12]
    return features[min(tied, key=lambda j: features[j].name)]


def deep_generate(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                  cfg: Optional[DeepConfig] = None) -> Tuple[List[Feature], GenerationReport]:
    """Generate features in the local contexts of an IG-driven split tree.

    Returns every feature generated at any node (deduplicated, pre-order)
    plus the per-depth report; with no `features`, both are empty.  The
    split tree is not returned; it only steers where generation runs.
    """
    cfg = cfg or DeepConfig()
    report = GenerationReport()
    if not features:
        return [], report
    collected: List[Feature] = []
    seen: set = set()

    def visit(node_ds: Dataset, feats: List[Feature], matrix: FeatureMatrix,
              depth: int) -> None:
        """`matrix` holds the columns of `feats` on `node_ds`; this node owns it."""
        labels = node_ds.labels
        if len(set(labels)) <= 1:
            return
        if len(node_ds) < cfg.min_node_size:
            return
        if depth >= cfg.max_tree_depth:
            return

        stats = GenerationStats()
        generated = generate_features(node_ds, feats, kb, cfg.generation, stats,
                                      matrix=matrix)
        # generation never returns a name in its input, so `extended` has no duplicates
        extended = feats + generated
        if generated:
            matrix.extend(node_ds, generated, kb)
        igs = feature_igs(matrix)
        row = report.at(depth)
        row.records += [r for r in stats.records if r.level == 0]
        row.generated_igs += igs[len(feats):]
        plain = [ig for f, ig in zip(feats, igs) if not isinstance(f, ClassifierFeature)]
        if plain:
            row.best_plain_igs.append(max(plain))

        for g in generated:
            # `g.digest` keys alike; perfbench/tracer.py requires this call here
            key = serialize_feature(g)
            if key not in seen:
                seen.add(key)
                collected.append(g)

        best = select_feature(extended, igs)
        j = next(j for j, f in enumerate(extended) if f is best)
        masks = matrix.masks(j)
        if len(masks) < 2:
            return
        for v in sorted(masks, key=value_sort_key):
            group = [i for i, bit in enumerate(f"{masks[v]:b}"[::-1]) if bit == "1"]
            visit(node_ds.subset(group), extended, matrix.subset(group), depth + 1)

    visit(ds, list(features), materialize(ds, features, kb), 0)
    report.check()
    return collected, report
