"""Experiment harness: how much do generated features help a learner?

For every (dataset, method, learner) cell the harness runs seeded
stratified cross-validation with identical fold assignments across methods,
so per-fold accuracies pair up: one ``cross_validate`` call per dataset
runs every method on its folds.  Feature generation runs inside each
training fold, and only there: the held-out fold neither contributes values
nor labels to generation, which is what makes the accuracy delta an honest
estimate of the generated features' utility.  Input columns are evaluated
once per dataset, each fold's generators read their training rows, and only
generated columns are evaluated per (method, fold), onto the fold's input
columns, so a generated aggregator family reads an input inner from there.
A fold's learners run once per distinct fold matrix: a method whose
generated columns equal an earlier method's on the fold, or that generates
nothing, shares its accuracies.  The leak of generating on the whole dataset can still be
measured outside the harness, by passing the features ``generate_features``
returns on the full dataset to ``cross_validate``.  Every dataset is
checked before any fold runs: one with no examples, no features, a single
class or fewer examples than folds raises ``DatasetError`` naming it.
Learners train with their own defaults.

Methods: ``baseline`` (no generation), ``expand`` (one relational
expansion pass), ``recursive_d1`` / ``recursive_d2`` (recursive induction
at depth 1 / 2).  A dataset's MAA (maximal achievable accuracy), a proxy
for its difficulty, is read off the same grid: its best ``baseline`` cell
over the learners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from kbfg.data import Dataset, DatasetError, FeatureMatrix
from kbfg.expand import expand_features
from kbfg.features import BaseFeature, Feature
from kbfg.kb import KnowledgeBase
from kbfg.learners import LEARNER_KINDS, cross_validate, stratified_folds
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.stats import FriedmanResult, TTestResult, friedman_test, paired_t_test

METHODS = ("baseline", "expand", "recursive_d1", "recursive_d2")


@dataclass
class HarnessConfig:
    methods: Sequence[str] = METHODS
    learners: Sequence[str] = ("knn", "linear", "tree")  # the table's row order
    folds: int = 10
    seed: int = 0
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        for l in self.learners:
            if l not in LEARNER_KINDS:
                raise ValueError(f"unknown learner {l!r}")
        for name in ("methods", "learners"):
            values = list(getattr(self, name))
            if not values:
                raise ValueError(f"no {name} given")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")


@dataclass
class Cell:
    fold_accuracies: List[float]
    t_vs_baseline: Optional[TTestResult] = None

    @property
    def mean(self) -> float:
        """The mean fold accuracy, from an exactly rounded sum."""
        return math.fsum(self.fold_accuracies) / len(self.fold_accuracies)

    def to_json(self) -> dict:
        return {
            "fold_accuracies": self.fold_accuracies,
            "mean": self.mean,
            "t_vs_baseline": self.t_vs_baseline.to_json() if self.t_vs_baseline else None,
        }


@dataclass
class ExperimentResult:
    cells: Dict[str, Dict[str, Dict[str, Cell]]]   # dataset -> learner -> method -> cell
    methods: List[str]
    learners: List[str]
    friedman: Dict[str, FriedmanResult] = field(default_factory=dict)  # per learner

    def cell(self, dataset: str, learner: str, method: str) -> Cell:
        return self.cells[dataset][learner][method]

    def maa(self, dataset: str) -> float:
        """Maximal achievable accuracy: the best ``baseline`` cell mean of
        `dataset` over the run's learners.

        A proxy for task difficulty: low values mean no learner does well on
        the original features alone.  Raises `ValueError` when the run has no
        ``baseline`` method.
        """
        if "baseline" not in self.methods:
            raise ValueError(f"no MAA for dataset {dataset!r}: the run has no baseline method")
        return max(self.cell(dataset, learner, "baseline").mean for learner in self.learners)

    def to_json(self) -> dict:
        return {
            "methods": self.methods,
            "learners": self.learners,
            "cells": {d: {l: {m: c.to_json() for m, c in ms.items()}
                          for l, ms in ls.items()}
                      for d, ls in self.cells.items()},
            "friedman": {l: r.to_json() for l, r in self.friedman.items()},
        }

    def to_text(self) -> str:
        """Per-dataset table: learners as rows, methods as columns.

        ``+`` marks p < 0.05 against the baseline, ``*`` marks p < 0.001.
        When the baseline ran, an ``MAA:`` line follows each table.
        """
        lines = []
        width = max(12, max(len(m) for m in self.methods) + 3)
        for dataset in self.cells:
            lines.append(f"dataset: {dataset}")
            header = f"{'learner':<8}" + "".join(f"{m:>{width}}" for m in self.methods)
            lines.append(header)
            lines.append("-" * len(header))
            for learner in self.learners:
                row = [f"{learner:<8}"]
                for method in self.methods:
                    c = self.cells[dataset][learner][method]
                    mark = ""
                    if c.t_vs_baseline is not None:
                        if 0.001 in c.t_vs_baseline.significant_at:
                            mark = "*"
                        elif 0.05 in c.t_vs_baseline.significant_at:
                            mark = "+"
                    row.append(f"{c.mean:.3f}{mark:<1}".rjust(width))
                lines.append("".join(row))
            if "baseline" in self.methods:
                lines.append(f"MAA: {self.maa(dataset):.3f}")
            lines.append("")
        for learner, fr in self.friedman.items():
            sig = ", ".join(f"p<{a}" for a in sorted(fr.significant_at)) or "n.s."
            lines.append(f"friedman[{learner}]: chi2={fr.statistic:.4f} ({sig})")
        return "\n".join(lines)


def base_features(ds: Dataset) -> List[Feature]:
    return [BaseFeature(name) for name in ds.feature_names]


def method_generator(method: str, cfg: HarnessConfig, kb: KnowledgeBase, features: Sequence[Feature]
                     ) -> Optional[Callable[[Dataset, FeatureMatrix], List[Feature]]]:
    """A method's generator over a training fold and its matrix of `features`."""
    gen = cfg.generation
    if method == "baseline":
        return None
    if method == "expand":
        return lambda train_ds, matrix: expand_features(train_ds, features, kb, gen, matrix)
    if method in ("recursive_d1", "recursive_d2"):
        d = 1 if method == "recursive_d1" else 2
        return lambda train_ds, matrix: generate_features(train_ds, features, kb,
                                                          replace(gen, depth=d), matrix=matrix)
    raise ValueError(f"unknown method {method!r}")


def run_experiment(datasets: Dict[str, Dataset], kb: KnowledgeBase,
                   cfg: Optional[HarnessConfig] = None) -> ExperimentResult:
    """Cross-validated accuracies for every (dataset, learner, method) cell.

    A dataset that cannot be cross-validated raises `DatasetError`, naming
    it, before any fold runs."""
    cfg = cfg or HarnessConfig()
    for name, ds in datasets.items():
        try:
            if not ds.examples:
                raise ValueError("it has no examples")
            if not ds.feature_names:
                raise ValueError("it has no features")
            if len(set(ds.labels)) < 2:
                raise ValueError("it has a single class")
            stratified_folds(ds.labels, cfg.folds, cfg.seed)
        except ValueError as e:
            raise DatasetError(f"dataset {name!r}: {e}") from None
    cells: Dict[str, Dict[str, Dict[str, Cell]]] = {}
    for name, ds in datasets.items():
        feats = base_features(ds)
        accs = cross_validate(ds, feats, kb,
                              {m: method_generator(m, cfg, kb, feats) for m in cfg.methods},
                              cfg.learners, cfg.folds, cfg.seed)
        per_learner = cells[name] = {learner: {m: Cell(accs[m][learner]) for m in cfg.methods}
                                     for learner in cfg.learners}
        for per_method in per_learner.values():
            baseline = per_method.get("baseline")
            if baseline is not None:
                for method, cell in per_method.items():
                    if method != "baseline":
                        cell.t_vs_baseline = paired_t_test(cell.fold_accuracies,
                                                           baseline.fold_accuracies)
    result = ExperimentResult(cells, list(cfg.methods), list(cfg.learners))
    if len(datasets) >= 2 and len(cfg.methods) >= 2:
        for learner in cfg.learners:
            matrix = [[cells[d][learner][m].mean for m in cfg.methods] for d in cells]
            result.friedman[learner] = friedman_test(matrix)
    return result
