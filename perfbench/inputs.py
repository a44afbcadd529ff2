"""Seeded workload inputs, written to files before anything is timed.

``run.py`` calls ``prepare`` in a child process (``run.py --prepare``), so
that the memory used while preparing does not count in the measured
process's peak.

Scenarios come from ``kbfg.synth``.  This module adds what synth does not
make: ``noise###`` distractor relations over the ``surname`` type, a
set-valued ``relatives`` column and a ``clinic`` column that no relation
describes.  Every random choice is drawn from ``random.Random`` seeded with
a string built from the workload seed, so the same seed gives the same
files under any ``PYTHONHASHSEED``.

For ``apply-doc`` this also runs the ``kb-distractors`` generate op once,
saves its feature document, and stores the digest of the matrix that the
in-memory features give on every batch.
"""

from __future__ import annotations

import json
import os
import random
from collections.abc import Sequence
from types import SimpleNamespace
from typing import Dict, List, Tuple

from common import digest, dump
from kbfg.data import Dataset, Example, load_dataset_file, save_dataset
from kbfg.features import (VALUE_COLUMN, ClassifierFeature, evaluate_feature,
                           features_to_document)
from kbfg.harness import base_features
from kbfg.kb import load_kb_files, schema_lines, triple_lines
from kbfg.recursive import GenerationConfig, GenerationStats, generate_features
from kbfg.synth import ScenarioSpec, gen_disorder_scenario
from kbfg.values import iter_atoms, normalize_value, value_to_json

N_TRAIN = 300           # training examples of the generation scenarios
GRID_TRAIN = 240        # training examples of cv-grid, sized for about a dozen ops per run
N_TEST = 100            # held-out surnames whose facts are also in the KB
N_DISTRACTORS = 100     # distractor relations over the surname type
DISTRACTOR_SHARE = 0.08  # share of surnames each distractor covers, train and test alike
DISTRACTOR_TAGS = 8     # objects per distractor relation
COVERAGE = 0.05         # generation coverage threshold, below DISTRACTOR_SHARE
CLINIC_ROWS = 3         # about this many examples per clinic
BATCH_ROWS = 100        # rows per apply-doc op
N_BATCHES = 120         # apply-doc batches; each op takes one no earlier op has seen


def generation_config() -> GenerationConfig:
    """What ``kbfg generate --depth 2 --coverage 0.05`` passes."""
    return GenerationConfig(depth=2, coverage_threshold=COVERAGE, aggregator_family="any")


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(["perfbench", str(seed), *map(str, tags)]))


def distractors(seed: int, groups: Sequence[Sequence[str]]) -> Tuple[List[str], List[str]]:
    """Schema and triple lines of the distractor relations.

    Each relation covers DISTRACTOR_SHARE of every group of surnames, drawn
    by a stream of its own, so adding a group (more test surnames) leaves
    the facts about the other groups unchanged.
    """
    schema, triples = [], []
    for r in range(N_DISTRACTORS):
        name = f"noise{r:03d}"
        schema.append(f"{name}\tsurname\ttag\trel")
        for g, group in enumerate(groups):
            rng = _rng(seed, name, g)
            for subject in sorted(rng.sample(sorted(group), round(DISTRACTOR_SHARE * len(group)))):
                for t in sorted(rng.sample(range(DISTRACTOR_TAGS), rng.choice((1, 2)))):
                    triples.append(f"{name}\t{subject}\t{name}.tag{t}")
    return schema, triples


def with_side_columns(examples: List[Example], seed: int, tag: str) -> List[Example]:
    """Add ``relatives`` (two other surnames of the same set) and ``clinic``."""
    rng = _rng(seed, "side", tag)
    surnames = [x.assignment["surname"] for x in examples]
    n_clinics = max(2, len(examples) // CLINIC_ROWS)
    out = []
    for i, x in enumerate(examples):
        others = rng.sample(range(len(examples) - 1), 2)
        relatives = [surnames[j + (j >= i)] for j in others]
        assignment = dict(x.assignment, relatives=normalize_value(relatives),
                          clinic=f"clinic{rng.randrange(n_clinics):03d}")
        out.append(Example(x.id, x.label, assignment))
    return out


SIDE_SCHEMA = [("relatives", "surname"), ("clinic", "clinic")]


def _surnames(examples: List[Example]) -> List[str]:
    return sorted({x.assignment["surname"] for x in examples})


def _write_kb(out: str, stem: str, kb, extra: Tuple[List[str], List[str]]) -> None:
    schema, triples = extra
    with open(os.path.join(out, f"{stem}_schema.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(schema_lines(kb) + schema) + "\n")
    with open(os.path.join(out, f"{stem}_triples.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(triple_lines(kb) + triples) + "\n")


def screening(seed: int, out: str, stem: str, n_test: int, test_groups: int = 1) -> Dataset:
    """Screening training set with side columns, plus its KB with distractors.

    Writes ``<stem>.jsonl`` and ``<stem>_{schema,triples}.tsv``; returns the
    test set.  The training set and its facts do not depend on n_test.
    """
    train, test, kb, _ = gen_disorder_scenario(
        ScenarioSpec(seed=seed, n_train=N_TRAIN, n_test=n_test))
    size = n_test // test_groups
    groups = [test.examples[i:i + size] for i in range(0, n_test, size)]
    _write_kb(out, stem, kb, distractors(seed, [_surnames(train.examples)]
                                         + [_surnames(g) for g in groups]))
    save_dataset(Dataset(with_side_columns(train.examples, seed, "train"),
                         train.schema + SIDE_SCHEMA), os.path.join(out, f"{stem}.jsonl"))
    return test


def masked(seed: int, out: str) -> None:
    """The masking scenario (gender-balanced surname groups) for ``deep``."""
    train, test, kb, _ = gen_disorder_scenario(
        ScenarioSpec(seed=seed, n_train=N_TRAIN, n_test=N_TEST,
                     balanced_surname_groups=True))
    _write_kb(out, "masked", kb, distractors(seed, [_surnames(train.examples),
                                                    _surnames(test.examples)]))
    save_dataset(train, os.path.join(out, "masked.jsonl"))


def cv_grid(seed: int, out: str) -> None:
    train, _, kb, _ = gen_disorder_scenario(
        ScenarioSpec(seed=seed, n_train=GRID_TRAIN, n_test=N_TEST))
    _write_kb(out, "grid", kb, ([], []))
    save_dataset(train, os.path.join(out, "grid.jsonl"))


class _LazyRow(Sequence):
    """A model's input row over one token whose cells are evaluated on access.

    A tree reads only the cells on its path, so the reference matrix costs
    a few lookups per token instead of one per value-level feature.
    """

    def __init__(self, value_features, token: str, kb):
        self._features = value_features
        self._x = SimpleNamespace(assignment={VALUE_COLUMN: token})
        self._kb = kb

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, j):
        return evaluate_feature(self._features[j], self._x, self._kb)


def reference_value(f, x, kb):
    """A feature's value on one example, by the semantics of the features module."""
    if not isinstance(f, ClassifierFeature):
        return evaluate_feature(f, x, kb)
    inner = evaluate_feature(f.inner, x, kb)
    if inner is None:
        return str(f.model.default_class)
    votes = [f.model.predict(_LazyRow(f.value_features, tok, kb)) for tok in iter_atoms(inner)]
    return str(int(sum(votes) * 2 > len(votes)))


def matrix_digest(rows, labels, names) -> str:
    return digest(dump({"feature_names": names, "labels": labels,
                        "rows": [[value_to_json(v) for v in row] for row in rows]}))


def apply_doc(seed: int, out: str) -> None:
    test = screening(seed, out, "screen", BATCH_ROWS * N_BATCHES, N_BATCHES)
    batches = [with_side_columns(test.examples[b * BATCH_ROWS:(b + 1) * BATCH_ROWS], seed,
                                 f"batch{b}") for b in range(N_BATCHES)]
    save_dataset(Dataset([x for batch in batches for x in batch], test.schema + SIDE_SCHEMA),
                 os.path.join(out, "batches.jsonl"))

    # the kb-distractors generate op, on the files just written
    kb = load_kb_files(os.path.join(out, "screen_schema.tsv"),
                       os.path.join(out, "screen_triples.tsv"))
    train = load_dataset_file(os.path.join(out, "screen.jsonl"))
    stats = GenerationStats()
    feats = generate_features(train, base_features(train), kb, generation_config(), stats=stats)
    with open(os.path.join(out, "doc.json"), "w", encoding="utf-8") as f:
        f.write(dump(features_to_document(feats, stats.summary())))

    loaded = load_dataset_file(os.path.join(out, "batches.jsonl"))
    expected: Dict[str, List[str]] = {"batches": []}
    for b in range(N_BATCHES):
        rows = loaded.examples[b * BATCH_ROWS:(b + 1) * BATCH_ROWS]
        matrix = [[reference_value(f, x, kb) for f in feats] for x in rows]
        expected["batches"].append(matrix_digest(
            matrix, [x.label for x in rows], [f.name for f in feats]))
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f)


def prepare(workload: str, seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "cv-grid":
        cv_grid(seed, out)
    elif workload == "kb-distractors":
        screening(seed, out, "screen", N_TEST)
        masked(seed, out)
    elif workload == "apply-doc":
        apply_doc(seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")

