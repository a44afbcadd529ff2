"""The benchmark's workloads: loading their inputs, one op, and its output checks.

Each op makes the library calls that the matching ``kbfg`` subcommand makes
(``eval``, ``generate``, ``deep``), or, for ``apply-doc``, the
``materialize`` call that applies a saved feature document.  Only those
calls are timed; digests and checks run outside the timed region.  Library
functions are looked up on their modules at call time, so that the tracer's
replacements are the ones called.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import inputs
from common import digest, dump
from kbfg import data, deep, features, harness, kb, recursive
from kbfg.harness import METHODS, HarnessConfig, base_features
from kbfg.learners import LEARNER_KINDS

FOLDS = 5


@dataclass
class OpResult:
    seconds: Dict[str, float]                               # timed call -> wall time
    digests: Dict[str, str] = field(default_factory=dict)   # output -> sha256, same on every op
    problems: List[str] = field(default_factory=list)       # failed output checks


def _kb(d: str, stem: str):
    return kb.load_kb_files(os.path.join(d, f"{stem}_schema.tsv"),
                         os.path.join(d, f"{stem}_triples.tsv"))


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class Workload:
    name = ""
    why = ""
    parts: tuple = ()            # the timed calls of one op
    max_ops: Optional[int] = None

    def setup(self, d: str):
        """Load the input files; this is what ``setup_s`` times."""
        raise NotImplementedError

    def references(self, d: str):
        """What the output checks compare against; loaded outside ``setup_s``."""
        return None

    def input_digests(self, d: str) -> Dict[str, str]:
        return {}

    def run(self, state, refs, i: int, seed: int) -> OpResult:
        raise NotImplementedError


class CvGrid(Workload):
    name = "cv-grid"
    why = ("learner-bound: one op is kbfg eval, 4 methods x 3 learners x 5 folds on the "
           "screening scenario with its 3-relation KB")
    parts = ("eval",)

    def setup(self, d):
        return _kb(d, "grid"), data.load_dataset_file(os.path.join(d, "grid.jsonl"))

    def run(self, state, refs, i, seed):
        # a fresh copy per op, so nothing the program stores on its inputs outlives the op
        grid_kb, ds = copy.deepcopy(state)
        cfg = HarnessConfig(methods=METHODS, learners=LEARNER_KINDS, folds=FOLDS, seed=seed,
                            generation=recursive.GenerationConfig(aggregator_family="any",
                                                                  coverage_threshold=1.0))
        result, seconds = _timed(harness.run_experiment, {"grid": ds}, grid_kb, cfg)
        doc = result.to_json()
        problems = []
        for learner in LEARNER_KINDS:
            for method in METHODS:
                accs = doc["cells"]["grid"][learner][method]["fold_accuracies"]
                if len(accs) != FOLDS or not all(0.0 <= a <= 1.0 for a in accs):
                    problems.append(f"eval: bad fold accuracies for {learner}/{method}")
        return OpResult({"eval": seconds}, {"eval": digest(dump(doc))}, problems)


class KbDistractors(Workload):
    name = "kb-distractors"
    why = ("generation-bound: one op is kbfg generate and kbfg deep at depth 2 over a KB "
           "with 100 distractor relations, on screening and masked data")
    parts = ("generate", "deep")

    def setup(self, d):
        return (_kb(d, "screen"), data.load_dataset_file(os.path.join(d, "screen.jsonl")),
                _kb(d, "masked"), data.load_dataset_file(os.path.join(d, "masked.jsonl")))

    def run(self, state, refs, i, seed):
        gen_kb, gen_ds, deep_kb, deep_ds = copy.deepcopy(state)
        problems = []
        stats = recursive.GenerationStats()
        feats, gen_s = _timed(recursive.generate_features, gen_ds, base_features(gen_ds), gen_kb,
                              inputs.generation_config(), stats=stats)
        summary = stats.summary()
        if summary["candidates_tried"] != (summary["features_generated"]
                                           + sum(summary["filtered"].values())):
            problems.append(f"generate: tried != generated + filtered in {summary}")

        cfg = deep.DeepConfig(min_node_size=10, generation=inputs.generation_config(),
                         max_tree_depth=10)
        (deep_feats, report), deep_s = _timed(deep.deep_generate, deep_ds,
                                              base_features(deep_ds), deep_kb, cfg)
        for row in report.rows():
            if row["candidates_tried"] != row["features_generated"] + row["filtered_count"]:
                problems.append(f"deep: tried != generated + filtered at depth {row['depth']}")
        digests = {
            "generate": digest(dump(features.features_to_document(feats, summary))),
            "deep": digest(dump(features.features_to_document(deep_feats, report.to_json()))),
        }
        return OpResult({"generate": gen_s, "deep": deep_s}, digests, problems)


class ApplyDoc(Workload):
    name = "apply-doc"
    why = ("read side of generation: one op applies a saved tree-learner feature document "
           f"to {inputs.BATCH_ROWS} rows of surnames no earlier op has seen")
    parts = ("apply",)
    max_ops = inputs.N_BATCHES

    def setup(self, d):
        with open(os.path.join(d, "doc.json"), encoding="utf-8") as f:
            feats = features.features_from_document(json.load(f))
        return (_kb(d, "screen"), data.load_dataset_file(os.path.join(d, "batches.jsonl")),
                feats)

    def references(self, d):
        with open(os.path.join(d, "expected.json"), encoding="utf-8") as f:
            return json.load(f)["batches"]

    def input_digests(self, d):
        out = {}
        for key, name in (("doc", "doc.json"), ("reference", "expected.json")):
            with open(os.path.join(d, name), encoding="utf-8") as f:
                out[key] = digest(f.read())
        return out

    def run(self, state, refs, i, seed):
        doc_kb, batches, feats = state
        rows = inputs.BATCH_ROWS
        batch = data.Dataset(batches.examples[i * rows:(i + 1) * rows], batches.schema)
        matrix, seconds = _timed(data.materialize, batch, feats, doc_kb)
        problems = []
        if inputs.matrix_digest(matrix.rows, matrix.labels, matrix.feature_names) != refs[i]:
            problems.append(f"apply: batch {i} differs from the in-memory features' matrix")
        return OpResult({"apply": seconds}, {}, problems)


WORKLOADS = {w.name: w for w in (CvGrid(), KbDistractors(), ApplyDoc())}
PARTS = tuple(p for w in WORKLOADS.values() for p in w.parts)
