"""Byte-identity pins for the `generate`, `deep` and `eval` outputs.

Each digest is the SHA-256 of a document dumped the way the CLI writes it
(``json.dumps(..., indent=2, sort_keys=True)``): the `generate` feature
document with its filtering summary, the `deep` feature document and
per-depth report, and the `eval` result.  The table `kbfg eval` prints,
MAA lines included, is pinned by the digest of its text.  On the family
scenario (``family_scenario``), whose relations are not all functions, the
`expand` and `generate` digests are taken under each aggregator family; the
`expand` one also covers the expanded columns that ``materialize`` fills.
A change that alters any of these bytes must say so and give the diff
before the digest is updated.
"""

import hashlib
import json
import math

import pytest

from family_scenario import COVERAGE, family_scenario
from kbfg.aggregators import FAMILIES
from kbfg.data import materialize
from kbfg.deep import DeepConfig, deep_generate
from kbfg.expand import expand_features
from kbfg.features import features_to_document
from kbfg.harness import HarnessConfig, base_features, run_experiment
from kbfg.learners import LEARNER_KINDS, cross_validate
from kbfg.recursive import GenerationConfig, GenerationStats, generate_features
from kbfg.synth import ScenarioSpec, gen_disorder_scenario
from kbfg.values import value_to_json

SCENARIOS = {
    "screening-seed1": ScenarioSpec(seed=1),
    "masked-seed3": ScenarioSpec(seed=3, balanced_surname_groups=True, desert_fraction=0.7),
}

GOLDEN = {
    "masked-seed3": {
        "generate": "d3a30f5943eac7cd164cf6b8fe6d65310b2412c3541baf61ae131f6aed2ec87d",
        "deep": "bb235264d02b20a89b833c112aa8bbede714bcde8cfe44c7e7987d60ef8dba51",
        "deep_report": "758d094670bd793d38c180a4e584cfc1b0f424f95815895f5acd4ecaecd4eb38",
    },
    "screening-seed1": {
        "generate": "896c72d8e5724fd1b4c29f28dffca1dbfbda4b9a9c05d86f73356943151d0500",
        "deep": "03193913a3deb25226b201237ca68ebb05b88f0bf5de637bf50b60fcc3b7e75b",
        "deep_report": "9ccf26360bffab2af200340bf16d5625ebc7466e21614bf65fffe1e919086c1e",
    },
}

FAMILY_GOLDEN = {
    "any": {
        "expand": "ae5945c0649530f9df870151a2b84908902fe949a47ecfe1204205c62c075839",
        "generate": "368ba333c8ddbfcb3fd4ba9b70aa5b06dda4e7d2ef46334f79cc357b1e4e930c",
    },
    "majority": {
        "expand": "7050a8452bb7148e091ce4ff3e105fe7a91fce407aab8bc6f966dc919878a422",
        "generate": "603e664c6989fcc61dae1bf5b0fd10207689fa3b54f062c1d28401536be4f421",
    },
}


# `eval` on screening-seed1 with every method and learner, over EVAL_FOLDS folds
EVAL_FOLDS = 3
EVAL_GOLDEN = {
    "json": "ca384bce59783858d8057d0691dd4d8c1d948f77a3da76576078d7d4054c0479",
    "text": "1d086e4f76c48e00f2bed119ea5786a704dc3fb7dec4868f66372b77868f38bf",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()


def output_digests(spec: ScenarioSpec) -> dict:
    train, _, kb, _ = gen_disorder_scenario(spec)
    feats = base_features(train)
    stats = GenerationStats()
    generated = generate_features(train, feats, kb, GenerationConfig(), stats=stats)
    deep_feats, report = deep_generate(train, feats, kb, DeepConfig())
    return {
        "generate": _digest(features_to_document(generated, stats.summary())),
        "deep": _digest(features_to_document(deep_feats, report.to_json())),
        "deep_report": _digest(report.to_json()),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(name):
    assert output_digests(SCENARIOS[name]) == GOLDEN[name]


def family_outputs(family: str) -> dict:
    """The `expand` document with its materialized columns, and the
    `generate` document, on the family scenario under `family`."""
    train, kb = family_scenario()
    feats = base_features(train)
    cfg = GenerationConfig(aggregator_family=family, coverage_threshold=COVERAGE)
    expanded = expand_features(train, feats, kb, cfg)
    rows = materialize(train, expanded, kb).rows
    stats = GenerationStats()
    generated = generate_features(train, feats, kb, cfg, stats=stats)
    return {
        "expand": {"document": features_to_document(expanded),
                   "rows": [[value_to_json(v) for v in row] for row in rows]},
        "generate": features_to_document(generated, stats.summary()),
    }


@pytest.mark.parametrize("family", FAMILIES)
def test_family_outputs_match_golden_digests(family):
    outputs = family_outputs(family)
    # the scenario makes families over an atom-valued and a set-valued inner
    inners = {f["inner"]["name"] for f in outputs["expand"]["document"]["features"]
              if f["aggregator"] is not None}
    assert inners == {"surname", "relatives"}
    assert {name: _digest(doc) for name, doc in outputs.items()} == FAMILY_GOLDEN[family]


@pytest.fixture(scope="module")
def screening_eval():
    train, _, kb, _ = gen_disorder_scenario(SCENARIOS["screening-seed1"])
    result = run_experiment({"screening-seed1": train}, kb, HarnessConfig(folds=EVAL_FOLDS))
    return train, kb, result


def test_eval_matches_golden_digests(screening_eval):
    _, _, result = screening_eval
    assert {"json": _digest(result.to_json()),
            "text": hashlib.sha256(result.to_text().encode()).hexdigest()} == EVAL_GOLDEN


def test_maa_is_max_over_learners(screening_eval):
    train, kb, result = screening_eval
    accs = cross_validate(train, base_features(train), kb, {"baseline": None}, LEARNER_KINDS,
                          EVAL_FOLDS, 0)["baseline"]
    assert result.maa("screening-seed1") == max(math.fsum(a) / len(a) for a in accs.values())
