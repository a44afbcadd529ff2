import hashlib
import itertools
import json

import pytest

from kbfg.data import Dataset, Example, materialize
from kbfg.deep import DeepConfig, deep_generate, feature_igs, select_feature
from kbfg.features import BaseFeature, features_to_document, serialize_feature
from kbfg.harness import base_features
from kbfg.kb import load_kb
from kbfg.learners import column_information_gain
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.synth import ScenarioSpec, gen_disorder_scenario

EMPTY_KB = load_kb([], [])


def toy_ds(rows, labels, names=None):
    names = names or [f"f{j}" for j in range(len(rows[0]))]
    examples = [Example(f"e{i}", y, dict(zip(names, row)))
                for i, (row, y) in enumerate(zip(rows, labels))]
    return Dataset(examples, [(n, n) for n in names])


def masked_scenario(seed=3):
    spec = ScenarioSpec(seed=seed, balanced_surname_groups=True, desert_fraction=0.7)
    return gen_disorder_scenario(spec)


@pytest.mark.parametrize("kwargs", [
    {"max_tree_depth": 0},
    {"max_tree_depth": -1},
    {"min_node_size": 1},
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_deep_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        DeepConfig(**kwargs)


def test_select_feature_needs_one_gain_per_feature():
    with pytest.raises(ValueError):
        select_feature([BaseFeature("f0"), BaseFeature("f1")], [0.5])
    with pytest.raises(ValueError):
        select_feature([], [])


def test_pure_labels_generate_nothing():
    ds = toy_ds([["a"], ["b"], ["c"]], [1, 1, 1])
    feats, report = deep_generate(ds, [BaseFeature("f0")], EMPTY_KB, DeepConfig())
    assert feats == []
    assert report.rows() == []


def test_no_features_generate_nothing():
    ds = Dataset([Example(f"e{i}", i % 2, {}) for i in range(12)], [])
    feats, report = deep_generate(ds, [], EMPTY_KB, DeepConfig())
    assert feats == []
    assert report.rows() == []


def test_small_node_generates_nothing():
    ds = toy_ds([["a"], ["b"]], [1, 0])
    cfg = DeepConfig(min_node_size=5)
    feats, report = deep_generate(ds, [BaseFeature("f0")], EMPTY_KB, cfg)
    assert feats == []
    assert report.rows() == []


def test_report_accounting_identity():
    train, _, kb, _ = masked_scenario()
    cfg = DeepConfig(min_node_size=10, generation=GenerationConfig(depth=2))
    _, report = deep_generate(train, base_features(train), kb, cfg)
    report.check()
    for row in report.rows():
        assert row["candidates_tried"] == (row["features_generated"]
                                           + row["filtered_count"])


def test_masked_feature_recovered_in_female_context():
    train, _, kb, _ = masked_scenario()
    feats = base_features(train)

    deep_cfg = DeepConfig(min_node_size=10, generation=GenerationConfig(depth=2))
    deep_feats, _ = deep_generate(train, feats, kb, deep_cfg)
    assert any(f.inner == BaseFeature("surname") for f in deep_feats)

    # a single top-level pass with the problem-size floor above the number of
    # surnames seen in the female context finds nothing at all
    female_surnames = {x.assignment["surname"] for x in train.examples
                       if x.assignment["gender"] == "f"}
    strict = GenerationConfig(depth=2, min_recursive_size=len(female_surnames) + 1)
    assert generate_features(train, feats, kb, strict) == []

    # even at the default floor the top-level pass is blocked: with balanced
    # genders per surname every surname's majority label ties to 0
    assert generate_features(train, feats, kb, GenerationConfig(depth=2)) == []


def test_root_split_is_gender_and_orthogonality():
    train, _, kb, _ = masked_scenario()
    feats = base_features(train)
    best = select_feature(feats, feature_igs(materialize(train, feats, kb)))
    assert best == BaseFeature("gender")
    # within each child of the split, the split feature is constant: IG 0
    column = [row[0] for row in materialize(train, [best], kb).rows]
    for v in set(column):
        child = train.subset([i for i, c in enumerate(column) if c == v])
        assert feature_igs(materialize(child, [best], kb))[0] == pytest.approx(0.0)


def test_degenerates_to_root_generation_when_min_node_is_full_size():
    train, _, kb, _ = masked_scenario()
    feats = base_features(train)
    cfg = DeepConfig(min_node_size=len(train), generation=GenerationConfig(depth=1))
    deep_feats, report = deep_generate(train, feats, kb, cfg)
    root_feats = generate_features(train, feats, kb, GenerationConfig(depth=1))
    assert [serialize_feature(f) for f in deep_feats] == \
           [serialize_feature(f) for f in root_feats]
    assert list(report.per_depth) == [0]


def test_select_feature_prefers_separating_column():
    rows = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
    ds = toy_ds(rows, [1, 1, 0, 0])
    feats = [BaseFeature("f0"), BaseFeature("f1")]
    assert select_feature(feats, feature_igs(materialize(ds, feats, EMPTY_KB))) == \
        BaseFeature("f0")


def test_select_feature_all_constant_ties_by_name():
    ds = toy_ds([["c", "c"], ["c", "c"]], [1, 0], names=["zeta", "alpha"])
    feats = [BaseFeature("zeta"), BaseFeature("alpha")]
    assert select_feature(feats, feature_igs(materialize(ds, feats, EMPTY_KB))) == \
        BaseFeature("alpha")


def test_select_feature_matches_exhaustive_ig():
    train, _, kb, _ = masked_scenario()
    feats = base_features(train)
    best = select_feature(feats, feature_igs(materialize(train, feats, kb)))
    matrix = materialize(train, feats, kb)
    igs = [column_information_gain(matrix, j) for j in range(len(feats))]
    assert feature_igs(materialize(train, [best], kb))[0] == pytest.approx(max(igs))


def test_global_collection_is_union_of_node_outputs_deduplicated():
    train, _, kb, _ = masked_scenario()
    cfg = DeepConfig(min_node_size=10, generation=GenerationConfig(depth=1))
    feats, _ = deep_generate(train, base_features(train), kb, cfg)
    keys = [serialize_feature(f) for f in feats]
    assert len(keys) == len(set(keys))


def test_generated_counts_trend_down_with_depth():
    # statistical trend over >= 10 seeds, not a per-run guarantee: with
    # shared surname groups the root generates the surname feature, the
    # surname-valued split exhausts the relation, and deeper nodes only
    # produce filtered candidates
    per_depth_totals = {}
    for seed in range(10):
        spec = ScenarioSpec(seed=seed, n_surnames=20, n_train=300, n_test=40)
        train, _, kb, _ = gen_disorder_scenario(spec)
        cfg = DeepConfig(min_node_size=10, generation=GenerationConfig(depth=1))
        _, report = deep_generate(train, base_features(train), kb, cfg)
        for row in report.rows():
            d = row["depth"]
            per_depth_totals.setdefault(d, []).append(row["features_generated"])
    means = [sum(v) / len(v) for _, v in sorted(per_depth_totals.items())]
    assert len(means) >= 2
    assert all(means[i] >= means[i + 1] for i in range(len(means) - 1))
    assert means[0] > means[-1]


def three_column_context():
    """Three independent binary columns and a city whose climate the KB knows.

    The label needs `a`, then `b`, then `c` with the climate, so the split
    tree goes three levels deep, and the feature induced over the cities at
    depth 1 is inherited by a subset of a subset of its node's examples.
    """
    cities = [f"city{i}" for i in range(8)]
    hot = set(cities[:4])
    kb = load_kb([f"climateOf\t{c}\t{'hot' if c in hot else 'cold'}" for c in cities],
                 ["climateOf\tcity\tclimate\tfn"])
    examples = []
    for i, (a, b, c, city) in enumerate(itertools.product("01", "01", "01", cities)):
        y = int(a == "1" and (b == "1" or (c == "1" and city in hot)))
        examples.append(Example(f"e{i}", y, {"a": a, "b": b, "c": c, "city": city}))
    ds = Dataset(examples, [(n, n) for n in ("a", "b", "c", "city")])
    return ds, [BaseFeature(n) for n in ("a", "b", "c", "city")], kb


def test_deeper_split_tree_evaluates_each_cell_once(evaluations):
    ds, feats, kb = three_column_context()
    cfg = DeepConfig(min_node_size=4,
                     generation=GenerationConfig(depth=1, min_recursive_size=4))
    deep_feats, report = deep_generate(ds, feats, kb, cfg)
    assert [row["depth"] for row in report.rows()] == [0, 1, 2, 3]
    assert [f.name for f in deep_feats] == ["induced[city]#5c27293a"]
    assert [key for key, n in evaluations.items() if n > 1] == []

    # the depth-3 node induces the feature its depth-1 ancestor already
    # generated: that candidate is filtered as a duplicate, not counted
    assert report.rows()[3] == {
        "depth": 3, "candidates_tried": 5, "features_generated": 0, "filtered_count": 5,
        "mean_size_ratio": None, "mean_generated_ig": None, "mean_best_plain_ig": 1.0}
    assert "duplicate" in [r.status for r in report.per_depth[3].records]

    def digest(obj):
        return hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()

    assert digest(report.to_json()) == \
        "a685b062bbaa8743f39e63d8f84075737a0b11661852056cd017f50f9ce78de2"
    assert digest(features_to_document(deep_feats, report.to_json())) == \
        "82a9ce71f09177c94fdad7af86898a34efb56b7fdf186c371420e73ecee93728"
