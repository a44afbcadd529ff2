import copy
import json
from dataclasses import replace

import pytest

from kbfg.data import Dataset, DatasetError, Example, materialize
from kbfg.features import BaseFeature, RelationFeature, serialize_feature
from kbfg.harness import (
    METHODS,
    Cell,
    ExperimentResult,
    HarnessConfig,
    base_features,
    method_generator,
    run_experiment,
)
from kbfg.kb import load_kb
from kbfg.learners import LEARNER_KINDS, accuracy, cross_validate, stratified_folds
from kbfg.recursive import GenerationConfig
from kbfg.stats import paired_t_test
from kbfg.synth import ScenarioSpec, gen_disorder_scenario

EMPTY_KB = load_kb([], [])


def small_scenario(seed=5):
    spec = ScenarioSpec(seed=seed, n_train=80, n_test=40, n_countries=8)
    return gen_disorder_scenario(spec)


def plain_ds():
    rows = list("aabbbcddee")
    labels = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    examples = [Example(f"e{i}", y, {"col": v})
                for i, (v, y) in enumerate(zip(rows, labels))]
    return Dataset(examples, [("col", "col")])


def test_baseline_reproduces_cross_validate():
    train, _, kb, _ = small_scenario()
    cfg = HarnessConfig(methods=("baseline",), learners=("tree",), folds=5, seed=3)
    res = run_experiment({"d": train}, kb, cfg)
    direct = cross_validate(train, base_features(train), kb, {"baseline": None}, ["tree"], 5,
                            3)["baseline"]["tree"]
    assert res.cell("d", "tree", "baseline").fold_accuracies == direct


def test_cell_mean_is_the_exactly_rounded_mean(monkeypatch):
    # ten 0.1s sum to 0.9999999999999999 one addition at a time
    monkeypatch.setattr("kbfg.harness.cross_validate",
                        lambda ds, feats, kb, generators, learners, *args:
                        {m: {l: [0.1] * 10 for l in learners} for m in generators})
    cfg = HarnessConfig(methods=("baseline",), learners=("tree",), folds=2)
    assert run_experiment({"d": plain_ds()}, EMPTY_KB, cfg).cell("d", "tree", "baseline").mean == 0.1


def per_learner_experiment(ds, kb, cfg):
    """run_experiment's result rebuilt one learner and one method at a time."""
    feats = base_features(ds)
    cells = {}
    for learner in cfg.learners:
        per_method = {}
        for method in cfg.methods:
            accs = cross_validate(ds, feats, kb, {method: method_generator(method, cfg, kb, feats)},
                                  [learner], cfg.folds, cfg.seed)[method][learner]
            per_method[method] = Cell(accs)
        for method, cell in per_method.items():
            if method != "baseline":
                cell.t_vs_baseline = paired_t_test(cell.fold_accuracies,
                                                   per_method["baseline"].fold_accuracies)
        cells[learner] = per_method
    return ExperimentResult({"d": cells}, list(cfg.methods), list(cfg.learners))


def test_shared_fold_loop_matches_per_learner_runs():
    train, _, kb, _ = small_scenario()
    cfg = HarnessConfig(methods=METHODS, learners=LEARNER_KINDS, folds=3, seed=4)
    got = run_experiment({"d": train}, kb, cfg).to_json()
    want = per_learner_experiment(train, kb, cfg).to_json()
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("field", ["methods", "learners"])
def test_duplicate_methods_or_learners_rejected(field):
    values = {"methods": ("baseline", "expand", "baseline"), "learners": ("tree", "tree")}
    with pytest.raises(ValueError, match="duplicate"):
        HarnessConfig(**{field: values[field]})


@pytest.mark.parametrize("field", ["methods", "learners"])
def test_empty_methods_or_learners_rejected(field):
    with pytest.raises(ValueError, match=f"no {field}"):
        HarnessConfig(**{field: ()})


def test_maa_is_printed_under_each_table_when_the_baseline_ran():
    datasets = {"a": plain_ds(), "b": plain_ds()}
    cfg = HarnessConfig(methods=("baseline", "expand"), learners=("tree", "knn"), folds=2)
    res = run_experiment(datasets, EMPTY_KB, cfg)
    lines = res.to_text().splitlines()
    for name in datasets:
        assert res.maa(name) == max(res.cell(name, l, "baseline").mean for l in cfg.learners)
        table = lines.index(f"dataset: {name}")
        assert lines[table + 5] == f"MAA: {res.maa(name):.3f}"  # title, header, rule, 2 rows

    no_baseline = run_experiment(datasets, EMPTY_KB, replace(cfg, methods=("expand",)))
    with pytest.raises(ValueError, match="'a'"):
        no_baseline.maa("a")
    assert "MAA" not in no_baseline.to_text()


def test_identical_methods_report_no_difference():
    # no applicable relations: every method degenerates to the baseline
    ds = plain_ds()
    cfg = HarnessConfig(methods=("baseline", "expand", "recursive_d1"),
                        learners=("tree",), folds=2, seed=0)
    res = run_experiment({"d": ds}, EMPTY_KB, cfg)
    for method in ("expand", "recursive_d1"):
        t = res.cell("d", "tree", method).t_vs_baseline
        assert t.no_difference
        assert t.significant_at == frozenset()


def test_recursive_d2_beats_baseline_on_oracle_scenario():
    train, _, kb, _ = small_scenario()
    cfg = HarnessConfig(methods=("baseline", "recursive_d2"), learners=("tree",),
                        folds=5, seed=1)
    res = run_experiment({"d": train}, kb, cfg)
    assert res.cell("d", "tree", "recursive_d2").mean \
        > res.cell("d", "tree", "baseline").mean


def test_single_class_dataset_rejected():
    examples = [Example(f"e{i}", 1, {"col": "a"}) for i in range(6)]
    ds = Dataset(examples, [("col", "col")])
    with pytest.raises(ValueError, match="single class"):
        run_experiment({"d": ds}, EMPTY_KB, HarnessConfig(folds=2))


@pytest.mark.parametrize("labels, fault", [([1, 1, 1, 1, 1, 1], "it has a single class"),
                                           ([0, 1, 0], "need at least 4 examples"),
                                           ([], "it has no examples")],
                         ids=["single_class", "fewer_examples_than_folds", "no_examples"])
def test_every_dataset_is_checked_before_any_fold_runs(monkeypatch, labels, fault):
    calls = []
    monkeypatch.setattr("kbfg.harness.cross_validate", lambda *a, **kw: calls.append(a))
    # a dataset file holding only its schema header loads with no examples
    bad = Dataset([Example(f"e{i}", y, {"col": "a"}) for i, y in enumerate(labels)],
                  [("col", "col")])
    with pytest.raises(DatasetError, match=f"^dataset 'bad': {fault}"):
        run_experiment({"good": plain_ds(), "bad": bad}, EMPTY_KB, HarnessConfig(folds=4))
    assert calls == []


def test_dataset_with_no_features_is_rejected_before_any_fold_runs(monkeypatch):
    calls = []
    monkeypatch.setattr("kbfg.harness.cross_validate", lambda *a, **kw: calls.append(a))
    bare = Dataset([Example(f"e{i}", i % 2, {}) for i in range(8)], [])
    with pytest.raises(DatasetError, match="dataset 'bare': it has no features"):
        run_experiment({"good": plain_ds(), "bare": bare}, EMPTY_KB, HarnessConfig(folds=4))
    assert calls == []


def test_expand_method_reads_the_harness_generation_config():
    kb = load_kb(["borderOf\tegypt\tlibya", "borderOf\tegypt\tsudan"],
                 ["borderOf\tcountry\tcountry\trel"])
    examples = [Example(f"e{i}", i % 2, {"country": c})
                for i, c in enumerate(["egypt", "atlantis", "egypt", "atlantis"])]
    ds = Dataset(examples, [("country", "country")])

    def expand_names(**generation):
        cfg = HarnessConfig(generation=GenerationConfig(**generation))
        gen = method_generator("expand", cfg, kb, base_features(ds))
        return [f.name for f in fold_generation(gen, ds, kb)]

    assert expand_names() == []  # borderOf covers only half of the values
    assert expand_names(coverage_threshold=0.5, aggregator_family="majority") == [
        "borderOf(country):majority=libya", "borderOf(country):majority=sudan"]


def test_fold_assignments_identical_across_methods():
    # same seed, same labels: paired comparisons line up by construction
    train, _, kb, _ = small_scenario()
    folds_a = stratified_folds(train.labels, 5, 9)
    folds_b = stratified_folds(train.labels, 5, 9)
    assert folds_a == folds_b


def test_accuracies_in_unit_interval():
    train, _, kb, _ = small_scenario()
    cfg = HarnessConfig(methods=("baseline", "expand"), learners=("knn", "linear"),
                        folds=4, seed=2)
    res = run_experiment({"d": train}, kb, cfg)
    for learner in cfg.learners:
        for method in cfg.methods:
            for acc in res.cell("d", learner, method).fold_accuracies:
                assert 0.0 <= acc <= 1.0


def fold_generation(gen, train_ds, kb):
    """`gen` called as `cross_validate` calls it, with the rows' matrix."""
    return gen(train_ds, materialize(train_ds, base_features(train_ds), kb))


def corrupt_fold_values(ds, fold_indices):
    out = copy.deepcopy(ds)
    for i in fold_indices:
        out.examples[i].assignment["surname"] = f"junk{i}"
    return out


def test_fold_scope_generation_ignores_held_out_fold():
    train, _, kb, _ = small_scenario()
    folds = stratified_folds(train.labels, 4, seed=0)
    cfg = GenerationConfig(depth=1)
    gen = method_generator("recursive_d1", HarnessConfig(generation=cfg), kb,
                           base_features(train))
    probe = 1
    train_idx = [i for i in range(len(train)) if i not in set(folds[probe])]
    normal = [serialize_feature(f) for f in fold_generation(gen, train.subset(train_idx), kb)]
    # corrupting only the held-out fold's values must not move the features
    corrupted = corrupt_fold_values(train, folds[probe])
    altered = [serialize_feature(f)
               for f in fold_generation(gen, corrupted.subset(train_idx), kb)]
    assert normal == altered


def test_dataset_scope_generation_sees_every_fold():
    train, _, kb, _ = small_scenario()
    folds = stratified_folds(train.labels, 4, seed=0)
    gen = method_generator("recursive_d1",
                           HarnessConfig(generation=GenerationConfig(depth=1)),
                           kb, base_features(train))
    normal = [serialize_feature(f) for f in fold_generation(gen, train, kb)]
    corrupted = corrupt_fold_values(train, folds[1])
    altered = [serialize_feature(f) for f in fold_generation(gen, corrupted, kb)]
    assert normal != altered


@pytest.mark.parametrize("method", METHODS)
def test_cross_validation_evaluates_each_input_cell_once(evaluations, method):
    # every method in one run, `method` first: once per dataset, whichever runs first.
    # The disorder KB holds function relations only, so no generated aggregator
    # family has an input as its inner; the next test covers one that does.
    train, _, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    feats = base_features(train)
    methods = (method,) + tuple(m for m in METHODS if m != method)
    run_experiment({"d": train}, kb, HarnessConfig(methods=methods, learners=("tree",), folds=5))
    assert {(id(x), f.name): evaluations[id(x), f.name]
            for x in train.examples for f in feats} == \
        {(id(x), f.name): 1 for x in train.examples for f in feats}


def test_generated_family_reads_its_input_inner_from_the_fold_matrix(evaluations):
    # `expand` gives one `any` indicator per country that `borderOf` reaches,
    # each with the input `country` as its inner; a fold extends its matrices
    # with them and reads that inner's column instead of evaluating it again
    countries = [f"c{k}" for k in range(6)]
    kb = load_kb([f"borderOf\t{c}\t{countries[(k + d) % 6]}"
                  for k, c in enumerate(countries) for d in (1, 2)],
                 ["borderOf\tcountry\tcountry\trel"])
    ds = Dataset([Example(f"e{i}", int(i % 6 < 3), {"country": countries[i % 6]})
                  for i in range(24)], [("country", "country")])
    country = BaseFeature("country")
    generated = method_generator("expand", HarnessConfig(), kb, [country])(
        ds, materialize(ds, [country], kb))
    assert len(generated) == 6 and all(f.inner == country for f in generated)
    evaluations.clear()
    run_experiment({"d": ds}, kb, HarnessConfig(methods=("expand",), learners=("tree",),
                                                folds=3))
    assert {key: evaluations[key] for key in evaluations if key[1] == "country"} == \
        {(id(x), "country"): 1 for x in ds.examples}


def test_fold_generator_reads_the_training_rows_of_the_input_matrix():
    train, _, kb, _ = small_scenario()
    feats = base_features(train)
    folds = stratified_folds(train.labels, 4, seed=2)
    handed = []

    def recording(train_ds, matrix):
        handed.append((train_ds, [list(row) for row in matrix.rows], list(matrix.labels),
                       list(matrix.feature_names)))
        return [RelationFeature(BaseFeature("surname"), "countryOf")]

    cross_validate(train, feats, kb, {"recording": recording}, ["tree"], 4, 2)
    assert len(handed) == len(folds)
    for (train_ds, rows, labels, names), test_idx in zip(handed, folds):
        held_out = {id(train.examples[i]) for i in test_idx}
        assert len(train_ds) == len(train) - len(test_idx)
        assert not held_out & {id(x) for x in train_ds.examples}
        expected = materialize(train_ds, feats, kb)
        assert (rows, labels, names) == (expected.rows, expected.labels, expected.feature_names)


@pytest.fixture
def trainings(monkeypatch):
    """The kind of each model `cross_validate` trains and scores, in order."""
    scored = []

    def recording(model, matrix):
        scored.append(model.kind)
        return accuracy(model, matrix)

    monkeypatch.setattr("kbfg.learners.accuracy", recording)
    return scored


def test_a_fold_trains_once_per_distinct_fold_matrix(trainings):
    # recursive_d2 generates recursive_d1's features in every fold of this scenario
    train, _, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    res = run_experiment({"d": train}, kb, HarnessConfig(learners=("tree",), folds=5))
    assert len(trainings) == 15
    assert res.cell("d", "tree", "recursive_d2").fold_accuracies == \
        res.cell("d", "tree", "recursive_d1").fold_accuracies


def test_a_method_that_generates_nothing_shares_the_baseline_accuracies(trainings):
    train, _, kb, _ = small_scenario()
    accs = cross_validate(train, base_features(train), kb,
                          {"baseline": None, "empty": lambda train_ds, matrix: []},
                          ["tree", "knn"], 4, 0)
    assert trainings == ["tree", "knn"] * 4
    assert accs["empty"] == accs["baseline"]


def test_fold_matrices_that_differ_only_on_a_held_out_row_are_both_trained(trainings):
    # "a" is the label; "b" copies it but for one example, which a fold holds out
    labels = [i % 2 for i in range(8)]
    flipped = 3
    examples = [Example(f"e{i}", y, {"col": "x", "a": str(y),
                                     "b": str(1 - y if i == flipped else y)})
                for i, y in enumerate(labels)]
    ds = Dataset(examples, [("col", "col")])
    accs = cross_validate(ds, base_features(ds), EMPTY_KB,
                          {"a": lambda train_ds, matrix: [BaseFeature("a")],
                           "b": lambda train_ds, matrix: [BaseFeature("b")]},
                          ["tree"], 2, 0)
    fold = next(k for k, test_idx in enumerate(stratified_folds(labels, 2, 0))
                if flipped in test_idx)
    assert accs["a"]["tree"][fold] == 1.0
    assert accs["b"]["tree"][fold] == 1.0 - 1 / 4
    assert len(trainings) == 4


def test_friedman_reported_for_multiple_datasets():
    train, test, kb, _ = small_scenario(1)  # both splits share one KB
    cfg = HarnessConfig(methods=("baseline", "recursive_d1"), learners=("tree",),
                        folds=4, seed=0)
    res = run_experiment({"a": train, "b": test}, kb, cfg)
    assert "tree" in res.friedman
    text = res.to_text()
    assert "friedman[tree]" in text
