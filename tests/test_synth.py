import itertools

import pytest

from kbfg.data import dataset_lines, materialize
from kbfg.features import BaseFeature
from kbfg.kb import triple_lines
from kbfg.learners import TrainConfig, accuracy, train_decision_tree
from kbfg.synth import (
    ScenarioSpec,
    gen_disorder_scenario,
    gen_random_tasks,
)


def test_oracle_rule_basics():
    train, test, kb, oracle = gen_disorder_scenario(ScenarioSpec(seed=0))
    desert_surname = next(x.assignment["surname"] for x in train.examples
                          if x.label == 1)
    assert oracle.label({"gender": "f", "surname": desert_surname}, kb) == 1
    assert oracle.label({"gender": "m", "surname": desert_surname}, kb) == 0
    assert oracle.label({"gender": "m", "surname": "whatever"}, kb) == 0


def test_labels_match_oracle_at_zero_noise():
    train, test, kb, oracle = gen_disorder_scenario(ScenarioSpec(seed=2))
    for ds in (train, test):
        for x in ds.examples:
            assert x.label == oracle.label(x.assignment, kb)


def test_deterministic_under_seed():
    a = gen_disorder_scenario(ScenarioSpec(seed=9))
    b = gen_disorder_scenario(ScenarioSpec(seed=9))
    assert dataset_lines(a[0]) == dataset_lines(b[0])
    assert dataset_lines(a[1]) == dataset_lines(b[1])
    assert triple_lines(a[2]) == triple_lines(b[2])


def test_different_seed_changes_data():
    a = gen_disorder_scenario(ScenarioSpec(seed=1))
    b = gen_disorder_scenario(ScenarioSpec(seed=2))
    assert dataset_lines(a[0]) != dataset_lines(b[0])


def surnames_of(ds):
    return {x.assignment["surname"] for x in ds.examples}


def test_test_surnames_disjoint_from_train():
    train, test, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=4))
    assert not (surnames_of(train) & surnames_of(test))


def test_every_surname_maps_to_one_country():
    train, test, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=4))
    for s in surnames_of(train) | surnames_of(test):
        assert len(kb.lookup("countryOf", s)) == 1


def test_unseen_country_variant_uses_fresh_countries():
    spec = ScenarioSpec(seed=4, variant="unseen-country")
    train, test, kb, _ = gen_disorder_scenario(spec)
    train_countries = {next(iter(kb.lookup("countryOf", s))) for s in surnames_of(train)}
    test_countries = {next(iter(kb.lookup("countryOf", s))) for s in surnames_of(test)}
    assert not (train_countries & test_countries)
    # fresh countries still carry climate facts
    for c in test_countries:
        assert kb.lookup("avgTemperature", c) and kb.lookup("precipitation", c)


def test_train_label_balance_matches_analytic_expectation():
    for seed in range(5):
        spec = ScenarioSpec(seed=seed, n_train=300)
        train, _, _, _ = gen_disorder_scenario(spec)
        expected = spec.female_fraction * spec.desert_fraction
        got = sum(train.labels) / len(train)
        assert got == pytest.approx(expected, abs=2 / spec.n_train)


def test_noise_flips_training_labels():
    clean, _, kb, oracle = gen_disorder_scenario(ScenarioSpec(seed=6))
    noisy, _, _, _ = gen_disorder_scenario(ScenarioSpec(seed=6, noise=0.3))
    flips = sum(a.label != b.label for a, b in zip(clean.examples, noisy.examples))
    assert 0.15 * len(clean) < flips < 0.45 * len(clean)


def best_gender_rule_accuracy(test):
    # exhaustive search over all label assignments to the gender values plus
    # constants: the reachable ceiling for base-feature-only classifiers when
    # every test surname is unseen
    genders = sorted({x.assignment["gender"] for x in test.examples})
    best = 0.0
    for assign in itertools.product((0, 1), repeat=len(genders)):
        rule = dict(zip(genders, assign))
        acc = sum(rule[x.assignment["gender"]] == x.label for x in test.examples)
        best = max(best, acc / len(test.examples))
    return best


def test_base_features_cannot_beat_gender_rule_on_unseen_surnames():
    train, test, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=7, n_train=120,
                                                            n_test=80))
    ceiling = best_gender_rule_accuracy(test)
    feats = [BaseFeature("gender"), BaseFeature("surname")]
    train_m = materialize(train, feats, kb)
    test_m = materialize(test, feats, kb)
    for cfg in (TrainConfig(), TrainConfig(max_depth=2), TrainConfig(max_depth=50),
                TrainConfig(min_leaf=1), TrainConfig(min_leaf=4)):
        model = train_decision_tree(train_m, cfg)
        assert accuracy(model, test_m) <= ceiling + 1e-9


def test_random_tasks_deterministic():
    a = gen_random_tasks(13, 3)
    b = gen_random_tasks(13, 3)
    for ta, tb in zip(a, b):
        assert dataset_lines(ta.train) == dataset_lines(tb.train)
        assert dataset_lines(ta.test) == dataset_lines(tb.test)
        assert triple_lines(ta.kb) == triple_lines(tb.kb)


def test_random_tasks_oracle_matches_labels():
    for task in gen_random_tasks(17, 4):
        for ds in (task.train, task.test):
            for x in ds.examples:
                assert x.label == task.oracle.label(x.assignment, task.kb)


def test_random_tasks_nondegenerate():
    for task in gen_random_tasks(23, 6):
        assert set(task.train.labels) == {0, 1}
        assert set(task.test.labels) == {0, 1}


def test_random_tasks_items_unseen_in_test():
    for task in gen_random_tasks(29, 3):
        train_items = {x.assignment["item"] for x in task.train.examples}
        test_items = {x.assignment["item"] for x in task.test.examples}
        assert not (train_items & test_items)


def test_unseen_country_generalization_with_sparse_country_groups():
    # one surname per country: the raw country column is an inadmissible
    # split inside the derived surname problem, so the induced climate-level
    # feature carries the generalization to countries never seen in training
    from kbfg.harness import base_features
    from kbfg.recursive import GenerationConfig, generate_features

    spec = ScenarioSpec(seed=0, variant="unseen-country", n_countries=300)
    train, test, kb, _ = gen_disorder_scenario(spec)
    feats = base_features(train)
    base = train_decision_tree(materialize(train, feats, kb))
    base_acc = accuracy(base, materialize(test, feats, kb))
    full = feats + generate_features(train, feats, kb, GenerationConfig(depth=2))
    model = train_decision_tree(materialize(train, full, kb))
    gen_acc = accuracy(model, materialize(test, full, kb))
    assert base_acc <= 0.70
    assert gen_acc >= 0.95


@pytest.mark.parametrize("field, value", [("n_train", 0), ("n_test", 0), ("noise", -0.1),
                                          ("noise", 1.5)])
def test_scenario_spec_rejects_empty_splits_and_noise_outside_unit_interval(field, value):
    with pytest.raises(ValueError, match=field):
        ScenarioSpec(**{field: value})


def test_scenario_spec_validation():
    ScenarioSpec(noise=1.0)  # the noise bounds are inclusive
    with pytest.raises(ValueError):
        ScenarioSpec(n_countries=2)
    with pytest.raises(ValueError):
        ScenarioSpec(variant="nope")
    with pytest.raises(ValueError):
        ScenarioSpec(n_surnames=4)
    # balanced groups take their surnames from n_train: 40 would be dropped for 75
    with pytest.raises(ValueError, match="n_surnames"):
        ScenarioSpec(balanced_surname_groups=True, n_surnames=40)
    with pytest.raises(ValueError, match="16 training surnames"):
        ScenarioSpec(balanced_surname_groups=True, n_train=60)
    assert ScenarioSpec(balanced_surname_groups=True, n_train=64).n_surnames is None
    with pytest.raises(TypeError):
        ScenarioSpec(female_fraction=0.5)  # derived from balanced_surname_groups
    assert [ScenarioSpec(balanced_surname_groups=b).female_fraction
            for b in (False, True)] == [0.75, 0.5]
    with pytest.raises(ValueError):
        gen_random_tasks(0, 0)
