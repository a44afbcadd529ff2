"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import random
import time

import pytest

from kbfg.aggregators import fired_targets
from kbfg.data import Dataset, FeatureMatrix, materialize
from kbfg.deep import DeepConfig, deep_generate
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    VALUE_COLUMN,
    composition_layers,
    evaluate_feature,
    serialize_feature,
)
from kbfg.harness import HarnessConfig, base_features, run_experiment
from kbfg.learners import accuracy, column_information_gain, train_decision_tree
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.stats import friedman_test, paired_t_test
from kbfg.synth import ScenarioSpec, gen_disorder_scenario, gen_random_tasks
from kbfg.data import Example


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- shared runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def disorder_runs():
    """Ten seeded end-to-end runs of the screening scenario, timed."""
    runs = []
    t0 = time.time()
    for seed in range(10):
        spec = ScenarioSpec(seed=seed, n_train=300, n_test=200,
                            variant="unseen-surname")
        train, test, kb, oracle = gen_disorder_scenario(spec)
        feats = base_features(train)
        base_model = train_decision_tree(materialize(train, feats, kb))
        base_acc = accuracy(base_model, materialize(test, feats, kb))
        generated = generate_features(train, feats, kb, GenerationConfig(depth=2))
        full = feats + generated
        gen_model = train_decision_tree(materialize(train, full, kb))
        gen_acc = accuracy(gen_model, materialize(test, full, kb))
        runs.append({"seed": seed, "train": train, "test": test, "kb": kb,
                     "generated": generated, "baseline_acc": base_acc,
                     "generated_acc": gen_acc})
    elapsed = time.time() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def random_task_runs():
    tasks = gen_random_tasks(seed=0, n_tasks=10)
    results = []
    for task in tasks:
        cfg = HarnessConfig(methods=("baseline", "recursive_d1"),
                            learners=("tree",), folds=10, seed=0)
        res = run_experiment({task.name: task.train}, task.kb, cfg)
        gen = generate_features(task.train, base_features(task.train), task.kb,
                                GenerationConfig(depth=1))
        results.append({
            "task": task,
            "baseline": res.cell(task.name, "tree", "baseline").mean,
            "d1": res.cell(task.name, "tree", "recursive_d1").mean,
            "generated": gen,
        })
    return results


# --- criteria ----------------------------------------------------------------


def test_criterion_1_end_to_end_oracle(disorder_runs):
    runs, elapsed = disorder_runs
    worst_base = max(r["baseline_acc"] for r in runs)
    worst_gen = min(r["generated_acc"] for r in runs)
    ok = worst_base <= 0.70 and worst_gen >= 0.95 and elapsed < 30.0
    verdict(1, ok,
            f"baseline <= 0.70 (worst {worst_base:.3f}), depth-2 >= 0.95 "
            f"(worst {worst_gen:.3f}), runtime {elapsed:.1f}s < 30s, 10 seeds")


def test_criterion_2_directional_improvement(random_task_runs):
    improved = sum(1 for r in random_task_runs if r["d1"] > r["baseline"])
    verdict(2, improved >= 8,
            f"depth-1 generation improves tree accuracy on {improved}/10 tasks "
            f"(need >= 8)")


def test_criterion_3_information_gain_oracle():
    def oracle(labels, groups):
        def h(ls):
            out = 0.0
            for cls in (0, 1):
                c = sum(1 for y in ls if y == cls)
                if c:
                    out -= (c / len(ls)) * (math.log(c / len(ls)) / math.log(2.0))
            return out

        return h(labels) - sum(len(g) / len(labels) * h([labels[i] for i in g])
                               for g in groups)

    rng = random.Random(42)
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 21)
        labels = [rng.randint(0, 1) for _ in range(n)]
        k = rng.randrange(1, 5)
        assignment = [rng.randrange(k) for _ in range(n)]
        groups = [[i for i, a in enumerate(assignment) if a == g] for g in range(k)]
        groups = [g for g in groups if g]
        column = FeatureMatrix([[a] for a in assignment], labels, ["group"])
        worst = max(worst, abs(column_information_gain(column, 0)
                               - oracle(labels, groups)))
    verdict(3, worst < 1e-9,
            f"information gain matches brute-force entropy oracle on 1000 "
            f"instances (max |diff| {worst:.2e})")


def test_criterion_4_aggregator_properties():
    rng = random.Random(7)
    alphabet = [f"v{i}" for i in range(6)]
    ok = True
    for _ in range(10_000):
        values = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
        fired = fired_targets("majority", values)
        if len(fired) != (1 if values else 0) or not fired <= set(values):
            ok = False
            break
        extra = [rng.choice(alphabet) for _ in range(rng.randrange(0, 4))]
        if not fired_targets("any", values) <= fired_targets("any", values + extra):
            ok = False
            break
    verdict(4, ok, "majority fires exactly once and any is monotone on "
                   "10000 random multisets")


def _expected_application(feature: ClassifierFeature, x, kb):
    # independent re-derivation of the composition rule
    inner = evaluate_feature(feature.inner, x, kb)
    model = feature.model
    if inner is None:
        return model.default_class
    tokens = [inner] if isinstance(inner, str) else sorted(inner)
    votes = []
    for tok in tokens:
        row = [evaluate_feature(vf, Example("probe", 0, {VALUE_COLUMN: tok}), kb)
               for vf in feature.value_features]
        votes.append(model.predict(row))
    return int(sum(votes) * 2 > len(votes))


def test_criterion_5_composition_identity(disorder_runs, random_task_runs):
    runs, _ = disorder_runs
    checked = 0
    for r in runs:
        for f in r["generated"]:
            for x in r["train"].examples:
                assert int(evaluate_feature(f, x, r["kb"])) == \
                    _expected_application(f, x, r["kb"])
                checked += 1
    for r in random_task_runs:
        kb = r["task"].kb
        for f in r["generated"]:
            for x in r["task"].train.examples:
                assert int(evaluate_feature(f, x, kb)) == _expected_application(f, x, kb)
                checked += 1
    verdict(5, checked > 0,
            f"an induced feature equals classifier-of-inner-value pointwise on "
            f"{checked} (feature, example) pairs")


def test_criterion_6_depth_bound(disorder_runs, random_task_runs):
    runs, _ = disorder_runs
    ok = True
    counts = 0
    spec = ScenarioSpec(seed=0)
    train, _, kb, _ = gen_disorder_scenario(spec)
    for d in (0, 1, 2):
        for f in generate_features(train, base_features(train), kb,
                                   GenerationConfig(depth=d)):
            ok = ok and composition_layers(f) <= d + 1
            counts += 1
    for r in runs:  # depth-2 features from criterion 1
        for f in r["generated"]:
            ok = ok and composition_layers(f) <= 3
            counts += 1
    for r in random_task_runs:  # depth-1 features from criterion 2
        for f in r["generated"]:
            ok = ok and composition_layers(f) <= 2
            counts += 1
    verdict(6, ok and counts > 0,
            f"composition layers never exceed depth+1 across {counts} features")


def test_criterion_7_deep_accounting_and_masked_recovery():
    spec = ScenarioSpec(seed=3, balanced_surname_groups=True, desert_fraction=0.7)
    train, _, kb, _ = gen_disorder_scenario(spec)
    feats = base_features(train)

    cfg = DeepConfig(min_node_size=10, generation=GenerationConfig(depth=2))
    deep_feats, report = deep_generate(train, feats, kb, cfg)
    accounting = all(row["candidates_tried"] == row["features_generated"]
                     + row["filtered_count"] for row in report.rows())

    recovered = any(f.inner == BaseFeature("surname") for f in deep_feats)
    female_surnames = {x.assignment["surname"] for x in train.examples
                      if x.assignment["gender"] == "f"}
    strict = GenerationConfig(depth=2, min_recursive_size=len(female_surnames) + 1)
    root_level = generate_features(train, feats, kb, strict)
    verdict(7, accounting and recovered and not root_level,
            "tried = generated + filtered at every depth; deep recovers the "
            "surname feature that a size-capped root-level pass misses")


def test_criterion_8_statistics_oracles():
    rng = random.Random(19)
    worst_t = 0.0
    for _ in range(100):
        n = rng.randrange(2, 12)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        diffs = [x - y for x, y in zip(a, b)]
        mean = sum(diffs) / n
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
        if var == 0:
            continue
        expected = mean / math.sqrt(var / n)
        worst_t = max(worst_t, abs(paired_t_test(a, b).t - expected))

    worst_f = 0.0
    for _ in range(100):
        n = rng.randrange(2, 9)
        k = rng.randrange(2, 6)
        m = [[rng.choice([0.1, 0.2, 0.3]) for _ in range(k)] for _ in range(n)]
        rank_sums = [0.0] * k
        for row in m:
            order = sorted(range(k), key=lambda j: row[j])
            i = 0
            while i < k:
                j = i
                while j + 1 < k and row[order[j + 1]] == row[order[i]]:
                    j += 1
                for t in range(i, j + 1):
                    rank_sums[order[t]] += (i + j) / 2 + 1
                i = j + 1
        expected = (12.0 * n / (k * (k + 1))
                    * sum((s / n - (k + 1) / 2) ** 2 for s in rank_sums))
        worst_f = max(worst_f, abs(friedman_test(m).statistic - expected))

    identical = friedman_test([[0.5, 0.5, 0.5]] * 3).statistic
    unanimous = friedman_test([[0.9, 0.2]] * 7).statistic
    ok = worst_t < 1e-9 and worst_f < 1e-9 and identical == 0.0 and unanimous == 7.0
    verdict(8, ok,
            f"t and friedman match direct formulas (max diffs {worst_t:.1e}, "
            f"{worst_f:.1e}); identical methods -> 0; unanimous 2-method -> N")


def test_criterion_9_generation_hygiene():
    spec = ScenarioSpec(seed=1)
    train, test, kb, _ = gen_disorder_scenario(spec)
    feats = base_features(train)
    cfg = GenerationConfig(depth=2)

    normal = [serialize_feature(f) for f in generate_features(train, feats, kb, cfg)]

    # deliberate leak: test examples appended to the generation input
    leaky_ds = Dataset(train.examples + test.examples, train.schema)
    leaked = [serialize_feature(f) for f in generate_features(leaky_ds, feats, kb, cfg)]
    leak_changes = normal != leaked

    # the clean pipeline is invariant to what the test fold contains: the
    # second variant swaps the entire test set (fresh countries) but shares
    # the training examples
    spec_b = ScenarioSpec(seed=1, variant="unseen-country")
    train_b, test_b, kb_b, _ = gen_disorder_scenario(spec_b)
    same_train = [(e.id, e.label, e.assignment) for e in train.examples] == \
                 [(e.id, e.label, e.assignment) for e in train_b.examples]
    invariant = normal == [serialize_feature(f) for f in
                           generate_features(train_b, base_features(train_b),
                                             kb_b, cfg)]
    verdict(9, leak_changes and same_train and invariant,
            "appending test examples to generation input changes the features; "
            "swapping test-fold contents leaves them identical")
