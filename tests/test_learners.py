import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from kbfg.data import Dataset, Example, FeatureMatrix
from kbfg.features import BaseFeature
from kbfg.kb import load_kb
from kbfg.learners import (
    TrainConfig,
    accuracy,
    column_information_gain,
    cross_validate,
    majority_label,
    model_from_json,
    shrink_table,
    stratified_folds,
    train_decision_tree,
    train_knn,
    train_linear,
)

EMPTY_KB = load_kb([], [])
BASELINE = {"baseline": None}  # cross_validate with one method that generates nothing


def oracle_entropy(labels):
    # independent route: count both classes explicitly, natural log rescaled
    n = len(labels)
    if n == 0:
        return 0.0
    h = 0.0
    for cls in (0, 1):
        c = sum(1 for y in labels if y == cls)
        if c:
            h -= (c / n) * (math.log(c / n) / math.log(2.0))
    return h


def oracle_ig(labels, groups):
    total = oracle_entropy(labels)
    rest = 0.0
    for g in groups:
        rest += len(g) / len(labels) * oracle_entropy([labels[i] for i in g])
    return total - rest


def partition_gain(labels, groups):
    """IG of `labels` split by `groups` (a partition of the row indices), read
    as one column whose value at each row is its group's number."""
    column = [None] * len(labels)
    for g, rows in enumerate(groups):
        for i in rows:
            column[i] = g
    return column_information_gain(FeatureMatrix([[v] for v in column], list(labels), ["g"]), 0)


def test_ig_perfect_split():
    assert partition_gain([1, 1, 0, 0], [[0, 1], [2, 3]]) == pytest.approx(1.0)


def test_ig_uninformative_split():
    assert partition_gain([1, 1, 0, 0], [[0, 2], [1, 3]]) == pytest.approx(0.0)


def test_ig_derived_value():
    # H(3/4) - 0.5*H(1/2), frozen from the entropy oracle
    got = partition_gain([1, 1, 1, 0], [[0, 1], [2, 3]])
    assert got == pytest.approx(0.3112781244591328, abs=1e-12)
    assert got == pytest.approx(oracle_ig([1, 1, 1, 0], [[0, 1], [2, 3]]), abs=1e-12)


@st.composite
def labeled_partitions(draw):
    n = draw(st.integers(1, 20))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(1, 4))
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    groups = [[i for i, a in enumerate(assignment) if a == g] for g in range(k)]
    return labels, [g for g in groups if g]


@given(labeled_partitions())
def test_ig_bounds_and_oracle(case):
    labels, groups = case
    got = partition_gain(labels, groups)
    # the entropy of the labels is the gain of the split into single rows
    entropy = partition_gain(labels, [[i] for i in range(len(labels))])
    assert entropy == pytest.approx(oracle_entropy(labels), abs=1e-9)
    assert -1e-12 <= got <= entropy + 1e-12
    assert got == pytest.approx(oracle_ig(labels, groups), abs=1e-9)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_ig_trivial_partition_is_zero(labels):
    assert partition_gain(labels, [list(range(len(labels)))]) == pytest.approx(0.0)


def matrix(rows, labels):
    return FeatureMatrix([list(r) for r in rows], list(labels),
                         [f"f{j}" for j in range(len(rows[0]))])


def test_tree_single_separating_feature():
    m = matrix([["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]], [1, 1, 0, 0])
    model = train_decision_tree(m)
    assert model.root.feature == 0
    assert all(child.is_leaf for _, child in model.root.children)
    assert accuracy(model, m) == 1.0


def test_tree_constant_labels_single_leaf():
    m = matrix([["a"], ["b"]], [1, 1])
    model = train_decision_tree(m)
    assert model.root.is_leaf and model.root.label == 1


def test_tree_tie_breaks_to_lower_feature_index():
    # both columns split perfectly; the first must win
    m = matrix([["a", "x"], ["a", "x"], ["b", "y"], ["b", "y"]], [1, 1, 0, 0])
    assert train_decision_tree(m).root.feature == 0


def test_tree_min_leaf_blocks_id_column():
    # column 0 is id-like: splitting it would make singleton leaves
    m = matrix([["i1", "a"], ["i2", "a"], ["i3", "b"], ["i4", "b"]], [1, 1, 0, 0])
    model = train_decision_tree(m, TrainConfig(min_leaf=2))
    assert model.root.feature == 1


def test_tree_unseen_value_routes_to_largest_child():
    m = matrix([["a"], ["a"], ["a"], ["b"], ["b"]], [1, 1, 1, 0, 0])
    model = train_decision_tree(m, TrainConfig(min_leaf=2))
    assert model.predict(["zzz"]) == 1  # 'a' child is larger


def test_tree_missing_is_ordinary_split_value():
    m = matrix([[None], [None], ["b"], ["b"]], [1, 1, 0, 0])
    model = train_decision_tree(m)
    assert model.predict([None]) == 1
    assert model.predict(["b"]) == 0


def test_tree_root_split_on_gender_vs_many_surnames():
    # a dominant two-valued column vs a high-cardinality column: verify the
    # trained root split has exhaustively maximal admissible information gain
    rng = random.Random(5)
    rows, labels = [], []
    surnames = [f"s{i}" for i in range(12)]
    for i in range(48):
        gender = "f" if i % 2 else "m"
        surname = surnames[i % 12]
        rows.append([gender, surname])
        labels.append(int(gender == "f" and rng.random() < 0.9))
    m = matrix(rows, labels)
    model = train_decision_tree(m, TrainConfig(min_leaf=2))

    def ig_of(j):
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(row[j], []).append(i)
        if any(len(g) < 2 for g in groups.values()):
            return -1.0
        return oracle_ig(labels, list(groups.values()))

    best = max(range(2), key=ig_of)
    assert model.root.feature == best


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")),
                min_size=1, max_size=12))
def test_tree_memorizes_consistent_rows(cells):
    # labels determined by the first column: the greedy split always finds a
    # positive-gain path, so min_leaf=1 memorizes every (repeatable) row
    labels = [int(a == "a") for a, _ in cells]
    m = matrix([list(c) for c in cells], labels)
    model = train_decision_tree(m, TrainConfig(max_depth=50, min_leaf=1))
    for row, y in zip(m.rows, m.labels):
        assert model.predict(row) == y


def test_tree_stops_on_zero_gain_plateau():
    # parity labels: every single-column split has zero gain, so the tree
    # stops at a majority leaf rather than splitting blindly
    rows = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
    model = train_decision_tree(matrix(rows, [0, 1, 1, 0]),
                                TrainConfig(max_depth=50, min_leaf=1))
    assert model.root.is_leaf
    assert model.root.label == 0


def test_knn_exact_row_k1():
    m = matrix([["a", "x"], ["b", "y"]], [1, 0])
    model = train_knn(m, TrainConfig(knn_k=1))
    assert model.predict(["a", "x"]) == 1
    assert model.predict(["b", "y"]) == 0


def test_knn_k_geq_n_gives_majority():
    m = matrix([["a"], ["b"], ["c"]], [1, 0, 0])
    model = train_knn(m, TrainConfig(knn_k=5))
    assert model.predict(["a"]) == 0


def test_knn_matches_brute_force():
    rows = [["a", "x", "p"], ["a", "y", "q"], ["b", "x", "q"], ["b", "y", "p"]]
    labels = [1, 0, 1, 0]
    model = train_knn(matrix(rows, labels), TrainConfig(knn_k=3))
    for query in itertools.product("ab", "xy", "pq"):
        q = list(query)
        dists = sorted((sum(r[i] != q[i] for i in range(3)), i)
                       for i, r in enumerate(rows))
        votes = [labels[i] for _, i in dists[:3]]
        assert model.predict(q) == int(sum(votes) * 2 > len(votes))


def exhaustive_separable(rows, labels):
    """Is there any +-1 weighting over one-hot cells separating the rows?"""
    cells = sorted({(j, v) for row in rows for j, v in enumerate(row)})
    for ws in itertools.product((-1, 0, 1), repeat=len(cells)):
        w = dict(zip(cells, ws))
        for b in (-1, 0, 1):
            ok = True
            for row, y in zip(rows, labels):
                score = b + sum(w[(j, v)] for j, v in enumerate(row))
                if (score > 0) != bool(y):
                    ok = False
                    break
            if ok:
                return True
    return False


def test_linear_separable_toy():
    rows = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
    labels = [1, 1, 0, 0]
    assert exhaustive_separable(rows, labels)
    model = train_linear(matrix(rows, labels), TrainConfig(epochs=200))
    assert accuracy(model, matrix(rows, labels)) == 1.0


def test_linear_single_class_is_constant():
    model = train_linear(matrix([["a"], ["b"]], [1, 1]))
    assert model.constant
    assert model.predict(["zzz"]) == 1
    assert model.predict(["a"]) == 1


def test_linear_duplicated_rows_equals_double_epochs():
    rows = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
    labels = [1, 0, 1, 0]
    single = train_linear(matrix(rows, labels), TrainConfig(epochs=40))
    doubled = train_linear(matrix(rows + rows, labels + labels),
                           TrainConfig(epochs=20))
    for query in itertools.product("ab", "xy"):
        assert single.predict(list(query)) == doubled.predict(list(query))
    assert single.weights == pytest.approx(doubled.weights)


def test_models_survive_json():
    m = matrix([["a", None], ["b", "y"], ["a", "y"], ["b", None]], [1, 0, 1, 0])
    for train in (train_decision_tree, train_knn, train_linear):
        model = train(m, TrainConfig())
        back = model_from_json(model.to_json(), 2)
        for row in m.rows + [["zzz", "y"], [None, None]]:
            assert back.predict(row) == model.predict(row)


def dataset_from(rows, labels):
    names = [f"f{j}" for j in range(len(rows[0]))]
    examples = [Example(f"e{i}", y, dict(zip(names, row)))
                for i, (row, y) in enumerate(zip(rows, labels))]
    return Dataset(examples, [(n, n) for n in names])


def test_shrink_table_is_built_once_and_equals_a_fresh_build():
    lam, steps = TrainConfig().regularization, 50 * 7
    fresh = [1.0 - 1.0 / (lam * t) * lam for t in range(1, steps + 1)]
    table = shrink_table(lam, steps)
    assert shrink_table(lam, steps) is table
    assert list(table) == fresh


def test_cv_constant_labels_all_ones():
    ds = dataset_from([["a"], ["b"], ["c"], ["d"]], [1, 1, 1, 1])
    for kind in ("tree", "knn", "linear"):
        accs = cross_validate(ds, [BaseFeature("f0")], EMPTY_KB, BASELINE, [kind], folds=2,
                              seed=0)["baseline"][kind]
        assert accs == [1.0, 1.0]


def test_cv_same_seed_is_identical():
    rows = [[v] for v in "aabbccddee"]
    labels = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    ds = dataset_from(rows, labels)
    a = cross_validate(ds, [BaseFeature("f0")], EMPTY_KB, BASELINE, ["tree"], folds=5,
                       seed=7)["baseline"]["tree"]
    b = cross_validate(ds, [BaseFeature("f0")], EMPTY_KB, BASELINE, ["tree"], folds=5,
                       seed=7)["baseline"]["tree"]
    assert a == b
    assert stratified_folds(labels, 5, 7) == stratified_folds(labels, 5, 7)


def test_cv_rejects_more_folds_than_examples():
    ds = dataset_from([["a"], ["b"]], [0, 1])
    with pytest.raises(ValueError):
        cross_validate(ds, [BaseFeature("f0")], EMPTY_KB, BASELINE, ["tree"], folds=3, seed=0)


def test_cv_rejects_duplicate_learners():
    ds = dataset_from([["a"], ["b"], ["c"], ["d"]], [0, 1, 0, 1])
    with pytest.raises(ValueError, match="duplicate"):
        cross_validate(ds, [BaseFeature("f0")], EMPTY_KB, BASELINE, ["tree", "tree"], folds=2,
                       seed=0)


def test_stratified_folds_enumerated():
    # 10 examples, 6/4 label split, 5 folds: every fold holds 2 examples and
    # the per-fold label counts are as close to 60/40 as integers allow
    labels = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    folds = stratified_folds(labels, 5, seed=3)
    assert sorted(i for f in folds for i in f) == list(range(10))
    sizes = sorted(len(f) for f in folds)
    assert sizes == [2, 2, 2, 2, 2]
    pos_counts = sorted(sum(labels[i] for i in f) for f in folds)
    assert pos_counts == [1, 1, 1, 1, 2]


@given(st.integers(0, 10_000))
def test_majority_label_tie_is_zero(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 12)
    labels = [rng.randint(0, 1) for _ in range(n)]
    got = majority_label(labels)
    ones = sum(labels)
    if ones * 2 == n:
        assert got == 0
    else:
        assert got == int(ones * 2 > n)
