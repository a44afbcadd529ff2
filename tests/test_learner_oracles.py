"""Differential tests: the optimised learners against their reference versions.

The linear trainer must reproduce the reference weights bit for bit (same
floats, same key order), and the k-NN model must make the same prediction
as sorting every stored row, on ragged rows, unseen values and k >= n.  A
generated feature's model, given a row evaluated on demand, must predict as
it does on the fully evaluated row.  On the generation hot path,
``materialize`` must build the matrix that evaluating every cell on its own
builds, the bitmask tree the same ``to_json()`` as the list-grouping tree
(gains tied within 1e-12 included), and ``create_new_problem`` the same
problems and candidate records as labelling every value first.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

import kbfg.features
import kbfg.learners
import learner_oracles
from kbfg.aggregators import FAMILIES, AggregatorInstance, fired_targets
from kbfg.data import Dataset, Example, FeatureMatrix, materialize, row_masks
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    RelationFeature,
    VALUE_COLUMN,
    features_from_document,
    features_to_document,
    predict_on_token,
)
from kbfg.harness import base_features
from kbfg.kb import load_kb, schema_lines, triple_lines
from kbfg.learners import (
    LEARNER_KINDS,
    KnnModel,
    TrainConfig,
    TreeModel,
    TreeNode,
    column_information_gain,
    majority_label,
    train_decision_tree,
    train_knn,
    train_linear,
)
from kbfg.recursive import (
    GenerationConfig,
    GenerationStats,
    create_new_problem,
    generate_features,
)
from kbfg.synth import ScenarioSpec, gen_disorder_scenario

ATOMS = ("a", "b", "c")
values = st.one_of(st.none(), st.sampled_from(ATOMS),
                   st.frozensets(st.sampled_from(ATOMS), min_size=1))
# regularization 1.0 makes step 1's shrink factor exactly 0
regularizations = st.one_of(st.just(1.0), st.sampled_from([1e-3, 0.1, 0.5]),
                            st.floats(min_value=1e-4, max_value=4.0))


def exact(model):
    """Weights and bias as hex floats, in insertion order, plus the flags."""
    return ([(k, w.hex()) for k, w in model.weights.items()], model.bias.hex(),
            model.default_class, model.constant)


@st.composite
def linear_problems(draw):
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cfg = TrainConfig(epochs=draw(st.integers(1, 30)),
                      regularization=draw(regularizations))
    return FeatureMatrix(rows, labels, [f"f{j}" for j in range(width)]), cfg


@given(linear_problems())
def test_linear_weights_bit_identical_to_reference(problem):
    m, cfg = problem
    assert exact(train_linear(m, cfg)) == exact(learner_oracles.train_linear(m, cfg))


@st.composite
def knn_problems(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(values, max_size=4), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(1, 15))
    queries = draw(st.lists(
        st.lists(st.one_of(values, st.just("unseen")), max_size=5), min_size=1, max_size=8))
    return KnnModel(rows, labels, k, majority_label(labels)), queries


@given(knn_problems())
def test_knn_predictions_identical_to_reference(problem):
    model, queries = problem
    for q in queries:
        assert model.predict(q) == learner_oracles.knn_predict(model, q)


def test_learners_identical_to_reference_on_generated_features():
    train, test, kb, _ = gen_disorder_scenario(
        ScenarioSpec(seed=5, n_train=80, n_test=40, n_countries=8))
    feats = base_features(train)
    feats += generate_features(train, feats, kb, GenerationConfig(depth=2))
    train_m, test_m = materialize(train, feats, kb), materialize(test, feats, kb)
    cfg = TrainConfig()
    assert exact(train_linear(train_m, cfg)) == \
        exact(learner_oracles.train_linear(train_m, cfg))
    knn = train_knn(train_m, cfg)
    for row in test_m.rows + train_m.rows:
        assert knn.predict(row) == learner_oracles.knn_predict(knn, row)


@st.composite
def trees(draw, width, depth=3):
    """A tree of any shape over `width` columns; it may split on a column past them."""
    if depth == 0 or draw(st.booleans()):
        return TreeNode(label=draw(st.integers(0, 1)), n=1)
    children = draw(st.lists(st.tuples(values, trees(width, depth - 1)),
                             min_size=1, max_size=4))
    return TreeNode(feature=draw(st.integers(0, width)), children=children,
                    fallback=draw(st.integers(0, len(children) - 1)), n=len(children))


def classifiers(features):
    """Every classifier feature in `features`, nested value features included."""
    out = []
    for f in features:
        if isinstance(f, ClassifierFeature):
            out.append(f)
            out.extend(classifiers(f.value_features))
    return out


@contextmanager
def eager_rows():
    """Within the block, every classifier, nested ones too, evaluates its whole row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kbfg.features, "predict_on_token", learner_oracles.predict_on_token)
        yield


# each relation gives some of the tokens an atom, a set of atoms or nothing
SMALL_KB = load_kb(
    ["r0\tt0\ta", "r0\tt1\tb", "r0\tt2\ta", "r0\tt2\tb",
     "r1\tt0\tc", "r1\tt1\ta", "r1\tt3\tb", "r1\tt3\tc",
     "r2\tt1\ta", "r2\tt1\tc", "r2\tt2\tb", "r2\tt3\ta"],
    [f"r{k}\ttoken\tletter\trel" for k in range(3)])
ROW_FEATURES = tuple(RelationFeature(BaseFeature(VALUE_COLUMN), f"r{k}") for k in range(3))


@given(trees(len(ROW_FEATURES)))
def test_lazy_row_in_any_read_order_predicts_as_eager_row(tree):
    # a path may read the cells in any order, and one cell more than once
    f = ClassifierFeature(BaseFeature("token"), TreeModel(tree, 0, len(ROW_FEATURES)),
                          ROW_FEATURES)
    for tok in ("t0", "t1", "t2", "t3", "not-in-the-kb"):
        assert predict_on_token(f, tok, SMALL_KB) == \
            learner_oracles.predict_on_token(f, tok, SMALL_KB)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_lazy_row_predicts_as_eager_row(kind):
    train, test, kb, _ = gen_disorder_scenario(
        ScenarioSpec(seed=5, n_train=80, n_test=40, n_countries=8))
    feats = generate_features(train, base_features(train), kb,
                              GenerationConfig(depth=2, learner_kind=kind))
    tops = [f for f in feats if isinstance(f, ClassifierFeature)]
    nested = [f for f in classifiers(feats) if f not in tops]
    assert tops and nested
    # a model fed fewer or more value features than it was trained on
    extra = RelationFeature(BaseFeature(VALUE_COLUMN), "countryOf")
    resized = [ClassifierFeature(f.inner, f.model, f.value_features[:-1]) for f in tops] + \
              [ClassifierFeature(f.inner, f.model, f.value_features + (extra,)) for f in tops]
    tokens = {x.assignment["surname"] for x in train.examples + test.examples}
    for rel in kb.relations.values():
        tokens |= rel.subjects | rel.objects()
    cases = [(f, tok) for f in tops + nested + resized
             for tok in sorted(tokens) + ["not-in-the-kb"]]
    lazy = [predict_on_token(f, tok, kb) for f, tok in cases]
    with eager_rows():
        reference = [learner_oracles.predict_on_token(f, tok, kb) for f, tok in cases]
    assert lazy == reference


def with_distractors(kb, surnames, n=30):
    """`kb` plus `n` functional relations giving every surname a random tag.

    They cover every surname, so the generated surname classifier takes
    each as one more value feature, and its row gets wide.
    """
    schema, triples = schema_lines(kb), triple_lines(kb)
    for r in range(n):
        rng = random.Random(r)
        schema.append(f"tag{r:02d}\tsurname\ttag\tfn")
        triples += [f"tag{r:02d}\t{s}\tt{rng.randrange(2)}" for s in sorted(surnames)]
    return load_kb(triples, schema)


@pytest.mark.parametrize("distractors, factor", [(0, 4), (30, 10)])
def test_applied_tree_document_reads_fewer_kb_cells(monkeypatch, distractors, factor):
    # the plain scenario's classifiers have few value features, so a tree's
    # path skips fewer cells there than with 30 extra tags per surname
    train, test, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    if distractors:
        kb = with_distractors(kb, {x.assignment["surname"] for x in train.examples},
                              distractors)
    feats = generate_features(train, base_features(train), kb,
                              GenerationConfig(learner_kind="tree"))
    loaded = features_from_document(features_to_document(feats))
    assert max(len(f.value_features) for f in classifiers(loaded)) > distractors
    calls = 0
    lookup = kb.lookup  # the bound method, taken before the patch

    def counting(relation, subject):
        nonlocal calls
        calls += 1
        return lookup(relation, subject)

    monkeypatch.setattr(kb, "lookup", counting)
    lazy = materialize(test, loaded, kb)
    lazy_calls, calls = calls, 0
    with eager_rows():
        reference = materialize(test, loaded, kb)
    assert lazy.rows == reference.rows
    assert 0 < lazy_calls * factor <= calls


# --- generation hot path: aggregator families, bitmask tree, early size filter

LETTERS = ("a", "b", "c", "z")   # z is looked up from no token
# departure types `token` and `word` split a set-valued column's tokens
GEN_KB = load_kb(
    ["r0\tt0\ta", "r0\tt1\tb", "r0\tt2\ta", "r0\tt2\tb", "r0\tt4\tc",
     "r1\tt0\tc", "r1\tt1\ta", "r1\tt3\tb", "r1\tt3\tc", "r1\tt4\tc",
     "r2\tt1\ta", "r2\tt1\tc", "r2\tt2\tb", "r2\tt5\ta",
     "w0\tt2\ta", "w0\tt3\tb", "w0\tt4\ta", "w0\tt5\tc",
     "g\tt0\ta", "g\tt1\tb", "g\tt3\ta", "g\tt5\tc",
     "h\ta\tb", "h\tb\tc", "h\tc\ta"],
    ["r0\ttoken\tletter\trel", "r1\ttoken\tletter\trel", "r2\ttoken\tletter\trel",
     "w0\tword\tletter\trel",
     "g\ttoken\tletter\tfn", "h\tletter\tletter\tfn"])
TOKENS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6")   # t6 is in no relation
cells = st.one_of(st.none(), st.sampled_from(TOKENS),
                  st.frozensets(st.sampled_from(TOKENS), min_size=1, max_size=3))


@st.composite
def token_datasets(draw, min_size=0):
    rows = draw(st.lists(st.tuples(cells, st.integers(0, 1)), min_size=min_size,
                         max_size=14))
    return Dataset([Example(f"e{i}", y, {"tok": v}) for i, (v, y) in enumerate(rows)],
                   [("tok", "token")])


TOK, NOTHING = BaseFeature("tok"), BaseFeature("nothing")   # `nothing` is never set


@st.composite
def nested_classifiers(draw):
    """A classifier over `tok` whose tree reads relation features of the token."""
    tree = draw(trees(len(ROW_FEATURES)))
    return ClassifierFeature(TOK, TreeModel(tree, draw(st.integers(0, 1)),
                                            len(ROW_FEATURES)), ROW_FEATURES)


@st.composite
def inners(draw):
    return draw(st.one_of(
        st.sampled_from([TOK, RelationFeature(TOK, "g"),
                         RelationFeature(RelationFeature(TOK, "g"), "h")]),
        nested_classifiers()))


@st.composite
def feature_lists(draw):
    """Columns of every kind; aggregators over a few shared inners form families."""
    shared = draw(st.lists(inners(), min_size=1, max_size=3))
    aggregator = st.builds(
        lambda inner, rel, family, target: RelationFeature(
            inner, rel, AggregatorInstance(family, target)),
        st.sampled_from(shared), st.sampled_from(["r0", "r1", "w0", "h"]),
        st.sampled_from(FAMILIES), st.sampled_from(LETTERS))
    other = st.one_of(
        st.sampled_from(shared),
        st.sampled_from([TOK, NOTHING, RelationFeature(TOK, "r1"),
                         # an undeclared relation whose inner is never set is never looked up
                         RelationFeature(NOTHING, "undeclared"),
                         RelationFeature(NOTHING, "undeclared",
                                         AggregatorInstance("any", "a"))]))
    return draw(st.lists(st.one_of(aggregator, aggregator, other), min_size=1, max_size=14))


@given(st.lists(st.sampled_from(LETTERS), max_size=8))
def test_fired_targets_match_the_reference_aggregators(multiset):
    for family, reference in (("any", learner_oracles.any_aggregate),
                              ("majority", learner_oracles.majority_aggregate)):
        assert fired_targets(family, multiset) == \
            {v for v in LETTERS if reference(multiset, v)}


@given(token_datasets(), feature_lists())
def test_materialize_identical_to_reference(ds, feats):
    m = materialize(ds, feats, GEN_KB)
    assert m == learner_oracles.materialize(ds, feats, GEN_KB)
    # `==` does not compare the masks a family fill hands over; they must be the
    # ones a scan of the column gives, in the same order
    for j in range(len(feats)):
        assert list(m.masks(j).items()) == list(row_masks(m.column(j)).items())


def test_family_makes_one_lookup_per_row_and_token(monkeypatch, evaluations):
    ds = Dataset([Example("e0", 1, {"tok": "t2"}),
                  Example("e1", 0, {"tok": frozenset({"t0", "t1", "t6"})}),
                  Example("e2", 1, {"tok": None}),
                  Example("e3", 0, {"tok": "t4"})], [("tok", "token")])
    family = [RelationFeature(TOK, "r0", AggregatorInstance("majority", v))
              for v in LETTERS]
    calls = Counter()
    lookup = GEN_KB.lookup  # the bound method, taken before the patch

    def counting(relation, subject):
        calls[relation, subject] += 1
        return lookup(relation, subject)

    monkeypatch.setattr(GEN_KB, "lookup", counting)
    matrix = materialize(ds, family, GEN_KB)
    assert matrix.rows == [["1", "0", "0", "0"], ["1", "0", "0", "0"],
                           [None] * 4, ["0", "0", "1", "0"]]
    assert calls == {("r0", t): 1 for t in ("t2", "t0", "t1", "t6", "t4")}
    # the inner value is evaluated once per row, the members never one by one
    assert sorted(evaluations.values()) == [1] * 4
    assert {name for _, name in evaluations} == {"tok"}


@st.composite
def tree_problems(draw):
    n = draw(st.integers(1, 16))
    width = draw(st.integers(1, 5))
    column = st.one_of(
        st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),  # many near-ties
        st.lists(values, min_size=n, max_size=n))
    columns = draw(st.lists(column, min_size=width, max_size=width))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cfg = TrainConfig(min_leaf=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 5)))
    rows = [list(row) for row in zip(*columns)]
    return FeatureMatrix(rows, labels, [f"f{j}" for j in range(width)]), cfg


def recorded(owner, name, calls):
    """`owner.name` wrapped to append each result to `calls`."""
    fn = getattr(owner, name)

    def recording(*args):
        calls.append(fn(*args))
        return calls[-1]

    return recording


@given(tree_problems())
def test_tree_identical_to_reference(problem):
    m, cfg = problem
    gains, reference_gains = [], []
    with pytest.MonkeyPatch.context() as mp:
        # every candidate split, node by node, scores the same float
        mp.setattr(kbfg.learners, "_gain", recorded(kbfg.learners, "_gain", gains))
        mp.setattr(learner_oracles, "information_gain",
                   recorded(learner_oracles, "information_gain", reference_gains))
        assert train_decision_tree(m, cfg).to_json() == \
            learner_oracles.train_decision_tree(m, cfg).to_json()
    assert [g.hex() for g in gains] == [g.hex() for g in reference_gains]
    for j in range(len(m.feature_names)):
        assert column_information_gain(m, j) == learner_oracles.column_information_gain(m, j)


def test_tree_sums_a_child_node_groups_in_their_first_seen_order():
    # below the root, the values of these columns first appear in another
    # order than in the whole matrix, and summing them in the root's order
    # moves some gains by a rounding
    columns = ["dcbbdccdbcacbd", "dbcbbdbccdbdbc", "caccccccabdcdd"]
    labels = [1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1]
    m = FeatureMatrix([list(row) for row in zip(*columns)], labels, ["f0", "f1", "f2"])
    gains, reference_gains = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kbfg.learners, "_gain", recorded(kbfg.learners, "_gain", gains))
        mp.setattr(learner_oracles, "information_gain",
                   recorded(learner_oracles, "information_gain", reference_gains))
        train_decision_tree(m, TrainConfig(min_leaf=1))
        learner_oracles.train_decision_tree(m, TrainConfig(min_leaf=1))
    assert [g.hex() for g in gains] == [g.hex() for g in reference_gains]


def test_tree_scores_a_column_again_below_its_undersized_group():
    # column 1 leaves row 0 alone at the root, so it cannot split there; below
    # the split on column 0, row 0 is elsewhere and column 1 splits perfectly
    rows = [["x", "q"], ["y", "p"], ["y", "p"], ["y", "r"], ["y", "r"], ["x", "p"],
            ["x", "r"]]
    m = FeatureMatrix(rows, [1, 1, 1, 0, 0, 0, 0], ["f0", "f1"])
    tree = train_decision_tree(m, TrainConfig(min_leaf=2))
    assert tree.to_json() == learner_oracles.train_decision_tree(
        m, TrainConfig(min_leaf=2)).to_json()
    assert tree.root.feature == 0 and tree.root.children[1][1].feature == 1


def test_tree_breaks_a_near_tie_as_the_reference():
    # the two columns' gains differ by one rounding (1.1e-16), within the 1e-12 tie
    labels = [1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1]
    columns = ["bbadbbaddaca", "dabbaadddcbb"]
    m = FeatureMatrix([list(row) for row in zip(*columns)], labels, ["f0", "f1"])
    gains = [learner_oracles.column_information_gain(m, j) for j in (0, 1)]
    assert 0 < abs(gains[0] - gains[1]) <= 1e-12
    assert [column_information_gain(m, j) for j in (0, 1)] == gains
    for cfg in (TrainConfig(min_leaf=1), TrainConfig(min_leaf=1, max_depth=1)):
        assert train_decision_tree(m, cfg).to_json() == \
            learner_oracles.train_decision_tree(m, cfg).to_json()


@given(token_datasets(min_size=1), st.integers(1, 6), st.sampled_from(FAMILIES),
       st.sampled_from([1.0, 0.5, 0.2]), st.integers(0, 2))
def test_create_new_problem_identical_to_reference(ds, min_size, family, coverage, level):
    cfg = GenerationConfig(min_recursive_size=min_size, aggregator_family=family,
                           coverage_threshold=coverage)
    column = [x.assignment["tok"] for x in ds.examples]
    stats, reference_stats = GenerationStats(), GenerationStats()
    problems = create_new_problem(TOK, ds, row_masks(column), GEN_KB, cfg, stats, level)
    assert problems == learner_oracles.create_new_problem(TOK, ds, column, GEN_KB, cfg,
                                                          reference_stats, level)
    assert stats.records == reference_stats.records
