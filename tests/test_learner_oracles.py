"""Differential tests: the optimised learners against their reference versions.

The linear trainer must reproduce the reference weights bit for bit (same
floats, same key order), and the k-NN model must make the same prediction
as sorting every stored row, on ragged rows, unseen values and k >= n.  A
generated feature's model, given a row evaluated on demand, must predict as
it does on the fully evaluated row.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

import kbfg.features
import learner_oracles
from kbfg.data import FeatureMatrix, materialize
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
    majority_label,
    train_knn,
    train_linear,
)
from kbfg.recursive import GenerationConfig, generate_features
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
