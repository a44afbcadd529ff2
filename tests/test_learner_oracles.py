"""Differential tests: the optimised learners against their reference versions.

The linear trainer must reproduce the reference weights bit for bit (same
floats, same key order), and the k-NN model must make the same prediction
as sorting every stored row, on ragged rows, unseen values and k >= n.
"""

from hypothesis import given, strategies as st

import learner_oracles
from kbfg.data import FeatureMatrix, materialize
from kbfg.harness import base_features
from kbfg.learners import KnnModel, TrainConfig, majority_label, train_knn, train_linear
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
