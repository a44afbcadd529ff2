"""Differential tests: the optimised learners against their reference versions.

The linear trainer must reproduce the reference weights bit for bit (same
floats, same key order), and the k-NN model must make the same prediction
as sorting every stored row, on ragged rows, unseen values and k >= n.  A
generated feature's model, given a row evaluated on demand, must predict as
it does on the fully evaluated row.  On the generation hot path,
``materialize`` must build the matrix that evaluating every cell on its own
builds, the bitmask tree the same ``to_json()`` as the list-grouping tree
(gains tied within 1e-12 included), ``create_new_problem`` the same
problems and dropped-candidate records as labelling every value first, and
``expand_features`` the same features as evaluating every source cell by
cell.  A feature's canonical text and a classifier's digest, written from
their parts, must equal ``json.dumps`` of the feature's JSON dict and the
SHA-1 of that text.
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
from kbfg.expand import expand_features
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    RelationFeature,
    VALUE_COLUMN,
    features_from_document,
    features_to_document,
    predict_on_token,
    serialize_feature,
)
from kbfg.harness import base_features
from kbfg.kb import KBError, load_kb, schema_lines, triple_lines
from kbfg.learners import (
    LEARNER_KINDS,
    KnnModel,
    LinearModel,
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
        tokens |= set(rel.index).union(*rel.index.values())
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
    # the token itself is always an inner: only tokens are subjects of r0, r1 and w0
    shared = [TOK] + draw(st.lists(inners(), max_size=2))
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


@given(token_datasets(), st.lists(st.one_of(st.sampled_from([TOK, NOTHING]), inners()),
                                  max_size=4),
       st.sampled_from(FAMILIES), st.sampled_from([1.0, 0.5, 0.2]))
def test_expand_features_identical_to_reference(ds, feats, family, coverage):
    # inputs repeat, hold sets and missing values, and may already be a
    # generated feature (g(tok)), which must not be generated again
    cfg = GenerationConfig(aggregator_family=family, coverage_threshold=coverage)
    assert expand_features(ds, feats, GEN_KB, cfg) == \
        learner_oracles.expand_features(ds, feats, GEN_KB, cfg)


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
        assert list(m.masks(j).items()) == list(row_masks([row[j] for row in m.rows]).items())


def test_family_member_groups_are_in_the_order_of_their_lowest_row():
    # a member's groups as materialize orders them, with and without a
    # missing inner value, whichever group row 0 is in
    reached = Counter()

    @given(token_datasets(min_size=1), feature_lists())
    def check(ds, feats):
        # the rows as drawn, and reversed: another row 0
        for rows in (ds, ds.subset(range(len(ds) - 1, -1, -1))):
            m = materialize(rows, feats, GEN_KB)
            for j, f in enumerate(feats):
                if isinstance(f, RelationFeature) and f.aggregator is not None:
                    column = m.column(j)
                    assert list(m.masks(j).items()) == list(row_masks(column).items())
                    reached["missing" if None in column else "no missing", column[0]] += 1

    check()
    assert all(reached[inner, row0] >= 10 for inner in ("missing", "no missing")
               for row0 in ("0", "1")), reached


@given(token_datasets(), feature_lists(), feature_lists(), st.data())
def test_column_first_matrix_matches_a_row_major_reference(ds, feats, more, data):
    # rows, subset, masks and extend against learner_oracles.materialize's rows and
    # list appends; `more` shares inners with `feats`, so a family of it may read
    # its inner from a column of the matrix it extends
    m = materialize(ds, feats, GEN_KB)
    reference = learner_oracles.materialize(ds, feats, GEN_KB).rows
    assert m.rows == reference

    def check_masks(matrix, rows):
        for j in range(len(matrix.feature_names)):
            assert list(matrix.masks(j).items()) == \
                list(row_masks([row[j] for row in rows]).items())

    check_masks(m, reference)
    indices = data.draw(st.lists(st.integers(0, len(ds) - 1), max_size=8)) if len(ds) else []
    child, child_ds = m.subset(indices), ds.subset(indices)
    child_reference = [list(reference[i]) for i in indices]
    assert (child.rows, child.labels, child.feature_names) == \
        (child_reference, child_ds.labels, m.feature_names)
    child.extend(child_ds, more, GEN_KB)
    appended = learner_oracles.materialize(child_ds, more, GEN_KB)
    for row, new in zip(child_reference, appended.rows):
        row += new
    assert child == FeatureMatrix(child_reference, child_ds.labels,
                                  m.feature_names + appended.feature_names)
    check_masks(child, child_reference)
    assert m.rows == reference and len(m.feature_names) == len(feats)


def test_tree_reads_neither_rows_nor_family_cells(monkeypatch):
    # a derived problem's shape: a family over the token and one plain column
    ds = Dataset([Example(f"e{i}", int(i % 3 == 0), {"tok": TOKENS[i % len(TOKENS)]})
                  for i in range(12)], [("tok", "token")])
    feats = [TOK] + [RelationFeature(TOK, "r0", AggregatorInstance("any", v)) for v in "ab"]
    m = materialize(ds, feats, GEN_KB)
    read = []
    column = FeatureMatrix.column
    with monkeypatch.context() as mp:
        mp.setattr(FeatureMatrix, "rows", property(lambda self: read.append("rows")))
        mp.setattr(FeatureMatrix, "column", lambda self, j: read.append(j) or column(self, j))
        model = train_decision_tree(m, TrainConfig(min_leaf=1))
    assert read == []
    assert model.to_json() == learner_oracles.train_decision_tree(
        m, TrainConfig(min_leaf=1)).to_json()


class CountingIndex(dict):
    """A relation index that counts its reads by subject, through `get` and `[]`."""

    def __init__(self, index, reads):
        super().__init__(index)
        self.reads = reads

    def get(self, subject, default=None):
        self.reads[subject] += 1
        return super().get(subject, default)

    def __getitem__(self, subject):
        self.reads[subject] += 1
        return super().__getitem__(subject)


def counted_reads(monkeypatch, relation):
    """The reads of `relation`'s index in GEN_KB, by subject, from now on."""
    reads = Counter()
    rel = GEN_KB.relations[relation]
    monkeypatch.setattr(rel, "index", CountingIndex(rel.index, reads))
    return reads


def test_majority_family_reads_the_index_once_per_distinct_value_and_token(monkeypatch,
                                                                           evaluations):
    ds = Dataset([Example("e0", 1, {"tok": "t2"}),
                  Example("e1", 0, {"tok": frozenset({"t0", "t1", "t6"})}),
                  Example("e2", 1, {"tok": None}),
                  Example("e3", 0, {"tok": "t4"}),
                  Example("e4", 1, {"tok": frozenset({"t0", "t1", "t6"})})],
                 [("tok", "token")])
    family = [RelationFeature(TOK, "r0", AggregatorInstance("majority", v))
              for v in LETTERS]
    reads = counted_reads(monkeypatch, "r0")
    matrix = materialize(ds, family, GEN_KB)
    assert matrix.rows == [["1", "0", "0", "0"], ["1", "0", "0", "0"],
                           [None] * 4, ["0", "0", "1", "0"], ["1", "0", "0", "0"]]
    # e1 and e4 hold the same set, whose tokens are read once
    assert reads == {t: 1 for t in ("t2", "t0", "t1", "t6", "t4")}
    # the inner value is evaluated once per row, the members never one by one
    assert sorted(evaluations.values()) == [1] * 5
    assert {name for _, name in evaluations} == {"tok"}


def test_any_family_reads_the_index_once_per_distinct_token(monkeypatch, evaluations):
    ds = Dataset([Example("e0", 1, {"tok": "t2"}),
                  Example("e1", 0, {"tok": frozenset({"t0", "t1", "t6"})}),
                  Example("e2", 1, {"tok": None}),
                  Example("e3", 0, {"tok": "t4"}),
                  Example("e4", 1, {"tok": "t2"}),
                  Example("e5", 0, {"tok": frozenset({"t0", "t4"})})], [("tok", "token")])
    family = [RelationFeature(TOK, "r0", AggregatorInstance("any", v)) for v in LETTERS]
    reads = counted_reads(monkeypatch, "r0")
    matrix = materialize(ds, family, GEN_KB)
    assert matrix.rows == [["1", "1", "0", "0"], ["1", "1", "0", "0"], [None] * 4,
                           ["0", "0", "1", "0"], ["1", "1", "0", "0"], ["1", "0", "1", "0"]]
    # t2, t0 and t4 occur in two rows each and are still read once; t6, which
    # r0 does not cover, is not read
    assert reads == {t: 1 for t in ("t2", "t0", "t1", "t4")}
    assert sorted(evaluations.values()) == [1] * 6
    assert {name for _, name in evaluations} == {"tok"}


@pytest.mark.parametrize("cells", [(None, None), (None, "t6")], ids=["all-missing", "one-token"])
def test_any_family_on_an_undeclared_relation_raises_only_with_a_token(cells):
    ds = Dataset([Example(f"e{i}", i % 2, {"tok": v}) for i, v in enumerate(cells)],
                 [("tok", "token")])
    family = [RelationFeature(TOK, "undeclared", AggregatorInstance("any", v)) for v in "ab"]
    for build in (materialize, learner_oracles.materialize):
        if any(cells):
            with pytest.raises(KBError, match="undeclared relation 'undeclared'"):
                build(ds, family, GEN_KB)
        else:
            assert build(ds, family, GEN_KB).rows == [[None, None], [None, None]]


@st.composite
def tree_problems(draw):
    n = draw(st.integers(1, 16))
    width = draw(st.integers(1, 5))
    column = st.one_of(
        st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),  # many near-ties
        st.lists(st.sampled_from("ab"), min_size=n, max_size=n),    # two groups at most
        st.lists(values, min_size=n, max_size=n))
    columns = draw(st.lists(column, min_size=width, max_size=width))
    # copies of drawn columns, placed anywhere: equal (size, positives) splits
    for _ in range(draw(st.integers(0, 2))):
        copy = columns[draw(st.integers(0, len(columns) - 1))]
        columns.insert(draw(st.integers(0, len(columns))), copy)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cfg = TrainConfig(min_leaf=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 5)))
    rows = [list(row) for row in zip(*columns)]
    return FeatureMatrix(rows, labels, [f"f{j}" for j in range(len(columns))]), cfg


def recorded(fn, counts_of):
    """`fn` wrapped to record each split it scores, and the records: the gain's
    hex by (n, ones, counts), and the number of calls.  `counts_of(*args)`
    gives (n, ones, [(size, ones) per group]).  A two-group split's counts are
    sorted, as its gain does not depend on their order; a larger split keeps
    the order its terms are summed in.  One key never scores two gains."""
    gains, calls = {}, []

    def recording(*args):
        gain = fn(*args)
        n, ones, counts = counts_of(*args)
        key = (n, ones, tuple(sorted(counts) if len(counts) == 2 else counts))
        assert gains.setdefault(key, gain.hex()) == gain.hex()
        calls.append(key)
        return gain

    return recording, gains, calls


def tree_gains(m, cfg):
    """Train the tree and the reference tree on `m`, check that they agree, and
    give the records of the splits each scores, the tree's first."""
    gain, gains, calls = recorded(kbfg.learners._gain,
                                  lambda n, ones, groups: (n, ones, list(groups)))
    reference, reference_gains, reference_calls = recorded(
        learner_oracles.information_gain,
        lambda labels, groups: (len(labels), sum(labels),
                                [(len(g), sum(labels[i] for i in g)) for g in groups]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kbfg.learners, "_gain", gain)
        mp.setattr(learner_oracles, "information_gain", reference)
        assert train_decision_tree(m, cfg).to_json() == \
            learner_oracles.train_decision_tree(m, cfg).to_json()
    return (gains, calls), (reference_gains, reference_calls)


@given(tree_problems())
def test_tree_identical_to_reference(problem):
    m, cfg = problem
    # every split either tree scores, node by node, is scored by the other, to the same float
    (gains, _), (reference_gains, _) = tree_gains(m, cfg)
    assert gains == reference_gains
    for j in range(len(m.feature_names)):
        assert column_information_gain(m, j) == learner_oracles.column_information_gain(m, j)


def test_tree_sums_a_child_node_groups_in_their_first_seen_order():
    # below the root, the values of these columns first appear in another
    # order than in the whole matrix, and summing them in the root's order
    # moves some gains by a rounding
    columns = ["dcbbdccdbcacbd", "dbcbbdbccdbdbc", "caccccccabdcdd"]
    labels = [1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1]
    m = FeatureMatrix([list(row) for row in zip(*columns)], labels, ["f0", "f1", "f2"])
    (gains, _), (reference_gains, _) = tree_gains(m, TrainConfig(min_leaf=1))
    assert gains == reference_gains


def test_tree_scores_each_two_group_split_once_per_node():
    # f2 copies f0, so at the root its split has f0's sizes and positive
    # counts: scored once there, and the tie goes to f0
    columns = ["aaabbaba", "xyyyxyxx", "aaabbaba"]
    m = FeatureMatrix([list(row) for row in zip(*columns)], [0, 1, 0, 0, 1, 1, 0, 1],
                      ["f0", "f1", "f2"])
    (gains, calls), (reference_gains, reference_calls) = tree_gains(m, TrainConfig(min_leaf=1))
    assert gains == reference_gains
    assert (len(calls), len(reference_calls)) == (4, 5)
    assert train_decision_tree(m, TrainConfig(min_leaf=1)).root.feature == 0


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


def test_tree_never_splits_below_a_two_valued_column_undersized_group():
    # f1's "q" group holds row 3 alone, so at min_leaf 2 it cannot split the
    # root or any node below it, though on the f0 = "x" child it would
    # separate the labels, as it does at min_leaf 1
    columns = ["xxxxyyyy", "pppqpppp"]
    m = FeatureMatrix([list(row) for row in zip(*columns)], [0, 0, 0, 1, 1, 1, 1, 1],
                      ["f0", "f1"])
    grown = {}
    for min_leaf in (1, 2):
        cfg = TrainConfig(min_leaf=min_leaf)
        grown[min_leaf] = tree = train_decision_tree(m, cfg)
        assert tree.to_json() == learner_oracles.train_decision_tree(m, cfg).to_json()
        assert tree.root.feature == 0
    [(x, on_x), _] = grown[1].root.children
    assert (x, on_x.feature) == ("x", 1)
    assert [c.to_json() for _, c in grown[2].root.children] == \
        [{"leaf": 0, "n": 4}, {"leaf": 1, "n": 4}]


def test_tree_skips_a_two_valued_column_constant_on_a_child():
    # f1 is "p" on every row of the f0 = "x" child, so there f2 splits; on the
    # f0 = "y" child f1 has both values and splits
    columns = ["yyxyxx", "pqpqpp", "uvvvuu"]
    m = FeatureMatrix([list(row) for row in zip(*columns)], [1, 0, 0, 1, 1, 0],
                      ["f0", "f1", "f2"])
    cfg = TrainConfig(min_leaf=1)
    tree = train_decision_tree(m, cfg)
    assert tree.to_json() == learner_oracles.train_decision_tree(m, cfg).to_json()
    [(x, on_x), (y, on_y)] = tree.root.children
    assert (tree.root.feature, x, y) == (0, "x", "y")
    assert on_x.feature == 2 and on_y.feature == 1


@pytest.mark.parametrize("min_leaf, root", [(1, 0), (2, 1)])
def test_tree_rejects_a_two_group_split_by_the_size_of_its_second_group(min_leaf, root):
    # f0 separates the labels, but its second group ("q", the one taken as the
    # node minus the first) holds one row, which min_leaf 2 does not allow
    m = FeatureMatrix([[v, w] for v, w in zip("pppppq", "aaabbb")], [0, 0, 0, 0, 0, 1],
                      ["f0", "f1"])
    cfg = TrainConfig(min_leaf=min_leaf)
    tree = train_decision_tree(m, cfg)
    assert tree.to_json() == learner_oracles.train_decision_tree(m, cfg).to_json()
    assert tree.root.feature == root
    if min_leaf == 2:
        assert [c.to_json() for _, c in tree.root.children] == \
            [{"leaf": 0, "n": 3}, {"leaf": 0, "n": 3}]


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


def test_create_new_problem_identical_to_reference():
    # a source with fewer non-missing values than min_size: an atom source is
    # counted from its groups, a set-valued one takes the full path
    reached = Counter()

    @given(token_datasets(min_size=1), st.integers(1, 6), st.sampled_from(FAMILIES),
           st.sampled_from([1.0, 0.5, 0.2]), st.integers(0, 2))
    def check(ds, min_size, family, coverage, level):
        cfg = GenerationConfig(min_recursive_size=min_size, aggregator_family=family,
                               coverage_threshold=coverage)
        column = [x.assignment["tok"] for x in ds.examples]
        stats, reference_stats = GenerationStats(), GenerationStats()
        masks = row_masks(column)
        problems = create_new_problem(TOK, ds, masks, GEN_KB, cfg, stats, level)
        assert problems == learner_oracles.create_new_problem(TOK, ds, column, GEN_KB, cfg,
                                                              reference_stats, level)
        # the library records a survivor only once its feature is built
        assert stats.records == [r for r in reference_stats.records if r.status != "generated"]
        if len(masks) - (None in masks) < min_size:
            if any(isinstance(v, frozenset) for v in masks):
                reached["set-valued"] += 1
            else:
                reached["atoms with a missing value" if None in masks else "atoms"] += 1

    check()
    assert all(reached[case] >= 5 for case in
               ("atoms with a missing value", "atoms", "set-valued")), reached


# every character JSON escapes or spells in a special way, and plain ones
ODD_CHARS = {"quote": '"', "backslash": "\\", "control": "\x00\x08\n\x1f\x7f",
             "non-ASCII": "\xe9\U0001d11e", "U+2028": "\u2028"}
texts = st.text(st.sampled_from("".join(ODD_CHARS.values()) + "ab/"), max_size=4) | st.text()


@st.composite
def models(draw, kind, width):
    default = draw(st.integers(0, 1))
    if kind == "tree":
        return TreeModel(draw(trees(width)), default, width)
    if kind == "knn":
        rows = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=1,
                             max_size=3))
        return KnnModel(rows, [draw(st.integers(0, 1)) for _ in rows],
                        draw(st.integers(1, 3)), default)
    weights = draw(st.dictionaries(st.tuples(st.integers(0, width), texts), st.floats(),
                                   max_size=3))
    return LinearModel(weights, draw(st.floats()), default, draw(st.booleans()))


@st.composite
def written_features(draw, depth=2):
    """A feature tree of every kind; classifiers nest up to `depth` deep."""
    kind = draw(st.sampled_from(("base", "relation", "classifier") if depth else ("base",)))
    if kind == "base":
        return BaseFeature(draw(texts))
    if kind == "relation":
        family = draw(st.none() | st.sampled_from(FAMILIES))
        aggregator = None if family is None else AggregatorInstance(family, draw(texts))
        return RelationFeature(draw(written_features(depth - 1)), draw(texts), aggregator)
    value_features = tuple(draw(st.lists(written_features(depth - 1), max_size=3)))
    return ClassifierFeature(draw(written_features(depth - 1)),
                             draw(models(draw(st.sampled_from(LEARNER_KINDS)),
                                         len(value_features))),
                             value_features, draw(st.none() | texts))


def subfeatures(f, nested=False):
    """`f` and every feature in its tree, each with whether it lies below a classifier."""
    yield f, nested
    if not isinstance(f, BaseFeature):
        for g in (f.inner, *getattr(f, "value_features", ())):
            yield from subfeatures(g, nested or isinstance(f, ClassifierFeature))


def written_cases(f, nested):
    """The case `f` itself is, and the strings of its own fields."""
    if isinstance(f, BaseFeature):
        return {"base"}, [f.name]
    if isinstance(f, RelationFeature):
        agg = f.aggregator
        if agg is None:
            return {"relation"}, [f.relation]
        return {f"relation:{agg.family}"}, [f.relation, agg.value]
    cases = {f"classifier:{f.model.kind}", "value features" if f.value_features
             else "no value features",
             "partition_type null" if f.partition_type is None else "partition_type string"}
    return cases | ({"nested classifier"} if nested else set()), [f.partition_type or ""]


def test_canonical_text_and_digest_match_json_dumps():
    reached = Counter()

    @given(written_features())
    def check(f):
        assert serialize_feature(f) == learner_oracles.serialize_feature(f)
        for g, nested in subfeatures(f):
            if isinstance(g, ClassifierFeature):
                assert g.digest == learner_oracles.classifier_digest(g)
            cases, strings = written_cases(g, nested)
            reached.update(cases)
            reached.update(name for name, chars in ODD_CHARS.items()
                           if any(c in s for s in strings for c in chars))

    check()
    expected = {"base", "relation", *(f"relation:{family}" for family in FAMILIES),
                *(f"classifier:{kind}" for kind in LEARNER_KINDS), "nested classifier",
                "no value features", "value features", "partition_type null",
                "partition_type string", *ODD_CHARS}
    assert expected <= reached.keys(), expected - reached.keys()
