import copy
import dataclasses
import functools
import gc
import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

import learner_oracles
from kbfg.data import (DatasetError, dataset_lines, load_dataset, load_dataset_file, materialize,
                       row_masks)
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    RelationFeature,
    composition_layers,
    FeatureDocError,
    evaluate_feature,
    feature_from_json,
    features_from_document,
    features_to_document,
    serialize_feature,
)
from kbfg.aggregators import AggregatorInstance
from kbfg.kb import KBError, load_kb
from kbfg.learners import FeatureMatrix, train_decision_tree
from kbfg.data import Example
from kbfg.harness import base_features
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.synth import ScenarioSpec, gen_disorder_scenario


KB = load_kb(
    [
        "countryOf\tnowak\tpoland",
        "countryOf\thaddad\tegypt",
        "borderOf\tegypt\tlibya",
        "borderOf\tegypt\tsudan",
        "locatedIn\ttexas\tusa",
        "locatedIn\taustin\ttexas",
    ],
    [
        "countryOf\tsurname\tcountry\tfn",
        "borderOf\tcountry\tcountry\trel",
        "locatedIn\tplace\tplace\trel",
    ],
)


def lines(*objs):
    return [json.dumps(o) for o in objs]


def test_load_atoms():
    ds = load_dataset(lines(
        {"schema": {"surname": "surname", "gender": "gender"}},
        {"id": "p1", "label": 1, "features": {"surname": "haddad", "gender": "f"}},
    ))
    assert ds.examples[0].assignment == {"surname": "haddad", "gender": "f"}
    assert ds.feature_names == ["surname", "gender"]


def test_load_value_set():
    ds = load_dataset(lines({"id": "d1", "label": 0,
                             "features": {"entities": ["texas", "austin"]}}))
    assert ds.examples[0].assignment["entities"] == frozenset({"texas", "austin"})


def test_empty_set_normalizes_to_missing():
    ds = load_dataset(lines({"id": "d1", "label": 0, "features": {"entities": []}}))
    assert ds.examples[0].assignment["entities"] is None


def test_duplicate_id_rejected():
    with pytest.raises(DatasetError, match="duplicate example id"):
        load_dataset(lines({"id": "a", "label": 0, "features": {}},
                            {"id": "a", "label": 1, "features": {}}))


def test_bad_label_rejected():
    with pytest.raises(DatasetError, match="label"):
        load_dataset(lines({"id": "a", "label": 2, "features": {}}))


def test_unknown_feature_name_rejected():
    with pytest.raises(DatasetError, match="not in schema header"):
        load_dataset(lines({"schema": {"surname": "surname"}},
                            {"id": "a", "label": 0, "features": {"oops": "x"}}))


def test_empty_schema_header_declares_no_feature():
    record = {"id": "a", "label": 0, "features": {"surname": "x"}}
    with pytest.raises(DatasetError, match="line 2: feature 'surname' not in schema header"):
        load_dataset(lines({"schema": {}}, record))
    # a record with no feature fits it
    ds = load_dataset(lines({"schema": {}}, {**record, "features": {}}))
    assert ds.schema == [] and [x.assignment for x in ds.examples] == [{}]


@pytest.mark.parametrize("obj,match", [
    ({"id": "a", "label": 0, "features": ["surname"]}, "line 2: features must be an object"),
    ({"id": "a", "label": 0, "features": None}, "line 2: features must be an object"),
    ({"schema": 5}, "line 1: schema header"),
    ({"schema": {"g": 3}}, "line 1: schema header"),
    ({"id": "a", "label": 0, "features": {"surname": [[]]}}, "line 2: feature 'surname'"),
    ({"id": "a", "label": 1.0, "features": {}}, "line 2: label must be 0 or 1"),
], ids=["features-list", "features-null", "schema-number", "schema-type-number",
        "set-member-list", "label-float"])
def test_malformed_header_or_record_names_the_line(obj, match):
    header = {"schema": {"surname": "surname"}}
    source = lines(obj) if "schema" in obj else lines(header, obj)
    with pytest.raises(DatasetError, match=match):
        load_dataset(source)


def test_dataset_file_errors_name_the_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines({"id": "a", "label": 3, "features": {}})) + "\n")
    with pytest.raises(DatasetError,
                       match=re.escape(f"{path}: line 1: label must be 0 or 1, got 3")):
        load_dataset_file(path)
    path.write_bytes(b'{"id": "\xe9", "label": 0}\n')
    with pytest.raises(DatasetError, match=re.escape(f"{path}: not UTF-8 text")):
        load_dataset_file(path)


def test_missing_schema_feature_fills_missing():
    ds = load_dataset(lines({"schema": {"surname": "surname", "gender": "gender"}},
                             {"id": "a", "label": 0, "features": {"surname": "nowak"}}))
    assert ds.examples[0].assignment["gender"] is None


def test_dataset_lines_roundtrip():
    ds = load_dataset(lines(
        {"schema": {"surname": "surname", "entities": "place"}},
        {"id": "a", "label": 0, "features": {"surname": "nowak", "entities": ["texas"]}},
        {"id": "b", "label": 1, "features": {"surname": "haddad"}},
    ))
    again = load_dataset(dataset_lines(ds))
    assert dataset_lines(again) == dataset_lines(ds)


def ex(label=0, **assignment):
    return Example("x", label, assignment)


def test_base_feature_reads_stored_value():
    assert evaluate_feature(BaseFeature("surname"), ex(surname="nowak"), KB) == "nowak"


def test_relation_any_aggregate_fires():
    f = RelationFeature(BaseFeature("surname"), "countryOf",
                        AggregatorInstance("any", "poland"))
    assert evaluate_feature(f, ex(surname="nowak"), KB) == "1"
    assert evaluate_feature(f, ex(surname="haddad"), KB) == "0"


def test_function_composition_gives_atom():
    f = RelationFeature(BaseFeature("surname"), "countryOf")
    assert evaluate_feature(f, ex(surname="nowak"), KB) == "poland"


def test_relation_on_missing_is_missing():
    f = RelationFeature(BaseFeature("surname"), "countryOf")
    assert evaluate_feature(f, ex(surname=None), KB) is None


def test_relation_on_set_unions_lookups():
    f = RelationFeature(BaseFeature("entities"), "locatedIn")
    v = evaluate_feature(f, ex(entities=frozenset({"texas", "austin"})), KB)
    assert v == frozenset({"usa", "texas"})


def constant_model(label, n_features=1):
    # a real trained model that predicts `label` everywhere
    m = FeatureMatrix([["a"]] * 2, [label, label], ["value"])
    return train_decision_tree(m)


def test_classifier_majority_vote_over_entities():
    from kbfg.learners import TrainConfig

    rows = [[f"e{i}"] for i in range(3)]
    model = train_decision_tree(FeatureMatrix(rows, [1, 1, 0], ["value"]),
                                TrainConfig(min_leaf=1))
    f = ClassifierFeature(BaseFeature("entities"), model,
                          (BaseFeature("value"),))
    got = evaluate_feature(f, ex(entities=frozenset({"e0", "e1", "e2"})), KB)
    assert got == "1"  # votes 1,1,0


def test_classifier_vote_tie_is_zero():
    from kbfg.learners import TrainConfig

    rows = [[f"e{i}"] for i in range(2)]
    model = train_decision_tree(FeatureMatrix(rows, [1, 0], ["value"]),
                                TrainConfig(min_leaf=1))
    f = ClassifierFeature(BaseFeature("entities"), model, (BaseFeature("value"),))
    assert evaluate_feature(f, ex(entities=frozenset({"e0", "e1"})), KB) == "0"


def test_classifier_missing_gives_default_class():
    f = ClassifierFeature(BaseFeature("surname"), constant_model(1),
                          (BaseFeature("value"),))
    assert evaluate_feature(f, ex(surname=None), KB) == str(f.model.default_class)


@given(st.sampled_from(["e0", "e1", "e2"]), st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_singleton_set_equals_atom(token, votes):
    from kbfg.learners import TrainConfig

    rows = [[f"e{i}"] for i in range(3)]
    model = train_decision_tree(FeatureMatrix(rows, votes, ["value"]),
                                TrainConfig(min_leaf=1))
    f = ClassifierFeature(BaseFeature("col"), model, (BaseFeature("value"),))
    atom = evaluate_feature(f, ex(col=token), KB)
    single = evaluate_feature(f, ex(col=frozenset({token})), KB)
    assert atom == single


def test_materialize_matches_pointwise_evaluation():
    ds = load_dataset(lines(
        {"schema": {"surname": "surname"}},
        {"id": "a", "label": 0, "features": {"surname": "nowak"}},
        {"id": "b", "label": 1, "features": {"surname": "haddad"}},
        {"id": "c", "label": 1, "features": {}},
    ))
    feats = [BaseFeature("surname"), RelationFeature(BaseFeature("surname"), "countryOf")]
    m = materialize(ds, feats, KB)
    assert len(m.rows) == 3 and len(m.rows[0]) == 2
    for i, x in enumerate(ds.examples):
        for j, f in enumerate(feats):
            assert m.rows[i][j] == evaluate_feature(f, x, KB)
    assert m.labels == [0, 1, 1]


def test_materialize_deterministic_and_pure():
    ds = load_dataset(lines(
        {"id": "a", "label": 0, "features": {"surname": "nowak"}},
        {"id": "b", "label": 1, "features": {"surname": "haddad"}},
    ))
    feats = [RelationFeature(BaseFeature("surname"), "borderOf",
                             AggregatorInstance("any", "libya"))]
    before = [dict(x.assignment) for x in ds.examples]
    m1 = materialize(ds, feats, KB)
    m2 = materialize(ds, feats, KB)
    assert m1.rows == m2.rows
    assert [dict(x.assignment) for x in ds.examples] == before


def assert_masks_match_columns(m):
    for j in range(len(m.feature_names)):
        assert list(m.masks(j).items()) == list(row_masks([row[j] for row in m.rows]).items())


def test_matrix_subset_copies_columns_that_extend_appends(evaluations):
    ds = load_dataset(lines(
        {"id": "a", "label": 0, "features": {"surname": "nowak"}},
        {"id": "b", "label": 1, "features": {"surname": "haddad"}},
        {"id": "c", "label": 0, "features": {}},
    ))
    country = RelationFeature(BaseFeature("surname"), "countryOf")
    m = materialize(ds, [BaseFeature("surname"), country], KB)
    assert m.masks(0) == {"nowak": 0b001, "haddad": 0b010, None: 0b100}
    child, child_ds = m.subset([2, 0]), ds.subset([2, 0])
    assert_masks_match_columns(child)
    none_then_poland = child.masks(1)
    # the family's inner is the child's column 1, so its groups are read from there
    border = RelationFeature(country, "borderOf", AggregatorInstance("any", "libya"))
    child.extend(child_ds, [border], KB)
    assert child.rows == [[None, None, None], ["nowak", "poland", "0"]]
    assert child.labels == [0, 0]
    assert child.feature_names == ["surname", "countryOf(surname)", border.name]
    # the masks built before the extension are kept, and the family's are its fill's
    assert child.masks(1) is none_then_poland and child.masks(2) == {None: 0b01, "0": 0b10}
    assert_masks_match_columns(child)
    assert set(evaluations.values()) == {1}    # each cell once, the family's never alone
    # the parent's rows, names and masks are untouched by its child's extension
    assert m.rows == [["nowak", "poland"], ["haddad", "egypt"], [None, None]]
    assert m.feature_names == ["surname", "countryOf(surname)"]
    assert_masks_match_columns(m)
    with pytest.raises(ValueError):
        child.extend(ds, [border], KB)


def test_feature_json_roundtrip():
    inner = RelationFeature(BaseFeature("surname"), "countryOf")
    f = ClassifierFeature(inner, constant_model(0),
                          (RelationFeature(BaseFeature("value"), "borderOf",
                                           AggregatorInstance("any", "libya")),))
    back = feature_from_json(json.loads(serialize_feature(f)))
    assert serialize_feature(back) == serialize_feature(f)
    assert back.name == f.name


def test_classifiers_with_equal_payloads_are_one_feature():
    inner = RelationFeature(BaseFeature("surname"), "countryOf")
    value_features = (RelationFeature(BaseFeature("value"), "borderOf",
                                      AggregatorInstance("any", "libya")),)
    a = ClassifierFeature(inner, constant_model(0), value_features)
    b = ClassifierFeature(inner, constant_model(0), value_features)
    assert a is not b and a.model is not b.model
    assert a == b and hash(a) == hash(b) and serialize_feature(a) == serialize_feature(b)
    assert len(a.digest) == 40 and a.name.endswith("#" + a.digest[:8])
    other = ClassifierFeature(inner, constant_model(1), value_features)
    assert other != a and serialize_feature(other) != serialize_feature(a)
    assert list(dict.fromkeys([a, b, other, b])) == [a, other]
    assert len({a, b, other}) == 2


def test_relation_name_is_a_field_derived_at_construction():
    f = RelationFeature(RelationFeature(BaseFeature("surname"), "countryOf"), "borderOf",
                        AggregatorInstance("any", "libya"))
    assert f.name == "borderOf(countryOf(surname)):any=libya"
    # equality, hash and repr read the three defining fields only, as before the field
    assert f == RelationFeature(f.inner, "borderOf", AggregatorInstance("any", "libya"))
    assert hash(f) == hash((f.inner, f.relation, f.aggregator))
    assert repr(f) == ("RelationFeature(inner=RelationFeature(inner=BaseFeature(name='surname'), "
                       "relation='countryOf', aggregator=None), relation='borderOf', "
                       "aggregator=AggregatorInstance(family='any', value='libya'))")
    for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and copied.name == f.name and hash(copied) == hash(f)
    renamed = dataclasses.replace(f, relation="neighbourOf")
    assert renamed.name == "neighbourOf(countryOf(surname)):any=libya"
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.name = "other"
    doc = f.to_json()
    assert feature_from_json(doc) == f
    with pytest.raises(FeatureDocError, match=r"^\$\.name: stored 'borderOf\(surname\)"):
        feature_from_json({**doc, "name": "borderOf(surname)"})


def test_composition_layers():
    base = BaseFeature("surname")
    rel = RelationFeature(base, "countryOf")
    assert composition_layers(base) == 0
    assert composition_layers(rel) == 0
    lvl1 = ClassifierFeature(base, constant_model(0), (BaseFeature("value"),))
    assert composition_layers(lvl1) == 1
    lvl2 = ClassifierFeature(base, constant_model(0), (lvl1,))
    assert composition_layers(lvl2) == 2


@functools.lru_cache(maxsize=None)
def scenario_seed1():
    return gen_disorder_scenario(ScenarioSpec(seed=1))


@functools.lru_cache(maxsize=None)
def generated_document(learner_kind):
    """The `generate` document of `ScenarioSpec(seed=1)` as JSON text."""
    train, _, kb, _ = scenario_seed1()
    feats = generate_features(train, base_features(train), kb,
                              GenerationConfig(learner_kind=learner_kind))
    return json.dumps(features_to_document(feats))


def _edit(path, change):
    """A mutation applying `change(container, key)` at the JSON `path`."""
    def mutate(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        change(target, last)
        return doc
    return mutate


def _set(path, value):
    return _edit(path, lambda target, key: target.__setitem__(key, value))


def _delete(path):
    return _edit(path, lambda target, key: target.__delitem__(key))


def _copy(source, target):
    """A mutation copying the value at JSON path `source` to `target`."""
    def mutate(doc):
        value = doc
        for key in source:
            value = value[key]
        return _set(target, value)(doc)
    return mutate


MODEL = ("features", 0, "model")
MALFORMED_DOCUMENTS = {
    "not-an-object": ("tree", lambda doc: doc["features"], r"^\$: not a feature document"),
    "no-features": ("tree", _delete(("features",)), r"^\$: missing 'features'"),
    "features-not-a-list": ("tree", _set(("features",), {}), r"^\$\.features: expected list"),
    "no-kind": ("tree", _delete(("features", 0, "kind")), r"^\$\.features\[0\]: missing 'kind'"),
    "unknown-kind": ("tree", _set(("features", 0, "kind"), "oracle"),
                     r"^\$\.features\[0\]\.kind: unknown feature kind"),
    "inner-no-kind": ("tree", _delete(("features", 0, "inner", "kind")),
                      r"^\$\.features\[0\]\.inner: missing 'kind'"),
    "empty-value-features": ("tree", _set(("features", 0, "value_features"), []),
                             r"^\$\.features\[0\]\.model\.n_features: 2 for 0"),
    "tree-split-out-of-range": ("tree", _set(MODEL + ("root", "feature"), 99),
                                r"^\$\.features\[0\]\.model\.root\.feature"),
    "tree-fallback-out-of-range": ("tree", _set(MODEL + ("root", "fallback"), 99),
                                   r"^\$\.features\[0\]\.model\.root\.fallback"),
    "tree-child-not-a-pair": ("tree", _set(MODEL + ("root", "children", 1), {"leaf": 1}),
                              r"^\$\.features\[0\]\.model\.root\.children\[1\]:"),
    "tree-leaf-not-a-label": ("tree", _set(MODEL + ("root", "children", 0, 1, "leaf"), 7),
                              r"^\$\.features\[0\]\.model\.root\.children\[0\]\[1\]\.leaf:"),
    "default-class-not-a-label": ("tree", _set(MODEL + ("default_class",), 5),
                                  r"^\$\.features\[0\]\.model\.default_class:"),
    "unknown-model-kind": ("tree", _set(MODEL + ("kind",), "forest"),
                           r"^\$\.features\[0\]\.model\.kind: unknown model kind"),
    "knn-short-row": ("knn", _delete(MODEL + ("rows", 3, 1)),
                      r"^\$\.features\[0\]\.model\.rows\[3\]: expected 2 cells"),
    "knn-k-zero": ("knn", _set(MODEL + ("k",), 0), r"^\$\.features\[0\]\.model\.k:"),
    "knn-labels-short": ("knn", _delete(MODEL + ("labels", -1)),
                         r"^\$\.features\[0\]\.model\.labels:"),
    "knn-label-not-a-label": ("knn", _set(MODEL + ("labels", 0), 2),
                              r"^\$\.features\[0\]\.model\.labels:"),
    "name-of-another-feature": ("tree", _copy(("features", 0, "value_features", 1, "name"),
                                              ("features", 0, "name")),
                                r"^\$\.features\[0\]\.name: stored 'induced\[countryOf"),
    "unknown-aggregator-family": (
        "tree", _set(("features", 0, "value_features", 0, "aggregator"),
                     {"family": "mode", "value": "a"}),
        r"^\$\.features\[0\]\.value_features\[0\]\.aggregator\.family: "
        r"unknown aggregator family 'mode'"),
    "relation-name-not-derived": ("tree", _set(("features", 0, "value_features", 0, "name"),
                                               "countryOf(surname)"),
                                  r"^\$\.features\[0\]\.value_features\[0\]\.name:"),
    "linear-column-out-of-range": ("linear", _set(MODEL + ("weights", 0, 0), 2),
                                   r"^\$\.features\[0\]\.model\.weights\[0\]:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_feature_document_fails_at_load_naming_the_path(case):
    learner_kind, mutate, match = MALFORMED_DOCUMENTS[case]
    doc = json.loads(generated_document(learner_kind))
    assert features_from_document(doc)  # the unmutated document loads
    with pytest.raises(FeatureDocError, match=match):
        features_from_document(mutate(doc))


def test_feature_document_without_names_loads_with_the_derived_names():
    doc = json.loads(generated_document("tree"))
    names = [f.name for f in features_from_document(doc)]

    def strip(obj):
        if isinstance(obj, dict):
            if obj.get("kind") in ("relation", "classifier"):
                del obj["name"]
            for value in obj.values():
                strip(value)
        elif isinstance(obj, list):
            for value in obj:
                strip(value)

    strip(doc)
    assert "name" not in doc["features"][0]
    assert [f.name for f in features_from_document(doc)] == names


def _json_paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.floats(allow_nan=False)
    | st.text(alphabet="ab", max_size=2),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(
        ["kind", "name", "leaf", "n", "inner"]), inner, max_size=2),
    max_leaves=4)


@given(st.sampled_from(["tree", "knn", "linear"]), st.data())
def test_mutated_feature_document_raises_only_feature_doc_error(learner_kind, data):
    doc = json.loads(generated_document(learner_kind))
    path = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    if data.draw(st.booleans()):
        _delete(path)(doc)
    else:
        _set(path, data.draw(json_values))(doc)
    try:
        feats = features_from_document(doc)
    except FeatureDocError:
        return
    # what loads also applies; only an undeclared relation may fail, as at any time
    _, test, kb, _ = scenario_seed1()
    try:
        materialize(test, feats, kb) if feats else None
    except KBError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=True)
    | st.sampled_from(["", "p1", "x", "haddad", "surname", "gender"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "label", "features", "schema", "surname",
                                       "gender", "x"]), inner, max_size=4),
    max_leaves=8)
record_lines = st.one_of(
    json_values.map(json.dumps),
    st.fixed_dictionaries({"id": json_values, "label": json_values,
                           "features": json_values}).map(json.dumps),
    st.fixed_dictionaries({"id": st.sampled_from(["p1", "p2"]),
                           "label": st.sampled_from([0, 1, 1.0, True]),
                           "features": st.dictionaries(st.sampled_from(["surname", "x"]),
                                                       json_values, max_size=2)}
                          ).map(json.dumps),
    st.sampled_from(['{"schema": {"surname": "surname"}}',
                     '{"id": "p1", "label": 1, "features": {"surname": "haddad"}}',
                     '{"id": "p2", "label": 0, "features": {"surname": ["a", "b"]}}',
                     "", "{", "[1, 2"]),
    st.text(max_size=8))


@given(st.lists(record_lines, max_size=6))
def test_any_jsonl_lines_load_or_raise_dataset_error(lines):
    try:
        ds = load_dataset(lines)
    except DatasetError:
        return
    assert len({x.id for x in ds.examples}) == len(ds.examples)
    for x in ds.examples:
        assert type(x.label) is int and x.label in (0, 1)
        assert set(x.assignment) == set(ds.feature_names)


def load_outcome(load, *sources):
    """The loaded object, or the type and message of the typed error the load raised."""
    try:
        return load(*sources)
    except (DatasetError, KBError) as e:
        return f"{type(e).__name__}: {e}"


# well-formed lines: headers, records (one with a feature the first header
# lacks), blank lines; each ending as it comes from a list, a file read on
# Unix or one read on Windows
dataset_content_lines = st.tuples(st.sampled_from([
    '{"schema": {"surname": "surname"}}', '{"schema": {}}',
    '{"id": "p1", "label": 1, "features": {"surname": "haddad"}}',
    '{"id": "p2", "label": 0, "features": {"surname": ["a", "b"], "gender": null}}',
    '{"id": "p3", "label": 0, "features": {"gender": "f"}}',
    '{"id": "p4", "label": 1}', "  ", "\t"]), st.sampled_from(["", "\n", "\r\n"])).map("".join)


@settings(max_examples=200)
@given(st.lists(dataset_content_lines, max_size=6), st.integers(0, 6),
       st.lists(record_lines, max_size=2))
def test_load_dataset_matches_the_reference_loader(lines, at, more_lines):
    lines[at:at] = more_lines
    assert load_outcome(load_dataset, lines) == load_outcome(learner_oracles.load_dataset, lines)


def test_dataset_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    records = lines({"schema": {"surname": "surname", "gender": "gender"}},
                    {"id": "a", "label": 1, "features": {"surname": "haddad"}},
                    {"id": "b", "label": 0, "features": {"gender": "f"}})
    loaded = []
    for bom in ("", "\ufeff"):
        path = tmp_path / f"d{len(bom)}.jsonl"
        path.write_text(bom + "\n".join(records) + "\n", encoding="utf-8")
        loaded.append(load_dataset_file(path))
    assert loaded[0] == loaded[1] == load_dataset(records)


KB_LINES = (["countryOf\tnowak\tpoland"], ["countryOf\tsurname\tcountry\tfn"])
RECORDS = lines({"schema": {"surname": "surname"}},
                {"id": "a", "label": 1, "features": {"surname": "nowak"}})


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("load,sources,raises", [
    (load_kb, KB_LINES, False),
    (load_kb, (KB_LINES[0] + ["countryOf\tnowak\tegypt"], KB_LINES[1]), True),
    (load_dataset, (RECORDS,), False),
    (load_dataset, (RECORDS + RECORDS[1:],), True),
], ids=["kb loads", "kb raises", "dataset loads", "dataset raises"])
def test_a_load_leaves_the_collector_as_it_found_it(enabled, load, sources, raises):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert isinstance(load_outcome(load, *sources), str) is raises
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("learner_kind", ["tree", "knn", "linear"])
def test_saved_document_applied_to_fresh_examples_equals_in_memory_features(learner_kind):
    train, test, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    feats = generate_features(train, base_features(train), kb,
                              GenerationConfig(learner_kind=learner_kind))
    assert feats
    saved = json.dumps(features_to_document(feats), indent=2, sort_keys=True)
    loaded = features_from_document(json.loads(saved))
    assert [serialize_feature(f) for f in loaded] == [serialize_feature(f) for f in feats]
    assert materialize(test, loaded, kb) == materialize(test, feats, kb)
