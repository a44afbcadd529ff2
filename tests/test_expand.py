from hypothesis import given, strategies as st

from kbfg.aggregators import AggregatorInstance, fired_targets
from kbfg.data import Dataset, Example
from kbfg.expand import expand_features, relation_features
from kbfg.features import BaseFeature, RelationFeature
from kbfg.kb import load_kb
from kbfg.recursive import GenerationConfig


def test_majority_strict():
    assert fired_targets("majority", ["poland", "poland", "egypt"]) == {"poland"}


def test_majority_tie_lexicographic():
    assert fired_targets("majority", ["a", "b"]) == {"a"}


def test_majority_empty_is_zero():
    assert fired_targets("majority", []) == frozenset()


def test_any_basic():
    assert fired_targets("any", ["libya", "sudan"]) == {"libya", "sudan"}
    assert fired_targets("any", []) == frozenset()
    assert fired_targets("any", ["x", "x"]) == {"x"}


tokens = st.text(alphabet="abcde", min_size=1, max_size=3)
multisets = st.lists(tokens, max_size=10)


@given(multisets)
def test_majority_exactly_one_fires(values):
    fired = fired_targets("majority", values)
    assert len(fired) == (1 if values else 0) and fired <= set(values)


@given(multisets, multisets)
def test_any_monotone_under_growth(xs, ys):
    assert fired_targets("any", xs) <= fired_targets("any", xs + ys)


KB = load_kb(
    [
        "countryOf\tnowak\tpoland",
        "countryOf\thaddad\tegypt",
        "borderOf\tegypt\tlibya",
        "borderOf\tegypt\tsudan",
        "borderOf\tpoland\tgermany",
    ],
    [
        "countryOf\tsurname\tcountry\tfn",
        "borderOf\tcountry\tcountry\trel",
    ],
)

ANY = GenerationConfig()  # the `any` family, full coverage


def make_ds(col, values, labels=None):
    labels = labels or [i % 2 for i in range(len(values))]
    examples = [Example(f"e{i}", y, {col: v})
                for i, (v, y) in enumerate(zip(values, labels))]
    return Dataset(examples, [(col, col)])


def test_function_relation_gives_single_composition():
    ds = make_ds("surname", ["nowak", "haddad"])
    out = expand_features(ds, [BaseFeature("surname")], KB, ANY)
    assert [f.name for f in out] == ["countryOf(surname)"]


def test_non_function_gives_one_feature_per_observed_value():
    ds = make_ds("country", ["egypt", "poland"])
    out = expand_features(ds, [BaseFeature("country")], KB, ANY)
    assert [f.name for f in out] == [
        "borderOf(country):any=germany",
        "borderOf(country):any=libya",
        "borderOf(country):any=sudan",
    ]


def test_no_applicable_relations_gives_nothing():
    ds = make_ds("color", ["red", "blue"])
    assert expand_features(ds, [BaseFeature("color")], KB, ANY) == []


def test_coverage_threshold_admits_partial():
    ds = make_ds("surname", ["nowak", "martian"])
    assert expand_features(ds, [BaseFeature("surname")], KB, ANY) == []
    out = expand_features(ds, [BaseFeature("surname")], KB,
                          GenerationConfig(coverage_threshold=0.5))
    assert [f.name for f in out] == ["countryOf(surname)"]


def test_output_count_equals_observed_codomain():
    ds = make_ds("country", ["egypt"])
    out = expand_features(ds, [BaseFeature("country")], KB,
                          GenerationConfig(aggregator_family="majority"))
    observed = KB.lookup("borderOf", "egypt")
    assert len(out) == len(observed)


def test_no_duplicate_names():
    ds = make_ds("country", ["egypt", "poland"])
    out = expand_features(ds, [BaseFeature("country"), BaseFeature("country")], KB, ANY)
    names = [f.name for f in out]
    assert len(names) == len(set(names))


def test_expand_unpacks_sets_and_skips_missing():
    examples = [
        Example("a", 0, {"entities": frozenset({"egypt", "poland"})}),
        Example("b", 1, {"entities": None}),
        Example("c", 0, {"entities": frozenset({"egypt"})}),
    ]
    ds = Dataset(examples, [("entities", "country")])
    # the observed values are egypt and poland, so borderOf covers them all
    out = expand_features(ds, [BaseFeature("entities")], KB, ANY)
    assert [f.name for f in out] == [
        "borderOf(entities):any=germany",
        "borderOf(entities):any=libya",
        "borderOf(entities):any=sudan",
    ]


def test_no_generated_name_is_among_the_inputs():
    examples = [Example("a", 0, {"surname": "nowak", "countryOf(surname)": "poland"}),
                Example("b", 1, {"surname": "haddad", "countryOf(surname)": "egypt"})]
    ds = Dataset(examples, [("surname", "surname"), ("countryOf(surname)", "country")])
    feats = [BaseFeature("surname"), BaseFeature("countryOf(surname)")]
    # the input column countryOf(surname) still expands on its own values
    assert [f.name for f in expand_features(ds, feats, KB, ANY)] == [
        "borderOf(countryOf(surname)):any=germany",
        "borderOf(countryOf(surname)):any=libya",
        "borderOf(countryOf(surname)):any=sudan",
    ]


def test_targets_come_from_the_covered_values_only():
    # nowak is a subject of countryOf but not of borderOf, martian of no relation,
    # and poland, a borderOf subject, is not among the values
    country = BaseFeature("country")
    out = relation_features(country, ["egypt", "martian", "nowak"], KB,
                            GenerationConfig(coverage_threshold=0.3))
    assert out == [RelationFeature(country, "borderOf", AggregatorInstance("any", "libya")),
                   RelationFeature(country, "borderOf", AggregatorInstance("any", "sudan")),
                   RelationFeature(country, "countryOf")]
