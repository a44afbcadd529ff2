import pytest

from kbfg.data import Dataset, Example, materialize, row_masks
from kbfg.deep import DeepConfig, deep_generate
from kbfg.expand import expand_features
from kbfg.features import (
    BaseFeature,
    ClassifierFeature,
    RelationFeature,
    VALUE_COLUMN,
    composition_layers,
    evaluate_feature,
    serialize_feature,
)
from kbfg.harness import base_features
from kbfg.kb import KBError, load_kb
from kbfg.learners import TreeModel, TreeNode
from kbfg.recursive import (
    GenerationConfig,
    GenerationStats,
    create_new_problem,
    generate_features,
)
from kbfg.synth import ScenarioSpec, gen_disorder_scenario

# 12 countries; the concept "hot AND low precipitation" is a true conjunction:
# hot/high and cold/low countries exist as distractors
DESERT = ["egypt", "libya", "chad", "mali"]
HOT_WET = ["nigeria", "ghana"]
TEMPERATE = ["poland", "hungary"]
COLD_WET = ["norway", "sweden"]
COLD_DRY = ["iceland", "greenland"]
COUNTRIES = DESERT + HOT_WET + TEMPERATE + COLD_WET + COLD_DRY


def climate_kb(extra_triples=()):
    triples = []
    surnames = {}
    for i, c in enumerate(COUNTRIES):
        s = f"s{i:02d}"
        surnames[s] = c
        triples.append(f"countryOf\t{s}\t{c}")
    for c in COUNTRIES:
        temp = "hot" if c in DESERT + HOT_WET else ("temperate" if c in TEMPERATE else "cold")
        prec = "low" if c in DESERT + COLD_DRY else ("mid" if c in TEMPERATE else "high")
        triples.append(f"avgTemperature\t{c}\t{temp}")
        triples.append(f"precipitation\t{c}\t{prec}")
    triples.extend(extra_triples)
    schema = [
        "countryOf\tsurname\tcountry\tfn",
        "avgTemperature\tcountry\ttemperature\tfn",
        "precipitation\tcountry\tprecipitation\tfn",
    ]
    return load_kb(triples, schema), surnames


def column(ds, name):
    return [x.assignment[name] for x in ds.examples]


def patients(surnames):
    # one patient per surname; positive iff the country is desert
    examples = []
    for i, (s, c) in enumerate(sorted(surnames.items())):
        examples.append(Example(f"p{i}", int(c in DESERT), {"surname": s}))
    return Dataset(examples, [("surname", "surname")])


@pytest.mark.parametrize("kwargs", [
    {"depth": -1},
    {"min_recursive_size": 0},
    {"min_recursive_size": -3},
    {"coverage_threshold": 0.0},
    {"coverage_threshold": -0.5},
    {"coverage_threshold": 1.01},
    {"coverage_threshold": 7.0},
    {"aggregator_family": "all"},
    {"learner_kind": "svm"},
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_generation_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GenerationConfig(**kwargs)


@pytest.mark.parametrize("coverage", [0.05, 1.0])
def test_generation_config_accepts_coverage_in_range(coverage):
    assert GenerationConfig(coverage_threshold=coverage).coverage_threshold == coverage


def test_create_problem_objects_and_labels():
    kb = load_kb(["countryOf\tnowak\tpoland", "countryOf\thaddad\tegypt"],
                 ["countryOf\tsurname\tcountry\tfn"])
    ds = Dataset([
        Example("a", 0, {"surname": "nowak"}),
        Example("b", 1, {"surname": "haddad"}),
        Example("c", 0, {"surname": "nowak"}),
    ], [("surname", "surname")])
    cfg = GenerationConfig(min_recursive_size=2)
    [problem] = create_new_problem(BaseFeature("surname"), ds,
                                   row_masks(column(ds, "surname")), kb, cfg)
    assert problem.objects == [("haddad", 1), ("nowak", 0)]
    assert [f.name for f in problem.features] == ["countryOf(value)"]


def test_create_problem_label_tie_is_zero():
    kb = load_kb(["countryOf\tsmith\tusa", "countryOf\tnowak\tpoland"],
                 ["countryOf\tsurname\tcountry\tfn"])
    ds = Dataset([
        Example("a", 1, {"surname": "smith"}),
        Example("b", 0, {"surname": "smith"}),
        Example("c", 1, {"surname": "nowak"}),
    ], [("surname", "surname")])
    cfg = GenerationConfig(min_recursive_size=2)
    [problem] = create_new_problem(BaseFeature("surname"), ds,
                                   row_masks(column(ds, "surname")), kb, cfg)
    assert dict(problem.objects)["smith"] == 0
    assert dict(problem.objects)["nowak"] == 1


def test_create_problem_size_filter():
    kb, surnames = climate_kb()
    ds = patients(dict(list(sorted(surnames.items()))[:3]))
    stats = GenerationStats()
    assert create_new_problem(BaseFeature("surname"), ds, row_masks(column(ds, "surname")), kb,
                              GenerationConfig(min_recursive_size=8), stats) == []
    assert [r.status for r in stats.records] == ["too_small"]


def test_create_problem_single_class_filter():
    kb, surnames = climate_kb()
    only_desert = {s: c for s, c in surnames.items() if c in DESERT}
    ds = patients(only_desert)
    stats = GenerationStats()
    assert create_new_problem(BaseFeature("surname"), ds, row_masks(column(ds, "surname")), kb,
                              GenerationConfig(min_recursive_size=2), stats) == []
    assert [r.status for r in stats.records] == ["single_class"]


def test_create_problem_no_relations_filter():
    kb, _ = climate_kb()
    ds = Dataset([Example(f"g{i}", i % 2, {"gender": "f" if i % 2 else "m"})
                  for i in range(4)], [("gender", "gender")])
    stats = GenerationStats()
    assert create_new_problem(BaseFeature("gender"), ds, row_masks(column(ds, "gender")), kb,
                              GenerationConfig(min_recursive_size=2), stats) == []
    assert [r.status for r in stats.records] == ["no_relations"]


def test_generate_depth0_no_relations_is_empty():
    kb, _ = climate_kb()
    ds = Dataset([Example(f"g{i}", i % 2, {"gender": "f" if i % 2 else "m"})
                  for i in range(4)], [("gender", "gender")])
    out = generate_features(ds, [BaseFeature("gender")], kb,
                            GenerationConfig(depth=0, min_recursive_size=2))
    assert out == []


def test_depth1_feature_composes_classifier_on_surname():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    cfg = GenerationConfig(depth=1, min_recursive_size=8)
    [feat] = generate_features(ds, [BaseFeature("surname")], kb, cfg)
    assert isinstance(feat, ClassifierFeature)
    assert feat.inner == BaseFeature("surname")
    # pointwise identity on every training example
    for x in ds.examples:
        surname = x.assignment["surname"]
        expected = feat.model.predict(
            [evaluate_feature(vf, Example("t", 0, {VALUE_COLUMN: surname}), kb)
             for vf in feat.value_features])
        assert int(evaluate_feature(feat, x, kb)) == expected


def test_depth2_recovers_climate_conjunction():
    kb0, surnames = climate_kb()
    # fresh countries, never seen in training, with climate facts in the KB
    probe = [
        ("newdesert", "hot", "low", 1),
        ("newhotwet", "hot", "high", 0),
        ("newcolddry", "cold", "low", 0),
    ]
    extra = []
    for i, (c, temp, prec, _) in enumerate(probe):
        extra.append(f"countryOf\tnew{i}\t{c}")
        extra.append(f"avgTemperature\t{c}\t{temp}")
        extra.append(f"precipitation\t{c}\t{prec}")
    kb, _ = climate_kb(extra)
    ds = patients(surnames)

    # one extension level suffices: the nested country problem reads the
    # climate columns, so the induced feature generalizes to fresh countries
    for d in (1, 2):
        [feat] = generate_features(ds, [BaseFeature("surname")], kb,
                                   GenerationConfig(depth=d, min_recursive_size=8))
        for i, (c, temp, prec, want) in enumerate(probe):
            x = Example(f"probe{i}", want, {"surname": f"new{i}"})
            assert int(evaluate_feature(feat, x, kb)) == want, (d, c, temp, prec)

    # without extension the surname model sees only the raw country column,
    # whose singleton groups are inadmissible splits: no probe generalization
    [d0] = generate_features(ds, [BaseFeature("surname")], kb,
                             GenerationConfig(depth=0, min_recursive_size=8))
    hits_d0 = sum(int(evaluate_feature(d0, Example(f"q{i}", w, {"surname": f"new{i}"}), kb)) == w
                  for i, (_, _, _, w) in enumerate(probe))
    assert hits_d0 < 3


def test_depth_bound_on_composition_layers():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    for d in (0, 1, 2):
        feats = generate_features(ds, [BaseFeature("surname")], kb,
                                  GenerationConfig(depth=d, min_recursive_size=8))
        for f in feats:
            assert composition_layers(f) <= d + 1


def test_apply_generated_missing_gives_default_class():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    [feat] = generate_features(ds, [BaseFeature("surname")], kb,
                               GenerationConfig(depth=1, min_recursive_size=8))
    x = Example("m", 0, {"surname": None})
    assert int(evaluate_feature(feat, x, kb)) == feat.model.default_class


@pytest.mark.parametrize("read", [0, 1])
def test_only_cells_the_model_reads_are_evaluated(read):
    kb, _ = climate_kb()
    value = BaseFeature(VALUE_COLUMN)
    known, undeclared = RelationFeature(value, "countryOf"), RelationFeature(value, "capitalOf")
    root = TreeNode(feature=read, children=[(None, TreeNode(label=0)),
                                            ("egypt", TreeNode(label=1))], fallback=0)
    feat = ClassifierFeature(BaseFeature("surname"), TreeModel(root, 0, 2), (known, undeclared))
    x = Example("q", 1, {"surname": "s00"})
    if read == 0:
        # the undeclared relation is never looked up
        assert int(evaluate_feature(feat, x, kb)) == 1
    else:
        with pytest.raises(KBError, match="capitalOf"):
            evaluate_feature(feat, x, kb)


def test_filtering_monotone_in_min_size():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    cfg_hi = GenerationConfig(depth=0, min_recursive_size=12)
    cfg_lo = GenerationConfig(depth=0, min_recursive_size=4)
    hi = generate_features(ds, [BaseFeature("surname"), BaseFeature("surname")], kb, cfg_hi)
    lo = generate_features(ds, [BaseFeature("surname")], kb, cfg_lo)
    hi_names = {f.name for f in hi}
    lo_names = {f.name for f in lo}
    assert hi_names <= lo_names
    # identity of emitted (source, partition) candidates is monotone at any depth
    for d in (1, 2):
        hi_d = generate_features(ds, [BaseFeature("surname")], kb,
                                 GenerationConfig(depth=d, min_recursive_size=13))
        lo_d = generate_features(ds, [BaseFeature("surname")], kb,
                                 GenerationConfig(depth=d, min_recursive_size=8))
        assert {(f.inner.name, f.partition_type) for f in hi_d} <= \
               {(f.inner.name, f.partition_type) for f in lo_d}


def test_generation_deterministic_byte_for_byte():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    cfg = GenerationConfig(depth=2, min_recursive_size=8)
    a = [serialize_feature(f) for f in
         generate_features(ds, [BaseFeature("surname")], kb, cfg)]
    b = [serialize_feature(f) for f in
         generate_features(ds, [BaseFeature("surname")], kb, cfg)]
    assert a == b


def test_set_valued_source_partitions_by_type():
    # two departure types in the KB: cities and players
    kb = load_kb(
        [
            "stateOf\taustin\ttexas", "stateOf\tdallas\ttexas",
            "stateOf\tnyc\tnewyork", "stateOf\tbuffalo\tnewyork",
            "teamOf\tjordan\tbulls", "teamOf\tpippen\tbulls",
            "teamOf\tewing\tknicks", "teamOf\tstarks\tknicks",
        ],
        ["stateOf\tcity\tstate\tfn", "teamOf\tplayer\tteam\tfn"],
    )
    docs = [
        Example("d0", 1, {"entities": frozenset({"austin", "dallas", "jordan"})}),
        Example("d1", 1, {"entities": frozenset({"austin", "dallas", "pippen"})}),
        Example("d2", 0, {"entities": frozenset({"nyc", "buffalo", "ewing"})}),
        Example("d3", 0, {"entities": frozenset({"nyc", "buffalo", "starks"})}),
    ]
    ds = Dataset(docs, [("entities", "entity")])
    cfg = GenerationConfig(depth=1, min_recursive_size=2)
    stats = GenerationStats()
    feats = generate_features(ds, [BaseFeature("entities")], kb, cfg, stats=stats)
    assert [f.partition_type for f in feats] == ["city", "player"]
    top = [r for r in stats.records if r.level == 0]
    assert [r.partition_type for r in top] == ["city", "player"]
    assert all(r.n_objects == 4 for r in top)
    # the city partition's model carries the doc vote: two in-type entities
    # outvote the lone out-of-type entity whatever the fallback routing does
    [city_feat] = [f for f in feats if f.partition_type == "city"]
    for x in docs:
        assert int(evaluate_feature(city_feat, x, kb)) == x.label


def test_stats_accounting_identity():
    kb, surnames = climate_kb()
    ds = patients(surnames)
    stats = GenerationStats()
    generate_features(ds, [BaseFeature("surname"), BaseFeature("surname")], kb,
                      GenerationConfig(depth=2, min_recursive_size=8), stats=stats)
    s = stats.summary()
    assert s["candidates_tried"] == s["features_generated"] + sum(s["filtered"].values())


def test_generation_evaluates_each_column_cell_once(evaluations):
    train, _, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    feats = generate_features(train, base_features(train), kb)
    assert feats and sum(evaluations.values()) > len(train)
    assert [key for key, n in evaluations.items() if n > 1] == []

    # `deep` hands each split node its parent's rows: no inherited column is
    # evaluated again, neither by the node's generator nor for its split
    evaluations.clear()
    spec = ScenarioSpec(seed=3, balanced_surname_groups=True, desert_fraction=0.7)
    train, _, kb, _ = gen_disorder_scenario(spec)
    feats, report = deep_generate(train, base_features(train), kb, DeepConfig())
    assert feats and len(report.per_depth) > 1 and sum(evaluations.values()) > len(train)
    assert [key for key, n in evaluations.items() if n > 1] == []


def test_generate_rejects_a_matrix_of_other_columns_or_examples():
    train, _, kb, _ = gen_disorder_scenario(ScenarioSpec(seed=1))
    feats = base_features(train)
    cfg = GenerationConfig()
    for generate in (generate_features, expand_features):
        given = generate(train, feats, kb, cfg, matrix=materialize(train, feats, kb))
        assert given and [serialize_feature(f) for f in given] == \
            [serialize_feature(f) for f in generate(train, feats, kb, cfg)]
        with pytest.raises(ValueError, match="matrix"):
            generate(train, feats, kb, cfg, matrix=materialize(train, feats[::-1], kb))
        with pytest.raises(ValueError, match="matrix"):
            generate(train, feats, kb, cfg,
                     matrix=materialize(train.subset(range(10)), feats, kb))


def test_generate_without_features_is_empty():
    kb, surnames = climate_kb()
    assert generate_features(patients(surnames), [], kb) == []
