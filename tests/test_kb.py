import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import learner_oracles
from kbfg.kb import KBError, load_kb, load_kb_files, schema_lines, triple_lines


SCHEMA = [
    "countryOf\tsurname\tcountry\tfn",
    "borderOf\tcountry\tcountry\trel",
    "climate\tcountry\tclimate\tfn",
]

TRIPLES = [
    "countryOf\tnowak\tpoland",
    "countryOf\thaddad\tegypt",
    "borderOf\tegypt\tlibya",
    "borderOf\tegypt\tsudan",
    "# a comment",
    "",
    "climate\tegypt\thot",
]


def make_kb(triples=TRIPLES, schema=SCHEMA):
    return load_kb(triples, schema)


def test_load_reads_back_pairs():
    kb = make_kb()
    assert set(kb.relations) == {"countryOf", "borderOf", "climate"}
    assert kb.relations["countryOf"].pairs == {("nowak", "poland"), ("haddad", "egypt")}
    assert kb.relations["countryOf"].is_function
    assert not kb.relations["borderOf"].is_function


def test_undeclared_relation_in_triples():
    with pytest.raises(KBError, match="undeclared relation"):
        load_kb(["climate\tegypt\thot"], SCHEMA[:2])


def test_empty_triples_gives_empty_relations():
    kb = load_kb([], SCHEMA)
    assert set(kb.relations) == {"countryOf", "borderOf", "climate"}
    assert all(not r.pairs for r in kb.relations.values())


def test_malformed_lines_report_line_number():
    with pytest.raises(KBError, match="line 2"):
        load_kb(["countryOf\tnowak\tpoland", "countryOf\tnowak"], SCHEMA)
    with pytest.raises(KBError, match="schema line 1"):
        load_kb([], ["countryOf\tsurname"])


def write_kb_files(tmp_path, schema_rows, triple_rows):
    """Schema and triples files of the given lines, each `bytes` or `str`."""
    paths = tmp_path / "schema.tsv", tmp_path / "triples.tsv"
    for path, lines in zip(paths, (schema_rows, triple_rows)):
        path.write_bytes(b"".join(l if isinstance(l, bytes) else l.encode() + b"\n"
                                  for l in lines))
    return paths


BAD_BYTE_LINE = b"countryOf\tnow\xe9k\tpoland\n"
# valid lines enough to fill many of the blocks a text file is decoded in
MANY_TRIPLES = TRIPLES * 2000


def test_kb_file_that_is_not_utf8_is_named(tmp_path):
    schema, triples = write_kb_files(tmp_path, SCHEMA, [BAD_BYTE_LINE] + TRIPLES)
    with pytest.raises(KBError, match=re.escape(f"{triples}: not UTF-8 text")):
        load_kb_files(schema, triples)


@pytest.mark.parametrize("bad_file, schema_rows, triple_rows", [
    ("triples", SCHEMA, MANY_TRIPLES + [BAD_BYTE_LINE]),
    ("schema", [SCHEMA[0], b"borderOf\tcountry\tc\xf4te\trel\n"], TRIPLES),
], ids=["triples-late-line", "schema"])
def test_a_bad_byte_anywhere_names_its_file(tmp_path, bad_file, schema_rows, triple_rows):
    schema, triples = write_kb_files(tmp_path, schema_rows, triple_rows)
    bad = {"schema": schema, "triples": triples}[bad_file]
    with pytest.raises(KBError, match=re.escape(f"{bad}: not UTF-8 text")):
        load_kb_files(schema, triples)


def test_the_first_fault_in_a_triples_file_wins(tmp_path):
    # the triples file is parsed as it is read, so a malformed line stops the
    # load before the decoder reaches a bad byte many blocks further on
    schema, triples = write_kb_files(tmp_path, SCHEMA,
                                     ["countryOf\tnowak"] + MANY_TRIPLES + [BAD_BYTE_LINE])
    with pytest.raises(KBError, match="^triples line 1: expected 3 tab-separated fields, got 2$"):
        load_kb_files(schema, triples)
    schema, triples = write_kb_files(tmp_path, SCHEMA,
                                     [BAD_BYTE_LINE] + MANY_TRIPLES + ["countryOf\tnowak"])
    with pytest.raises(KBError, match=re.escape(f"{triples}: not UTF-8 text")):
        load_kb_files(schema, triples)


def test_a_load_peaks_near_what_the_kb_keeps(tmp_path):
    # 20,000 triples: each of 9,500 surnames has a country and a relative,
    # and each of 200 countries borders five others
    lines = []
    for i in range(9500):
        lines.append(f"countryOf\tsurname{i}\tcountry{i % 200}")
        lines.append(f"relativeOf\tsurname{i}\tsurname{(7 * i + 1) % 9500}")
    lines += [f"borderOf\tcountry{c}\tcountry{(c + d) % 200}"
              for c in range(200) for d in (1, 3, 7, 12, 40)]
    schema, triples = write_kb_files(tmp_path, [SCHEMA[0], SCHEMA[1],
                                                "relativeOf\tsurname\tsurname\trel"], lines)
    tracemalloc.start()
    try:
        kb = load_kb_files(schema, triples)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(rel.index) for rel in kb.relations.values()) == 19200
    assert peak < 1.3 * kept


def test_equal_tokens_are_one_object():
    schema = SCHEMA + ["originOf\tsurname\tregion\tfn"]
    kb = load_kb(TRIPLES + ["originOf\t nowak \tmazovia", "originOf\thaddad\tegypt"], schema)

    def subject(relation, token):
        [s] = [s for s in kb.relations[relation].index if s == token]
        return s

    assert subject("countryOf", "nowak") is subject("originOf", "nowak")
    [country] = kb.lookup("countryOf", "haddad")
    [origin] = kb.lookup("originOf", "haddad")
    assert country is origin is subject("borderOf", "egypt") is subject("climate", "egypt")


def test_duplicate_declaration_rejected():
    with pytest.raises(KBError, match="duplicate relation"):
        load_kb([], SCHEMA + [SCHEMA[0]])


def test_function_with_two_objects_rejected():
    bad = TRIPLES + ["countryOf\tnowak\tegypt"]
    with pytest.raises(KBError, match="function relation"):
        load_kb(bad, SCHEMA)


def test_duplicate_triple_is_one_pair():
    kb = load_kb(TRIPLES + ["countryOf\tnowak\tpoland"], SCHEMA)
    assert kb.relations["countryOf"].pairs == {("nowak", "poland"), ("haddad", "egypt")}


def test_lookup_stored_pair():
    kb = make_kb()
    assert kb.lookup("countryOf", "nowak") == {"poland"}


def test_lookup_unknown_subject_is_empty():
    assert make_kb().lookup("countryOf", "zzz-unseen") == frozenset()


def test_lookup_multi_object():
    assert make_kb().lookup("borderOf", "egypt") == {"libya", "sudan"}


def test_lookup_undeclared_relation_raises():
    with pytest.raises(KBError):
        make_kb().lookup("nope", "egypt")


def test_applicable_full_coverage():
    kb = make_kb()
    rels = kb.applicable_relations({"nowak", "haddad"}, 1.0)
    assert [r.name for r in rels] == ["countryOf"]


def test_applicable_strict_fails_on_partial():
    kb = make_kb()
    assert kb.applicable_relations({"nowak", "unknown"}, 1.0) == []


def test_applicable_half_coverage():
    kb = make_kb()
    rels = kb.applicable_relations({"nowak", "unknown"}, 0.5)
    assert [r.name for r in rels] == ["countryOf"]


def test_applicable_rejects_empty_values():
    with pytest.raises(ValueError):
        make_kb().applicable_relations(set(), 1.0)


tokens = st.text(alphabet="abcdef", min_size=1, max_size=4)


@st.composite
def random_kb_inputs(draw):
    names = draw(st.lists(tokens, min_size=1, max_size=4, unique=True))
    schema, triples = [], []
    for i, name in enumerate(names):
        is_fn = draw(st.booleans())
        schema.append(f"{name}_{i}\tdom\tcod\t{'fn' if is_fn else 'rel'}")
        pairs = draw(st.lists(st.tuples(tokens, tokens), max_size=8))
        seen_subjects = {}
        for s, o in pairs:
            if is_fn:
                o = seen_subjects.setdefault(s, o)
            triples.append(f"{name}_{i}\t{s}\t{o}")
    return schema, triples


@given(random_kb_inputs())
def test_serialize_roundtrip(inputs):
    schema, triples = inputs
    kb = load_kb(triples, schema)
    kb2 = load_kb(triple_lines(kb), schema_lines(kb))
    assert set(kb2.relations) == set(kb.relations)
    for name in kb.relations:
        assert kb2.relations[name].pairs == kb.relations[name].pairs
        assert kb2.relations[name].is_function == kb.relations[name].is_function


@given(random_kb_inputs(), st.sets(tokens, min_size=1, max_size=5))
def test_applicable_threshold_one_is_subject_superset(inputs, values):
    kb = load_kb(inputs[1], inputs[0])
    got = {r.name for r in kb.applicable_relations(values, 1.0)}
    brute = {name for name, rel in kb.relations.items()
             if all(v in rel.index for v in values)}
    assert got == brute


@given(random_kb_inputs())
def test_lookup_union_is_object_column(inputs):
    kb = load_kb(inputs[1], inputs[0])
    for rel in kb.relations.values():
        objects = set().union(*rel.index.values())
        union = set()
        for s in rel.index:
            objs = kb.lookup(rel.name, s)
            assert objs <= objects
            union |= objs
        assert union == objects


# fields near the valid ones: declared names, both kinds, blanks and stray whitespace
kb_fields = st.one_of(st.sampled_from(["countryOf", "borderOf", "egypt", "poland", "fn",
                                       "rel", "", " ", "\r", "#"]),
                      st.text(max_size=4))
# a line's end as it comes from a list, a file read on Unix or one read on Windows
line_ends = st.sampled_from(["", "\n", "\r\n"])
# valid triple lines (repeated when drawn twice), a triple that contradicts a
# function triple, one with a blank subject, whitespace-only and indented
# comment lines
triple_content_lines = st.sampled_from(TRIPLES + [
    "countryOf\tnowak\tegypt", "climate\t \thot", " \t ", "\t\t", "  # an indented comment"])
# declared, near-valid and random lines, each with one of those ends
kb_lines = st.tuples(st.one_of(st.sampled_from(SCHEMA), triple_content_lines,
                               st.lists(kb_fields, max_size=5).map("\t".join),
                               st.text(max_size=12)),
                     line_ends).map("".join)


@given(st.lists(kb_lines, max_size=8), st.lists(kb_lines, max_size=8))
def test_any_tsv_lines_load_or_raise_kb_error(triples, schema):
    try:
        kb = load_kb(triples, schema)
    except KBError:
        return
    for rel in kb.relations.values():
        for subject, objects in rel.index.items():
            assert subject and objects and all(objects)
            assert not rel.is_function or len(objects) == 1


def kb_outcome(triples, schema, load=load_kb):
    """The loaded KB with its order of relations and of each relation's
    subjects, or the message of the `KBError` the load raised."""
    try:
        kb = load(triples, schema)
    except KBError as e:
        return str(e)
    return kb, [(name, list(rel.index)) for name, rel in kb.relations.items()]


@settings(max_examples=200)
# relations and subjects out of name order; the first strategy's inputs
# seldom load with two subjects in one relation, random_kb_inputs' mostly do
@example((SCHEMA, list(TRIPLES)), 0, [])
@given(st.one_of(
           st.tuples(st.one_of(st.just(SCHEMA), st.lists(kb_lines, max_size=8)),
                     st.lists(st.tuples(triple_content_lines, line_ends).map("".join),
                              max_size=10)),
           random_kb_inputs()),
       st.integers(0, 10), st.lists(kb_lines, max_size=2))
def test_load_kb_matches_the_reference_loader(inputs, at, more_triples):
    schema, triples = inputs
    triples[at:at] = more_triples
    assert kb_outcome(triples, schema) == \
        kb_outcome(triples, schema, learner_oracles.load_kb)


def test_kb_files_with_a_byte_order_mark_load_as_without(tmp_path):
    loaded = []
    for bom in ("", "\ufeff"):
        schema, triples = tmp_path / f"schema{len(bom)}.tsv", tmp_path / f"triples{len(bom)}.tsv"
        schema.write_text(bom + "\n".join(SCHEMA) + "\n", encoding="utf-8")
        triples.write_text(bom + "\n".join(TRIPLES) + "\n", encoding="utf-8")
        loaded.append(load_kb_files(schema, triples))
    assert loaded[0] == loaded[1] == make_kb()
