"""In-memory store for typed binary relations.

A knowledge base is a set of named binary relations.  Each relation has a
departure type and a codomain type (bare type tokens, used for domain
partitioning), a set of (subject, object) pairs, and a flag marking it as
functional (at most one object per subject).  The pairs are stored once, as
a forward index from subject to objects; the pair set is a view over it.
The store is immutable after loading and safe for concurrent reads.

A triples file is parsed as it is read, never held whole, and the load keeps
one string object per distinct token: a subject or object that recurs, in
one relation or across several, is stored once.

File formats (UTF-8, a leading byte-order mark dropped, tab-separated,
``#`` comment lines and blank lines skipped):

* schema:  ``name<TAB>departure_type<TAB>codomain_type<TAB>fn|rel``
* triples: ``relation<TAB>subject<TAB>object``
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple


class KBError(Exception):
    """Malformed schema/triples input or reference to an undeclared relation."""


@dataclass
class Relation:
    name: str
    departure_type: str
    codomain_type: str
    is_function: bool
    index: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    @property
    def pairs(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset((s, o) for s, objs in self.index.items() for o in objs)


@dataclass
class KnowledgeBase:
    relations: Dict[str, Relation]

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise KBError(f"undeclared relation {name!r}") from None

    def lookup(self, relation: str, subject: str) -> FrozenSet[str]:
        """All objects paired with `subject`; empty when the subject is unknown."""
        return self.relation(relation).index.get(subject, frozenset())

    def applicable_relations(self, values: Iterable[str],
                             coverage_threshold: float = 1.0) -> List[Relation]:
        """Relations whose subjects cover at least `coverage_threshold` of `values`.

        Ordered by relation name.  The threshold generalizes the strict
        "every value is a subject" test, which real knowledge bases rarely
        satisfy; 1.0 recovers the strict test.
        """
        vals = set(values)
        if not vals:
            raise ValueError("applicable_relations requires a non-empty value set")
        out = []
        for name in sorted(self.relations):
            rel = self.relations[name]
            if len(rel.index.keys() & vals) / len(vals) >= coverage_threshold:
                out.append(rel)
        return out

    def relations_of_departure_type(self, type_name: str) -> List[Relation]:
        return [self.relations[n] for n in sorted(self.relations)
                if self.relations[n].departure_type == type_name]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled, then restore
    the state it had.

    A load allocates an object or more per line and makes no reference
    cycles, so the collector's passes over them would free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _content_lines(source: Iterable[str]) -> Iterable[Tuple[int, str]]:
    for i, raw in enumerate(source, start=1):
        content = raw.strip()
        if content and content[0] != "#":
            yield i, raw.rstrip("\n").rstrip("\r")


@collector_paused()
def load_kb(triples_source: Iterable[str], schema_source: Iterable[str]) -> KnowledgeBase:
    """Build a KnowledgeBase from schema and triple lines.

    Rejects: malformed lines (with line number), duplicate relation
    declarations, triples on undeclared relations, and functional relations
    with two distinct objects for one subject.
    """
    decls: Dict[str, Tuple[str, str, bool]] = {}
    for lineno, line in _content_lines(schema_source):
        fields = line.split("\t")
        if len(fields) != 4:
            raise KBError(f"schema line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        name, departure, codomain, kind = (f.strip() for f in fields)
        if not name or not departure or not codomain:
            raise KBError(f"schema line {lineno}: empty field")
        if kind not in ("fn", "rel"):
            raise KBError(f"schema line {lineno}: kind must be 'fn' or 'rel', got {kind!r}")
        if name in decls:
            raise KBError(f"schema line {lineno}: duplicate relation declaration {name!r}")
        decls[name] = (departure, codomain, kind == "fn")

    index: Dict[str, Dict[str, Set[str]]] = {name: {} for name in decls}
    # one string per distinct token, local to this load (sys.intern would
    # keep the tokens alive after the KB is gone)
    share = {}.setdefault
    current = rel_index = is_function = None    # the relation of the last triple
    for lineno, raw in enumerate(triples_source, start=1):
        # one split per line; only a line whose first field is blank or starts
        # with "#" may be a blank or comment line, which strip() tells
        fields = raw.split("\t")
        rel = fields[0].strip()
        if not rel or rel[0] == "#" or len(fields) != 3:
            content = raw.strip()
            if not content or content[0] == "#":
                continue
            if len(fields) != 3:
                raise KBError(f"triples line {lineno}: expected 3 tab-separated fields, "
                              f"got {len(fields)}")
        if rel != current:
            rel_index = index.get(rel)
            if rel_index is None:
                raise KBError(f"triples line {lineno}: undeclared relation {rel!r}")
            current, is_function = rel, decls[rel][2]
        subj = fields[1].strip()
        obj = fields[2].strip()
        if not subj or not obj:
            raise KBError(f"triples line {lineno}: empty subject or object")
        subj = share(subj, subj)
        obj = share(obj, obj)
        objs = rel_index.get(subj)
        if objs is None:
            rel_index[subj] = {obj}
        elif obj not in objs:
            if is_function:
                [prev] = objs
                raise KBError(
                    f"triples line {lineno}: function relation {rel!r} maps {subj!r} "
                    f"to both {prev!r} and {obj!r}")
            objs.add(obj)

    # each set becomes its frozenset in place, so the two never coexist
    for rel_index in index.values():
        for subj, objs in rel_index.items():
            rel_index[subj] = frozenset(objs)
    return KnowledgeBase({name: Relation(name, dep, cod, fn, index[name])
                          for name, (dep, cod, fn) in decls.items()})


def schema_lines(kb: KnowledgeBase) -> List[str]:
    """Serialize the schema back to its file format (sorted by relation name)."""
    out = []
    for name in sorted(kb.relations):
        r = kb.relations[name]
        kind = "fn" if r.is_function else "rel"
        out.append(f"{r.name}\t{r.departure_type}\t{r.codomain_type}\t{kind}")
    return out


def triple_lines(kb: KnowledgeBase) -> List[str]:
    """Serialize all pairs back to the triples file format (sorted)."""
    out = []
    for name in sorted(kb.relations):
        for s, o in sorted(kb.relations[name].pairs):
            out.append(f"{name}\t{s}\t{o}")
    return out


def save_kb(kb: KnowledgeBase, schema_path, triples_path) -> None:
    with open(schema_path, "w", encoding="utf-8") as f:
        f.write("\n".join(schema_lines(kb)) + "\n")
    with open(triples_path, "w", encoding="utf-8") as f:
        f.write("\n".join(triple_lines(kb)) + "\n")


def load_kb_files(schema_path, triples_path) -> KnowledgeBase:
    """`load_kb` on the schema file, read whole, and the triples file, parsed
    as it is read: the first fault met in it, a bad line or a bad byte, is
    the one raised."""
    path = schema_path
    try:
        with open(schema_path, encoding="utf-8-sig") as f:
            schema = f.readlines()
        path = triples_path
        with open(triples_path, encoding="utf-8-sig") as f:
            return load_kb(f, schema)
    except UnicodeDecodeError:
        raise KBError(f"{path}: not UTF-8 text") from None
