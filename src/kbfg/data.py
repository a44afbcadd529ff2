"""Labeled symbolic datasets and feature-matrix materialization.

Datasets are JSON-lines files.  An optional first line declares the schema::

    {"schema": {"gender": "gender", "surname": "surname"}}

mapping base feature names to value-type names.  Every following line is one
example::

    {"id": "p1", "label": 1, "features": {"surname": "haddad", "gender": "f"}}

Feature values are strings (atoms) or arrays of strings (value sets; an
empty array means missing).  A header declares exactly its names: a
record's feature it does not name is rejected, so after an empty header no
record may carry one.  Without a header the schema is inferred as the union
of observed feature names, typed by their own name.

``materialize`` evaluates features into a column-first ``FeatureMatrix``,
filling the aggregator indicators of one (inner feature, relation, family)
together, and ``FeatureMatrix.extend`` appends the columns of more
features.  A matrix also holds each column's rows grouped by value
(``FeatureMatrix.masks``, as ``row_masks`` gives them): the tree,
information gain, ``deep``'s split and derived problems read a column's
groups there, and both generators read a source's observed values as the
tokens of its groups (``token_masks``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from kbfg.aggregators import fired_targets
from kbfg.features import Feature, RelationFeature, evaluate_feature
from kbfg.kb import KnowledgeBase, collector_paused
from kbfg.values import FeatureValue, iter_atoms, normalize_value, value_to_json


class DatasetError(ValueError):
    """Malformed dataset input."""


@dataclass
class Example:
    id: str
    label: int
    assignment: Dict[str, FeatureValue]


@dataclass
class Dataset:
    examples: List[Example]
    schema: List[Tuple[str, str]]  # (feature name, value type name), declared order

    @property
    def feature_names(self) -> List[str]:
        return [name for name, _ in self.schema]

    @property
    def labels(self) -> List[int]:
        return [x.label for x in self.examples]

    def subset(self, indices: Iterable[int]) -> "Dataset":
        return Dataset([self.examples[i] for i in indices], list(self.schema))

    def __len__(self) -> int:
        return len(self.examples)


def _parse_record(obj: dict, lineno: int, schema_names: Optional[Set[str]]) -> Example:
    try:
        ex_id = obj["id"]
        label = obj["label"]
        feats = obj.get("features", {})
    except (KeyError, TypeError):
        raise DatasetError(f"line {lineno}: record must carry id, label, features") from None
    if not isinstance(feats, dict):
        raise DatasetError(f"line {lineno}: features must be an object")
    if not isinstance(ex_id, str) or not ex_id:
        raise DatasetError(f"line {lineno}: id must be a non-empty string")
    if type(label) is not int or label not in (0, 1):
        raise DatasetError(f"line {lineno}: label must be 0 or 1, got {label!r}")
    assignment: Dict[str, FeatureValue] = {}
    for name, raw in feats.items():
        if schema_names is not None and name not in schema_names:
            raise DatasetError(f"line {lineno}: feature {name!r} not in schema header")
        if type(raw) is str and raw:   # an atom, the common case: stored as it is
            assignment[name] = raw
            continue
        if raw is not None and not isinstance(raw, (str, list)):
            raise DatasetError(f"line {lineno}: feature {name!r} must be a string, "
                               f"an array of strings, or null")
        try:
            assignment[name] = normalize_value(raw)
        except ValueError as e:
            raise DatasetError(f"line {lineno}: feature {name!r}: {e}") from None
    return Example(ex_id, label, assignment)


@collector_paused()
def load_dataset(source: Iterable[str]) -> Dataset:
    """Parse a JSON-lines dataset, enforcing unique ids and schema membership."""
    schema: Optional[List[Tuple[str, str]]] = None
    declared_names: Optional[Set[str]] = None
    examples: List[Example] = []
    seen_ids = set()
    first_content = True
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetError(f"line {lineno}: invalid JSON ({e.msg})") from None
        except RecursionError:
            raise DatasetError(f"line {lineno}: invalid JSON (nested too deeply)") from None
        if first_content and isinstance(obj, dict) and "schema" in obj:
            declared = obj["schema"]
            if not isinstance(declared, dict) or \
                    not all(isinstance(t, str) for t in declared.values()):
                raise DatasetError(f"line {lineno}: schema header must map feature "
                                   f"names to value-type names")
            schema = list(declared.items())
            declared_names = set(declared)
            first_content = False
            continue
        first_content = False
        ex = _parse_record(obj, lineno, declared_names)
        if ex.id in seen_ids:
            raise DatasetError(f"line {lineno}: duplicate example id {ex.id!r}")
        seen_ids.add(ex.id)
        examples.append(ex)

    if schema is None:
        names: List[str] = []
        for ex in examples:
            for name in ex.assignment:
                if name not in names:
                    names.append(name)
        schema = [(name, name) for name in names]

    schema_names = [n for n, _ in schema]
    for ex in examples:
        for name in schema_names:
            ex.assignment.setdefault(name, None)
    return Dataset(examples, schema)


def load_dataset_file(path) -> Dataset:
    """`load_dataset` on the file at `path`, a leading byte-order mark dropped;
    its errors name the path."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return load_dataset(f)
    except DatasetError as e:
        raise DatasetError(f"{path}: {e}") from None
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None


def dataset_lines(ds: Dataset) -> List[str]:
    header = {"schema": {name: vtype for name, vtype in ds.schema}}
    out = [json.dumps(header, sort_keys=True)]
    for ex in ds.examples:
        rec = {
            "id": ex.id,
            "label": ex.label,
            "features": {name: value_to_json(ex.assignment.get(name))
                         for name, _ in ds.schema
                         if ex.assignment.get(name) is not None},
        }
        out.append(json.dumps(rec, sort_keys=True))
    return out


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(dataset_lines(ds)) + "\n")


def row_masks(column: Iterable[FeatureValue]) -> Dict[FeatureValue, int]:
    """The row bitmask of each distinct value of `column` (bit i stands for
    row i), values in first-seen order.  The one grouping of rows by value
    (a matrix column's through ``FeatureMatrix.masks``), so every reader
    sees the groups in the same order.
    """
    masks: Dict[FeatureValue, int] = {}
    bit = 1
    for v in column:
        masks[v] = masks.get(v, 0) | bit
        bit <<= 1
    return masks


def token_masks(groups: Mapping[FeatureValue, int]) -> Dict[str, int]:
    """The row mask of each token of the values in `groups` (value -> row
    mask, as ``row_masks`` gives them): the OR of the masks of the values
    holding it, tokens in first-seen order.  The one grouping of rows by
    token: aggregator families and a derived problem's labels read it.
    """
    masks: Dict[str, int] = {}
    for v, m in groups.items():
        for tok in iter_atoms(v):
            masks[tok] = masks.get(tok, 0) | m
    return masks


class FeatureMatrix:
    """Feature values by column, and the examples' labels.

    ``FeatureMatrix(rows, labels, feature_names)`` takes the cells by row;
    ``materialize`` builds a matrix by column and ``extend`` appends
    columns.  An aggregator column is held as its groups (``masks``), and
    its cells are built only when read (``column``); ``rows`` is a view
    built on first read.  The tree reads groups alone, so a matrix it
    trains on builds neither.  ``==`` compares every cell, labels and names.
    """

    def __init__(self, rows: List[List[FeatureValue]], labels: List[int],
                 feature_names: List[str]):
        self.labels, self.feature_names, self._rows = labels, feature_names, rows
        # per column its cells, or None while its masks alone hold them
        self._columns: List[Optional[list]] = \
            [list(c) for c in zip(*rows)] if rows else [[] for _ in feature_names]
        self._masks: Dict[int, Dict[FeatureValue, int]] = {}   # j -> row_masks, built once
        # the feature of each column that materialize evaluated, else None
        self._features: List[Optional[Feature]] = [None] * len(self._columns)

    @classmethod
    def _of_columns(cls, columns, labels, names, features) -> "FeatureMatrix":
        m = cls([], labels, names)
        m._columns, m._features, m._rows = columns, list(features), None
        return m

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureMatrix) and (self.rows, self.labels, self.feature_names) \
            == (other.rows, other.labels, other.feature_names)

    @property
    def rows(self) -> List[List[FeatureValue]]:
        """The cells by row, built on first read; read them, do not change them."""
        if self._rows is None:
            columns = [self.column(j) for j in range(len(self._columns))]
            self._rows = [list(r) for r in zip(*columns)] if columns else [[] for _ in self.labels]
        return self._rows

    def column(self, j: int) -> List[FeatureValue]:
        """The cells of column `j`, built on first read; read them, do not change them."""
        cells = self._columns[j]
        if cells is None:   # the largest group fills the column, the others their rows
            groups = sorted(self._masks[j].items(), key=lambda vm: vm[1].bit_count())
            cells = self._columns[j] = [groups[-1][0] if groups else None] * len(self.labels)
            for v, m in groups[:-1]:
                while m:
                    low = m & -m
                    cells[low.bit_length() - 1] = v
                    m ^= low
        return cells

    def masks(self, j: int) -> Dict[FeatureValue, int]:
        """``row_masks`` of column `j`, built on first use; read it, do not change it."""
        masks = self._masks.get(j)
        if masks is None:
            masks = self._masks[j] = row_masks(self._columns[j])
        return masks

    def subset(self, indices: Sequence[int]) -> "FeatureMatrix":
        """The rows at `indices`, copied, so extending the copy leaves these intact."""
        return FeatureMatrix._of_columns(
            [list(map(self.column(j).__getitem__, indices)) for j in range(len(self._columns))],
            [self.labels[i] for i in indices], list(self.feature_names), self._features)

    def extend(self, ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase) -> None:
        """Evaluate `features` on `ds`, the examples of these rows, and append
        their columns; a family whose inner is the feature of one of these
        columns (equal, not only of equal name) reads its groups from there."""
        if ds.labels != self.labels:
            raise ValueError("extend needs the examples of this matrix's rows")
        new = materialize(ds, features, kb, self)
        width = len(self._columns)
        self._columns += new._columns
        self._features += new._features
        self.feature_names = self.feature_names + new.feature_names
        self._masks.update((width + j, masks) for j, masks in new._masks.items())
        self._rows = None


def materialize(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                known: Optional[FeatureMatrix] = None) -> FeatureMatrix:
    """Evaluate every feature on every example; labels ride along.

    The aggregator features that share one (inner feature, relation,
    family) form a family, such as the indicators one relation spawns over
    a derived problem.  A family is filled from the rows each target fires
    on.  The inner's value groups (``row_masks``) and token groups
    (``token_masks``) are built once for all its families: from its own
    column when the inner is one of `features` or the feature of a column
    of `known` (a matrix on `ds`, as ``FeatureMatrix.extend`` passes), or
    else from one evaluation per example.  An ``any`` family reads the
    index once per token the relation covers: a target fires on the rows
    of every token paired with it.  A ``majority`` family reads each
    distinct value's tokens once and fires the targets ``fired_targets``
    gives for their pooled objects on that value's rows.  The targets are
    only read back by name, so no set order reaches the result.  The
    relation is looked up only when some value is present.  A member is
    ``"1"`` on the rows its target fires on, ``None`` where the inner is
    missing and ``"0"`` elsewhere, and is stored as those groups, empty ones
    left out, in the order of their lowest row as ``row_masks`` gives them:
    where the inner is never missing, the group holding row 0 first, with
    no sort.  Every
    other cell is evaluated on its own.  Evaluation is pure, so the result
    is the one cell-by-cell evaluation gives, and deterministic.
    """
    if not features:
        raise ValueError("materialize requires at least one feature")
    examples = ds.examples
    columns: List[Optional[list]] = [None] * len(features)
    families: Dict[tuple, List[Tuple[int, str]]] = {}
    for j, f in enumerate(features):
        if isinstance(f, RelationFeature) and f.aggregator is not None:
            families.setdefault((f.inner, f.relation, f.aggregator.family), []).append(
                (j, f.aggregator.value))
        else:
            columns[j] = [evaluate_feature(f, x, kb) for x in examples]
    matrix = FeatureMatrix._of_columns(columns, ds.labels, [f.name for f in features],
                                       features)
    if not families:
        return matrix
    # feature -> (a matrix holding its column, that column)
    held = {f: (known, j) for j, f in enumerate(known._features if known else ())}
    held.update((f, (matrix, j)) for j, f in enumerate(features) if columns[j] is not None)
    inners: Dict[Feature, tuple] = {}   # inner -> its value groups and token groups
    every = (1 << len(examples)) - 1
    for (inner, relation, family), members in families.items():
        if inner not in inners:
            owner, j = held.get(inner, (None, 0))
            groups = owner.masks(j) if owner else \
                row_masks([evaluate_feature(inner, x, kb) for x in examples])
            inners[inner] = groups, token_masks(groups)
        groups, tokens = inners[inner]
        fires: Dict[str, int] = {}          # target -> the rows it fires on; read by .get
        if tokens:
            index = kb.relation(relation).index
            if family == "any":
                for tok in tokens.keys() & index.keys():
                    rows = tokens[tok]
                    for target in index[tok]:
                        fires[target] = fires.get(target, 0) | rows
            else:
                for v, rows in groups.items():
                    if v is not None:
                        looked_up = [o for tok in iter_atoms(v) for o in index.get(tok, ())]
                        for target in fired_targets(family, looked_up):
                            fires[target] = fires.get(target, 0) | rows
        missing = groups.get(None, 0)
        present = every ^ missing
        for j, target in members:
            ones = fires.get(target, 0)
            # the non-empty groups, in the order of their lowest row, as row_masks has them
            if missing:
                ordered = sorted((m & -m, v, m) for v, m in
                                 ((None, missing), ("1", ones), ("0", present ^ ones)) if m)
                matrix._masks[j] = {v: m for _, v, m in ordered}
            else:   # two groups at most: row 0's comes first
                pairs = (("1", ones), ("0", every ^ ones)) if ones & 1 else \
                    (("0", every ^ ones), ("1", ones))
                matrix._masks[j] = {v: m for v, m in pairs if m}
    return matrix
