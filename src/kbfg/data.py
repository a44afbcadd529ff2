"""Labeled symbolic datasets and feature-matrix materialization.

Datasets are JSON-lines files.  An optional first line declares the schema::

    {"schema": {"gender": "gender", "surname": "surname"}}

mapping base feature names to value-type names.  Every following line is one
example::

    {"id": "p1", "label": 1, "features": {"surname": "haddad", "gender": "f"}}

Feature values are strings (atoms) or arrays of strings (value sets; an
empty array means missing).  Without a header the schema is inferred as the
union of observed feature names, typed by their own name.

``materialize`` evaluates features into a row-major ``FeatureMatrix``.  The
aggregator indicators of one (inner feature, relation, family) are filled
together, from one evaluation of the inner value and one knowledge-base
lookup per token and example; every other cell is evaluated on its own.

A ``FeatureMatrix`` also holds each column's rows grouped by value, as
``row_masks`` gives them: ``FeatureMatrix.masks(j)`` builds them at most
once per column, and ``materialize`` hands over those of every aggregator
column, taken from the examples each target fires on while it fills the
family.  The tree, information gain, ``deep``'s split and derived problems
all read a column's groups from there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from kbfg.aggregators import fired_targets
from kbfg.features import Feature, RelationFeature, evaluate_feature
from kbfg.kb import KnowledgeBase
from kbfg.values import FeatureValue, iter_atoms, normalize_value, value_to_json


class DatasetError(Exception):
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


def _parse_record(obj: dict, lineno: int, schema_names: Optional[List[str]]) -> Example:
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
        if raw is not None and not isinstance(raw, (str, list)):
            raise DatasetError(f"line {lineno}: feature {name!r} must be a string, "
                               f"an array of strings, or null")
        try:
            assignment[name] = normalize_value(raw)
        except ValueError as e:
            raise DatasetError(f"line {lineno}: feature {name!r}: {e}") from None
    return Example(ex_id, label, assignment)


def load_dataset(source: Iterable[str]) -> Dataset:
    """Parse a JSON-lines dataset, enforcing unique ids and schema membership."""
    schema: Optional[List[Tuple[str, str]]] = None
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
        if first_content and isinstance(obj, dict) and "schema" in obj:
            declared = obj["schema"]
            if not isinstance(declared, dict) or \
                    not all(isinstance(t, str) for t in declared.values()):
                raise DatasetError(f"line {lineno}: schema header must map feature "
                                   f"names to value-type names")
            schema = list(declared.items())
            first_content = False
            continue
        first_content = False
        ex = _parse_record(obj, lineno, [n for n, _ in schema] if schema else None)
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
    with open(path, encoding="utf-8") as f:
        return load_dataset(f)


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
    row i), values in first-seen order.

    The one grouping of rows by value: the tree, k-NN, information gain,
    ``deep``'s split and derived problems all build their groups here (a
    matrix column through ``FeatureMatrix.masks``), so all of them see the
    groups in the same order.
    """
    masks: Dict[FeatureValue, int] = {}
    bit = 1
    for v in column:
        masks[v] = masks.get(v, 0) | bit
        bit <<= 1
    return masks


@dataclass
class FeatureMatrix:
    rows: List[List[FeatureValue]]
    labels: List[int]
    feature_names: List[str]
    # column index -> that column's row_masks, each built at most once
    _masks: Dict[int, Dict[FeatureValue, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def column(self, j: int) -> List[FeatureValue]:
        return [row[j] for row in self.rows]

    def masks(self, j: int) -> Dict[FeatureValue, int]:
        """``row_masks(self.column(j))``, built on first use; read it, do not change it."""
        masks = self._masks.get(j)
        if masks is None:
            masks = self._masks[j] = row_masks(row[j] for row in self.rows)
        return masks

    def subset(self, indices: Sequence[int]) -> "FeatureMatrix":
        """The rows at `indices`, copied, so appending to them leaves these intact."""
        return FeatureMatrix([list(self.rows[i]) for i in indices],
                             [self.labels[i] for i in indices], list(self.feature_names))

    def append_columns(self, other: "FeatureMatrix") -> None:
        """Append the columns of `other`, a matrix built on the same examples,
        with the masks it has built."""
        if other.labels != self.labels:
            raise ValueError("append_columns needs a matrix over the same examples")
        width = len(self.feature_names)
        for row, more in zip(self.rows, other.rows):
            row.extend(more)
        self.feature_names += other.feature_names
        self._masks.update((width + j, masks) for j, masks in other._masks.items())

    def __len__(self) -> int:
        return len(self.rows)


def materialize(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase) -> FeatureMatrix:
    """Evaluate every feature on every example; labels ride along.

    The aggregator features that share one (inner feature, relation,
    family) form a family, such as the indicators one relation spawns over
    a derived problem.  A family is filled in one pass: per example its
    inner value is evaluated once (or read from its own column, when the
    inner is also one of `features`) and split into tokens once for all its
    families, each token is looked up once, and the set of targets that
    fire gives every member's cell.  The same pass ORs the example's bit
    into the mask of each target that fires, and into a missing mask when
    the inner value is missing, so each member's ``masks`` come without a
    scan of its column.  Every other cell is evaluated on its own.
    Evaluation is pure, so the result is the one cell-by-cell evaluation
    gives, and deterministic.
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
    inner_values = {f: column for f, column in zip(features, columns)
                    if column is not None} if families else {}
    tokens: Dict[Feature, list] = {}        # inner -> per example, None or its tokens
    masks: Dict[int, Dict[FeatureValue, int]] = {}
    for (inner, relation, family), members in families.items():
        if inner not in tokens:
            values = inner_values.get(inner)
            if values is None:
                values = [evaluate_feature(inner, x, kb) for x in examples]
            tokens[inner] = [None if v is None else tuple(iter_atoms(v)) for v in values]
        fired: list = []
        fires: Dict[str, int] = {}          # target -> the rows it fires on
        missing, bit = 0, 1
        for toks in tokens[inner]:
            if toks is None:
                fired.append(None)
                missing |= bit
            else:
                s = fired_targets(family, [o for tok in toks for o in kb.lookup(relation, tok)])
                fired.append(s)
                for target in s:
                    fires[target] = fires.get(target, 0) | bit
            bit <<= 1
        present = (bit - 1) ^ missing
        for j, target in members:
            columns[j] = [None if s is None else "1" if target in s else "0" for s in fired]
            ones = fires.get(target, 0)
            # the non-empty groups, in the order of their lowest row, as row_masks has them
            groups = sorted((m & -m, v, m) for v, m in
                            ((None, missing), ("1", ones), ("0", present ^ ones)) if m)
            masks[j] = {v: m for _, v, m in groups}
    matrix = FeatureMatrix([list(row) for row in zip(*columns)], ds.labels,
                           [f.name for f in features])
    matrix._masks.update(masks)
    return matrix
