"""Feature definitions and their evaluation against a knowledge base.

Three feature kinds compose into trees:

* ``BaseFeature`` reads a stored column of the example.
* ``RelationFeature`` composes a KB relation onto an inner feature.  With
  no aggregator (function relations) the value is the looked-up object(s);
  with an aggregator it is a binary indicator over the multiset of objects
  looked up from every token of the inner value.
* ``ClassifierFeature`` applies a trained model to the inner feature's
  value.  The model consumes a vector of value-level features (features
  whose base column is the reserved ``value`` column), each evaluated only
  when the model reads it, so a tree pays for the cells on its one
  root-to-leaf path and a value feature the model never reads is never
  evaluated; for set-valued inner values the per-token predictions are
  combined by majority vote.

Evaluation is pure: the same example and knowledge base always produce the
same value, and nothing is mutated.

A relation's and a classifier's name are derived once, when the feature is
built, and stored on it.  One private writer gives a feature's canonical
text, the one-line sorted-key JSON of ``to_json()``, by joining the text of
its parts, without building that dict: ``serialize_feature`` returns it, and
a classifier's digest (the SHA-1 its name is cut from) hashes the same text
of the classifier's fields.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Union

from kbfg.aggregators import AggregatorInstance, fired_targets
from kbfg.kb import KnowledgeBase
from kbfg.values import FeatureValue, atom_or_set, iter_atoms

# reserved column name for the objects of a derived value-level problem
VALUE_COLUMN = "value"


@dataclass(frozen=True)
class BaseFeature:
    name: str

    def to_json(self) -> dict:
        return {"kind": "base", "name": self.name}


@dataclass(frozen=True)
class RelationFeature:
    inner: "Feature"
    relation: str
    aggregator: Optional[AggregatorInstance] = None
    name: str = field(init=False, repr=False, compare=False)  # derived from the fields above

    def __post_init__(self):
        stem = f"{self.relation}({self.inner.name})"
        agg = self.aggregator
        object.__setattr__(self, "name", stem if agg is None
                           else f"{stem}:{agg.family}={agg.value}")

    def to_json(self) -> dict:
        return {
            "kind": "relation",
            "name": self.name,
            "relation": self.relation,
            "aggregator": self.aggregator.to_json() if self.aggregator else None,
            "inner": self.inner.to_json(),
        }


@dataclass(frozen=True, eq=False)
class ClassifierFeature:
    inner: "Feature"
    model: object  # trained classifier: predict(row) -> 0|1, default_class, to_json()
    value_features: tuple  # features over VALUE_COLUMN, the model's input columns
    partition_type: Optional[str] = None
    name: str = field(init=False)  # always derived from the fields above
    # SHA-1 of the canonical text of those fields; the name carries its first 8 digits
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        digest = hashlib.sha1(_classifier_text(self, named=False).encode("ascii")).hexdigest()
        scope = self.inner.name if self.partition_type is None \
            else f"{self.inner.name}|{self.partition_type}"
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "name", f"induced[{scope}]#{digest[:8]}")

    def __eq__(self, other):
        """Equal payloads, so equal documents: the full digests agree."""
        return isinstance(other, ClassifierFeature) and self.digest == other.digest

    def __hash__(self):
        return hash(self.name)

    def to_json(self) -> dict:
        return {
            "kind": "classifier",
            "name": self.name,
            "inner": self.inner.to_json(),
            "model": self.model.to_json(),
            "value_features": [vf.to_json() for vf in self.value_features],
            "partition_type": self.partition_type,
        }


Feature = Union[BaseFeature, RelationFeature, ClassifierFeature]


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_feature(f: Feature) -> str:
    """Canonical one-line JSON for a feature; equal text means equal feature."""
    return _text(f)  # the writer recurses through `_text`, never through this traced name


def _text(f: Feature) -> str:
    """``_canon(f.to_json())``, written from each part's text with the keys in
    sorted order; every string is escaped as ``json.dumps`` escapes it."""
    if isinstance(f, BaseFeature):
        return f'{{"kind":"base","name":{_quote(f.name)}}}'
    if isinstance(f, RelationFeature):
        agg = f.aggregator
        agg_text = "null" if agg is None \
            else f'{{"family":{_quote(agg.family)},"value":{_quote(agg.value)}}}'
        return (f'{{"aggregator":{agg_text},"inner":{_text(f.inner)},"kind":"relation",'
                f'"name":{_quote(f.name)},"relation":{_quote(f.relation)}}}')
    if isinstance(f, ClassifierFeature):
        return _classifier_text(f, named=True)
    raise TypeError(f"not a feature: {f!r}")


def _classifier_text(f: ClassifierFeature, named: bool) -> str:
    """The canonical text of `f`'s payload or, if `named`, of the whole feature."""
    kind, name = ('"kind":"classifier",', f'"name":{_quote(f.name)},') if named else ("", "")
    return (f'{{"inner":{_text(f.inner)},{kind}"model":{_canon(f.model.to_json())},{name}'
            f'"partition_type":{_canon(f.partition_type)},'
            f'"value_features":[{",".join(map(_text, f.value_features))}]}}')


class FeatureDocError(ValueError):
    """A malformed feature document; the message starts with the JSON path."""


def doc_field(obj, key: str, path: str, kind: type = object):
    """`obj[key]`, which must exist and be a `kind`, else ``FeatureDocError``."""
    if not isinstance(obj, dict):
        raise FeatureDocError(f"{path}: expected an object")
    if key not in obj:
        raise FeatureDocError(f"{path}: missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FeatureDocError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def feature_from_json(obj: dict, path: str = "$") -> Feature:
    """A feature read from its JSON form at `path`; a classifier's model is
    checked against its value features, and a stored relation or classifier
    name against the name derived from the rest, so a malformed document
    fails here."""
    kind = doc_field(obj, "kind", path)
    if kind == "base":
        return BaseFeature(doc_field(obj, "name", path, str))
    if kind == "relation":
        raw, agg = doc_field(obj, "aggregator", path), None
        if raw is not None:
            apath = f"{path}.aggregator"
            family = doc_field(raw, "family", apath, str)
            value = doc_field(raw, "value", apath, str)
            try:
                agg = AggregatorInstance(family, value)
            except ValueError as e:  # an unknown family
                raise FeatureDocError(f"{apath}.family: {e}") from None
        f = RelationFeature(feature_from_json(doc_field(obj, "inner", path), f"{path}.inner"),
                            doc_field(obj, "relation", path, str), agg)
    elif kind == "classifier":
        from kbfg.learners import model_from_json  # deferred: learners imports data

        value_features = tuple(
            feature_from_json(v, f"{path}.value_features[{i}]")
            for i, v in enumerate(doc_field(obj, "value_features", path, list)))
        partition_type = obj.get("partition_type")
        if not isinstance(partition_type, (str, type(None))):
            raise FeatureDocError(f"{path}.partition_type: expected str or null")
        f = ClassifierFeature(
            inner=feature_from_json(doc_field(obj, "inner", path), f"{path}.inner"),
            model=model_from_json(doc_field(obj, "model", path), len(value_features),
                                  f"{path}.model"),
            value_features=value_features,
            partition_type=partition_type,
        )
    else:
        raise FeatureDocError(f"{path}.kind: unknown feature kind {kind!r}")
    if "name" in obj and obj["name"] != f.name:
        raise FeatureDocError(f"{path}.name: stored {obj['name']!r}, derived {f.name!r}")
    return f


def features_to_document(features: Sequence[Feature], summary: Optional[dict] = None) -> dict:
    doc = {"format": "kbfg-features", "features": [f.to_json() for f in features]}
    if summary is not None:
        doc["summary"] = summary
    return doc


def features_from_document(doc: dict) -> List[Feature]:
    """The features of a document; ``FeatureDocError`` names what is malformed."""
    if not isinstance(doc, dict) or doc.get("format") != "kbfg-features":
        raise FeatureDocError("$: not a feature document")
    return [feature_from_json(obj, f"$.features[{i}]")
            for i, obj in enumerate(doc_field(doc, "features", "$", list))]


def composition_layers(f: Feature) -> int:
    """Number of induced-classifier layers stacked beyond the source column.

    Relation hops ride along with the classifier that consumes them, so a
    single induced feature counts 1 regardless of how many relations its
    model reads, and each nested induced feature adds 1.
    """
    if isinstance(f, BaseFeature):
        return 0
    if isinstance(f, RelationFeature):
        return composition_layers(f.inner)
    inner = composition_layers(f.inner)
    nested = max((composition_layers(vf) for vf in f.value_features), default=0)
    return 1 + max(inner, nested)


def evaluate_feature(f: Feature, x, kb: KnowledgeBase) -> FeatureValue:
    """Evaluate a feature on an example (anything with an ``assignment`` map)."""
    return _eval(f, x.assignment, kb)


def _eval(f: Feature, assignment: Mapping[str, FeatureValue], kb: KnowledgeBase) -> FeatureValue:
    if isinstance(f, BaseFeature):
        return assignment.get(f.name)

    if isinstance(f, RelationFeature):
        inner = _eval(f.inner, assignment, kb)
        if inner is None:
            return None
        # multiset semantics: multiplicities accumulate across inner tokens
        objects = [o for tok in iter_atoms(inner) for o in kb.lookup(f.relation, tok)]
        if f.aggregator is None:
            return atom_or_set(objects)
        agg = f.aggregator
        return "1" if agg.value in fired_targets(agg.family, objects) else "0"

    if isinstance(f, ClassifierFeature):
        inner = _eval(f.inner, assignment, kb)
        if inner is None:
            return str(f.model.default_class)
        votes = [predict_on_token(f, tok, kb) for tok in iter_atoms(inner)]
        ones = sum(votes)
        # majority vote over per-token predictions, ties to 0
        return str(int(ones * 2 > len(votes)))

    raise TypeError(f"not a feature: {f!r}")


def predict_on_token(f: ClassifierFeature, token: str, kb: KnowledgeBase) -> int:
    """Apply the embedded model to one value token via the value-level features.

    The model gets a row whose cells are evaluated when it reads them.
    Evaluation is pure, so the prediction is the one a fully
    evaluated row gives; but a value feature the model does not read is not
    evaluated at all, so a relation the knowledge base does not declare
    raises ``KBError`` only when the model reads a cell that uses it.
    """
    return f.model.predict(_LazyRow(f.value_features, token, kb))


class _LazyRow(Sequence):
    """The value features' values on one token, each evaluated when it is read."""

    __slots__ = ("_features", "_assignment", "_kb")

    def __init__(self, features: Sequence[Feature], token: str, kb: KnowledgeBase):
        self._features = features
        self._assignment = {VALUE_COLUMN: token}
        self._kb = kb

    def __len__(self) -> int:
        return len(self._features)

    def __getitem__(self, j: int) -> FeatureValue:
        return _eval(self._features[j], self._assignment, self._kb)
