"""Reference implementations that the optimised ones must match exactly.

``train_linear`` shrinks every weight at every step, ``knn_predict`` sorts
every stored row by Hamming distance for each query, and
``predict_on_token`` evaluates every value-level feature before the model
reads the row.  ``materialize`` evaluates every cell on its own,
``train_decision_tree`` groups a list of row indices by value at every
(node, column) and scores it with the guarded ``information_gain``, and
``create_new_problem`` labels every value before its size filter and
carries its own copies of the helpers it used then (value labels, the
per-type partition, the coverage test and the relational step);
``expand_features`` evaluates every source cell by cell
(``observed_values``), picks relations with ``applicable_relations`` and
spawns features with that same relational step.  They are the
straightforward versions the library used before its lazy-shrink linear
trainer, bitmask k-NN index, lazily evaluated model rows, per-family
aggregator fill, bitmask tree, early size filter, shared relational step
and expansion sources read from a column's masks; the differential tests
in ``test_learner_oracles.py`` require identical results from the library.

``serialize_feature`` is ``json.dumps`` of a feature's ``to_json()`` dict,
and ``classifier_digest`` the SHA-1 of that dict without its kind and name:
the library writes both texts from the feature's parts instead.

``load_kb`` and ``load_dataset`` are the loaders as they were before the
lean triple loop, the paused collector and the schema-name set: the library
must load equal objects from the same lines, or raise the same message.
"""

import hashlib
import json
import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from kbfg.aggregators import AggregatorInstance
from kbfg.data import Dataset, DatasetError, Example, FeatureMatrix
from kbfg.features import (
    VALUE_COLUMN,
    BaseFeature,
    ClassifierFeature,
    Feature,
    RelationFeature,
    evaluate_feature,
)
from kbfg.kb import KBError, KnowledgeBase, Relation
from kbfg.learners import (
    LinearModel,
    TrainConfig,
    TreeModel,
    TreeNode,
    _encode,
    majority_label,
)
from kbfg.recursive import CandidateRecord, GenerationConfig, GenerationStats, RecursiveProblem
from kbfg.values import FeatureValue, iter_atoms, normalize_value, value_sort_key


def train_linear(matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None) -> LinearModel:
    cfg = cfg or TrainConfig()
    if not matrix.rows:
        raise ValueError("cannot train on an empty matrix")
    default = majority_label(matrix.labels)
    if len(set(matrix.labels)) == 1:
        return LinearModel({}, 0.0, default, constant=True)

    lam = cfg.regularization
    weights: Dict[Tuple[int, str], float] = {}
    bias = 0.0
    keys = [[(j, _encode(v)) for j, v in enumerate(row)] for row in matrix.rows]
    signed = [1 if y == 1 else -1 for y in matrix.labels]
    t = 0
    for _ in range(cfg.epochs):
        for i in range(len(keys)):
            t += 1
            eta = 1.0 / (lam * t)
            score = bias + sum(weights.get(k, 0.0) for k in keys[i])
            shrink = 1.0 - eta * lam
            for k in list(weights):
                weights[k] *= shrink
            bias *= shrink
            if signed[i] * score < 1.0:
                for k in keys[i]:
                    weights[k] = weights.get(k, 0.0) + eta * signed[i]
                bias += eta * signed[i]
    return LinearModel(weights, bias, default)


def knn_predict(self, row: Sequence[FeatureValue]) -> int:
    """``KnnModel.predict`` as a sort of all stored rows; `self` is a KnnModel."""
    def dist(stored: Sequence[FeatureValue]) -> int:
        m = max(len(stored), len(row))
        return sum(1 for i in range(m)
                   if (stored[i] if i < len(stored) else None)
                   != (row[i] if i < len(row) else None))

    order = sorted(range(len(self.rows)), key=lambda i: (dist(self.rows[i]), i))
    votes = [self.labels[i] for i in order[: self.k]]
    return majority_label(votes)


def predict_on_token(f: ClassifierFeature, token: str, kb: KnowledgeBase) -> int:
    """Apply the embedded model to one value token via the value-level features."""
    x = Example(token, 0, {VALUE_COLUMN: token})
    row = [evaluate_feature(vf, x, kb) for vf in f.value_features]
    return f.model.predict(row)


def serialize_feature(f: Feature) -> str:
    return json.dumps(f.to_json(), sort_keys=True, separators=(",", ":"))


def classifier_digest(f: ClassifierFeature) -> str:
    """SHA-1 of the canonical JSON of every field a classifier's name is derived from."""
    payload = {k: v for k, v in f.to_json().items() if k not in ("kind", "name")}
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


def majority_aggregate(values: Iterable[str], v: str) -> int:
    counts = Counter(values)
    if not counts:
        return 0
    top = max(counts.values())
    winner = min(val for val, c in counts.items() if c == top)
    return int(v == winner)


def any_aggregate(values: Iterable[str], v: str) -> int:
    return int(v in set(values))


def materialize(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase) -> FeatureMatrix:
    """Evaluate every feature on every example; labels ride along.

    Evaluation is pure, so rows are independent and the result is
    deterministic.
    """
    if not features:
        raise ValueError("materialize requires at least one feature")
    rows = [[evaluate_feature(f, x, kb) for f in features] for x in ds.examples]
    return FeatureMatrix(rows, ds.labels, [f.name for f in features])


def entropy(labels: Sequence[int]) -> float:
    """Binary entropy of a label sequence, in bits; 0*log0 counts as 0."""
    n = len(labels)
    if n == 0:
        return 0.0
    ones = sum(labels)
    h = 0.0
    for c in (ones, n - ones):
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def information_gain(labels: Sequence[int], partition: Iterable[Sequence[int]]) -> float:
    """Entropy reduction of `labels` under a partition of its indices.

    `partition` groups every index exactly once (guarded).  Result is in
    bits and clamped to be non-negative against rounding.
    """
    groups = [list(g) for g in partition]
    n = len(labels)
    if n == 0:
        raise ValueError("information_gain requires labels")
    covered = sorted(i for g in groups for i in g)
    if covered != list(range(n)):
        raise ValueError("partition must cover every label index exactly once")
    cond = 0.0
    for g in groups:
        cond += len(g) / n * entropy([labels[i] for i in g])
    return max(0.0, entropy(labels) - cond)


def groups_by_value(column: Sequence[FeatureValue]) -> Dict[FeatureValue, List[int]]:
    """The row indices holding each distinct value, values in first-seen order."""
    groups: Dict[FeatureValue, List[int]] = {}
    for i, v in enumerate(column):
        groups.setdefault(v, []).append(i)
    return groups


def column_information_gain(matrix: FeatureMatrix, j: int) -> float:
    """IG of splitting the matrix's labels by column j's values (missing included)."""
    groups = groups_by_value([row[j] for row in matrix.rows])
    return information_gain(matrix.labels, groups.values())


def train_decision_tree(matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None) -> TreeModel:
    cfg = cfg or TrainConfig()
    if not matrix.rows:
        raise ValueError("cannot train on an empty matrix")
    n_features = len(matrix.rows[0])

    def build(indices: List[int], depth: int) -> TreeNode:
        labels = [matrix.labels[i] for i in indices]
        node_majority = majority_label(labels)
        if len(set(labels)) == 1:
            return TreeNode(label=labels[0], n=len(indices))
        if depth >= cfg.max_depth:
            return TreeNode(label=node_majority, n=len(indices))

        # groups hold positions local to `indices`
        best_j, best_gain, best_groups = None, 0.0, None
        for j in range(n_features):
            groups = groups_by_value([matrix.rows[i][j] for i in indices])
            if len(groups) < 2:
                continue
            if any(len(g) < cfg.min_leaf for g in groups.values()):
                continue  # split would create an undersized leaf
            gain = information_gain(labels, groups.values())
            if gain > best_gain + 1e-12:
                best_j, best_gain, best_groups = j, gain, groups
        if best_j is None:
            return TreeNode(label=node_majority, n=len(indices))

        items = sorted(best_groups.items(), key=lambda kv: value_sort_key(kv[0]))
        children = [(v, build([indices[p] for p in g], depth + 1)) for v, g in items]
        sizes = [len(g) for _, g in items]
        fallback = max(range(len(sizes)), key=lambda k: (sizes[k], -k))
        return TreeNode(feature=best_j, children=children, fallback=fallback,
                        n=len(indices))

    root = build(list(range(len(matrix.rows))), 0)
    return TreeModel(root, majority_label(matrix.labels), n_features)


def _value_labels(values_per_example: List[List[str]], labels: Sequence[int]) -> Dict[str, int]:
    """Majority label of the examples carrying each token (ties to 0)."""
    carried: Dict[str, List[int]] = {}
    for toks, y in zip(values_per_example, labels):
        for tok in set(toks):
            carried.setdefault(tok, []).append(y)
    return {tok: majority_label(ys) for tok, ys in carried.items()}


def _coverage(rel: Relation, values: Sequence[str]) -> float:
    return sum(1 for v in values if v in rel.index) / len(values)


def _candidate_features(values: List[str], relations: List[Relation], kb: KnowledgeBase,
                        family: str) -> List[Feature]:
    base = BaseFeature(VALUE_COLUMN)
    out: List[Feature] = []
    for rel in relations:
        out.extend(_expand_one(base, rel, values, kb, family))
    return out


def _partition_by_type(values: List[str], kb: KnowledgeBase) -> List[Tuple[str, List[str]]]:
    """Group tokens by the departure types of the relations they appear in."""
    by_type: Dict[str, List[str]] = {}
    for v in values:
        types: Set[str] = set()
        for name in kb.relations:
            rel = kb.relations[name]
            if v in rel.index:
                types.add(rel.departure_type)
        for t in types:
            by_type.setdefault(t, []).append(v)
    return [(t, sorted(vs)) for t, vs in sorted(by_type.items())]


def _expand_one(f: Feature, rel: Relation, values: List[str], kb: KnowledgeBase,
                family: str) -> List[Feature]:
    if rel.is_function:
        return [RelationFeature(f, rel.name)]
    codomain: Set[str] = set()
    for v in values:
        codomain.update(rel.index.get(v, ()))
    return [RelationFeature(f, rel.name, AggregatorInstance(family, target))
            for target in sorted(codomain)]


def observed_values(ds: Dataset, feature: Feature, kb: KnowledgeBase) -> List[str]:
    """Distinct tokens the feature takes over the dataset (set members unpacked)."""
    seen: Set[str] = set()
    for x in ds.examples:
        seen.update(iter_atoms(evaluate_feature(feature, x, kb)))
    return sorted(seen)


def expand_features(ds: Dataset, features: Sequence[Feature], kb: KnowledgeBase,
                    cfg: GenerationConfig) -> List[Feature]:
    """One pass of relational expansion; no generated name is an input's or repeats."""
    generated: List[Feature] = []
    seen_names: Set[str] = {f.name for f in features}
    for f in features:
        values = observed_values(ds, f, kb)
        if not values:
            continue
        for rel in kb.applicable_relations(values, cfg.coverage_threshold):
            for new in _expand_one(f, rel, values, kb, cfg.aggregator_family):
                if new.name not in seen_names:
                    seen_names.add(new.name)
                    generated.append(new)
    return generated


def create_new_problem(f: Feature, ds: Dataset, column: Sequence[FeatureValue],
                       kb: KnowledgeBase, cfg: GenerationConfig,
                       stats: Optional[GenerationStats] = None,
                       level: int = 0) -> List[RecursiveProblem]:
    """The surviving candidate problems for one source feature, possibly none.

    `column` holds the values of `f` on the examples of `ds`, in order.
    Atom-valued sources yield at most one problem; set-valued sources yield
    one per covering departure type.  Every candidate, surviving or not, is
    recorded in `stats` with its status.
    """
    stats = stats if stats is not None else GenerationStats()
    label_of = _value_labels([list(iter_atoms(v)) for v in column], ds.labels)
    all_values = sorted(label_of)

    if any(isinstance(v, frozenset) for v in column):
        candidates = _partition_by_type(all_values, kb)
    else:
        candidates = [(None, all_values)]

    problems: List[RecursiveProblem] = []
    for ptype, values in candidates:
        status = None
        feats: List[Feature] = []
        if len(values) < cfg.min_recursive_size:
            status = "too_small"
        elif len({label_of[v] for v in values}) == 1:
            status = "single_class"
        else:
            if ptype is None:
                rels = kb.applicable_relations(values, cfg.coverage_threshold)
            else:
                rels = [r for r in kb.relations_of_departure_type(ptype)
                        if _coverage(r, values) >= cfg.coverage_threshold]
            feats = _candidate_features(values, rels, kb, cfg.aggregator_family)
            if not feats:
                status = "no_relations"
        stats.add(CandidateRecord(f.name, level, len(values), len(ds.examples),
                                  status or "generated", ptype))
        if status is None:
            problems.append(RecursiveProblem([(v, label_of[v]) for v in values], feats, ptype))
    return problems


def _content_lines(source: Iterable[str]) -> Iterable[Tuple[int, str]]:
    for i, raw in enumerate(source, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield i, line


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
    for lineno, line in _content_lines(triples_source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise KBError(f"triples line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        rel, subj, obj = (f.strip() for f in fields)
        if rel not in decls:
            raise KBError(f"triples line {lineno}: undeclared relation {rel!r}")
        if not subj or not obj:
            raise KBError(f"triples line {lineno}: empty subject or object")
        objs = index[rel].setdefault(subj, set())
        if decls[rel][2] and objs and obj not in objs:
            [prev] = objs
            raise KBError(
                f"triples line {lineno}: function relation {rel!r} maps {subj!r} "
                f"to both {prev!r} and {obj!r}")
        objs.add(obj)

    relations = {
        name: Relation(name, dep, cod, fn,
                       {s: frozenset(objs) for s, objs in index[name].items()})
        for name, (dep, cod, fn) in decls.items()
    }
    return KnowledgeBase(relations)


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
        except RecursionError:
            raise DatasetError(f"line {lineno}: invalid JSON (nested too deeply)") from None
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
        ex = _parse_record(obj, lineno, [n for n, _ in schema] if schema is not None else None)
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
