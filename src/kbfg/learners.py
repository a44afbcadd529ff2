"""Induction algorithms over symbolic feature matrices.

All three learners share the same contract: training is deterministic,
``predict`` is total over any value vector (missing and never-seen values
included), and every model exposes ``default_class``, the training majority
label with ties resolved to 0.

* decision tree: multiway splits on the feature with maximal information
  gain (index ties to the lower index).  A split is admissible only when
  every child keeps at least ``min_leaf`` examples, which is what stops
  id-like columns from being used.  Unseen split values route to the
  fallback child, the child that held the most training examples.  Training
  works on row bitmasks: one mask per (column, value), read from the
  matrix (``FeatureMatrix.masks``, which ``materialize`` fills for relation
  families and builds for any other column on first use), a node is a
  mask, and group sizes and positive counts are bit counts, scored by the
  same count-based gain core as ``column_information_gain``.
* k-NN: Hamming distance over value vectors, distance ties to the lower
  stored row, vote ties to 0.  The model keeps one row bitmask per
  (column, value); a query adds up its matching masks in a bit-sliced
  counter and takes rows by match count, lowest row first, which gives the
  same neighbours as sorting every stored row by (distance, row).
* linear: hinge-loss subgradient descent over one-hot encoded values with a
  1/(lambda*t) step size, cycling the training rows in a fixed order so the
  trajectory is reproducible and doubling the data (concatenated) with
  half the epochs traces the identical weight path.  The per-step
  regularisation shrink is applied lazily: a weight receives the shrink
  factors of the steps it missed when its row is next visited (and once
  more at the end), multiplied in step order, so every weight is
  bit-identical to shrinking all weights at every step.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from kbfg.data import Dataset, FeatureMatrix, materialize, row_masks
from kbfg.features import FeatureDocError, doc_field
from kbfg.values import FeatureValue, value_from_json, value_sort_key, value_to_json


@dataclass
class TrainConfig:
    max_depth: int = 12
    min_leaf: int = 2
    knn_k: int = 3
    epochs: int = 50
    regularization: float = 1e-3

    def __post_init__(self):
        for name in ("max_depth", "min_leaf", "knn_k", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.regularization <= 0:
            raise ValueError("regularization must be positive")


LEARNER_KINDS = ("tree", "knn", "linear")


def majority_label(labels: Iterable[int]) -> int:
    """Majority vote over binary labels; ties go to 0."""
    labels = list(labels)
    return int(sum(labels) * 2 > len(labels))


def _entropy(n: int, ones: int) -> float:
    """Binary entropy, in bits, of `n` labels of which `ones` are 1."""
    h = 0.0
    for c in (ones, n - ones):
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def _gain(n: int, ones: int, groups: Iterable[Tuple[int, int]]) -> float:
    """Information gain of splitting `n` labels (`ones` of them 1) into
    groups given as (size, ones) pairs, summed in the order given.

    The one gain core: the tree, ``column_information_gain`` and the guarded
    ``information_gain`` all score a split here, so equal counts in equal
    order give bit-identical gains everywhere.
    """
    cond = 0.0
    for size, pos in groups:
        cond += size / n * _entropy(size, pos)
    return max(0.0, _entropy(n, ones) - cond)


def entropy(labels: Sequence[int]) -> float:
    """Binary entropy of a label sequence, in bits; 0*log0 counts as 0."""
    n = len(labels)
    return _entropy(n, sum(labels)) if n else 0.0


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
    return _gain(n, sum(labels), [(len(g), sum(labels[i] for i in g)) for g in groups])


def column_information_gain(matrix: FeatureMatrix, j: int) -> float:
    """IG of splitting the matrix's labels by column j's values (missing included)."""
    masks = matrix.masks(j)
    if not masks:
        raise ValueError("information_gain requires labels")
    positive = row_masks(matrix.labels).get(1, 0)
    return _gain(len(matrix.labels), positive.bit_count(),
                 [(m.bit_count(), (m & positive).bit_count()) for m in masks.values()])


# --- decision tree ---------------------------------------------------------


@dataclass
class TreeNode:
    label: Optional[int] = None          # set on leaves
    feature: Optional[int] = None        # set on internal nodes
    children: Optional[List[Tuple[FeatureValue, "TreeNode"]]] = None
    fallback: Optional[int] = None       # index into children for unseen values
    n: int = 0                           # training examples that reached this node

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def to_json(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.label, "n": self.n}
        return {
            "feature": self.feature,
            "n": self.n,
            "fallback": self.fallback,
            "children": [[value_to_json(v), c.to_json()] for v, c in self.children],
        }

    @staticmethod
    def from_json(obj: dict, n_features: int, path: str) -> "TreeNode":
        """The node at JSON `path`; its splits read columns below `n_features`."""
        n = doc_field(obj, "n", path, int)
        if "leaf" in obj:
            return TreeNode(label=_doc_label(obj, "leaf", path), n=n)
        feature = doc_field(obj, "feature", path, int)
        if not 0 <= feature < n_features:
            raise FeatureDocError(f"{path}.feature: split on column {feature}, "
                                  f"not below {n_features}")
        children = []
        for i, pair in enumerate(doc_field(obj, "children", path, list)):
            cpath = f"{path}.children[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise FeatureDocError(f"{cpath}: expected a [value, node] pair")
            children.append((_doc_value(pair[0], f"{cpath}[0]"),
                             TreeNode.from_json(pair[1], n_features, f"{cpath}[1]")))
        fallback = doc_field(obj, "fallback", path, int)
        if not 0 <= fallback < len(children):
            raise FeatureDocError(f"{path}.fallback: no child {fallback} "
                                  f"among {len(children)}")
        return TreeNode(feature=feature, children=children, fallback=fallback, n=n)


@dataclass
class TreeModel:
    root: TreeNode
    default_class: int
    n_features: int

    kind = "tree"

    def predict(self, row: Sequence[FeatureValue]) -> int:
        node = self.root
        while not node.is_leaf:
            v = row[node.feature] if node.feature < len(row) else None
            for value, child in node.children:
                if value == v:
                    node = child
                    break
            else:
                node = node.children[node.fallback][1]
        return node.label

    def to_json(self) -> dict:
        return {"kind": "tree", "default_class": self.default_class,
                "n_features": self.n_features, "root": self.root.to_json()}


def train_decision_tree(matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None) -> TreeModel:
    """Grow the tree over row bitmasks: bit i stands for row i.

    Each (column, value) row mask is the matrix's own (``FeatureMatrix.masks``),
    so a column's masks are built at most once per matrix.  A node is a row mask; a
    candidate split's group sizes and positive counts are bit counts of the
    node's mask and the value masks.  Groups are summed in the order of
    their lowest row, the order in which a scan of the node's rows first
    meets their values, so every gain is the one ``information_gain`` gives.
    A column constant on a node is constant below it and is not scored
    there again.
    """
    cfg = cfg or TrainConfig()
    if not matrix.rows:
        raise ValueError("cannot train on an empty matrix")
    positive = row_masks(matrix.labels).get(1, 0)
    # (j, [(value, row mask), ...]) per column
    columns = [(j, list(matrix.masks(j).items())) for j in range(len(matrix.rows[0]))]

    def build(node: int, columns, depth: int) -> TreeNode:
        n = node.bit_count()
        ones = (node & positive).bit_count()
        if ones in (0, n):
            return TreeNode(label=int(ones > 0), n=n)
        node_majority = int(ones * 2 > n)
        if depth >= cfg.max_depth:
            return TreeNode(label=node_majority, n=n)

        best_j, best_gain, best_groups = None, 0.0, None
        live = []                          # the columns not constant on this node
        for j, groups in columns:
            here = [(v, m & node) for v, m in groups if m & node]
            if len(here) < 2:
                continue
            live.append((j, here))
            counts = [(m.bit_count(), (m & positive).bit_count()) for _, m in here]
            if any(size < cfg.min_leaf for size, _ in counts):
                continue  # split would create an undersized leaf
            if len(counts) > 2:            # a sum of two terms is the same either way
                counts = [c for _, c in sorted(zip([m & -m for _, m in here], counts))]
            gain = _gain(n, ones, counts)
            if gain > best_gain + 1e-12:
                best_j, best_gain, best_groups = j, gain, here
        if best_j is None:
            return TreeNode(label=node_majority, n=n)

        items = sorted(best_groups, key=lambda vm: value_sort_key(vm[0]))
        children = [(v, build(m, live, depth + 1)) for v, m in items]
        sizes = [m.bit_count() for _, m in items]
        fallback = max(range(len(sizes)), key=lambda k: (sizes[k], -k))
        return TreeNode(feature=best_j, children=children, fallback=fallback, n=n)

    root = build((1 << len(matrix.rows)) - 1, columns, 0)
    return TreeModel(root, majority_label(matrix.labels), len(matrix.rows[0]))


# --- k nearest neighbours ---------------------------------------------------


@dataclass
class KnnModel:
    rows: List[List[FeatureValue]]
    labels: List[int]
    k: int
    default_class: int

    kind = "knn"

    def __post_init__(self):
        # rows shorter than the widest one read as None in the missing columns
        self._masks = [row_masks(column) for column in itertools.zip_longest(*self.rows)]
        self._positive = row_masks(self.labels).get(1, 0)
        self._all = (1 << len(self.rows)) - 1

    def predict(self, row: Sequence[FeatureValue]) -> int:
        # planes[b] holds bit b of every stored row's count of matching columns.
        # Columns past the widest stored row match every row or none, so they
        # cannot reorder rows, and neither can any column that does so.
        planes: List[int] = []
        for j, masks in enumerate(self._masks):
            carry = masks.get(row[j] if j < len(row) else None, 0)
            if not carry or carry == self._all:
                continue
            for b in range(len(planes)):
                plane = planes[b]
                planes[b] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            if carry:
                planes.append(carry)
        # most matches = least distance; within a match count, lowest row first
        total = need = min(self.k, len(self.rows))
        ones = 0
        for level in range((1 << len(planes)) - 1, -1, -1):
            if not need:
                break
            members = self._all
            for b, plane in enumerate(planes):
                members &= plane if level >> b & 1 else ~plane
            count = members.bit_count()
            if count <= need:
                ones += (members & self._positive).bit_count()
                need -= count
                continue
            while need:
                low = members & -members
                ones += bool(low & self._positive)
                members ^= low
                need -= 1
        return int(ones * 2 > total)

    def to_json(self) -> dict:
        return {"kind": "knn", "k": self.k, "default_class": self.default_class,
                "labels": self.labels,
                "rows": [[value_to_json(v) for v in row] for row in self.rows]}


def train_knn(matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None) -> KnnModel:
    cfg = cfg or TrainConfig()
    if not matrix.rows:
        raise ValueError("cannot train on an empty matrix")
    return KnnModel([list(r) for r in matrix.rows], list(matrix.labels),
                    cfg.knn_k, majority_label(matrix.labels))


# --- linear (hinge loss, one-hot encoding) ----------------------------------


@dataclass
class LinearModel:
    weights: Dict[Tuple[int, str], float]  # (column, encoded value) -> weight
    bias: float
    default_class: int
    constant: bool = False

    kind = "linear"

    def _score(self, row: Sequence[FeatureValue]) -> float:
        s = self.bias
        for j, v in enumerate(row):
            s += self.weights.get((j, _encode(v)), 0.0)
        return s

    def predict(self, row: Sequence[FeatureValue]) -> int:
        if self.constant:
            return self.default_class
        return int(self._score(row) > 0)

    def to_json(self) -> dict:
        return {"kind": "linear", "default_class": self.default_class,
                "constant": self.constant, "bias": self.bias,
                "weights": [[j, enc, w] for (j, enc), w in sorted(self.weights.items())]}


def _encode(v: FeatureValue) -> str:
    if v is None:
        return "\x00missing"
    if isinstance(v, str):
        return "a:" + v
    return "s:" + "\x1f".join(sorted(v))


def train_linear(matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None) -> LinearModel:
    cfg = cfg or TrainConfig()
    if not matrix.rows:
        raise ValueError("cannot train on an empty matrix")
    default = majority_label(matrix.labels)
    if len(set(matrix.labels)) == 1:
        return LinearModel({}, 0.0, default, constant=True)

    lam = cfg.regularization
    steps = cfg.epochs * len(matrix.rows)
    shrinks = [1.0 - 1.0 / (lam * t) * lam for t in range(1, steps + 1)]
    ids: Dict[Tuple[int, str], int] = {}       # (column, encoded value) -> key id
    rows = [[ids.setdefault((j, _encode(v)), len(ids)) for j, v in enumerate(row)]
            for row in matrix.rows]
    signed = [1 if y == 1 else -1 for y in matrix.labels]
    weights: Dict[int, float] = {}              # key id -> weight, in order of first update
    synced = [0] * len(ids)                     # key id -> step shrinks applied so far
    get = weights.get
    prod = math.prod  # multiplies left to right in C, exactly as repeated *= does
    zeros = itertools.repeat(0.0)
    bias = 0.0
    s = 0                                       # steps taken
    for _ in range(cfg.epochs):
        for row, y in zip(rows, signed):
            for k in row:
                n = synced[k]
                if n < s:
                    synced[k] = s
                    if k in weights:
                        weights[k] = prod(shrinks[n:s], start=weights[k])
            score = bias + sum(map(get, row, zeros))
            shrink = shrinks[s]
            bias *= shrink
            s += 1
            if y * score < 1.0:
                step = 1.0 / (lam * s) * y
                for k in row:
                    # a new key: 0.0 * shrink is a signed zero, and adding it to
                    # step gives step, as 0.0 + step does
                    weights[k] = get(k, 0.0) * shrink + step
                    synced[k] = s
                bias += step
    keys = list(ids)
    return LinearModel({keys[k]: prod(shrinks[synced[k]:], start=w)
                        for k, w in weights.items()}, bias, default)


# --- (de)serialization shared by feature documents --------------------------


def _doc_label(obj, key: str, path: str) -> int:
    label = doc_field(obj, key, path, int)
    if label not in (0, 1):
        raise FeatureDocError(f"{path}.{key}: a label is 0 or 1, got {label}")
    return label


def _doc_value(obj, path: str) -> FeatureValue:
    try:
        return value_from_json(obj)
    except (TypeError, ValueError) as e:
        raise FeatureDocError(f"{path}: {e}") from None


def model_from_json(obj: dict, n_features: int, path: str = "$"):
    """The model at JSON `path`, checked to read only its `n_features` input columns.

    A malformed model raises ``FeatureDocError`` naming the path of the fault.
    """
    kind = doc_field(obj, "kind", path)
    if kind not in LEARNER_KINDS:
        raise FeatureDocError(f"{path}.kind: unknown model kind {kind!r}")
    default_class = _doc_label(obj, "default_class", path)
    if kind == "tree":
        if doc_field(obj, "n_features", path, int) != n_features:
            raise FeatureDocError(f"{path}.n_features: {obj['n_features']} for "
                                  f"{n_features} value features")
        return TreeModel(TreeNode.from_json(doc_field(obj, "root", path), n_features,
                                            f"{path}.root"), default_class, n_features)
    if kind == "knn":
        rows = []
        for i, row in enumerate(doc_field(obj, "rows", path, list)):
            rpath = f"{path}.rows[{i}]"
            if not isinstance(row, list) or len(row) != n_features:
                raise FeatureDocError(f"{rpath}: expected {n_features} cells")
            rows.append([_doc_value(v, f"{rpath}[{j}]") for j, v in enumerate(row)])
        labels = doc_field(obj, "labels", path, list)
        if len(labels) != len(rows) or any(type(y) is not int or y not in (0, 1)
                                           for y in labels):
            raise FeatureDocError(f"{path}.labels: expected one label 0 or 1 for each "
                                  f"of {len(rows)} rows")
        k = doc_field(obj, "k", path, int)
        if k < 1:
            raise FeatureDocError(f"{path}.k: must be >= 1, got {k}")
        return KnnModel(rows, list(labels), k, default_class)
    weights = {}
    for i, item in enumerate(doc_field(obj, "weights", path, list)):
        if not (isinstance(item, list) and len(item) == 3
                and type(item[0]) is int and 0 <= item[0] < n_features
                and isinstance(item[1], str) and type(item[2]) in (int, float)):
            raise FeatureDocError(f"{path}.weights[{i}]: expected [column below "
                                  f"{n_features}, encoded value, weight]")
        j, enc, w = item
        weights[j, enc] = w
    return LinearModel(weights, doc_field(obj, "bias", path, float), default_class,
                       doc_field(obj, "constant", path, bool))


def train_model(kind: str, matrix: FeatureMatrix, cfg: Optional[TrainConfig] = None):
    if kind == "tree":
        return train_decision_tree(matrix, cfg)
    if kind == "knn":
        return train_knn(matrix, cfg)
    if kind == "linear":
        return train_linear(matrix, cfg)
    raise ValueError(f"unknown learner kind {kind!r}")


# --- cross-validation --------------------------------------------------------


def stratified_folds(labels: Sequence[int], folds: int, seed: int) -> List[List[int]]:
    """Seeded stratified fold assignment.

    Indices of each class are shuffled, then dealt round-robin with a fold
    pointer that rolls over across classes, keeping both the fold sizes and
    the per-fold label mix as even as integrally possible.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if len(labels) < folds:
        raise ValueError(f"need at least {folds} examples for {folds} folds")
    rng = random.Random(seed)
    assignment: List[List[int]] = [[] for _ in range(folds)]
    pointer = 0
    for cls in (0, 1):
        members = [i for i, y in enumerate(labels) if y == cls]
        rng.shuffle(members)
        for i in members:
            assignment[pointer % folds].append(i)
            pointer += 1
    return [sorted(fold) for fold in assignment]


def accuracy(model, matrix: FeatureMatrix) -> float:
    if not matrix.rows:
        return 0.0
    hits = sum(1 for row, y in zip(matrix.rows, matrix.labels) if model.predict(row) == y)
    return hits / len(matrix.rows)


def cross_validate(ds: Dataset, features, kb, learner_kinds: Sequence[str],
                   folds: int = 10, seed: int = 0, train_cfg: Optional[TrainConfig] = None,
                   feature_generator=None) -> Dict[str, List[float]]:
    """Per-fold accuracies of each learner under seeded stratified cross-validation.

    Returns ``{kind: fold_accuracies}`` in the order of `learner_kinds`.
    Each fold's features are generated and its train and test matrices
    built once, and every learner is trained and scored on those same
    matrices.  When `feature_generator` is given it is called with the
    training-fold dataset only and must return extra features to append;
    held-out examples never influence generation.
    """
    if len(set(learner_kinds)) != len(learner_kinds):
        raise ValueError(f"duplicate learner kinds in {list(learner_kinds)}")
    fold_sets = stratified_folds(ds.labels, folds, seed)
    accs: Dict[str, List[float]] = {kind: [] for kind in learner_kinds}
    for test_idx in fold_sets:
        held_out = set(test_idx)
        train_ds = ds.subset(i for i in range(len(ds)) if i not in held_out)
        feats = list(features)
        if feature_generator is not None:
            feats = feats + list(feature_generator(train_ds))
        train_matrix = materialize(train_ds, feats, kb)
        test_matrix = materialize(ds.subset(test_idx), feats, kb)
        for kind in learner_kinds:
            model = train_model(kind, train_matrix, train_cfg)
            accs[kind].append(accuracy(model, test_matrix))
    return accs
