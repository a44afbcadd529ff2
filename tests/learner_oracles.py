"""Reference implementations that the optimised ones must match exactly.

``train_linear`` shrinks every weight at every step, ``knn_predict`` sorts
every stored row by Hamming distance for each query, and
``predict_on_token`` evaluates every value-level feature before the model
reads the row.  They are the straightforward versions the library used
before its lazy-shrink linear trainer, bitmask k-NN index and lazily
evaluated model rows; the differential tests in ``test_learner_oracles.py``
require identical results from the library.
"""

from typing import Dict, Optional, Sequence, Tuple

from kbfg.data import FeatureMatrix
from kbfg.features import VALUE_COLUMN, ClassifierFeature, _eval
from kbfg.kb import KnowledgeBase
from kbfg.learners import LinearModel, TrainConfig, _encode, majority_label
from kbfg.values import FeatureValue


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
    row = [_eval(vf, {VALUE_COLUMN: token}, kb) for vf in f.value_features]
    return f.model.predict(row)
