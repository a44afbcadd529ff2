from collections import Counter

import pytest
from hypothesis import settings

import kbfg.data
from kbfg.features import evaluate_feature

# Reproducible property tests with no per-example time limit: the training-heavy
# ones can exceed hypothesis's default 200 ms deadline on a slow machine.
settings.register_profile("kbfg", deadline=None, derandomize=True)
settings.load_profile("kbfg")


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of `evaluate_feature` calls by (example object id, feature name),
    through `kbfg.data`'s binding: generation and `deep` evaluate every
    cell through `materialize`."""
    calls = Counter()
    examples = []  # every example stays referenced, so no id is reused

    def recording(f, x, kb):
        examples.append(x)
        calls[id(x), f.name] += 1
        return evaluate_feature(f, x, kb)

    monkeypatch.setattr(kbfg.data, "evaluate_feature", recording)
    return calls
