"""Outside tracer: times kbfg's public functions and methods without editing them.

``install()`` replaces every module-level binding of each traced function
inside the ``kbfg`` package (``from kbfg.data import materialize`` makes a
second binding in each importing module, and each one is patched) and the
traced methods on their classes, with wrappers that record spans.
``restore()`` puts every original back.

A span records calls, total wall time (outermost instance only, so a span
that recurses into itself is not counted twice) and self time, which is the
span's duration minus the time covered by its direct child spans.  Per-call
counts of cheap, very hot functions (``KnowledgeBase.lookup``,
``evaluate_feature``) are counted without timing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

import kbfg.data
import kbfg.deep
import kbfg.expand
import kbfg.features
import kbfg.harness
import kbfg.kb
import kbfg.learners
import kbfg.recursive
import kbfg.stats
from kbfg.kb import KnowledgeBase
from kbfg.learners import LEARNER_KINDS, KnnModel, LinearModel, TreeModel
from kbfg.recursive import GenerationStats

# (span name, defining module, function, modules that must hold a binding of it)
FUNCTION_SPANS: Tuple[Tuple[str, object, str, Tuple[str, ...]], ...] = (
    ("kb.load_kb", kbfg.kb, "load_kb", ()),
    ("data.load_dataset", kbfg.data, "load_dataset", ()),
    ("features.features_from_document", kbfg.features, "features_from_document", ()),
    ("data.materialize", kbfg.data, "materialize",
     ("kbfg.data", "kbfg.recursive", "kbfg.deep", "kbfg.learners")),
    ("expand.expand_features", kbfg.expand, "expand_features", ("kbfg.harness",)),
    ("recursive.generate_features", kbfg.recursive, "generate_features", ("kbfg.harness",)),
    ("recursive.create_new_problem", kbfg.recursive, "create_new_problem", ()),
    ("deep.deep_generate", kbfg.deep, "deep_generate", ()),
    ("deep.select_feature", kbfg.deep, "select_feature", ()),
    ("deep.feature_igs", kbfg.deep, "feature_igs", ()),
    ("learners.column_information_gain", kbfg.learners, "column_information_gain",
     ("kbfg.deep",)),
    ("features.serialize_feature", kbfg.features, "serialize_feature", ("kbfg.deep",)),
    ("learners.accuracy", kbfg.learners, "accuracy", ()),
    ("learners.cross_validate", kbfg.learners, "cross_validate", ("kbfg.harness",)),
    ("harness.run_experiment", kbfg.harness, "run_experiment", ()),
    ("stats.paired_t_test", kbfg.stats, "paired_t_test", ("kbfg.harness",)),
)
METHOD_SPANS = (
    ("kb.applicable_relations", KnowledgeBase, "applicable_relations"),
    ("kb.relations_of_departure_type", KnowledgeBase, "relations_of_departure_type"),
)
MODEL_CLASSES = {cls.kind: cls for cls in (TreeModel, KnnModel, LinearModel)}
# the harness calls these through its own bindings, once per method x fold x learner
HARNESS_GENERATORS = ("expand_features", "generate_features")
FILTER_REASONS = ("too_small", "single_class", "no_relations")

SPAN_NAMES: List[str] = (
    [name for name, *_ in FUNCTION_SPANS]
    + [name for name, *_ in METHOD_SPANS]
    + [f"learners.train.{k}" for k in LEARNER_KINDS]
    + [f"learners.predict.{k}" for k in LEARNER_KINDS]
    + ["harness.generation"]
)
# spans inside which the calls of other spans are also counted separately
OUTER_SPANS = ("deep.deep_generate",)

# (name, unit, better) of every figure ``Tracer.metrics`` reports, in order
FIGURES: List[Tuple[str, str, str]] = [
    fig for span in SPAN_NAMES
    for fig in ((f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower"),
                (f"{span}.self_s", "s", "lower"))
] + [
    ("kb.lookup.calls", "count", "lower"),
    ("features.evaluate_feature.calls", "count", "lower"),
    ("data.materialize.cells", "count", "lower"),
    ("recursive.create_new_problem.examples", "count", "lower"),
    ("recursive.candidates_tried", "count", "lower"),
    ("recursive.candidates_generated", "count", "higher"),
    ("recursive.useful_ratio", "ratio", "higher"),
] + [(f"recursive.filtered.{r}", "count", "lower") for r in FILTER_REASONS] + [
    ("deep.materialize_per_split", "ratio", "lower"),
]


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(ds) -> int:
    return len(ds.examples) if hasattr(ds, "examples") else len(ds)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []   # per open span: [seconds covered by children]
        self._open: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def reset(self) -> None:
        for c in (self.calls, self.total, self.self_s, self.counts):
            c.clear()

    def span(self, name, fn: Callable, on_enter: Callable = None) -> Callable:
        """Wrap `fn` in a span; `name` may be a function of (args, kwargs)."""
        stack, open_, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            for outer in OUTER_SPANS:
                if open_[outer]:
                    self.counts[f"{span_name}@{outer}"] += 1
            frame = [0.0]
            stack.append(frame)
            open_[span_name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                open_[span_name] -= 1
                self.calls[span_name] += 1
                if not open_[span_name]:
                    self.total[span_name] += duration
                self.self_s[span_name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_bindings(self, module, attr: str, wrapper_for: Callable,
                        required: Tuple[str, ...] = ()) -> None:
        """Replace every binding of `module.attr` in the kbfg package."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        patched = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kbfg" or mod_name.startswith("kbfg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    patched.add(mod_name)
        missing = (set(required) | {module.__name__}) - patched
        if missing:
            raise RuntimeError(f"tracer: {attr} has no binding in {sorted(missing)}")

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "data.materialize": self._count_cells,
            "recursive.create_new_problem": self._count_examples,
        }
        for name, module, attr, required in FUNCTION_SPANS:
            self._patch_bindings(module, attr,
                                 lambda fn, n=name: self.span(n, fn, hooks.get(n)),
                                 required)
        self._patch_bindings(
            kbfg.learners, "train_model",
            lambda fn: self.span(lambda a, kw: f"learners.train.{_arg(a, kw, 0, 'kind')}", fn),
            ("kbfg.recursive", "kbfg.learners"))
        self._patch_bindings(kbfg.features, "evaluate_feature",
                             lambda fn: self.counter("features.evaluate_feature.calls", fn),
                             ("kbfg.data", "kbfg.recursive", "kbfg.expand"))
        for name, cls, attr in METHOD_SPANS:
            self._set(cls, attr, self.span(name, cls.__dict__[attr]))
        for kind, cls in MODEL_CLASSES.items():
            self._set(cls, "predict", self.span(f"learners.predict.{kind}", cls.predict))
        self._set(KnowledgeBase, "lookup",
                  self.counter("kb.lookup.calls", KnowledgeBase.lookup))
        self._set(GenerationStats, "add", self._count_candidate(GenerationStats.add))
        # an outer span on the harness's own bindings, around the layer spans above
        for attr in HARNESS_GENERATORS:
            self._set(kbfg.harness, attr,
                      self.span("harness.generation", getattr(kbfg.harness, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- hooks ---------------------------------------------------------------

    def _count_cells(self, args, kwargs) -> None:
        ds, features = _arg(args, kwargs, 0, "ds"), _arg(args, kwargs, 1, "features")
        self.counts["data.materialize.cells"] += _rows(ds) * len(features)

    def _count_examples(self, args, kwargs) -> None:
        self.counts["recursive.create_new_problem.examples"] += \
            len(_arg(args, kwargs, 1, "ds").examples)

    def _count_candidate(self, add: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(add)
        def wrapper(stats, rec):
            counts["recursive.candidates_tried"] += 1
            counts[f"recursive.candidate.{rec.status}"] += 1
            return add(stats, rec)

        return wrapper

    # --- reduction -----------------------------------------------------------

    def metrics(self, per: float) -> Dict[str, float]:
        """Every per-layer figure, divided by `per` (the number of ops traced)."""
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / per
            out[f"{name}.s"] = self.total[name] / per
            out[f"{name}.self_s"] = self.self_s[name] / per
        c = self.counts
        out["kb.lookup.calls"] = c["kb.lookup.calls"] / per
        out["features.evaluate_feature.calls"] = c["features.evaluate_feature.calls"] / per
        out["data.materialize.cells"] = c["data.materialize.cells"] / per
        out["recursive.create_new_problem.examples"] = \
            c["recursive.create_new_problem.examples"] / per
        tried = c["recursive.candidates_tried"]
        generated = c["recursive.candidate.generated"]
        out["recursive.candidates_tried"] = tried / per
        out["recursive.candidates_generated"] = generated / per
        out["recursive.useful_ratio"] = generated / tried if tried else 0.0
        for reason in FILTER_REASONS:
            out[f"recursive.filtered.{reason}"] = c[f"recursive.candidate.{reason}"] / per
        splits = self.calls["deep.select_feature"]
        inside = c["data.materialize@deep.deep_generate"]
        out["deep.materialize_per_split"] = inside / splits if splits else 0.0
        return out
