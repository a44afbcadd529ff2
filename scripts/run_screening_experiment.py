#!/usr/bin/env python3
"""Screening-scenario experiment: how much do KB-derived features help?

For each seed: build the scenario (train with seen surnames, test with
unseen ones), train a decision tree on the base features alone and on
base + generated features, and report test accuracies.  The
cross-validated methods x learners grid is `kbfg eval` (see the README).
"""

import argparse
import time
from dataclasses import replace

from kbfg.data import materialize
from kbfg.harness import base_features
from kbfg.learners import accuracy, train_decision_tree
from kbfg.recursive import GenerationConfig, generate_features
from kbfg.synth import VARIANTS, ScenarioSpec, gen_disorder_scenario


def one_seed(spec: ScenarioSpec, cfg: GenerationConfig):
    train, test, kb, _ = gen_disorder_scenario(spec)
    feats = base_features(train)

    train_matrix, test_matrix = materialize(train, feats, kb), materialize(test, feats, kb)
    base_acc = accuracy(train_decision_tree(train_matrix), test_matrix)

    generated = generate_features(train, feats, kb, cfg, matrix=train_matrix)
    if generated:
        train_matrix.extend(train, generated, kb)
        test_matrix.extend(test, generated, kb)
    gen_acc = accuracy(train_decision_tree(train_matrix), test_matrix)
    return base_acc, gen_acc, len(generated)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--variant", choices=VARIANTS, default=ScenarioSpec.variant)
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    try:
        spec = ScenarioSpec(variant=args.variant)
        cfg = GenerationConfig(depth=args.depth)
    except ValueError as e:
        ap.error(str(e))

    t0 = time.time()
    print(f"{'seed':>4} {'baseline':>9} {'generated':>10} {'n_new':>6}")
    base_accs, gen_accs = [], []
    for seed in range(args.seeds):
        b, g, n = one_seed(replace(spec, seed=seed), cfg)
        base_accs.append(b)
        gen_accs.append(g)
        print(f"{seed:>4} {b:>9.3f} {g:>10.3f} {n:>6}")
    print(f"mean {sum(base_accs) / len(base_accs):>8.3f} "
          f"{sum(gen_accs) / len(gen_accs):>10.3f}   ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
