#!/usr/bin/env python3
"""Profile divide-&-conquer generation across split-tree depths.

Aggregates the per-depth reports over several seeds of the masking scenario
(gender-balanced surname groups, where a single global generation pass finds
nothing and the value lives in local contexts): candidates tried vs features
generated, recursive-problem size ratios, and the information gain of
generated features against the best plain feature at the same node.
"""

import argparse
from collections import defaultdict
from dataclasses import replace

from kbfg.deep import DeepConfig, deep_generate
from kbfg.harness import base_features
from kbfg.recursive import GenerationConfig
from kbfg.synth import ScenarioSpec, gen_disorder_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--min-node-size", type=int, default=10)
    ap.add_argument("--n-surnames", type=int, default=None,
                    help="use grouped surnames instead of the masking scenario")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    try:
        if args.n_surnames is not None:
            spec = ScenarioSpec(n_surnames=args.n_surnames)
        else:
            spec = ScenarioSpec(balanced_surname_groups=True, desert_fraction=0.7)
        cfg = DeepConfig(min_node_size=args.min_node_size,
                         generation=GenerationConfig(depth=args.depth))
    except ValueError as e:
        ap.error(str(e))

    sums = defaultdict(lambda: defaultdict(float))
    lists = defaultdict(lambda: defaultdict(list))
    for seed in range(args.seeds):
        train, _, kb, _ = gen_disorder_scenario(replace(spec, seed=seed))
        _, report = deep_generate(train, base_features(train), kb, cfg)
        for row in report.rows():
            d = row["depth"]
            for key in ("candidates_tried", "features_generated", "filtered_count"):
                sums[d][key] += row[key]
            for key in ("mean_size_ratio", "mean_generated_ig", "mean_best_plain_ig"):
                if row[key] is not None:
                    lists[d][key].append(row[key])

    print(f"{'depth':>5} {'tried':>7} {'generated':>9} {'filtered':>8} "
          f"{'size-ratio':>10} {'gen-IG':>8} {'plain-IG':>8}   (means over "
          f"{args.seeds} seeds)")
    for d in sorted(sums):
        def mean_of(key):
            vals = lists[d][key]
            return f"{sum(vals) / len(vals):.3f}" if vals else "     -"

        n = args.seeds
        print(f"{d:>5} {sums[d]['candidates_tried'] / n:>7.2f} "
              f"{sums[d]['features_generated'] / n:>9.2f} "
              f"{sums[d]['filtered_count'] / n:>8.2f} "
              f"{mean_of('mean_size_ratio'):>10} {mean_of('mean_generated_ig'):>8} "
              f"{mean_of('mean_best_plain_ig'):>8}")


if __name__ == "__main__":
    main()
