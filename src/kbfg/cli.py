"""Command line interface.

Subcommands:

* ``synth``    write a synthetic scenario (dataset JSONL + KB TSVs + oracle)
* ``expand``   one relational-expansion pass over a dataset's features
* ``generate`` recursive feature generation, with a filtering summary
* ``deep``     divide-&-conquer generation with the per-depth report
* ``eval``     cross-validated comparison of methods x learners
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from kbfg.data import load_dataset_file, save_dataset
from kbfg.deep import DeepConfig, deep_generate
from kbfg.expand import expand_features
from kbfg.features import features_to_document
from kbfg.harness import HarnessConfig, base_features, run_experiment
from kbfg.kb import load_kb_files, save_kb
from kbfg.recursive import GenerationConfig, GenerationStats, generate_features
from kbfg.synth import ScenarioSpec, gen_disorder_scenario, gen_random_tasks


def _add_kb_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset JSON-lines file")
    p.add_argument("--kb-schema", required=True, help="relation schema TSV")
    p.add_argument("--kb-triples", required=True, help="triples TSV")


def _add_gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aggregator", choices=("majority", "any"), default="any")
    p.add_argument("--coverage", type=float, default=1.0,
                   help="fraction of a feature's values a relation must cover")


def _gen_config(args) -> GenerationConfig:
    """One constructor call, so `GenerationConfig` validates every option."""
    given = {"depth": getattr(args, "depth", None),
             "min_recursive_size": getattr(args, "min_size", None)}
    return GenerationConfig(aggregator_family=args.aggregator,
                            coverage_threshold=args.coverage,
                            **{k: v for k, v in given.items() if v is not None})


def _deep_config(args) -> DeepConfig:
    return DeepConfig(min_node_size=args.min_node_size, generation=_gen_config(args),
                      max_tree_depth=args.max_tree_depth)


def _harness_config(args) -> HarnessConfig:
    return HarnessConfig(methods=args.methods.split(","), learners=args.learners.split(","),
                         folds=args.folds, seed=args.seed,
                         generation_scope=args.generation_scope,
                         generation=_gen_config(args))


def _synth_config(args) -> ScenarioSpec | None:
    """The disorder scenario's spec; for the random scenario, only its checks."""
    if args.scenario == "random":
        if args.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        return None
    return ScenarioSpec(seed=args.seed, n_train=args.n_train, n_test=args.n_test,
                        n_countries=args.n_countries, desert_fraction=args.desert_fraction,
                        noise=args.noise, variant=args.variant,
                        balanced_surname_groups=args.balanced)


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_synth(args, spec: ScenarioSpec | None) -> int:
    os.makedirs(args.out, exist_ok=True)
    if spec is not None:
        train, test, kb, oracle = gen_disorder_scenario(spec)
        save_dataset(train, os.path.join(args.out, "train.jsonl"))
        save_dataset(test, os.path.join(args.out, "test.jsonl"))
        save_kb(kb, os.path.join(args.out, "kb_schema.tsv"),
                os.path.join(args.out, "kb_triples.tsv"))
        _dump(oracle.to_json(), os.path.join(args.out, "oracle.json"))
        print(f"wrote disorder scenario to {args.out}")
    else:
        tasks = gen_random_tasks(args.seed, args.n_tasks)
        for task in tasks:
            tdir = os.path.join(args.out, task.name)
            os.makedirs(tdir, exist_ok=True)
            save_dataset(task.train, os.path.join(tdir, "train.jsonl"))
            save_dataset(task.test, os.path.join(tdir, "test.jsonl"))
            save_kb(task.kb, os.path.join(tdir, "kb_schema.tsv"),
                    os.path.join(tdir, "kb_triples.tsv"))
            _dump(task.oracle.to_json(), os.path.join(tdir, "oracle.json"))
        print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def cmd_expand(args, cfg: GenerationConfig) -> int:
    ds = load_dataset_file(args.data)
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    feats = expand_features(ds, base_features(ds), kb, cfg.aggregator_family,
                            cfg.coverage_threshold)
    _dump(features_to_document(feats, {"generated": len(feats)}), args.out)
    print(f"expanded {len(ds.feature_names)} features into {len(feats)}", file=sys.stderr)
    return 0


def cmd_generate(args, cfg: GenerationConfig) -> int:
    ds = load_dataset_file(args.data)
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    stats = GenerationStats()
    feats = generate_features(ds, base_features(ds), kb, cfg, stats=stats)
    _dump(features_to_document(feats, stats.summary()), args.out)
    print(json.dumps(stats.summary(), sort_keys=True), file=sys.stderr)
    return 0


def cmd_deep(args, cfg: DeepConfig) -> int:
    ds = load_dataset_file(args.data)
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    feats, report = deep_generate(ds, base_features(ds), kb, cfg)
    _dump(features_to_document(feats, report.to_json()), args.out)
    if args.report:
        _dump(report.to_json(), args.report)
    print(report.to_text(), file=sys.stderr)
    return 0


def cmd_eval(args, cfg: HarnessConfig) -> int:
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    datasets = {}
    for path in args.data:
        name = os.path.splitext(os.path.basename(path))[0]
        if len(args.data) > 1:
            name = os.path.basename(os.path.dirname(path)) or name
        datasets[name] = load_dataset_file(path)
    result = run_experiment(datasets, kb, cfg)
    _dump(result.to_json(), args.out)
    print(result.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbfg",
                                     description="knowledge-based feature generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic scenario")
    p.add_argument("--scenario", choices=("disorder", "random"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=300)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--n-countries", type=int, default=12)
    p.add_argument("--desert-fraction", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--variant", choices=("unseen-surname", "unseen-country"),
                   default="unseen-surname")
    p.add_argument("--balanced", action="store_true",
                   help="gender-balanced surname groups (masking scenario)")
    p.add_argument("--n-tasks", type=int, default=10)
    p.set_defaults(func=cmd_synth, config=_synth_config)

    p = sub.add_parser("expand", help="relational expansion pass")
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--out", default=None, help="feature document path (default stdout)")
    # expand runs no recursion, but its config checks the shared options
    p.set_defaults(func=cmd_expand, config=_gen_config)

    p = sub.add_parser("generate", help="recursive feature generation")
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--min-size", type=int, default=None,
                   help="minimum objects for a derived problem")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate, config=_gen_config)

    p = sub.add_parser("deep", help="divide-&-conquer generation")
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--min-size", type=int, default=None)
    p.add_argument("--min-node-size", type=int, default=10)
    p.add_argument("--max-tree-depth", type=int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None, help="also write the report JSON here")
    p.set_defaults(func=cmd_deep, config=_deep_config)

    p = sub.add_parser("eval", help="compare methods x learners")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--kb-schema", required=True)
    p.add_argument("--kb-triples", required=True)
    _add_gen_args(p)
    p.add_argument("--methods", default="baseline,expand,recursive_d1,recursive_d2")
    p.add_argument("--learners", default="knn,linear,tree")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generation-scope", choices=("fold", "dataset"), default="fold")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval, config=_harness_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every option is checked before any file is read
        cfg = args.config(args)
    except ValueError as e:
        parser.error(str(e))
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
