"""Command line interface.

Subcommands:

* ``synth``    write a synthetic scenario (dataset JSONL + KB TSVs + oracle)
* ``expand``   one relational-expansion pass over a dataset's features
* ``generate`` recursive feature generation, with a filtering summary
* ``deep``     divide-&-conquer generation with the per-depth report
* ``eval``     cross-validated comparison of methods x learners

A bad option is a usage error, found before any file is read.  Bad input
ends a command with one ``kbfg <command>: error:`` line.  Both exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial

from kbfg.aggregators import FAMILIES
from kbfg.data import DatasetError, load_dataset_file, save_dataset
from kbfg.deep import DeepConfig, deep_generate
from kbfg.expand import expand_features
from kbfg.features import features_to_document
from kbfg.harness import HarnessConfig, base_features, run_experiment
from kbfg.kb import KBError, load_kb_files, save_kb
from kbfg.recursive import GenerationConfig, GenerationStats, generate_features
from kbfg.synth import VARIANTS, ScenarioSpec, gen_disorder_scenario, gen_random_tasks


def _add_kb_args(p: argparse.ArgumentParser, **data) -> None:
    p.add_argument("--data", **data, required=True, help="dataset JSON-lines file")
    p.add_argument("--kb-schema", required=True, help="relation schema TSV")
    p.add_argument("--kb-triples", required=True, help="triples TSV")


def _add_gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aggregator", dest="aggregator_family", choices=FAMILIES)
    p.add_argument("--coverage", dest="coverage_threshold", type=float,
                   help="fraction of a feature's values a relation must cover")


def _config(cls, args, **nested):
    """`cls` built from the `nested` configs and the options given.

    Options have no defaults here and are named by their field, so the
    class owns each default and check.
    """
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**given, **nested)


_gen_config = partial(_config, GenerationConfig)


def _eval_config(args) -> tuple[HarnessConfig, dict[str, str]]:
    """The harness config and each `--data` path by its dataset name.

    A single dataset is named by its file, several by their directories;
    two paths that would share a name are rejected.
    """
    cfg = _config(HarnessConfig, args, generation=_gen_config(args))
    paths: dict[str, str] = {}
    for path in args.data:
        name = os.path.splitext(os.path.basename(path))[0]
        if len(args.data) > 1:
            name = os.path.basename(os.path.dirname(path)) or name
        if name in paths:
            raise ValueError(f"--data {paths[name]} and {path} both name dataset {name!r}")
        paths[name] = path
    return cfg, paths


def _synth_config(args) -> ScenarioSpec | dict:
    """The disorder scenario's spec, or the random scenario's arguments.

    An option that the chosen scenario does not read is rejected.
    """
    unread = sorted(set(vars(args)) & ({"n_tasks"} if args.scenario == "disorder" else
                                       {f.name for f in fields(ScenarioSpec)} - {"seed"}))
    if unread:
        raise ValueError(f"--scenario {args.scenario} does not read {', '.join(unread)}")
    if args.scenario == "disorder":
        return _config(ScenarioSpec, args)
    if getattr(args, "n_tasks", 1) < 1:
        raise ValueError("n_tasks must be >= 1")
    return {k: getattr(args, k) for k in ("seed", "n_tasks") if hasattr(args, k)}


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_synth(args, spec: ScenarioSpec | dict) -> int:
    if isinstance(spec, ScenarioSpec):  # written to --out itself
        scenarios = {"": gen_disorder_scenario(spec)}
    else:
        scenarios = {t.name: (t.train, t.test, t.kb, t.oracle) for t in gen_random_tasks(**spec)}
    for name, (train, test, kb, oracle) in scenarios.items():
        out = os.path.join(args.out, name)
        os.makedirs(out, exist_ok=True)
        save_dataset(train, os.path.join(out, "train.jsonl"))
        save_dataset(test, os.path.join(out, "test.jsonl"))
        save_kb(kb, os.path.join(out, "kb_schema.tsv"), os.path.join(out, "kb_triples.tsv"))
        _dump(oracle.to_json(), os.path.join(out, "oracle.json"))
    print(f"wrote disorder scenario to {args.out}" if isinstance(spec, ScenarioSpec)
          else f"wrote {len(scenarios)} tasks to {args.out}")
    return 0


def cmd_expand(args, cfg: GenerationConfig) -> int:
    ds = load_dataset_file(args.data)
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    feats = expand_features(ds, base_features(ds), kb, cfg)
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


def cmd_eval(args, config: tuple[HarnessConfig, dict[str, str]]) -> int:
    cfg, paths = config
    kb = load_kb_files(args.kb_schema, args.kb_triples)
    datasets = {name: load_dataset_file(path) for name, path in paths.items()}
    result = run_experiment(datasets, kb, cfg)  # checks every dataset first
    _dump(result.to_json(), args.out)
    print(result.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbfg",
                                     description="knowledge-based feature generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, config) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func, config=config)
        return p

    p = command("synth", "write a synthetic scenario", cmd_synth, _synth_config)
    p.add_argument("--scenario", choices=("disorder", "random"), required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--n-countries", type=int)
    p.add_argument("--desert-fraction", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--balanced", dest="balanced_surname_groups", action="store_true",
                   help="gender-balanced surname groups (masking scenario)")
    p.add_argument("--n-tasks", type=int, help="number of random tasks")

    # expand reads only the coverage and aggregator of its config
    p = command("expand", "relational expansion pass", cmd_expand, _gen_config)
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--out", default=None, help="feature document path (default stdout)")

    p = command("generate", "recursive feature generation", cmd_generate, _gen_config)
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--min-size", dest="min_recursive_size", type=int,
                   help="minimum objects for a derived problem")
    p.add_argument("--out", default=None)

    p = command("deep", "divide-&-conquer generation", cmd_deep,
                lambda args: _config(DeepConfig, args, generation=_gen_config(args)))
    _add_kb_args(p)
    _add_gen_args(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--min-size", dest="min_recursive_size", type=int)
    p.add_argument("--min-node-size", type=int)
    p.add_argument("--max-tree-depth", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None, help="also write the report JSON here")

    p = command("eval", "compare methods x learners", cmd_eval, _eval_config)
    _add_kb_args(p, action="extend", nargs="+")  # `--data a --data b` keeps both
    _add_gen_args(p)
    p.add_argument("--methods", type=lambda text: text.split(","))
    p.add_argument("--learners", type=lambda text: text.split(","))
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = args.config(args)
    except ValueError as e:
        parser.error(str(e))
    try:
        return args.func(args, cfg)
    except (OSError, DatasetError, KBError) as e:
        print(f"kbfg {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
