import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kbfg.cli import build_parser, main
from kbfg.deep import DeepConfig
from kbfg.features import features_from_document
from kbfg.harness import HarnessConfig
from kbfg.recursive import GenerationConfig
from kbfg.synth import ScenarioSpec

ROOT = Path(__file__).resolve().parent.parent


def scenario_args(out):
    return ["synth", "--scenario", "disorder", "--seed", "1", "--out", str(out),
            "--n-train", "80", "--n-test", "40", "--n-countries", "8"]


def kb_args(scen):
    return ["--data", str(scen / "train.jsonl"),
            "--kb-schema", str(scen / "kb_schema.tsv"),
            "--kb-triples", str(scen / "kb_triples.tsv")]


@pytest.fixture()
def scenario_dir(tmp_path):
    scen = tmp_path / "scen"
    assert main(scenario_args(scen)) == 0
    return scen


def test_synth_writes_expected_files(scenario_dir):
    for name in ("train.jsonl", "test.jsonl", "kb_schema.tsv", "kb_triples.tsv",
                 "oracle.json"):
        assert (scenario_dir / name).exists()


def test_synth_random_tasks(tmp_path):
    out = tmp_path / "tasks"
    assert main(["synth", "--scenario", "random", "--seed", "3", "--out", str(out),
                 "--n-tasks", "2"]) == 0
    assert (out / "task00" / "train.jsonl").exists()
    assert (out / "task01" / "oracle.json").exists()


def test_expand_command(scenario_dir, tmp_path):
    out = tmp_path / "features.json"
    assert main(["expand", *kb_args(scenario_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    feats = features_from_document(doc)
    assert any(f.name == "countryOf(surname)" for f in feats)


def test_generate_command_with_summary(scenario_dir, tmp_path):
    out = tmp_path / "features.json"
    assert main(["generate", *kb_args(scenario_dir), "--depth", "2",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["candidates_tried"] == (
        doc["summary"]["features_generated"] + sum(doc["summary"]["filtered"].values()))
    assert features_from_document(doc)


def test_deep_command_writes_report(scenario_dir, tmp_path):
    out = tmp_path / "deep.json"
    report = tmp_path / "report.json"
    assert main(["deep", *kb_args(scenario_dir), "--out", str(out),
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    for row in rep["per_depth"]:
        assert row["candidates_tried"] == (row["features_generated"]
                                           + row["filtered_count"])


def test_eval_command(scenario_dir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert main(["eval", *kb_args(scenario_dir), "--folds", "4",
                 "--learners", "tree", "--methods", "baseline,recursive_d1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cell = doc["cells"]["train"]["tree"]["recursive_d1"]
    assert len(cell["fold_accuracies"]) == 4
    table = capsys.readouterr().out
    assert "baseline" in table and "recursive_d1" in table


INVALID_OPTIONS = [
    ("generate", ["--depth", "-1"]),
    ("generate", ["--min-size", "0"]),
    ("generate", ["--min-size", "-3"]),
    ("generate", ["--coverage", "7"]),
    ("deep", ["--depth", "-1"]),
    ("deep", ["--min-size", "0"]),
    ("deep", ["--max-tree-depth", "-1"]),
    ("deep", ["--max-tree-depth", "0"]),
    ("eval", ["--coverage", "7"]),
    ("eval", ["--coverage", "0"]),
    ("eval", ["--folds", "1"]),
    ("eval", ["--folds", "0"]),
    ("eval", ["--generation-scope", "dataset"]),
    ("expand", ["--coverage", "7"]),
    ("expand", ["--coverage", "0"]),
    ("expand", ["--coverage", "-0.5"]),
]


def option_id(v):
    return v if isinstance(v, str) else "=".join(v)


@pytest.mark.parametrize("command, flags", INVALID_OPTIONS, ids=option_id)
def test_invalid_generation_options_rejected(scenario_dir, tmp_path, capsys, command, flags):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *kb_args(scenario_dir), *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags",
                         INVALID_OPTIONS + [("eval", ["--methods", "baseline,deep"]),
                                            ("eval", ["--learners", "tree,tree"])],
                         ids=option_id)
def test_invalid_options_rejected_before_reading_files(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, *kb_args(tmp_path / "missing"), *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_eval_rejects_two_datasets_of_one_name_before_reading_files(tmp_path, capsys):
    scen = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(scen / "train.jsonl"), str(scen / "test.jsonl"),
              *kb_args(scen)[2:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert str(scen / "train.jsonl") in err and str(scen / "test.jsonl") in err


def test_eval_names_datasets_by_their_directories(scenario_dir, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    (other / "train.jsonl").write_text((scenario_dir / "train.jsonl").read_text())
    out = tmp_path / "eval.json"
    assert main(["eval", "--data", str(scenario_dir / "train.jsonl"),
                 str(other / "train.jsonl"), *kb_args(scenario_dir)[2:], "--folds", "3",
                 "--learners", "tree", "--methods", "baseline", "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["cells"]) == ["other", "scen"]


def test_eval_repeated_data_flag_keeps_every_path(scenario_dir, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    (other / "train.jsonl").write_text((scenario_dir / "train.jsonl").read_text())
    rest = [*kb_args(scenario_dir)[2:], "--folds", "3", "--learners", "tree",
            "--methods", "baseline,expand"]
    a, b = str(scenario_dir / "train.jsonl"), str(other / "train.jsonl")
    stdout = []
    for data in (["--data", a, b], ["--data", a, "--data", b]):
        assert main(["eval", *data, *rest, "--out", str(tmp_path / "eval.json")]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    assert "dataset: scen" in stdout[1] and "dataset: other" in stdout[1]
    assert "friedman[tree]" in stdout[1]
    # two repeated paths of one name are still a usage error
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", a, "--data", str(scenario_dir / "test.jsonl"), *rest])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--scenario", "disorder", "--desert-fraction", "2"],
                                   ["--scenario", "disorder", "--noise", "2"],
                                   ["--scenario", "disorder", "--noise", "-1"],
                                   ["--scenario", "disorder", "--n-train", "0"],
                                   ["--scenario", "disorder", "--n-test", "0"],
                                   ["--scenario", "random", "--n-tasks", "0"],
                                   ["--scenario", "random", "--n-train", "50"],
                                   ["--scenario", "random", "--n-test", "40"],
                                   ["--scenario", "random", "--n-countries", "8"],
                                   ["--scenario", "random", "--desert-fraction", "0.3"],
                                   ["--scenario", "random", "--noise", "0.9"],
                                   ["--scenario", "random", "--variant", "unseen-country"],
                                   ["--scenario", "random", "--balanced"],
                                   ["--scenario", "disorder", "--n-tasks", "3"],
                                   ["--scenario", "disorder", "--n-tasks", "0"]],
                         ids=option_id)
def test_invalid_synth_options_rejected_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "scen"
    with pytest.raises(SystemExit) as exc:
        main(["synth", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_single_class_dataset_error_is_not_a_usage_error(scenario_dir, tmp_path, capsys):
    train = scenario_dir / "train.jsonl"
    lines = train.read_text().splitlines()
    one_class = [json.loads(line) for line in lines[1:]]
    for rec in one_class:
        rec["label"] = 0
    train.write_text("\n".join([lines[0]] + [json.dumps(r) for r in one_class]) + "\n")
    out = tmp_path / "eval.json"
    assert main(["eval", *kb_args(scenario_dir), "--folds", "3", "--learners", "tree",
                 "--methods", "baseline", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dataset 'train'" in err and "single class" in err and "usage:" not in err
    assert not out.exists()


def test_eval_checks_every_dataset_before_any_fold_runs(scenario_dir, tmp_path, capsys):
    small = tmp_path / "small"
    small.mkdir()
    lines = (scenario_dir / "train.jsonl").read_text().splitlines()
    (small / "train.jsonl").write_text("\n".join(lines[:4]) + "\n")  # 3 examples
    out = tmp_path / "eval.json"
    assert main(["eval", "--data", str(scenario_dir / "train.jsonl"),
                 str(small / "train.jsonl"), *kb_args(scenario_dir)[2:], "--folds", "4",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "dataset 'small'" in captured.err and "4 folds" in captured.err
    assert "usage:" not in captured.err and not captured.out
    assert not out.exists()


def break_input(scen, case) -> str:
    """Spoil one input file of `scen`; return what the error line must name."""
    if case == "label":
        train = scen / "train.jsonl"
        header, first, *rest = train.read_text().splitlines()
        bad = json.dumps({**json.loads(first), "label": 3})
        train.write_text("\n".join([header, bad, *rest]) + "\n")
        return f"{train}: line 2: label must be 0 or 1, got 3"
    if case == "nested":
        train = scen / "train.jsonl"
        header, *rest = train.read_text().splitlines()
        train.write_text("\n".join([header, "[" * 100_000, *rest]) + "\n")
        return f"{train}: line 2: invalid JSON (nested too deeply)"
    if case == "empty-header":   # declares no feature, so the first record's is unknown
        train = scen / "train.jsonl"
        _, first, *rest = train.read_text().splitlines()
        train.write_text("\n".join(['{"schema": {}}', first, *rest]) + "\n")
        return f"{train}: line 2: feature {sorted(json.loads(first)['features'])[0]!r} " \
               f"not in schema header"
    if case == "schema":
        (scen / "kb_schema.tsv").write_text("countryOf\tsurname\n")
        return "schema line 1: expected 4 tab-separated fields, got 2"
    (scen / "kb_triples.tsv").unlink()
    return str(scen / "kb_triples.tsv")


@pytest.mark.parametrize("case", ["label", "nested", "empty-header", "schema",
                                  "missing-triples"])
@pytest.mark.parametrize("command", ["expand", "generate", "deep", "eval"])
def test_bad_input_ends_in_one_error_line(scenario_dir, tmp_path, capsys, command, case):
    names = break_input(scenario_dir, case)
    out = tmp_path / "out.json"
    assert main([command, *kb_args(scenario_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kbfg {command}: error: ") and err.count("\n") == 1
    assert names in err and "Traceback" not in err
    assert not out.exists()


def test_bad_input_ends_in_one_error_line_in_a_process(scenario_dir, tmp_path):
    names = break_input(scenario_dir, "label")
    out = tmp_path / "out.json"
    done = subprocess.run([sys.executable, "-m", "kbfg", "generate", *kb_args(scenario_dir),
                           "--out", str(out)], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == f"kbfg generate: error: {names}\n"
    assert not out.exists()


KB = ["--data", "d.jsonl", "--kb-schema", "s.tsv", "--kb-triples", "t.tsv"]
REQUIRED = {"synth": ["synth", "--scenario", "disorder", "--out", "o"],
            "synth-random": ["synth", "--scenario", "random", "--out", "o"],
            "expand": ["expand", *KB], "generate": ["generate", *KB],
            "deep": ["deep", *KB], "eval": ["eval", *KB]}


def built_config(key, flags=()):
    """The config a command's config step builds from its options; no file is read."""
    args = build_parser().parse_args([*REQUIRED[key], *flags])
    cfg = args.config(args)
    return cfg[0] if args.command == "eval" else cfg


CLASS_DEFAULTS = {"expand": GenerationConfig(), "generate": GenerationConfig(),
                  "deep": DeepConfig(), "eval": HarnessConfig(),
                  "synth": ScenarioSpec(),
                  "synth-random": {}}  # `gen_random_tasks` keeps its own defaults


@pytest.mark.parametrize("key", CLASS_DEFAULTS)
def test_required_options_alone_build_the_class_defaults(key):
    assert built_config(key) == CLASS_DEFAULTS[key]


GEN_OPTIONS = [("--aggregator", "majority", "aggregator_family", "majority"),
               ("--coverage", "0.5", "coverage_threshold", 0.5)]
# (command, option, value given, field it sets, value the field holds)
OPTION_FIELDS = [
    ("synth", "--seed", "3", "seed", 3),
    ("synth", "--n-train", "80", "n_train", 80),
    ("synth", "--n-test", "40", "n_test", 40),
    ("synth", "--n-countries", "8", "n_countries", 8),
    ("synth", "--desert-fraction", "0.25", "desert_fraction", 0.25),
    ("synth", "--noise", "0.1", "noise", 0.1),
    ("synth", "--variant", "unseen-country", "variant", "unseen-country"),
    ("synth", "--balanced", None, "balanced_surname_groups", True),
    ("synth-random", "--seed", "3", "seed", 3),
    ("synth-random", "--n-tasks", "2", "n_tasks", 2),
    *[("expand", *o) for o in GEN_OPTIONS],
    *[("generate", *o) for o in GEN_OPTIONS],
    ("generate", "--depth", "1", "depth", 1),
    ("generate", "--min-size", "3", "min_recursive_size", 3),
    *[("deep", flag, v, f"generation.{name}", want) for flag, v, name, want in GEN_OPTIONS],
    ("deep", "--depth", "1", "generation.depth", 1),
    ("deep", "--min-size", "3", "generation.min_recursive_size", 3),
    ("deep", "--min-node-size", "4", "min_node_size", 4),
    ("deep", "--max-tree-depth", "3", "max_tree_depth", 3),
    *[("eval", flag, v, f"generation.{name}", want) for flag, v, name, want in GEN_OPTIONS],
    ("eval", "--methods", "baseline,expand", "methods", ["baseline", "expand"]),
    ("eval", "--learners", "tree", "learners", ["tree"]),
    ("eval", "--folds", "3", "folds", 3),
    ("eval", "--seed", "7", "seed", 7),
]


@pytest.mark.parametrize("key, flag, value, path, want", OPTION_FIELDS,
                         ids=[option_id([k, f] + [v] * (v is not None))
                              for k, f, v, *_ in OPTION_FIELDS])
def test_option_reaches_its_field(key, flag, value, path, want):
    """A `dest` that names no field would leave the field at its default."""
    cfg = built_config(key, [flag] if value is None else [flag, value])
    for name in path.split("."):
        cfg = cfg[name] if isinstance(cfg, dict) else getattr(cfg, name)
    assert cfg == want


def test_every_config_option_has_a_field_case():
    inputs = {"-h", "--data", "--kb-schema", "--kb-triples", "--out", "--report", "--scenario"}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, p in subparsers.choices.items():
        flags = {a.option_strings[0] for a in p._actions} - inputs
        assert flags == {flag for key, flag, *_ in OPTION_FIELDS
                         if key.split("-")[0] == command}, command


# init fields that no `kbfg` option sets, with a file that sets them
UNREACHED_FIELDS = {"learner_kind": "tests/test_data.py",
                    "n_surnames": "scripts/depth_profile.py"}
# each config class, with the commands that build it from their own options
CONFIG_COMMANDS = {GenerationConfig: ("expand", "generate"), DeepConfig: ("deep",),
                   HarnessConfig: ("eval",), ScenarioSpec: ("synth",)}


@pytest.mark.parametrize("cls", CONFIG_COMMANDS, ids=lambda cls: cls.__name__)
def test_every_config_field_has_a_caller(cls):
    """A field that no option and no listed caller sets is a value nobody chooses."""
    reached = {path.split(".")[0] for key, _, _, path, _ in OPTION_FIELDS
               if key in CONFIG_COMMANDS[cls]}
    unreached = {f.name for f in dataclasses.fields(cls) if f.init} - reached
    assert unreached <= set(UNREACHED_FIELDS)
    for name in unreached:
        assert f"{name}=" in (ROOT / UNREACHED_FIELDS[name]).read_text()
