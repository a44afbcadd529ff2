import json

import pytest

from kbfg.cli import main
from kbfg.features import features_from_document


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


def test_eval_generation_scope_flag(scenario_dir, tmp_path):
    out = tmp_path / "eval2.json"
    assert main(["eval", *kb_args(scenario_dir), "--folds", "3",
                 "--learners", "tree", "--methods", "baseline,recursive_d1",
                 "--generation-scope", "dataset", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["methods"] == ["baseline", "recursive_d1"]


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


@pytest.mark.parametrize("flags", [["--scenario", "disorder", "--desert-fraction", "2"],
                                   ["--scenario", "disorder", "--noise", "2"],
                                   ["--scenario", "disorder", "--noise", "-1"],
                                   ["--scenario", "disorder", "--n-train", "0"],
                                   ["--scenario", "disorder", "--n-test", "0"],
                                   ["--scenario", "random", "--n-tasks", "0"]],
                         ids=option_id)
def test_invalid_synth_options_rejected_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "scen"
    with pytest.raises(SystemExit) as exc:
        main(["synth", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_single_class_dataset_error_is_not_a_usage_error(scenario_dir, tmp_path):
    train = scenario_dir / "train.jsonl"
    lines = train.read_text().splitlines()
    one_class = [json.loads(line) for line in lines[1:]]
    for rec in one_class:
        rec["label"] = 0
    train.write_text("\n".join([lines[0]] + [json.dumps(r) for r in one_class]) + "\n")
    with pytest.raises(ValueError, match="single class"):
        main(["eval", *kb_args(scenario_dir), "--folds", "3", "--learners", "tree",
              "--methods", "baseline"])


def test_generate_min_size_reaches_config(scenario_dir, tmp_path):
    out = tmp_path / "features.json"
    assert main(["generate", *kb_args(scenario_dir), "--min-size", "1000",
                 "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["features_generated"] == 0
    assert summary["filtered"] == {"too_small": summary["candidates_tried"]}
