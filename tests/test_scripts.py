"""Subprocess runs: the experiment scripts, which no other test imports, and
the command line under different string-hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["depth_profile.py", "run_screening_experiment.py"])
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--seeds", "1"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def run_cli(out, hash_seed):
    """`synth`, then `generate`, `deep` and `eval` on it; every file written, by name."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    scen = out / "scen"
    kb = ["--data", str(scen / "train.jsonl"), "--kb-schema", str(scen / "kb_schema.tsv"),
          "--kb-triples", str(scen / "kb_triples.tsv")]
    for args in (["synth", "--scenario", "disorder", "--seed", "1",
                  "--n-train", "80", "--n-test", "40", "--n-countries", "8",
                  "--out", str(scen)],
                 ["generate", *kb, "--out", str(out / "generate.json")],
                 ["deep", *kb, "--min-node-size", "5", "--out", str(out / "deep.json"),
                  "--report", str(out / "report.json")],
                 ["eval", *kb, "--folds", "3", "--methods", "baseline,recursive_d1",
                  "--learners", "tree,knn", "--out", str(out / "eval.json")]):
        done = subprocess.run([sys.executable, "-m", "kbfg", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.*"))}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    runs = [run_cli(tmp_path / str(seed), seed) for seed in (0, 1, 2)]
    assert len(runs[0]) == 9
    for doc in ("generate.json", "deep.json"):
        assert json.loads(runs[0][doc])["features"]
    assert runs[1] == runs[0] and runs[2] == runs[0]
