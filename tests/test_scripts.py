"""Subprocess runs: the experiment scripts, which no other test imports, and
the command line under different string-hash seeds; the bench script's
bookkeeping, with its benchmark runs replaced; and the benchmark tracer:
its patching of the kbfg bindings, and one traced load and op of each
workload."""

import importlib.util
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


@pytest.mark.parametrize("script", ["depth_profile.py", "run_screening_experiment.py"])
def test_script_rejects_no_seeds(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--seeds", "0"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--seeds must be at least 1" in done.stderr and not done.stdout


@pytest.mark.parametrize("script,option,value,message", [
    ("depth_profile.py", "--n-surnames", "5", "need at least 16 training surnames"),
    ("depth_profile.py", "--n-surnames", "0", "need at least 16 training surnames"),
    ("depth_profile.py", "--min-node-size", "1", "min_node_size must be >= 2"),
    ("depth_profile.py", "--depth", "-1", "depth must be >= 0"),
    ("run_screening_experiment.py", "--depth", "-1", "depth must be >= 0"),
])
def test_script_rejects_a_bad_option_before_any_seed_runs(script, option, value, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--seeds", "1",
                           f"{option}={value}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert message in done.stderr and not done.stdout


def run_cli(out, hash_seed):
    """Both `synth` scenarios, then `expand`, `generate`, `deep` and `eval` on the
    disorder one; every file written, by name."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    scen = out / "scen"
    kb = ["--data", str(scen / "train.jsonl"), "--kb-schema", str(scen / "kb_schema.tsv"),
          "--kb-triples", str(scen / "kb_triples.tsv")]
    for args in (["synth", "--scenario", "disorder", "--seed", "1",
                  "--n-train", "80", "--n-test", "40", "--n-countries", "8",
                  "--out", str(scen)],
                 ["synth", "--scenario", "random", "--n-tasks", "2", "--out", str(out / "rnd")],
                 ["expand", *kb, "--out", str(out / "expand.json")],
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
    assert len(runs[0]) == 20
    for doc in ("expand.json", "generate.json", "deep.json"):
        assert json.loads(runs[0][doc])["features"]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_family_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`expand` and `generate` under each aggregator family on the family
    scenario, whose relations are not all functions."""
    from family_scenario import COVERAGE, family_scenario

    from kbfg.aggregators import FAMILIES
    from kbfg.data import save_dataset
    from kbfg.kb import save_kb

    train, kb = family_scenario()
    save_dataset(train, tmp_path / "train.jsonl")
    save_kb(kb, tmp_path / "kb_schema.tsv", tmp_path / "kb_triples.tsv")
    args = ["--data", str(tmp_path / "train.jsonl"), "--kb-schema", str(tmp_path / "kb_schema.tsv"),
            "--kb-triples", str(tmp_path / "kb_triples.tsv"), "--coverage", str(COVERAGE)]
    runs = []
    for hash_seed in (0, 1, 2):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
        outputs = {}
        for command in ("expand", "generate"):
            for family in FAMILIES:
                done = subprocess.run([sys.executable, "-m", "kbfg", command, *args,
                                       "--aggregator", family], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                outputs[command, family] = done.stdout
        runs.append(outputs)
    for (command, family), out in runs[0].items():
        assert any(f"{family}=kin" in json.dumps(f) for f in json.loads(out)["features"])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_bench_alternates_checkouts_and_compares_with_the_first(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    order = []

    def fake_run(path, workload, seed, seconds):
        order.append((path.name, seed))
        op_rel = {"a": 10.0, "b": 2.0}[path.name] + seed / 100
        # the first checkout's peak_rss_mb spreads 2.0 around a 2.0 median, wider
        # than its 0.1 bound, so that metric cannot be resolved
        rss = float(seed) if path.name == "a" else 1.9
        return {"seed": seed, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"op_rel": op_rel, "setup_s": 1.0, "peak_rss_mb": rss},
                "summary": {}, "problems": [], "env": {"src_sha256": path.name}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    out = tmp_path / "BENCH.json"
    assert bench.main(["--workload", "kb-distractors", "--seeds", "1-3",
                       "--checkout", f"parent={tmp_path / 'a'}",
                       "--checkout", f"change={tmp_path / 'b'}", "--out", str(out)]) == 0
    assert order == [("a", 1), ("b", 1), ("b", 2), ("a", 2), ("a", 3), ("b", 3)]
    doc = json.loads(out.read_text())
    parent, change = doc["checkouts"]
    assert (parent["label"], parent["src_sha256"]) == ("parent", "a")
    assert parent["stats"]["op_rel"]["median"] == 10.02
    assert [r["seed"] for r in change["runs"]] == [1, 2, 3]
    assert doc["seconds"] == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    compared = doc["comparison"]["change"]
    assert compared["op_rel"]["better_in"] == 3 and compared["op_rel"]["gain_exceeds_base_iqr"]
    assert compared["setup_s"]["better_in"] == 0 and not compared["setup_s"]["worse_than_bound"]
    assert [name for name, c in compared.items() if c["unresolved"]] == ["peak_rss_mb"]
    assert not compared["peak_rss_mb"]["worse_than_bound"]
    err = capsys.readouterr().err
    assert "change vs parent: peak_rss_mb median x0.950, better in 2/3, worse_than_bound False, " \
           "unresolved True" in err
    assert "change vs parent: setup_s median x1.000, better in 0/3, worse_than_bound False, " \
           "unresolved False" in err


def kbfg_bindings():
    """Every attribute of every kbfg module and of the classes the tracer patches."""
    from kbfg.kb import KnowledgeBase
    from kbfg.learners import KnnModel, LinearModel, TreeModel
    from kbfg.recursive import GenerationStats

    owners = [mod for name, mod in sys.modules.items()
              if name == "kbfg" or name.startswith("kbfg.")]
    owners += [KnowledgeBase, TreeModel, KnnModel, LinearModel, GenerationStats]
    return {owner.__name__: dict(vars(owner)) for owner in owners}


@pytest.fixture
def perfbench(monkeypatch):
    """Imports a module of perfbench/ by name; none is left in `sys.modules` after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield importlib.import_module
    for name, mod in list(sys.modules.items()):
        if Path(getattr(mod, "__file__", None) or "/").parent == ROOT / "perfbench":
            del sys.modules[name]


def test_tracer_patches_every_binding_and_restores_it(perfbench):
    """`perfbench/run.py --trace 1` patches these bindings; a missing one fails here."""
    tracer = perfbench("tracer")
    before = kbfg_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = kbfg_bindings()
    finally:
        t.restore()
    for _, module, attr, required in tracer.FUNCTION_SPANS:
        for name in {module.__name__, *required}:
            assert during[name][attr] is not before[name][attr], (name, attr)
    assert kbfg_bindings() == before


def test_tracer_counts_a_duplicate_candidate_as_filtered(perfbench):
    """The tracer reads a record's status when it is added, so each status is final."""
    from test_deep import three_column_context

    from kbfg.deep import DeepConfig, deep_generate
    from kbfg.recursive import GenerationConfig

    ds, feats, kb = three_column_context()
    cfg = DeepConfig(min_node_size=4,
                     generation=GenerationConfig(depth=1, min_recursive_size=4))
    t = perfbench("tracer").Tracer()
    t.install()
    try:
        deep_feats, report = deep_generate(ds, feats, kb, cfg)
    finally:
        t.restore()
    assert len(deep_feats) == 1 and t.counts["recursive.candidate.duplicate"] == 1
    assert t.metrics(1)["recursive.candidates_generated"] == 1


@pytest.mark.parametrize("workload", ["cv-grid", "kb-distractors", "apply-doc"])
def test_traced_op_reads_every_required_figure_and_the_recorded_digests(tmp_path, perfbench,
                                                                        workload):
    """One traced load and one traced default-seed op, as `perfbench/run.py --trace 1`
    times them: the load figures come from the load, the rest from the op."""
    run = perfbench("run")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--prepare",
                           "--workload", workload, "--seed", str(run.DEFAULT_SEED),
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    wl = perfbench("workloads").WORKLOADS[workload]
    t = perfbench("tracer").Tracer()
    t.install()
    try:
        state = wl.setup(str(tmp_path))
    finally:
        t.restore()
    setup_metrics = t.metrics(1)
    t.reset()
    refs = wl.references(str(tmp_path))
    t.install()
    try:
        result = wl.run(state, refs, 0, run.DEFAULT_SEED)
    finally:
        t.restore()
    metrics = t.metrics(1)
    for name in metrics:
        if name.rsplit(".", 1)[0] in run.SETUP_SPANS:
            metrics[name] = setup_metrics[name]
    required = run.REQUIRED[workload] + ("kb.load_kb.s", "data.load_dataset.s")
    assert [name for name in required if not metrics[name] > 0] == []
    assert result.problems == []
    assert {**wl.input_digests(str(tmp_path)), **result.digests} == \
        json.loads(run.EXPECTED_PATH.read_text())[workload]
