#!/usr/bin/env python3
"""The kbfg benchmark: one workload per run, closed loop, one caller, no threads.

    python3 perfbench/run.py --workload cv-grid --seed 0 --seconds 36 --trace 0

A run generates the workload's input files from ``--seed`` in a child
process, loads them several times (``setup_s`` is the median), then
runs ops back to back for ``--seconds`` seconds (at least MIN_OPS ops) and
checks every op's output.  A fixed pure-Python reference loop runs before
the first op and after every op; ``op_rel`` divides each op's time by the
mean of the two loops around it, which cancels the swings in the speed of
the shared machine.  The loads are bracketed by the same loop, and
``setup_s`` is their median in reference seconds (REFERENCE_S per loop).  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs half the time untraced and half with the outside tracer
installed (``tracer.py``), and reports per-layer figures per op, plus the
traced and untraced time of each timed call and the tracing overhead.
The last line of standard output is the result object; the line before it,
``{"info": ...}``, records the environment, the digests of the outputs and
every failed check.

Other modes: ``--check-determinism`` runs every workload on the default seed
under two PYTHONHASHSEED values and compares the output digests;
``--write-benchmark-json`` rewrites BENCHMARK.json from the definitions here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from common import ROOT, SRC, MissingProgram, use_checkout_src

DEFAULT_SEED = 0
RUN_SECONDS = 36
SETUP_ROUNDS = (5, 100)   # least and most loads per run; loading stops after SETUP_MIN_S
SETUP_MIN_S = 1.0
MIN_OPS = 3
CHILD_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench_work"
EXPECTED_PATH = ROOT / "perfbench" / "expected.json"  # default-seed output digests

REFERENCE_N = 150_000      # iterations of the reference loop, about 0.1-0.2 s here
# the reference loop's usual time on the 2-CPU Xeon (KVM) the benchmark was built
# on; setup_s is load time in these reference seconds
REFERENCE_S = 0.12

END_TO_END = (
    # name, unit, better, bound (share of the parent's median it may worsen by)
    ("op_rel", "ratio", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SETUP_SPANS = ("kb.load_kb", "data.load_dataset", "features.features_from_document")

MATERIALIZE = ("data.materialize.calls", "data.materialize.s", "data.materialize.cells",
               "features.evaluate_feature.calls")
# per-layer figures that must not read zero on a workload (the layers it exercises)
REQUIRED = {
    "cv-grid": MATERIALIZE + tuple(
        f"learners.{step}.{kind}.{stat}" for step in ("train", "predict")
        for kind in ("tree", "knn", "linear") for stat in ("calls", "s")) + (
        "learners.accuracy.s", "learners.cross_validate.calls", "learners.cross_validate.s",
        "harness.run_experiment.s", "harness.generation.calls", "harness.generation.s"),
    "kb-distractors": MATERIALIZE + (
        "kb.applicable_relations.calls", "kb.applicable_relations.s",
        "kb.relations_of_departure_type.calls", "kb.relations_of_departure_type.s",
        "kb.lookup.calls", "recursive.generate_features.s",
        "recursive.create_new_problem.calls", "recursive.create_new_problem.s",
        "recursive.create_new_problem.self_s", "recursive.create_new_problem.examples",
        "recursive.candidates_tried", "recursive.candidates_generated",
        "recursive.useful_ratio", "recursive.filtered.too_small",
        "recursive.filtered.single_class", "recursive.filtered.no_relations",
        "deep.deep_generate.s", "deep.select_feature.calls", "deep.select_feature.s",
        "deep.feature_igs.calls", "deep.feature_igs.s", "deep.materialize_per_split",
        "learners.column_information_gain.calls", "learners.column_information_gain.s",
        "features.serialize_feature.calls", "features.serialize_feature.s"),
    "apply-doc": MATERIALIZE + ("features.features_from_document.s", "kb.lookup.calls"),
}


def per_layer_definitions(parts):
    """(name, unit, better) of every per-layer figure, in a fixed order."""
    from tracer import FIGURES

    out = list(FIGURES)
    for part in parts:
        out += [(f"trace.{part}.untraced_s", "s", "lower"),
                (f"trace.{part}.traced_s", "s", "lower"),
                (f"trace.{part}.overhead", "ratio", "lower")]
    return out


def benchmark_json(workloads, parts) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_definitions(parts)],
    }


# --- environment -------------------------------------------------------------


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "kbfg").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# --- one run -----------------------------------------------------------------


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now.

    The collector is off so that the loop's time does not depend on the size
    of the program's heap; the loop makes no reference cycles and keeps
    almost nothing alive, so it does not raise the peak resident memory.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        counts, mixed = {}, 0
        for i in range(REFERENCE_N):
            key = ("k", i % 977)
            counts[key] = counts.get(key, 0) + len(str(i))
            mixed ^= hash(frozenset((i, i + 1)))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_ops(wl, state, refs, seed, seconds, start, log):
    """Ops back to back for `seconds` (at least MIN_OPS), from op index `start`.

    Returns the results and, for each, its time relative to the reference
    loops run just before and just after it.
    """
    from workloads import OpResult

    results, relative = [], []
    loops = [reference_loop()]
    deadline = time.perf_counter() + seconds
    i = start
    while (len(results) < MIN_OPS or time.perf_counter() < deadline) \
            and (wl.max_ops is None or i < wl.max_ops):
        gc.collect()
        try:
            result = wl.run(state, refs, i, seed)
        except Exception:
            traceback.print_exc()
            result = OpResult({}, problems=[f"op {i} raised"])
        loops.append(reference_loop())
        relative.append({p: s / ((loops[-2] + loops[-1]) / 2)
                         for p, s in result.seconds.items()})
        log(f"op {i}: " + " ".join(f"{p}={s:.4f}s" for p, s in result.seconds.items())
            + f" reference={loops[-1]:.4f}s")
        results.append(result)
        i += 1
    return results, relative


def check_digests(wl, results, expected, seed):
    """Ops on the same inputs agree, and on the default seed match `expected`."""
    for r in results:
        for part, value in r.digests.items():
            first = results[0].digests.get(part)
            if value != first:
                r.problems.append(f"{part}: output differs from the first op's")
            if seed == DEFAULT_SEED and value != expected.get(part):
                r.problems.append(f"{part}: output differs from the recorded default-seed output")


def median_part(seconds, part):
    """Median of one timed call over ops, from a list of per-op {call: time}."""
    times = [s[part] for s in seconds if part in s]
    return statistics.median(times) if times else 0.0


def run_workload(args, log) -> int:
    from tracer import Tracer
    from workloads import PARTS, WORKLOADS

    wl = WORKLOADS[args.workload]
    env = environment()
    expected = {}
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED_PATH, encoding="utf-8") as f:
            expected = json.load(f)[wl.name]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    run_problems = []
    try:
        subprocess.run([sys.executable, __file__, "--prepare", "--workload", wl.name,
                        "--seed", str(args.seed), "--out", str(workdir)],
                       check=True, timeout=CHILD_TIMEOUT_S)
        tracer = Tracer()
        setup_times, state = [], None
        loops = [reference_loop()]
        try:
            if args.trace:
                tracer.install()
            least, most = SETUP_ROUNDS
            while len(setup_times) < least or (sum(setup_times) < SETUP_MIN_S
                                               and len(setup_times) < most):
                state = None
                gc.collect()
                start = time.perf_counter()
                state = wl.setup(str(workdir))
                setup_times.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        loops.append(reference_loop())
        setup_scale = REFERENCE_S / (sum(loops) / 2)
        setup_layer = tracer.metrics(len(setup_times))
        tracer.reset()
        refs = wl.references(str(workdir))
        digests = wl.input_digests(str(workdir))
        if args.seed == DEFAULT_SEED:
            for key, value in digests.items():
                if expected.get(key) != value:
                    run_problems.append(f"{key}: differs from the recorded default-seed digest")

        if args.trace:
            untraced, untraced_rel = run_ops(wl, state, refs, args.seed, args.seconds / 2,
                                             0, log)
            try:
                tracer.install()
                traced, traced_rel = run_ops(wl, state, refs, args.seed, args.seconds / 2,
                                             len(untraced), log)
            finally:
                tracer.restore()
        else:
            untraced, untraced_rel = run_ops(wl, state, refs, args.seed, args.seconds, 0, log)
            traced, traced_rel = [], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    results = untraced + traced
    check_digests(wl, results, expected, args.seed)
    for r in results:
        digests.update(r.digests)
    failed = sum(1 for r in results if r.problems)
    untraced_s = [r.seconds for r in untraced]

    if args.trace:
        metrics = tracer.metrics(len(traced))
        for name in metrics:
            if name.rsplit(".", 1)[0] in SETUP_SPANS:
                metrics[name] = setup_layer[name]
        required = REQUIRED[wl.name] + ("kb.load_kb.s", "data.load_dataset.s")
        for part in PARTS:
            metrics[f"trace.{part}.untraced_s"] = median_part(untraced_s, part)
            metrics[f"trace.{part}.traced_s"] = median_part([r.seconds for r in traced], part)
            # relative times, so that a change in machine speed between the halves cancels
            base = median_part(untraced_rel, part)
            metrics[f"trace.{part}.overhead"] = \
                median_part(traced_rel, part) / base - 1.0 if base else 0.0
            if part in wl.parts:
                required += (f"trace.{part}.untraced_s", f"trace.{part}.traced_s")
        for name in required:
            if not metrics[name] > 0:
                run_problems.append(f"per-layer figure {name} reads zero on {wl.name}")
        units = {n: u for n, u, _ in per_layer_definitions(PARTS)}
    else:
        metrics = {"op_rel": statistics.median(sum(r.values()) for r in untraced_rel),
                   "setup_s": statistics.median(setup_times) * setup_scale,
                   "peak_rss_mb": peak_rss_mb()}
        units = {n: u for n, u, _, _ in END_TO_END}

    summary = {f"{part}_s": median_part(untraced_s, part) for part in wl.parts}
    summary["op_s"] = statistics.median(sum(s.values()) for s in untraced_s)
    summary["setup_wall_s"] = statistics.median(setup_times)
    summary["error_rate"] = failed / len(results)
    for name, value in list(summary.items()) + list(metrics.items()):
        unit = units.get(name, "s" if name.endswith("_s") else "ratio")
        print(f"{name:<40} {value:14.6g} {unit}")
    problems = run_problems + [p for r in results for p in r.problems]
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "ops": len(results), "summary": summary,
            "op_seconds": [r.seconds for r in results],
            "op_relative": untraced_rel + traced_rel, "setup_seconds": setup_times,
            "setup_reference_loops": loops,
            "digests": digests, "problems": problems}
    print(json.dumps({"info": info}, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]}
                                  for n in units}}))
    return 0 if correct else 1


# --- other modes -------------------------------------------------------------


def check_determinism(args, log) -> int:
    """Default-seed digests of every workload under two PYTHONHASHSEED values."""
    from workloads import WORKLOADS

    report, ok = {}, True
    for name in WORKLOADS:
        seen = {}
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(DEFAULT_SEED), "--seconds", "1",
                                   "--trace", "0"],
                                  capture_output=True, text=True, env=env,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            info = json.loads(lines[-2])["info"] if len(lines) >= 2 else {}
            seen[hash_seed] = {"exit": proc.returncode, "digests": info.get("digests"),
                               "problems": info.get("problems")}
            ok = ok and proc.returncode == 0
        same = seen["0"]["digests"] == seen["1"]["digests"] and seen["0"]["digests"]
        ok = ok and bool(same)
        report[name] = {"identical": bool(same), "runs": seen}
        log(f"{name}: digests {'identical' if same else 'DIFFER'} under PYTHONHASHSEED 0 and 1")
    print(json.dumps({"determinism": report, "env": environment()}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        use_checkout_src()
    except MissingProgram as e:
        log(f"perfbench: {e}")
        return 2
    from workloads import PARTS, WORKLOADS

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as f:
            f.write(json.dumps(benchmark_json(WORKLOADS, PARTS), indent=2) + "\n")
        return 0
    if args.check_determinism:
        return check_determinism(args, log)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.prepare:
        import inputs

        inputs.prepare(args.workload, args.seed, args.out)
        return 0
    return run_workload(args, log)


if __name__ == "__main__":
    sys.exit(main())
