#!/usr/bin/env python3
"""Run the benchmark's end-to-end metrics over fixed seeds and write BENCH_<workload>.json.

    python3 scripts/bench.py --workload kb-distractors --seeds 11-20 \\
        --checkout parent=../kbfg-parent --checkout change=.

Each ``--checkout LABEL=PATH`` names a checkout of this repository; its own
unchanged ``perfbench/run.py`` is run with ``--trace 0`` for the
``run_seconds`` of BENCHMARK.json, so it measures the ``src/kbfg`` of that
checkout.  With no ``--checkout`` the checkout holding this script is
measured, labelled ``this``.  For each seed every checkout runs once, one
run at a time; the order of the checkouts flips from one seed to the next,
so a drift in the speed of the machine does not favour one of them.

The seed range and the quartiles are those of ``perfbench/spread.py``.  The
output holds, per checkout, the commit, whether ``src/`` differs from it,
the SHA-256 of ``src/kbfg`` that ``run.py`` reports, every run's metrics,
and the median and quartiles of each end-to-end metric.  With two or more
checkouts, each one after the first is compared with the first: the ratio
of the medians, the number of seeds on which it is better, whether the
gain in the median exceeds the first checkout's interquartile range,
whether the loss in the median exceeds the metric's ``bound`` share of the
first checkout's median (``worse_than_bound``), and whether that IQR itself
exceeds the bound share (``unresolved``: the first checkout's runs spread
too widely to tell a change within the bound from noise).  Both flags are
printed on stderr for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600

sys.path.insert(0, str(ROOT / "perfbench"))
from spread import seed_list  # noqa: E402


def parse_checkout(text: str):
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError("expected LABEL=PATH")
    return label, Path(path).resolve()


def benchmark(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def git(path: Path, *args) -> str:
    proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True,
                          timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run of the checkout at `path`."""
    cmd = [sys.executable, str(path / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "summary": info["summary"],
        "problems": info["problems"],
        "env": info["env"],
    }


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def compare(base: dict, other: dict, metrics: list) -> dict:
    """`other` against `base`, run by run on the same seeds, per end-to-end metric."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(b["metrics"][name], o["metrics"][name])
                 for b, o in zip(base["runs"], other["runs"])]
        b_stats, o_stats = base["stats"][name], other["stats"][name]
        gain, iqr = b_stats["median"] - o_stats["median"], b_stats["q3"] - b_stats["q1"]
        out[name] = {
            "median_ratio": o_stats["median"] / b_stats["median"],
            "better_in": sum(1 for b, o in pairs if (o < b if lower else o > b)),
            "pairs": len(pairs),
            "gain_exceeds_base_iqr": (gain if lower else -gain) > iqr,
            "worse_than_bound": (-gain if lower else gain) / b_stats["median"] > m["bound"],
            "unresolved": iqr / b_stats["median"] > m["bound"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("11-20"))
    ap.add_argument("--checkout", type=parse_checkout, action="append", default=[],
                    metavar="LABEL=PATH")
    ap.add_argument("--out", type=Path, help="default: BENCH_<workload>.json at the "
                                             "root of this checkout")
    args = ap.parse_args(argv)
    checkouts = args.checkout or [("this", ROOT)]
    if len({label for label, _ in checkouts}) != len(checkouts):
        ap.error("checkout labels must differ")
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    bench = benchmark(ROOT)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    entries = [{"label": label, "commit": git(path, "rev-parse", "HEAD") or None,
                "src_changed_since_commit": bool(git(path, "status", "--porcelain", "src")),
                "runs": []} for label, path in checkouts]
    for k, seed in enumerate(args.seeds):
        order = list(range(len(checkouts)))
        if k % 2:
            order.reverse()
        for i in order:
            label, path = checkouts[i]
            run = run_once(path, args.workload, seed, seconds)
            entries[i]["runs"].append(run)
            print(f"seed {seed} {label}: " + " ".join(
                f"{m['name']}={run['metrics'][m['name']]:.4g}" for m in metrics)
                + ("" if run["correct"] else f" PROBLEMS {run['problems']}"),
                file=sys.stderr, flush=True)

    for entry in entries:
        digests = {run.pop("env")["src_sha256"] for run in entry["runs"]}
        entry["src_sha256"] = digests.pop() if len(digests) == 1 else sorted(digests)
        entry["stats"] = {m["name"]: spread([r["metrics"][m["name"]] for r in entry["runs"]])
                          for m in metrics}
        entry["failed_ops"] = sum(r["failed"] for r in entry["runs"])
    doc = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        "env": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "end_to_end": metrics,
        "checkouts": entries,
        "comparison": {e["label"]: compare(entries[0], e, metrics) for e in entries[1:]},
    }
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    with open(out, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for label, cmp in doc["comparison"].items():
        for name, c in cmp.items():
            print(f"{label} vs {entries[0]['label']}: {name} median x{c['median_ratio']:.3f}, "
                  f"better in {c['better_in']}/{c['pairs']}, worse_than_bound "
                  f"{c['worse_than_bound']}, unresolved {c['unresolved']}", file=sys.stderr)
    return 0 if all(r["correct"] for e in entries for r in e["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
