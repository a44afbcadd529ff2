#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads cv-grid,apply-doc] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Exits non-zero if a run fails or a
spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write the runs and the summary here as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = ok and proc.returncode == 0 and result.get("correct") is True
            runs.append({"seed": seed, "exit": proc.returncode, "result": result,
                         "info": json.loads(lines[-2])["info"] if len(lines) > 1 else None})
            values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(f"{workload} seed {seed}: exit {proc.returncode} {values}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"].get("metrics", {})]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = spread <= bound or name == "setup_s"
            ok = ok and within
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "under_a_third": spread < bound / 3}
            print(f"{workload:<16} {name:<12} median {med:10.4f}  spread {spread:6.3f}  "
                  f"bound {bound:5.2f}  {'ok' if within else 'OVER BOUND'}"
                  f"{'' if spread < bound / 3 else '  (above a third of the bound)'}",
                  flush=True)
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
