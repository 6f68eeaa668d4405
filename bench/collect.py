"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 [--seconds 20]
    python3 bench/collect.py --seeds 1-10 --baseline bench/baseline.json

For every workload it runs ``bench/run.py`` once per seed, one run at a
time, and prints each metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``).  ``--baseline`` also makes one traced
run per workload and writes the summaries, the per-layer tables and the
environment to the named file.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["text"] = lines[:-1]
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def environment() -> dict:
    import numpy as np

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS set by bench/run.py)",
        "scan_workers": 1,
        "SPINMOMENT_THREADS": "unset",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--baseline", help="write seeds, summaries, traced tables and environment here")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        summary = summarise(runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, failed {failed} of {sum(r['attempted'] for r in runs)}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (" OK" if s["spread"] < bound / 3 else " WIDE")
            print(f"  {name:34s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
        entry = {"seeds": seeds, "runs": len(runs), "failed": failed, "end_to_end": summary,
                 "notes": runs[len(runs) // 2]["text"]}
        if args.baseline:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = seeds[0]
        report[workload] = entry
        sys.stdout.flush()
    if args.baseline:
        out = {"environment": environment(), "run_seconds": args.seconds, "workloads": report}
        Path(args.baseline).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
