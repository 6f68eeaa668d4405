"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the evidence checker refuses a sign-flipped witness, a perturbed
certificate and a scan that breaks R <= S <= T; that a smoke size of every
workload finishes in seconds in both trace modes and prints exactly the
metrics BENCHMARK.json declares; and that the benchmark, run in a directory
holding only BENCHMARK.json and its own files, fails without a result.
Exits non-zero when any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spinmoment  # noqa: E402

import evidence  # noqa: E402
import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_LIMIT_S = 60.0
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{' ok ' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def verdict_for(family: str, two_j: int = 4):
    inp = inputs.make_input(np.random.default_rng(5), family, two_j)
    m = spinmoment.MomentMatrix.from_matrix(two_j, inp.matrix)
    return inp, spinmoment.classify(m)


def check_evidence() -> None:
    inp, v = verdict_for("v-over-1")
    expect(evidence.check_verdict(v, inp)[1] is None, "a genuine witness passes")
    w = v.witness
    flipped = dataclasses.replace(w, matrix=-w.matrix, op_coefficients=-w.op_coefficients)
    reason = evidence.check_verdict(dataclasses.replace(v, witness=flipped), inp)[1]
    expect(reason is not None, f"a sign-flipped witness fails ({reason})")
    reason = evidence.check_verdict(
        dataclasses.replace(v, witness=dataclasses.replace(w, op_coefficients=-w.op_coefficients)), inp
    )[1]
    expect(reason is not None, f"flipped witness coefficients fail ({reason})")

    inp, v = verdict_for("dicke")
    expect(evidence.check_verdict(v, inp)[1] is None, "a genuine certificate passes")
    x = v.certificate_state
    corner = np.zeros_like(x)
    corner[0, 0] = 1.0
    bent = (1.0 - 1e-5) * x + 1e-5 * corner
    reason = evidence.check_verdict(dataclasses.replace(v, certificate_state=bent), inp)[1]
    expect(reason is not None, f"a perturbed certificate fails ({reason})")
    reason = evidence.check_verdict(dataclasses.replace(v, status="non-quantum"), inp)[1]
    expect(reason is not None, f"a wrong answer fails ({reason})")

    r = np.array([[1, 0]])
    expect(evidence.check_scan_nesting(r, np.array([[0, 1]]), np.array([[1, 1]])).tolist() == [[True, False]],
           "a cell in R but not in S breaks the nesting")
    expect(not evidence.check_scan_nesting(r, np.array([[-1, -1]]), np.array([[1, 0]])).any(),
           "R <= T holds when S is skipped")


def run_bench(workload: str, trace: int, cwd: Path) -> tuple[subprocess.CompletedProcess, float]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return done, time.perf_counter() - t0


def check_smoke() -> None:
    declared = {0: {m["name"] for m in BENCH["end_to_end"]}, 1: {m["name"] for m in BENCH["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done, secs = run_bench(name, trace, ROOT)
            what = f"smoke {name} --trace {trace} ({secs:.1f} s)"
            if done.returncode != 0:
                expect(False, f"{what}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(set(result["metrics"]) == declared[trace], f"{what}: declared metrics")
            expect(result["correct"] and result["failed"] == 0, f"{what}: no failed operation")
            expect(secs < SMOKE_LIMIT_S, f"{what}: under {SMOKE_LIMIT_S:.0f} s")


def check_bare_directory() -> None:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        done, _ = run_bench(next(iter(WORKLOADS)), 0, bare)
        printed = done.stdout.strip().splitlines()
        expect(done.returncode != 0 and not printed,
               f"without the program the benchmark fails (exit {done.returncode})")


def main() -> int:
    check_evidence()
    check_smoke()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
