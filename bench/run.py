"""Benchmark of spinmoment: verdict latency per decision path, scan time, and a
traced per-layer breakdown.

    python3 bench/run.py --workload verdicts-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else.  BLAS is pinned to one thread and scans run with one
worker.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every figure by name and unit.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced passes over the same inputs and
reports the per-layer table of the traced passes, plus the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPINMOMENT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# The script's own directory is first on sys.path, so its modules import
# directly; the package under test is imported later, from src/ only.
from calibrate import REFERENCE_SECONDS, Calibrator  # noqa: E402
from evidence import PATHS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"  # spans of the first traced pass, one JSON line each
SETUP_REPEATS = 11
SETUP_CALIBRATION_CHUNKS = 20

# Fresh process: import the package and fill its per-spin caches.  The
# caches are named, not looked up optionally: a build that renames or drops
# one fails here, instead of moving that work out of setup_s unnoticed.
_SETUP_CODE = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import spinmoment
from spinmoment import feasibility, reduction
fills = [feasibility._moment_operator_set, reduction.reduction_operators,
         reduction._reconstruction_system]
for two_j in map(int, sys.argv[2:]):
    for fill in fills:
        fill(two_j)
print(time.perf_counter() - t0)
"""


def import_package():
    if not (SRC / "spinmoment" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'spinmoment'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spinmoment

    if Path(spinmoment.__file__).resolve().parent != SRC / "spinmoment":
        sys.exit(f"error: imported spinmoment from {spinmoment.__file__}, not from {SRC}")
    return spinmoment


def measure_setup(spins, cal) -> list[tuple[float, float]]:
    """(seconds, reference seconds) a fresh interpreter takes to import and
    fill the caches, once per repeat."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), *map(str, spins)]
    out = []
    spawns = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        t1 = time.perf_counter()
        if done.returncode != 0:
            sys.exit(f"error: setup process failed (are the per-spin caches "
                     f"_moment_operator_set, reduction_operators and "
                     f"_reconstruction_system still there?):\n{done.stderr}")
        spawns.append((t0, t1, float(done.stdout.strip().splitlines()[-1])))
        for _ in range(SETUP_CALIBRATION_CHUNKS):
            cal.chunk()
    return [(seconds, seconds * cal.scale(t0, t1)) for t0, t1, seconds in spawns]


class Tally:
    """Attempted / failed operations plus the determinism reference."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference: list[bytes] | None = None

    def check(self, calls):
        outcomes = [self.workload.check(c) for c in calls]
        prints = [o.fingerprint for o in outcomes]
        if self.reference is None:
            self.reference = prints
        for o, ref in zip(outcomes, self.reference):
            if o.fingerprint != ref and not o.failed:
                o.failed = o.attempted
                o.reasons.append("differs from the first pass on the same input")
            self.attempted += o.attempted
            self.failed += o.failed
            self.reasons.extend(o.reasons)
        return outcomes


def path_counts(outcomes) -> dict[str, int]:
    counts = {p: 0 for p in PATHS}
    for o in outcomes:
        if o.path is not None:
            counts[o.path] += 1
    return counts


def run_untraced(workload, api, items, seconds, tally, cal):
    """Warm pass, then timed passes until ``seconds`` have been measured.

    Returns, per pass, the outcomes, the wall seconds of each call and its
    reference seconds; and the peak RSS in MB after the warm pass and the
    first timed pass.  The calls' results are dropped as soon as they are
    checked, and the peak is read after a fixed number of passes, so that it
    is the program's own memory and does not grow with the pass count.
    """
    tally.check(run_pass(workload, api, items, after=cal.top_up))
    passes = []
    peak_mb = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        calls = run_pass(workload, api, items, after=cal.top_up)
        passes.append((tally.check(calls), [(c.start, c.seconds) for c in calls]))
        del calls
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [(outcomes, [s for _, s in times], [s * cal.scale(t0, t0 + s) for t0, s in times])
            for outcomes, times in passes], peak_mb


def end_to_end(workload, api, items, args, tally) -> tuple[dict, list[str]]:
    cal = Calibrator()
    setup = measure_setup(workload.spins if workload.kind == "verdicts" else (workload.two_j,), cal)
    passes, peak_mb = run_untraced(workload, api, items, args.seconds, tally, cal)
    wall = [sum(secs) for _, secs, _ in passes]
    ref = [sum(r) for _, _, r in passes]
    metrics = {
        "setup_s": (statistics.median(r for _, r in setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_s": (statistics.median(ref), "s"),
    }
    speed = [r / w for r, w in zip(ref, wall)]
    notes = [
        f"passes {len(passes)}",
        f"setup_runs {len(setup)}",
        "times in reference seconds: wall time x "
        f"{REFERENCE_SECONDS * 1e3:g} ms / calibration kernel median (see bench/calibrate.py)",
        f"speed_factor_median {statistics.median(speed):.6g} min {min(speed):.6g} max {max(speed):.6g}",
        f"setup_wall_s {statistics.median(s for s, _ in setup):.6g} s",
        f"pass_wall_s {statistics.median(wall):.6g} s",
    ]
    lat = [r * 1e3 for _, _, refs in passes for r in refs]
    total = sum(ref)
    if workload.kind == "verdicts":
        notes.append(f"verdicts_per_s {len(lat) / total:.6g} 1/s")
        notes.append(f"verdict_p50_ms {np.percentile(lat, 50):.6g} ms (n={len(lat)})")
        if len(lat) >= 100:  # a tail percentile needs ten samples beyond it
            notes.append(f"verdict_p90_ms {np.percentile(lat, 90):.6g} ms (n={len(lat)})")
        by_path: dict[str, list[float]] = {}
        for outcomes, _, refs in passes:
            for o, r in zip(outcomes, refs):
                by_path.setdefault(o.path or "raised", []).append(r * 1e3)
        for path, vals in sorted(by_path.items()):
            notes.append(f"{path}_p50_ms {np.percentile(vals, 50):.6g} ms (n={len(vals)})")
        counts = path_counts(passes[0][0])
        notes.append("paths_per_pass " + " ".join(f"{k}={v}" for k, v in counts.items()))
    else:
        notes.append(f"scan_s {statistics.median(ref):.6g} s")
        notes.append(f"cells_per_s {sum(o.attempted for oc, _, _ in passes for o in oc) / total:.6g} 1/s")
    return metrics, notes


LAYER_METRICS = (
    "matcore.eig_small.calls", "matcore.eig_small.ms",
    "matcore.eig_large.calls", "matcore.eig_large.ms", "matcore.self_ms",
    "reduction.reconstruct_rho.calls", "reduction.reconstruct_rho.ms",
    "reduction.ppt_inner_test.ms", "reduction.tau.calls", "reduction.tau.ms",
    "reduction.moments_from_coords.ms", "reduction.self_ms",
    "spinalg.ms", "spinalg.self_ms",
    "sdp.solve.calls", "sdp.solve.ms", "sdp.solve.iterations", "sdp.ms_per_iteration",
    "sdp.solve.not_optimal", "sdp.phase1_min_t.self_ms", "sdp.orthonormalize.ms", "sdp.self_ms",
    "feasibility.classify.self_ms", "feasibility.exact_test_direct.self_ms",
    "feasibility.witness_search.calls", "feasibility.witness_search.self_ms",
    "feasibility.sdp_solves_per_verdict",
    "feasibility.path.inner_accept", "feasibility.path.early_reject",
    "feasibility.path.exact_accept", "feasibility.path.exact_reject",
    "feasibility.path.boundary", "feasibility.unevidenced", "feasibility.self_ms",
    "scan.cells", "scan.sdp_cells", "scan.sdp_cell_frac", "scan.self_ms",
    "scan.cell_p50_ms", "scan.cell_p99_ms", "scan.cell_samples",
    "bench.self_ms", "trace.wall_ms", "trace.self_sum_frac", "trace.spans", "trace.overhead_frac",
    "failed_frac",
)

_SPINALG_NAMED = ("spinalg.MomentMatrix.from_matrix", "spinalg.chi_matrix", "spinalg.moment_matrix")


def layer_table(tracer, wall: float, outcomes, kind: str) -> dict[str, float]:
    """Per-layer figures of one traced pass (ms unless named otherwise)."""
    spans = tracer.spans
    own = tracer.self_seconds()
    t: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)

    def add(key, value):
        t[key] += value

    for s, self_s in zip(spans, own):
        ms, self_ms = s.seconds * 1e3, self_s * 1e3
        add(f"{s.layer}.self_ms", self_ms)
        if s.name in ("matcore.hermitian_eig", "matcore.hermitian_eigvals"):
            size = "small" if s.info <= 4 else "large"
            add(f"matcore.eig_{size}.calls", 1)
            add(f"matcore.eig_{size}.ms", ms)
        elif s.name in ("reduction.reconstruct_rho", "reduction.tau"):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.ms", ms)
        elif s.name in ("reduction.ppt_inner_test", "reduction.moments_from_coords", "sdp.orthonormalize"):
            add(f"{s.name}.ms", ms)
        elif s.name in _SPINALG_NAMED:
            add("spinalg.ms", self_ms)
        elif s.name == "sdp.solve":
            add("sdp.solve.calls", 1)
            add("sdp.solve.ms", ms)
            add("sdp.solve.iterations", s.info[1])
            add("sdp.solve.not_optimal", s.info[0] != "optimal")
        elif s.name in ("sdp.phase1_min_t", "feasibility.classify", "feasibility.exact_test_direct"):
            add(f"{s.name}.self_ms", self_ms)
        elif s.name == "feasibility.witness_search":
            add("feasibility.witness_search.calls", 1)
            add("feasibility.witness_search.self_ms", self_ms)
        if kind == "scan" and s.name == "feasibility.exact_test_direct":
            add("scan.sdp_cells", 1)
    if t["sdp.solve.iterations"]:
        t["sdp.ms_per_iteration"] = t["sdp.solve.ms"] / t["sdp.solve.iterations"]
    if kind == "verdicts":
        t["feasibility.sdp_solves_per_verdict"] = t["sdp.solve.calls"] / len(outcomes)
        for path, n in path_counts(outcomes).items():
            t[f"feasibility.path.{path}"] = n
        t["feasibility.unevidenced"] = sum(o.unevidenced for o in outcomes)
    else:
        t["scan.cells"] = sum(o.attempted for o in outcomes)
        t["scan.sdp_cell_frac"] = t["scan.sdp_cells"] / t["scan.cells"]
    t["trace.wall_ms"] = wall * 1e3
    # An identity check of the span tree, not a coverage figure: it reads 1
    # whenever every span closes inside its parent.  Time in private helpers
    # the tracer does not wrap counts as self time of the layer calling them.
    t["trace.self_sum_frac"] = float(own.sum()) / wall
    t["trace.spans"] = len(spans)
    return t


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op}) + "\n")


def _unit(name: str) -> str:
    if name.endswith("ms") or name == "sdp.ms_per_iteration":
        return "ms"
    return "frac" if name.endswith("frac") else "count"


def per_layer(workload, api, items, args, tally) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; per-layer table of a traced one.

    The tracing overhead compares the two kinds of pass in reference
    seconds, each scaled by the calibration kernel run right around it.
    """
    cal = Calibrator()
    clock = time.perf_counter

    def timed(fn, *a):
        t0 = clock()
        out = fn(*a)
        wall = clock() - t0
        cal.top_up(wall)
        return out, wall, wall * cal.scale(t0, t0 + wall)

    tally.check(timed(run_pass, workload, api, items)[0])
    untraced, traced, tables, cell_ms = [], [], [], []
    start = clock()
    while not traced or clock() - start < args.seconds:
        calls, _, ref = timed(run_pass, workload, api, items)
        untraced.append(ref)
        for o in tally.check(calls):
            if o.point_seconds is not None:
                cell_ms.extend((o.point_seconds * 1e3).ravel())
        tracer = Tracer(api)
        with tracer:
            calls, wall, ref = timed(tracer.span("bench.pass", run_pass), workload, api, items, tracer)
        traced.append(ref)
        tables.append(layer_table(tracer, wall, tally.check(calls), workload.kind))
        if len(traced) == 1:
            write_spans(tracer, SPANS_DIR / f"spans-{workload.name}.jsonl")
    # The table of one whole pass, the one with the median time, so that its
    # layer self times add up to its wall time.
    table = tables[sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]]
    if cell_ms:
        table["scan.cell_p50_ms"] = statistics.median(cell_ms)
        table["scan.cell_p99_ms"] = float(np.percentile(cell_ms, 99))
        table["scan.cell_samples"] = len(cell_ms)
    table["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    table["failed_frac"] = tally.failed / tally.attempted
    metrics = {k: (table[k], _unit(k)) for k in LAYER_METRICS}
    return metrics, [f"traced_passes {len(traced)}", f"untraced_passes {len(untraced)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    api = import_package()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    items = workload.make_items(args.seed, args.smoke)
    tally = Tally(workload)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(workload, api, items, args, tally)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} seconds {args.seconds:g} trace {args.trace} smoke {int(args.smoke)}")
    print(f"python {sys.version.split()[0]} numpy {np.__version__} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} nproc {os.cpu_count()}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ops {tally.failed} of {tally.attempted}")
    for reason in sorted(set(tally.reasons))[:20]:
        print(f"FAILED: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
