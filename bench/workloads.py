"""The benchmark's workloads: what one pass runs and how its outputs are checked.

A pass sends every input of the workload once, from a single closed-loop
caller: the next call starts only after the previous one returned.  Calls go
through module attributes of the package (``api.feasibility.classify``,
``api.scan.scan_grid``) so that a tracer installed on those attributes sees
them.  Checking happens after the pass, outside every timed region.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

import evidence
import inputs

REFERENCE_FILE = Path(__file__).with_name("reference_flags.json")


@dataclass
class Outcome:
    """Checked result of one call."""

    attempted: int
    failed: int
    fingerprint: bytes
    path: str | None = None
    unevidenced: bool = False
    reasons: list[str] = field(default_factory=list)
    point_seconds: np.ndarray | None = None


@dataclass
class Call:
    item: object
    start: float
    seconds: float = 0.0
    result: object = None
    error: BaseException | None = None


def run_pass(workload, api, items, tracer=None, after=None) -> list[Call]:
    """Call the program once per item; time each call and nothing else.

    ``after(seconds)`` runs between calls, outside the timed region.
    """
    clock = time.perf_counter
    call = workload.call if tracer is None else tracer.span("bench.op", workload.call)
    calls = []
    for op, item in enumerate(items):
        if tracer is not None:
            tracer.op = op
        t0 = clock()
        try:
            calls.append(Call(item, t0, result=call(api, item)))
        except Exception as exc:  # a raising call is a failed operation
            calls.append(Call(item, t0, error=exc))
        calls[-1].seconds = clock() - t0
        if after is not None:
            after(calls[-1].seconds)
    return calls


def _float_bits(x) -> bytes:
    return b"-" if x is None else struct.pack("<d", float(x))


@dataclass(frozen=True)
class VerdictWorkload:
    """``classify`` on seeded inputs from families with known answers."""

    name: str
    why: str
    spins: tuple[int, ...]
    counts: dict[str, int]
    smoke_counts: dict[str, int]

    kind = "verdicts"

    def make_items(self, seed: int, smoke: bool):
        return inputs.make_inputs(seed, self.spins, self.smoke_counts if smoke else self.counts)

    @staticmethod
    def call(api, item):
        m = api.spinalg.MomentMatrix.from_matrix(item.two_j, item.matrix)
        return api.feasibility.classify(m)

    @staticmethod
    def check(call: Call) -> Outcome:
        if call.error is not None:
            return Outcome(1, 1, repr(call.error).encode(), reasons=[f"raised {call.error!r}"])
        v = call.result
        path, reason, unevidenced = evidence.check_verdict(v, call.item)
        key = f"{v.status}|{v.stage}|".encode() + _float_bits(v.t_star)
        return Outcome(
            1,
            0 if reason is None else 1,
            key,
            path=path,
            unevidenced=unevidenced,
            reasons=[] if reason is None else [f"{call.item.family} 2j={call.item.two_j}: {reason}"],
        )


@dataclass(frozen=True)
class ScanItem:
    two_j: int
    u: tuple[float, float, float]
    resolution: int
    sets: tuple[str, ...]

    @property
    def key(self) -> str:
        return f"2j={self.two_j} u={self.u} n={self.resolution} sets={''.join(self.sets)}"


def _flags_text(a: np.ndarray) -> str:
    return "".join("x" if f < 0 else str(int(f)) for f in a.ravel())


@lru_cache(maxsize=None)
def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class ScanWorkload:
    """One ``scan_grid`` call per pass on a fixed (v1, v2) slice."""

    name: str
    why: str
    two_j: int
    u: tuple[float, float, float]
    sets: tuple[str, ...]
    resolution: int
    smoke_resolution: int

    kind = "scan"

    def make_items(self, seed: int, smoke: bool):
        # The slice is the paper figure's and fixed, so that its flags can be
        # compared with the reference recorded from the seed commit.
        n = self.smoke_resolution if smoke else self.resolution
        return [ScanItem(self.two_j, self.u, n, self.sets)]

    @staticmethod
    def call(api, item):
        return api.scan.scan_grid(
            item.two_j, item.u, resolution=item.resolution, sets=item.sets, workers=1
        )

    @staticmethod
    def flags(result) -> dict[str, str]:
        return {k: _flags_text(getattr(result, k)) for k in ("in_r", "in_s", "in_t")}

    @staticmethod
    def check(call: Call) -> Outcome:
        cells = call.item.resolution**2
        if call.error is not None:
            return Outcome(cells, cells, repr(call.error).encode(), reasons=[f"raised {call.error!r}"])
        res = call.result
        bad = evidence.check_scan_nesting(res.in_r, res.in_s, res.in_t)
        reasons = []
        if bad.any():
            reasons.append(f"{int(bad.sum())} cells break R <= S <= T")
        ref = load_reference().get(call.item.key)
        if ref is None:
            bad = np.ones_like(bad)
            reasons.append(f"no reference flags for {call.item.key}")
        else:
            for k, text in ScanWorkload.flags(res).items():
                want = np.frombuffer(ref[k].encode(), dtype=np.uint8).reshape(bad.shape)
                got = np.frombuffer(text.encode(), dtype=np.uint8).reshape(bad.shape)
                if (want != got).any():
                    reasons.append(f"{int((want != got).sum())} {k} flags differ from the reference")
                bad |= want != got
        key = b"".join(np.ascontiguousarray(getattr(res, k)).tobytes() for k in ("in_r", "in_s", "in_t"))
        return Outcome(cells, int(bad.sum()), key, reasons=reasons, point_seconds=res.point_seconds)


SCAN_U = (0.1, 0.2, 0.3)

WORKLOADS = {
    w.name: w
    for w in (
        VerdictWorkload(
            name="verdicts-mixed",
            why="classify at 2j in {4, 10, 30} on every decision path: stage order, "
            "the witness SDP after each reject and the small eigen-tests",
            spins=(4, 10, 30),
            counts={"coherent": 3, "dicke": 2, "v-over-1": 2, "dicke-zero": 2},
            smoke_counts={"coherent": 1, "dicke": 1, "v-over-1": 1, "dicke-zero": 1},
        ),
        VerdictWorkload(
            name="verdicts-cap",
            why="classify at the cone cap 2j = 62 on non-PPT inputs: every verdict "
            "solves a 63-dim SDP and the certificate eigensolve is 63x63",
            spins=(62,),
            counts={"dicke": 3, "v-over-1": 3, "dicke-zero": 3},
            smoke_counts={"dicke": 1, "v-over-1": 1, "dicke-zero": 1},
        ),
        ScanWorkload(
            name="scan-figure",
            why="scan_grid of the paper-figure slice (2j = 10, u = (0.1, 0.2, 0.3)) "
            "with R, S, T: the scan loop, eigen-tests and many d = 11 SDPs",
            two_j=10,
            u=SCAN_U,
            sets=("R", "S", "T"),
            resolution=15,
            smoke_resolution=7,
        ),
        ScanWorkload(
            name="scan-outer",
            why="the same slice with R, T only: no SDP runs, so only the scan loop, "
            "matcore and reduction are measured",
            two_j=10,
            u=SCAN_U,
            sets=("R", "T"),
            resolution=21,
            smoke_resolution=7,
        ),
    )
}

