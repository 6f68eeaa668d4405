"""Region scans over the renormalized coordinates (v1, v2) at fixed u.

Every grid point fixes v3 = 1 - v1 - v2 (the Casimir constraint) and is
classified against the inner PPT set R, the exact extendible set S_j and the
outer set T_j: rho and chi PSD (``spinalg.chi_matrix``; see ``reduction``).
rho, its partial transpose and chi are linear in the moment vector b, which
is affine in (v1, v2), so R and T come from one positivity mask
(``matcore.psd_mask``, an LDL^dag vectorized over the stack) per map, on
blocks of whole grid rows that hold at most ``sdp.BATCH_ENTRIES`` entries.
The SDP runs only on cells in T but not R, which is sound because the three
sets are nested.  Those cells share one operator stack and differ only in
their moment values, so they are decided by batched phase-1 solves (as in
``feasibility.exact_test_batch``, fed the values b directly), one kernel
chunk at a time, of which only the flags are kept (``ScanResult`` counts the
factored accepts and the kernel solves).  Output goes to CSV and optionally
to a simple SVG rendering.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import feasibility, matcore, reduction, sdp, spinalg

SVG_COLORS = {"R": "#1b5e90", "S": "#5aa9d6", "T": "#c6e3f2"}
_SVG_SIZE = 640  # side of the plotted square, in pixels
_SVG_MARGIN = 60
_CSV_HEADER = ("v1", "v2", "in_R", "in_Sj", "in_Tj")


@dataclass(frozen=True)
class ScanResult:
    """Grid membership flags; ``in_s`` is -1 where the exact set was skipped.

    ``point_seconds`` holds each cell's share of the batched R/T time plus,
    on a cell that needed the SDP, its share of the batched exact solve that
    decided it: every cell of one batch gets the same share.  Of the cells
    that needed it, ``s_factored`` were accepted by the factored stage of
    ``sdp.phase1_min_t`` and ``s_kernel`` decided by its interior point
    kernel; the rest had an axial or four-block frame, decided in closed form."""

    two_j: int
    u: np.ndarray
    v1_values: np.ndarray
    v2_values: np.ndarray
    in_r: np.ndarray
    in_s: np.ndarray
    in_t: np.ndarray
    point_seconds: np.ndarray
    s_factored: int = 0
    s_kernel: int = 0

    def area(self, which: str) -> int:
        """Number of member cells of one of the sets R, S, T."""
        flags = {"R": self.in_r, "S": self.in_s, "T": self.in_t}[which.upper()]
        return int((flags == 1).sum())

    def to_csv(self, path: str) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_HEADER)
            for i1, v1 in enumerate(self.v1_values):
                for i2, v2 in enumerate(self.v2_values):
                    s = self.in_s[i1, i2]
                    writer.writerow(
                        [
                            f"{v1:.12g}",
                            f"{v2:.12g}",
                            int(self.in_r[i1, i2]),
                            "" if s < 0 else int(s),
                            int(self.in_t[i1, i2]),
                        ]
                    )

    def to_svg(self, path: str) -> None:
        """Render the nested regions as filled grid cells (SVG 1.1, no dependencies).

        Cell fills use the innermost membership: R inside S inside T.  Cells are
        emitted row-major with ids c-<i1>-<i2> so the drawing can be checked
        against the CSV flags.
        """
        size, margin = _SVG_SIZE, _SVG_MARGIN
        n1 = len(self.v1_values)
        n2 = len(self.v2_values)
        cw = size / n1
        ch = size / n2
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{size + 2 * margin}" height="{size + 2 * margin}">',
            f'<rect x="{margin}" y="{margin}" width="{size}" height="{size}" '
            'fill="white" stroke="black" stroke-width="1"/>',
        ]
        for i1 in range(n1):
            for i2 in range(n2):
                if self.in_r[i1, i2] == 1:
                    fill = SVG_COLORS["R"]
                elif self.in_s[i1, i2] == 1:
                    fill = SVG_COLORS["S"]
                elif self.in_t[i1, i2] == 1:
                    fill = SVG_COLORS["T"]
                else:
                    continue
                x = margin + i1 * cw
                y = margin + size - (i2 + 1) * ch
                lines.append(
                    f'<rect id="c-{i1}-{i2}" x="{x:.3f}" y="{y:.3f}" '
                    f'width="{cw:.3f}" height="{ch:.3f}" fill="{fill}"/>'
                )
        j_label = f"{self.two_j // 2}" if self.two_j % 2 == 0 else f"{self.two_j}/2"
        u_label = ", ".join(f"{x:g}" for x in self.u)
        lines.append(
            f'<text x="{margin}" y="{margin - 20}" font-size="16">'
            f"moment regions at j = {j_label}, u = ({u_label})</text>"
        )
        lines.append(
            f'<text x="{margin + size / 2}" y="{size + 2 * margin - 15}" '
            f'font-size="14" text-anchor="middle">v1</text>'
        )
        lines.append(
            f'<text x="15" y="{margin + size / 2}" font-size="14" '
            f'transform="rotate(-90 15 {margin + size / 2})" text-anchor="middle">v2</text>'
        )
        for i, (name, color) in enumerate(SVG_COLORS.items()):
            x = margin + size - 150 + i * 50
            lines.append(f'<rect x="{x}" y="{margin - 32}" width="14" height="14" fill="{color}"/>')
            lines.append(f'<text x="{x + 18}" y="{margin - 20}" font-size="13">{name}</text>')
        lines.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _moments(two_j: int, u: np.ndarray, v1: float, v2: float):
    coords = reduction.RenormalizedCoords(u=u, v=np.array([v1, v2, 1.0 - v1 - v2]), two_j=two_j)
    return reduction.moments_from_coords(coords)


def _point_flags(two_j: int, u: np.ndarray, v1: float, v2: float, want_s: bool):
    """One cell from scratch: the per-cell reference for the batched scan."""
    m = _moments(two_j, u, v1, v2)
    rho = reduction.reconstruct_rho(m)
    rho_psd = matcore.min_eigenvalue(rho) >= -matcore.PSD_TOL
    in_r = rho_psd and reduction.ppt_inner_test(rho)
    in_t = rho_psd and matcore.is_psd(spinalg.chi_matrix(m))
    if not want_s:
        return in_r, -1, in_t
    if in_r:
        return in_r, 1, in_t
    if not in_t:
        return in_r, 0, in_t
    verdict = feasibility.exact_test_direct(m)
    return in_r, 1 if verdict.accepted else 0, in_t


def _slice_maps(two_j: int, u: np.ndarray):
    """(c0, d1, d2) for each of rho, PT(V rho V^dag) and chi, which are affine in
    (v1, v2) at fixed u: a cell's matrix is c0 + v1 d1 + v2 d2, from b at the corners
    (v1, v2) = (0, 0), (1, 0), (0, 1), where v = (0, 0, 1), (1, 0, 0), (0, 1, 0)."""
    b0, b1, b2 = (reduction._coords_values(two_j, u, v) for v in np.eye(3)[[2, 0, 1]])
    basis = np.stack([b0, b1 - b0, b2 - b0])
    rho = matcore.combine(basis, reduction._reconstruction_system(two_j))
    pt = [reduction._partial_transpose(r) for r in rho]
    return [rho, pt, matcore.combine(basis, spinalg.CHI_PATTERN)]


def _exact_cells(args) -> tuple[list[bool], list[float], tuple[int, int]]:
    """Exact tests of cells in T but not R, one kernel chunk at a time; returns
    (accepted, seconds) per cell, each cell timed at its chunk's share, and
    how many cells the factored stage and the kernel decided.  A chunk's
    moment values come straight from its cells' coordinates, in one product."""
    two_j, u, points = args
    program = feasibility._moment_program(two_j)
    step = sdp.batch_size(program.rows.stack.size)
    accepted, seconds, factored, kernel = [], [], 0, 0
    for a in range(0, len(points), step):
        t0 = time.perf_counter()
        v = np.array(points[a : a + step])
        chunk = reduction._coords_values(two_j, u, np.column_stack([v, 1.0 - v[:, 0] - v[:, 1]]))
        for v in feasibility._phase1_verdicts("exact", two_j, chunk, decide=True):
            accepted.append(v.accepted)
            record = v.tests_run[0]  # the exact stage
            if sdp.FACTORED in record.detail:
                factored += 1
            elif record.frame in (None, "parity"):
                kernel += 1
        seconds += [(time.perf_counter() - t0) / len(chunk)] * len(chunk)
    return accepted, seconds, (factored, kernel)


def scan_grid(
    two_j: int,
    u,
    v1_range=(-0.2, 1.0),
    v2_range=(-0.2, 1.0),
    resolution: int = 101,
    sets=("R", "S", "T"),
    workers: int = 1,
) -> ScanResult:
    """Classify a (v1, v2) grid at fixed u against the requested sets, S
    (skipped unless requested) as the module docstring says.  ``workers`` > 1
    splits the SDP cells into that many contiguous spans, at most one per CPU
    and per cell, each decided in its own process, collected in cell order.
    """
    two_j = reduction._require_j_ge_1(two_j)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if resolution < 2 or resolution > 1024:
        raise ValueError("resolution must be between 2 and 1024")
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("u must be a real 3-vector")
    matcore._check_finite("first moments", "u", u)
    names = {str(x).upper() for x in sets}
    unknown = sorted(names - {"R", "S", "T"})
    if unknown:
        raise ValueError(f"unknown set names {unknown}: use a subset of R, S, T")
    want_s = "S" in names
    for name, (lo, hi) in (("v1", v1_range), ("v2", v2_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range ({lo}, {hi}) must be finite")
    t0 = time.perf_counter()
    in_r = np.zeros((resolution, resolution), dtype=bool)
    in_t = np.zeros_like(in_r)
    with matcore._no_overflow("scan slice"):
        v1s = np.linspace(v1_range[0], v1_range[1], resolution)
        v2s = np.linspace(v2_range[0], v2_range[1], resolution)
        maps = _slice_maps(two_j, u)
        # blocks of whole rows whose three stacks together hold at most BATCH_ENTRIES entries
        step = sdp.batch_size(resolution * sum(c0.size for c0, _, _ in maps))
        for a in range(0, resolution, step):
            v1 = v1s[a : a + step, None, None, None]
            rho_psd, pt_psd, chi_psd = (
                matcore.psd_mask(c0 + v1 * d1 + v2s[:, None, None] * d2) for c0, d1, d2 in maps
            )
            in_r[a : a + step] = rho_psd & pt_psd
            in_t[a : a + step] = rho_psd & chi_psd
    secs = np.full(in_r.shape, (time.perf_counter() - t0) / in_r.size)

    s = np.full(in_r.shape, -1, dtype=np.int8)
    factored = kernel = 0
    if want_s:
        s[:] = in_r
        cells = np.argwhere(in_t & ~in_r)
        points = [(float(v1s[i1]), float(v2s[i2])) for i1, i2 in cells]
        edges = np.linspace(0, len(points), min(workers, os.cpu_count() or 1, len(points)) + 1).astype(int)
        spans = list(zip(edges[:-1], edges[1:]))
        jobs = [(two_j, u, points[a:b]) for a, b in spans]
        if len(jobs) <= 1:
            done = list(map(_exact_cells, jobs))
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                done = list(pool.map(_exact_cells, jobs))
        for (a, b), (accepted, seconds, (by_stage, by_kernel)) in zip(spans, done):
            chunk = tuple(cells[a:b].T)
            s[chunk] = accepted
            secs[chunk] += seconds
            factored += by_stage
            kernel += by_kernel

    return ScanResult(two_j, u, v1s, v2s, in_r.astype(np.int8), s, in_t.astype(np.int8), secs, factored, kernel)
