"""Region scans over the renormalized coordinates (v1, v2) at fixed u.

Every grid point fixes v3 = 1 - v1 - v2 (the Casimir constraint) and is
classified against the inner PPT set R, the exact extendible set S_j and the
outer reduced-expectation-value set T_j.  R and T come from stacked 4x4
eigenvalue tests, a grid row at a time; the SDP runs only on cells in T but
not R, which is sound because the three sets are nested.  Output goes to CSV
and optionally to a simple SVG rendering.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import feasibility, matcore, reduction

SVG_COLORS = {"R": "#1b5e90", "S": "#5aa9d6", "T": "#c6e3f2"}
_CSV_HEADER = ("v1", "v2", "in_R", "in_Sj", "in_Tj")


@dataclass(frozen=True)
class ScanResult:
    """Grid membership flags; ``in_s`` is -1 where the exact set was skipped.

    ``point_seconds`` holds each cell's share of the batched R/T time plus
    the seconds of its own exact test, if it ran one."""

    two_j: int
    u: np.ndarray
    v1_values: np.ndarray
    v2_values: np.ndarray
    in_r: np.ndarray
    in_s: np.ndarray
    in_t: np.ndarray
    point_seconds: np.ndarray

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    def area(self, which: str) -> int:
        """Number of member cells of one of the sets R, S, T."""
        flags = {"R": self.in_r, "S": self.in_s, "T": self.in_t}[which.upper()]
        return int((flags == 1).sum())

    def to_csv(self, path: str) -> None:
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

    def to_svg(self, path: str, size: int = 640, margin: int = 60) -> None:
        write_scan_svg(self, path, size=size, margin=margin)


def _moments(two_j: int, u: np.ndarray, v1: float, v2: float):
    coords = reduction.RenormalizedCoords(u=u, v=np.array([v1, v2, 1.0 - v1 - v2]), two_j=two_j)
    return reduction.moments_from_coords(coords)


def _point_flags(two_j: int, u: np.ndarray, v1: float, v2: float, want_s: bool):
    """One cell from scratch: the per-cell reference for the batched scan."""
    m = _moments(two_j, u, v1, v2)
    rho = reduction.reconstruct_rho(m)
    rho_psd = matcore.min_eigenvalue(rho) >= -matcore.PSD_TOL
    in_r = rho_psd and reduction.ppt_inner_test(rho)
    in_t = rho_psd and matcore.is_psd(reduction.tau(rho, two_j))
    if not want_s:
        return in_r, -1, in_t
    if in_r:
        return in_r, 1, in_t
    if not in_t:
        return in_r, 0, in_t
    verdict = feasibility.exact_test_direct(m)
    return in_r, 1 if verdict.accepted else 0, in_t


def _slice_maps(two_j: int, u: np.ndarray):
    """(c0, d1, d2) for each of rho, PT(V rho V^dag) and tau, which are affine in
    (v1, v2) at fixed u: a cell's matrix is c0 + v1 d1 + v2 d2."""
    corners = []
    for v1, v2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
        rho = reduction.reconstruct_rho(_moments(two_j, u, v1, v2))
        pt = matcore.hermitize(reduction._partial_transpose(rho), tol=1e-10)
        corners.append((rho, pt, reduction.tau(rho, two_j)))
    return [(c0, c1 - c0, c2 - c0) for c0, c1, c2 in zip(*corners)]


def _exact_cell(args) -> tuple[bool, float]:
    """Exact test of one cell in T but not R; returns (accepted, seconds)."""
    two_j, u, v1, v2 = args
    t0 = time.perf_counter()
    accepted = feasibility.exact_test_direct(_moments(two_j, u, v1, v2)).accepted
    return accepted, time.perf_counter() - t0


def scan_grid(
    two_j: int,
    u,
    v1_range=(-0.2, 1.0),
    v2_range=(-0.2, 1.0),
    resolution: int = 101,
    sets=("R", "S", "T"),
    workers: int = 1,
) -> ScanResult:
    """Classify a (v1, v2) grid at fixed u against the requested sets.

    R and T come from the affine maps of ``_slice_maps`` (T through tau, as
    chi = D tau D would scale the tolerance edge by up to j^2).  S is skipped
    unless requested; only its cells in T but not R run the SDP, in ``workers``
    processes when ``workers`` > 1, with results collected in cell order.
    """
    two_j = reduction._require_j_ge_1(two_j)
    if resolution < 2 or resolution > 1024:
        raise ValueError("resolution must be between 2 and 1024")
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise ValueError("u must be a real 3-vector")
    names = {str(x).upper() for x in sets}
    unknown = sorted(names - {"R", "S", "T"})
    if unknown:
        raise ValueError(f"unknown set names {unknown}: use a subset of R, S, T")
    want_s = "S" in names
    for name, (lo, hi) in (("v1", v1_range), ("v2", v2_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range ({lo}, {hi}) must be finite")
    v1s = np.linspace(v1_range[0], v1_range[1], resolution)
    v2s = np.linspace(v2_range[0], v2_range[1], resolution)

    t0 = time.perf_counter()
    maps = _slice_maps(two_j, u)
    in_r = np.zeros((resolution, resolution), dtype=bool)
    in_t = np.zeros_like(in_r)
    for i1, v1 in enumerate(v1s):
        rho_psd, pt_psd, tau_psd = (
            np.linalg.eigvalsh(c0 + v1 * d1 + v2s[:, None, None] * d2)[:, 0] >= -matcore.PSD_TOL
            for c0, d1, d2 in maps
        )
        in_r[i1] = rho_psd & pt_psd
        in_t[i1] = rho_psd & tau_psd
    secs = np.full(in_r.shape, (time.perf_counter() - t0) / in_r.size)

    s = np.full(in_r.shape, -1, dtype=np.int8)
    if want_s:
        s[:] = in_r
        cells = np.argwhere(in_t & ~in_r)
        jobs = [(two_j, u, float(v1s[i1]), float(v2s[i2])) for i1, i2 in cells]
        if workers <= 1 or not jobs:
            done = list(map(_exact_cell, jobs))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(_exact_cell, jobs))
        for (i1, i2), (accepted, seconds) in zip(cells, done):
            s[i1, i2] = accepted
            secs[i1, i2] += seconds

    return ScanResult(two_j, u, v1s, v2s, in_r.astype(np.int8), s, in_t.astype(np.int8), secs)


def read_scan_csv(path: str):
    """Read back a scan CSV: returns (rows, header) with numeric fields parsed.

    Each row is (v1, v2, in_r, in_s, in_t) with in_s None when it was skipped.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            v1, v2, fr, fs, ft = rec
            rows.append(
                (float(v1), float(v2), int(fr), None if fs == "" else int(fs), int(ft))
            )
    return rows, header


def write_scan_svg(result: ScanResult, path: str, size: int = 640, margin: int = 60) -> None:
    """Render the nested regions as filled grid cells (SVG 1.1, no dependencies).

    Cell fills use the innermost membership: R inside S inside T.  Cells are
    emitted row-major with ids c-<i1>-<i2> so the drawing can be checked
    against the CSV flags.
    """
    n1 = len(result.v1_values)
    n2 = len(result.v2_values)
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
            if result.in_r[i1, i2] == 1:
                fill = SVG_COLORS["R"]
            elif result.in_s[i1, i2] == 1:
                fill = SVG_COLORS["S"]
            elif result.in_t[i1, i2] == 1:
                fill = SVG_COLORS["T"]
            else:
                continue
            x = margin + i1 * cw
            y = margin + size - (i2 + 1) * ch
            lines.append(
                f'<rect id="c-{i1}-{i2}" x="{x:.3f}" y="{y:.3f}" '
                f'width="{cw:.3f}" height="{ch:.3f}" fill="{fill}"/>'
            )
    j_label = f"{result.two_j // 2}" if result.two_j % 2 == 0 else f"{result.two_j}/2"
    u_label = ", ".join(f"{x:g}" for x in result.u)
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
