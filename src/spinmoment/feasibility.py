"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 program over the spin-j state space;
the cheap inner (PPT / separability) and outer (reduced expectation value
matrix) tests bracket it from both sides, in the stage order of
``classify``.  Every piece of evidence comes from the computation that
decided it.  Every phase-1 decision, single or batched, is made, timed and
read by ``_phase1_verdicts``: an accept's certificate is the primal X, a
reject's witness the dual over the measured operators (``_read_phase1``).
Every measured operator is a pair lift P^dag(K_i) (``_lift``), so the
operator stack and all three closed-form witnesses are bands with no spin
matrix, and the extension program over a pair state rho is the direct
program on b = K·rho.  Everything works over the moment vector b of
``spinalg.moment_values``.  An input with a frame is decided in it, in
real arithmetic: ``exact_test_direct`` states the rule and why it is exact.

Every witness over ``spinalg.MOMENT_LABELS`` is canonical: its
coefficients are orthogonal to the Casimir vector r (``_canonical``), along
which sum_i r_i A_i = 0, so the projection leaves Z alone.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import matcore, reduction, sdp, spinalg
from .matcore import BOUNDARY_BAND
from .spinalg import MomentMatrix

STATUS_QUANTUM = "quantum"
STATUS_NON_QUANTUM = "non-quantum"
STATUS_BOUNDARY = "boundary"

_FIRST_MOMENTS = [0, 7, 8, 9]  # I, L1, L2, L3 within MOMENT_LABELS
# The operators each kind of frame keeps (``exact_test_direct``): those its symmetry
# fixes, less S11 and S22 in an axial frame, where on diagonal X both are (j(j+1) I - S33)/2
_KEPT = {"parity": [0, 1, 4, 6, 9], "four-block": [0, 1, 4, 6], "axial": [0, 6, 9]}


@dataclass(frozen=True)
class StageRecord:
    """One stage of a decision; ``frame`` is the kind of frame a phase-1 stage
    decided in ("parity", in blocks, or "four-block" or "axial", with no SDP:
    ``exact_test_direct``), None for the complex program and for every other
    stage."""

    name: str
    outcome: str
    seconds: float
    detail: str = ""
    frame: str | None = None


@dataclass(frozen=True)
class Witness:
    """Separating hyperplane Z = sum_i c_i A_i with Z >= 0 and tr Z = 1.

    The A_i are the measured operators named by ``op_labels`` and c is
    ``op_coefficients``.  ``value`` = c . values on the input's expectation
    values, which is <Z, X> for any X reproducing them; it is negative exactly
    when the input is detected as non-quantum.
    """

    matrix: np.ndarray
    value: float
    op_coefficients: np.ndarray
    op_labels: tuple[str, ...]

    @property
    def separates(self) -> bool:
        return self.value < -BOUNDARY_BAND

    def evaluate(self, values: np.ndarray) -> float:
        """Apply the hyperplane to the expectation values of the labelled operators."""
        values = np.asarray(values)
        if values.shape != self.op_coefficients.shape:
            raise ValueError(
                f"expected {len(self.op_labels)} values over {self.op_labels}, got shape {values.shape}"
            )
        return float(values @ self.op_coefficients)


@dataclass(frozen=True)
class Verdict:
    """A decision with its evidence.

    ``t_star`` is set where the phase-1 value t* or a certified bound on it
    is known: on the SDP stages, and on a spin-1 reconstruct accept, where
    t* = -lambda_min(rho_j) in closed form.  ``t_star_kind`` says which
    value it is: "optimum", or the certified "primal bound" (t* <= t_star <
    -BOUNDARY_BAND) or "dual bound" (t* >= t_star > BOUNDARY_BAND) at which
    ``classify``'s exact stage stopped.
    """

    status: str
    stage: str
    t_star: float | None
    certificate_state: np.ndarray | None
    witness: Witness | None
    tests_run: tuple[StageRecord, ...]
    t_star_kind: str | None = None

    @property
    def accepted(self) -> bool:
        return self.status in (STATUS_QUANTUM, STATUS_BOUNDARY)


class _StageLog:
    def __init__(self, spent: float = 0.0) -> None:
        """``spent``: seconds the first stage took before the log was opened."""
        self.records: list[StageRecord] = []
        self._t0 = time.perf_counter() - spent

    def add(self, name: str, outcome: str, detail: str = "", frame: str | None = None) -> None:
        now = time.perf_counter()
        self.records.append(StageRecord(name, outcome, now - self._t0, detail, frame))
        self._t0 = now

    def done(self) -> tuple[StageRecord, ...]:
        return tuple(self.records)


@lru_cache(maxsize=None)
def _moment_operator_set(two_j: int) -> np.ndarray:
    """Operators whose expectation values a moment matrix prescribes, stacked.

    Order matches ``spinalg.MOMENT_LABELS``: identity, the six symmetrized
    products (L_k L_l + L_l L_k)/2 for k <= l, then the three bare spin
    operators, each lifted by ``_lift``.  Only the phase-1 programs need it,
    so it is cached per spin and raises the cone-cap ``ValueError`` first.
    """
    sdp._check_dim(two_j + 1)
    return _lift(np.eye(len(spinalg.MOMENT_LABELS)), two_j)


@lru_cache(maxsize=None)
def _moment_program(two_j: int) -> sdp.Phase1Program:
    """The dependency pass over ``_moment_operator_set(two_j)``, cached beside it, so
    that the exact tests at one spin run it once; the stack raises the cone-cap
    ``ValueError`` first, so nothing is cached above the cap."""
    return sdp.phase1_program(_moment_operator_set(two_j))


@lru_cache(maxsize=None)
def _frame_blocks(kind: str, two_j: int) -> tuple[np.ndarray, ...]:
    """The blocks of a parity or four-block frame, as real orthonormal (d, d_b)
    bases over the J_z basis, whose index a holds m = j - a: the two parities
    of a (the pi turn about z) in a parity frame; and in a four-block frame,
    at integer j, the parities of a of (|m> + |-m>)/sqrt2 with |0>, and of
    (|m> - |-m>)/sqrt2, m > 0 (the pi turns about z and x)."""
    eye = np.eye(two_j + 1)
    if kind == "parity":
        return eye[:, ::2], eye[:, 1::2]
    half = np.arange(two_j // 2)  # the levels m > 0
    plus = (eye[:, half] + eye[:, two_j - half]) / math.sqrt(2.0)
    minus = (eye[:, half] - eye[:, two_j - half]) / math.sqrt(2.0)
    zero = eye[:, [two_j // 2]]
    even, odd = half % 2 == 0, half % 2 == 1
    if two_j // 2 % 2 == 0:
        blocks = np.hstack([plus[:, even], zero]), minus[:, even], plus[:, odd], minus[:, odd]
    else:
        blocks = plus[:, even], minus[:, even], np.hstack([plus[:, odd], zero]), minus[:, odd]
    return tuple(q for q in blocks if q.shape[1])  # at 2j = 2 one is empty


@lru_cache(maxsize=None)
def _frame_basis(kind: str, two_j: int) -> np.ndarray:
    """The bases of ``_frame_blocks`` side by side: the (d, d) orthogonal Q, the
    identity in an axial frame, whose blocks are the levels."""
    return np.eye(two_j + 1) if kind == "axial" else np.hstack(_frame_blocks(kind, two_j))


@lru_cache(maxsize=None)
def _frame_program(kind: str, two_j: int) -> sdp.Phase1Program:
    """The dependency pass over the operators a parity or four-block frame
    keeps, as float64 blocks (``_frame_blocks``), cached per spin beside
    ``_moment_program``: the parity program, and the two rows
    ``_four_block_optimum`` searches over."""
    ops = _moment_operator_set(two_j)[_KEPT[kind]].real
    return sdp.phase1_program(tuple(q.T @ ops @ q for q in _frame_blocks(kind, two_j)))


@lru_cache(maxsize=None)
def _polygon_facets(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The facets f of conv{(m, m^2)} that ``_axial_optimum`` maximizes over,
    cached per spin: the levels m (index a holds m = j - a), each f's
    coefficients over (I, S33, L3), tr f, and the two levels a certificate
    on f sits on."""
    j, d = two_j / 2.0, two_j + 1
    levels = j - np.arange(d)
    if two_j == 1:
        facets = np.array([[j, 0.0, -1.0], [j, 0.0, 1.0]])
        support = np.array([[-j, j], [-j, j]])  # the levels; the side's far one gets q = 0
    else:
        m0 = levels[:0:-1]
        chords = np.stack([m0 * (m0 + 1.0), np.ones(two_j), -(2.0 * m0 + 1.0)], axis=1)
        facets = np.vstack([chords, [j * j, -1.0, 0.0]])
        support = np.vstack([np.stack([m0, m0 + 1.0], axis=1), [-j, j]])
    return levels, facets, facets @ [d, j * (j + 1.0) * d / 3.0, 0.0], support


def _axial_optimum(values: np.ndarray, two_j: int) -> list[sdp.Phase1Result]:
    """The direct program in an axial frame in closed form: one
    ``sdp.Phase1Result`` per row of the (k, 3) frame values b' = (tr X,
    c = <L3^2>, l3) over ``_KEPT["axial"]``.

    X is diagonal there (``exact_test_direct``), so q = diag(X) + t >= 0 has
    sum q = b'_0 + d t, sum q m = l3 and sum q m^2 = c + t S2, S2 = j(j+1)d/3:
    a point of the cone over the polygon conv{(m, m^2)}.  Each facet
    f(m) = f_I + f_S m^2 + f_L m >= 0 on the levels bounds t >= -<f(L3), b'>/tr f,
    and t* is the largest bound over the lower chords (m - m0)(m - m0 - 1),
    m0 = -j .. j-1, and the top chord j^2 - m^2.  At 2j = 1 these have
    tr f = 0 and the sides j -+ m replace them (at 2j >= 2 the chords imply
    them); S33 = 1/4 there, so a value off b'_0/4 conflicts (``ValueError``).

    The active facet's Z' = f(L3)/tr f is the witness, coefficients f/tr f,
    value -t*.  The certificate is X' = diag(q) - t*·1 with q on the facet's
    two levels, fixed by sum q and sum q m; at the optimum q >= 0 and it meets
    sum q m^2 too; ``factor`` holds Y = diag(q) as the two rows sqrt(q_r) e_r.
    The record is optimal at 0 iterations with gap 0, with or without
    ``decide``."""
    if two_j == 1:
        off = np.abs(values[:, 1] - values[:, 0] / 4.0)
        bad = np.flatnonzero(off > sdp.CONFLICT_TOL * (1.0 + np.abs(values).max(axis=1)))
        if bad.size:
            raise ValueError(f"the values conflict: S33 = 1/4 at j = 1/2, off by {off[bad[0]]:.1e}")
    j, d = two_j / 2.0, two_j + 1
    levels, facets, traces, support = _polygon_facets(two_j)
    bounds = -(values @ facets.T) / traces
    results = []
    for b, k, row in zip(values, np.argmax(bounds, axis=1), bounds):
        t = float(row[k])
        s, (lo, hi) = b[0] + d * t, support[k]
        y, factor = np.zeros((d, d)), np.zeros((2, d))
        a_lo, a_hi = round(j - lo), round(j - hi)
        y[a_lo, a_lo], y[a_hi, a_hi] = (hi * s - b[2]) / (hi - lo), (b[2] - lo * s) / (hi - lo)
        factor[0, a_lo], factor[1, a_hi] = np.sqrt(np.maximum(0.0, [y[a_lo, a_lo], y[a_hi, a_hi]]))
        c = facets[k] / traces[k]
        z = np.diag(c[0] + c[1] * levels**2 + c[2] * levels)
        point = s / d  # tr Y/d, Y = X' + t*·1
        sol = sdp.SdpSolution(
            sdp.STATUS_OPTIMAL, y, None, z, primal_objective=point, dual_objective=point, gap=0.0,
            primal_residual=0.0, dual_residual=0.0, mu=0.0, iterate_log=[(point, point, 0.0, 0.0)],
        )
        results.append(sdp.Phase1Result(t, y - t * np.eye(d), sol, dual_z=z, dual_coefficients=c, factor=factor))
    return results


_EVALUATIONS = 60  # eigensolves per program of ``_four_block_optimum`` before a numerical failure


def _four_block_optimum(values: np.ndarray, two_j: int, decide: bool) -> list[sdp.Phase1Result]:
    """The direct program in a four-block frame with no SDP: one
    ``sdp.Phase1Result`` per row of the (4,) or (k, 4) values over
    ``_KEPT["four-block"]``, the programs searched side by side.

    The trace and the Casimir leave two orthonormal rows R1, R2 of
    ``_frame_program``.  With s = (fitted trace)/d and b~ the values over
    them, t* = g(b~)/d - s for the gauge g of b~ over W, the field of values
    of R1 + iR2 (Johnson, SIAM J. Numer. Anal. 15, 595 (1978)).  The top
    eigenpair (h, v) of u.R over the blocks, u = (cos theta, sin theta),
    gives a tangent, the dual point y = u/(d h) with t_d = b~.y - s, and a
    support point p = (v^T R1 v, v^T R2 v) on the edge of W.  The chord of
    two support points on either side of the ray along b~ meets it at b~/tau:
    Y = tau((1 - mu) v_a v_a^T + mu v_b v_b^T) is PSD of rank 2 on both rows,
    and t_p = tau/d - s.  The search starts at arg b~ and at the quarter
    turn away from the side its point fell on, then steps to the outward
    normal of the current chord.  It stops as ``sdp.phase1_min_t`` does:
    with ``decide`` at t_p < -BOUNDARY_BAND or at the best t_d >
    BOUNDARY_BAND, else at t_p - t_d within ``sdp.TOLERANCE`` max(1,
    |t_p + s|), t* = t_p; after ``_EVALUATIONS`` eigensolves it fails.  At
    b~ = 0, Y = 0.  ``iterations`` counts the eigensolves, X is None at a dual
    bound found before any chord, and ``factor`` holds Y's two rows."""
    program = _frame_program("four-block", two_j)
    trace, b = sdp._standard_form(program, np.asarray(values, dtype=float))
    (stack, sizes), d, k = program.rows, two_j + 1, len(b)
    start = np.cumsum([0, *sizes])
    _, _, entry, placed = sdp._layout(tuple(sizes), stack.shape[-1], stack.dtype)
    s, bl = (trace / d).tolist(), b.tolist()
    norm = [math.sqrt(bx * bx + by * by) for bx, by in bl]
    ray = [(bx / n, by / n) if n > 0.0 else (0.0, 0.0) for (bx, by), n in zip(bl, norm)]
    u, y = list(ray), [(0.0, 0.0)] * k
    ends = [[None, None] for _ in range(k)]  # support points clockwise and counterclockwise of the ray
    results: list = [None] * k

    def finish(i: int, status: str, evaluations: int, t_p: float, factor=None, residual=0.0) -> None:
        z = np.zeros((d, d))  # 1/d - y.R as the direct sum of the blocks
        z[placed] = -matcore.combine(y[i], stack)[entry]
        z[np.diag_indices(d)] += 1.0 / d
        pobj, dobj = t_p + s[i], t_d[i] + s[i]
        sol = sdp.SdpSolution(
            status, None if factor is None else factor.T @ factor, np.array(y[i]), z,
            primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj), iterations=evaluations,
            primal_residual=residual, dual_residual=0.0, mu=(pobj - dobj) / d,
            iterate_log=[(pobj, dobj, (pobj - dobj) / d, residual)],
            message=f"no convergence after {evaluations} iterations" if status == sdp.STATUS_FAILURE else "",
        )
        results[i] = sdp._phase1_result(program, trace[i], sol, factor)

    t_d = [-math.inf if n > 0.0 else -s_i for n, s_i in zip(norm, s)]
    for i in [i for i in range(k) if norm[i] == 0.0]:
        finish(i, sdp.STATUS_OPTIMAL, 0, -s[i], np.zeros((0, d)))
    live = [i for i in range(k) if norm[i] > 0.0]
    for evaluations in range(1, _EVALUATIONS + 1):
        if not live:
            break
        at, turn = np.arange(len(live)), np.array([u[i] for i in live])[:, :, None, None, None]
        # u.R entrywise, not by BLAS, so a program's steps do not depend on its batch
        lam, vec = np.linalg.eigh(turn[:, 0] * stack[0] + turn[:, 1] * stack[1])
        top = lam[:, :, -1].argmax(axis=1)
        vec = vec[at, top, :, -1]
        p = np.einsum("rkab,ka,kb->kr", stack[:, top], vec, vec).tolist()
        going = []
        for i, h, blk, v, (px, py) in zip(live, lam[at, top, -1].tolist(), top.tolist(), vec, p):
            (bx, by), (rx, ry), (ux, uy) = bl[i], ray[i], u[i]
            if (bx * ux + by * uy) / (d * h) - s[i] > t_d[i]:  # the best tangent is the dual point
                t_d[i], y[i] = (bx * ux + by * uy) / (d * h) - s[i], (ux / (d * h), uy / (d * h))
            c = rx * py - ry * px  # > 0: counterclockwise of the ray
            ends[i][c >= 0.0] = (px, py, c, blk, v)
            lo, hi = ends[i]
            t_p = tau = math.inf
            if lo is None or hi is None:  # the quarter turn towards the side not found yet
                u[i] = (ry, -rx) if lo is None else (-ry, rx)
            else:  # the chord meets the ray at (1 - mu) p_lo + mu p_hi = b~/tau; next, its normal
                mu = lo[2] / (lo[2] - hi[2])
                qx, qy = lo[0] + mu * (hi[0] - lo[0]), lo[1] + mu * (hi[1] - lo[1])
                if qx * bx + qy * by > 0.0:
                    tau = (bx * bx + by * by) / (qx * bx + qy * by)
                    t_p = tau / d - s[i]
                u[i] = (hi[1] - lo[1], lo[0] - hi[0])
            if decide and t_p < -BOUNDARY_BAND:
                status = sdp.STATUS_PRIMAL_BOUND
            elif decide and t_d[i] > BOUNDARY_BAND:
                status = sdp.STATUS_DUAL_BOUND
            elif t_p < math.inf and t_p - t_d[i] <= sdp.TOLERANCE * max(1.0, abs(t_p + s[i])):
                status = sdp.STATUS_OPTIMAL
            else:
                going.append(i)
                continue
            if t_p == math.inf:
                finish(i, status, evaluations, t_p)
                continue
            factor = np.zeros((2, d))  # sqrt(tau (1 - mu)) v_lo and sqrt(tau mu) v_hi, in their blocks
            for row, weight, (_, _, _, blk, v) in zip(factor, (1.0 - mu, mu), (lo, hi)):
                row[start[blk] : start[blk + 1]] = math.sqrt(tau * weight) * v[: sizes[blk]]
            residual = max(abs(tau * qx - bx), abs(tau * qy - by)) / (1.0 + max(abs(bx), abs(by)))
            finish(i, status, evaluations, t_p, factor, residual)
        live = going
    for i in live:
        finish(i, sdp.STATUS_FAILURE, _EVALUATIONS, math.inf)
    return results


def _canonical(c: np.ndarray, two_j: int) -> np.ndarray:
    """Witness coefficients c over ``spinalg.MOMENT_LABELS`` projected off the
    Casimir vector r, sum_i r_i A_i = S11 + S22 + S33 - j(j+1) 1 = 0: Z is
    unchanged, and r.b is the input's Casimir residual, so the value moves only
    within ``matcore.CASIMIR_TOL``."""
    j = two_j / 2.0
    r = np.array([-j * (j + 1.0), 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    return c - (c @ r) / (r @ r) * r


# Re chi(b) = sum_i b_i _CHI_REAL[i] over the basis {1, L1, L2, L3}; the blocks of
# different i are disjoint, so b_i = <_CHI_READ[i], Re chi(b)>
_CHI_REAL = spinalg.CHI_PATTERN.real.reshape(len(spinalg.MOMENT_LABELS), 16)
_CHI_READ = _CHI_REAL / (_CHI_REAL**2).sum(axis=1, keepdims=True)


class Frame(NamedTuple):
    """A frame of a moment vector b: its ``kind``, the rotation R (rows: the
    new axes) and the (10, 10) map T(R): b -> b' of the moment vector."""

    kind: str
    rotation: np.ndarray
    moments: np.ndarray


def _moment_map(rot: np.ndarray) -> np.ndarray:
    """T(R), read off Re chi(b') = Q Re chi(b) Q^T with Q = diag(1, R)."""
    q = np.eye(4)
    q[1:, 1:] = rot
    return _CHI_READ @ (q[:, None, :, None] * q[None, :, None, :]).reshape(16, 16) @ _CHI_REAL.T


def _broken(kind: str, moments: np.ndarray, two_j: int) -> float:
    """The largest of the values that vanish in a frame of this kind, each over
    its scale: S12, S13 and S23 over j(j+1) and L1 and L2 over j in every kind,
    L3 too in a four-block frame and S11 - S22 in an axial one."""
    j, moments = two_j / 2.0, moments.tolist()
    s, ell = [moments[2], moments[3], moments[5]], [moments[7], moments[8]]
    if kind == "four-block":
        ell.append(moments[9])
    if kind == "axial":
        s.append(moments[1] - moments[4])
    return max(max(map(abs, s)) / (j * (j + 1.0)), max(map(abs, ell)) / j)


def _real_frame(b: np.ndarray, two_j: int) -> Frame | None:
    """The most symmetric frame of the moment vector b (``exact_test_direct``), or None.

    The principal frame comes first.  For l = 0 (|l|/j within
    ``matcore.FRAME_TOL``) its axes are the principal axes of Re(M), z the one
    apart from the closer pair of principal values; otherwise z is along l,
    and x and y are the principal axes of Re(M) within the plane perpendicular
    to l.  It is axial if the vanishing values of ``_broken`` are within
    ``matcore.FRAME_TOL``, else four-block (l = 0 at integer j) or parity if
    they are, and otherwise there is no frame.
    """
    j = two_j / 2.0
    s = (_CHI_REAL.T @ b).reshape(4, 4)[1:, 1:]
    ell = b[7:]
    r = math.sqrt(ell.dot(ell))
    if r > matcore.FRAME_TOL * j:
        plane = np.linalg.svd(ell[None])[2][1:]  # orthonormal rows perpendicular to l
        rot = np.vstack([np.linalg.eigh(plane @ s @ plane.T)[1].T @ plane, ell / r])
        kinds = ("axial", "parity")
    else:
        w, u = np.linalg.eigh(s)
        rot = u.T if w[1] - w[0] <= w[2] - w[1] else u.T[[1, 2, 0]]
        kinds = ("axial", "four-block" if two_j % 2 == 0 else "parity")
    if np.linalg.det(rot) < 0.0:
        rot = rot * [[-1.0], [1.0], [1.0]]
    t = _moment_map(rot)
    for kind in kinds:
        if _broken(kind, t @ b, two_j) <= matcore.FRAME_TOL:
            return Frame(kind, rot, t)
    return None


def _real_frames(batch: np.ndarray, two_j: int) -> list[Frame] | None:
    """The frame of every row of a (k, 10) batch, or None once a row has none."""
    frames = []
    for b in batch:
        frame = _real_frame(b, two_j)
        if frame is None:
            return None
        frames.append(frame)
    return frames


def _euler_zyz(rot: np.ndarray) -> tuple[float, float, float]:
    """(alpha, beta, gamma) with R = Rz(alpha) Ry(beta) Rz(gamma).

    alpha comes from column 3, R_k3 = sin(beta) (cos alpha, sin alpha, ...),
    and gamma from the upper 2x2 block, which holds (1 + cos beta) and
    (1 - cos beta) times the rotations by alpha + gamma and alpha - gamma:
    the first for cos beta >= 0, the second below.  So both stay accurate at
    the gimbal points, where alpha alone is undefined: at beta = 0 (R =
    Rz(alpha + gamma)) and beta = pi (R = Rz(alpha - gamma) Ry(pi)) any alpha
    serves, and gamma follows from it.
    """
    beta = math.atan2(math.hypot(rot[0, 2], rot[1, 2]), rot[2, 2])
    alpha = math.atan2(rot[1, 2], rot[0, 2])
    if rot[2, 2] >= 0.0:
        gamma = math.atan2(rot[1, 0] - rot[0, 1], rot[0, 0] + rot[1, 1]) - alpha
    else:
        gamma = alpha - math.atan2(-rot[1, 0] - rot[0, 1], rot[1, 1] - rot[0, 0])
    return alpha, beta, gamma


@lru_cache(maxsize=None)
def _l2_eigen(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of the lifted L2, cached per spin for ``_spin_rotation``."""
    return np.linalg.eigh(_lift(np.eye(len(spinalg.MOMENT_LABELS))[8], two_j))


def _spin_rotation(rot: np.ndarray, two_j: int, rows: np.ndarray | None = None) -> np.ndarray:
    """V = D^j(R) with V^dag L_k V = sum_l R_kl L_l, for R in SO(3), or for an
    (r, d) array E of ``rows`` only the r combinations E V.

    V = exp(-i alpha L3) exp(-i beta L2) exp(-i gamma L3) over the ZYZ angles
    of ``_euler_zyz``: L3 is diagonal and L2's eigenbasis is cached, so V costs
    one d x d matmul, and r combinations two (r, d) by (d, d) ones.  No spin
    matrix is built.
    """
    alpha, beta, gamma = _euler_zyz(rot)
    w, u = _l2_eigen(two_j)
    m = two_j / 2.0 - np.arange(two_j + 1)  # the diagonal of L3
    if rows is not None:
        return ((rows * np.exp(-1j * alpha * m)) @ u * np.exp(-1j * beta * w)) @ u.conj().T * np.exp(-1j * gamma * m)
    v = (u * np.exp(-1j * beta * w)) @ u.conj().T
    return np.exp(-1j * alpha * m)[:, None] * v * np.exp(-1j * gamma * m)


def _lift(c: np.ndarray, two_j: int) -> np.ndarray:
    """sum_i c_i A_i over the operators A_i of ``spinalg.MOMENT_LABELS``, for a (..., 10) c.

    Above j = 1/2 each A_i is the pair lift P^dag(K_i), K =
    ``reduction.reduction_operators``, as b_i = tr(K_i P(X)) for the pair
    marginal P(X) of any X, so the sum is the band ``_pair_adjoint``(sum_i
    c_i K_i), with no spin matrix; a reject's witness in a frame is built so
    (``_read_phase1``).  At j = 1/2, S_kl = delta_kl/4 and L_k = sigma_k/2.
    """
    if two_j == 1:
        s = [np.eye(2) * (k == l) / 4.0 for k, l in zip(*spinalg._UPPER)]
        ls = [p / 2.0 for p in (reduction._PAULI_X, reduction._PAULI_Y, reduction._PAULI_Z)]
        return matcore.combine(c, np.stack([np.eye(2), *s, *ls]))
    return _pair_adjoint(matcore.combine(c, reduction.reduction_operators(two_j)), two_j)


@lru_cache(maxsize=None)
def _band_weights(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The band of ``_pair_adjoint``, cached per spin: the flat (d, d)
    positions of its five diagonals, and for each entry (a, b) of w the
    weights sqrt(g_a(s) g_b(s)) it adds there, zero off its own diagonal."""
    n, d = two_j, two_j + 1
    s = np.arange(n - 1.0)
    g = np.stack([(n - s) * (n - s - 1), 2 * (s + 1) * (n - s - 1), (s + 1) * (s + 2)])
    g /= n * (n - 1)
    # the diagonal of column - row = o holds rows r = max(0, -o) .. d - 1 - max(0, o), from start[o + 2]
    start = np.cumsum([0, d - 2, d - 1, d, d - 1])
    positions = np.concatenate([np.arange(max(0, -o), d - max(0, o)) * (d + 1) + o for o in range(-2, 3)])
    weights = np.zeros((3, 3, len(positions)))
    top = n - np.arange(n - 1)  # the rows r = top - a that w_ab reaches
    for a in range(3):
        for b in range(3):
            weights[a, b, start[a - b + 2] + top - a - max(0, b - a)] = np.sqrt(g[a] * g[b])
    positions.flags.writeable = weights.flags.writeable = False
    return positions, weights.reshape(9, -1)


def _pair_adjoint(w: np.ndarray, two_j: int) -> np.ndarray:
    """P^dag(w) for the pair marginal P of a 2j-qubit symmetric state.

    w is a (..., 3, 3) stack on the symmetric pair basis; P^dag(w) acts on
    the spin basis and satisfies <P^dag(w), X> = <w, P(X)> for every X.  With
    n = 2j, splitting each Dicke state into pair and rest gives the entry
    (a, b) of P(|D_n^k><D_n^l|) as delta_{k-a, l-b} C(n-2, k-a)
    sqrt(C(2,a) C(2,b) / (C(n,k) C(n,l))).  With s = k - a this is
    sqrt(g_a(s) g_b(s)) for the hypergeometric weights
    g_a(s) = C(2,a) C(n-2,s) / C(n,s+a), each a ratio of two-term products.
    Weight k sits at spin index n - k, so P^dag(w) is a band on diagonals
    -2..2: its entries are the sums over (a, b) of w_ab times the weights
    that ``_band_weights`` tables per spin, in O(n) operations.
    """
    d = two_j + 1
    w = np.asarray(w, dtype=complex)
    positions, weights = _band_weights(two_j)
    band = (w.reshape(*w.shape[:-2], 9, 1) * weights).sum(axis=-2)  # before out: a lower peak
    out = np.zeros((*w.shape[:-2], d * d), dtype=complex)
    out[..., positions] = band
    return out.reshape(*w.shape[:-2], d, d)


def _rejected(stage: str, witness: Witness, log: _StageLog, t_star=None, kind=None) -> Verdict:
    log.add("witness", "found", f"value = {witness.value:.3e}")
    return Verdict(STATUS_NON_QUANTUM, stage, t_star, None, witness, log.done(), kind)


def _eigenvector_witness(stage: str, v: np.ndarray, m: MomentMatrix) -> Witness:
    """Closed-form witness for a chi or reconstruct reject, with no SDP.

    Both stage matrices are linear in the labelled values b, X(b) =
    sum_i b_i F_i over a fixed stack F: chi = sum_i b_i C_i with
    C = ``spinalg.CHI_PATTERN`` and rho_j = sum_i b_i R_i with
    R = ``reduction._reconstruction_system``.  With v the eigenvector of X(b)
    for its most negative eigenvalue, c_i = v^dag F_i v, Z is
    ``_lift``(c) = sum_i c_i A_i over its trace, and value = c.b / tr =
    lambda_min / tr < 0.

    Z >= 0, for each stage:

    - chi: chi_ab = <A_a A_b> over {1, L1, L2, L3}, so with B = sum_a v_a A_a,
      sum_i c_i A_i = sum_ab conj(v_a) v_b A_a A_b = B^dag B >= 0.  It lies in
      span{1, S_kl, L_m} because L_k L_l = S_kl + (i/2) eps_klm L_m, which is
      exactly how chi's lower block carries S_kl and L_m.
    - reconstruct: the moments fix the pair marginal P(X) of every Hermitian X
      and the reconstruction recovers it, so rho(b(X)) = P(X) and
      sum_i c_i tr(A_i X) = v^dag P(X) v = tr(P^dag(|v><v|) X).  Hence
      sum_i c_i A_i = P^dag(|v><v|), which is PSD because P is completely
      positive.

    In both cases Z is PSD and nonzero, so its trace is positive.  The witness
    is valid but not optimal: its value is not -t*.  ``_lift`` builds Z as a
    band, so neither stage builds a spin matrix or the operator stack.
    """
    f = spinalg.CHI_PATTERN if stage == "chi" else reduction._reconstruction_system(m.two_j)
    c = matcore.traces(f, np.outer(v, v.conj())).real
    z = _lift(c, m.two_j)
    norm = float(np.trace(z).real)
    z /= norm
    c = _canonical(c / norm, m.two_j)
    return Witness(z, float(c @ m.values), c, spinalg.MOMENT_LABELS)


_BOUND_KINDS = {sdp.STATUS_PRIMAL_BOUND: "primal bound", sdp.STATUS_DUAL_BOUND: "dual bound"}


def _read_phase1(p1: sdp.Phase1Result, values: np.ndarray, stage: str, log: _StageLog, frame=None) -> Verdict:
    """The verdict of a phase-1 program: a reject carries its dual as the
    witness, an accept its primal X, both in the frame of ``values``.

    X = Y - t_p·1 for the solver's iterate Y >= 0, so lambda_min(X) >= -t_p,
    and X meets the trace and the moments to the solver's rounding and
    residual: the certificate needs no post-processing.  The witness's value
    is -t_d.  t_star is t_p at the optimum, else the bound that decided the
    solve (``Verdict``).

    A solve in a ``Frame`` (kind, R, T) ran on b' = T b over its kind's kept
    labels.  Its coefficients map back as c = T^T c', made canonical, and a
    reject's witness is ``_lift``(c), with no rotation built.  An accept's
    certificate turns back with V = D^j(R) (``_spin_rotation``) and the
    blocks' bases Q (``_frame_basis``): an axial or four-block Y = F^T F of
    two rows (``Phase1Result.factor``) as G^dag G - t*·1, G = (F Q^T) V, in
    O(d^2); a parity X' as W^dag X' W, W = Q^T V.  The stage detail says
    "real frame" and the kind, or, for a factored accept of the complex
    program (``sdp.phase1_min_t``), "factored" and its ||dX||_F.

    A solve that is neither optimal nor decided is an ``ArithmeticError``
    (conflicting values never get here: ``sdp.phase1_min_t`` raises them).
    """
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    t, sol = p1.t_star, p1.solution
    two_j = len(p1.dual_z) - 1
    kind = _BOUND_KINDS.get(sol.status, "optimum")
    name = None if frame is None else frame.kind
    where = f"{sol.message}, " if sol.message else "" if name is None else f"real frame, {name}, "
    detail = f"t_star = {t:.3e}, {sol.iterations} iterations, gap {sol.gap:.0e}, {where}{kind}"
    if t > BOUNDARY_BAND:
        c = p1.dual_coefficients if frame is None else frame.moments[_KEPT[name]].T @ p1.dual_coefficients
        c = _canonical(c, two_j)
        z = p1.dual_z if frame is None else _lift(c, two_j)
        log.add(stage, "reject", detail, name)
        return _rejected(stage, Witness(z, float(c @ values), c, spinalg.MOMENT_LABELS), log, t, kind)
    x = p1.x
    if p1.factor is not None:  # axial or four-block: the rows of Y = F^T F turned back, (F Q^T) V
        g = _spin_rotation(frame.rotation, two_j, p1.factor @ _frame_basis(name, two_j).T)
        x = g.conj().T @ g
        x[np.diag_indices(two_j + 1)] -= t
    elif frame is not None:
        w = _frame_basis(name, two_j).T @ _spin_rotation(frame.rotation, two_j)
        x = w.conj().T @ x @ w
    if frame is not None:
        x += x.conj().T
        x /= 2.0
    status = STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else STATUS_QUANTUM
    log.add(stage, "boundary" if status == STATUS_BOUNDARY else "accept", detail, name)
    return Verdict(status, stage, t, x, None, log.done(), kind)


def _first_moment_witness(b: np.ndarray, two_j: int) -> Witness:
    """The optimal first-moment witness Z = (1 - l^.L/j)/(2j+1) for |l| > j,
    l = b[7:].

    It is PSD because spec(l^.L) = [-j, j] and has unit trace; over
    ``spinalg.MOMENT_LABELS`` its coefficients are 1/(2j+1) on I,
    -l^_k/(j(2j+1)) on L_k and 0 on each S_kl, made canonical, which moves
    an equal share of the I coefficient onto S11, S22 and S33.  Its value
    c.b is (1 - |l|/j)/(2j+1) = -t* up to the Casimir residual of b.  Z is
    built by ``_lift``, like the chi and reconstruct witnesses: above j = 1/2
    as a band, with no spin matrix.
    """
    j, d = two_j / 2.0, two_j + 1
    ell = b[7:]
    n_hat = ell / float(np.linalg.norm(ell))
    c = np.zeros(len(spinalg.MOMENT_LABELS))
    c[_FIRST_MOMENTS] = np.concatenate([[1.0], -n_hat / j]) / d
    z = _lift(c, two_j)
    c = _canonical(c, two_j)
    return Witness(z, float(c @ b), c, spinalg.MOMENT_LABELS)


def _first_moment_vector(ell) -> np.ndarray:
    """``ell`` as a finite real 3-vector, or a ``ValueError``."""
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (3,):
        raise ValueError("first moments must be a real 3-vector")
    matcore._check_finite("first moments", "l", ell)
    return ell


def _first_moment_stage(b: np.ndarray, two_j: int, log: _StageLog, final: bool) -> Verdict | None:
    """The first-moment law |l| <= j on the moment vector b, l = b[7:], banded on the t* of
    ``exact_test_first_moments`` in closed form, (|l|/j - 1)/(2j+1), which
    the stage detail reports; ``t_star`` stays None, as no SDP runs.  A
    reject carries the optimal witness ``_first_moment_witness``.  A passing
    stage returns None unless it is ``final``: then it accepts (or is
    boundary) with a certificate that mixes the top eigenstate of l^.L, the
    spin coherent state along l (``spinalg.coherent_state``), with the
    maximally mixed state.
    """
    j = two_j / 2.0
    d = two_j + 1
    ell = b[7:]
    r = math.sqrt(ell.dot(ell))
    t = (r / j - 1.0) / d
    detail = f"|l| = {r:.9g}, j = {j:.9g}, t_star = {t:.3e}"
    if t > BOUNDARY_BAND:
        log.add("first-moment", "reject", detail)
        return _rejected("first-moment", _first_moment_witness(b, two_j), log)
    if not final:
        log.add("first-moment", "pass", detail)
        return None
    if r == 0.0:
        state = np.eye(d, dtype=complex) / d
    else:
        weight = min(r, j) / j
        top = spinalg.coherent_state(ell, two_j)
        state = np.outer(top, top.conj())
        state += state.conj().T  # in place, so that the state is exactly Hermitian
        state *= weight / 2.0
        state[np.arange(d), np.arange(d)] += (1.0 - weight) / d
    status = STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else STATUS_QUANTUM
    log.add("first-moment", "boundary" if status == STATUS_BOUNDARY else "accept", detail)
    return Verdict(status, "first-moment", None, state, None, log.done())


def first_moment_test(ell: np.ndarray, two_j: int) -> Verdict:
    """Closed-form first-moment feasibility: quantum iff |l|^2 <= j^2.

    The first-moment stage of ``classify`` run as the final stage
    (``_first_moment_stage``): a reject carries the optimal witness
    Z = (1 - l^.L/j)/(2j+1), an accept a certificate state.  The witness's
    value pairs its coefficients with l and the isotropic second moments
    S_kl = delta_kl j(j+1)/3, the ones that meet the Casimir exactly.
    """
    two_j = spinalg._check_two_j(two_j)
    j = two_j / 2.0
    b = np.zeros(len(spinalg.MOMENT_LABELS))
    b[0], b[[1, 4, 6]], b[7:] = 1.0, j * (j + 1.0) / 3.0, _first_moment_vector(ell)
    return _first_moment_stage(b, two_j, _StageLog(), final=True)


def _phase1_verdicts(stage: str, two_j: int, values: np.ndarray, *, decide=False):
    """Solve the direct program at spin two_j on (10,) ``values``, or on (k, 10)
    values as one batched solve, and read each result with ``_read_phase1``:
    one verdict, or a list of k.

    When every input has a frame (``exact_test_direct``), the inputs are
    grouped by kind: the axial group is decided in closed form
    (``_axial_optimum``, optimal whether or not ``decide``), the four-block
    group by one batched search (``_four_block_optimum``), and the parity
    group by one ``sdp.phase1_min_t`` call over its ``_frame_program``;
    otherwise the whole call runs the complex ``_moment_program``.  The frames
    are looked for in input order, up to the first input without one.  The
    cone cap holds for every kind.  Each verdict's stage is timed from the
    start of the call, at its share of the seconds up to the end of the last
    solve."""
    sdp._check_dim(two_j + 1)
    t0 = time.perf_counter()
    batch = np.atleast_2d(values)
    if not len(batch):
        return []
    frames = _real_frames(batch, two_j) or [None] * len(batch)
    kinds = [None if f is None else f.kind for f in frames]
    solved = [None] * len(batch)
    for kind in dict.fromkeys(kinds):
        rows = [i for i, k in enumerate(kinds) if k == kind]
        group = batch if kind is None else np.stack([frames[i].moments[_KEPT[kind]] @ batch[i] for i in rows])
        if kind == "axial":
            got = _axial_optimum(group, two_j)
        elif kind == "four-block":
            got = _four_block_optimum(group, two_j, decide)
        else:
            program = _moment_program(two_j) if kind is None else _frame_program(kind, two_j)
            got = sdp.phase1_min_t(program, group if values.ndim == 2 else group[0], decide=decide)
            got = got if values.ndim == 2 else [got]
        for i, p1 in zip(rows, got):
            solved[i] = p1
    share = (time.perf_counter() - t0) / len(batch)
    verdicts = [_read_phase1(p1, b, stage, _StageLog(share), f) for p1, b, f in zip(solved, batch, frames)]
    return verdicts if values.ndim == 2 else verdicts[0]


def exact_test_direct(m: MomentMatrix, *, decide: bool = False) -> Verdict:
    """Decisive feasibility SDP over the spin-j state space.

    Constrains the identity, the symmetrized products and the bare spin
    operators to the values prescribed by M, then minimizes t with
    rho + t*1 >= 0; the moments are quantum iff t_star <= the boundary band.
    A reject carries the program's dual as its witness, of value -t*.  With
    ``decide`` (``classify``'s exact stage) the solve stops once a certified
    bound on t* clears the band, and ``t_star`` is that bound.

    Frames and blocks.  One rule, twirling (Gatermann and Parrilo, J. Pure
    Appl. Algebra 192, 95 (2004)), makes every frame exact.  Let G be a group
    of unitary and antiunitary maps g of the spin space that fix every
    measured operator whose value is nonzero and keep the span of those with
    value zero.  If X is feasible with X + t·1 >= 0, so is every g X g^dag,
    and so is their average over G, with the same t.  So t* is unchanged when
    X is restricted to the matrices that commute with G; there every operator
    that G moves pairs to zero with X, and the program over the operators G
    fixes decides exactly.  Its dual is a dual of the full program with zero
    coefficients on the dropped operators.  The interior point keeps every
    iterate in that subspace, so the blocked program follows the full one in
    exact arithmetic, iteration for iteration: its start (the min-norm
    solution of the rows, which lies in the span of the fixed operators,
    shifted along 1, with Z = 1/d and y = 0) commutes with G, and from such a
    point the Newton system of a G-invariant program has a unique solution,
    which G therefore fixes.

    In the J_z basis S12, S23 and L2 are imaginary antisymmetric and the
    other seven real symmetric, and I, S11, S22, S33 and L3 couple m only to
    m and m ± 2.  ``_real_frame`` finds the frame with the largest G, to
    ``matcore.FRAME_TOL``, and its rotation R:

    - parity: l along a principal axis, turned to z, so that S12, S13, S23,
      L1 and L2 vanish; G holds complex conjugation and the pi turn
      exp(-i pi L3), so X is real symmetric and splits by the parity of
      j - m: two blocks over I, S11, S22, S33 and L3 (coherent, Dicke,
      squeezed and thermal states);
    - four-block: l = 0 at integer j, so that L3 vanishes too; G adds the pi
      turn about x, which maps |m> to |-m> and commutes with the first: four
      blocks of about d/4 over I, S11, S22 and S33, in the bases
      (|m> ± |-m>)/sqrt2 of ``_frame_blocks``.  The trace and the Casimir
      leave two rows, so its hyperplanes are the tangents to their field of
      values, and ``_four_block_optimum`` decides it by a tangent/chord
      search with no SDP.  At half-integer j the two turns anticommute, and
      l = 0 takes the parity kind;
    - axial: l along z (or l = 0) and a degenerate pair of Re(M) across it,
      so that S11 - S22 vanishes too; G is every rotation about z, so X is
      diagonal, over I, S33 = L3^2 and L3: a linear program over the
      spectrum of L3 whose hyperplanes are the facets of the polygon
      conv{(m, m^2)}, solved in closed form by ``_axial_optimum`` (Dicke,
      coherent and thermal states).

    Evidence found in a frame maps back to the input's (``_read_phase1``).
    Every entry point of the direct program (this one, ``exact_test_batch``,
    ``exact_test_extension``, the scan and ``classify``) goes through
    ``_phase1_verdicts``, which decides a call in frames, by kind, only when
    every input has one; the stage record's ``frame`` then names the kind.
    """
    return _phase1_verdicts("exact", m.two_j, m.values, decide=decide)


def exact_test_batch(ms: Sequence[MomentMatrix]) -> list[Verdict]:
    """``exact_test_direct(m, decide=True)`` on many moment matrices at one
    spin, from one batched phase-1 solve over the shared operator stack.

    Each program stops on its own bound or optimum and each verdict is read
    as a single one would be (``_phase1_verdicts``).  Conflicting values
    raise ``ValueError`` and a failed solve ``ArithmeticError``, as for one
    input.
    """
    if not ms:
        return []
    two_j = ms[0].two_j
    if any(m.two_j != two_j for m in ms):
        raise ValueError("a batch of exact tests needs one spin number")
    values = np.stack([m.values for m in ms])
    return _phase1_verdicts("exact", two_j, values, decide=True)


def exact_test_extension(rho: np.ndarray, two_j: int) -> Verdict:
    """Membership of a symmetric two-qubit state in the extendible set.

    Searches for a 2j-qubit Bose-symmetric state whose pair marginal equals
    rho, in the (2j+1)-dimensional spin basis.  As every measured operator is
    a pair lift A_i = P^dag(K_i), that is the direct program on the moment
    vector b_i = tr(K_i rho), K = ``reduction.reduction_operators``, over
    the same cached ``_moment_program``.  The certificate is the extension
    itself; a reject's witness is the program's dual over
    ``spinalg.MOMENT_LABELS``, whose coefficients give the 3x3 pair operator
    W = sum_i c_i K_i with <W, rho> = value = -t*.  The SDP cone cap
    ``sdp.DIM_CAP`` (2j <= 63) is the only size limit.
    """
    two_j = reduction._require_j_ge_1(two_j)
    rho = np.asarray(rho, dtype=complex)
    matcore._check_finite("reduced state", "rho", rho)
    with matcore._no_overflow("reduced state"):
        rho = matcore.hermitize(rho, tol=1e-10)
        if rho.shape != (3, 3):
            raise ValueError(f"expected a 3x3 symmetric-basis state, got {rho.shape}")
        if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
            raise ValueError("reduced state must have unit trace")
        values = matcore.traces(reduction.reduction_operators(two_j), rho).real
    return _phase1_verdicts("extension", two_j, values)


def _validate_half_spin_structure(m: MomentMatrix) -> None:
    """At j = 1/2 all second moments are forced: Re(M) must equal I/4
    (to ``matcore.STRUCTURE_TOL``)."""
    forced = np.eye(3) / 4.0
    dev = float(np.abs(m.matrix.real - forced).max())
    if dev > matcore.STRUCTURE_TOL:
        raise ValueError(
            f"second moments at j = 1/2 are forced to Re(M) = I/4; deviation {dev:.3e}"
        )


def _eigen_stage(stage: str, matrix: np.ndarray, m: MomentMatrix, log: _StageLog):
    """(lambda_min, witness) of a chi or reconstruct matrix; the witness
    (``_eigenvector_witness``) only below -PSD_TOL."""
    vals, vecs = np.linalg.eigh(matrix)
    lam = float(vals[0])
    if lam >= -matcore.PSD_TOL:
        log.add(stage, "pass", f"min eigenvalue {lam:.3e}")
        return lam, None
    log.add(stage, "reject", f"min eigenvalue {lam:.3e}")
    return lam, _eigenvector_witness(stage, vecs[:, 0], m)


def classify(m: MomentMatrix) -> Verdict:
    """Full decision pipeline with cheap early exits.

    Order: the first-moment law (``_first_moment_stage``, at every j), chi
    and reconstruction positivity (quick rejects), the PPT inner test (quick
    accept), then ``exact_test_direct(m, decide=True)``.  An early reject
    stands only when its witness separates: a valid witness has value
    >= -t*, so the exact test would reject too; within the band the exact
    stage decides.  No path solves more than one SDP.

    At 2j = 2 the pair marginal is the state itself, in reversed order, so
    t* = -lambda_min(rho_j): a passing reconstruct stage accepts with that
    ``t_star`` and the certificate ``rho_j[::-1, ::-1]``, boundary when |t*|
    is within the band and rho_j is not PPT.  At j = 1/2, where Re(M) = I/4
    is forced (a structure stage), the first-moment stage is the last.

    There is no outer (tau) stage: chi = D tau D with D = diag(1, j, j, j)
    and j >= 1, so lambda_min(tau) >= min(0, lambda_min(chi)) >= -PSD_TOL
    once chi has passed.
    """
    log = _StageLog()
    log.add("validate", "pass")

    if m.two_j == 1:
        _validate_half_spin_structure(m)
        log.add("structure", "pass", "second moments forced at j=1/2")
    first = _first_moment_stage(m.values, m.two_j, log, final=m.two_j == 1)
    if first is not None:
        return first

    _, witness = _eigen_stage("chi", spinalg.chi_matrix(m), m, log)
    if witness is None:
        rho = reduction.reconstruct_rho(m)
        lam, witness = _eigen_stage("reconstruct", rho, m, log)
    if witness is None:
        # rho_j >= 0 passed, so PPT needs only the partial transpose; at 2j = 2 a PPT
        # rho_j is separable, so quantum even within the band, as at the inner stage
        ppt = (m.two_j == 2 and lam > BOUNDARY_BAND) or (
            np.linalg.eigvalsh(reduction._partial_transpose(rho))[0] >= -matcore.PSD_TOL
        )
        if m.two_j == 2:
            log.records[-1] = replace(log.records[-1], outcome="accept" if ppt else "boundary")
            status = STATUS_QUANTUM if ppt else STATUS_BOUNDARY
            return Verdict(status, "reconstruct", -lam, rho[::-1, ::-1].copy(), None, log.done(), "optimum")
        if ppt:
            log.add("inner", "accept", "reduced state is PPT, hence separable")
            return Verdict(STATUS_QUANTUM, "inner", None, None, None, log.done())
        log.add("inner", "undecided", "reduced state is entangled")
    elif witness.separates:
        return _rejected(log.records[-1].name, witness, log)
    else:
        log.add("witness", "inside band", f"value = {witness.value:.3e}; the exact stage decides")

    exact = exact_test_direct(m, decide=True)
    log.records.extend(exact.tests_run)
    return replace(exact, tests_run=log.done())
