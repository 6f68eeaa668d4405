"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 SDP over the spin-j state space; the
cheap inner (PPT / separability) and outer (reduced expectation value matrix)
tests bracket it from both sides, in the stage order of ``classify``.  Every
piece of evidence comes from the computation that decided it.  Every phase-1
decision, single or batched, is solved, timed and read by one function,
``_phase1_verdicts``: an accept's certificate is the phase-1 primal X, a
reject's witness the program's dual over the measured operators
(``_read_phase1``).  Every measured operator is a pair lift P^dag(K_i)
(``_lift``), so the operator stack and all three closed-form witnesses are
bands with no spin matrix, and the extension program over a pair state rho
is the direct program on b = K·rho.  Every program and witness works over
the moment vector b of ``spinalg.moment_values``; the early stages are its
linear stacks ``spinalg.CHI_PATTERN`` and
``reduction._reconstruction_system``.  The SDP paths alone use the stack
``_moment_operator_set`` and its dependency passes ``_moment_program`` and
``_frame_program``, each cached per spin, and raise the cone-cap
``ValueError`` before they build the operator stack.  As that stack depends
on the spin only, ``exact_test_batch`` decides many inputs at one spin with
one batched phase-1 solve.

The direct program runs in real arithmetic, and in blocks, when the input
has a frame; ``exact_test_direct`` states the rule and why it is exact.

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
# The operators each kind of frame keeps (``exact_test_direct``): the seven real
# symmetric ones in a real frame, and in the others those its symmetry fixes, less
# S11 and S22 in an axial frame, where on diagonal X both are (j(j+1) I - S33)/2
_KEPT = {"real": [0, 1, 3, 4, 6, 7, 9], "parity": [0, 1, 4, 6, 9], "four-block": [0, 1, 4, 6], "axial": [0, 6, 9]}


@dataclass(frozen=True)
class StageRecord:
    """One stage of a decision; ``frame`` is the kind of frame a phase-1 stage
    solved in ("real", "parity", "four-block" or "axial"), None for the complex
    program and for every other stage."""

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
    """The blocks of a frame of this kind, as real orthonormal (d, d_b) bases
    over the J_z basis, whose index a holds m = j - a: one block in a real
    frame; the two parities of a (the pi turn about z) in a parity frame; d
    blocks of one level in an axial frame; and in a four-block frame, at
    integer j, the parities of a of (|m> + |-m>)/sqrt2 with |0>, and of
    (|m> - |-m>)/sqrt2, m > 0 (the pi turns about z and x)."""
    eye = np.eye(two_j + 1)
    if kind == "real":
        return (eye,)
    if kind == "axial":
        return tuple(eye[:, [a]] for a in range(two_j + 1))
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
    """The bases of ``_frame_blocks`` side by side: the (d, d) orthogonal Q."""
    return np.hstack(_frame_blocks(kind, two_j))


@lru_cache(maxsize=None)
def _frame_program(kind: str, two_j: int) -> sdp.Phase1Program:
    """The dependency pass over the operators a frame of this kind keeps, as
    float64 blocks (``_frame_blocks``): the program ``_phase1_verdicts`` runs in
    that frame, cached per spin beside ``_moment_program``."""
    ops = _moment_operator_set(two_j)[_KEPT[kind]].real
    return sdp.phase1_program(tuple(q.T @ ops @ q for q in _frame_blocks(kind, two_j)))


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
    return _CHI_READ @ np.einsum("ak,bl->abkl", q, q).reshape(16, 16) @ _CHI_REAL.T


def _broken(kind: str, moments: np.ndarray, two_j: int) -> float:
    """The largest of the values that vanish in a frame of this kind, each over
    its scale: S12 and S23 over j(j+1) and L2 over j in a real frame; S13 and L1
    too in the block kinds, L3 in a four-block frame and S11 - S22 in an axial one."""
    j = two_j / 2.0
    s, ell = [moments[2], moments[5]], [moments[8]]
    if kind != "real":
        s.append(moments[3])
        ell.append(moments[7])
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
    ``matcore.FRAME_TOL``, and else four-block (l = 0 at integer j) or parity.

    Otherwise the real frame: its y axis is a principal axis of Re(M)
    perpendicular to l or, when a pair of principal axes is degenerate
    (``eigh`` returns any basis of their plane), the direction in that plane
    perpendicular to l.  Both kinds are among the directions
    e = (p_b u_a - p_a u_b)/|(p_a, p_b)|, p = u^T l, in the planes of the
    pairs (u_a, u_b) of principal axes (u_a when p_a = p_b = 0).  Each has
    e.l = 0, and with x the in-plane normal to e, e^T S x =
    p_a p_b (w_a - w_b)/(p_a^2 + p_b^2): the candidate with the smallest such
    coupling, over j(j+1), is completed to rows (x, e, u_c).  It is the frame
    if its values S12, S23 and L2 are within ``matcore.FRAME_TOL`` as well.
    """
    j = two_j / 2.0
    s = (_CHI_REAL.T @ b).reshape(4, 4)[1:, 1:]
    w, u = np.linalg.eigh(s)
    ell = b[7:]
    r = float(np.linalg.norm(ell))
    if r > matcore.FRAME_TOL * j:
        plane = np.linalg.svd(ell[None])[2][1:]  # orthonormal rows perpendicular to l
        rot = np.vstack([np.linalg.eigh(plane @ s @ plane.T)[1].T @ plane, ell / r])
        kinds = ("axial", "parity")
    else:
        rot = u.T if w[1] - w[0] <= w[2] - w[1] else u.T[[1, 2, 0]]
        kinds = ("axial", "four-block" if two_j % 2 == 0 else "parity")
    if np.linalg.det(rot) < 0.0:
        rot = rot * [[-1.0], [1.0], [1.0]]
    t = _moment_map(rot)
    for kind in kinds:
        if _broken(kind, t @ b, two_j) <= matcore.FRAME_TOL:
            return Frame(kind, rot, t)

    p = u.T @ ell
    pairs = p * p + p[[1, 2, 0]] ** 2
    coupling = np.abs(p * p[[1, 2, 0]] * (w - w[[1, 2, 0]])) / np.where(pairs > 0.0, pairs, 1.0)
    a = int(np.argmin(coupling))
    if coupling[a] > matcore.FRAME_TOL * j * (j + 1.0):
        return None
    first, second, third = u[:, a], u[:, (a + 1) % 3], u[:, (a + 2) % 3]
    e = first if pairs[a] == 0.0 else (p[(a + 1) % 3] * first - p[a] * second) / math.sqrt(pairs[a])
    rot = np.array([np.cross(e, third), e, third])
    t = _moment_map(rot)
    return Frame("real", rot, t) if _broken("real", t @ b, two_j) <= matcore.FRAME_TOL else None


def _real_frames(batch: np.ndarray, two_j: int) -> list[Frame] | None:
    """The frame of every row of a (k, 10) batch, or None once a row has none.
    Rows of different kinds all take the real program, each in its own frame,
    in which the values S12, S23 and L2 vanish as in every kind's."""
    frames = []
    for b in batch:
        frame = _real_frame(b, two_j)
        if frame is None:
            return None
        frames.append(frame)
    if len({f.kind for f in frames}) > 1:
        frames = [f._replace(kind="real") for f in frames]
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


def _spin_rotation(rot: np.ndarray, two_j: int) -> np.ndarray:
    """V = D^j(R) with V^dag L_k V = sum_l R_kl L_l, for R in SO(3).

    V = exp(-i alpha L3) exp(-i beta L2) exp(-i gamma L3) over the ZYZ angles
    of ``_euler_zyz``: L3 is diagonal and L2's eigenbasis is cached, so V costs
    one d x d matmul.  No spin matrix is built.
    """
    alpha, beta, gamma = _euler_zyz(rot)
    w, u = _l2_eigen(two_j)
    m = two_j / 2.0 - np.arange(two_j + 1)  # the diagonal of L3
    v = (u * np.exp(-1j * beta * w)) @ u.conj().T
    return np.exp(-1j * alpha * m)[:, None] * v * np.exp(-1j * gamma * m)


def _lift(c: np.ndarray, two_j: int) -> np.ndarray:
    """sum_i c_i A_i over the operators A_i of ``spinalg.MOMENT_LABELS``, for a (..., 10) c.

    Above j = 1/2 each A_i is the pair lift P^dag(K_i), K =
    ``reduction.reduction_operators``, as b_i = tr(K_i P(X)) for the pair
    marginal P(X) of any X, so the sum is the band ``_pair_adjoint``(sum_i
    c_i K_i).  At j = 1/2, S_kl = delta_kl/4 and L_k = sigma_k/2.
    """
    if two_j == 1:
        s = [np.eye(2) * (k == l) / 4.0 for k, l in zip(*spinalg._UPPER)]
        ls = [p / 2.0 for p in (reduction._PAULI_X, reduction._PAULI_Y, reduction._PAULI_Z)]
        return np.tensordot(c, np.stack([np.eye(2), *s, *ls]), 1)
    return _pair_adjoint(np.tensordot(c, reduction.reduction_operators(two_j), 1), two_j)


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
    -2..2 built in O(n) operations, with no reordering.
    """
    n = two_j
    s = np.arange(n - 1.0)
    g = np.stack([(n - s) * (n - s - 1), 2 * (s + 1) * (n - s - 1), (s + 1) * (s + 2)])
    g /= n * (n - 1)
    w = np.asarray(w, dtype=complex)
    out = np.zeros((*w.shape[:-2], n + 1, n + 1), dtype=complex)
    top = n - np.arange(n - 1)
    for a in range(3):
        for b in range(3):
            out[..., top - a, top - b] += w[..., a, b, None] * np.sqrt(g[a] * g[b])
    return out


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
    c = np.einsum("a,iab,b->i", v.conj(), f, v).real
    z = _lift(c, m.two_j)
    norm = float(np.trace(z).real)
    z /= norm
    c = _canonical(c / norm, m.two_j)
    return Witness(z, float(c @ spinalg.moment_values(m)), c, spinalg.MOMENT_LABELS)


_BOUND_KINDS = {sdp.STATUS_PRIMAL_BOUND: "primal bound", sdp.STATUS_DUAL_BOUND: "dual bound"}


def _read_phase1(p1: sdp.Phase1Result, values: np.ndarray, stage: str, log: _StageLog, frame=None) -> Verdict:
    """The verdict of a phase-1 program: a reject carries its dual as the
    witness, an accept its primal X, both in the frame of ``values``.

    X = Y - t_p·1 for the solver's positive definite iterate Y, so
    lambda_min(X) >= -t_p: at least |t*| on a quantum verdict, at least
    -BOUNDARY_BAND on a boundary one.  tr X is the fitted trace to rounding,
    since t_p is defined from tr Y, and X meets the moments to the solver's
    residual, so the certificate needs no post-processing.  The witness's
    value is -t_d.  At the optimum t_star = t_p and t_d agrees to the gap; a
    decided solve's t_star is the bound that decided it (``Verdict``).

    A solve in a ``Frame`` (kind, R, T) of ``_real_frame`` ran its kind's
    program on b' = T b over the kept labels.  Its coefficients c' map back as
    c = T^T c', and its Z' and X', direct sums of blocks, as W^dag Z' W and
    W^dag X' W, W = Q^T V, with Q the blocks' bases side by side and V =
    D^j(R) (``_spin_rotation``); the stage record then names the kind, and
    its detail says "real frame" and the kind of blocks before the kind of
    t_star.  The coefficients are made canonical (``_canonical``).

    A solve that is neither optimal nor decided is an ``ArithmeticError``
    (conflicting values never get here: ``sdp.phase1_min_t`` raises them).
    """
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    t, sol = p1.t_star, p1.solution
    two_j = len(p1.x) - 1
    kind = _BOUND_KINDS.get(sol.status, "optimum")
    name = None if frame is None else frame.kind
    where = {None: "", "real": "real frame, "}.get(name, f"real frame, {name}, ")
    detail = f"t_star = {t:.3e}, {sol.iterations} iterations, gap {sol.gap:.0e}, {where}{kind}"
    rejected = t > BOUNDARY_BAND
    evidence = p1.dual_z if rejected else p1.x
    c = p1.dual_coefficients
    if frame is not None:
        w = _frame_basis(name, two_j).T @ _spin_rotation(frame.rotation, two_j)
        evidence = w.conj().T @ evidence @ w
        evidence = (evidence + evidence.conj().T) / 2.0
        c = frame.moments[_KEPT[name]].T @ c
    if rejected:
        c = _canonical(c, two_j)
        log.add(stage, "reject", detail, name)
        return _rejected(stage, Witness(evidence, float(c @ values), c, spinalg.MOMENT_LABELS), log, t, kind)
    status = STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else STATUS_QUANTUM
    log.add(stage, "boundary" if status == STATUS_BOUNDARY else "accept", detail, name)
    return Verdict(status, stage, t, evidence, None, log.done(), kind)


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
    r = float(np.linalg.norm(ell))
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

    The call runs in the frames of its inputs (``exact_test_direct``) when
    every input has one, over the program of their one kind
    (``_frame_program``), or over the real program when their kinds differ;
    the frames are looked for in input order, up to the first input without
    one, and otherwise the call runs the complex ``_moment_program``.  Each
    verdict's stage is timed from the start of the call, at its share of the
    seconds up to the end of the solve."""
    t0 = time.perf_counter()
    batch = np.atleast_2d(values)
    frames = _real_frames(batch, two_j)
    if frames is not None:
        kept = _KEPT[frames[0].kind]
        program = _frame_program(frames[0].kind, two_j)
        rotated = np.stack([f.moments[kept] @ b for f, b in zip(frames, batch)])
        values_solved = rotated if values.ndim == 2 else rotated[0]
    else:
        program = _moment_program(two_j)
        frames, values_solved = [None] * len(batch), values
    solved = sdp.phase1_min_t(program, values_solved, decide=decide)
    share = (time.perf_counter() - t0) / len(batch)
    if values.ndim == 1:
        return _read_phase1(solved, values, stage, _StageLog(share), frames[0])
    return [_read_phase1(p1, v, stage, _StageLog(share), f) for p1, v, f in zip(solved, values, frames)]


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

    - real: a principal axis of Re(M) perpendicular to l, turned to y, so
      that S12, S23 and L2 vanish; G = {1, complex conjugation}, so X is
      real symmetric: one block over the seven real operators;
    - parity: l along a principal axis, turned to z, so that S13 and L1
      vanish too; G adds the pi turn exp(-i pi L3), so X also splits by the
      parity of j - m: two blocks over I, S11, S22, S33 and L3 (coherent,
      Dicke, squeezed and thermal states);
    - four-block: l = 0 at integer j, so that L3 vanishes too; G adds the pi
      turn about x, which maps |m> to |-m> and commutes with the first: four
      blocks of about d/4 over I, S11, S22 and S33, in the bases
      (|m> ± |-m>)/sqrt2 of ``_frame_blocks``.  At half-integer j the two
      turns anticommute, and l = 0 takes the parity kind;
    - axial: l along z (or l = 0) and a degenerate pair of Re(M) across it,
      so that S11 - S22 vanishes too; G is every rotation about z, so X is
      diagonal: d blocks of one over I, S33 and L3.

    The blocked program is solved in float64, and its evidence maps back to
    the input's frame (``_read_phase1``).  Every entry point of the direct
    program (this one, ``exact_test_batch``, ``exact_test_extension``, the
    scan and ``classify``) goes through ``_phase1_verdicts``, which takes a
    kind when every input of the call has it; the stage record's ``frame``
    then names it, and its detail says "real frame" and the kind of blocks.
    """
    values = spinalg.moment_values(m)
    return _phase1_verdicts("exact", m.two_j, values, decide=decide)


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
    values = np.stack([spinalg.moment_values(m) for m in ms])
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
        values = np.einsum("iab,ba->i", reduction.reduction_operators(two_j), rho).real
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
    """Eigen-test a chi or reconstruct matrix: (lambda_min, witness).  Below
    -PSD_TOL the witness is the closed form of the same eigensolve's lowest
    eigenvector, else None."""
    vals, vecs = matcore.hermitian_eig(matrix)
    lam = float(vals[0])
    if lam >= -matcore.PSD_TOL:
        log.add(stage, "pass", f"min eigenvalue {lam:.3e}")
        return lam, None
    log.add(stage, "reject", f"min eigenvalue {lam:.3e}")
    return lam, _eigenvector_witness(stage, vecs[:, 0], m)


def classify(m: MomentMatrix) -> Verdict:
    """Full decision pipeline with cheap early exits.

    Order: structural validation (done on construction), the first-moment
    law |l| <= j (quick reject, at every j), the 4x4 expectation value
    matrix precheck (chi, quick reject), reconstruction positivity, the PPT
    inner test (quick accept), then the decisive phase-1 SDP
    (``exact_test_direct(m, decide=True)``, in real arithmetic and in blocks
    when the input has a frame: the rule and why it is exact are stated there).  Every rejection carries a
    witness.  The first-moment stage (``_first_moment_stage``, which is
    ``first_moment_test`` too) is banded on its closed-form t*, and a reject
    carries the optimal witness with ``t_star`` None, so first moments
    longer than j are answered with no SDP at any spin, above the cone cap
    too.  A chi or reconstruct stage builds its witness in closed form from
    the stage's negative eigenvector and solves no SDP; its ``t_star`` is
    None and its value is not -t*.  Such an early reject stands only when
    the witness separates (value below -BOUNDARY_BAND).  A valid witness has value >= -t*, so the
    exact test would reject too; otherwise the input is within the band of
    the boundary and the exact stage decides.  The exact stage stops once a
    certified bound on t* clears the band: its ``t_star`` is then that bound
    (``Verdict.t_star_kind``), an accept's certificate is the primal iterate
    and a reject's witness the dual one, value -t_star.  So no path solves
    more than one SDP, and none runs past its verdict.

    At 2j = 2 the pair marginal is the state itself, in reversed order, so
    S_1 = {rho_j >= 0} and t* = -lambda_min(rho_j): a passing reconstruct
    stage accepts with that ``t_star`` and the certificate
    ``rho_j[::-1, ::-1]``.  Its status is boundary when |t*| is within the
    band and rho_j is not PPT, the statuses the inner and exact stages would
    give.  No path at 2j = 2 solves an SDP except an early reject whose
    witness is inside the band.

    At j = 1/2 the second moments are forced to Re(M) = I/4, which a
    structure stage checks, and the first-moment stage is the last: it
    decides as ``first_moment_test`` does, and no path solves an SDP.

    There is no separate outer (tau) stage: chi = D tau D with
    D = diag(1, j, j, j) and j >= 1, so for any x, x^dag tau x = y^dag chi y
    with y = D^-1 x and |y| <= |x|.  Hence lambda_min(tau) >=
    min(0, lambda_min(chi)) >= -PSD_TOL once chi has passed, and the outer test
    could never reject here.
    """
    log = _StageLog()
    log.add("validate", "pass")

    if m.two_j == 1:
        _validate_half_spin_structure(m)
        log.add("structure", "pass", "second moments forced at j=1/2")
    first = _first_moment_stage(spinalg.moment_values(m), m.two_j, log, final=m.two_j == 1)
    if first is not None:
        return first

    _, witness = _eigen_stage("chi", spinalg.chi_matrix(m), m, log)
    if witness is None:
        rho = reduction.reconstruct_rho(m)
        lam, witness = _eigen_stage("reconstruct", rho, m, log)
    if witness is None:
        # the reconstruct stage passed rho_j >= 0, so PPT needs only the partial transpose
        if m.two_j == 2:
            # a PPT rho_j is separable, so quantum even within the band, as at the inner stage
            quantum = lam > BOUNDARY_BAND or matcore.is_psd(reduction._partial_transpose(rho))
            log.records[-1] = replace(log.records[-1], outcome="accept" if quantum else "boundary")
            status = STATUS_QUANTUM if quantum else STATUS_BOUNDARY
            return Verdict(status, "reconstruct", -lam, rho[::-1, ::-1].copy(), None, log.done(), "optimum")
        if matcore.is_psd(reduction._partial_transpose(rho)):
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
