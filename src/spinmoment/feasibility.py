"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 SDP over the spin-j state space; the
cheap inner (PPT / separability) and outer (reduced expectation value matrix)
tests bracket it from both sides.  Every piece of evidence comes from the
computation that decided it.  An SDP accept's certificate is the phase-1
primal X itself: X + t_p·1 is the solver's positive definite iterate, so X
needs no cleaning.  An exact reject's witness is the dual of that one
phase-1 program, expanded over the measured operators
(``Phase1Result.dual_coefficients``), with value -t_d.  ``exact_test_direct``
solves to the optimum, where t_p and t_d meet t* and the witness is
optimal.  ``classify``'s exact stage and ``exact_test_batch`` need only the
verdict, so they stop at the first iterate whose primal bound t_p or dual
bound t_d clears the boundary band, and report that certified bound as
``t_star``; a t* in or near the band still runs to the optimum.  At 2j = 2
the pair marginal is the state itself, so the reconstruct stage decides and
the reversed rho_j is the certificate.  ``classify`` compares |l| with j
first, at every spin, and a first-moment reject's witness is the optimal one
in closed form, Z = (1 - l^.L/j)/(2j+1).  An early reject (chi or
reconstruct) reads a valid, not optimal, witness off the negative
eigenvector its stage already computed (``_eigenvector_witness``), with no
SDP, and stands only when that witness separates.  Above j = 1/2 all three
closed-form witnesses are one pair lift P^dag of a 3x3 operator
(``_pair_adjoint``), like the extension program's operators.  Every program
and witness works over the moment vector b of
``spinalg.moment_values``; the early stages are its linear stacks
``spinalg.CHI_PATTERN`` and ``reduction._reconstruction_system``.  The SDP
paths alone use the ten-operator stack ``_moment_operator_set`` and its
dependency pass ``_moment_program``, each cached per spin, and raise the
cone-cap ``ValueError`` before they build any spin-j operator.  As that
stack depends on the spin only, ``exact_test_batch`` decides many inputs at
one spin with one batched phase-1 solve, each verdict read by the same
``_read_phase1`` as a single exact test's.  The outer test (tau >= 0, the
set T_j) is carried by the 4x4 chi check, which is congruent to it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import matcore, reduction, sdp, spinalg
from .matcore import BOUNDARY_BAND
from .spinalg import MomentMatrix

STATUS_QUANTUM = "quantum"
STATUS_NON_QUANTUM = "non-quantum"
STATUS_BOUNDARY = "boundary"

_FIRST_MOMENTS = [0, 7, 8, 9]  # I, L1, L2, L3 within MOMENT_LABELS
_FIRST_MOMENT_LABELS = tuple(spinalg.MOMENT_LABELS[i] for i in _FIRST_MOMENTS)
_EXTENSION_LABELS = tuple(f"E{r}" for r in range(9))


@dataclass(frozen=True)
class StageRecord:
    name: str
    outcome: str
    seconds: float
    detail: str = ""


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

    def add(self, name: str, outcome: str, detail: str = "") -> None:
        now = time.perf_counter()
        self.records.append(StageRecord(name, outcome, now - self._t0, detail))
        self._t0 = now

    def done(self) -> tuple[StageRecord, ...]:
        return tuple(self.records)


@lru_cache(maxsize=None)
def _moment_operator_set(two_j: int) -> np.ndarray:
    """Operators whose expectation values a moment matrix prescribes, stacked.

    Order matches ``spinalg.MOMENT_LABELS``: identity, the six symmetrized
    products (L_k L_l + L_l L_k)/2 for k <= l, then the three bare spin
    operators.  Only the phase-1 programs need it, so it is cached per spin
    and raises the cone-cap ``ValueError`` before it builds any operator.
    """
    sdp._check_dim(two_j + 1)
    ls = spinalg.spin_operators(two_j).as_list()
    products = [(ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0 for k, l in zip(*spinalg._UPPER)]
    return np.stack([np.eye(two_j + 1, dtype=complex), *products, *ls])


@lru_cache(maxsize=None)
def _moment_program(two_j: int) -> sdp.Phase1Program:
    """The dependency pass over ``_moment_operator_set(two_j)``, cached beside it, so
    that the exact tests at one spin run it once; the stack raises the cone-cap
    ``ValueError`` first, so nothing is cached above the cap."""
    return sdp.phase1_program(_moment_operator_set(two_j))


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
    for its most negative eigenvalue, c_i = v^dag F_i v.  Every measured
    operator is a pair lift, A_i = P^dag(K_i) with K =
    ``reduction.reduction_operators``, because b_i = tr(K_i P(X)) for the
    pair marginal P(X) of any X.  So sum_i c_i A_i = P^dag(sum_i c_i K_i) for
    both stages, Z is that matrix over its trace, and value = c.b / tr =
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
    is valid but not optimal: its value is not -t*.  ``_pair_adjoint`` builds
    Z as a band, so neither stage builds a spin matrix or the operator stack.
    """
    f = spinalg.CHI_PATTERN if stage == "chi" else reduction._reconstruction_system(m.two_j)
    c = np.einsum("a,iab,b->i", v.conj(), f, v).real
    z = _pair_adjoint(np.tensordot(c, reduction.reduction_operators(m.two_j), 1), m.two_j)
    norm = float(np.trace(z).real)
    z /= norm
    c = c / norm
    return Witness(z, float(c @ spinalg.moment_values(m)), c, spinalg.MOMENT_LABELS)


_BOUND_KINDS = {sdp.STATUS_PRIMAL_BOUND: "primal bound", sdp.STATUS_DUAL_BOUND: "dual bound"}


def _read_phase1(
    p1: sdp.Phase1Result, values: np.ndarray, labels, stage: str, log: _StageLog
) -> Verdict:
    """The verdict of a phase-1 program: a reject carries its dual as the
    witness, an accept its primal X.

    X = Y - t_p·1 for the solver's positive definite iterate Y, so
    lambda_min(X) >= -t_p: at least |t*| on a quantum verdict, at least
    -BOUNDARY_BAND on a boundary one.  tr X is the fitted trace to rounding,
    since t_p is defined from tr Y, and X meets the moments to the solver's
    residual, so the certificate needs no post-processing.  The witness's
    value is -t_d.  At the optimum t_star = t_p and t_d agrees to the gap; a
    decided solve's t_star is the bound that decided it (``Verdict``).

    Conflicting values of linearly dependent operators are an input error
    (``ValueError``); any other non-optimal solve is an ``ArithmeticError``.
    """
    if p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE:
        raise ValueError(
            "the moment values conflict: a linearly dependent operator's value "
            f"differs from the value the others imply ({p1.solution.message})"
        )
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    t, sol = p1.t_star, p1.solution
    kind = _BOUND_KINDS.get(sol.status, "optimum")
    detail = f"t_star = {t:.3e}, {sol.iterations} iterations, gap {sol.gap:.0e}, {kind}"
    if t > BOUNDARY_BAND:
        log.add(stage, "reject", detail)
        c = p1.dual_coefficients
        witness = Witness(p1.dual_z, float(c @ values), c, tuple(labels))
        return _rejected(stage, witness, log, t, kind)
    status = STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else STATUS_QUANTUM
    log.add(stage, "boundary" if status == STATUS_BOUNDARY else "accept", detail)
    return Verdict(status, stage, t, p1.x, None, log.done(), kind)


def _first_moment_bound(ell: np.ndarray, two_j: int) -> tuple[float, str]:
    """t* of ``exact_test_first_moments`` in closed form, (|l|/j - 1)/(2j+1), and
    the first-moment stage's detail."""
    j = two_j / 2.0
    r = float(np.linalg.norm(ell))
    t = (r / j - 1.0) / (two_j + 1)
    return t, f"|l| = {r:.9g}, j = {j:.9g}, t_star = {t:.3e}"


def _first_moment_witness(ell: np.ndarray, two_j: int) -> Witness:
    """The optimal first-moment witness Z = (1 - l^.L/j)/(2j+1) for |l| > j.

    It is PSD because spec(l^.L) = [-j, j] and has unit trace; over
    ``spinalg.MOMENT_LABELS`` its coefficients are 1/(2j+1) on I,
    -l^_k/(j(2j+1)) on L_k and 0 on each S_kl, and its value is
    (1 - |l|/j)/(2j+1) = -t*.  Above j = 1/2 every measured operator is a
    pair lift, so Z = P^dag(sum_i c_i K_i) is built as a band by
    ``_pair_adjoint``, like the chi and reconstruct witnesses, with no spin
    matrix.  At j = 1/2 there is no pair, and Z is the 2x2 sum_i c_i A_i.
    """
    j, d = two_j / 2.0, two_j + 1
    n_hat = ell / float(np.linalg.norm(ell))
    c = np.zeros(len(spinalg.MOMENT_LABELS))
    c[_FIRST_MOMENTS] = np.concatenate([[1.0], -n_hat / j]) / d
    if two_j == 1:
        z = np.tensordot(c, _moment_operator_set(1), 1)
    else:
        z = _pair_adjoint(np.tensordot(c, reduction.reduction_operators(two_j), 1), two_j)
    return Witness(z, float(c[_FIRST_MOMENTS] @ [1.0, *ell]), c, spinalg.MOMENT_LABELS)


def first_moment_test(ell: np.ndarray, two_j: int) -> Verdict:
    """Closed-form first-moment feasibility: quantum iff |l|^2 <= j^2.

    Banded like ``exact_test_first_moments``, on that program's t* in closed
    form, (|l|/j - 1)/(2j+1), which the stage detail reports; ``t_star``
    stays None, as no SDP ran.  A reject carries the optimal witness
    ``_first_moment_witness``, Z = (1 - l^.L/j)/(2j+1); an accept's
    certificate mixes the top eigenstate of l^.L, the spin coherent state
    along l (``spinalg.coherent_state``), with the maximally mixed state.
    """
    two_j = spinalg._check_two_j(two_j)
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (3,):
        raise ValueError("first moments must be a real 3-vector")
    spinalg._check_finite("first moments", "l", ell)
    j = two_j / 2.0
    d = two_j + 1
    r = float(np.linalg.norm(ell))
    t, detail = _first_moment_bound(ell, two_j)
    log = _StageLog()
    if t > BOUNDARY_BAND:
        log.add("first-moment", "reject", detail)
        return _rejected("first-moment", _first_moment_witness(ell, two_j), log)
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


def build_fixed_state(ell: np.ndarray, two_j: int) -> np.ndarray:
    """The trace-1 operator with the prescribed first moments and no open part.

    PSD exactly when |l| <= (j+1)/3; beyond that the orthogonal open part is
    needed to compensate, even though the moments may still be quantum.
    """
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ell = np.asarray(ell, dtype=float)
    d = triple.dim
    state = np.eye(d, dtype=complex) / d
    for lk, comp in zip(triple.as_list(), ell):
        state += (comp / matcore.hs_inner(lk, lk)) * lk
    return state


def exact_test_direct(m: MomentMatrix, *, decide: bool = False) -> Verdict:
    """Decisive feasibility SDP over the spin-j state space.

    Constrains the identity, the symmetrized products and the bare spin
    operators to the values prescribed by M, then minimizes t with
    rho + t*1 >= 0; the moments are quantum iff t_star <= the boundary band.
    A reject carries the program's dual as its witness, of value -t*.  With
    ``decide`` (``classify``'s exact stage) the solve stops once a certified
    bound on t* clears the band, and ``t_star`` is that bound.
    """
    values = spinalg.moment_values(m)
    p1 = sdp.phase1_min_t(_moment_program(m.two_j), values, decide=decide)
    return _read_phase1(p1, values, spinalg.MOMENT_LABELS, "exact", _StageLog())


def exact_test_batch(ms: Sequence[MomentMatrix]) -> list[Verdict]:
    """``exact_test_direct(m, decide=True)`` on many moment matrices at one
    spin, from one batched phase-1 solve over the shared operator stack.

    Each program stops on its own bound or optimum, each verdict is read as
    a single one would be, and its exact stage is timed at its share of the
    batch's seconds.  Conflicting values raise ``ValueError`` and a failed
    solve ``ArithmeticError``, as for one input.
    """
    if not ms:
        return []
    two_j = ms[0].two_j
    if any(m.two_j != two_j for m in ms):
        raise ValueError("a batch of exact tests needs one spin number")
    program = _moment_program(two_j)
    t0 = time.perf_counter()
    values = np.stack([spinalg.moment_values(m) for m in ms])
    solved = sdp.phase1_min_t(program, values, decide=True)
    share = (time.perf_counter() - t0) / len(ms)
    return [
        _read_phase1(p1, v, spinalg.MOMENT_LABELS, "exact", _StageLog(share))
        for p1, v in zip(solved, values)
    ]


def exact_test_first_moments(ell: np.ndarray, two_j: int) -> Verdict:
    """First-moment feasibility via the SDP route, second moments left free.

    Exists alongside the closed form as an independently checkable path.
    """
    two_j = spinalg._check_two_j(two_j)
    values = np.concatenate([[1.0], np.asarray(ell, dtype=float)])
    spinalg._check_finite("first moments", "l", values[1:])
    p1 = sdp.phase1_min_t(_moment_operator_set(two_j)[_FIRST_MOMENTS], values)
    return _read_phase1(p1, values, _FIRST_MOMENT_LABELS, "exact-first-moment", _StageLog())


def exact_test_extension(rho: np.ndarray, two_j: int) -> Verdict:
    """Membership of a symmetric two-qubit state in the extendible set.

    Searches for a 2j-qubit Bose-symmetric state whose pair marginal equals
    rho, in the (2j+1)-dimensional spin basis: the phase-1 program constrains
    <K_r, X> = <E_r, rho> over the closed-form marginal adjoints
    K_r = ``_pair_adjoint``(E_r) of E_r = ``matcore.hermitian_basis(3)``, whose
    E_0 = 1/sqrt(3) makes the trace constraint explicit.  The certificate is
    the extension itself;
    a reject's witness is the program's dual over the labelled E_r, whose
    coefficients give the 3x3 pair operator W = sum_r c_r E_r with
    <W, rho> = -t*.  The SDP cone cap ``sdp.DIM_CAP`` (2j <= 63) is the only
    size limit.
    """
    two_j = reduction._require_j_ge_1(two_j)
    rho = np.asarray(rho, dtype=complex)
    spinalg._check_finite("reduced state", "rho", rho)
    rho = matcore.hermitize(rho, tol=1e-10)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis state, got {rho.shape}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
        raise ValueError("reduced state must have unit trace")
    sdp._check_dim(two_j + 1)
    basis3 = matcore.hermitian_basis(3)
    values = np.array([matcore.hs_inner(e, rho) for e in basis3])
    p1 = sdp.phase1_min_t(_pair_adjoint(basis3, two_j), values)
    return _read_phase1(p1, values, _EXTENSION_LABELS, "extension", _StageLog())


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
    (``exact_test_direct(m, decide=True)``).  Every rejection carries a
    witness.  The first-moment stage is banded on its closed-form t*, like
    ``first_moment_test``, and a reject carries the optimal witness
    ``_first_moment_witness`` with ``t_star`` None, so first moments longer
    than j are answered with no SDP at any spin, above the cone cap too.  A chi or reconstruct stage builds it in closed form from the
    stage's negative eigenvector and solves no SDP; its ``t_star`` is None
    and its value is not -t*.  Such an early reject stands only when the witness separates
    (value below -BOUNDARY_BAND).  A valid witness has value >= -t*, so the
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

    At j = 1/2 the second moments are forced, and the verdict is
    ``first_moment_test``'s: a reject carries the optimal first-moment
    witness, value -t* < -BOUNDARY_BAND, and no path solves an SDP.

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
        first = first_moment_test(m.first_moments, m.two_j)
        log.records.extend(first.tests_run)
        return replace(first, tests_run=log.done())

    t, detail = _first_moment_bound(m.first_moments, m.two_j)
    if t > BOUNDARY_BAND:
        log.add("first-moment", "reject", detail)
        return _rejected("first-moment", _first_moment_witness(m.first_moments, m.two_j), log)
    log.add("first-moment", "pass", detail)

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
