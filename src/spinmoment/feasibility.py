"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 SDP over the spin-j state space; the
cheap inner (PPT / separability) and outer (reduced expectation value matrix)
tests bracket it from both sides.  Every witness comes from the verdict that
decided it.  An exact reject's witness is the dual of that one phase-1
program, expanded over the measured operators
(``Phase1Result.dual_coefficients``), so it is optimal: value = -t*.  A
first-moment reject's witness is the optimal one in closed form,
Z = (1 - l^.L/j)/(2j+1).  An early reject (chi or reconstruct) reads a valid,
not optimal, witness off the negative eigenvector its stage already computed
(``_eigenvector_witness``), with no SDP, and stands only when that witness
separates.  Every program and witness works over the moment vector b of
``spinalg.moment_values``; the early stages are its linear stacks
``spinalg.CHI_PATTERN`` and ``reduction._reconstruction_system``.  The SDP
paths raise the cone-cap ``ValueError`` before they build any spin-j
operator.  Inside ``classify`` the outer test is carried by the 4x4 chi
check, which is congruent to it; ``outer_test`` remains the standalone
definition of T_j.
"""

from __future__ import annotations

import time
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
    status: str
    stage: str
    t_star: float | None
    certificate_state: np.ndarray | None
    witness: Witness | None
    tests_run: tuple[StageRecord, ...]

    @property
    def accepted(self) -> bool:
        return self.status in (STATUS_QUANTUM, STATUS_BOUNDARY)


class _StageLog:
    def __init__(self) -> None:
        self.records: list[StageRecord] = []
        self._t0 = time.perf_counter()

    def add(self, name: str, outcome: str, detail: str = "") -> None:
        now = time.perf_counter()
        self.records.append(StageRecord(name, outcome, now - self._t0, detail))
        self._t0 = now

    def done(self) -> tuple[StageRecord, ...]:
        return tuple(self.records)


def _operator_stack(two_j: int) -> np.ndarray:
    """Operators whose expectation values a moment matrix prescribes, stacked.

    Order matches ``spinalg.MOMENT_LABELS``: identity, the six symmetrized
    products (L_k L_l + L_l L_k)/2 for k <= l, then the three bare spin
    operators.
    """
    ls = spinalg.spin_operators(two_j).as_list()
    products = [(ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0 for k, l in zip(*spinalg._UPPER)]
    return np.stack([np.eye(two_j + 1, dtype=complex), *products, *ls])


@lru_cache(maxsize=None)
def _sdp_operator_set(two_j: int) -> np.ndarray:
    """The operator stack of a phase-1 program, cached per spin: the cone-cap
    ``ValueError`` comes before any dense operator is built."""
    sdp._check_dim(two_j + 1)
    return _operator_stack(two_j)


def _moment_operator_set(two_j: int) -> np.ndarray:
    """The operator stack at any 2j, as the early-reject witnesses need it:
    the cached one within the SDP cap, a fresh one above it, so that an early
    reject there keeps no dense (2j+1)^2 operators alive."""
    return _sdp_operator_set(two_j) if two_j < sdp.DIM_CAP else _operator_stack(two_j)


def _clean_state(x: np.ndarray, floor: float) -> np.ndarray:
    """Clip eigenvalue dust in (-floor, 0) to zero and renormalize the trace."""
    vals, vecs = matcore.hermitian_eig(x)
    clipped = np.where((vals > -floor) & (vals < 0.0), 0.0, vals)
    if clipped.min() < 0.0:
        return x
    state = (vecs * clipped) @ vecs.conj().T
    tr = float(np.trace(state).real)
    if tr > 0.0:
        state = state / tr
    return (state + state.conj().T) / 2.0


def _rejected(stage: str, witness: Witness, log: _StageLog, t_star: float | None = None) -> Verdict:
    log.add("witness", "found", f"value = {witness.value:.3e}")
    return Verdict(STATUS_NON_QUANTUM, stage, t_star, None, witness, log.done())


def _early_witness_system(stage: str, two_j: int) -> np.ndarray:
    """The early-reject stage matrix as a linear stack over ``MOMENT_LABELS``:
    chi = sum_i b_i C_i and rho_j = sum_i b_i R_i."""
    return spinalg.CHI_PATTERN if stage == "chi" else reduction._reconstruction_system(two_j)


def _eigenvector_witness(stage: str, matrix: np.ndarray, m: MomentMatrix) -> Witness:
    """Closed-form witness for a chi or reconstruct reject, with no SDP.

    Both stage matrices are linear in the labelled values b, X(b) =
    sum_i b_i F_i with F = ``_early_witness_system``.  With v the eigenvector
    of X(b) for its most negative eigenvalue, c_i = v^dag F_i v,
    Z = sum_i c_i A_i / sum_i c_i tr A_i and value = c.b / sum_i c_i tr A_i =
    lambda_min / sum_i c_i tr A_i < 0.

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

    In both cases sum_i c_i tr A_i = tr(sum_i c_i A_i) > 0, so Z has unit
    trace.  The witness is valid but not optimal: its value is not -t*.  A chi
    Z needs only B^dag B and the closed-form tr A_i, not the operator stack.
    """
    v = matcore.hermitian_eig(matrix)[1][:, 0]
    c = np.einsum("a,iab,b->i", v.conj(), _early_witness_system(stage, m.two_j), v).real
    d, s = m.two_j + 1, m.two_j * (m.two_j + 2) / 12.0  # tr 1 = d, tr S_kk = j(j+1)d/3 = s d
    norm = d * float(c[0] + s * c[[1, 4, 6]].sum())  # S_kl (k != l) and L_k are traceless
    if stage == "chi":
        b = v[0] * np.eye(d) + np.tensordot(v[1:], spinalg.spin_operators(m.two_j).as_list(), 1)
        z = b.conj().T @ b
    else:
        z = np.tensordot(c, _moment_operator_set(m.two_j), axes=1)
    c = c / norm
    return Witness(z / norm, float(c @ spinalg.moment_values(m)), c, spinalg.MOMENT_LABELS)


def _phase1_verdict(ops, values: np.ndarray, dim: int, labels, stage: str) -> Verdict:
    """Solve the phase-1 program over labelled operators to optimality; a
    reject carries its dual as the witness, an accept its cleaned primal.

    Conflicting values of linearly dependent operators are an input error
    (``ValueError``); any other non-optimal solve is an ``ArithmeticError``.
    """
    log = _StageLog()
    p1 = sdp.phase1_min_t(list(zip(ops, values)), dim)
    if p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE:
        raise ValueError(
            "the moment values conflict: a linearly dependent operator's value "
            f"differs from the value the others imply ({p1.solution.message})"
        )
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    t = p1.t_star
    detail = f"t_star = {t:.3e}, {p1.solution.iterations} iterations, gap {p1.solution.gap:.0e}"
    if t > BOUNDARY_BAND:
        log.add(stage, "reject", detail)
        c = p1.dual_coefficients
        return _rejected(stage, Witness(p1.dual_z, float(c @ values), c, tuple(labels)), log, t)
    state = _clean_state(p1.x, 1e-9 if t <= 0 else t + 2e-9)
    status = STATUS_BOUNDARY if abs(t) <= BOUNDARY_BAND else STATUS_QUANTUM
    log.add(stage, "boundary" if status == STATUS_BOUNDARY else "accept", detail)
    return Verdict(status, stage, t, state, None, log.done())


def first_moment_test(ell: np.ndarray, two_j: int) -> Verdict:
    """Closed-form first-moment feasibility: quantum iff |l|^2 <= j^2.

    Banded like ``exact_test_first_moments``, on that program's t* in closed
    form, (|l|/j - 1)/(2j+1), which the stage detail reports; ``t_star``
    stays None, as no SDP ran.  Both kinds of evidence come from l^.L, the
    spin operator along l:

    - a reject carries the optimal witness Z = (1 - l^.L/j)/(2j+1).  It is
      PSD because spec(l^.L) = [-j, j] and has unit trace; over
      ``spinalg.MOMENT_LABELS`` its coefficients are 1/(2j+1) on I,
      -l^_k/(j(2j+1)) on L_k and 0 on each S_kl, and its value is
      (1 - |l|/j)/(2j+1) = -t*;
    - an accept's certificate mixes the top eigenstate of l^.L with the
      maximally mixed state.
    """
    two_j = spinalg._check_two_j(two_j)
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (3,):
        raise ValueError("first moments must be a real 3-vector")
    j = two_j / 2.0
    d = two_j + 1
    r = float(np.linalg.norm(ell))
    t = (r / j - 1.0) / d
    detail = f"|l| = {r:.9g}, j = {j:.9g}, t_star = {t:.3e}"
    log = _StageLog()
    if r == 0.0:
        state = np.eye(d, dtype=complex) / d
    else:
        triple = spinalg.spin_operators(two_j)
        n_hat = ell / r
        l_n = n_hat[0] * triple.l1 + n_hat[1] * triple.l2 + n_hat[2] * triple.l3
        if t > BOUNDARY_BAND:
            log.add("first-moment", "reject", detail)
            c = np.zeros(len(spinalg.MOMENT_LABELS))
            c[_FIRST_MOMENTS] = np.concatenate([[1.0], -n_hat / j]) / d
            value = float(c[_FIRST_MOMENTS] @ [1.0, *ell])
            z = (np.eye(d) - l_n / j) / d
            return _rejected("first-moment", Witness(z, value, c, spinalg.MOMENT_LABELS), log)
        top = matcore.hermitian_eig(l_n)[1][:, -1]
        weight = min(r, j) / j
        state = weight * np.outer(top, top.conj())
        state += (1.0 - weight) * np.eye(d) / d
        state = (state + state.conj().T) / 2.0
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


def exact_test_direct(m: MomentMatrix) -> Verdict:
    """Decisive feasibility SDP over the spin-j state space.

    Constrains the identity, the symmetrized products and the bare spin
    operators to the values prescribed by M, then minimizes t with
    rho + t*1 >= 0; the moments are quantum iff t_star <= the boundary band.
    A reject carries the program's dual as its witness.
    """
    ops = _sdp_operator_set(m.two_j)
    values = spinalg.moment_values(m)
    return _phase1_verdict(ops, values, m.two_j + 1, spinalg.MOMENT_LABELS, "exact")


def exact_test_first_moments(ell: np.ndarray, two_j: int) -> Verdict:
    """First-moment feasibility via the SDP route, second moments left free.

    Exists alongside the closed form as an independently checkable path.
    """
    two_j = spinalg._check_two_j(two_j)
    ops = _sdp_operator_set(two_j)[_FIRST_MOMENTS]
    values = np.concatenate([[1.0], np.asarray(ell, dtype=float)])
    return _phase1_verdict(ops, values, two_j + 1, _FIRST_MOMENT_LABELS, "exact-first-moment")


@lru_cache(maxsize=None)
def _extension_constraint_ops(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """K_r = P^dag(E_r) for the pair marginal P of a 2j-qubit symmetric state.

    E_r = ``matcore.hermitian_basis(3)`` on the symmetric pair basis; K_r acts
    on the spin basis and satisfies <K_r, W> = <E_r, P(W)> for every W.  With
    n = 2j, splitting each Dicke state into pair and rest gives the entry
    (a, b) of P(|D_n^k><D_n^l|) as delta_{k-a, l-b} C(n-2, k-a)
    sqrt(C(2,a) C(2,b) / (C(n,k) C(n,l))).  With s = k - a this is
    sqrt(g_a(s) g_b(s)) for the hypergeometric weights
    g_a(s) = C(2,a) C(n-2,s) / C(n,s+a), each a ratio of two-term products.
    Weight k sits at spin index n - k, so the K_r need no reordering and
    take O(n) memory.  E_0 = 1/sqrt(3) makes the trace constraint explicit.
    """
    n = two_j
    s = np.arange(n - 1.0)
    g = np.stack([(n - s) * (n - s - 1), 2 * (s + 1) * (n - s - 1), (s + 1) * (s + 2)])
    g /= n * (n - 1)
    basis3 = matcore.hermitian_basis(3)
    ops = np.zeros((9, n + 1, n + 1), dtype=complex)
    top = n - np.arange(n - 1)
    for a in range(3):
        for b in range(3):
            ops[:, top - a, top - b] += np.outer(basis3[:, a, b], np.sqrt(g[a] * g[b]))
    return ops, basis3


def exact_test_extension(rho: np.ndarray, two_j: int) -> Verdict:
    """Membership of a symmetric two-qubit state in the extendible set.

    Searches for a 2j-qubit Bose-symmetric state whose pair marginal equals
    rho, in the (2j+1)-dimensional spin basis: the phase-1 program constrains
    <K_r, X> = <E_r, rho> over the closed-form marginal adjoints of
    ``_extension_constraint_ops``.  The certificate is the extension itself;
    a reject's witness is the program's dual over the labelled E_r, whose
    coefficients give the 3x3 pair operator W = sum_r c_r E_r with
    <W, rho> = -t*.  The SDP cone cap ``sdp.DIM_CAP`` (2j <= 63) is the only
    size limit.
    """
    two_j = reduction._require_j_ge_1(two_j)
    rho = matcore.hermitize(np.asarray(rho, dtype=complex), tol=1e-10)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis state, got {rho.shape}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
        raise ValueError("reduced state must have unit trace")
    sdp._check_dim(two_j + 1)
    ops, basis3 = _extension_constraint_ops(two_j)
    values = np.array([matcore.hs_inner(e, rho) for e in basis3])
    return _phase1_verdict(ops, values, two_j + 1, _EXTENSION_LABELS, "extension")


def outer_test(m: MomentMatrix) -> bool:
    """Necessary condition: the reduced expectation value matrix must be PSD
    (to ``matcore.PSD_TOL``).

    False certifies that the moments are not quantum for this spin number.
    """
    rho = reduction.reconstruct_rho(m)
    return matcore.is_psd(reduction.tau(rho, m.two_j))


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
    """Eigen-test a chi or reconstruct matrix; below -PSD_TOL, return its closed-form witness."""
    lam = matcore.min_eigenvalue(matrix)
    if lam >= -matcore.PSD_TOL:
        log.add(stage, "pass", f"min eigenvalue {lam:.3e}")
        return None
    log.add(stage, "reject", f"min eigenvalue {lam:.3e}")
    return _eigenvector_witness(stage, matrix, m)


def classify(m: MomentMatrix) -> Verdict:
    """Full decision pipeline with cheap early exits.

    Order: structural validation (done on construction), the 4x4 expectation
    value matrix precheck (chi, quick reject), reconstruction positivity, the
    PPT inner test (quick accept), then the decisive phase-1 SDP
    (``exact_test_direct``).  Every rejection carries a witness.  A chi or
    reconstruct stage builds it in closed form from the stage's negative
    eigenvector and solves no SDP; its ``t_star`` is None and its value is
    not -t*.  Such an early reject stands only when the witness separates
    (value below -BOUNDARY_BAND).  A valid witness has value >= -t*, so the
    exact test would reject too; otherwise the input is within the band of
    the boundary and the exact stage decides.  An exact reject carries the
    dual of the exact stage's own program, value -t*.  So no path solves
    more than one SDP.

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

    witness = _eigen_stage("chi", spinalg.chi_matrix(m), m, log)
    if witness is None:
        rho = reduction.reconstruct_rho(m)
        witness = _eigen_stage("reconstruct", rho, m, log)
    if witness is None:
        if reduction.ppt_inner_test(rho):
            log.add("inner", "accept", "reduced state is PPT, hence separable")
            return Verdict(STATUS_QUANTUM, "inner", None, None, None, log.done())
        log.add("inner", "undecided", "reduced state is entangled")
    elif witness.separates:
        return _rejected(log.records[-1].name, witness, log)
    else:
        log.add("witness", "inside band", f"value = {witness.value:.3e}; the exact stage decides")

    exact = exact_test_direct(m)
    log.records.extend(exact.tests_run)
    return replace(exact, tests_run=log.done())
