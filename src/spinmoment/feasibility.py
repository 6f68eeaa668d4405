"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 SDP over the spin-j state space; the
cheap inner (PPT / separability) and outer (reduced expectation value matrix)
tests bracket it from both sides.  An exact reject's witness is the dual of
that one phase-1 program, expanded over the measured operators
(``Phase1Result.dual_coefficients``), so it is optimal: value = -t*.  An
early reject (chi or reconstruct) reads a valid, not optimal, witness off the
negative eigenvector its stage already computed (``_eigenvector_witness``),
with no SDP.  ``witness_search`` still solves the phase-1 program for the
optimal hyperplane.  Inside ``classify`` the outer test is carried by the 4x4
chi check, which is congruent to it; ``outer_test`` remains the standalone
definition of T_j.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import matcore, reduction, sdp, spinalg
from .spinalg import MomentMatrix

BOUNDARY_BAND = 1e-7

STATUS_QUANTUM = "quantum"
STATUS_NON_QUANTUM = "non-quantum"
STATUS_BOUNDARY = "boundary"

_OP_LABELS = ("I", "S11", "S12", "S13", "S22", "S23", "S33", "L1", "L2", "L3")
_FIRST_MOMENT_LABELS = ("I", "L1", "L2", "L3")


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
        return float(np.asarray(values) @ self.op_coefficients)


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


@lru_cache(maxsize=None)
def _moment_operator_set(two_j: int) -> tuple[np.ndarray, spinalg.SpinOperatorTriple]:
    """Operators whose expectation values a moment matrix prescribes, stacked.

    Order matches _OP_LABELS: identity, the six symmetrized products
    (L_k L_l + L_l L_k)/2 for k <= l, then the three bare spin operators.
    """
    triple = spinalg.spin_operators(two_j)
    ls = triple.as_list()
    ops = [np.eye(triple.dim, dtype=complex)]
    for k in range(3):
        for l in range(k, 3):
            ops.append((ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0)
    ops.extend(ls)
    return np.stack(ops), triple


def _moment_values(m: MomentMatrix) -> np.ndarray:
    vals = [1.0]
    for k in range(3):
        for l in range(k, 3):
            vals.append(float(m.matrix[k, l].real))
    vals.extend(float(x) for x in m.first_moments)
    return np.array(vals)


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


def _verdict_from_phase1(
    p1: sdp.Phase1Result,
    stage: str,
    log: _StageLog,
    band: float = BOUNDARY_BAND,
) -> Verdict:
    t = p1.t_star
    detail = f"t_star = {t:.3e}, {p1.solution.iterations} iterations, gap {p1.solution.gap:.0e}"
    if t > band:
        log.add(stage, "reject", detail)
        return Verdict(STATUS_NON_QUANTUM, stage, t, None, None, log.done())
    floor = 1e-9 if t <= 0 else t + 2e-9
    state = _clean_state(p1.x, floor)
    if abs(t) <= band:
        log.add(stage, "boundary", detail)
        return Verdict(STATUS_BOUNDARY, stage, t, state, None, log.done())
    log.add(stage, "accept", detail)
    return Verdict(STATUS_QUANTUM, stage, t, state, None, log.done())


def _rejected(stage: str, witness: Witness, log: _StageLog, t_star: float | None = None) -> Verdict:
    log.add("witness", "found", f"value = {witness.value:.3e}")
    return Verdict(STATUS_NON_QUANTUM, stage, t_star, None, witness, log.done())


def _dual_witness(p1: sdp.Phase1Result, values: np.ndarray, labels) -> Witness:
    """The optimal phase-1 dual as a witness over the labelled operators."""
    c = p1.dual_coefficients
    return Witness(p1.dual_z, float(c @ values), c, tuple(labels))


def _solve_phase1(ops, values: np.ndarray, dim: int) -> sdp.Phase1Result:
    """Solve the phase-1 program over labelled operators to optimality.

    Conflicting values of linearly dependent operators are an input error
    (``ValueError``); any other non-optimal solve is an ``ArithmeticError``.
    """
    p1 = sdp.phase1_min_t(list(zip(ops, values)), dim)
    if p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE:
        raise ValueError(
            "the moment values conflict: a linearly dependent operator's value "
            f"differs from the value the others imply ({p1.solution.message})"
        )
    if p1.dual_z is None:
        raise ArithmeticError(f"phase-1 SDP did not converge: {p1.solution.message}")
    return p1


def _value_matrix(values: np.ndarray) -> np.ndarray:
    """The raw 3x3 moment matrix carried by labelled values (inverse of _moment_values)."""
    m = np.zeros((3, 3), dtype=complex)
    pos = 1
    for k in range(3):
        for l in range(k, 3):
            m[k, l] = m[l, k] = values[pos]
            pos += 1
    return m + 1j * spinalg._antisym_from_moments(values[7:])


# Early-reject stage matrices as maps of a raw moment matrix; both are affine.
_EARLY_STAGE_MAPS = {
    "chi": lambda two_j, mat: spinalg.chi_matrix(
        MomentMatrix(two_j, mat, spinalg.extract_first_moments(mat))
    ),
    "reconstruct": lambda two_j, mat: reduction._solve_pair_operator(two_j, mat)[0],
}


@lru_cache(maxsize=None)
def _early_witness_system(stage: str, two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """(F(e_i), tr A_i) over _OP_LABELS for an early-reject stage.

    F(e_i) is the stage matrix's image of unit value vector i; the identity's
    value is always 1, so F(e_0) carries the map's constant.
    """
    stage_map = _EARLY_STAGE_MAPS[stage]
    const = stage_map(two_j, np.zeros((3, 3), dtype=complex))
    images = [const] + [
        stage_map(two_j, _value_matrix(e)) - const for e in np.eye(len(_OP_LABELS))[1:]
    ]
    ops = _moment_operator_set(two_j)[0]
    return np.stack(images), np.einsum("iaa->i", ops).real


def _eigenvector_witness(stage: str, matrix: np.ndarray, m: MomentMatrix) -> Witness:
    """Closed-form witness for a chi or reconstruct reject, with no SDP.

    Both stage matrices are affine in the labelled values b, X(b) =
    sum_i b_i F(e_i).  With v the eigenvector of X(b) for its most negative
    eigenvalue, c_i = v^dag F(e_i) v, Z = sum_i c_i A_i / sum_i c_i tr A_i and
    value = c.b / sum_i c_i tr A_i = lambda_min / sum_i c_i tr A_i < 0.

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
    trace.  The witness is valid but not optimal: its value is not -t*.
    """
    images, traces = _early_witness_system(stage, m.two_j)
    ops = _moment_operator_set(m.two_j)[0]
    v = matcore.hermitian_eig(matrix)[1][:, 0]
    c = np.einsum("a,iab,b->i", v.conj(), images, v).real
    c = c / float(c @ traces)
    return Witness(np.tensordot(c, ops, axes=1), float(c @ _moment_values(m)), c, _OP_LABELS)


def _phase1_verdict(ops, values: np.ndarray, dim: int, labels, stage: str, band: float) -> Verdict:
    """Solve the phase-1 program over labelled operators; a reject carries its dual."""
    log = _StageLog()
    p1 = _solve_phase1(ops, values, dim)
    verdict = _verdict_from_phase1(p1, stage, log, band)
    if verdict.status == STATUS_NON_QUANTUM:
        return _rejected(stage, _dual_witness(p1, values, labels), log, verdict.t_star)
    return verdict


def first_moment_test(ell: np.ndarray, two_j: int, band: float = 1e-9) -> Verdict:
    """Closed-form first-moment feasibility: quantum iff |l|^2 <= j^2.

    When feasible the certificate mixes the top eigenstate of the spin
    operator along l with the maximally mixed state.
    """
    two_j = spinalg._check_two_j(two_j)
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (3,):
        raise ValueError("first moments must be a real 3-vector")
    j = two_j / 2.0
    r = float(np.linalg.norm(ell))
    log = _StageLog()
    if r > j * (1.0 + band):
        log.add("first-moment", "reject", f"|l| = {r:.9g} > j = {j:.9g}")
        return Verdict(STATUS_NON_QUANTUM, "first-moment", None, None, None, log.done())
    status = STATUS_BOUNDARY if abs(r - j) <= band * j else STATUS_QUANTUM
    state = _first_moment_certificate(ell, two_j)
    log.add("first-moment", "boundary" if status == STATUS_BOUNDARY else "accept", f"|l| = {r:.9g}")
    return Verdict(status, "first-moment", None, state, None, log.done())


def _first_moment_certificate(ell: np.ndarray, two_j: int) -> np.ndarray:
    triple = spinalg.spin_operators(two_j)
    d = triple.dim
    j = two_j / 2.0
    r = min(float(np.linalg.norm(ell)), j)
    if r == 0.0:
        return np.eye(d, dtype=complex) / d
    n_hat = np.asarray(ell, dtype=float) / float(np.linalg.norm(ell))
    l_n = n_hat[0] * triple.l1 + n_hat[1] * triple.l2 + n_hat[2] * triple.l3
    _, vecs = matcore.hermitian_eig(l_n)
    top = vecs[:, -1]
    weight = r / j
    state = weight * np.outer(top, top.conj())
    state += (1.0 - weight) * np.eye(d) / d
    return (state + state.conj().T) / 2.0


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


def exact_test_direct(m: MomentMatrix, band: float = BOUNDARY_BAND) -> Verdict:
    """Decisive feasibility SDP over the spin-j state space.

    Constrains the identity, the symmetrized products and the bare spin
    operators to the values prescribed by M, then minimizes t with
    rho + t*1 >= 0; the moments are quantum iff t_star <= the boundary band.
    A reject carries the program's dual as its witness.
    """
    ops, triple = _moment_operator_set(m.two_j)
    return _phase1_verdict(ops, _moment_values(m), triple.dim, _OP_LABELS, "exact", band)


def exact_test_first_moments(ell: np.ndarray, two_j: int, band: float = BOUNDARY_BAND) -> Verdict:
    """First-moment feasibility via the SDP route, second moments left free.

    Exists alongside the closed form as an independently checkable path.
    """
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ell = np.asarray(ell, dtype=float)
    ops = [np.eye(triple.dim, dtype=complex)] + triple.as_list()
    values = np.concatenate([[1.0], ell])
    return _phase1_verdict(ops, values, triple.dim, _FIRST_MOMENT_LABELS, "exact-first-moment", band)


@lru_cache(maxsize=None)
def _extension_constraint_ops(two_j: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Adjoint of the two-qubit marginal map against a Hermitian basis.

    Each operator K_r acts on the (2j+1)-dimensional symmetric coordinates and
    satisfies <K_r, W> = <E_r, marginal(V W V^dag)> for the orthonormal 3x3
    basis E_r; the identity element makes the trace constraint explicit.
    """
    n = two_j
    v = matcore.symmetric_isometry(n)
    v2 = matcore.symmetric_isometry(2)
    rest = 1 << (n - 2)
    cols = v.reshape(4, rest, n + 1)
    basis3 = matcore.hermitian_basis(3)
    ops = []
    for e in basis3:
        a4 = v2 @ e @ v2.conj().T
        lifted = np.einsum("ab,brd->ard", a4, cols).reshape(4 * rest, n + 1)
        k = v.conj().T @ lifted
        ops.append((k + k.conj().T) / 2.0)
    return tuple(ops), basis3


def exact_test_extension(
    rho: np.ndarray,
    two_j: int,
    band: float = BOUNDARY_BAND,
    cap: int = 12,
) -> Verdict:
    """Membership of a symmetric two-qubit state in the extendible set.

    Searches for a 2j-qubit Bose-symmetric state whose pair marginal equals
    rho, working entirely in the (2j+1)-dimensional symmetric coordinates.
    The returned certificate is the extension, reordered to the spin basis.
    """
    two_j = reduction._require_j_ge_1(two_j)
    if two_j > cap:
        raise ValueError(
            f"2j = {two_j} exceeds the {cap}-qubit embedding cap; "
            "use exact_test_direct on the corresponding moment matrix instead"
        )
    rho = matcore.hermitize(np.asarray(rho, dtype=complex), tol=1e-10)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis state, got {rho.shape}")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-10:
        raise ValueError("reduced state must have unit trace")
    ops, basis3 = _extension_constraint_ops(two_j)
    values = np.array([matcore.hs_inner(e, rho) for e in basis3])
    log = _StageLog()
    p1 = _solve_phase1(ops, values, two_j + 1)
    verdict = _verdict_from_phase1(p1, "extension", log, band)
    if verdict.certificate_state is not None:
        spin_state = verdict.certificate_state[::-1, ::-1].copy()
        verdict = replace(verdict, certificate_state=spin_state)
    return verdict


def outer_test(m: MomentMatrix, tol: float = matcore.PSD_TOL) -> bool:
    """Necessary condition: the reduced expectation value matrix must be PSD.

    False certifies that the moments are not quantum for this spin number.
    """
    rho = reduction.reconstruct_rho(m)
    return matcore.is_psd(reduction.tau(rho, m.two_j), tol=tol)


def witness_search(m: MomentMatrix) -> Witness:
    """Optimal separating hyperplane for a moment matrix.

    Solves the phase-1 program once and reads the hyperplane off its dual; the
    result has Z >= 0 and tr Z = 1 always, and value = -t_star < 0 exactly when
    the input lies outside the quantum set (up to solver accuracy).
    """
    ops, triple = _moment_operator_set(m.two_j)
    values = _moment_values(m)
    return _dual_witness(_solve_phase1(ops, values, triple.dim), values, _OP_LABELS)


def witness_for_first_moments(ell: np.ndarray, two_j: int) -> Witness:
    """Separating hyperplane over {1, L1, L2, L3} for a first-moment vector."""
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ops = [np.eye(triple.dim, dtype=complex)] + triple.as_list()
    values = np.concatenate([[1.0], np.asarray(ell, dtype=float)])
    return _dual_witness(_solve_phase1(ops, values, triple.dim), values, _FIRST_MOMENT_LABELS)


def moment_values_in_witness_basis(m: MomentMatrix, witness: Witness) -> np.ndarray:
    """Expectation values of the witness's operators prescribed by a moment matrix."""
    values = _moment_values(m)
    if values.shape != witness.op_coefficients.shape:
        raise ValueError("witness and moment matrix use different operator sets")
    return values


def _validate_half_spin_structure(m: MomentMatrix, tol: float = 1e-9) -> None:
    """At j = 1/2 all second moments are forced: Re(M) must equal I/4."""
    forced = np.eye(3) / 4.0
    dev = float(np.abs(m.matrix.real - forced).max())
    if dev > tol:
        raise ValueError(
            f"second moments at j = 1/2 are forced to Re(M) = I/4; deviation {dev:.3e}"
        )


def classify(m: MomentMatrix, tol: float = matcore.PSD_TOL, band: float = BOUNDARY_BAND) -> Verdict:
    """Full decision pipeline with cheap early exits.

    Order: structural validation (done on construction), the 4x4 expectation
    value matrix precheck (chi, quick reject), reconstruction positivity, the
    PPT inner test (quick accept), then the decisive phase-1 SDP
    (``exact_test_direct``).  Every rejection carries a witness.  A chi or
    reconstruct reject builds it in closed form from the stage's negative
    eigenvector and solves no SDP; its ``t_star`` is None and its value is
    not -t*.  An exact reject carries the dual of the exact stage's own
    program, value -t*.  So no path solves more than one SDP.

    There is no separate outer (tau) stage: chi = D tau D with
    D = diag(1, j, j, j) and j >= 1, so for any x, x^dag tau x = y^dag chi y
    with y = D^-1 x and |y| <= |x|.  Hence lambda_min(tau) >=
    min(0, lambda_min(chi)) >= -tol once chi has passed, and the outer test
    could never reject here.
    """
    log = _StageLog()
    log.add("validate", "pass")

    if m.two_j == 1:
        _validate_half_spin_structure(m)
        log.add("structure", "pass", "second moments forced at j=1/2")
        inner = first_moment_test(m.first_moments, m.two_j)
        log.records.extend(inner.tests_run)
        if inner.status == STATUS_NON_QUANTUM:
            witness = witness_for_first_moments(m.first_moments, m.two_j)
            return _rejected("first-moment", witness, log)
        return Verdict(inner.status, "first-moment", None, inner.certificate_state, None, log.done())

    chi = spinalg.chi_matrix(m)
    chi_min = matcore.min_eigenvalue(chi)
    if chi_min < -tol:
        log.add("chi", "reject", f"min eigenvalue {chi_min:.3e}")
        return _rejected("chi", _eigenvector_witness("chi", chi, m), log)
    log.add("chi", "pass", f"min eigenvalue {chi_min:.3e}")

    rho = reduction.reconstruct_rho(m)
    rho_min = matcore.min_eigenvalue(rho)
    if rho_min < -tol:
        log.add("reconstruct", "reject", f"min eigenvalue {rho_min:.3e}")
        return _rejected("reconstruct", _eigenvector_witness("reconstruct", rho, m), log)
    log.add("reconstruct", "pass", f"min eigenvalue {rho_min:.3e}")

    if reduction.ppt_inner_test(rho, tol=tol):
        log.add("inner", "accept", "reduced state is PPT, hence separable")
        return Verdict(STATUS_QUANTUM, "inner", None, None, None, log.done())
    log.add("inner", "undecided", "reduced state is entangled")

    exact = exact_test_direct(m, band)
    log.records.extend(exact.tests_run)
    return replace(exact, tests_run=log.done())
