"""Decision procedures for moment feasibility.

The decisive machinery is the phase-1 SDP over the spin-j state space; the
cheap inner (PPT / separability) and outer (reduced expectation value matrix)
tests bracket it from both sides, and the dual of the feasibility program is
the separating hyperplane when the moments are not quantum.  Inside
``classify`` the outer test is carried by the 4x4 chi check, which is
congruent to it; ``outer_test`` remains the standalone definition of T_j.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import matcore, reduction, sdp, spinalg
from .spinalg import MomentMatrix

BOUNDARY_BAND = 1e-7

STATUS_QUANTUM = "quantum"
STATUS_NON_QUANTUM = "non-quantum"
STATUS_BOUNDARY = "boundary"

_OP_LABELS = ("I", "S11", "S12", "S13", "S22", "S23", "S33", "L1", "L2", "L3")


@dataclass(frozen=True)
class StageRecord:
    name: str
    outcome: str
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class Witness:
    """Separating hyperplane Z = sum_i z_i S_i with Z >= 0 and tr Z = 1.

    ``value`` is z.t evaluated on the input's orthonormalized expectation
    values; it is negative exactly when the input is detected as non-quantum.
    ``op_coefficients`` express Z over the kept original operators.
    """

    z: np.ndarray
    matrix: np.ndarray
    value: float
    op_coefficients: np.ndarray
    op_labels: tuple[str, ...]
    orthonormalized_values: np.ndarray

    @property
    def separates(self) -> bool:
        return self.value < -BOUNDARY_BAND

    def evaluate(self, values: np.ndarray) -> float:
        """Apply the hyperplane to another orthonormalized value vector."""
        return float(np.asarray(values) @ self.z)


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
def _moment_operator_set(two_j: int) -> tuple[tuple[np.ndarray, ...], spinalg.SpinOperatorTriple]:
    """Operators whose expectation values a moment matrix prescribes.

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
    return tuple(ops), triple


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
    if p1.solution.status == sdp.STATUS_FAILURE:
        raise ArithmeticError(f"SDP solver failed: {p1.solution.message}")
    if p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE:
        log.add(stage, "infeasible-constraints")
        return Verdict(STATUS_NON_QUANTUM, stage, math.inf, None, None, log.done())
    t = p1.t_star
    if t > band:
        log.add(stage, "reject", f"t_star = {t:.3e}")
        return Verdict(STATUS_NON_QUANTUM, stage, t, None, None, log.done())
    floor = 1e-9 if t <= 0 else t + 2e-9
    state = _clean_state(p1.x, floor)
    if abs(t) <= band:
        log.add(stage, "boundary", f"t_star = {t:.3e}")
        return Verdict(STATUS_BOUNDARY, stage, t, state, None, log.done())
    log.add(stage, "accept", f"t_star = {t:.3e}")
    return Verdict(STATUS_QUANTUM, stage, t, state, None, log.done())


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
    """
    ops, triple = _moment_operator_set(m.two_j)
    values = _moment_values(m)
    log = _StageLog()
    p1 = sdp.phase1_min_t(list(zip(ops, values)), triple.dim)
    return _verdict_from_phase1(p1, "exact", log, band)


def exact_test_first_moments(ell: np.ndarray, two_j: int, band: float = BOUNDARY_BAND) -> Verdict:
    """First-moment feasibility via the SDP route, second moments left free.

    Exists alongside the closed form as an independently checkable path.
    """
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ell = np.asarray(ell, dtype=float)
    ops = [np.eye(triple.dim, dtype=complex)] + triple.as_list()
    values = np.concatenate([[1.0], ell])
    log = _StageLog()
    p1 = sdp.phase1_min_t(list(zip(ops, values)), triple.dim)
    return _verdict_from_phase1(p1, "exact-first-moment", log, band)


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
    p1 = sdp.phase1_min_t(list(zip(ops, values)), two_j + 1)
    verdict = _verdict_from_phase1(p1, "extension", log, band)
    if verdict.certificate_state is not None:
        spin_state = verdict.certificate_state[::-1, ::-1].copy()
        verdict = Verdict(
            verdict.status,
            verdict.stage,
            verdict.t_star,
            spin_state,
            verdict.witness,
            verdict.tests_run,
        )
    return verdict


def outer_test(m: MomentMatrix, tol: float = matcore.PSD_TOL) -> bool:
    """Necessary condition: the reduced expectation value matrix must be PSD.

    False certifies that the moments are not quantum for this spin number.
    """
    rho = reduction.reconstruct_rho(m)
    return matcore.is_psd(reduction.tau(rho, m.two_j), tol=tol)


def witness_search(m: MomentMatrix) -> Witness:
    """Optimal separating hyperplane for a moment matrix.

    Solves the hyperplane program over the orthonormalized operator set; the
    result has Z >= 0 and tr Z = 1 always, and value < 0 exactly when the input
    lies outside the quantum set (up to solver accuracy).
    """
    ops, triple = _moment_operator_set(m.two_j)
    values = _moment_values(m)
    return _witness_from_ops(list(ops), values, triple.dim, _OP_LABELS)


def witness_for_first_moments(ell: np.ndarray, two_j: int) -> Witness:
    """Separating hyperplane over {1, L1, L2, L3} for a first-moment vector."""
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ops = [np.eye(triple.dim, dtype=complex)] + triple.as_list()
    values = np.concatenate([[1.0], np.asarray(ell, dtype=float)])
    return _witness_from_ops(ops, values, triple.dim, ("I", "L1", "L2", "L3"))


def _witness_from_ops(ops, values, dim, labels) -> Witness:
    ortho = sdp.orthonormalize(ops, values)
    s_ops = ortho.operators
    t = ortho.values
    d = dim
    constraints = [(s_ops[i], float(t[i])) for i in range(1, len(s_ops))]
    problem = sdp.SdpProblem.build(d, np.eye(d, dtype=complex) / d, constraints)
    sol = sdp.solve(problem)
    if sol.status != sdp.STATUS_OPTIMAL:
        raise ArithmeticError(f"witness SDP did not converge: {sol.message}")
    z = np.empty(len(s_ops))
    z[0] = 1.0 / math.sqrt(d)
    z[1:] = -sol.y
    zmat = sum(z[i] * s_ops[i] for i in range(len(s_ops)))
    zmat = (zmat + zmat.conj().T) / 2.0
    value = float(z @ t)
    coeffs = ortho.transform.T @ z
    kept_labels = tuple(labels[i] for i in range(len(labels)))
    return Witness(
        z=z,
        matrix=zmat,
        value=value,
        op_coefficients=coeffs,
        op_labels=kept_labels,
        orthonormalized_values=t,
    )


def moment_values_in_witness_basis(m: MomentMatrix, witness: Witness) -> np.ndarray:
    """Orthonormalized value vector of a moment matrix, for witness evaluation."""
    ops, _ = _moment_operator_set(m.two_j)
    values = _moment_values(m)
    ortho = sdp.orthonormalize(list(ops), values)
    if ortho.values.shape != witness.z.shape:
        raise ValueError("witness and moment matrix use different operator sets")
    return ortho.values


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
    PPT inner test (quick accept), then the decisive SDP; a rejection at any
    stage is finished with a witness search.

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
            log.add("witness", "found", f"value = {witness.value:.3e}")
            return Verdict(STATUS_NON_QUANTUM, "first-moment", None, None, witness, log.done())
        return Verdict(inner.status, "first-moment", None, inner.certificate_state, None, log.done())

    chi = spinalg.chi_matrix(m)
    chi_min = matcore.min_eigenvalue(chi)
    if chi_min < -tol:
        log.add("chi", "reject", f"min eigenvalue {chi_min:.3e}")
        witness = witness_search(m)
        log.add("witness", "found", f"value = {witness.value:.3e}")
        return Verdict(STATUS_NON_QUANTUM, "chi", None, None, witness, log.done())
    log.add("chi", "pass", f"min eigenvalue {chi_min:.3e}")

    rho = reduction.reconstruct_rho(m)
    rho_min = matcore.min_eigenvalue(rho)
    if rho_min < -tol:
        log.add("reconstruct", "reject", f"min eigenvalue {rho_min:.3e}")
        witness = witness_search(m)
        log.add("witness", "found", f"value = {witness.value:.3e}")
        return Verdict(STATUS_NON_QUANTUM, "reconstruct", None, None, witness, log.done())
    log.add("reconstruct", "pass", f"min eigenvalue {rho_min:.3e}")

    if reduction.ppt_inner_test(rho, tol=tol):
        log.add("inner", "accept", "reduced state is PPT, hence separable")
        return Verdict(STATUS_QUANTUM, "inner", None, None, None, log.done())
    log.add("inner", "undecided", "reduced state is entangled")

    exact = exact_test_direct(m, band=band)
    log.records.extend(exact.tests_run)
    if exact.status == STATUS_NON_QUANTUM:
        witness = witness_search(m)
        log.add("witness", "found", f"value = {witness.value:.3e}")
        return Verdict(STATUS_NON_QUANTUM, "exact", exact.t_star, None, witness, log.done())
    return Verdict(exact.status, "exact", exact.t_star, exact.certificate_state, None, log.done())
