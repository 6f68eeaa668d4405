"""Two-qubit (spin-1) reduction: the moment-carrying operators on the symmetric
subspace, state reconstruction from moments, renormalized coordinates, the
reduced expectation value matrix and the PPT inner test.

Basis and sign conventions: the symmetric two-qubit basis is ordered
(|00>, (|01>+|10>)/sqrt(2), |11>) with |1> the spin-up qubit level, so the
highest-weight spin state <L3> = +j reduces to |11><11| and maps to u3 = +1.
Qubit generators are therefore (sx/2, -sy/2, -sz/2), i.e. the standard Pauli
triple conjugated by the bit flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore
from .spinalg import CASIMIR_TOL, MomentMatrix, _antisym_from_moments, _check_two_j

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Fundamental generators in the |1> = spin-up labeling.
_QUBIT_GENERATORS = (_PAULI_X / 2.0, -_PAULI_Y / 2.0, -_PAULI_Z / 2.0)


def _require_j_ge_1(two_j: int) -> int:
    two_j = _check_two_j(two_j)
    if two_j < 2:
        raise ValueError(
            "the two-qubit reduction needs j >= 1; at j = 1/2 second moments are "
            "forced and only the first-moment machinery applies"
        )
    return two_j


@dataclass(frozen=True)
class ReductionOperators:
    """Operators on the symmetric two-qubit basis that carry all spin-j moments.

    lam1[k] reproduces <L_k> and lam2[k][l] reproduces tr(L_k L_l rho) when
    paired with the reduced state; lam2[k][l]^dag = lam2[l][k].
    """

    two_j: int
    lam1: tuple[np.ndarray, ...]
    lam2: tuple[tuple[np.ndarray, ...], ...]

    @property
    def j(self) -> float:
        return self.two_j / 2.0


@dataclass(frozen=True)
class RenormalizedCoords:
    """Spin-number-stabilized coordinates u_k = <L_k>/j and the rescaled
    diagonal second moments v_k with sum(v) = 1."""

    u: np.ndarray
    v: np.ndarray
    two_j: int

    @property
    def j(self) -> float:
        return self.two_j / 2.0


@lru_cache(maxsize=None)
def _symmetric_pair_isometry() -> np.ndarray:
    return matcore.symmetric_isometry(2)


@lru_cache(maxsize=None)
def reduction_operators(two_j: int) -> ReductionOperators:
    """Build (and cache) the reduction operators for total spin j = two_j/2."""
    two_j = _require_j_ge_1(two_j)
    v2 = _symmetric_pair_isometry()
    eye = np.eye(2, dtype=complex)
    q = _QUBIT_GENERATORS
    lam1 = tuple(
        two_j * (v2.conj().T @ matcore.kron(qk, eye) @ v2) for qk in q
    )
    lam2 = []
    for k in range(3):
        row = []
        for l in range(3):
            op = two_j * matcore.kron(q[k] @ q[l], eye)
            op += two_j * (two_j - 1) * matcore.kron(q[k], q[l])
            row.append(v2.conj().T @ op @ v2)
        lam2.append(tuple(row))
    return ReductionOperators(two_j=two_j, lam1=lam1, lam2=tuple(lam2))


def spin_to_weight_basis(rho: np.ndarray) -> np.ndarray:
    """Reorder a spin-basis operator (m descending) to Hamming-weight order."""
    rho = np.asarray(rho, dtype=complex)
    return rho[::-1, ::-1].copy()


def embed_symmetric_state(w: np.ndarray, n: int, cap: int = 12) -> np.ndarray:
    """Embed an operator given in symmetric coordinates into the n-qubit space."""
    v = matcore.symmetric_isometry(n, cap=cap)
    return v @ np.asarray(w, dtype=complex) @ v.conj().T


def reduce_to_pair(omega: np.ndarray, n: int) -> np.ndarray:
    """Two-qubit marginal of an n-qubit symmetric state, in the symmetric basis."""
    if n < 2:
        raise ValueError("need at least two qubits")
    omega = np.asarray(omega, dtype=complex)
    if n == 2:
        pair = omega
    else:
        pair = matcore.partial_trace(omega, (4, 1 << (n - 2)), keep=0)
    v2 = _symmetric_pair_isometry()
    return v2.conj().T @ pair @ v2


# Equation layout for the 9 real moment conditions: three diagonals, then
# (re, im) of the three upper off-diagonal entries.
_EQ_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _moment_rhs(matrix: np.ndarray) -> np.ndarray:
    rhs = np.empty(9)
    rhs[0:3] = [matrix[k, k].real for k in range(3)]
    pos = 3
    for k, l in _EQ_PAIRS[3:]:
        rhs[pos] = matrix[k, l].real
        rhs[pos + 1] = matrix[k, l].imag
        pos += 2
    return rhs


@lru_cache(maxsize=None)
def _reconstruction_system(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precompute the least-squares system mapping moments to the reduced state.

    The state is parametrized as rho = I/3 + sum_r x_r G_r over the traceless
    Hermitian basis, giving 9 real equations in 8 unknowns; the pseudoinverse
    and the offset from the I/3 part are cached per spin number.
    """
    ops = reduction_operators(two_j)
    basis = matcore.hermitian_basis(3)[1:]
    a = np.empty((9, 8))
    offset = np.empty(9)
    for r in range(8):
        probe = np.empty((3, 3), dtype=complex)
        for k in range(3):
            for l in range(k, 3):
                probe[k, l] = np.trace(ops.lam2[k][l] @ basis[r])
                probe[l, k] = np.conj(probe[k, l])
        a[:, r] = _moment_rhs(probe)
    probe = np.empty((3, 3), dtype=complex)
    for k in range(3):
        for l in range(k, 3):
            probe[k, l] = np.trace(ops.lam2[k][l]) / 3.0
            probe[l, k] = np.conj(probe[k, l])
    offset = _moment_rhs(probe)
    pinv = np.linalg.pinv(a)
    return a, offset, pinv


def _solve_pair_operator(two_j: int, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares pair operator for a raw 3x3 moment matrix, and the
    residual of its 9 equations; affine in the matrix and unchecked."""
    a, offset, pinv = _reconstruction_system(two_j)
    rhs = _moment_rhs(matrix) - offset
    x = pinv @ rhs
    basis = matcore.hermitian_basis(3)[1:]
    rho = np.eye(3, dtype=complex) / 3.0
    rho += np.einsum("r,rkl->kl", x, basis)
    return (rho + rho.conj().T) / 2.0, a @ x - rhs


def reconstruct_rho(m: MomentMatrix, residual_tol: float = 1e-8) -> np.ndarray:
    """Reconstruct the unique symmetric two-qubit operator matching all moments.

    The result is Hermitian with trace 1 but may fail positivity, which by
    itself certifies that no quantum state produces these moments.
    """
    two_j = _require_j_ge_1(m.two_j)
    rho, resid = _solve_pair_operator(two_j, m.matrix)
    worst = int(np.argmax(np.abs(resid)))
    if abs(resid[worst]) > residual_tol:
        k, l = _EQ_PAIRS[worst if worst < 3 else 3 + (worst - 3) // 2]
        raise ValueError(
            f"moment matrix is inconsistent with any reduced state: residual "
            f"{resid[worst]:.3e} on the M[{k},{l}] condition"
        )
    return rho


def renormalized_coords(m: MomentMatrix) -> RenormalizedCoords:
    """Renormalized coordinates of a moment matrix (needs j >= 1)."""
    two_j = _require_j_ge_1(m.two_j)
    j = two_j / 2.0
    u = m.first_moments / j
    diag = np.real(np.diag(m.matrix))
    v = diag / (j * (j - 0.5)) - 1.0 / (two_j - 1.0)
    return RenormalizedCoords(u=u, v=v, two_j=two_j)


def moments_from_coords(
    coords: RenormalizedCoords,
    offdiag_re: np.ndarray | None = None,
    tol: float = CASIMIR_TOL,
) -> MomentMatrix:
    """Rebuild the moment matrix from renormalized coordinates.

    Off-diagonal real parts default to zero (the standard form); sum(v) must
    equal 1, which is the Casimir identity in these coordinates.
    """
    two_j = _require_j_ge_1(coords.two_j)
    j = two_j / 2.0
    u = np.asarray(coords.u, dtype=float)
    v = np.asarray(coords.v, dtype=float)
    vsum = float(v.sum())
    if abs(vsum - 1.0) > tol:
        raise ValueError(f"sum(v) = {vsum:.9g} violates the Casimir constraint sum(v) = 1")
    m = np.zeros((3, 3), dtype=complex)
    np.fill_diagonal(m, v * (j * (j - 0.5)) + j / 2.0)
    if offdiag_re is not None:
        r12, r13, r23 = (float(t) for t in offdiag_re)
        m[0, 1] += r12
        m[1, 0] += r12
        m[0, 2] += r13
        m[2, 0] += r13
        m[1, 2] += r23
        m[2, 1] += r23
    m += 1j * _antisym_from_moments(u * j)
    return MomentMatrix.from_matrix(two_j, m, tol=tol)


def tau(rho: np.ndarray, two_j: int) -> np.ndarray:
    """Reduced expectation value matrix of order j for a symmetric two-qubit
    operator; positive semidefinite whenever rho extends to 2j qubits."""
    two_j = _require_j_ge_1(two_j)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis operator, got {rho.shape}")
    ops = reduction_operators(two_j)
    j = two_j / 2.0
    t = np.empty((4, 4), dtype=complex)
    t[0, 0] = np.trace(rho)
    for k in range(3):
        t[0, 1 + k] = np.trace(ops.lam1[k] @ rho) / j
        for l in range(3):
            t[1 + k, 1 + l] = np.trace(ops.lam2[k][l] @ rho) / (j * j)
    t[1:, 0] = np.conj(t[0, 1:])
    return (t + t.conj().T) / 2.0


def ppt_inner_test(rho: np.ndarray, tol: float = matcore.PSD_TOL) -> bool:
    """Positivity of the partial transpose, embedded in the two-qubit space.

    For symmetric two-qubit states this is equivalent to separability, so a
    pass certifies that the moments are quantum for every spin number.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis operator, got {rho.shape}")
    if matcore.min_eigenvalue(rho) < -tol:
        return False
    v2 = _symmetric_pair_isometry()
    embedded = v2 @ rho @ v2.conj().T
    return matcore.is_psd(matcore.partial_transpose_b(embedded), tol=tol)
