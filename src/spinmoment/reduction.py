"""Two-qubit (spin-1) reduction: the moment-carrying operators on the symmetric
subspace, state reconstruction from moments, renormalized coordinates, the
reduced expectation value matrix and the PPT inner test.

Both directions are cached (10, 3, 3) stacks over the moment vector b of
``spinalg.moment_values``: ``reduction_operators`` gives K with
b_i = tr(K_i rho_j), and ``_reconstruction_system`` gives R with
rho_j = sum_i b_i R_i.  ``tau`` is sum_i b_i ``_tau_system``[i] for the b
that K reads off its argument.

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
from .spinalg import CHI_PATTERN, MOMENT_LABELS, MomentMatrix, _UPPER, _check_two_j

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Fundamental generators in the |1> = spin-up labeling.
_QUBIT_GENERATORS = (_PAULI_X / 2.0, -_PAULI_Y / 2.0, -_PAULI_Z / 2.0)

# Isometry from the symmetric pair basis into C^2 (x) C^2.
_S = 1.0 / math.sqrt(2.0)
_PAIR_ISOMETRY = np.array([[1, 0, 0], [0, _S, 0], [0, _S, 0], [0, 0, 1]], dtype=complex)


def _require_j_ge_1(two_j: int) -> int:
    two_j = _check_two_j(two_j)
    if two_j < 2:
        raise ValueError(
            "the two-qubit reduction needs j >= 1; at j = 1/2 second moments are "
            "forced and only the first-moment machinery applies"
        )
    return two_j


@dataclass(frozen=True)
class RenormalizedCoords:
    """Spin-number-stabilized coordinates u_k = <L_k>/j and the rescaled
    diagonal second moments v_k with sum(v) = 1."""

    u: np.ndarray
    v: np.ndarray
    two_j: int


@lru_cache(maxsize=None)
def reduction_operators(two_j: int) -> np.ndarray:
    """The (10, 3, 3) stack K with b_i = tr(K_i rho_j) over ``MOMENT_LABELS``.

    Each spin-j operator lifts to the sum of its qubit copies on 2j qubits:
    L_k to 2j q_k (x) 1 on a pair, and the symmetrized product S_kl to
    2j (q_k q_l + q_l q_k)/2 (x) 1 + 2j(2j-1) q_k (x) q_l, with
    (q_k q_l + q_l q_k)/2 = delta_kl / 4 for qubits.  Compressed to the
    symmetric pair basis, these pair with the reduced state (cached per spin).
    """
    two_j = _require_j_ge_1(two_j)
    v2 = _PAIR_ISOMETRY
    eye = np.eye(2)
    q = _QUBIT_GENERATORS

    def pair(a, b):
        return v2.conj().T @ matcore.kron(a, b) @ v2

    ops = [np.eye(3, dtype=complex)]
    for k, l in zip(*_UPPER):
        ops.append(two_j * (k == l) / 4.0 * np.eye(3) + two_j * (two_j - 1) * pair(q[k], q[l]))
    ops.extend(two_j * pair(qk, eye) for qk in q)
    return np.stack(ops)


@lru_cache(maxsize=None)
def _reconstruction_system(two_j: int) -> np.ndarray:
    """The (10, 3, 3) stack R with rho_j = sum_i b_i R_i over ``MOMENT_LABELS``.

    The state is parametrized as rho = I/3 + sum_r x_r G_r over the traceless
    Hermitian basis, so tr rho = 1 holds by construction; the nine equations
    tr(K_i rho) = b_i, i >= 1, fix the eight x_r by least squares (the
    Casimir relation makes one of them redundant).  R_0 carries the I/3 part,
    and R_i, i >= 1, are traceless.  Cached per spin number.
    """
    k = reduction_operators(two_j)[1:]
    basis = matcore.hermitian_basis(3)[1:]
    a = np.einsum("iab,rba->ir", k, basis).real
    pinv = np.linalg.pinv(a)
    lin = np.einsum("ri,rab->iab", pinv, basis)
    const = np.eye(3) / 3.0 - np.einsum("r,rab->ab", pinv @ np.einsum("iaa->i", k).real / 3.0, basis)
    r = np.concatenate([const[None], lin])
    return (r + r.conj().transpose(0, 2, 1)) / 2.0


def reconstruct_rho(m: MomentMatrix) -> np.ndarray:
    """Reconstruct the unique symmetric two-qubit operator matching all moments.

    The result is Hermitian with trace 1 but may fail positivity, which by
    itself certifies that no quantum state produces these moments.  A moment
    value it misses by more than ``matcore.RESIDUAL_TOL`` times
    max(1, max |b_i|) is a ``ValueError``: relative, like the Casimir check
    of ``MomentMatrix``, since the values grow like j(j+1).
    """
    two_j = _require_j_ge_1(m.two_j)
    b = m.values
    rho = matcore.combine(b, _reconstruction_system(two_j))
    resid = matcore.traces(reduction_operators(two_j), rho).real - b
    worst = int(np.argmax(np.abs(resid)))
    if abs(resid[worst]) > matcore.RESIDUAL_TOL * max(1.0, float(np.abs(b).max())):
        raise ValueError(
            f"moment matrix is inconsistent with any reduced state: residual "
            f"{resid[worst]:.3e} on the {MOMENT_LABELS[worst]} value"
        )
    return rho


def _coords_values(two_j: int, u, v) -> np.ndarray:
    """The moment vector b of renormalized coordinates: l = j u, <L_k^2> =
    j(j - 1/2) v_k + j/2 and Re(M_kl) = 0, k < l."""
    j = two_j / 2.0
    d = np.asarray(v, dtype=float) * (j * (j - 0.5)) + j / 2.0
    return np.concatenate(([1.0, d[0], 0.0, 0.0, d[1], 0.0, d[2]], np.asarray(u, dtype=float) * j))


def moments_from_coords(coords: RenormalizedCoords) -> MomentMatrix:
    """Rebuild the moment matrix from renormalized coordinates.

    Re(M) is diagonal, as in the frame the coordinates are taken in; sum(v) must
    equal 1 within the absolute ``matcore.CASIMIR_TOL``, since v is O(1): that
    is the Casimir identity in these coordinates.  Non-finite coordinates, and
    coordinates whose moments overflow float64, are a ``ValueError`` that names
    the entry or the overflow.
    """
    two_j = _require_j_ge_1(coords.two_j)
    for name in ("u", "v"):
        matcore._check_finite("renormalized coordinates", name, np.asarray(getattr(coords, name), dtype=float))
    with matcore._no_overflow("renormalized coordinates"):
        vsum = float(np.sum(coords.v))
        if abs(vsum - 1.0) > matcore.CASIMIR_TOL:
            raise ValueError(f"sum(v) = {vsum:.9g} violates the Casimir constraint sum(v) = 1")
        b = _coords_values(two_j, coords.u, coords.v)
        return MomentMatrix.from_matrix(two_j, matcore.combine(b, CHI_PATTERN)[1:, 1:])


def tau(rho: np.ndarray, two_j: int) -> np.ndarray:
    """Reduced expectation value matrix of order j for a symmetric two-qubit
    operator; positive semidefinite whenever rho extends to 2j qubits.

    tau = D^-1 chi(b) D^-1 with b_i = tr(K_i rho) and D = diag(1, j, j, j).
    """
    two_j = _require_j_ge_1(two_j)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis operator, got {rho.shape}")
    return matcore.combine(matcore.traces(reduction_operators(two_j), rho).real, _tau_system(two_j))


def _tau_system(two_j: int) -> np.ndarray:
    """D^-1 C_i D^-1 for C = ``spinalg.CHI_PATTERN``, the (10, 4, 4) stack of tau."""
    d = np.array([1.0, 2.0 / two_j, 2.0 / two_j, 2.0 / two_j])
    return CHI_PATTERN * np.outer(d, d)


def ppt_inner_test(rho: np.ndarray) -> bool:
    """Positivity of rho and of its partial transpose, embedded in the
    two-qubit space, both to ``matcore.PSD_TOL``.

    For symmetric two-qubit states this is equivalent to separability, so a
    pass certifies that the moments are quantum for every spin number.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 symmetric-basis operator, got {rho.shape}")
    return matcore.is_psd(rho) and matcore.is_psd(_partial_transpose(rho))


def _partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of a symmetric-basis operator embedded in C^2 (x) C^2."""
    return matcore.partial_transpose_b(_PAIR_ISOMETRY @ rho @ _PAIR_ISOMETRY.conj().T)
