"""Spin operators for arbitrary j, their algebra checks, and moment matrices.

Conventions: L3 is diagonal with eigenvalues j, j-1, ..., -j (basis index 0 is
the highest-weight vector), and L1, L2 come from ladder operators with
<m+1|L+|m> = sqrt(j(j+1) - m(m+1)).  Spin numbers travel as the integer
``two_j`` to keep half-integer j exact.

The one moment format is the vector b of ``moment_values``: the expectation
values of the ten operators named by ``MOMENT_LABELS`` (the identity, the
symmetrized products S_kl = (L_k L_l + L_l L_k)/2 for k <= l, and L1, L2, L3).
Every cheap stage matrix is a fixed linear image of b; the chi matrix is
sum_i b_i CHI_PATTERN[i].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore

CASIMIR_TOL = 1e-9

# Levi-Civita cycles (k, l, m) with eps_klm = +1, zero-based.
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

MOMENT_LABELS = ("I", "S11", "S12", "S13", "S22", "S23", "S33", "L1", "L2", "L3")
_UPPER = np.triu_indices(3)  # (k, l) of S11, S12, S13, S22, S23, S33


def _chi_pattern() -> np.ndarray:
    """C_i with chi = sum_i b_i C_i over the basis {1, L1, L2, L3}.

    S_kl fills entries (k, l) and (l, k) of the lower block; L_m fills row and
    column 0 and, since L_k L_l = S_kl + (i/2) eps_klm L_m, the imaginary
    parts +-1/2 at (k, l) and (l, k) for cyclic (k, l, m).
    """
    c = np.zeros((len(MOMENT_LABELS), 4, 4), dtype=complex)
    c[0, 0, 0] = 1.0
    for i, (k, l) in enumerate(zip(*_UPPER), start=1):
        c[i, 1 + k, 1 + l] = c[i, 1 + l, 1 + k] = 1.0
    for k, l, m in _CYCLES:
        c[7 + m, 0, 1 + m] = c[7 + m, 1 + m, 0] = 1.0
        c[7 + m, 1 + k, 1 + l] = 0.5j
        c[7 + m, 1 + l, 1 + k] = -0.5j
    return c


CHI_PATTERN = _chi_pattern()


def _check_two_j(two_j: int) -> int:
    two_j = int(two_j)
    if two_j < 1:
        raise ValueError(f"two_j must be a positive integer, got {two_j}")
    return two_j


@dataclass(frozen=True)
class SpinOperatorTriple:
    """The three spin matrices L1, L2, L3 for total spin j = two_j / 2."""

    two_j: int
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def as_list(self) -> list[np.ndarray]:
        return [self.l1, self.l2, self.l3]


@dataclass(frozen=True)
class AlgebraReport:
    """Max-norm residuals of the commutation relations and the Casimir identity."""

    commutator_residual: float
    casimir_residual: float


@dataclass(frozen=True)
class MomentMatrix:
    """Second moments M_kl = tr(L_k L_l rho) plus the derived first moments.

    ``matrix`` is Hermitian with real diagonal; tr Re(M) = j(j+1) by the
    Casimir identity, and Im(M_kl) = eps_klm * l_m / 2 encodes the first
    moments.  Use ``from_matrix`` to validate raw input.
    """

    two_j: int
    matrix: np.ndarray
    first_moments: np.ndarray = field(repr=False)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @classmethod
    def from_matrix(cls, two_j: int, matrix: np.ndarray, tol: float = CASIMIR_TOL) -> "MomentMatrix":
        two_j = _check_two_j(two_j)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"moment matrix must be 3x3, got {m.shape}")
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            entries = ", ".join(f"M[{k}][{l}] = {m[k, l]}" for k, l in bad)
            raise ValueError(f"moment matrix has non-finite entries: {entries}")
        dev = float(np.abs(m - m.conj().T).max())
        if dev > tol:
            raise ValueError(f"moment matrix is not Hermitian: deviation {dev:.3e}")
        m = (m + m.conj().T) / 2.0
        j = two_j / 2.0
        casimir = float(np.trace(m).real)
        target = j * (j + 1.0)
        if abs(casimir - target) > tol:
            raise ValueError(
                f"Casimir violated: tr Re(M) - j(j+1) = {casimir - target:.3e} "
                f"exceeds the tolerance {tol:.1e} (j(j+1) = {target:.9g})"
            )
        ell = extract_first_moments(m, tol=tol)
        return cls(two_j=two_j, matrix=m, first_moments=ell)


@dataclass(frozen=True)
class StandardForm:
    """Rotation R (det +1) with R Re(M) R^T diagonal, descending."""

    rotation: np.ndarray
    diagonal: np.ndarray
    first_moments: np.ndarray


def spin_operators(two_j: int) -> SpinOperatorTriple:
    """Build the spin-j operator triple from the ladder construction."""
    two_j = _check_two_j(two_j)
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    lp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        # raises |j, m_a> to |j, m_a + 1>, which sits at row a - 1
        lp[a - 1, a] = math.sqrt(j * (j + 1.0) - m[a] * (m[a] + 1.0))
    lm = lp.conj().T
    l1 = (lp + lm) / 2.0
    l2 = (lp - lm) / 2j
    l3 = np.diag(m.astype(complex))
    return SpinOperatorTriple(two_j=two_j, l1=l1, l2=l2, l3=l3)


def validate_algebra(triple: SpinOperatorTriple) -> AlgebraReport:
    """Residuals of [L_k, L_l] = i eps_klm L_m and sum_k L_k^2 = j(j+1) I."""
    ls = triple.as_list()
    comm = 0.0
    for k, l, m in _CYCLES:
        resid = ls[k] @ ls[l] - ls[l] @ ls[k] - 1j * ls[m]
        comm = max(comm, float(np.abs(resid).max()))
    j = triple.j
    casimir = ls[0] @ ls[0] + ls[1] @ ls[1] + ls[2] @ ls[2]
    casimir -= j * (j + 1.0) * np.eye(triple.dim)
    return AlgebraReport(
        commutator_residual=comm,
        casimir_residual=float(np.abs(casimir).max()),
    )


def extract_first_moments(m: np.ndarray, tol: float = CASIMIR_TOL) -> np.ndarray:
    """First moments from the antisymmetric imaginary part of a 3x3 matrix.

    Requires Im(M) antisymmetric within ``tol``; l_m = Im(M_kl) - Im(M_lk) for
    cyclic (k, l, m).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {m.shape}")
    im = m.imag
    for k in range(3):
        if abs(im[k, k]) > tol:
            raise ValueError(f"diagonal entry ({k},{k}) has imaginary part {im[k, k]:.3e}")
    ell = np.zeros(3)
    for k, l, mm in _CYCLES:
        if abs(im[k, l] + im[l, k]) > tol:
            raise ValueError(
                f"imaginary parts of entries ({k},{l})/({l},{k}) are inconsistent: "
                f"{im[k, l]:.3e} vs {im[l, k]:.3e}"
            )
        ell[mm] = im[k, l] - im[l, k]
    return ell


def moment_matrix(rho: np.ndarray, triple: SpinOperatorTriple, psd_tol: float = matcore.PSD_TOL) -> MomentMatrix:
    """Moment matrix M_kl = tr(L_k L_l rho) of a density operator."""
    rho = matcore.hermitize(rho)
    d = triple.dim
    if rho.shape != (d, d):
        raise ValueError(f"state dimension {rho.shape} does not match 2j+1 = {d}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"state trace is {tr:.12g}, not 1")
    if not matcore.is_psd(rho, tol=psd_tol):
        raise ValueError("state is not positive semidefinite")
    ls = triple.as_list()
    m = np.empty((3, 3), dtype=complex)
    for k in range(3):
        for l in range(k, 3):
            m[k, l] = np.trace(ls[k] @ ls[l] @ rho)
            if l > k:
                m[l, k] = np.conj(m[k, l])
    return MomentMatrix.from_matrix(triple.two_j, m)


def moment_values(m: MomentMatrix) -> np.ndarray:
    """The moment vector b over ``MOMENT_LABELS``: 1, Re(M_kl) for k <= l, l_m."""
    return np.concatenate(([1.0], m.matrix.real[_UPPER], m.first_moments))


def chi_matrix(m: MomentMatrix) -> np.ndarray:
    """4x4 expectation value matrix over the basis {1, L1, L2, L3}.

    Entry (0,0) is the normalization, row/column 0 carry the first moments and
    the lower-right block is M.  PSD for every moment matrix of a true state.
    """
    return np.tensordot(moment_values(m), CHI_PATTERN, axes=1)


def _antisym_from_moments(ell: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix A with A_kl = eps_klm * l_m / 2."""
    a = np.zeros((3, 3))
    a[0, 1], a[1, 0] = ell[2] / 2.0, -ell[2] / 2.0
    a[1, 2], a[2, 1] = ell[0] / 2.0, -ell[0] / 2.0
    a[2, 0], a[0, 2] = ell[1] / 2.0, -ell[1] / 2.0
    return a


def _closest_to_identity(vecs: np.ndarray, vals: np.ndarray, tol: float) -> np.ndarray:
    """Fix the basis inside degenerate eigenvalue blocks.

    Within each block the eigenbasis is free up to an orthogonal mix; pick the
    one closest (Frobenius) to the identity columns via orthogonal Procrustes.
    Size-1 blocks reduce to a deterministic sign choice.
    """
    v = vecs.copy()
    scale = max(1.0, float(np.abs(vals).max()))
    start = 0
    while start < 3:
        end = start + 1
        while end < 3 and abs(vals[end] - vals[start]) <= tol * scale:
            end += 1
        idx = list(range(start, end))
        if len(idx) == 1:
            col = v[:, start]
            s = col[start]
            if s == 0.0:
                s = col[int(np.argmax(np.abs(col)))]
            if s < 0.0:
                v[:, start] = -col
        else:
            g = v[np.ix_(idx, idx)].T
            u, _, wt = np.linalg.svd(g)
            v[:, idx] = v[:, idx] @ (u @ wt)
        start = end
    return v


def standard_form(m: MomentMatrix, degeneracy_tol: float = 1e-9) -> StandardForm:
    """Rotate M to the standard form: Re part diagonal, sorted descending.

    The rotation acts on the moment level only (covariance property); no spin-j
    rotation matrix is ever materialized.  Ties inside degenerate eigenvalue
    blocks are broken toward the identity, and one column sign is flipped if
    needed so that det R = +1.
    """
    re = m.matrix.real.copy()
    re = (re + re.T) / 2.0
    vals, vecs = matcore.hermitian_eig(re.astype(complex))
    vecs = vecs.real
    # descending eigenvalues
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vecs = _closest_to_identity(vecs, vals, degeneracy_tol)
    if np.linalg.det(vecs) < 0.0:
        flip = int(np.argmin(np.diag(vecs)))
        vecs[:, flip] = -vecs[:, flip]
    r = vecs.T
    ell = r @ m.first_moments
    return StandardForm(rotation=r, diagonal=vals, first_moments=ell)
