"""Dense complex / Hermitian linear algebra primitives shared by all modules,
and the one table of decision tolerances: only ``hermitize`` and ``is_psd``
take a threshold argument, since each has two values in use; ``psd_mask``,
the stacked positivity test, reads ``PSD_TOL`` itself."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

HERMITIAN_TOL = 1e-12  # max |A - A^dag| that ``hermitize`` symmetrizes away by default
PSD_TOL = 1e-8  # lambda_min >= -PSD_TOL counts as positive semidefinite
BOUNDARY_BAND = 1e-7  # |t*| within the band is "boundary"; a witness separates below -band
CASIMIR_TOL = 1e-9  # Hermiticity, Casimir trace, Im(M) of M, times max(1, max |M_kl|); sum(v) = 1
RESIDUAL_TOL = 1e-8  # moment-value residual of the reconstructed state, times max(1, max |b_i|)
STRUCTURE_TOL = 1e-9  # max |Re(M) - I/4| at j = 1/2
TRACE_TOL = 1e-9  # |tr rho - 1| of a spin state
FRAME_TOL = 1e-12  # largest value that vanishes in a frame, S_kl over j(j+1) and L_k over j (feasibility._broken)


@contextmanager
def _no_overflow(what: str):
    """Raise a float overflow in the block, from finite outside input near the
    float max, as a ``ValueError`` about ``what``, with no numpy warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{what} is too large for float64 arithmetic: {exc}") from None


def hermitize(a: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return (A + A^dag)/2, rejecting inputs further than ``tol`` from Hermitian.

    The symmetrization makes diagonal imaginary parts exactly zero; deviations
    beyond ``tol`` are treated as caller bugs rather than numerical noise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if dev > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} exceeds {tol:.1e}"
        )
    return (a + a.conj().T) / 2.0


def _check_finite(what: str, symbol: str, a: np.ndarray) -> None:
    """Raise a ``ValueError`` that names every non-finite entry of ``a``."""
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        entries = (symbol + "".join(f"[{i}]" for i in idx) + f" = {a[tuple(idx)]}" for idx in bad)
        raise ValueError(f"{what} has non-finite entries: {', '.join(entries)}")


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(A^dag B), real part."""
    return float(np.real(np.sum(np.conj(a) * b)))


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = U diag(w) U^dag of a Hermitian matrix (LAPACK).

    Eigenvalues are returned in ascending order; U's columns are the matching
    orthonormal eigenvectors.  A real symmetric input yields real eigenvectors.
    """
    return np.linalg.eigh(hermitize(h))


def hermitian_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues only (ascending); skips eigenvector accumulation."""
    return np.linalg.eigvalsh(hermitize(h))


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigvals(h)[0])


def is_psd(h: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue is >= -tol."""
    return min_eigenvalue(h) >= -tol


def psd_mask(stack: np.ndarray) -> np.ndarray:
    """lambda_min >= -PSD_TOL for every matrix of a (..., n, n) Hermitian stack.

    An LDL^dag factorization of stack + PSD_TOL*1, one pivot at a time, each
    step vectorized over the whole stack: the shifted matrix is positive
    definite iff every pivot is positive (Sylvester).  A matrix whose pivot is
    <= 0 is marked and its pivot replaced by 1, so the rest of the stack runs
    on with finite entries.  No eigenvalues are formed, so a stack of many
    small matrices costs a few array operations per pivot.
    """
    a = np.array(stack, dtype=complex)
    n = a.shape[-1]
    a[..., np.arange(n), np.arange(n)] += PSD_TOL
    ok = np.ones(a.shape[:-2], dtype=bool)
    for k in range(n):
        pivot = a[..., k, k].real
        positive = pivot > 0.0
        ok &= positive
        col = a[..., k + 1 :, k] / np.where(positive, pivot, 1.0)[..., None]
        # Schur complement: A[k+1:, k+1:] -= A[k+1:, k] A[k, k+1:] / pivot
        a[..., k + 1 :, k + 1 :] -= col[..., :, None] * a[..., None, k, k + 1 :]
    return ok


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_transpose_b(x: np.ndarray) -> np.ndarray:
    """Partial transpose on the second factor of a 2 (x) 2 qubit pair.

    Entry (i k, j l) of the output equals entry (i l, j k) of the input.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (4, 4):
        raise ValueError(f"partial transpose expects a 4x4 two-qubit matrix, got {x.shape}")
    return x.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, identity-first.

    Element 0 is I/sqrt(d); the rest are traceless (generalized Gell-Mann
    matrices), so tr(B_i B_j) = delta_ij and tr(B_i) is nonzero only for i=0.
    """
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for level in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[np.arange(level), np.arange(level)] = 1.0
        g[level, level] = -level
        mats.append(g / math.sqrt(level * (level + 1)))
    for k in range(d):
        for l in range(k + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[k, l] = g[l, k] = 1.0 / math.sqrt(2.0)
            mats.append(g)
            g = np.zeros((d, d), dtype=complex)
            g[k, l] = -1j / math.sqrt(2.0)
            g[l, k] = 1j / math.sqrt(2.0)
            mats.append(g)
    return np.stack(mats)
