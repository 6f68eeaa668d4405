"""Independent 2^n-qubit route to pair marginals, used only by the test suite.

Builds the permutation-symmetric subspace of n qubits explicitly, embeds a
spin-j operator (n = 2j) into it, and takes the two-qubit marginal by a
partial trace.  The closed-form Dicke-coordinate maps under test never form
this 2^n-dimensional space, so agreement checks them from the outside.
numpy only; memory is O(4^n) for an embedded operator, so keep n <= 12.

Conventions match the package: the spin basis is ordered m = j, j-1, ..., -j,
and |1> is the spin-up qubit level, so spin index i has Hamming weight n - i.
The symmetric pair basis is (|00>, (|01>+|10>)/sqrt(2), |11>).
"""

from __future__ import annotations

import math

import numpy as np


def symmetric_isometry(n: int) -> np.ndarray:
    """Isometry from C^(n+1) onto the permutation-symmetric subspace of n qubits.

    Column m is the normalized sum of all computational basis vectors of
    Hamming weight m, so V^dag V = I_(n+1).
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n
    v = np.zeros((dim, n + 1), dtype=complex)
    weights = np.array([bin(i).count("1") for i in range(dim)])
    for m in range(n + 1):
        hits = weights == m
        v[hits, m] = 1.0 / math.sqrt(int(hits.sum()))
    return v


def partial_trace(x: np.ndarray, dims: tuple[int, int], keep: int | str) -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^dA (x) C^dB.

    ``keep`` selects the surviving subsystem: 0/"A" or 1/"B".
    """
    da, db = int(dims[0]), int(dims[1])
    x = np.asarray(x, dtype=complex)
    if x.shape != (da * db, da * db):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims}")
    t = x.reshape(da, db, da, db)
    if keep in (0, "A", "a"):
        return np.einsum("ikjk->ij", t)
    if keep in (1, "B", "b"):
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 0/'A' or 1/'B', got {keep!r}")


def embed_spin_state(w_spin: np.ndarray, n: int) -> np.ndarray:
    """The n-qubit operator V W V^dag of a spin-basis operator W (spin j = n/2)."""
    v = symmetric_isometry(n)
    w = np.asarray(w_spin, dtype=complex)[::-1, ::-1]
    return v @ w @ v.conj().T


def pair_marginal(omega: np.ndarray, n: int) -> np.ndarray:
    """Two-qubit marginal of an n-qubit symmetric operator, in the symmetric pair basis."""
    if n < 2:
        raise ValueError("need at least two qubits")
    omega = np.asarray(omega, dtype=complex)
    pair = omega if n == 2 else partial_trace(omega, (4, 1 << (n - 2)), keep=0)
    v2 = symmetric_isometry(2)
    return v2.conj().T @ pair @ v2


def marginal_adjoint(e: np.ndarray, n: int) -> np.ndarray:
    """K = P^dag(E) in the spin basis, with <K, W> = <E, P(W)> for the pair marginal P.

    Lifts E from the symmetric pair basis to (E (x) 1) on n qubits and
    compresses it to the symmetric subspace.
    """
    v = symmetric_isometry(n)
    v2 = symmetric_isometry(2)
    e4 = v2 @ np.asarray(e, dtype=complex) @ v2.conj().T
    cols = v.reshape(4, 1 << (n - 2), n + 1)
    lifted = np.einsum("ab,brd->ard", e4, cols).reshape(1 << n, n + 1)
    return (v.conj().T @ lifted)[::-1, ::-1]
