"""Evidence checks that do not use the package under test.

The spin operators are rebuilt here from the ladder formula, and every
verdict is checked against the input moments it was given: a quantum verdict
must carry a state that reproduces them, and a rejection must carry a
witness Z >= 0, tr Z = 1, spanned by the measured operators, whose pairing
with the input moments is negative.  Only numpy is imported, so a defect in
the package cannot also hide in its own check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PSD_FLOOR = -1e-9
TRACE_TOL = 1e-9
MOMENT_TOL = 1e-7
SPAN_TOL = 1e-9

INNER_ACCEPT = "inner_accept"
EARLY_REJECT = "early_reject"
EXACT_ACCEPT = "exact_accept"
EXACT_REJECT = "exact_reject"
BOUNDARY = "boundary"
PATHS = (INNER_ACCEPT, EARLY_REJECT, EXACT_ACCEPT, EXACT_REJECT, BOUNDARY)


@lru_cache(maxsize=None)
def operators(two_j: int) -> np.ndarray:
    """Stack of I, (L_k L_l + L_l L_k)/2 for k <= l, then L1, L2, L3."""
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    lp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        lp[a - 1, a] = np.sqrt(j * (j + 1.0) - m[a] * (m[a] + 1.0))
    ls = [(lp + lp.conj().T) / 2.0, (lp - lp.conj().T) / 2j, np.diag(m).astype(complex)]
    ops = [np.eye(d, dtype=complex)]
    for k in range(3):
        for l in range(k, 3):
            ops.append((ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0)
    ops.extend(ls)
    return np.stack(ops)


def moment_values(matrix: np.ndarray) -> np.ndarray:
    """Expectation values of ``operators`` prescribed by a raw moment matrix."""
    sym = [matrix[k, l].real for k in range(3) for l in range(k, 3)]
    im = matrix.imag
    ell = [im[1, 2] - im[2, 1], im[2, 0] - im[0, 2], im[0, 1] - im[1, 0]]
    return np.array([1.0, *sym, *ell])


def path_of(verdict) -> str:
    """Decision path by outcome: an SDP margin t_star marks the exact paths."""
    if verdict.status == "boundary":
        return BOUNDARY
    exact = verdict.t_star is not None
    if verdict.status == "quantum":
        return EXACT_ACCEPT if exact else INNER_ACCEPT
    return EXACT_REJECT if exact else EARLY_REJECT


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def check_certificate(state, two_j: int, values: np.ndarray) -> str | None:
    """Reason the state is not a valid certificate, or None."""
    x = np.asarray(state, dtype=complex)
    d = two_j + 1
    if x.shape != (d, d):
        return f"certificate shape {x.shape}, expected {(d, d)}"
    if np.abs(x - x.conj().T).max() > 1e-9:
        return "certificate is not Hermitian"
    if _min_eig(x) < PSD_FLOOR:
        return f"certificate min eigenvalue {_min_eig(x):.3e}"
    if abs(np.trace(x).real - 1.0) > TRACE_TOL:
        return f"certificate trace {np.trace(x).real:.12g}"
    got = np.einsum("kij,ji->k", operators(two_j), x).real
    err = float(np.abs(got - values).max())
    if err > MOMENT_TOL:
        return f"certificate misses the moments by {err:.3e}"
    return None


def check_witness(witness, two_j: int, values: np.ndarray) -> str | None:
    """Reason the witness does not separate the input, or None."""
    z = np.asarray(witness.matrix, dtype=complex)
    if _min_eig(z) < PSD_FLOOR:
        return f"witness min eigenvalue {_min_eig(z):.3e}"
    if abs(np.trace(z).real - 1.0) > TRACE_TOL:
        return f"witness trace {np.trace(z).real:.12g}"
    coeffs = np.asarray(witness.op_coefficients, dtype=float)
    ops = operators(two_j)
    if coeffs.shape != (len(ops),):
        return f"witness has {coeffs.size} coefficients, expected {len(ops)}"
    rebuilt = np.einsum("k,kij->ij", coeffs, ops)
    scale = 1.0 + float(np.abs(coeffs) @ np.abs(ops).reshape(len(ops), -1).max(axis=1))
    if np.abs(rebuilt - z).max() > SPAN_TOL * scale:
        return "witness matrix differs from its operator expansion"
    pairing = float(coeffs @ values)
    if not pairing < 0.0:
        return f"witness pairing {pairing:.3e} is not negative"
    return None


def check_verdict(verdict, inp) -> tuple[str, str | None, bool]:
    """(path, failure reason or None, unevidenced) for one verdict."""
    path = path_of(verdict)
    values = moment_values(inp.matrix)
    accepted = verdict.status in ("quantum", "boundary")
    if path != BOUNDARY and accepted != (inp.expect == "quantum"):
        return path, f"{inp.family} input answered {verdict.status}", False
    if accepted:
        if verdict.certificate_state is None:
            if path == INNER_ACCEPT:
                return path, None, True
            return path, "accept without a certificate", False
        return path, check_certificate(verdict.certificate_state, inp.two_j, values), False
    if verdict.witness is None:
        return path, "reject without a witness", False
    return path, check_witness(verdict.witness, inp.two_j, values), False


def check_scan_nesting(in_r: np.ndarray, in_s: np.ndarray, in_t: np.ndarray) -> np.ndarray:
    """Per-cell mask of violations of R <= S <= T (S = -1 means skipped)."""
    upper = np.where(in_s < 0, in_t, in_s)
    bad = (in_r == 1) & (upper != 1)
    bad |= (in_s == 1) & (in_t != 1)
    return bad
