"""Independent exact oracle for small SDPs, used only by the test suite.

The programs are  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0,  with a handful
of rows, the first of which is the trace: A_0 = 1, b_0 = 1.  Their dual is
max b.y  s.t.  S(y) = C - sum_i y_i A_i >= 0.  A log-barrier path-following
method brackets the optimum from both sides without touching the solver
under test:

- damped Newton steps on  b.y/mu + log det S(y)  follow the central path
  down to ``MU_FINAL``; at every y, b.y + lambda_min(S(y)) is a certified
  lower bound, because tr X = 1 on the feasible set;
- the Newton step dy at the last centered point gives the primal estimate
  X = mu S^-1 + mu S^-1 (sum_i dy_i A_i) S^-1, which meets every row exactly
  in exact arithmetic; an affine projection with an eigenvalue floor polishes
  it into a feasible point, whose objective is the upper bound.

The bracket is about d * ``MU_FINAL`` wide.  Deterministic and numpy only.
"""

from __future__ import annotations

import numpy as np

MU_FINAL = 1e-10  # barrier weight of the last centering
MU_FACTOR = 0.1
CENTERED = 1e-7  # Newton decrement at which a centering stops
MAX_NEWTON = 60  # Newton steps per centering


def _vec(a, d):
    iu = np.triu_indices(d, 1)
    return np.concatenate(
        [np.diag(a).real, np.sqrt(2.0) * a[iu].real, np.sqrt(2.0) * a[iu].imag]
    )


def _unvec(v, d):
    iu = np.triu_indices(d, 1)
    x = np.zeros((d, d), dtype=complex)
    x[np.arange(d), np.arange(d)] = v[:d]
    k = iu[0].size
    x[iu] = (v[d : d + k] + 1j * v[d + k :]) / np.sqrt(2.0)
    x += np.tril(x.conj().T, -1)
    return x


def _newton(a, b, c, y, mu):
    """Newton step dy, decrement and primal estimate X of b.y/mu + log det S(y).

    With S = L L^dag and A~_i = L^-1 A_i L^-dag the Hessian is
    -tr(A~_i A~_j) and X = mu L^-dag (1 + sum_i dy_i A~_i) L^-1.
    """
    s = c - np.tensordot(y, a, axes=1)
    linv = np.linalg.inv(np.linalg.cholesky(s))
    at = linv @ a @ linv.conj().T
    hess = np.einsum("iab,jba->ij", at, at).real
    grad = b / mu - np.einsum("iaa->i", at).real
    dy = np.linalg.solve(hess, grad)
    x = mu * linv.conj().T @ (np.eye(len(s)) + np.tensordot(dy, at, axes=1)) @ linv
    return dy, float(np.sqrt(max(dy @ hess @ dy, 0.0))), (x + x.conj().T) / 2.0


def dual_barrier(a, b, c):
    """Follow the dual central path; return (y, X) at the last centering."""
    y = np.zeros(len(a))
    y[0] = np.linalg.eigvalsh(c)[0] - 1.0  # S(y) = C - y_0 1 has lambda_min = 1
    mu = 1.0
    while True:
        for _ in range(MAX_NEWTON):
            dy, decrement, x = _newton(a, b, c, y, mu)
            if decrement <= CENTERED:
                break
            # a damped step stays inside the cone (self-concordance)
            y = y + (1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement)) * dy
        if mu <= MU_FINAL:
            return y, x
        mu *= MU_FACTOR


def _polish(a, b, x):
    """Alternate exact affine projection with an eigenvalue floor."""
    d = len(x)
    avec = np.stack([_vec(op, d) for op in a])
    gram = avec @ avec.T
    xv = _vec(x, d)
    for _ in range(200):
        xv = xv + avec.T @ np.linalg.solve(gram, b - avec @ xv)
        w, u = np.linalg.eigh(_unvec(xv, d))
        if w[0] >= -1e-11:
            break
        xv = _vec((u * np.maximum(w, 0.0)) @ u.conj().T, d)
    return _unvec(xv, d), float(np.abs(avec @ xv - b).max())


def bracket_optimum(ops, b, c):
    """Return (upper, lower, primal_x, diagnostics) bracketing the SDP optimum."""
    a = np.stack(ops).astype(complex)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=complex)
    d = len(c)
    if np.abs(a[0] - np.eye(d)).max() > 0.0 or b[0] != 1.0:
        raise ValueError("the first row must be the unit trace")
    y, x = dual_barrier(a, b, c)
    lower = float(b @ y) + float(np.linalg.eigvalsh(c - np.tensordot(y, a, axes=1))[0])
    x, resid = _polish(a, b, x)
    lam_min = float(np.linalg.eigvalsh(x)[0])
    upper = float(np.real(np.vdot(c, x)))
    return upper, lower, x, {"residual": resid, "lambda_min": lam_min}


def random_phase1_dual(rng, dim, n_null):
    """Random phase-1 program paired with its dual, a small bounded SDP.

    x0 is a random unit-trace Hermitian matrix, PSD or not, and the N_k are
    ``n_null`` random traceless Hermitian matrices.  The phase-1 rows are the
    identity and a basis of the orthogonal complement of the N_k, with values
    <A, x0>, so their solutions are x0 + span(N_k).  By duality their
    min t s.t. X + t*1 >= 0 is minus the optimum of
        min <Z, x0>  s.t.  Z >= 0, tr Z = 1, <N_k, Z> = 0,
    which is returned as (c, ops, vals) in the form ``bracket_optimum`` takes.
    Returns (rows, values, (c, ops, vals)).
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    x0 = np.eye(dim) / dim + rng.uniform(0.1, 1.0) * h / np.linalg.norm(h)
    nulls = []
    for _ in range(n_null):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (a + a.conj().T) / 2.0
        nulls.append(a - np.trace(a).real / dim * np.eye(dim))
    span = np.stack([_vec(a, dim) for a in nulls]).T if nulls else np.zeros((dim * dim, 0))
    q, _ = np.linalg.qr(np.concatenate([span, np.eye(dim * dim)], axis=1))
    rows = [np.eye(dim, dtype=complex)] + [_unvec(col, dim) for col in q[:, n_null:].T]
    values = np.array([float(np.real(np.vdot(a, x0))) for a in rows])
    dual = (x0, [np.eye(dim, dtype=complex)] + nulls, np.array([1.0] + [0.0] * n_null))
    return rows, values, dual
