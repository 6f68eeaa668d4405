"""Independent search oracle for small SDPs, used only by the test suite.

Two derivative-free searches bracket the optimum without touching the solver
under test: a shrinking-radius random search over the factorized spectrahedron
X = G G^dag (augmented Lagrangian outer loop handles the equality constraints)
gives a feasible upper bound, and a compass search on the concave certified
bound b.y + lambda_min(C - A^dag y) gives a lower bound.  numpy only.
"""

from __future__ import annotations

import numpy as np


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


def dual_bound(ops, b, c, d, rng):
    """Maximize the certified lower bound b.y + lambda_min(C - A^dag(y))."""
    a = np.stack([_vec(op, d) for op in ops])
    b = np.asarray(b, dtype=float)
    cvec = _vec(c, d)
    m = len(ops)

    def value(y):
        return float(b @ y) + float(np.linalg.eigvalsh(_unvec(cvec - a.T @ y, d))[0])

    y = np.zeros(m)
    best = value(y)
    radius = 1.0
    while radius > 1e-11:
        improved = False
        dirs = list(np.eye(m))
        extra = rng.standard_normal((2 * m, m))
        dirs += [dv / np.linalg.norm(dv) for dv in extra]
        for dvec in dirs:
            for sign in (1.0, -1.0):
                cand = y + sign * radius * dvec
                val = value(cand)
                if val > best + 1e-16:
                    y, best = cand, val
                    improved = True
        radius = min(radius * 1.7, 2.0) if improved else radius * 0.5
    return best, y


def primal_search(ops, b, c, d, rng, outer_rounds=8):
    """Random search over X = G G^dag with augmented Lagrangian constraints."""
    a3 = np.stack(ops)
    b = np.asarray(b, dtype=float)
    n_par = 2 * d * d

    def unpack(p):
        return (p[: d * d] + 1j * p[d * d :]).reshape(d, d)

    def moments(g):
        x = g @ g.conj().T
        return np.einsum("kij,ji->k", a3, x).real, x

    p = rng.standard_normal(n_par) * 0.3
    lam = np.zeros(len(ops))
    rho = 10.0
    for _ in range(outer_rounds):
        def penalized(pv):
            av, x = moments(unpack(pv))
            r = av - b
            return float(np.real(np.vdot(c, x))) + float(lam @ r) + 0.5 * rho * float(r @ r)

        fp = penalized(p)
        radius = 0.3
        while radius > 3e-8:
            improved = False
            for _ in range(24):
                cand = p + radius * rng.standard_normal(n_par)
                fc = penalized(cand)
                if fc < fp - 1e-15:
                    p, fp = cand, fc
                    improved = True
            radius = min(radius * 1.5, 1.0) if improved else radius * 0.55
        av, _ = moments(unpack(p))
        resid = av - b
        if np.abs(resid).max() < 1e-10:
            break
        lam = lam + rho * resid
        rho *= 8.0

    _, x = moments(unpack(p))
    # polish: alternate exact affine projection with an eigenvalue floor
    avec = np.stack([_vec(op, d) for op in ops])
    gram = avec @ avec.T
    xv = _vec(x, d)
    for _ in range(200):
        xv = xv + avec.T @ np.linalg.solve(gram, b - avec @ xv)
        w, u = np.linalg.eigh(_unvec(xv, d))
        if w[0] >= -1e-11:
            break
        xv = _vec((u * np.maximum(w, 0.0)) @ u.conj().T, d)
    x = _unvec(xv, d)
    resid = float(np.abs(avec @ xv - b).max())
    lam_min = float(np.linalg.eigvalsh(x)[0])
    return float(np.real(np.vdot(c, x))), x, resid, lam_min


def bracket_optimum(ops, b, c, d, rng):
    """Return (upper, lower, primal_x, diagnostics) bracketing the SDP optimum."""
    upper, x, resid, lam_min = primal_search(ops, b, c, d, rng)
    lower, _ = dual_bound(ops, b, c, d, rng)
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
