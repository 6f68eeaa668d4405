"""The phase-1 feasibility SDP over the Hermitian PSD cone.

``phase1_min_t`` solves  min t  s.t.  X + t*1 >= 0,  <A_i, X> = b_i  for
constraints that fix tr(X).  Its sign decides feasibility, and its dual
solution, expanded over the caller's constraint operators, is the
separating hyperplane.

Substituting Y = X + t*1 leaves the standard form  min tr(Y)/d  s.t.
<A~_i, Y> = b~_i,  Y >= 0  with traceless, linearly independent A~_i,
which ``solve`` handles with a primal-dual path-following interior point
method: a symmetrized Newton direction and Mehrotra-style
predictor-corrector steps.  The objective 1/d is positive definite, so
Z = 1/d is strictly dual feasible, and Y0 + s*1 is strictly primal feasible
for large s: no infeasibility ray can occur, and a solve ends optimal or in
numerical failure.  The solver is dense, O(m d^3) per iteration with m <= 9
rows, and the cone dimension is capped at ``DIM_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore

STATUS_OPTIMAL = "optimal"
STATUS_PRIMAL_INFEASIBLE = "primal-infeasible-certificate"
STATUS_FAILURE = "numerical-failure"

MAX_ITERATIONS = 200
TOLERANCE = 1e-8  # relative gap and both residuals at an optimal return
STEP_FRACTION = 0.98
DEPENDENCY_TOL = 1e-10
DIM_CAP = 64

_DIVERGENCE = 1e12


@dataclass
class SdpSolution:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    primal_objective: float = math.nan
    dual_objective: float = math.nan
    gap: float = math.nan
    iterations: int = 0
    primal_residual: float = math.inf
    dual_residual: float = math.inf
    mu: float = math.nan
    iterate_log: list[tuple[float, float, float, float, float]] = field(default_factory=list)
    message: str = ""


def _vec_h(a: np.ndarray, d: int) -> np.ndarray:
    """Inner-product-preserving real coordinates of a Hermitian matrix."""
    iu = np.triu_indices(d, 1)
    return np.concatenate(
        [a.diagonal().real, math.sqrt(2.0) * a[iu].real, math.sqrt(2.0) * a[iu].imag]
    )


def _gram_schmidt(vecs, values: np.ndarray, tol: float):
    """Re-orthogonalized Gram-Schmidt over the rows of ``vecs``.

    Returns (kept, dependent): the rows kept span the same space as all of
    ``vecs``.  Each row within ``tol`` of the span of the earlier rows is
    listed in ``dependent`` as (index, w, mismatch): w is the row minus its
    combination of earlier rows (so w @ vecs ~ 0) and mismatch = w @ values is
    how far the row's value lies from the value the earlier rows imply.
    """
    m = len(vecs)
    basis: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    kept: list[int] = []
    dependent: list[tuple[int, np.ndarray, float]] = []
    for idx, vec in enumerate(vecs):
        w = np.zeros(m)
        w[idx] = 1.0
        r = vec.copy()
        for _ in range(2):  # one reorthogonalization pass for stability
            for svec, swt in zip(basis, weights):
                coeff = float(r @ svec)
                r -= coeff * svec
                w -= coeff * swt
        norm = float(np.linalg.norm(r))
        if norm <= tol * max(1.0, float(np.linalg.norm(vec))):
            dependent.append((idx, w, float(w @ values)))
            continue
        basis.append(r / norm)
        weights.append(w / norm)
        kept.append(idx)
    return kept, dependent


def _chol(a: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max()))
    jitter = 0.0
    for _ in range(12):
        try:
            return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 10.0
    raise np.linalg.LinAlgError("matrix lost positive definiteness")


def _max_step(current: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with current + alpha * direction still PSD."""
    l = _chol(current)
    w = np.linalg.solve(l, direction)
    w = np.linalg.solve(l, w.conj().T).conj().T
    lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


def _min_norm_affine(ops: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    rows = np.stack([_vec_h(a, d) for a in ops])
    sol, *_ = np.linalg.lstsq(rows, b, rcond=None)
    iu = np.triu_indices(d, 1)
    x = np.zeros((d, d), dtype=complex)
    x[np.arange(d), np.arange(d)] = sol[:d]
    n_off = iu[0].size
    re = sol[d : d + n_off] / math.sqrt(2.0)
    im = sol[d + n_off :] / math.sqrt(2.0)
    x[iu] = re + 1j * im
    x += np.tril(x.conj().T, -1)
    return x


def solve(ops: np.ndarray, b: np.ndarray, dim: int) -> SdpSolution:
    """Solve  min tr(Y)/d  s.t.  <A_i, Y> = b_i,  Y >= 0  by interior point.

    ``ops`` stacks the traceless, linearly independent A_i that
    ``phase1_min_t`` builds.  The returned status is ``optimal`` only when the
    relative duality gap and both feasibility residuals are below
    ``TOLERANCE``; anything else is numerical failure with the final
    residuals in the message.
    """
    d = dim
    m = len(b)
    c = np.eye(d, dtype=complex) / d
    if m == 0:
        return SdpSolution(
            STATUS_OPTIMAL, np.zeros((d, d), dtype=complex), np.zeros(0), c.copy(),
            primal_objective=0.0, dual_objective=0.0, gap=0.0,
            primal_residual=0.0, dual_residual=0.0, mu=0.0,
        )

    eye = np.eye(d, dtype=complex)

    def a_apply(xm: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ji->k", ops, xm).real

    def a_adjoint(yv: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", yv, ops)

    # Start: the min-norm affine solution shifted into the interior, and Z = 1/d.
    x = _min_norm_affine(ops, b, d)
    x = (x + x.conj().T) / 2.0
    lam = float(np.linalg.eigvalsh(x)[0])
    x += max(1.0, -1.5 * lam) * eye
    z = c.copy()
    y = np.zeros(m)

    b_scale = 1.0 + float(np.abs(b).max())
    c_scale = 1.0 + 1.0 / d
    log: list[tuple[float, float, float, float, float]] = []
    stalls = 0

    def snapshot(status: str, it: int, message: str = "") -> SdpSolution:
        return SdpSolution(
            status, x.copy(), y.copy(), z.copy(),
            primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj), iterations=it,
            primal_residual=pres, dual_residual=dres, mu=mu, iterate_log=log, message=message,
        )

    for it in range(MAX_ITERATIONS + 1):  # the last pass only tests the final iterate
        rp = b - a_apply(x)
        rd = c - z - a_adjoint(y)
        rd = (rd + rd.conj().T) / 2.0
        pobj = matcore.hs_inner(c, x)
        dobj = float(b @ y)
        mu = matcore.hs_inner(x, z) / d
        pres = float(np.abs(rp).max()) / b_scale
        dres = float(np.abs(rd).max()) / c_scale
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        log.append((pobj, dobj, mu, pres, dres))

        if relgap <= TOLERANCE and pres <= TOLERANCE and dres <= TOLERANCE:
            return snapshot(STATUS_OPTIMAL, it)
        if max(float(np.abs(y).max()), float(np.abs(x).max())) > _DIVERGENCE:
            return snapshot(STATUS_FAILURE, it, "iterate diverged")
        if it == MAX_ITERATIONS:
            return snapshot(
                STATUS_FAILURE,
                it,
                f"no convergence after {it} iterations "
                f"(gap {abs(pobj - dobj):.2e}, primal res {pres:.2e}, dual res {dres:.2e})",
            )

        try:
            zinv = np.linalg.solve(z, eye)
            zinv = (zinv + zinv.conj().T) / 2.0
            xz_rd_zinv = x @ rd @ zinv
            # Schur matrix S_kl = Re tr(A_k X A_l Z^-1), exactly symmetric.
            xa = np.einsum("ab,kbc->kac", x, ops)
            xaz = np.einsum("kac,cd->kad", xa, zinv)
            schur = np.einsum("lab,kba->kl", ops, xaz).real
            schur = (schur + schur.T) / 2.0
            a_zinv = np.einsum("kij,ji->k", ops, zinv).real
            a_xrdz = np.einsum("kij,ji->k", ops, xz_rd_zinv).real

            def newton(sigma_mu: float, correction: np.ndarray | None):
                rhs = b - sigma_mu * a_zinv + a_xrdz
                if correction is not None:
                    rhs = rhs + np.einsum("kij,ji->k", ops, correction @ zinv).real
                try:
                    dy = np.linalg.solve(schur, rhs)
                except np.linalg.LinAlgError:
                    ridge = 1e-12 * (1.0 + float(np.trace(schur)) / m)
                    dy = np.linalg.solve(schur + ridge * np.eye(m), rhs)
                dz = rd - a_adjoint(dy)
                dz = (dz + dz.conj().T) / 2.0
                dx = sigma_mu * zinv - x - x @ dz @ zinv
                if correction is not None:
                    dx = dx - correction @ zinv
                dx = (dx + dx.conj().T) / 2.0
                return dx, dy, dz

            dx_a, dy_a, dz_a = newton(0.0, None)
            ap_a = min(1.0, _max_step(x, dx_a))
            ad_a = min(1.0, _max_step(z, dz_a))
            mu_aff = matcore.hs_inner(x + ap_a * dx_a, z + ad_a * dz_a) / d
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            dx, dy, dz = newton(sigma * mu, dx_a @ dz_a)
            ap = min(1.0, STEP_FRACTION * _max_step(x, dx))
            ad = min(1.0, STEP_FRACTION * _max_step(z, dz))
        except np.linalg.LinAlgError as exc:
            return snapshot(STATUS_FAILURE, it, f"linear algebra failure: {exc}")

        if ap < 1e-10 and ad < 1e-10:
            stalls += 1
            if stalls >= 5:
                return snapshot(STATUS_FAILURE, it, "step sizes collapsed")
        else:
            stalls = 0

        x = x + ap * dx
        x = (x + x.conj().T) / 2.0
        y = y + ad * dy
        z = z + ad * dz
        z = (z + z.conj().T) / 2.0


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of the min-t feasibility program.

    ``t_star <= 0`` certifies a PSD point ``x`` satisfying the constraints;
    ``t_star > 0`` proves infeasibility.  Dependent rows with conflicting
    values leave no X at all: the status is primal-infeasible and ``t_star``
    is +inf.  A numerical failure gives ``t_star`` nan.  ``dual_z = 1/d -
    sum_i y_i A~_i``, rebuilt from ``y`` over the traceless rows, is the
    separating hyperplane: PSD, unit trace, in the span of the constraints,
    and it pairs with every X meeting them to ``-t_star``.
    ``dual_coefficients`` c expand it over the caller's rows, ``dual_z =
    sum_i c_i A_i`` and ``c.b = -t_star``, so a witness needs nothing else.
    ``x``, ``dual_z`` and ``dual_coefficients`` are None unless optimal.
    """

    t_star: float
    x: np.ndarray | None
    solution: SdpSolution
    dual_z: np.ndarray | None = None
    dual_coefficients: np.ndarray | None = None


def _check_dim(d: int) -> None:
    """Raise the cone-cap ``ValueError``; callers run it before building operators."""
    if d > DIM_CAP:
        raise ValueError(f"cone dimension {d} exceeds the cap {DIM_CAP}")


def phase1_min_t(constraints, dim: int) -> Phase1Result:
    """Solve  min t  s.t.  X + t*1 >= 0  and  <A_i, X> = b_i.

    The constraint set must fix tr(X); substituting Y = X + t*1 then removes
    the free variable and leaves the standard form of ``solve``.  One
    Gram-Schmidt pass over the traceless parts A~_i drops dependent rows (a
    trace-only row has A~_i = 0, so it is one of them) and checks their
    values; a conflict is reported as primal-infeasible before any iteration.
    """
    d = int(dim)
    _check_dim(d)
    rows = [(matcore.hermitize(np.asarray(a, dtype=complex)), float(b)) for a, b in constraints]
    if not rows:
        raise ValueError("phase-1 needs at least the trace normalization constraint")
    vecs = np.stack([_vec_h(a, d) for a, _ in rows])
    target = _vec_h(np.eye(d, dtype=complex), d)
    coeff, *_ = np.linalg.lstsq(vecs.T, target, rcond=None)
    resid = float(np.linalg.norm(vecs.T @ coeff - target))
    if resid > 1e-9 * math.sqrt(d):
        raise ValueError("constraints do not fix the trace of X")
    values = np.array([b for _, b in rows])
    trace_value = float(coeff @ values)

    traces = np.array([float(np.trace(a).real) for a, _ in rows])
    tilde = [a - (tr_a / d) * np.eye(d) for (a, _), tr_a in zip(rows, traces)]
    tilde_b = values - traces * trace_value / d
    kept, dependent = _gram_schmidt([_vec_h(a, d) for a in tilde], tilde_b, DEPENDENCY_TOL)
    for idx, _, mismatch in dependent:
        if abs(mismatch) > 1e-8 * (1.0 + abs(tilde_b[idx])):
            sol = SdpSolution(
                STATUS_PRIMAL_INFEASIBLE,
                message=f"constraint {idx} conflicts with the rows before it",
            )
            return Phase1Result(t_star=math.inf, x=None, solution=sol)

    ops = np.stack([tilde[i] for i in kept]) if kept else np.zeros((0, d, d), complex)
    sol = solve(ops, tilde_b[kept], d)
    if sol.status != STATUS_OPTIMAL:
        return Phase1Result(t_star=math.nan, x=None, solution=sol)
    t_star = sol.primal_objective - trace_value / d
    x = sol.x - t_star * np.eye(d)
    z = np.eye(d, dtype=complex) / d - sum(y * a for y, a in zip(sol.y, ops))
    # 1/d = sum_i (coeff_i / d) A_i and A~_i = A_i - (tr A_i / d) 1 expand dual_z over the rows
    y = np.zeros(len(rows))
    y[kept] = sol.y
    c = (1.0 + float(y @ traces)) / d * coeff - y
    return Phase1Result(
        t_star=t_star, x=(x + x.conj().T) / 2.0, solution=sol, dual_z=z, dual_coefficients=c
    )
