"""Dense semidefinite programming over the Hermitian PSD cone.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  together with its dual
max b.y s.t. Z = C - sum_i y_i A_i >= 0, using a primal-dual path-following
interior point method with a symmetrized Newton direction and Mehrotra-style
predictor-corrector steps.  Problem sizes here never exceed a few dozen, so
robustness is preferred over asymptotic speed throughout.

The phase-1 feasibility form  min t  s.t.  X + t*1 >= 0  under the same
equality constraints is provided as ``phase1_min_t``; its sign decides
feasibility, and its dual solution, expanded over the caller's constraint
operators, is the separating hyperplane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore

STATUS_OPTIMAL = "optimal"
STATUS_PRIMAL_INFEASIBLE = "primal-infeasible-certificate"
STATUS_DUAL_INFEASIBLE = "dual-infeasible-certificate"
STATUS_FAILURE = "numerical-failure"

_DIVERGENCE = 1e12


@dataclass(frozen=True)
class SdpOptions:
    max_iterations: int = 200
    tolerance: float = 1e-8
    step_fraction: float = 0.98
    dependency_tol: float = 1e-10
    dim_cap: int = 64


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form SDP data: cone dimension, objective, equality constraints."""

    dim: int
    objective: np.ndarray
    constraints: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def build(cls, dim: int, objective: np.ndarray, constraints) -> "SdpProblem":
        dim = int(dim)
        c = matcore.hermitize(np.asarray(objective, dtype=complex))
        if c.shape != (dim, dim):
            raise ValueError(f"objective shape {c.shape} does not match dim {dim}")
        rows = []
        for a, b in constraints:
            a = matcore.hermitize(np.asarray(a, dtype=complex))
            if a.shape != (dim, dim):
                raise ValueError(f"constraint shape {a.shape} does not match dim {dim}")
            rows.append((a, float(b)))
        return cls(dim=dim, objective=c, constraints=tuple(rows))


@dataclass
class SdpSolution:
    status: str
    x: np.ndarray | None
    y: np.ndarray | None
    z: np.ndarray | None
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    mu: float
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


def _independent_constraints(problem: SdpProblem, tol: float):
    """Drop dependent constraint rows, checking value consistency.

    Returns (ops, b, kept) or raises _InconsistentRows carrying a Farkas-style
    certificate when a dependent row has a conflicting right-hand side.
    """
    d = problem.dim
    rows = [_vec_h(a, d) for a, _ in problem.constraints]
    vals = np.array([b for _, b in problem.constraints], dtype=float)
    kept, dependent = _gram_schmidt(rows, vals, tol)
    for idx, w, mismatch in dependent:
        if abs(mismatch) > 1e-8 * (1.0 + abs(vals[idx])):
            raise _InconsistentRows(idx, w / mismatch)
    ops = np.stack([problem.constraints[i][0] for i in kept]) if kept else np.zeros((0, d, d), complex)
    return ops, vals[kept], kept


class _InconsistentRows(Exception):
    def __init__(self, index: int, certificate: np.ndarray):
        super().__init__(f"constraint {index} conflicts with earlier rows")
        self.certificate = certificate


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


def solve(problem: SdpProblem, options: SdpOptions | None = None) -> SdpSolution:
    """Run the interior point iteration on a standard-form problem.

    The returned status is ``optimal`` only when the relative duality gap and
    both feasibility residuals are below the configured tolerance; divergence
    is converted into an infeasibility certificate when one validates, and
    everything else is reported as numerical failure with the final residuals.
    """
    opt = options or SdpOptions()
    d = problem.dim
    if d > opt.dim_cap:
        raise ValueError(f"cone dimension {d} exceeds the configured cap {opt.dim_cap}")
    c = problem.objective
    m_orig = len(problem.constraints)

    try:
        ops, b, kept = _independent_constraints(problem, opt.dependency_tol)
    except _InconsistentRows as exc:
        return SdpSolution(
            status=STATUS_PRIMAL_INFEASIBLE,
            x=None,
            y=exc.certificate,
            z=None,
            primal_objective=math.nan,
            dual_objective=math.nan,
            gap=math.nan,
            iterations=0,
            primal_residual=math.inf,
            dual_residual=0.0,
            mu=math.nan,
            message=str(exc),
        )
    m = len(kept)

    if m == 0:
        lam_c = float(np.linalg.eigvalsh(c)[0])
        if lam_c >= -1e-12:
            x = np.zeros((d, d), dtype=complex)
            return SdpSolution(
                status=STATUS_OPTIMAL,
                x=x,
                y=np.zeros(m_orig),
                z=c.copy(),
                primal_objective=0.0,
                dual_objective=0.0,
                gap=0.0,
                iterations=0,
                primal_residual=0.0,
                dual_residual=0.0,
                mu=0.0,
            )
        vals, vecs = np.linalg.eigh(c)
        ray = np.outer(vecs[:, 0], vecs[:, 0].conj())
        return SdpSolution(
            status=STATUS_DUAL_INFEASIBLE,
            x=ray,
            y=np.zeros(m_orig),
            z=None,
            primal_objective=-math.inf,
            dual_objective=math.nan,
            gap=math.nan,
            iterations=0,
            primal_residual=0.0,
            dual_residual=math.inf,
            mu=math.nan,
            message="objective has a negative eigenvalue and no constraints bound it",
        )

    eye = np.eye(d, dtype=complex)

    def a_apply(xm: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ji->k", ops, xm).real

    def a_adjoint(yv: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", yv, ops)

    # Starting point: shift the min-norm affine solution into the interior when
    # the constraints are trace-shift invariant, otherwise fall back to I.
    shift_invariant = float(np.abs(a_apply(eye)).max()) <= 1e-12 * (1.0 + float(np.abs(b).max()))
    if shift_invariant:
        x = _min_norm_affine(ops, b, d)
        x = (x + x.conj().T) / 2.0
        lam = float(np.linalg.eigvalsh(x)[0])
        x += max(1.0, -1.5 * lam) * eye
    else:
        x = eye.copy()
    lam_c = float(np.linalg.eigvalsh(c)[0])
    if lam_c > 1e-8 * (1.0 + float(np.abs(c).max())):
        z = c.copy()
    else:
        z = eye.copy()
    y = np.zeros(m)

    b_scale = 1.0 + float(np.abs(b).max())
    c_scale = 1.0 + float(np.abs(c).max())
    log: list[tuple[float, float, float, float, float]] = []
    stalls = 0

    def snapshot(status: str, it: int, message: str = "") -> SdpSolution:
        yfull = np.zeros(m_orig)
        yfull[list(kept)] = y
        return SdpSolution(
            status=status,
            x=x.copy(),
            y=yfull,
            z=z.copy(),
            primal_objective=pobj,
            dual_objective=dobj,
            gap=abs(pobj - dobj),
            iterations=it,
            primal_residual=pres,
            dual_residual=dres,
            mu=mu,
            iterate_log=log,
            message=message,
        )

    for it in range(opt.max_iterations):
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

        done = relgap <= opt.tolerance and pres <= opt.tolerance and dres <= opt.tolerance
        if done:
            return snapshot(STATUS_OPTIMAL, it)

        if float(np.abs(y).max(initial=0.0)) > _DIVERGENCE:
            yhat = y / np.linalg.norm(y)
            ray = -a_adjoint(yhat)
            if float(np.linalg.eigvalsh((ray + ray.conj().T) / 2).min()) >= -1e-6 and float(b @ yhat) > 1e-8:
                yfull = np.zeros(m_orig)
                yfull[list(kept)] = yhat
                sol = snapshot(STATUS_PRIMAL_INFEASIBLE, it, "diverging dual improving ray")
                sol.y = yfull
                return sol
            return snapshot(STATUS_FAILURE, it, "dual iterate diverged")
        if float(np.abs(x).max()) > _DIVERGENCE:
            xhat = x / float(np.trace(x).real)
            if float(np.abs(a_apply(xhat)).max()) <= 1e-6 and matcore.hs_inner(c, xhat) < -1e-8:
                sol = snapshot(STATUS_DUAL_INFEASIBLE, it, "diverging primal improving ray")
                sol.x = xhat
                return sol
            return snapshot(STATUS_FAILURE, it, "primal iterate diverged")

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
            ap = min(1.0, opt.step_fraction * _max_step(x, dx))
            ad = min(1.0, opt.step_fraction * _max_step(z, dz))
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

    rp = b - a_apply(x)
    rd = c - z - a_adjoint(y)
    pobj = matcore.hs_inner(c, x)
    dobj = float(b @ y)
    mu = matcore.hs_inner(x, z) / d
    pres = float(np.abs(rp).max()) / b_scale
    dres = float(np.abs(rd).max()) / c_scale
    return snapshot(
        STATUS_FAILURE,
        opt.max_iterations,
        f"no convergence after {opt.max_iterations} iterations "
        f"(gap {abs(pobj - dobj):.2e}, primal res {pres:.2e}, dual res {dres:.2e})",
    )


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of the min-t feasibility program.

    ``t_star <= 0`` certifies a PSD point ``x`` satisfying the constraints;
    ``t_star > 0`` proves infeasibility.  ``dual_z = 1/d - sum_i y_i A~_i``,
    rebuilt from ``y`` over the traceless rows, is the separating hyperplane:
    PSD, unit trace, in the span of the constraints, and it pairs with every
    X meeting them to ``-t_star``.  ``dual_coefficients`` c expand it over the
    caller's rows, ``dual_z = sum_i c_i A_i`` and ``c.b = -t_star``, so a
    witness needs nothing else.  ``x``, ``dual_z`` and ``dual_coefficients``
    are None unless optimal.
    """

    t_star: float
    x: np.ndarray | None
    solution: SdpSolution
    dual_z: np.ndarray | None = None
    dual_coefficients: np.ndarray | None = None


def phase1_min_t(
    constraints,
    dim: int,
    options: SdpOptions | None = None,
) -> Phase1Result:
    """Solve  min t  s.t.  X + t*1 >= 0  and  <A_i, X> = b_i.

    The constraint set must fix tr(X); substituting Y = X + t*1 then removes
    the free variable and leaves a standard-form SDP with traceless constraint
    operators, strictly feasible on both sides.  Its status is
    primal-infeasible only when dependent rows carry conflicting values.
    """
    d = int(dim)
    rows = [(matcore.hermitize(np.asarray(a, dtype=complex)), float(b)) for a, b in constraints]
    if not rows:
        raise ValueError("phase-1 needs at least the trace normalization constraint")
    vecs = np.stack([_vec_h(a, d) for a, _ in rows])
    target = _vec_h(np.eye(d, dtype=complex), d)
    coeff, *_ = np.linalg.lstsq(vecs.T, target, rcond=None)
    resid = float(np.linalg.norm(vecs.T @ coeff - target))
    if resid > 1e-9 * math.sqrt(d):
        raise ValueError("constraints do not fix the trace of X")
    trace_value = float(coeff @ np.array([b for _, b in rows]))

    traces = np.array([float(np.trace(a).real) for a, _ in rows])
    tilde, used = [], []
    for i, ((a, b), tr_a) in enumerate(zip(rows, traces)):
        ta = a - (tr_a / d) * np.eye(d)
        tb = b - tr_a * trace_value / d
        scale = 1.0 + float(np.abs(a).max())
        if float(np.abs(ta).max()) <= 1e-12 * scale:
            if abs(tb) > 1e-8 * (1.0 + abs(b)):
                sol = SdpSolution(
                    status=STATUS_PRIMAL_INFEASIBLE,
                    x=None,
                    y=None,
                    z=None,
                    primal_objective=math.nan,
                    dual_objective=math.nan,
                    gap=math.nan,
                    iterations=0,
                    primal_residual=math.inf,
                    dual_residual=0.0,
                    mu=math.nan,
                    message="trace-only constraints conflict",
                )
                return Phase1Result(t_star=math.inf, x=None, solution=sol)
            continue
        tilde.append((ta, tb))
        used.append(i)

    problem = SdpProblem.build(d, np.eye(d, dtype=complex) / d, tilde)
    sol = solve(problem, options)
    if sol.status != STATUS_OPTIMAL:
        return Phase1Result(t_star=math.nan, x=None, solution=sol)
    t_star = sol.primal_objective - trace_value / d
    x = sol.x - t_star * np.eye(d)
    z = problem.objective - sum(y * a for y, (a, _) in zip(sol.y, problem.constraints))
    # 1/d = sum_i (coeff_i / d) A_i and A~_i = A_i - (tr A_i / d) 1 expand dual_z over the rows
    y = np.zeros(len(rows))
    y[used] = sol.y
    c = (1.0 + float(y @ traces)) / d * coeff - y
    return Phase1Result(
        t_star=t_star, x=(x + x.conj().T) / 2.0, solution=sol, dual_z=z, dual_coefficients=c
    )
