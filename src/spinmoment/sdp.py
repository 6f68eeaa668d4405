"""The phase-1 feasibility SDP over the Hermitian PSD cone.

``phase1_min_t`` solves  min t  s.t.  X + t*1 >= 0,  <A_i, X> = b_i  for an
(m, d, d) operator stack that fixes tr(X).  Its sign decides feasibility,
and its dual solution, expanded over the caller's operators, is the
separating hyperplane.

Substituting Y = X + t*1 leaves the standard form  min tr(Y)/d  s.t.
<R_k, Y> = b~_k,  Y >= 0.  One dependency pass over the traceless parts
A~_i = A_i - (tr A_i / d) 1, flattened to (Re, Im) coordinates that keep
tr(A~_i A~_l), factors A~ = U S V^T by a QR and an SVD of the m x m
factor.  Singular values at or below ``DEPENDENCY_TOL`` max(1, s_max) mark
dependencies N.  The rows fix tr(X) when the traces tr A_i have a component
along N above ``CONFLICT_TOL`` |tr A|, and along N the values U^T b~ must
vanish to ``CONFLICT_TOL``; the rest give the orthonormal rows
R = S^-1 U^T A~.  ``solve`` runs a primal-dual path-following interior
point method from the min-norm solution: a symmetrized Newton direction
and Mehrotra-style predictor-corrector steps.  The objective 1/d is
positive definite, so Z = 1/d is strictly dual feasible, and Y0 + s*1 is
strictly primal feasible for large s: no infeasibility ray can occur, and
a solve ends optimal or in numerical failure.  An iteration costs O(m d^3) with m <= 9 rows, all of it
in BLAS: one Cholesky factor each of X and Z, whose inverses give Z^-1 and
the four step lengths, and matmuls over the flattened operator stack.  The
cone dimension is capped at ``DIM_CAP``.
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
DEPENDENCY_TOL = 1e-10  # singular values of the traceless rows up to it, times max(1, s_max)
CONFLICT_TOL = 1e-8  # largest |U_dep^T b~| along the dependencies, times 1 + max |b~_i|;
# smallest |U_dep^T tr A| that fixes the trace, times |tr A|
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


def _chol(a: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max()))
    jitter = 0.0
    for _ in range(12):
        try:
            return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 10.0
    raise np.linalg.LinAlgError("matrix lost positive definiteness")


def _max_step(inv_factor: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with C + alpha * direction still PSD, given L^-1 for C = L L^dag."""
    w = inv_factor @ direction @ inv_factor.conj().T
    lam = float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0])
    if lam >= -1e-14:
        return math.inf
    return -1.0 / lam


def _contractions(ops: np.ndarray):
    """tr(A_k X) for each k, sum_k y_k A_k, S_kl = Re tr(A_k X A_l Z^-1), exactly
    symmetric, and the min-norm X = A^*(G^-1 b), G_kl = tr(A_k A_l), as BLAS products
    on one copy of the rows vec(A_k^T): tr(A_k X) = rows @ vec(X)."""
    m = len(ops)
    rows = ops.transpose(0, 2, 1).reshape(m, -1)

    def a_adjoint(y: np.ndarray) -> np.ndarray:
        return np.tensordot(y, ops, axes=1)

    def schur(x: np.ndarray, zinv: np.ndarray) -> np.ndarray:
        s = (rows @ ((x @ ops) @ zinv).reshape(m, -1).T).real
        return (s + s.T) / 2.0

    def min_norm(b: np.ndarray) -> np.ndarray:
        return a_adjoint(np.linalg.solve((rows @ rows.conj().T).real, b))

    return (lambda x: (rows @ x.ravel()).real), a_adjoint, schur, min_norm


def solve(ops: np.ndarray, b: np.ndarray) -> SdpSolution:
    """Solve  min tr(Y)/d  s.t.  <A_i, Y> = b_i,  Y >= 0  by interior point.

    ``ops`` is the (m, d, d) stack of traceless, linearly independent A_i
    that ``phase1_min_t`` builds (orthonormal there, though any independent
    rows will do).  The returned status is ``optimal`` only when the
    relative duality gap and both feasibility residuals are below
    ``TOLERANCE``; anything else is numerical failure with the final
    residuals in the message.
    """
    m, d = len(b), ops.shape[1]
    c = np.eye(d, dtype=complex) / d
    if m == 0:
        return SdpSolution(
            STATUS_OPTIMAL, np.zeros((d, d), dtype=complex), np.zeros(0), c.copy(),
            primal_objective=0.0, dual_objective=0.0, gap=0.0,
            primal_residual=0.0, dual_residual=0.0, mu=0.0,
        )

    eye = np.eye(d, dtype=complex)
    a_apply, a_adjoint, schur_of, min_norm = _contractions(ops)

    # Start: the min-norm affine solution shifted into the interior, and Z = 1/d.
    x = min_norm(b)
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
            lx, lz = (np.linalg.inv(_chol(a)) for a in (x, z))
            zinv = lz.conj().T @ lz
            zinv = (zinv + zinv.conj().T) / 2.0
            schur = schur_of(x, zinv)
            a_zinv = a_apply(zinv)
            a_xrdz = a_apply(x @ rd @ zinv)

            def newton(sigma_mu: float, correction: np.ndarray | None):
                rhs = b - sigma_mu * a_zinv + a_xrdz
                if correction is not None:
                    rhs = rhs + a_apply(correction @ zinv)
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
            ap_a = min(1.0, _max_step(lx, dx_a))
            ad_a = min(1.0, _max_step(lz, dz_a))
            mu_aff = matcore.hs_inner(x + ap_a * dx_a, z + ad_a * dz_a) / d
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

            dx, dy, dz = newton(sigma * mu, dx_a @ dz_a)
            ap = min(1.0, STEP_FRACTION * _max_step(lx, dx))
            ad = min(1.0, STEP_FRACTION * _max_step(lz, dz))
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
    sum_k y_k R_k``, rebuilt from ``y`` over the orthonormal rows R that
    ``solve`` saw, is the separating hyperplane: PSD, unit trace, in the
    span of the constraints, and it pairs with every X meeting them to
    ``-t_star``.
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


def phase1_min_t(ops, values) -> Phase1Result:
    """Solve  min t  s.t.  X + t*1 >= 0  and  <A_i, X> = b_i  over the (m, d, d)
    stack ``ops`` and the m ``values``; the rows must fix tr(X).

    A trace-only row has A~_i = 0, so the dependency pass drops it; values
    that conflict along a dependency are primal-infeasible before any
    iteration.
    """
    m, d = np.shape(ops)[:2]
    _check_dim(d)
    if m == 0:
        raise ValueError("phase-1 needs at least the trace normalization constraint")
    if np.shape(values) != (m,):
        raise ValueError(f"expected {m} values, one per operator, got shape {np.shape(values)}")
    ops = np.stack([matcore.hermitize(a) for a in ops])
    # in place: A~_i = A_i - (tr A_i / d) 1
    traces = np.trace(ops, axis1=1, axis2=2).real
    ops[:, np.arange(d), np.arange(d)] -= (traces / d)[:, None]
    flat = ops.reshape(m, -1)
    # (Re, Im) coordinates keep the inner product: coords_k . coords_l = tr(A~_k A~_l)
    coords = np.concatenate([flat.real, flat.imag], axis=1)
    u, s, _ = np.linalg.svd(np.linalg.qr(coords.T, mode="r").T)  # A~ = R^T Q^T, R^T = U S V^T
    s = np.concatenate([s, np.zeros(m - len(s))])
    keep = s > DEPENDENCY_TOL * max(1.0, s[0])
    # sum_i coeff_i A_i = 1 needs coeff in the null space N of A~^T and coeff . tr A = d;
    # the min-norm such coeff lies along N N^T tr A, which must not vanish
    null = u[:, ~keep]
    null_traces = null.T @ traces
    fit = float(np.linalg.norm(null_traces))
    if fit <= CONFLICT_TOL * float(np.linalg.norm(traces)):
        raise ValueError("constraints do not fix the trace of X")
    coeff = d * (null @ null_traces) / fit**2
    trace_value = float(coeff @ values)
    tilde_b = values - traces * trace_value / d
    mismatch = float(np.linalg.norm(null.T @ tilde_b))
    if mismatch > CONFLICT_TOL * (1.0 + float(np.abs(tilde_b).max())):
        message = f"a dependency of the constraints conflicts with their values ({mismatch:.1e})"
        return Phase1Result(math.inf, None, SdpSolution(STATUS_PRIMAL_INFEASIBLE, message=message))

    w = u[:, keep].T / s[keep, None]
    rows = np.tensordot(w, ops, axes=1)
    sol = solve(rows, w @ tilde_b)
    if sol.status != STATUS_OPTIMAL:
        return Phase1Result(t_star=math.nan, x=None, solution=sol)
    t_star = sol.primal_objective - trace_value / d
    x = sol.x - t_star * np.eye(d)
    z = np.eye(d, dtype=complex) / d - np.tensordot(sol.y, rows, axes=1)
    # 1/d = sum_i (coeff_i / d) A_i and A~_i = A_i - (tr A_i / d) 1 expand dual_z over the rows
    y = w.T @ sol.y  # sum_k y_k R_k = sum_i (W^T y)_i A~_i
    c = (1.0 + float(y @ traces)) / d * coeff - y
    return Phase1Result(
        t_star=t_star, x=(x + x.conj().T) / 2.0, solution=sol, dual_z=z, dual_coefficients=c
    )
