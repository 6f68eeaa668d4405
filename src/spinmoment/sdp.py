"""The phase-1 feasibility SDP over the Hermitian PSD cone.

``phase1_min_t`` solves  min t  s.t.  X + t*1 >= 0,  <A_i, X> = b_i  for m
operators that fix tr(X).  Its sign decides feasibility, and its dual
solution, expanded over the caller's operators, is the separating
hyperplane.  Given a (k, m) array of values it solves k such programs over
the one set of operators at once.  Every program comes in blocks: a tuple
of (m, d_b, d_b) stacks, whose operators are the direct sums
A_i = sum_b A_i^b and whose X is block-diagonal, d = sum d_b.  A single
(m, d, d) stack is one block.  The arithmetic follows the operators: real
(float64) symmetric ones make a program over real symmetric X, and its
rows, iterates, factors, Schur matrix and step-length eigensolves all stay
real, at about a quarter of the complex flops; complex ones run in complex
arithmetic.

Substituting Y = X + t*1 leaves the standard form  min tr(Y)/d  s.t.
<R_k, Y> = b~_k,  Y >= 0.  One dependency pass over the traceless parts
A~_i = A_i - (tr A_i / d) 1, its blocks flattened side by side to (Re, Im)
coordinates that keep tr(A~_i A~_l) (the real part alone for real
operators), factors A~ = U S V^T by a QR and an SVD of the m x m factor.
Singular values at or below ``DEPENDENCY_TOL`` max(1, s_max) mark
dependencies N.  The rows fix tr(X) when the traces tr A_i have a component
along N above ``CONFLICT_TOL`` |tr A|, and along N the values U^T b~ must
vanish to ``CONFLICT_TOL``: values that conflict there are a ``ValueError``
before any solve.  The rest give the orthonormal rows R = S^-1 U^T A~.  The pass depends on the
operators only: ``phase1_program`` returns it as a frozen ``Phase1Program``,
which ``phase1_min_t`` takes in place of the operators, so callers that
solve over one program many times run it once, and a batch of programs
shares it.  Only the conflict test and b~ are per program.

``solve`` runs a primal-dual path-following interior point method: a
symmetrized Newton direction and Mehrotra-style predictor-corrector steps.
It starts at the program's own scale, from the min-norm solution X_mn of
the rows lifted into the cone, Y0 = X_mn + 1.5 |lambda_min(X_mn)| 1 (1/d,
the objective's scale, when X_mn = 0), with Z0 = 1/d and y0 = 0.  The
objective 1/d is positive definite, so Z = 1/d is strictly dual feasible,
and X_mn + s*1 is strictly primal feasible for every s > |lambda_min|: no
infeasibility ray can occur, and a solve ends optimal or in numerical
failure.  The dual slack is never stepped: Z = C - A^*(y), C = 1/d, is
recomputed from y after every update, so the dual residual is zero by
construction (``SdpSolution.dual_residual`` measures its rounding once, on
the returned (y, Z)).  The primal residual starts at zero and a Newton step
keeps it there to rounding, so every iterate is a primal point Y >= 0 and a
dual point (y, Z >= 0) at once.  With s = (fitted trace)/d, its objectives
bound t* from both sides: t_p = tr(Y)/d - s >= t* >= t_d = b~.y - s.  An
optimal return has the primal residual within ``TOLERANCE`` and a gap
t_p - t_d <= ``TOLERANCE`` max(1, |tr(Y)/d|), so its t_p is that close to t*.
``phase1_min_t(..., decide=True)`` uses the bounds: a program whose primal
residual passes ``TOLERANCE`` stops as soon as t_p < -``BOUNDARY_BAND``
(status primal-bound: X = Y - t_p·1 certifies feasibility) or t_d >
``BOUNDARY_BAND`` (status dual-bound: the rebuilt dual is a witness of
value -t_d), and ``t_star`` is that bound; a dual-bound program may also
stop one step early, at the dual look-ahead point of ``_path_following``.
A t* inside the band, or close to it, clears neither bound first, so it
still runs to the optimality test.

The kernel ``_path_following`` holds the rows of a program in n blocks as
one (m, n, D, D) stack, each block zero-padded to the largest size D
(``Blocks``), and the iterates of k programs as (k, n, D, D) arrays: a
leading batch axis, then the block axis.  So one pass of numpy and LAPACK
calls advances every block of every program, and at small D the per-call
overhead is paid once per iteration instead of once per program or block.
The blocks share t, y and the trace row: A(X), the Schur matrix, tr X and
mu are sums over them, Z = 1/d - A^*(y) is a direct sum too, each step
length is the minimum over the blocks, and a solve returns X and Z as the
dense (d, d) direct sums.  An iteration costs O(m n D^3) with m <= 9 rows,
all of it in BLAS: one Cholesky factor each of X and Z, whose inverses give
Z^-1 and the four step lengths (two for the predictor, two for the
corrector), and matmuls over the flattened row stack.

The batch is masked, not synchronized.  Each program has its own step
lengths and its own stopping, divergence and stall tests, log and failure
message, and a program that stops leaves the active set with its last
logged point as its result.  If a stacked Cholesky factor, Schur solve or
eigensolve raises, only then does each program run alone (the Cholesky
through ``_chol``'s jitter loop), and a program that still fails stops with
its own message while its neighbours go on.  ``solve`` is the k = 1 call.
``phase1_min_t`` hands the kernel chunks of programs whose (k, m, n, D, D)
stacks hold at most ``BATCH_ENTRIES`` entries, so a batch of any size runs
in bounded memory.  The cone dimension is capped at ``DIM_CAP``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matcore

STATUS_OPTIMAL = "optimal"
STATUS_FAILURE = "numerical-failure"
STATUS_PRIMAL_BOUND = "primal-bound"  # stopped once t_p < -BOUNDARY_BAND
STATUS_DUAL_BOUND = "dual-bound"  # stopped once t_d > BOUNDARY_BAND

MAX_ITERATIONS = 200
TOLERANCE = 1e-8  # both residuals, and the gap over max(1, |objective|), at an optimal return
STEP_FRACTION = 0.98
DEPENDENCY_TOL = 1e-10  # singular values of the traceless rows up to it, times max(1, s_max)
CONFLICT_TOL = 1e-8  # largest |U_dep^T b~| along the dependencies, times 1 + max |b~_i|;
# smallest |U_dep^T tr A| that fixes the trace, times |tr A|
DIM_CAP = 64
BATCH_ENTRIES = 1 << 18  # complex entries of one (k, m, n, D, D) kernel stack: 4 MB

_DIVERGENCE = 1e12
# lam / need of the dual look-ahead: lam just above need factors whenever
# lambda_min(Z1) > need, that is whenever the rescaled y1 can clear the band at
# all, and its bound keeps about a thousandth of the margin b.y1 - s - band
_LOOKAHEAD_SHIFT = 0.999


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
    iterate_log: list[tuple[float, float, float, float]] = field(default_factory=list)  # (pobj, dobj, mu, pres)
    message: str = ""


def _chol(a: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max()))
    jitter = 0.0
    for _ in range(12):
        try:
            return np.linalg.cholesky(a + jitter * np.eye(a.shape[-1]))
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 10.0
    raise np.linalg.LinAlgError("matrix lost positive definiteness")


def _each(fn, args, failed: dict[int, str], fallback, blank):
    """``fn(*args)`` over the leading batch axis of ``args``.

    If the stacked call raises, each program runs ``fallback`` on its own
    slices instead; one whose fallback raises too is recorded in ``failed``
    (batch position -> message) and gets ``blank`` of its slices, so that its
    neighbours go on unaffected.
    """
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        pass
    out = []
    for i, parts in enumerate(zip(*args)):
        try:
            out.append(fallback(*parts))
        except np.linalg.LinAlgError as exc:
            failed.setdefault(i, f"linear algebra failure: {exc}")
            out.append(blank(*parts))
    return np.stack(out)


class Blocks(NamedTuple):
    """The rows of a program: the (m, n, D, D) stack of its n blocks, each
    zero-padded from its size d_b to the largest, D, and the n sizes."""

    stack: np.ndarray
    sizes: tuple[int, ...]


def _lowest_eigenvalue(w: np.ndarray) -> np.ndarray:  # over all blocks of each (n, D, D) program
    return np.linalg.eigvalsh(w)[..., 0].min(axis=-1)


def _max_step(inv_factor: np.ndarray, direction: np.ndarray, failed: dict[int, str]) -> np.ndarray:
    """Largest alpha with C + alpha * direction still PSD, given L^-1 for C = L L^dag,
    per (n, D, D) program of a stack, so over all its blocks; ``failed`` as in
    ``_each``.  A padded block's direction is zero on its padding and its L^-1
    the identity there, which adds eigenvalues 0 and so leaves alpha alone."""
    w = _herm(inv_factor @ direction @ _adjoint(inv_factor))
    lam = _each(_lowest_eigenvalue, (w,), failed, _lowest_eigenvalue, lambda w: np.zeros(w.shape[:-3]))
    return np.where(lam >= -1e-14, np.inf, -1.0 / np.minimum(lam, -1e-14))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + _adjoint(a)) / 2.0


def _contractions(ops: np.ndarray):
    """tr(A_k X) for each k, sum_k y_k A_k, S_kl = Re tr(A_k X A_l Z^-1), exactly
    symmetric, and the min-norm X = A^*(G^-1 b), G_kl = tr(A_k A_l), as BLAS products
    on one copy of the rows vec(A_k^T): tr(A_k X) = vec(X) . rows_k.  Each takes
    a single program or a stack of them along a leading batch axis.  ``ops`` is
    the (m, n, D, D) stack of a program in n blocks, whose iterates are (n, D, D)
    and whose contractions sum over the blocks."""
    m = len(ops)
    rows = ops.swapaxes(-1, -2).reshape(m, -1)
    flat = ops.reshape(m, -1)
    shape = ops.shape[1:]  # one program's iterate

    def a_apply(x: np.ndarray) -> np.ndarray:
        return (x.reshape(*x.shape[: x.ndim - len(shape)], flat.shape[1]) @ rows.T).real

    def a_adjoint(y: np.ndarray) -> np.ndarray:
        return (y @ flat).reshape(*y.shape[:-1], *shape)

    def schur(x: np.ndarray, zinv: np.ndarray) -> np.ndarray:
        at = x.ndim - len(shape)  # the operator axis goes after the batch axes
        lift = (*[slice(None)] * at, None)
        xaz = (x[lift] @ ops) @ zinv[lift]
        s = (xaz.reshape(-1, flat.shape[1]) @ rows.T).real.reshape(*x.shape[:at], m, m)
        return (s + s.swapaxes(-1, -2)) / 2.0

    def min_norm(b: np.ndarray) -> np.ndarray:
        return a_adjoint(np.linalg.solve((rows @ rows.conj().T).real, b[..., None])[..., 0])

    return a_apply, a_adjoint, schur, min_norm


def _ridge_solve(schur: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-12 * (1.0 + float(np.trace(schur)) / len(rhs))
        return np.linalg.solve(schur + ridge * np.eye(len(rhs)), rhs)


def _path_following(rows: Blocks, b: np.ndarray, shift=None) -> list[SdpSolution]:
    """The interior point of ``solve`` on k programs at once: b (k, m), iterates
    (k, n, D, D), zero on each block's padding.

    ``finish`` ends a program at its iterate and its last log row, so its
    objectives, mu and primal residual are that row's and ``iterations`` is
    len(iterate_log) - 1.  The program leaves the active set at the next
    compaction, after the stop tests or the predictor, so the arrays shrink.
    ``shift``, k trace shifts s or None, adds ``solve``'s bound stops and the
    dual look-ahead.  The identity and C = 1/d are the blocks' masks, and only
    the factorizations see the padding, which ``pad`` turns into an identity
    block there and takes out of Z^-1 again.
    """
    k, m = b.shape
    shift = np.full(k, math.nan) if shift is None else np.asarray(shift, dtype=float)
    ops, dims = rows
    size = ops.shape[-1]
    inside = np.arange(size) < np.array(dims)[:, None]  # (n, D): the unpadded levels
    eye = np.eye(size, dtype=ops.dtype) * inside[:, :, None]  # real rows keep every iterate real
    pad = None if inside.all() else np.eye(size) - eye  # adding a zero pad each iteration is not free
    entry = np.nonzero(inside[:, :, None] & inside[:, None, :])  # each unpadded entry of the blocks,
    at = np.cumsum([0, *dims[:-1]])[entry[0]]
    placed = (at + entry[1], at + entry[2])  # and where it sits in the (d, d) direct sum
    d = sum(dims)
    c = eye / d
    if m == 0:  # Y = 0 and Z = 1/d are optimal: one logged point
        return [
            SdpSolution(
                STATUS_OPTIMAL, np.zeros((d, d), dtype=ops.dtype), np.zeros(0), np.eye(d, dtype=ops.dtype) / d,
                primal_objective=0.0, dual_objective=0.0, gap=0.0,
                primal_residual=0.0, dual_residual=0.0, mu=0.0, iterate_log=[(0.0, 0.0, 0.0, 0.0)],
            )
            for _ in range(k)
        ]

    a_apply, a_adjoint, schur_of, min_norm = _contractions(ops)
    band = matcore.BOUNDARY_BAND

    def per(s: np.ndarray) -> np.ndarray:  # one value per program, over its (n, D, D) iterate
        return s.reshape(-1, 1, 1, 1)

    def each_program(a: np.ndarray) -> np.ndarray:  # a stack with its blocks side by side
        return a.reshape(len(a), -1, a.shape[-1])

    def factor(a: np.ndarray, failed: dict[int, str], fallback) -> np.ndarray:
        """Cholesky factors of a stack; a padded block gets the identity on its padding."""
        a = a if pad is None else a + pad
        return _each(np.linalg.cholesky, (a,), failed, fallback, lambda a: np.broadcast_to(np.eye(size), a.shape))

    def direct_sum(a: np.ndarray) -> np.ndarray:  # one program's blocks as its (d, d) matrix
        if len(dims) == 1:  # one unpadded block: a copy is cheaper than the scatter
            return a[0].copy()
        out = np.zeros((d, d), dtype=a.dtype)
        out[placed] = a[entry]
        return out

    # Start: the min-norm affine solution shifted into the interior at its own
    # scale, 1.5 |lambda_min|, or 1/d if it is zero; and y = 0, so Z = 1/d.
    x = _herm(min_norm(b))
    if pad is None:
        lowest = _lowest_eigenvalue(x)
    else:  # the padding's eigenvalues are set above every block's
        lowest = _lowest_eigenvalue(x + (1.0 + size * np.abs(x).max()) * pad)
    lift = 1.5 * np.abs(lowest)
    x += per(np.where(lift > 0.0, lift, 1.0 / d)) * eye
    z = np.repeat(c[None], k, axis=0)
    y = np.zeros((k, m))

    b_scale = 1.0 + np.abs(b).max(axis=1)
    logs: list[list[tuple[float, float, float, float]]] = [[] for _ in range(k)]
    out: list[SdpSolution | None] = [None] * k  # every program is finished by the end
    stalls = [0] * k
    active = np.arange(k)  # the program behind each row of the stacks
    going = np.ones(k, dtype=bool)  # cleared by finish, until the next compaction

    def finish(i: int, status: str, message: str = "") -> None:
        log = logs[active[i]]
        pobj, dobj, mu, pres = log[-1]
        # Z = C - A^*(y) by construction: the residual measures its rounding
        dres = float(np.abs(c - z[i] - a_adjoint(y[i])).max()) / (1.0 + 1.0 / d)
        out[active[i]] = SdpSolution(
            status, direct_sum(x[i]), y[i].copy(), direct_sum(z[i]),
            primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj), iterations=len(log) - 1,
            primal_residual=pres, dual_residual=dres, mu=mu, iterate_log=log, message=message,
        )
        going[i] = False

    for it in range(MAX_ITERATIONS + 1):  # the last pass only tests the final iterate
        mu = np.einsum("kab,kab->k", each_program(x).conj(), each_program(z)).real / d
        points = zip(*(a.tolist() for a in (
            x.diagonal(0, -2, -1).real.reshape(len(x), -1).sum(axis=1) / d,
            (b * y).sum(axis=1),
            mu,
            np.abs(b - a_apply(x)).max(axis=1) / b_scale,
        )))
        sizes = np.maximum(np.abs(y).max(axis=1), np.abs(each_program(x)).max(axis=(1, 2))).tolist()
        for i, point in enumerate(points):
            if not going[i]:  # stopped after the last corrector
                continue
            logs[active[i]].append(point)
            pobj, dobj, _, pres = point
            gap = abs(pobj - dobj)
            feasible = pres <= TOLERANCE
            if feasible and gap <= TOLERANCE * max(1.0, abs(pobj)):
                finish(i, STATUS_OPTIMAL)
            elif feasible and pobj - shift[i] < -band:
                finish(i, STATUS_PRIMAL_BOUND)
            elif feasible and dobj - shift[i] > band:
                finish(i, STATUS_DUAL_BOUND)
            elif sizes[i] > _DIVERGENCE:
                finish(i, STATUS_FAILURE, "iterate diverged")
            elif it == MAX_ITERATIONS:
                finish(i, STATUS_FAILURE, (
                    f"no convergence after {it} iterations (gap {gap:.2e}, primal res {pres:.2e})"
                ))
        if not going.all():
            if not going.any():
                break
            active, b, b_scale, shift, x, y, z, mu = (
                a[going] for a in (active, b, b_scale, shift, x, y, z, mu)
            )
            going = going[going]

        # X and Z are factored, inverted and step-tested in one stack of 2n matrices
        n = len(active)
        failed: dict[int, str] = {}  # stack position -> message; program i % n
        inv_factors = np.linalg.inv(factor(np.concatenate([x, z]), failed, _chol))
        lz = inv_factors[n:]
        zinv = _herm(_adjoint(lz) @ lz)
        if pad is not None:
            zinv -= pad
        schur = schur_of(x, zinv)
        a_zinv = a_apply(zinv)

        def newton(sigma_mu: np.ndarray, correction: np.ndarray | None):
            rhs = b - sigma_mu[:, None] * a_zinv
            if correction is not None:
                rhs = rhs + a_apply(correction @ zinv)
            dy = _each(
                lambda s, r: np.linalg.solve(s, r[..., None])[..., 0], (schur, rhs), failed,
                _ridge_solve, lambda s, r: np.zeros_like(r),
            )
            dz = -a_adjoint(dy)  # Z stays on its affine space C - A^*(y)
            dx = per(sigma_mu) * zinv - x - x @ dz @ zinv
            if correction is not None:
                dx = dx - correction @ zinv
            return _herm(dx), dy, dz

        def steps(dx: np.ndarray, dz: np.ndarray, fraction: float):
            alpha = _max_step(inv_factors, np.concatenate([dx, dz]), failed)
            return np.minimum(1.0, fraction * alpha[:n]), np.minimum(1.0, fraction * alpha[n:])

        dx_a, dy_a, dz_a = newton(np.zeros(n), None)
        for i, message in failed.items():  # a failed factor or predictor ends its program here
            if going[i % n]:
                finish(i % n, STATUS_FAILURE, message)
        failed.clear()

        # Dual look-ahead: once the full predictor point y1 = y + dy_a bounds t*
        # above the band, b.y1 - s > band, one Cholesky factor of Z1 - lam·1,
        # Z1 = C - A^*(y1), lam = _LOOKAHEAD_SHIFT need, certifies the dual point
        # y1/(1 - d lam): its slack (Z1 - lam·1)/(1 - d lam) is PSD with unit trace,
        # and for need < lam < 0 its bound b.y1/(1 - d lam) - s still clears the
        # band.  The program then stops there with status dual-bound, before the
        # step lengths, the corrector and the update.  The primal side has no such
        # look-ahead: the full primal step overshoots, so it would rarely certify.
        y1 = y + dy_a
        dobj1 = (b * y1).sum(axis=1)
        ahead = going & (dobj1 - shift > band) & (shift + band > 0.0)
        if ahead.any():
            at = np.flatnonzero(ahead)
            need = (1.0 - dobj1[at] / (shift[at] + band)) / d  # < 0: the bound is the band there
            lam = _LOOKAHEAD_SHIFT * need
            shifted = _herm(c - a_adjoint(y1[at])) - per(lam) * eye
            misses: dict[int, str] = {}  # the positions whose factorization fails
            factor(shifted, misses, np.linalg.cholesky)
            for j, i in enumerate(at.tolist()):
                scale = 1.0 - d * lam[j]
                y_i = y1[i] / scale
                dobj = float(b[i] @ y_i)
                if j in misses or not dobj - shift[i] > band:
                    continue
                y[i], z[i] = y_i, shifted[j] / scale
                log = logs[active[i]]
                pobj, _, _, pres = log[-1]
                log.append((pobj, dobj, float(np.vdot(x[i], z[i]).real) / d, pres))
                finish(i, STATUS_DUAL_BOUND)
        if not going.all():  # the predictor's failures and certified programs leave here
            if not going.any():
                break
            active, b, b_scale, shift, x, y, z, mu, zinv, schur, a_zinv, dx_a, dz_a = (
                a[going] for a in (active, b, b_scale, shift, x, y, z, mu, zinv, schur, a_zinv, dx_a, dz_a)
            )
            inv_factors = inv_factors[np.concatenate([going, going])]
            going = going[going]
            n = len(active)

        ap_a, ad_a = steps(dx_a, dz_a, 1.0)
        mu_aff = np.einsum(
            "kab,kab->k", each_program(x + per(ap_a) * dx_a).conj(), each_program(z + per(ad_a) * dz_a)
        ).real / d
        sigma = np.minimum(1.0, np.maximum(0.0, mu_aff / mu)) ** 3  # mu = tr(XZ)/d > 0

        dx, dy, dz = newton(sigma * mu, dx_a @ dz_a)
        ap, ad = steps(dx, dz, STEP_FRACTION)
        for i, message in failed.items():
            if going[i % n]:
                finish(i % n, STATUS_FAILURE, message)
        for i, (p, ap_i, ad_i) in enumerate(zip(active.tolist(), ap.tolist(), ad.tolist())):
            stalls[p] = stalls[p] + 1 if ap_i < 1e-10 and ad_i < 1e-10 else 0
            if stalls[p] >= 5 and going[i]:
                finish(i, STATUS_FAILURE, "step sizes collapsed")

        # a program that failed or stalled here leaves at the next compaction
        x = _herm(x + per(ap) * dx)
        y = y + ad[:, None] * dy
        z = _herm(c - a_adjoint(y))
    return out


def solve(rows: Blocks, b: np.ndarray, *, shift: float | None = None) -> SdpSolution:
    """Solve  min tr(Y)/d  s.t.  <A_i, Y> = b_i,  Y >= 0  by interior point: the
    one-program call of the batched kernel ``_path_following``.

    ``rows`` holds the traceless, linearly independent A_i in ``Blocks``, as
    ``phase1_program`` builds them (orthonormal there, though any independent
    rows will do); X and Z come back as the (d, d) direct sums.  The status is
    ``optimal`` only when the primal residual (the dual one is zero by
    construction) and the duality gap over max(1, |tr(Y)/d|) are within
    ``TOLERANCE``.  Given the trace shift s = (fitted trace)/d as ``shift``, a
    solve whose primal residual passes also stops early, with status
    ``primal-bound`` once tr(Y)/d - s < -BOUNDARY_BAND or ``dual-bound`` once
    b.y - s > BOUNDARY_BAND or at the dual look-ahead point.  Anything else is
    numerical failure with the final residuals in the message.
    """
    shifts = None if shift is None else [shift]
    return _path_following(rows, np.asarray(b, dtype=float)[None], shifts)[0]


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of the min-t feasibility program.

    ``t_star <= 0`` certifies a PSD point ``x`` satisfying the constraints;
    ``t_star > 0`` proves infeasibility.  A numerical failure gives
    ``t_star`` nan.  (Dependent rows with conflicting values leave no X at
    all; ``phase1_min_t`` raises them as a ``ValueError``.)

    ``x = Y - t_p·1`` for the final primal iterate Y > 0, so lambda_min(x) >=
    -t_p with t_p = tr(Y)/d - (fitted trace)/d.  ``dual_z`` is the solver's
    own slack ``solution.z`` = 1/d - sum_k y_k R_k over the orthonormal rows
    R that ``solve`` saw, and the separating hyperplane: PSD, unit trace, in
    the span of the constraints, and it pairs with every X meeting them to
    -t_d, t_d = b~.y - (fitted trace)/d.  ``dual_coefficients`` c expand it
    over the caller's rows, ``dual_z = sum_i c_i A_i`` and ``c.b = -t_d``, so
    a witness needs nothing else.

    ``t_star`` is the optimum t_p of an optimal solve, where t_d agrees to
    the gap.  A ``decide`` solve may stop earlier on a certified bound
    instead, named by ``solution.status``: t_p (primal-bound, an upper bound
    below -BOUNDARY_BAND) or t_d (dual-bound, a lower bound above
    BOUNDARY_BAND).  At the dual look-ahead point of ``_path_following`` t_d
    decides the sign but may sit well below t*.  ``x``, ``dual_z`` and
    ``dual_coefficients`` are None unless the solve is optimal or decided.
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


@dataclass(frozen=True)
class Phase1Program:
    """The dependency pass over a program's m operators, which ``phase1_min_t``
    needs from the operators alone: the r orthonormal traceless rows
    R = W A~ (``rows``, in ``Blocks``) with W (``w``, (r, m)), the coefficients
    ``coeff`` with sum_i coeff_i A_i = 1, the traces tr A_i, and the (m, m - r)
    dependencies ``null`` along which the values must agree."""

    rows: Blocks
    w: np.ndarray
    coeff: np.ndarray
    traces: np.ndarray
    null: np.ndarray


def batch_size(entries: int) -> int:
    """How many items of ``entries`` complex entries each fit in one block of
    ``BATCH_ENTRIES`` (at least one): the chunk length of every batched stack."""
    return max(1, BATCH_ENTRIES // max(1, entries))


def phase1_program(ops) -> Phase1Program:
    """Run the dependency pass over ``ops`` once, for any number of
    ``phase1_min_t`` calls over it; the rows must fix tr(X).

    ``ops`` is a tuple of (m, d_b, d_b) stacks, the blocks of a block-diagonal
    program: operator i is the direct sum of the blocks' i-th matrices,
    d = sum d_b, and X is block-diagonal too.  A single (m, d, d) stack is one
    block.  The pass runs on the blocks side by side, as tr(A_i A_l) is a sum
    over them."""
    blocks = tuple(ops) if isinstance(ops, tuple) and np.ndim(ops[0]) == 3 else (ops,)
    m = np.shape(blocks[0])[0]
    dims = [np.shape(blk)[-1] for blk in blocks]
    d = sum(dims)
    _check_dim(d)
    if m == 0:
        raise ValueError("phase-1 needs at least the trace normalization constraint")
    stacks = []
    for blk in blocks:
        blk = np.asarray(blk)
        matcore._check_finite("phase-1 operators", "A", blk)
        stack = np.stack([matcore.hermitize(a) for a in blk])
        stacks.append(stack if np.iscomplexobj(blk) else stack.real.copy())
    # in place: A~_i = A_i - (tr A_i / d) 1
    traces = np.trace(stacks[0], axis1=1, axis2=2).real
    for stack in stacks[1:]:
        traces = traces + np.trace(stack, axis1=1, axis2=2).real
    for stack in stacks:
        stack[:, np.arange(stack.shape[-1]), np.arange(stack.shape[-1])] -= (traces / d)[:, None]
    flat = np.concatenate([stack.reshape(m, -1) for stack in stacks], axis=1)
    # (Re, Im) coordinates keep the inner product: coords_k . coords_l = tr(A~_k A~_l)
    coords = np.concatenate([flat.real, flat.imag], axis=1) if np.iscomplexobj(flat) else flat
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
    w = u[:, keep].T / s[keep, None]
    rows = np.zeros((len(w), len(stacks), max(dims), max(dims)), dtype=flat.dtype)  # each block zero-padded
    for i, stack in enumerate(stacks):
        rows[:, i, : dims[i], : dims[i]] = np.tensordot(w, stack, axes=1)
    return Phase1Program(Blocks(rows, tuple(dims)), w, d * (null @ null_traces) / fit**2, traces, null)


def phase1_min_t(ops, values, *, decide: bool = False):
    """Solve  min t  s.t.  X + t*1 >= 0  and  <A_i, X> = b_i  over the operators
    ``ops`` (an (m, d, d) stack or blocks, as ``phase1_program`` takes them) and
    the m ``values``; the rows must fix tr(X).

    ``ops`` may also be their ``phase1_program``, which skips the dependency
    pass: callers that solve many times over one program run it once.
    With a (k, m) array of values, the k programs share one dependency pass
    and one batched solve, and a list of k results comes back in their order.
    A trace-only row has A~_i = 0, so the dependency pass drops it.  Values
    that conflict along a dependency, in any program of a batch, raise a
    ``ValueError`` before any solve, as do non-finite values.  With
    ``decide``, each program stops as soon as a certified bound puts t*
    outside the boundary band (see ``Phase1Result``): for callers that need
    the sign of t* only, not its value.
    """
    program = ops if isinstance(ops, Phase1Program) else phase1_program(ops)
    rows, w, coeff, traces = program.rows, program.w, program.coeff, program.traces
    m, d = len(traces), sum(rows.sizes)
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != m:
        raise ValueError(f"expected {m} values, one per operator, got shape {values.shape}")
    matcore._check_finite("phase-1 values", "b", values)
    batch = np.atleast_2d(values)
    trace_values = batch @ coeff
    tilde_b = batch - np.outer(trace_values, traces) / d
    mismatch = np.linalg.norm(tilde_b @ program.null, axis=1)
    conflict = np.flatnonzero(mismatch > CONFLICT_TOL * (1.0 + np.abs(tilde_b).max(axis=1)))
    if conflict.size:
        where = f" of program {conflict[0]}" if values.ndim == 2 else ""
        raise ValueError(
            f"the values{where} conflict: a linearly dependent operator's value differs "
            f"from the value the others imply ({mismatch[conflict[0]]:.1e})"
        )

    rhs = tilde_b @ w.T
    shifts = trace_values / d if decide else np.full(len(rhs), math.nan)
    if values.ndim == 1:
        solutions = [solve(rows, rhs[0], shift=float(shifts[0]) if decide else None)]
    else:
        step = batch_size(rows.stack.size)  # each (k, r, n, D, D) stack of the kernel
        solutions = [
            sol for i in range(0, len(rhs), step)
            for sol in _path_following(rows, rhs[i : i + step], shifts[i : i + step])
        ]

    eye = np.eye(d)

    def result(trace_value: float, sol: SdpSolution) -> Phase1Result:
        if sol.status not in (STATUS_OPTIMAL, STATUS_PRIMAL_BOUND, STATUS_DUAL_BOUND):
            return Phase1Result(t_star=math.nan, x=None, solution=sol)
        t_primal = sol.primal_objective - trace_value / d
        t_star = sol.dual_objective - trace_value / d if sol.status == STATUS_DUAL_BOUND else t_primal
        # 1/d = sum_i (coeff_i / d) A_i and A~_i = A_i - (tr A_i / d) 1 expand sol.z over the rows
        y = w.T @ sol.y  # sum_k y_k R_k = sum_i (W^T y)_i A~_i
        c = (1.0 + float(y @ traces)) / d * coeff - y
        return Phase1Result(t_star, sol.x - t_primal * eye, sol, dual_z=sol.z, dual_coefficients=c)

    results = [result(*args) for args in zip(trace_values.tolist(), solutions)]
    return results if values.ndim == 2 else results[0]
