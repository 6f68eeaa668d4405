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
bound t* from both sides: t_p = tr(Y)/d - s >= t* >= t_d = b~.y - s.
``solve`` states the optimality test and the ``decide`` stops on these
bounds, and ``Phase1Result`` what each stop returns.

The kernel ``_path_following`` holds the rows of a program in n blocks as
one (m, n, D, D) stack, each block zero-padded to the largest size D
(``Blocks``), and the iterates of k programs as (k, n, D, D) arrays: a
leading batch axis, then the block axis, so that one pass of numpy and
LAPACK calls advances every block of every program.  The blocks share t, y
and the trace row: A(X), the Schur matrix, tr X and mu are sums over them,
Z = 1/d - A^*(y) is a direct sum too, each step length is the minimum over
the blocks, and a solve returns X and Z as the dense (d, d) direct sums.
An iteration costs O(m n D^3) with m <= 9 rows, all of it in BLAS: one
Cholesky factor each of X and Z, whose inverses give Z^-1 and the four step
lengths (two for the predictor, two for the corrector), and matmuls over
the flattened row stack.

The batch is masked, not synchronized.  Each program has its own step
lengths and its own stopping, divergence and stall tests, log and failure
message, and a program that stops leaves the active set with its last
logged point as its result.  If a stacked Cholesky factor, Schur solve or
eigensolve raises, only then does each program run alone (the Cholesky
through ``_chol``'s jitter loop), and a program that still fails stops with
its own message while its neighbours go on.  ``phase1_min_t`` hands the
kernel chunks of programs whose (k, m, n, D, D) stacks hold at most
``BATCH_ENTRIES`` entries, so a batch of any size runs in bounded memory.
The cone dimension is capped at ``DIM_CAP``.

A decided one-block program (the complex moment program of every input
with no frame) meets ``_factored_accepts`` first, a stage that can only
accept; the programs it leaves go to the kernel.  Evidence a caller may
never read is stored as the call that forms it (``OnRequest``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from functools import lru_cache, partial
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

FACTOR_RANK = 3  # columns of the factor V of ``_factored_accepts``
FACTOR_SHIFT = 2.0 * matcore.BOUNDARY_BAND  # tau: V V^dag + tau·1 is the certificate's PSD part
# Gauss-Newton steps before a program falls through to the kernel, or once its
# ||dX||_F is no lower than FACTOR_STALL steps before.  On the u = (0.1, 0.2, 0.3)
# slices accepts converge in 4 to 30 steps (more at larger j); a reject never
# does, and the stall test ends most after 10 to 20 steps, not the whole budget
FACTOR_STEPS = 40
FACTOR_STALL = 6
FACTORED = "factored"  # how a factored accept's message, and the stage detail, name its path


class Later(partial):
    """The call that forms the value of an ``OnRequest`` field."""


class OnRequest:
    """A dataclass field that may be given a ``Later``: the first read makes the
    call and keeps its value for every later read.  Required with no default."""

    def __init__(self, *default) -> None:
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # the default, as the dataclass reads it; none while it builds a required field
            if not (self.default or is_dataclass(owner)):
                raise AttributeError(self.name)
            return self.default[0] if self.default else self
        value = obj.__dict__[self.name]
        if isinstance(value, Later):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass
class SdpSolution:
    status: str
    x: np.ndarray | None = OnRequest(None)
    y: np.ndarray | None = None
    z: np.ndarray | None = OnRequest(None)
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
    neighbours go on unaffected.  A stack of one whose ``fallback`` is ``fn``
    is recorded from the first raise, as the rerun would raise again.
    """
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        if fallback is fn and len(args[0]) == 1:
            failed.setdefault(0, f"linear algebra failure: {exc}")
            return np.stack([blank(*(a[0] for a in args))])
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

    def min_norm(b: np.ndarray) -> np.ndarray:  # one product per program, so none depends on its batch
        y = np.linalg.solve((rows @ rows.conj().T).real, b[..., None])
        return (y.swapaxes(-1, -2) @ flat).reshape(*b.shape[:-1], *shape)

    return a_apply, a_adjoint, schur, min_norm


def _ridge_solve(schur: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(schur, rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-12 * (1.0 + float(np.trace(schur)) / len(rhs))
        return np.linalg.solve(schur + ridge * np.eye(len(rhs)), rhs)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _layout(dims: tuple[int, ...], size: int, dtype: np.dtype):
    """The block layout of ``_path_following`` for blocks of sizes ``dims``
    padded to ``size``, as read-only arrays cached per layout: ``eye``, the
    identity's mask over the unpadded levels (of the rows' ``dtype``, so that
    real rows keep every iterate real); ``pad``, the identity on the padding,
    or None without padding; and ``entry`` and ``placed``, each unpadded entry
    of the blocks and where it sits in the (d, d) direct sum."""
    inside = np.arange(size) < np.array(dims)[:, None]  # (n, D): the unpadded levels
    eye = _frozen(np.eye(size, dtype=dtype) * inside[:, :, None])
    pad = None if inside.all() else _frozen(np.eye(size) - eye)
    entry = tuple(map(_frozen, np.nonzero(inside[:, :, None] & inside[:, None, :])))
    at = np.cumsum([0, *dims[:-1]])[entry[0]]
    placed = (_frozen(at + entry[1]), _frozen(at + entry[2]))
    return eye, pad, entry, placed


def _start(rows: Blocks, b: np.ndarray) -> np.ndarray:
    """The primal start Y0 of ``solve`` (module docstring) for b (k, m), as (k, n, D, D)."""
    ops, dims = rows
    size, d = ops.shape[-1], sum(dims)
    eye, pad, _, _ = _layout(tuple(dims), size, ops.dtype)
    x = _herm(_contractions(ops)[3](b))
    if pad is None:
        lowest = _lowest_eigenvalue(x)
    else:  # the padding's eigenvalues are set above every block's
        lowest = _lowest_eigenvalue(x + (1.0 + size * np.abs(x).max()) * pad)
    lift = 1.5 * np.abs(lowest)
    x += np.where(lift > 0.0, lift, 1.0 / d).reshape(-1, 1, 1, 1) * eye
    return x


def _path_following(rows: Blocks, b: np.ndarray, shift=None, *, start=None) -> list[SdpSolution]:
    """The interior point of ``solve`` on k programs at once: b (k, m), iterates
    (k, n, D, D), zero on each block's padding, from ``start`` (their
    ``_start`` if None).  ``finish`` ends a program at its iterate and its
    last log row (so ``iterations`` is len(iterate_log) - 1); it leaves the
    active set, and the arrays, at the next compaction.  ``shift``, k trace
    shifts s or None, adds ``solve``'s bound stops and the dual look-ahead.
    The identity and C = 1/d are the blocks' masks; only the factorizations
    see the padding, which ``pad`` makes an identity block and takes out of
    Z^-1 again.
    """
    k, m = b.shape
    shift = np.full(k, math.nan) if shift is None else np.asarray(shift, dtype=float)
    ops, dims = rows
    size = ops.shape[-1]
    eye, pad, entry, placed = _layout(tuple(dims), size, ops.dtype)  # a zero pad added each iteration is not free
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

    a_apply, a_adjoint, schur_of, _ = _contractions(ops)
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

    x = _start(rows, b) if start is None else start  # and y = 0, so Z = 1/d
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
    """Solve  min tr(Y)/d  s.t.  <A_i, Y> = b_i,  Y >= 0  over traceless,
    independent ``Blocks`` rows A_i: the k = 1 call of ``_path_following``.
    It is ``optimal`` once the primal residual and the gap over
    max(1, |tr(Y)/d|) are within ``TOLERANCE``; given the trace shift
    s = (fitted trace)/d as ``shift``, a solve with a passing residual stops
    at ``primal-bound`` once tr(Y)/d - s < -BOUNDARY_BAND or ``dual-bound``
    once b.y - s > BOUNDARY_BAND or at the dual look-ahead point.  Anything
    else is numerical failure with the final residuals in the message.
    """
    shifts = None if shift is None else [shift]
    return _path_following(rows, np.asarray(b, dtype=float)[None], shifts)[0]


def _factored_accepts(program: Phase1Program, trace_values: np.ndarray, b: np.ndarray, start: np.ndarray) -> list:
    """The factored accept stage of a one-block ``phase1_min_t(decide=True)``:
    a ``Phase1Result`` for each of the k programs of (k,) fitted traces and
    (k, r) values b~ over ``program``'s rows that it proves below the band,
    None for the rest; ``start`` is the kernel's ``_start`` of the k programs.

    It looks for a (d, FACTOR_RANK) V with <R_k, V V^dag> = b~_k and
    tr(V V^dag) = (fitted trace) - tau d, tau = ``FACTOR_SHIFT``: where t* <=
    -tau such a V exists, as X + t*·1 >= 0 then leaves X - tau·1 >= 0 and an
    extreme point of that spectrahedron has rank at most 3 (Pataki, Math.
    Oper. Res. 23, 339 (1998)).  V starts at the top eigenpairs of the
    kernel's own ``_start`` and takes minimum-norm Gauss-Newton steps (Burer
    and Monteiro, Math. Program. 95, 329 (2003)): the Jacobian rows are
    2 R_k V and 2 V, and their Gram matrix is (r + 1) x (r + 1).  The rows are
    orthonormal and traceless, so the residual r = (r_R, r_tr) has the exact
    correction dX = sum_k r_k R_k + (r_tr/d)·1, ||dX||_F = sqrt(|r_R|^2 +
    r_tr^2/d), and X = V V^dag + tau·1 - dX meets every value exactly with
    lambda_min(X) >= tau - ||dX||_F.  A program is accepted once ||dX||_F <
    tau - BOUNDARY_BAND: t* <= t_p = ||dX||_F - tau < -BOUNDARY_BAND, a proof
    with no tolerance to trust.  Its result has status primal-bound, Y =
    X + t_p·1 and the dual point y = 0, Z = 1/d, whose t_d = -(fitted trace)/d
    is a valid but weak bound; ``iterations`` counts the steps and the message
    names the path and ||dX||_F.  A program is left to the kernel once it
    stalls (its ||dX||_F no lower than ``FACTOR_STALL`` steps before, the
    start aside), diverges, meets a singular Gram matrix or is still unproved
    after ``FACTOR_STEPS`` steps.  Every product is one per program, so none
    depends on the batch.  Y is stored as V and the residual (``_factored_x``).
    """
    rows = program.rows.stack[:, 0]
    r, d = len(rows), rows.shape[-1]
    tau, band = FACTOR_SHIFT, matcore.BOUNDARY_BAND
    eye = np.eye(d, dtype=rows.dtype)
    both = np.concatenate([rows, eye[None]]).reshape(-1, d)  # the traceless rows, then the trace row
    target = np.concatenate([b, (trace_values - tau * d)[:, None]], axis=1)
    lam, vec = np.linalg.eigh(start[:, 0])
    v = vec[..., -FACTOR_RANK:] * np.sqrt(lam[:, None, -FACTOR_RANK:])
    weight = np.append(np.ones(r), 1.0 / math.sqrt(d))  # ||dX||_F = |weight * residual|
    history = np.full((len(b), FACTOR_STEPS + 1), math.inf)  # ||dX||_F per program and step
    out: list = [None] * len(b)
    live = np.arange(len(b))
    for steps in range(FACTOR_STEPS + 1):
        n = len(live)
        jac = (both @ v).reshape(n, r + 1, -1)  # R_k V, then V, flattened: half the Jacobian rows
        res = (jac @ v.reshape(n, -1, 1).conj())[..., 0].real - target[live]
        err = np.sqrt(((res * weight) ** 2).sum(axis=1))
        history[live, steps] = err
        proved = err < tau - band
        for i in np.flatnonzero(proved).tolist():
            p, e = int(live[i]), float(err[i])
            pobj = float(trace_values[p]) / d + e - tau  # tr(Y)/d: t_p = e - tau
            sol = SdpSolution(
                STATUS_PRIMAL_BOUND, Later(_factored_x, v[i].copy(), res[i].copy(), rows, e), np.zeros(r),
                Later(np.diag, np.full(d, 1.0 / d, dtype=rows.dtype)),
                primal_objective=pobj, dual_objective=0.0, gap=abs(pobj), iterations=steps,
                primal_residual=0.0, dual_residual=0.0, mu=pobj / d, iterate_log=[(pobj, 0.0, pobj / d, 0.0)],
                message=f"{FACTORED}, |dX|_F = {e:.1e}",
            )
            out[p] = _phase1_result(program, float(trace_values[p]), sol)
        # a stall: no lower than FACTOR_STALL steps before, the start step aside
        going = ~proved & (err < _DIVERGENCE)
        if steps > FACTOR_STALL:
            going &= err < history[live, steps - FACTOR_STALL]
        if steps == FACTOR_STEPS or not going.any():
            break
        if not going.all():
            live, v, jac, res = live[going], v[going], jac[going], res[going]
        failed: dict[int, str] = {}  # a singular Gram matrix: the kernel decides that program
        gram = 4.0 * (jac.conj() @ jac.swapaxes(-1, -2)).real
        c = _each(
            lambda g, f: np.linalg.solve(g, f[..., None])[..., 0], (gram, -res), failed,
            lambda g, f: np.linalg.solve(g, f), lambda g, f: np.zeros_like(f),
        )
        v = v + 2.0 * (c[:, None] @ jac).reshape(v.shape)
        if failed:
            kept = np.ones(len(live), dtype=bool)
            kept[list(failed)] = False
            live, v = live[kept], v[kept]
    return out


def _factored_x(v: np.ndarray, res: np.ndarray, rows: np.ndarray, e: float) -> np.ndarray:
    """A factored accept's Y = herm(V V^dag - dX) + ||dX||_F·1, dX = sum_k res_k R_k + (res_tr/d)·1."""
    d = len(v)
    eye = np.eye(d, dtype=rows.dtype)
    dx = np.tensordot(res[:-1], rows, 1) + res[-1] / d * eye
    return _herm(v @ v.conj().T - dx) + e * eye


def _less_identity(sol: SdpSolution, t: float) -> np.ndarray | None:
    """X = Y - t·1 for the primal point Y = ``sol.x``, None without one."""
    return None if sol.x is None else sol.x - t * np.eye(len(sol.x))


@dataclass(frozen=True)
class Phase1Result:
    """Outcome of the min-t feasibility program.

    ``t_star <= 0`` certifies a PSD point ``x`` satisfying the constraints;
    ``t_star > 0`` proves infeasibility.  A numerical failure gives ``t_star``
    nan.  ``x = Y - t_p·1`` for the final primal iterate Y > 0, so
    lambda_min(x) >= -t_p with t_p = tr(Y)/d - (fitted trace)/d.  ``dual_z``
    is the solver's own slack ``solution.z`` = 1/d - sum_k y_k R_k over the
    orthonormal rows R that ``solve`` saw, and the separating hyperplane: PSD,
    unit trace, in the span of the constraints, and it pairs with every X
    meeting them to -t_d, t_d = b~.y - (fitted trace)/d.
    ``dual_coefficients`` c expand it over the caller's rows, ``dual_z = sum_i
    c_i A_i`` and ``c.b = -t_d``, so a witness needs nothing else.

    ``t_star`` is the optimum t_p of an optimal solve, where t_d agrees to
    the gap.  A ``decide`` solve may stop earlier on a certified bound
    instead, named by ``solution.status``: t_p (primal-bound, an upper bound
    below -BOUNDARY_BAND) or t_d (dual-bound, a lower bound above
    BOUNDARY_BAND).  ``x``, ``dual_z`` and ``dual_coefficients`` are None
    unless the solve is optimal or decided, and ``x`` also when no primal
    point is known yet; ``x`` and ``dual_z`` are formed on first read.
    ``factor`` is set where a closed form knows Y as a few rows F, Y = F^T F.
    """

    t_star: float
    x: np.ndarray | None = OnRequest()
    solution: SdpSolution
    dual_coefficients: np.ndarray | None = None
    factor: np.ndarray | None = None

    @property
    def dual_z(self) -> np.ndarray | None:
        return None if self.dual_coefficients is None else self.solution.z


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
    """Run the dependency pass over ``ops``, a tuple of blocks or one (m, d, d)
    stack, once, for any number of ``phase1_min_t`` calls over it; the rows
    must fix tr(X)."""
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
    ``ops`` (as ``phase1_program`` takes them, or their ``Phase1Program``) and
    the m ``values``, or a (k, m) array of values, whose k results come back
    as a list in their order; the rows must fix tr(X).  Conflicting or
    non-finite values, in any program, raise a ``ValueError`` before any
    solve.  With ``decide``, each program stops as soon as a certified bound
    puts t* outside the boundary band (``Phase1Result``), and a one-block
    program meets ``_factored_accepts`` first; the rest go to the kernel in
    input order, from the start the stage began at, and a batch with no rest
    calls no kernel.
    """
    program = ops if isinstance(ops, Phase1Program) else phase1_program(ops)
    values = np.asarray(values, dtype=float)
    trace_values, rhs = _standard_form(program, values)
    rows, d = program.rows, sum(program.rows.sizes)
    step = batch_size(rows.stack.size)  # each (k, r, n, D, D) stack of the kernel
    results: list = [None] * len(rhs)
    starts = []  # the start of each program the factored stage leaves, in input order
    if decide and len(rows.sizes) == 1 and len(rows.stack):  # a trace-only program is the kernel's at once
        for i in range(0, len(rhs), step):
            start = _start(rows, rhs[i : i + step])
            results[i : i + step] = _factored_accepts(program, trace_values[i : i + step], rhs[i : i + step], start)
            starts.append(start[[p1 is None for p1 in results[i : i + step]]])
    left = [i for i, p1 in enumerate(results) if p1 is None]  # in input order
    starts = np.concatenate(starts) if starts else None
    shifts = trace_values / d if decide else np.full(len(rhs), math.nan)
    if values.ndim == 1 and left:
        solutions = [solve(rows, rhs[0], shift=float(shifts[0]) if decide else None)]
    else:
        solutions = [
            sol for i in range(0, len(left), step)
            for sol in _path_following(
                rows, rhs[left[i : i + step]], shifts[left[i : i + step]],
                start=None if starts is None else starts[i : i + step],
            )
        ]
    for i, sol in zip(left, solutions):
        results[i] = _phase1_result(program, float(trace_values[i]), sol)
    return results if values.ndim == 2 else results[0]


def _standard_form(program: Phase1Program, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fitted traces tr X and the values b~ over the orthonormal rows of
    ``program`` for (m,) or (k, m) ``values``, as (k,) and (k, r) arrays.  A
    wrong shape, a non-finite value and values that conflict along a
    dependency are each a ``ValueError``; a batch's conflict names its program."""
    m, d = len(program.traces), sum(program.rows.sizes)
    if values.ndim not in (1, 2) or values.shape[-1] != m:
        raise ValueError(f"expected {m} values, one per operator, got shape {values.shape}")
    matcore._check_finite("phase-1 values", "b", values)
    batch = np.atleast_2d(values)
    trace_values = (batch[:, None] @ program.coeff)[:, 0]  # one product per program: none depends on its batch
    tilde_b = batch - np.outer(trace_values, program.traces) / d
    mismatch = np.linalg.norm(tilde_b @ program.null, axis=1)
    conflict = np.flatnonzero(mismatch > CONFLICT_TOL * (1.0 + np.abs(tilde_b).max(axis=1)))
    if conflict.size:
        where = f" of program {conflict[0]}" if values.ndim == 2 else ""
        raise ValueError(
            f"the values{where} conflict: a linearly dependent operator's value differs "
            f"from the value the others imply ({mismatch[conflict[0]]:.1e})"
        )
    return trace_values, (tilde_b[:, None] @ program.w.T)[:, 0]


def _phase1_result(program: Phase1Program, trace_value: float, sol: SdpSolution, factor=None) -> Phase1Result:
    """A solution of the standard form over ``program``'s rows read as a
    ``Phase1Result``: t* from its objectives, X = Y - t_p·1, and its dual
    expanded over the caller's operators."""
    if sol.status not in (STATUS_OPTIMAL, STATUS_PRIMAL_BOUND, STATUS_DUAL_BOUND):
        return Phase1Result(t_star=math.nan, x=None, solution=sol)
    d = sum(program.rows.sizes)
    t_primal = sol.primal_objective - trace_value / d
    t_star = sol.dual_objective - trace_value / d if sol.status == STATUS_DUAL_BOUND else t_primal
    # 1/d = sum_i (coeff_i / d) A_i and A~_i = A_i - (tr A_i / d) 1 expand sol.z over the rows
    y = program.w.T @ sol.y  # sum_k y_k R_k = sum_i (W^T y)_i A~_i
    c = (1.0 + float(y @ program.traces)) / d * program.coeff - y
    return Phase1Result(t_star, Later(_less_identity, sol, t_primal), sol, c, factor)
