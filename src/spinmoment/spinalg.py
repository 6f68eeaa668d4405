"""Spin operators for arbitrary j, their algebra checks, and moment matrices.

Conventions: L3 is diagonal with eigenvalues j, j-1, ..., -j (basis index 0 is
the highest-weight vector), and L1, L2 come from ladder operators with
<m+1|L+|m> = sqrt(j(j+1) - m(m+1)).  Spin numbers travel as the integer
``two_j`` to keep half-integer j exact.

The one moment format is the vector b of ``moment_values``: the expectation
values of the ten operators named by ``MOMENT_LABELS`` (the identity, the
symmetrized products S_kl = (L_k L_l + L_l L_k)/2 for k <= l, and L1, L2, L3).
A ``MomentMatrix`` forms b once, at construction, and keeps it read-only.
Every stage matrix and every lift is one product with a flat stack
(``matcore.combine``); chi is sum_i b_i CHI_PATTERN[i].  Input is validated
in ``MomentMatrix.from_matrix`` only: what the stages build from b is
Hermitian by construction and goes to the eigensolver unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore

# Levi-Civita cycles (k, l, m) with eps_klm = +1, zero-based.
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

MOMENT_LABELS = ("I", "S11", "S12", "S13", "S22", "S23", "S33", "L1", "L2", "L3")
_UPPER = np.triu_indices(3)  # (k, l) of S11, S12, S13, S22, S23, S33
_CYCLIC = (np.array([1, 2, 0]), np.array([2, 0, 1]))  # (k, l) of l_m = 2 Im(M_kl), m = 0, 1, 2


def _chi_pattern() -> np.ndarray:
    """C_i with chi = sum_i b_i C_i over the basis {1, L1, L2, L3}.

    S_kl fills entries (k, l) and (l, k) of the lower block; L_m fills row and
    column 0 and, since L_k L_l = S_kl + (i/2) eps_klm L_m, the imaginary
    parts +-1/2 at (k, l) and (l, k) for cyclic (k, l, m).
    """
    c = np.zeros((len(MOMENT_LABELS), 4, 4), dtype=complex)
    c[0, 0, 0] = 1.0
    for i, (k, l) in enumerate(zip(*_UPPER), start=1):
        c[i, 1 + k, 1 + l] = c[i, 1 + l, 1 + k] = 1.0
    for k, l, m in _CYCLES:
        c[7 + m, 0, 1 + m] = c[7 + m, 1 + m, 0] = 1.0
        c[7 + m, 1 + k, 1 + l] = 0.5j
        c[7 + m, 1 + l, 1 + k] = -0.5j
    return c


CHI_PATTERN = _chi_pattern()


def _check_two_j(two_j: int) -> int:
    two_j = int(two_j)
    if two_j < 1:
        raise ValueError(f"two_j must be a positive integer, got {two_j}")
    return two_j


@dataclass(frozen=True)
class SpinOperatorTriple:
    """The three spin matrices L1, L2, L3 for total spin j = two_j / 2."""

    two_j: int
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def as_list(self) -> list[np.ndarray]:
        return [self.l1, self.l2, self.l3]


@dataclass(frozen=True)
class AlgebraReport:
    """Max-norm residuals of the commutation relations and the Casimir identity."""

    commutator_residual: float
    casimir_residual: float


@dataclass(frozen=True)
class MomentMatrix:
    """Second moments M_kl = tr(L_k L_l rho) plus the derived first moments.

    ``matrix`` is Hermitian with real diagonal; tr Re(M) = j(j+1) by the
    Casimir identity, and Im(M_kl) = eps_klm * l_m / 2 encodes the first
    moments; ``values`` is their read-only moment vector b.  ``from_matrix``
    validates raw input: finite, Hermitian and the Casimir, relative to
    max(1, max_kl |M_kl|).
    """

    two_j: int
    matrix: np.ndarray
    first_moments: np.ndarray = field(repr=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        b = np.concatenate(([1.0], self.matrix.real[_UPPER], self.first_moments))
        b.flags.writeable = False
        object.__setattr__(self, "values", b)

    @classmethod
    def from_matrix(cls, two_j: int, matrix: np.ndarray) -> "MomentMatrix":
        two_j = _check_two_j(two_j)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"moment matrix must be 3x3, got {m.shape}")
        matcore._check_finite("moment matrix", "M", m)
        with matcore._no_overflow("moment matrix"):
            tol = matcore.CASIMIR_TOL * max(1.0, float(np.abs(m).max()))
            m = matcore.hermitize(m, tol=tol)
            casimir, target = float(m.real.trace()), two_j * (two_j + 2) / 4.0  # j(j+1)
            if abs(casimir - target) > tol:
                raise ValueError(
                    f"Casimir violated: tr Re(M) - j(j+1) = {casimir - target:.3e} "
                    f"exceeds the tolerance {tol:.1e} (j(j+1) = {target:.9g})"
                )
        return cls(two_j=two_j, matrix=m, first_moments=2.0 * m.imag[_CYCLIC])


def spin_operators(two_j: int) -> SpinOperatorTriple:
    """Build the spin-j operator triple from the ladder construction."""
    two_j = _check_two_j(two_j)
    j = two_j / 2.0
    d = two_j + 1
    m = j - np.arange(d)
    lp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        # raises |j, m_a> to |j, m_a + 1>, which sits at row a - 1
        lp[a - 1, a] = math.sqrt(j * (j + 1.0) - m[a] * (m[a] + 1.0))
    lm = lp.conj().T
    l1 = (lp + lm) / 2.0
    l2 = (lp - lm) / 2j
    l3 = np.diag(m.astype(complex))
    return SpinOperatorTriple(two_j=two_j, l1=l1, l2=l2, l3=l3)


def coherent_state(direction: np.ndarray, two_j: int) -> np.ndarray:
    """The spin coherent state along a nonzero 3-vector: the top eigenvector of
    n^.L, in closed form (Radcliffe, J. Phys. A 4, 313 (1971)).

    With n^ at polar angle theta and azimuth phi, amplitude k (m = j - k) is
    sqrt(C(2j, k)) cos(theta/2)^(2j-k) (e^{i phi} sin(theta/2))^k in the phase
    convention of ``spin_operators``.  Magnitudes come from log-gamma weights,
    so no binomial or power overflows or underflows at large j; the half-angle
    cosine and sine are read off n^ without cancellation near either pole.
    """
    n = _check_two_j(two_j)
    x, y, z = np.asarray(direction, dtype=float) / float(np.linalg.norm(direction))
    rho = math.hypot(x, y)  # sin(theta) = 2 cos(theta/2) sin(theta/2)
    if z >= 0.0:
        cos_half = math.sqrt((1.0 + z) / 2.0)
        sin_half = rho / (2.0 * cos_half)
    else:
        sin_half = math.sqrt((1.0 - z) / 2.0)
        cos_half = rho / (2.0 * sin_half)
    k = np.arange(n + 1)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in k])
    log_binom = log_factorial[n] - log_factorial - log_factorial[::-1]
    # log 0 = -inf; 0 * -inf arises only where the power is 0, which np.where skips
    with np.errstate(divide="ignore", invalid="ignore"):
        log_amp = 0.5 * log_binom + np.where(k < n, (n - k) * np.log(cos_half), 0.0)
        log_amp += np.where(k > 0, k * np.log(sin_half), 0.0)
    state = np.exp(log_amp) * np.exp(1j * math.atan2(y, x) * k)
    return state / np.linalg.norm(state)


def validate_algebra(triple: SpinOperatorTriple) -> AlgebraReport:
    """Residuals of [L_k, L_l] = i eps_klm L_m and sum_k L_k^2 = j(j+1) I."""
    ls = triple.as_list()
    comm = 0.0
    for k, l, m in _CYCLES:
        resid = ls[k] @ ls[l] - ls[l] @ ls[k] - 1j * ls[m]
        comm = max(comm, float(np.abs(resid).max()))
    j = triple.j
    casimir = ls[0] @ ls[0] + ls[1] @ ls[1] + ls[2] @ ls[2]
    casimir -= j * (j + 1.0) * np.eye(triple.dim)
    return AlgebraReport(
        commutator_residual=comm,
        casimir_residual=float(np.abs(casimir).max()),
    )


def extract_first_moments(m: np.ndarray) -> np.ndarray:
    """First moments from the antisymmetric imaginary part of a 3x3 matrix.

    Requires Im(M) antisymmetric within ``matcore.CASIMIR_TOL`` relative to
    max(1, max_kl |M_kl|); l_m = Im(M_kl) - Im(M_lk) for cyclic (k, l, m).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {m.shape}")
    tol = matcore.CASIMIR_TOL * max(1.0, float(np.abs(m).max()))
    im = m.imag
    for k in range(3):
        if abs(im[k, k]) > tol:
            raise ValueError(f"diagonal entry ({k},{k}) has imaginary part {im[k, k]:.3e}")
    for k, l, _ in _CYCLES:
        if abs(im[k, l] + im[l, k]) > tol:
            raise ValueError(
                f"imaginary parts of entries ({k},{l})/({l},{k}) are inconsistent: "
                f"{im[k, l]:.3e} vs {im[l, k]:.3e}"
            )
    return im[_CYCLIC] - im[_CYCLIC[::-1]]


def moment_matrix(rho: np.ndarray, triple: SpinOperatorTriple) -> MomentMatrix:
    """Moment matrix M_kl = tr(L_k L_l rho) of a density operator."""
    rho = matcore.hermitize(rho)
    d = triple.dim
    if rho.shape != (d, d):
        raise ValueError(f"state dimension {rho.shape} does not match 2j+1 = {d}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > matcore.TRACE_TOL:
        raise ValueError(f"state trace is {tr:.12g}, not 1")
    if not matcore.is_psd(rho):
        raise ValueError("state is not positive semidefinite")
    ls = triple.as_list()
    m = np.empty((3, 3), dtype=complex)
    for k in range(3):
        for l in range(k, 3):
            m[k, l] = np.trace(ls[k] @ ls[l] @ rho)
            if l > k:
                m[l, k] = np.conj(m[k, l])
    return MomentMatrix.from_matrix(triple.two_j, m)


def moment_values(m: MomentMatrix) -> np.ndarray:
    """The moment vector b over ``MOMENT_LABELS``: 1, Re(M_kl) for k <= l, l_m (read-only)."""
    return m.values


def chi_matrix(m: MomentMatrix) -> np.ndarray:
    """4x4 expectation value matrix over the basis {1, L1, L2, L3}.

    Entry (0,0) is the normalization, row/column 0 carry the first moments and
    the lower-right block is M.  PSD for every moment matrix of a true state.
    """
    return matcore.combine(m.values, CHI_PATTERN)
