"""The outer set T_j: the package's test, and the paper's matrix as its reference."""

import numpy as np

from spinmoment import matcore, spinalg

from conftest import pair_values


def outer_test(m) -> bool:
    """Necessary condition: chi must be PSD (to ``matcore.PSD_TOL``).

    False certifies that the moments are not quantum for this spin number.
    This is ``classify``'s chi stage and the T flag of ``scan_grid``.
    """
    return matcore.is_psd(spinalg.chi_matrix(m))


def tau_of_values(b, two_j) -> np.ndarray:
    """The paper's reduced expectation value matrix tau_j = D^-1 chi(b) D^-1,
    D = diag(1, j, j, j), of a moment vector b over ``spinalg.MOMENT_LABELS``."""
    j = two_j / 2.0
    d_inv = np.array([1.0, 1.0 / j, 1.0 / j, 1.0 / j])
    return np.tensordot(b, spinalg.CHI_PATTERN, axes=1) * np.outer(d_inv, d_inv)


def tau_of_pair(rho3, two_j) -> np.ndarray:
    """tau_j of the moment vector b_i = tr(K_i rho3) a symmetric two-qubit
    operator carries, K = ``reduction.reduction_operators``."""
    return tau_of_values(pair_values(rho3, two_j), two_j)
