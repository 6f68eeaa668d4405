import numpy as np
import pytest

from spinmoment import reduction, spinalg


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_so3(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def first_moment_part(ell):
    """i A(l) with A_kl = eps_klm l_m / 2: the imaginary part of M that carries
    the first moments, read off the L rows of ``spinalg.CHI_PATTERN``."""
    return np.tensordot(np.asarray(ell, dtype=float), spinalg.CHI_PATTERN[7:, 1:, 1:], 1)


def moments_of_pair_state(rho3, two_j):
    """Moment matrix prescribed by a symmetric two-qubit state at spin j."""
    b = pair_values(rho3, two_j)
    return spinalg.MomentMatrix.from_matrix(two_j, np.tensordot(b, spinalg.CHI_PATTERN, axes=1)[1:, 1:])


def pair_values(rho3, two_j):
    """The moment vector b_i = tr(K_i rho3) a symmetric two-qubit operator carries."""
    return np.einsum("iab,ba->i", reduction.reduction_operators(two_j), rho3).real


def moment_operators(two_j):
    """The dense (10, 2j+1, 2j+1) stack over ``spinalg.MOMENT_LABELS`` at any 2j:
    the oracle for witnesses that never build it, above the SDP cap too."""
    ls = spinalg.spin_operators(two_j).as_list()
    products = [(ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0 for k, l in zip(*spinalg._UPPER)]
    return np.stack([np.eye(two_j + 1, dtype=complex), *products, *ls])


def highest_weight_state(two_j):
    d = two_j + 1
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def random_coords(rng, two_j, u_radius=0.9, v_spread=0.55):
    """Random renormalized coordinates with sum(v) = 1, mixing both verdicts."""
    u = rng.standard_normal(3)
    u *= rng.uniform(0.0, u_radius) / np.linalg.norm(u)
    v12 = rng.uniform(-0.25, 1.05, size=2) * v_spread + (1 - v_spread) / 3.0
    v = np.array([v12[0], v12[1], 1.0 - v12[0] - v12[1]])
    return reduction.RenormalizedCoords(u=u, v=v, two_j=two_j)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
