import numpy as np
import pytest

from spinmoment import matcore, reduction, sdp, spinalg


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


def casimir_vector(two_j):
    """r over ``spinalg.MOMENT_LABELS`` with sum_i r_i A_i = S11 + S22 + S33 - j(j+1) 1 = 0."""
    j = two_j / 2.0
    return np.array([-j * (j + 1.0), 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def canonical(c, two_j):
    """Witness coefficients projected off the Casimir vector, as every witness over
    the ten moment operators reports them: the same Z, as sum_i r_i A_i = 0."""
    r = casimir_vector(two_j)
    return c - (c @ r) / (r @ r) * r


def build_fixed_state(ell, two_j):
    """The trace-1 operator with the prescribed first moments and no open part.

    PSD exactly when |l| <= (j+1)/3; beyond that the orthogonal open part is
    needed to compensate, even though the moments may still be quantum.
    """
    two_j = spinalg._check_two_j(two_j)
    triple = spinalg.spin_operators(two_j)
    ell = np.asarray(ell, dtype=float)
    d = triple.dim
    state = np.eye(d, dtype=complex) / d
    for lk, comp in zip(triple.as_list(), ell):
        state += (comp / matcore.hs_inner(lk, lk)) * lk
    return state


def renormalized_coords(m):
    """Renormalized coordinates of a moment matrix (needs j >= 1): the inverse
    of ``reduction.moments_from_coords`` on its diagonal."""
    two_j = reduction._require_j_ge_1(m.two_j)
    j = two_j / 2.0
    u = m.first_moments / j
    diag = np.real(np.diag(m.matrix))
    v = diag / (j * (j - 0.5)) - 1.0 / (two_j - 1.0)
    return reduction.RenormalizedCoords(u=u, v=v, two_j=two_j)


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


def kernel_only(patch):
    """Leave every phase-1 program to the interior point kernel: no program is
    accepted by the factored stage of ``sdp.phase1_min_t(decide=True)``."""
    patch.setattr(sdp, "_factored_accepts", lambda program, traces, b: [None] * len(b))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
