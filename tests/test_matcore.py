import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmoment import matcore

import symmetric_oracle
from conftest import random_density, random_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


class TestHermitianEig:
    def test_diagonal_input(self):
        vals, _ = matcore.hermitian_eig(np.diag([0.5, -0.5]).astype(complex))
        assert np.allclose(vals, [-0.5, 0.5], atol=1e-14)

    def test_pauli_x_spectrum(self):
        vals, _ = matcore.hermitian_eig(SIGMA_X)
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_3x3(self, rng):
        h = random_hermitian(rng, 3)
        vals, vecs = matcore.hermitian_eig(h)
        assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h).max() < 1e-10

    @pytest.mark.parametrize("dim", [2, 5, 8, 16, 33, 64])
    def test_reconstruction_residual_bound(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim, scale=3.0)
        vals, vecs = matcore.hermitian_eig(h)
        bound = 1e-10 * (1.0 + np.abs(vals).max())
        assert np.abs(vecs @ np.diag(vals) @ vecs.conj().T - h).max() < bound
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() < 1e-12
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_non_hermitian(self, rng):
        bad = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="not Hermitian"):
            matcore.hermitian_eig(bad)

    def test_repeated_calls_are_bit_identical(self):
        h = random_hermitian(np.random.default_rng(63), 63)
        vals_a, vecs_a = matcore.hermitian_eig(h)
        vals_b, vecs_b = matcore.hermitian_eig(h)
        assert vals_a.tobytes() == vals_b.tobytes()
        assert vecs_a.tobytes() == vecs_b.tobytes()

    def test_agrees_with_eigvals_only_path(self, rng):
        h = random_hermitian(rng, 6)
        vals, _ = matcore.hermitian_eig(h)
        assert np.allclose(vals, matcore.hermitian_eigvals(h), atol=1e-12)


class TestPsd:
    def test_identity(self):
        assert matcore.min_eigenvalue(np.eye(3, dtype=complex)) == pytest.approx(1.0)
        assert matcore.is_psd(np.eye(3, dtype=complex))

    def test_tolerance_semantics(self):
        assert matcore.PSD_TOL == 1e-8
        assert not matcore.is_psd(np.diag([1.0, -1e-6]).astype(complex))
        assert matcore.is_psd(np.diag([1.0, -1e-9]).astype(complex))


def _hermitian_stack(rng, n, spectra):
    """U diag(lambda) U^dag for each row of ``spectra`` and a random unitary U."""
    g = rng.standard_normal((len(spectra), n, n)) + 1j * rng.standard_normal((len(spectra), n, n))
    u, _ = np.linalg.qr(g)
    h = u @ (spectra[:, :, None] * u.conj().transpose(0, 2, 1))
    return (h + h.conj().transpose(0, 2, 1)) / 2.0


class TestPsdMask:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_eigenvalue_test(self, n, seed):
        rng = np.random.default_rng(seed)
        tol = matcore.PSD_TOL
        general = rng.uniform(-1.0, 1.0, (8, n))
        singular = rng.uniform(0.0, 1.0, (4, n))
        singular[:, rng.integers(n)] = 0.0
        inside = rng.uniform(0.1, 1.0, (4, n))
        inside[:, 0] = -tol * (1.0 - 1e-3)
        outside = rng.uniform(0.1, 1.0, (4, n))
        outside[:, 0] = -tol * (1.0 + 1e-3)
        spectra = np.concatenate([general, singular, inside, outside])
        stack = _hermitian_stack(rng, n, spectra).reshape(4, 5, n, n)
        before = stack.copy()
        mask = matcore.psd_mask(stack)
        assert np.array_equal(stack, before)
        assert mask.shape == (4, 5)
        assert np.array_equal(mask, np.linalg.eigvalsh(stack)[..., 0] >= -tol)
        assert np.array_equal(mask.reshape(-1)[-8:], [True] * 4 + [False] * 4)
        assert mask.reshape(-1)[8:12].all()

    def test_empty_and_indefinite_pivots(self):
        # a zero or negative leading pivot marks only its own matrix
        stack = np.array([np.diag([-1.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]], np.eye(2)], dtype=complex)
        assert matcore.psd_mask(stack).tolist() == [False, False, True]
        assert matcore.psd_mask(np.zeros((0, 3, 3))).shape == (0,)


class TestKron:
    def test_identities(self):
        eye2 = np.eye(2, dtype=complex)
        assert np.array_equal(matcore.kron(eye2, eye2), np.eye(4))
        assert np.allclose(matcore.kron(SIGMA_Z, eye2), np.diag([1, 1, -1, -1]))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_mixed_product(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c, d = (random_hermitian(rng, 2) for _ in range(4))
        left = matcore.kron(a, b) @ matcore.kron(c, d)
        assert np.abs(left - matcore.kron(a @ c, b @ d)).max() < 1e-12


class TestPartialTranspose:
    def test_bell_spectrum(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        gamma = matcore.partial_transpose_b(np.outer(psi, psi.conj()))
        vals, _ = matcore.hermitian_eig(gamma)
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_operators(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert np.abs(
            matcore.partial_transpose_b(matcore.kron(a, b)) - matcore.kron(a, b.T)
        ).max() < 1e-14

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_involution_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pt = matcore.partial_transpose_b(x)
        assert np.array_equal(matcore.partial_transpose_b(pt), x)
        assert np.trace(pt) == pytest.approx(np.trace(x))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            matcore.partial_transpose_b(np.eye(9))


class TestPartialTrace:
    """The test oracle's partial trace (tests/symmetric_oracle.py)."""

    def test_product_states(self, rng):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        full = matcore.kron(rho, sigma)
        assert np.abs(symmetric_oracle.partial_trace(full, (2, 3), "A") - rho).max() < 1e-12
        assert np.abs(symmetric_oracle.partial_trace(full, (2, 3), "B") - sigma).max() < 1e-12

    def test_bell_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert np.abs(symmetric_oracle.partial_trace(rho, (2, 2), 1) - np.eye(2) / 2).max() < 1e-14

    def test_iterated_matches_grouped(self, rng):
        x = random_density(rng, 8)
        grouped = symmetric_oracle.partial_trace(x, (2, 4), "A")
        step1 = symmetric_oracle.partial_trace(x, (4, 2), "A")
        step2 = symmetric_oracle.partial_trace(step1, (2, 2), "A")
        assert np.abs(grouped - step2).max() < 1e-12

    def test_trace_preserved(self, rng):
        x = random_hermitian(rng, 6)
        assert np.trace(symmetric_oracle.partial_trace(x, (2, 3), 0)) == pytest.approx(
            np.trace(x).real
        )

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="does not match"):
            symmetric_oracle.partial_trace(np.eye(6), (2, 2), 0)


def _qubit_swap_permutation(n, i, j):
    perm = np.zeros(1 << n, dtype=int)
    for idx in range(1 << n):
        bits = [(idx >> k) & 1 for k in range(n)]
        bits[i], bits[j] = bits[j], bits[i]
        perm[idx] = sum(b << k for k, b in enumerate(bits))
    return perm


class TestSymmetricIsometry:
    """The test oracle's n-qubit symmetric isometry (tests/symmetric_oracle.py)."""

    def test_single_qubit_identity(self):
        assert np.array_equal(symmetric_oracle.symmetric_isometry(1), np.eye(2))

    def test_two_qubit_columns(self):
        v = symmetric_oracle.symmetric_isometry(2)
        s = 1.0 / np.sqrt(2.0)
        expected = np.array(
            [[1, 0, 0], [0, s, 0], [0, s, 0], [0, 0, 1]], dtype=complex
        )
        assert np.abs(v - expected).max() < 1e-15

    def test_four_qubits_orthonormal_and_swap_invariant(self):
        v = symmetric_oracle.symmetric_isometry(4)
        assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12
        for i, j in [(0, 1), (1, 3), (0, 3)]:
            perm = _qubit_swap_permutation(4, i, j)
            assert np.abs(v[perm, :] - v).max() < 1e-15

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orthonormal_up_to_ten(self, n):
        v = symmetric_oracle.symmetric_isometry(n)
        assert np.abs(v.conj().T @ v - np.eye(n + 1)).max() < 1e-12
        if n >= 2:
            perm = _qubit_swap_permutation(n, 0, n - 1)
            assert np.abs(v[perm, :] - v).max() < 1e-15


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_identity_first(self, d):
        basis = matcore.hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.array(
            [[matcore.hs_inner(a, b) for b in basis] for a in basis]
        )
        assert np.abs(gram - np.eye(d * d)).max() < 1e-12
        assert np.abs(basis[0] - np.eye(d) / np.sqrt(d)).max() < 1e-15
        for mat in basis[1:]:
            assert abs(np.trace(mat)) < 1e-12


class TestHermitize:
    def test_symmetrizes_noise(self, rng):
        h = random_hermitian(rng, 4)
        noisy = h + 1e-14 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        out = matcore.hermitize(noisy)
        assert np.abs(out - out.conj().T).max() == 0.0
        assert np.all(np.diag(out).imag == 0.0)

    def test_rejects_gross_violation(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            matcore.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
