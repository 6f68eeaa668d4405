import numpy as np
import pytest

from spinmoment import feasibility, matcore, reduction, spinalg
from spinmoment.reduction import RenormalizedCoords
from spinmoment.spinalg import MomentMatrix

import symmetric_oracle
from conftest import highest_weight_state, moments_of_pair_state, pair_values, random_density


class TestReductionOperators:
    def test_lam1_z_spectrum_matches_spin_one(self):
        ops = reduction.reduction_operators(2)
        vals = np.sort(matcore.hermitian_eigvals(ops[spinalg.MOMENT_LABELS.index("L3")]))[::-1]
        assert np.allclose(vals, [1.0, 0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("two_j", [2, 3, 5])
    def test_cross_check_against_moment_matrix(self, two_j):
        t = spinalg.spin_operators(two_j)
        m = spinalg.moment_matrix(highest_weight_state(two_j), t)
        omega = symmetric_oracle.embed_spin_state(highest_weight_state(two_j), two_j)
        rho3 = symmetric_oracle.pair_marginal(omega, two_j)
        ops = reduction.reduction_operators(two_j)
        b = spinalg.moment_values(m)
        for op, value in zip(ops, b):
            assert np.trace(op @ rho3) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("two_j", [2, 3, 4, 9])
    def test_casimir_transfers(self, two_j):
        ops = reduction.reduction_operators(two_j)
        j = two_j / 2.0
        total = sum(ops[spinalg.MOMENT_LABELS.index(f"S{k}{k}")] for k in (1, 2, 3))
        assert np.abs(total - j * (j + 1.0) * np.eye(3)).max() < 1e-10

    def test_hermiticity_structure(self):
        ops = reduction.reduction_operators(5)
        assert ops.shape == (len(spinalg.MOMENT_LABELS), 3, 3)
        for op in ops:
            assert np.abs(op - op.conj().T).max() < 1e-12

    def test_rejects_spin_half(self):
        with pytest.raises(ValueError, match="first-moment"):
            reduction.reduction_operators(1)


class TestLinearityConsistency:
    @pytest.mark.parametrize("two_j", [2, 3, 4])
    def test_embedded_moments_match_reduced_pairings(self, two_j):
        rng = np.random.default_rng(two_j * 71)
        t = spinalg.spin_operators(two_j)
        ls = t.as_list()
        for _ in range(200):
            rho_spin = random_density(rng, two_j + 1)
            omega = symmetric_oracle.embed_spin_state(rho_spin, two_j)
            rho3 = symmetric_oracle.pair_marginal(omega, two_j)
            chi = np.tensordot(pair_values(rho3, two_j), spinalg.CHI_PATTERN, axes=1)
            for k, l in ((0, 0), (0, 1), (1, 2), (2, 2)):
                direct = np.trace(ls[k] @ ls[l] @ rho_spin)
                reduced = chi[1 + k, 1 + l]
                assert abs(direct - reduced) < 1e-9


def spin_pair_marginal(rho_spin, two_j):
    """Pair marginal of a spin-j state: the 2^n oracle up to n = 10, beyond it
    the closed-form Dicke adjoints (checked against the oracle up to n = 12)."""
    if two_j <= 10:
        return symmetric_oracle.pair_marginal(symmetric_oracle.embed_spin_state(rho_spin, two_j), two_j)
    basis3 = matcore.hermitian_basis(3)
    ops = feasibility._pair_adjoint(basis3, two_j)
    return np.einsum("r,rab->ab", np.einsum("rab,ba->r", ops, rho_spin).real, basis3)


class TestMomentStacks:
    """chi, rho_j and tau_j as linear stacks over the moment vector b."""

    @pytest.mark.parametrize("two_j", [2, 3, 4, 7, 10, 30])
    def test_stacks_on_random_states(self, two_j):
        rng = np.random.default_rng(two_j * 389)
        t = spinalg.spin_operators(two_j)
        basis = [np.eye(two_j + 1, dtype=complex)] + t.as_list()
        j = two_j / 2.0
        d_inv = np.diag([1.0, 1.0 / j, 1.0 / j, 1.0 / j])
        for _ in range(5):
            rho_spin = random_density(rng, two_j + 1)
            m = spinalg.moment_matrix(rho_spin, t)
            b = spinalg.moment_values(m)
            chi_direct = np.array([[np.trace(x @ y @ rho_spin) for y in basis] for x in basis])
            chi = np.tensordot(b, spinalg.CHI_PATTERN, axes=1)
            assert np.abs(chi - spinalg.chi_matrix(m)).max() == 0.0
            assert np.abs(chi - chi_direct).max() <= 1e-12 * j * j
            rho3 = spin_pair_marginal(rho_spin, two_j)
            rec = np.tensordot(b, reduction._reconstruction_system(two_j), axes=1)
            assert np.abs(rec - reduction.reconstruct_rho(m)).max() == 0.0
            assert np.abs(rec - rho3).max() <= 1e-9
            assert np.abs(pair_values(rho3, two_j) - b).max() <= 1e-10 * j * j
            assert np.abs(reduction.tau(rho3, two_j) - d_inv @ chi_direct @ d_inv).max() <= 1e-10
            pair = random_density(rng, 3)
            chi_k = np.tensordot(pair_values(pair, two_j), spinalg.CHI_PATTERN, axes=1)
            assert np.abs(reduction.tau(pair, two_j) - d_inv @ chi_k @ d_inv).max() <= 1e-12


class TestReconstruct:
    @pytest.mark.parametrize("two_j", [2, 4, 7])
    def test_maximally_mixed(self, two_j):
        t = spinalg.spin_operators(two_j)
        d = two_j + 1
        m = spinalg.moment_matrix(np.eye(d, dtype=complex) / d, t)
        rho = reduction.reconstruct_rho(m)
        coords = reduction.renormalized_coords(m)
        assert np.abs(coords.u).max() < 1e-12
        assert np.allclose(coords.v, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        if two_j == 4:
            omega = symmetric_oracle.embed_spin_state(np.eye(d, dtype=complex) / d, two_j)
            direct = symmetric_oracle.pair_marginal(omega, two_j)
            assert np.abs(rho - direct).max() < 1e-10

    def test_j_independence_of_reconstruction(self):
        states = {}
        for two_j in (2, 4, 8):
            coords = RenormalizedCoords(
                u=np.array([0.1, -0.2, 0.25]), v=np.array([0.5, 0.3, 0.2]), two_j=two_j
            )
            states[two_j] = reduction.reconstruct_rho(reduction.moments_from_coords(coords))
        assert np.abs(states[2] - states[4]).max() < 1e-10
        assert np.abs(states[4] - states[8]).max() < 1e-10

    @pytest.mark.parametrize("two_j", [2, 6])
    def test_highest_weight_reduces_to_11(self, two_j):
        t = spinalg.spin_operators(two_j)
        m = spinalg.moment_matrix(highest_weight_state(two_j), t)
        rho = reduction.reconstruct_rho(m)
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        assert np.abs(rho - expected).max() < 1e-10

    @pytest.mark.parametrize("two_j", [2, 4])
    def test_matches_partial_trace_for_random_symmetric_states(self, two_j):
        rng = np.random.default_rng(two_j * 913)
        t = spinalg.spin_operators(two_j)
        for _ in range(50):
            rho_spin = random_density(rng, two_j + 1)
            m = spinalg.moment_matrix(rho_spin, t)
            rec = reduction.reconstruct_rho(m)
            omega = symmetric_oracle.embed_spin_state(rho_spin, two_j)
            direct = symmetric_oracle.pair_marginal(omega, two_j)
            assert np.abs(rec - direct).max() < 1e-8

    def test_rejects_casimir_violation(self):
        j = 2.0
        m = ((j * (j + 1.0) + 0.1) / 3.0) * np.eye(3)
        with pytest.raises(ValueError, match="Casimir"):
            reduction.reconstruct_rho(MomentMatrix.from_matrix(4, m))

    def test_residual_rejection_on_raw_inconsistency(self):
        # bypass from_matrix validation to exercise the least-squares guard
        mm = MomentMatrix(
            two_j=4,
            matrix=np.diag([2.5, 2.0, 1.6]).astype(complex),
            first_moments=np.zeros(3),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            reduction.reconstruct_rho(mm)


class TestRenormalizedCoords:
    def test_highest_weight(self):
        t = spinalg.spin_operators(5)
        m = spinalg.moment_matrix(highest_weight_state(5), t)
        c = reduction.renormalized_coords(m)
        assert np.allclose(c.u, [0, 0, 1], atol=1e-12)
        assert np.allclose(c.v, [0, 0, 1], atol=1e-12)

    def test_round_trip(self, rng):
        for two_j in (2, 3, 8):
            t = spinalg.spin_operators(two_j)
            m = spinalg.moment_matrix(random_density(rng, two_j + 1), t)
            c = reduction.renormalized_coords(m)
            assert c.v.sum() == pytest.approx(1.0, abs=1e-9)
            re_off = (
                m.matrix[0, 1].real,
                m.matrix[0, 2].real,
                m.matrix[1, 2].real,
            )
            m2 = reduction.moments_from_coords(c, offdiag_re=re_off)
            assert np.abs(m2.matrix - m.matrix).max() < 1e-10

    def test_coords_round_trip_without_offdiagonals(self):
        c = RenormalizedCoords(u=np.array([0.2, 0.1, -0.3]), v=np.array([0.4, 0.35, 0.25]), two_j=6)
        m = reduction.moments_from_coords(c)
        c2 = reduction.renormalized_coords(m)
        assert np.abs(c2.u - c.u).max() < 1e-12
        assert np.abs(c2.v - c.v).max() < 1e-12

    def test_rejects_bad_v_sum(self):
        c = RenormalizedCoords(u=np.zeros(3), v=np.array([0.3, 0.3, 0.3]), two_j=4)
        with pytest.raises(ValueError, match="Casimir"):
            reduction.moments_from_coords(c)

    def test_rejects_spin_half(self):
        t = spinalg.spin_operators(1)
        m = spinalg.moment_matrix(np.eye(2, dtype=complex) / 2.0, t)
        with pytest.raises(ValueError, match="first-moment"):
            reduction.renormalized_coords(m)


class TestTau:
    @pytest.mark.parametrize("two_j", [2, 4, 12])
    def test_highest_weight_boundary(self, two_j):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        t = reduction.tau(rho, two_j)
        # the z-direction 2x2 minor sits exactly on v - u^2 + (1-v)/(2j) = 0
        minor = t[0, 0].real * t[3, 3].real - abs(t[0, 3]) ** 2
        assert minor == pytest.approx(0.0, abs=1e-12)
        assert matcore.min_eigenvalue(t) > -1e-10

    def test_maximally_mixed_psd_at_j5(self):
        t = reduction.tau(np.eye(3, dtype=complex) / 3.0, 10)
        assert matcore.is_psd(t, tol=1e-10)

    def test_symmetric_bell_rejected_at_large_j(self):
        bell = np.zeros((3, 3), dtype=complex)
        bell[0, 0] = bell[2, 2] = bell[0, 2] = bell[2, 0] = 0.5
        t = reduction.tau(bell, 1000)
        assert matcore.min_eigenvalue(t) < -1e-4

    def test_entries_reproduce_renormalized_coordinates(self, rng):
        two_j = 6
        j = 3.0
        coords = RenormalizedCoords(
            u=np.array([0.15, -0.1, 0.3]), v=np.array([0.45, 0.2, 0.35]), two_j=two_j
        )
        m = reduction.moments_from_coords(coords)
        rho = reduction.reconstruct_rho(m)
        t = reduction.tau(rho, two_j)
        assert np.allclose(np.real(t[0, 1:]), coords.u, atol=1e-10)
        assert np.abs(t[1:, 1:] - m.matrix / (j * j)).max() < 1e-10

    def test_monotone_minors_sampled(self):
        rng = np.random.default_rng(40)
        high, low = 10, 4
        for _ in range(500):
            rho = random_density(rng, 3)
            if matcore.is_psd(reduction.tau(rho, high), tol=1e-8):
                assert matcore.is_psd(reduction.tau(rho, low), tol=1e-8)

    def test_direction_sweep_inequality(self):
        rng = np.random.default_rng(41)
        two_j = 8
        j = 4.0
        kept = 0
        while kept < 20:
            rho = random_density(rng, 3)
            if not matcore.is_psd(reduction.tau(rho, two_j), tol=1e-9):
                continue
            kept += 1
            m = moments_of_pair_state(rho, two_j)
            for _ in range(50):
                n = rng.standard_normal(3)
                n /= np.linalg.norm(n)
                m_nn = float(n @ m.matrix.real @ n)
                u_n = float(n @ m.first_moments) / j
                v_n = m_nn / (j * (j - 0.5)) - 1.0 / (two_j - 1.0)
                assert v_n - u_n**2 + (1.0 - v_n) / two_j >= -1e-8


class TestPptInnerTest:
    def test_product_state_is_ppt(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        assert reduction.ppt_inner_test(rho)

    def test_symmetric_bell_fails_with_half_eigenvalue(self):
        bell = np.zeros((3, 3), dtype=complex)
        bell[0, 0] = bell[2, 2] = bell[0, 2] = bell[2, 0] = 0.5
        assert not reduction.ppt_inner_test(bell)
        v2 = symmetric_oracle.symmetric_isometry(2)
        gamma = matcore.partial_transpose_b(v2 @ bell @ v2.conj().T)
        vals, _ = matcore.hermitian_eig(gamma)
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed_symmetric_is_ppt(self):
        rho = np.eye(3, dtype=complex) / 3.0
        assert reduction.ppt_inner_test(rho)
        v2 = symmetric_oracle.symmetric_isometry(2)
        gamma = matcore.partial_transpose_b(v2 @ rho @ v2.conj().T)
        assert matcore.min_eigenvalue(gamma) > 1e-3

    def test_shared_partial_transpose_matches_oracle_embedding(self, rng):
        v2 = symmetric_oracle.symmetric_isometry(2)
        for _ in range(5):
            rho = random_density(rng, 3)
            expected = matcore.partial_transpose_b(v2 @ rho @ v2.conj().T)
            assert np.abs(reduction._partial_transpose(rho) - expected).max() < 1e-15

    def test_non_psd_input_fails(self):
        rho = np.diag([0.7, 0.5, -0.2]).astype(complex)
        assert not reduction.ppt_inner_test(rho)
