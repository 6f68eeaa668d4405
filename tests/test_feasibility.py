import numpy as np
import pytest

from spinmoment import feasibility, matcore, reduction, spinalg
from spinmoment.feasibility import (
    STATUS_BOUNDARY,
    STATUS_NON_QUANTUM,
    STATUS_QUANTUM,
)
from spinmoment.reduction import RenormalizedCoords
from spinmoment.spinalg import MomentMatrix

from conftest import (
    highest_weight_state,
    moments_of_pair_state,
    random_coords,
    random_density,
    random_so3,
)


def coords_matrix(u, v, two_j):
    return reduction.moments_from_coords(
        RenormalizedCoords(u=np.asarray(u, float), v=np.asarray(v, float), two_j=two_j)
    )


class TestFirstMomentTest:
    def test_full_polarization_is_boundary_with_certificate(self):
        two_j = 4
        v = feasibility.first_moment_test(np.array([0.0, 0.0, 2.0]), two_j)
        assert v.status == STATUS_BOUNDARY
        state = v.certificate_state
        triple = spinalg.spin_operators(two_j)
        assert np.trace(triple.l3 @ state).real == pytest.approx(2.0, abs=1e-10)
        # boundary first moments force the highest-weight state along z
        assert np.abs(state - highest_weight_state(two_j)).max() < 1e-10

    def test_zero_moments_certificate_is_maximally_mixed(self):
        v = feasibility.first_moment_test(np.zeros(3), 5)
        assert v.status == STATUS_QUANTUM
        assert np.abs(v.certificate_state - np.eye(6) / 6.0).max() < 1e-12

    def test_slightly_too_long_rejected(self):
        v = feasibility.first_moment_test(np.array([0.0, 0.0, 2.0 * 1.001]), 4)
        assert v.status == STATUS_NON_QUANTUM

    def test_tilted_direction_certificate_moments(self, rng):
        two_j = 5
        ell = np.array([0.9, -0.4, 0.7])
        v = feasibility.first_moment_test(ell, two_j)
        assert v.status == STATUS_QUANTUM
        triple = spinalg.spin_operators(two_j)
        for lk, target in zip(triple.as_list(), ell):
            assert np.trace(lk @ v.certificate_state).real == pytest.approx(
                target, abs=1e-9
            )


class TestBuildFixedState:
    def test_zero_moments(self):
        state = feasibility.build_fixed_state(np.zeros(3), 4)
        assert np.abs(state - np.eye(5) / 5.0).max() < 1e-14

    def test_first_moments_reproduced(self, rng):
        two_j = 7
        ell = rng.standard_normal(3)
        state = feasibility.build_fixed_state(ell, two_j)
        triple = spinalg.spin_operators(two_j)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)
        for lk, target in zip(triple.as_list(), ell):
            assert np.trace(lk @ state).real == pytest.approx(target, abs=1e-10)

    def test_boundary_of_positivity_at_j2(self):
        # PSD threshold sits at |l| = (j+1)/3 = 1 for j = 2
        state = feasibility.build_fixed_state(np.array([0.0, 0.0, 1.0]), 4)
        assert matcore.min_eigenvalue(state) == pytest.approx(0.0, abs=1e-9)

    def test_open_part_needed_beyond_threshold(self):
        state = feasibility.build_fixed_state(np.array([0.0, 0.0, 1.5]), 4)
        assert matcore.min_eigenvalue(state) < -1e-3
        assert feasibility.first_moment_test(np.array([0.0, 0.0, 1.5]), 4).status == STATUS_QUANTUM


class TestExactTestDirect:
    def test_maximally_mixed_quantum(self):
        triple = spinalg.spin_operators(10)
        m = spinalg.moment_matrix(np.eye(11, dtype=complex) / 11.0, triple)
        v = feasibility.exact_test_direct(m)
        assert v.status == STATUS_QUANTUM
        assert v.t_star < -1e-3

    def test_highest_weight_boundary_with_certificate(self):
        triple = spinalg.spin_operators(6)
        m = spinalg.moment_matrix(highest_weight_state(6), triple)
        v = feasibility.exact_test_direct(m)
        assert abs(v.t_star) <= 1e-7
        assert v.accepted
        state = v.certificate_state
        for k, lk in enumerate(triple.as_list()):
            assert np.trace(lk @ state).real == pytest.approx(
                m.first_moments[k], abs=1e-7
            )

    def test_concentrated_v_is_extremal_but_feasible(self):
        # u = 0, v = (1, 0, 0) at j = 2: an equal mixture of the +-j
        # eigenstates of L1 reproduces these moments exactly, so the point is
        # quantum and sits on the boundary of the moment body.
        m = coords_matrix([0, 0, 0], [1, 0, 0], 4)
        triple = spinalg.spin_operators(4)
        vals, vecs = matcore.hermitian_eig(triple.l1)
        mix = 0.5 * np.outer(vecs[:, 0], vecs[:, 0].conj())
        mix += 0.5 * np.outer(vecs[:, -1], vecs[:, -1].conj())
        oracle = spinalg.moment_matrix(mix, triple)
        assert np.abs(oracle.matrix - m.matrix).max() < 1e-12
        v = feasibility.exact_test_direct(m)
        assert v.accepted
        assert abs(v.t_star) <= 1e-7

    def test_overconcentrated_v_rejected(self):
        # v1 > 1 forces <L1^2> above j^2, which no state attains
        m = coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)
        v = feasibility.exact_test_direct(m)
        assert v.status == STATUS_NON_QUANTUM
        assert v.t_star > 1e-4

    def test_certificate_reproduces_all_moments(self, rng):
        triple = spinalg.spin_operators(5)
        m = spinalg.moment_matrix(random_density(rng, 6), triple)
        v = feasibility.exact_test_direct(m)
        assert v.status == STATUS_QUANTUM
        state = v.certificate_state
        assert matcore.min_eigenvalue(state) >= -1e-8
        check = spinalg.moment_matrix(state, triple)
        assert np.abs(check.matrix - m.matrix).max() < 1e-7

    def test_agrees_with_first_moment_law_on_noncommittal_sweep(self):
        # second moments of the coherent/mixed interpolation keep the Casimir
        # budget for any polarization, so the exact test reduces to |l| <= j
        two_j = 6
        j = 3.0
        iso = j * (j + 1.0) / 3.0
        for frac in (0.0, 0.3, 0.7, 0.95, 1.05, 1.2):
            w = frac
            r = frac * j
            m = np.diag(
                [
                    w * j / 2.0 + (1 - w) * iso,
                    w * j / 2.0 + (1 - w) * iso,
                    w * j * j + (1 - w) * iso,
                ]
            ).astype(complex)
            m += 1j * spinalg._antisym_from_moments(np.array([0.0, 0.0, r]))
            mm = MomentMatrix.from_matrix(two_j, m)
            sdp_says = feasibility.exact_test_direct(mm).accepted
            closed_form = feasibility.first_moment_test(
                np.array([0.0, 0.0, r]), two_j
            ).status
            assert sdp_says == (closed_form != STATUS_NON_QUANTUM)

    def test_works_at_spin_half(self):
        m = np.eye(3, dtype=complex) / 4.0
        m += 1j * spinalg._antisym_from_moments(np.array([0.0, 0.0, 0.3]))
        mm = MomentMatrix.from_matrix(1, m)
        assert feasibility.exact_test_direct(mm).status == STATUS_QUANTUM
        m2 = np.eye(3, dtype=complex) / 4.0
        m2 += 1j * spinalg._antisym_from_moments(np.array([0.0, 0.0, 0.51]))
        mm2 = MomentMatrix.from_matrix(1, m2)
        assert feasibility.exact_test_direct(mm2).status == STATUS_NON_QUANTUM


class TestExactTestExtension:
    @pytest.mark.parametrize("two_j", [2, 5, 9, 12])
    def test_product_state_extends_with_product_extension(self, two_j):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        v = feasibility.exact_test_extension(rho, two_j)
        assert v.accepted
        # the extension is the all-up product state = highest weight in spin basis
        assert np.abs(v.certificate_state - highest_weight_state(two_j)).max() < 1e-6

    def test_symmetric_bell_rejected_at_j5(self):
        bell = np.zeros((3, 3), dtype=complex)
        bell[0, 0] = bell[2, 2] = bell[0, 2] = bell[2, 0] = 0.5
        v = feasibility.exact_test_extension(bell, 10)
        assert v.status == STATUS_NON_QUANTUM
        m = moments_of_pair_state(bell, 10)
        assert feasibility.exact_test_direct(m).status == STATUS_NON_QUANTUM

    @pytest.mark.parametrize("two_j", [2, 4, 6])
    def test_separable_mixtures_always_extend(self, two_j):
        rng = np.random.default_rng(two_j * 37)
        v2 = matcore.symmetric_isometry(2)
        for _ in range(10):
            rho4 = np.zeros((4, 4), dtype=complex)
            weights = rng.dirichlet(np.ones(4))
            for w in weights:
                alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                alpha /= np.linalg.norm(alpha)
                pair = np.kron(alpha, alpha)
                rho4 += w * np.outer(pair, pair.conj())
            rho = v2.conj().T @ rho4 @ v2
            assert feasibility.exact_test_extension(rho, two_j).accepted

    def test_cap_points_to_direct_formulation(self):
        rho = np.eye(3, dtype=complex) / 3.0
        with pytest.raises(ValueError, match="exact_test_direct"):
            feasibility.exact_test_extension(rho, 13)

    def test_marginal_of_certificate_matches_input(self, rng):
        rho = random_density(rng, 3)
        while not reduction.ppt_inner_test(rho):
            rho = random_density(rng, 3)
        two_j = 6
        v = feasibility.exact_test_extension(rho, two_j)
        assert v.accepted
        omega = reduction.embed_symmetric_state(
            reduction.spin_to_weight_basis(v.certificate_state), two_j
        )
        marg = reduction.reduce_to_pair(omega, two_j)
        assert np.abs(marg - rho).max() < 1e-7


class TestOuterTest:
    def test_highest_weight_true_on_boundary(self):
        triple = spinalg.spin_operators(8)
        m = spinalg.moment_matrix(highest_weight_state(8), triple)
        assert feasibility.outer_test(m)

    def test_maximally_mixed_true(self):
        triple = spinalg.spin_operators(4)
        m = spinalg.moment_matrix(np.eye(5, dtype=complex) / 5.0, triple)
        assert feasibility.outer_test(m)

    def test_non_psd_reconstruction_fails_tau(self):
        # v2 < -1/3 drives <L2^2> negative, so tau picks up a negative minor
        m = coords_matrix([0, 0, 0], [2.0, -0.5, -0.5], 4)
        rho = reduction.reconstruct_rho(m)
        assert matcore.min_eigenvalue(rho) < -1e-6  # per-instance premise
        assert not feasibility.outer_test(m)


class TestWitnessSearch:
    def test_detects_overconcentrated_moments(self):
        m = coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)
        t_star = feasibility.exact_test_direct(m).t_star
        w = feasibility.witness_search(m)
        assert w.value < 0.0
        assert w.separates
        assert abs(w.value + t_star) < 1e-6
        assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        assert np.trace(w.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_no_witness_for_maximally_mixed(self):
        triple = spinalg.spin_operators(4)
        m = spinalg.moment_matrix(np.eye(5, dtype=complex) / 5.0, triple)
        w = feasibility.witness_search(m)
        assert w.value >= -1e-7
        assert not w.separates

    def test_validity_sweep_over_random_quantum_points(self):
        rng = np.random.default_rng(99)
        m_bad = coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)
        w = feasibility.witness_search(m_bad)
        triple = spinalg.spin_operators(4)
        for _ in range(100):
            m = spinalg.moment_matrix(random_density(rng, 5), triple)
            values = feasibility.moment_values_in_witness_basis(m, w)
            assert w.evaluate(values) >= -1e-7

    def test_witness_matrix_consistent_with_coefficients(self):
        m = coords_matrix([0.1, 0.0, 0.4], [0.9, 0.2, -0.1], 6)
        w = feasibility.witness_search(m)
        ops, _ = feasibility._moment_operator_set(6)
        rebuilt = sum(c * op for c, op in zip(w.op_coefficients, ops))
        assert np.abs(rebuilt - w.matrix).max() < 1e-8


class TestClassify:
    def test_maximally_mixed_accepted_at_inner_stage(self):
        triple = spinalg.spin_operators(10)
        m = spinalg.moment_matrix(np.eye(11, dtype=complex) / 11.0, triple)
        v = feasibility.classify(m)
        assert v.status == STATUS_QUANTUM
        assert v.stage == "inner"
        assert [r.name for r in v.tests_run] == ["validate", "chi", "reconstruct", "inner"]

    def test_chi_violation_rejected_before_reconstruction(self):
        j = 2.0
        ell = np.array([0.0, 0.0, j + 0.5])
        m = np.diag([j / 2.0, j / 2.0, j * j]).astype(complex)
        m += 1j * spinalg._antisym_from_moments(ell)
        v = feasibility.classify(MomentMatrix.from_matrix(4, m))
        assert v.status == STATUS_NON_QUANTUM
        assert v.stage == "chi"
        assert v.witness is not None and v.witness.value < 0
        assert "reconstruct" not in [r.name for r in v.tests_run]

    def test_entangled_but_extendible_at_j1(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 3)
        while reduction.ppt_inner_test(rho):
            rho = random_density(rng, 3)
        m = moments_of_pair_state(rho, 2)
        v = feasibility.classify(m)
        assert v.status in (STATUS_QUANTUM, STATUS_BOUNDARY)
        assert v.stage == "exact"
        names = [r.name for r in v.tests_run]
        assert "inner" in names
        # the tau test is implied by the chi stage, so classify never runs it
        assert "outer" not in names

    def test_tau_rejection_with_witness(self):
        # entangled state whose moments violate the 4x4 conditions at large j
        bell = np.zeros((3, 3), dtype=complex)
        bell[0, 0] = bell[2, 2] = bell[0, 2] = bell[2, 0] = 0.5
        rho = 0.97 * bell + 0.03 * np.eye(3) / 3.0
        m = moments_of_pair_state(rho, 12)
        assert not feasibility.outer_test(m)
        v = feasibility.classify(m)
        assert v.status == STATUS_NON_QUANTUM
        # chi and tau test the same condition (congruent matrices), so the
        # cheaper chi stage fires first
        assert v.stage == "chi"
        assert v.witness is not None and v.witness.value < 0

    def test_chi_and_tau_are_congruent(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            two_j = int(rng.choice([2, 3, 8]))
            coords = random_coords(rng, two_j)
            try:
                m = reduction.moments_from_coords(coords)
            except ValueError:
                continue
            j = two_j / 2.0
            d = np.diag([1.0, j, j, j])
            tau = reduction.tau(reduction.reconstruct_rho(m), two_j)
            chi = spinalg.chi_matrix(m)
            scale = max(1.0, np.abs(chi).max())
            assert np.abs(chi - d @ tau @ d).max() < 1e-10 * scale

    @pytest.mark.parametrize("two_j", [2, 3, 4, 7, 10, 30, 62])
    def test_chi_pass_implies_tau_pass(self, two_j):
        rng = np.random.default_rng(1000 + two_j)
        # the highest-weight state puts chi exactly on the PSD boundary
        edge = spinalg.moment_matrix(highest_weight_state(two_j), spinalg.spin_operators(two_j))
        tested = 0
        for trial in range(60):
            if trial % 10 == 0:
                m = edge
            else:
                try:
                    m = reduction.moments_from_coords(random_coords(rng, two_j))
                except ValueError:
                    continue
            rot = random_so3(rng)
            m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
            if matcore.min_eigenvalue(spinalg.chi_matrix(m)) < -matcore.PSD_TOL:
                continue
            tau = reduction.tau(reduction.reconstruct_rho(m), two_j)
            assert matcore.min_eigenvalue(tau) >= -matcore.PSD_TOL
            tested += 1
        assert tested >= 10

    def test_rotated_exact_accept_is_bit_identical(self):
        rng = np.random.default_rng(41)
        two_j = 10
        rot = random_so3(rng)
        while True:
            rho = random_density(rng, 3)
            if reduction.ppt_inner_test(rho):
                continue
            m = moments_of_pair_state(rho, two_j)
            m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
            first = feasibility.classify(m)
            if first.stage == "exact" and first.status == STATUS_QUANTUM:
                break
        assert np.abs(m.matrix.real - np.diag(np.diag(m.matrix.real))).max() > 1e-3
        second = feasibility.classify(m)
        assert first.t_star == second.t_star
        assert first.certificate_state.tobytes() == second.certificate_state.tobytes()

    def test_early_exits_never_contradict_exact(self):
        rng = np.random.default_rng(31)
        two_j = 4
        for _ in range(40):
            coords = random_coords(rng, two_j)
            try:
                m = reduction.moments_from_coords(coords)
            except ValueError:
                continue
            v = feasibility.classify(m)
            exact = feasibility.exact_test_direct(m)
            if abs(exact.t_star) > 1e-7:
                assert v.accepted == exact.accepted


class TestSpinHalfRouting:
    def test_forced_moments_validated(self):
        m = np.eye(3, dtype=complex) / 4.0
        mm = MomentMatrix.from_matrix(1, m)
        v = feasibility.classify(mm)
        assert v.status == STATUS_QUANTUM
        assert v.stage == "first-moment"

    def test_structure_violation_is_an_error(self):
        m = np.diag([0.3, 0.25, 0.2]).astype(complex)
        mm = MomentMatrix.from_matrix(1, m)
        with pytest.raises(ValueError, match="forced"):
            feasibility.classify(mm)

    def test_long_first_moments_rejected_with_witness(self):
        m = np.eye(3, dtype=complex) / 4.0
        m += 1j * spinalg._antisym_from_moments(np.array([0.0, 0.0, 0.6]))
        mm = MomentMatrix.from_matrix(1, m)
        v = feasibility.classify(mm)
        assert v.status == STATUS_NON_QUANTUM
        assert v.witness is not None
        assert v.witness.value < 0
