import numpy as np
import pytest

from spinmoment import feasibility, matcore, sdp, spinalg

from conftest import highest_weight_state, random_density, random_hermitian
from sdp_oracle import bracket_optimum, random_bounded_sdp

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


class TestGramSchmidt:
    def test_dependent_consistent_row_dropped(self):
        ops = [np.eye(2, dtype=complex), SIGMA_Z, 2.0 * SIGMA_Z]
        vecs = np.stack([sdp._vec_h(a, 2) for a in ops])
        kept, dependent = sdp._gram_schmidt(vecs, np.array([1.0, 0.4, 0.8]), 1e-10)
        assert kept == [0, 1]
        ((idx, w, mismatch),) = dependent
        assert idx == 2
        assert np.abs(w @ vecs).max() < 1e-14
        assert abs(mismatch) < 1e-14

    def test_pauli_products_all_kept(self):
        paulis = (
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            SIGMA_Z,
        )
        ops = [matcore.kron(a, b) for a in paulis for b in paulis]
        vecs = np.stack([sdp._vec_h(a, 4) for a in ops])
        kept, dependent = sdp._gram_schmidt(vecs, np.zeros(16) + 0.1, 1e-10)
        assert kept == list(range(16))
        assert dependent == []


class TestSolveAnalytic:
    def test_min_trace_with_pinned_corner(self):
        prob = sdp.SdpProblem.build(
            2, np.eye(2, dtype=complex), [(np.diag([1.0, 0.0]).astype(complex), 1.0)]
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
        assert np.abs(sol.x - np.diag([1.0, 0.0])).max() < 1e-6

    def test_minimum_eigenvalue_form(self):
        prob = sdp.SdpProblem.build(
            2, np.diag([1.0, 2.0]).astype(complex), [(np.eye(2, dtype=complex), 1.0)]
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_solution_invariants_on_random_problems(self):
        rng = np.random.default_rng(5150)
        for trial in range(10):
            d = int(rng.integers(2, 6))
            c, ops, vals = random_bounded_sdp(rng, d, int(rng.integers(0, 4)))
            sol = sdp.solve(sdp.SdpProblem.build(d, c, list(zip(ops, vals))))
            assert sol.status == sdp.STATUS_OPTIMAL
            assert sol.gap <= 1e-8 * (1.0 + abs(sol.primal_objective))
            assert matcore.min_eigenvalue(sol.x) >= -1e-9
            assert matcore.min_eigenvalue(sol.z) >= -1e-9
            for a, b in zip(ops, vals):
                assert abs(matcore.hs_inner(a, sol.x) - b) <= 1e-8 * (1 + abs(b))
            # complementary slackness at the optimum
            assert abs(matcore.hs_inner(sol.x, sol.z)) <= 1e-7 * d


class TestWeakDualityAndDeterminism:
    def _phase1_style_problem(self):
        ops, triple = feasibility._moment_operator_set(4)
        hw = spinalg.moment_matrix(highest_weight_state(4), triple)
        values = feasibility._moment_values(hw)
        return list(zip(ops, values)), triple.dim

    def test_weak_duality_every_iteration(self):
        constraints, dim = self._phase1_style_problem()
        p1 = sdp.phase1_min_t(constraints, dim)
        log = p1.solution.iterate_log
        assert len(log) >= 3
        for pobj, dobj, _, pres, dres in log:
            # feasible-start path: both iterates stay feasible throughout
            assert pres <= 1e-9
            assert dres <= 1e-9
            assert pobj >= dobj - 1e-9

    def test_bit_identical_reruns(self):
        constraints, dim = self._phase1_style_problem()
        a = sdp.phase1_min_t(constraints, dim)
        b = sdp.phase1_min_t(constraints, dim)
        assert a.t_star == b.t_star
        assert a.solution.iterations == b.solution.iterations
        assert a.solution.iterate_log == b.solution.iterate_log
        assert np.array_equal(a.x, b.x)


class TestSolveAgainstOracle:
    def test_agreement_small_problems(self):
        rng = np.random.default_rng(777)
        for trial in range(8):
            d = int(rng.integers(2, 5))
            c, ops, vals = random_bounded_sdp(rng, d, int(rng.integers(0, 4)))
            sol = sdp.solve(sdp.SdpProblem.build(d, c, list(zip(ops, vals))))
            assert sol.status == sdp.STATUS_OPTIMAL
            upper, lower, _, diag = bracket_optimum(
                ops, vals, c, d, np.random.default_rng(3000 + trial)
            )
            assert diag["residual"] < 1e-8
            assert abs(upper - sol.primal_objective) <= 1e-4
            assert abs(lower - sol.primal_objective) <= 1e-4


def assert_dual_coefficients(p1, constraints):
    """The dual coefficients rebuild dual_z over the rows and pair with b to -t*."""
    c = p1.dual_coefficients
    rebuilt = sum(ci * a for ci, (a, _) in zip(c, constraints))
    assert np.abs(rebuilt - p1.dual_z).max() <= 1e-10
    assert float(c @ np.array([b for _, b in constraints])) == pytest.approx(-p1.t_star, abs=1e-8)


class TestPhase1:
    def test_strictly_feasible_full_pin(self):
        basis = matcore.hermitian_basis(3)
        cons = [(b, matcore.hs_inner(b, np.eye(3, dtype=complex) / 3.0)) for b in basis]
        p1 = sdp.phase1_min_t(cons, 3)
        assert p1.t_star == pytest.approx(-1.0 / 3.0, abs=1e-7)
        assert np.abs(p1.x - np.eye(3) / 3.0).max() < 1e-6

    def test_negative_diagonal_infeasible(self):
        cons = [
            (np.eye(2, dtype=complex), 1.0),
            (np.diag([1.0, 0.0]).astype(complex), -1.0),
        ]
        p1 = sdp.phase1_min_t(cons, 2)
        assert p1.t_star == pytest.approx(1.0, abs=1e-6)
        assert p1.t_star > 1e-7

    def test_boundary_highest_weight_moments(self):
        ops, triple = feasibility._moment_operator_set(4)
        hw = spinalg.moment_matrix(highest_weight_state(4), triple)
        values = feasibility._moment_values(hw)
        p1 = sdp.phase1_min_t(list(zip(ops, values)), triple.dim)
        assert abs(p1.t_star) <= 1e-7

    def test_requires_trace_normalization(self):
        cons = [(SIGMA_Z, 0.2)]
        with pytest.raises(ValueError, match="trace"):
            sdp.phase1_min_t(cons, 2)

    def test_dual_solution_is_unit_trace_psd(self):
        cons = [
            (np.eye(2, dtype=complex), 1.0),
            (np.diag([1.0, 0.0]).astype(complex), -0.2),
        ]
        p1 = sdp.phase1_min_t(cons, 2)
        z = p1.dual_z
        assert np.trace(z).real == pytest.approx(1.0, abs=1e-9)
        assert matcore.min_eigenvalue(z) >= -1e-9
        assert_dual_coefficients(p1, cons)
        # on a feasible input the dual pairs with the certificate to -t_star
        feasible = sdp.phase1_min_t([cons[0], (cons[1][0], 0.3)], 2)
        assert matcore.hs_inner(feasible.dual_z, feasible.x) == pytest.approx(
            -feasible.t_star, abs=1e-8
        )

    def test_dual_coefficients_on_random_rows(self, rng):
        # feasible values come from a state; the others are arbitrary, so t* > 0
        for trial in range(6):
            d = int(rng.integers(2, 5))
            ops = [np.eye(d, dtype=complex)] + [random_hermitian(rng, d) for _ in range(3)]
            if trial % 2:
                values = [1.0, *rng.standard_normal(3) * 3.0]
            else:
                rho = random_density(rng, d)
                values = [matcore.hs_inner(a, rho) for a in ops]
            cons = list(zip(ops, values))
            p1 = sdp.phase1_min_t(cons, d)
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            assert (p1.t_star > 0) == bool(trial % 2)
            assert_dual_coefficients(p1, cons)

    def test_trace_only_dual_is_maximally_mixed(self):
        # no traceless row reaches the solver, so the dual is the objective 1/d
        cons = [(np.eye(3, dtype=complex), 1.0)]
        p1 = sdp.phase1_min_t(cons, 3)
        assert p1.t_star == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert np.abs(p1.dual_z - np.eye(3) / 3.0).max() < 1e-15
        assert_dual_coefficients(p1, cons)


class TestInfeasibilityDetection:
    def test_inconsistent_rows_reported_immediately(self):
        e00 = np.diag([1.0, 0.0]).astype(complex)
        prob = sdp.SdpProblem.build(2, np.eye(2, dtype=complex), [(e00, 1.0), (e00, 2.0)])
        sol = sdp.solve(prob)
        assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert sol.iterations == 0

    def test_consistent_but_cone_infeasible(self):
        prob = sdp.SdpProblem.build(
            2,
            np.eye(2, dtype=complex),
            [(np.eye(2, dtype=complex), 1.0), (np.diag([1.0, 0.0]).astype(complex), -1.0)],
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.STATUS_PRIMAL_INFEASIBLE

    def test_unbounded_objective(self):
        prob = sdp.SdpProblem.build(
            2, np.diag([-1.0, 0.0]).astype(complex), [(np.diag([0.0, 1.0]).astype(complex), 1.0)]
        )
        sol = sdp.solve(prob)
        assert sol.status == sdp.STATUS_DUAL_INFEASIBLE

    def test_failure_reports_residuals(self):
        prob = sdp.SdpProblem.build(
            2, np.eye(2, dtype=complex), [(np.diag([1.0, 0.0]).astype(complex), 1.0)]
        )
        sol = sdp.solve(prob, sdp.SdpOptions(max_iterations=1))
        assert sol.status == sdp.STATUS_FAILURE
        assert "res" in sol.message

    def test_dimension_cap_enforced(self):
        d = 65
        prob = sdp.SdpProblem.build(d, np.eye(d, dtype=complex), [(np.eye(d, dtype=complex), 1.0)])
        with pytest.raises(ValueError, match="cap"):
            sdp.solve(prob)
        sol = sdp.solve(prob, sdp.SdpOptions(dim_cap=70))
        assert sol.status == sdp.STATUS_OPTIMAL
