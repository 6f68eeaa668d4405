import math

import numpy as np
import pytest

from spinmoment import feasibility, matcore, sdp, spinalg

from conftest import highest_weight_state, random_density, random_hermitian
from sdp_oracle import bracket_optimum, random_phase1_dual

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
E00 = np.diag([1.0, 0.0]).astype(complex)


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


def highest_weight_program(two_j):
    ops, triple = feasibility._moment_operator_set(two_j), spinalg.spin_operators(two_j)
    hw = spinalg.moment_matrix(highest_weight_state(two_j), triple)
    return list(zip(ops, spinalg.moment_values(hw))), triple.dim


class TestSolveAnalytic:
    def test_min_trace_with_pinned_corner(self):
        # phase-1 of <e00> = -1 at unit trace: <sigma_z / 2, Y> = -3/2 in Y = X + t*1
        sol = sdp.solve(np.stack([SIGMA_Z / 2.0]), np.array([-1.5]), 2)
        assert sol.status == sdp.STATUS_OPTIMAL
        assert sol.primal_objective == pytest.approx(1.5, abs=1e-7)
        assert np.abs(sol.x - np.diag([0.0, 3.0])).max() < 1e-6
        assert np.abs(sol.z - E00).max() < 1e-6
        p1 = sdp.phase1_min_t([(np.eye(2, dtype=complex), 1.0), (E00, -1.0)], 2)
        assert p1.t_star == pytest.approx(1.0, abs=1e-7)
        assert np.abs(p1.x - np.diag([-1.0, 2.0])).max() < 1e-6

    def test_minimum_eigenvalue_form(self, rng):
        # a full pin leaves X = X0, so t* = -lambda_min(X0): -1/3 at I/3
        basis = matcore.hermitian_basis(3)
        u, _ = np.linalg.qr(random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3))
        for x0 in (np.eye(3, dtype=complex) / 3.0, u @ np.diag([0.7, 0.5, -0.2]) @ u.conj().T):
            p1 = sdp.phase1_min_t([(b, matcore.hs_inner(b, x0)) for b in basis], 3)
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            assert p1.t_star == pytest.approx(-matcore.min_eigenvalue(x0), abs=1e-7)
        assert p1.t_star > 0

    def test_solution_invariants_on_random_problems(self):
        rng = np.random.default_rng(5150)
        programs = [highest_weight_program(4)]
        for trial in range(10):
            d = int(rng.integers(2, 6))
            rows, values, _ = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
            programs.append((list(zip(rows, values)), d))
        for constraints, d in programs:
            p1 = sdp.phase1_min_t(constraints, d)
            sol = p1.solution
            assert sol.status == sdp.STATUS_OPTIMAL
            assert sol.gap <= 1e-8 * (1.0 + abs(sol.primal_objective))
            assert matcore.min_eigenvalue(p1.x) >= -p1.t_star - 1e-9
            assert matcore.min_eigenvalue(p1.dual_z) >= -1e-9
            for a, b in constraints:
                assert abs(matcore.hs_inner(a, p1.x) - b) <= 1e-8 * (1 + abs(b))
            # complementary slackness at the optimum: <X + t*1, Z> = 0
            assert abs(matcore.hs_inner(sol.x, sol.z)) <= 1e-7 * d


class TestWeakDualityAndDeterminism:
    def test_weak_duality_every_iteration(self):
        constraints, dim = highest_weight_program(4)
        p1 = sdp.phase1_min_t(constraints, dim)
        log = p1.solution.iterate_log
        assert len(log) >= 3
        for pobj, dobj, _, pres, dres in log:
            # feasible-start path: both iterates stay feasible throughout
            assert pres <= 1e-9
            assert dres <= 1e-9
            assert pobj >= dobj - 1e-9

    def test_bit_identical_reruns(self):
        constraints, dim = highest_weight_program(4)
        a = sdp.phase1_min_t(constraints, dim)
        b = sdp.phase1_min_t(constraints, dim)
        assert a.t_star == b.t_star
        assert a.solution.iterations == b.solution.iterations
        assert a.solution.iterate_log == b.solution.iterate_log
        assert np.array_equal(a.x, b.x)


class TestIterationKernels:
    @pytest.mark.parametrize("d", [2, 11, 63])
    def test_step_length_reaches_the_boundary(self, d):
        rng = np.random.default_rng(3100 + d)
        for _ in range(3):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = g @ g.conj().T / d + 0.1 * np.eye(d)
            inv_factor = np.linalg.inv(sdp._chol(x))
            direction = random_hermitian(rng, d)
            alpha = sdp._max_step(inv_factor, direction)
            assert 0.0 < alpha < math.inf
            edge = np.linalg.eigvalsh(x + alpha * direction)
            assert abs(edge[0]) <= 1e-9 * np.abs(edge).max()
            # a PSD direction never leaves the cone
            assert sdp._max_step(inv_factor, g @ g.conj().T) == math.inf

    def test_flattened_contractions_match_their_definitions(self):
        rng = np.random.default_rng(3200)
        ops = feasibility._sdp_operator_set(62)
        d = ops.shape[1]
        a_apply, a_adjoint, schur = sdp._contractions(ops)
        x, zinv = random_density(rng, d), random_density(rng, d)
        y = rng.standard_normal(len(ops))

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        assert close(a_apply(x), np.einsum("kij,ji->k", ops, x).real)
        assert close(a_adjoint(y), np.einsum("k,kij->ij", y, ops))
        xaz = np.einsum("kac,cd->kad", np.einsum("ab,kbc->kac", x, ops), zinv)
        want = np.einsum("lab,kba->kl", ops, xaz).real
        got = schur(x, zinv)
        assert close(got, (want + want.T) / 2.0)
        assert np.array_equal(got, got.T)


class TestSolveAgainstOracle:
    def test_agreement_small_problems(self):
        # phase-1 t* against the barrier oracle on the program's dual
        rng = np.random.default_rng(777)
        signs = set()
        for trial in range(8):
            d = int(rng.integers(2, 5))
            rows, values, (c, ops, vals) = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
            p1 = sdp.phase1_min_t(list(zip(rows, values)), d)
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            upper, lower, _, diag = bracket_optimum(ops, vals, c)
            assert diag["residual"] < 1e-8
            assert abs(upper + p1.t_star) <= 1e-4
            assert abs(lower + p1.t_star) <= 1e-4
            assert max(abs(upper + p1.t_star), abs(lower + p1.t_star)) <= 1e-7
            signs.add(bool(p1.t_star > 0))
        assert signs == {False, True}


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
        ops, triple = feasibility._moment_operator_set(4), spinalg.spin_operators(4)
        hw = spinalg.moment_matrix(highest_weight_state(4), triple)
        values = spinalg.moment_values(hw)
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
    @staticmethod
    def assert_conflict(p1):
        assert p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert p1.solution.iterations == 0
        assert p1.t_star == math.inf
        assert p1.x is None and p1.dual_z is None
        assert "conflicts" in p1.solution.message

    def test_inconsistent_rows_reported_immediately(self):
        eye = np.eye(2, dtype=complex)
        self.assert_conflict(sdp.phase1_min_t([(eye, 1.0), (E00, 0.2), (2.0 * E00, 0.5)], 2))

    def test_conflicting_trace_only_rows(self):
        # a trace-only row has a zero traceless part: it conflicts through its value alone
        eye = np.eye(2, dtype=complex)
        self.assert_conflict(sdp.phase1_min_t([(eye, 1.0), (E00, 0.2), (2.0 * eye, 3.0)], 2))

    def test_consistent_but_cone_infeasible(self):
        # no PSD point meets the rows: an optimal solve with t* > 0 and a separating dual
        cons = [(np.eye(2, dtype=complex), 1.0), (E00, -1.0)]
        p1 = sdp.phase1_min_t(cons, 2)
        assert p1.solution.status == sdp.STATUS_OPTIMAL
        assert p1.t_star > 1e-7
        value = float(p1.dual_coefficients @ np.array([b for _, b in cons]))
        assert value == pytest.approx(-p1.t_star, abs=1e-7)
        assert np.trace(p1.dual_z).real == pytest.approx(1.0, abs=1e-9)
        assert matcore.min_eigenvalue(p1.dual_z) >= -1e-9

    def test_final_iterate_gets_the_stop_test(self, monkeypatch):
        # a solve that converges at iteration k stays optimal with k iterations
        # allowed; with k - 1 it fails, having logged and tested every iterate
        cons = [(np.eye(2, dtype=complex), 1.0), (E00, -1.0)]
        ref = sdp.phase1_min_t(cons, 2).solution
        k = ref.iterations
        assert ref.status == sdp.STATUS_OPTIMAL and k >= 2
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", k)
        sol = sdp.phase1_min_t(cons, 2).solution
        assert (sol.status, sol.iterations, sol.iterate_log) == (sdp.STATUS_OPTIMAL, k, ref.iterate_log)
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", k - 1)
        sol = sdp.phase1_min_t(cons, 2).solution
        assert (sol.status, sol.iterations) == (sdp.STATUS_FAILURE, k - 1)
        assert sol.iterate_log == ref.iterate_log[:k]
        assert sol.message.startswith(f"no convergence after {k - 1} iterations")

    def test_failure_reports_residuals(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        p1 = sdp.phase1_min_t([(np.eye(2, dtype=complex), 1.0), (E00, -1.0)], 2)
        assert p1.solution.status == sdp.STATUS_FAILURE
        assert "res" in p1.solution.message
        assert math.isnan(p1.t_star) and p1.x is None and p1.dual_z is None

    def test_dimension_cap_enforced(self):
        d = sdp.DIM_CAP + 1
        with pytest.raises(ValueError, match="cap"):
            sdp.phase1_min_t([(np.eye(d, dtype=complex), 1.0)], d)
        d = sdp.DIM_CAP
        p1 = sdp.phase1_min_t([(np.eye(d, dtype=complex), 1.0)], d)
        assert p1.t_star == pytest.approx(-1.0 / d, abs=1e-15)
