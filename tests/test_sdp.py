import math

import numpy as np
import pytest

from spinmoment import feasibility, matcore, sdp, spinalg

from conftest import highest_weight_state, random_density, random_hermitian
from sdp_oracle import bracket_optimum, random_phase1_dual

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
E00 = np.diag([1.0, 0.0]).astype(complex)


PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    SIGMA_Z,
)


def record_solver_rows(monkeypatch):
    """Record the row stack of every sdp.solve call from here on."""
    seen = []
    real_solve = sdp.solve

    def recording(ops, b, **kwargs):
        seen.append(ops)
        return real_solve(ops, b, **kwargs)

    monkeypatch.setattr(sdp, "solve", recording)
    return seen


class TestDependencyPass:
    def test_dependent_consistent_row_dropped(self, monkeypatch):
        # 2 sigma_z repeats sigma_z with a consistent value: the program is (I, sigma_z)'s
        seen = record_solver_rows(monkeypatch)
        ops = np.stack([np.eye(2, dtype=complex), SIGMA_Z, 2.0 * SIGMA_Z])
        values = np.array([1.0, 0.4, 0.8])
        p1 = sdp.phase1_min_t(ops, values)
        ref = sdp.phase1_min_t(ops[:2], values[:2])
        assert [len(rows) for rows in seen] == [1, 1]
        assert p1.solution.status == sdp.STATUS_OPTIMAL
        assert p1.t_star == pytest.approx(ref.t_star, abs=1e-12)
        assert np.abs(p1.x - ref.x).max() <= 1e-12
        assert np.abs(p1.dual_z - ref.dual_z).max() <= 1e-12
        assert_dual_coefficients(p1, ops, values)

    def test_pauli_products_all_kept(self, monkeypatch, rng):
        # the 16 two-qubit Pauli products are independent: all 15 traceless ones
        # reach the solver, as orthonormal rows
        seen = record_solver_rows(monkeypatch)
        ops = np.stack([matcore.kron(a, b) for a in PAULIS for b in PAULIS])
        rho = random_density(rng, 4)
        values = np.array([matcore.hs_inner(a, rho) for a in ops])
        p1 = sdp.phase1_min_t(ops, values)
        assert p1.solution.status == sdp.STATUS_OPTIMAL
        assert p1.t_star == pytest.approx(-matcore.min_eigenvalue(rho), abs=1e-7)
        (rows,) = seen
        assert len(rows) == 15
        gram = np.einsum("kab,lba->kl", rows, rows).real
        assert np.abs(gram - np.eye(15)).max() <= 1e-12
        assert np.abs(np.trace(rows, axis1=1, axis2=2)).max() <= 1e-12
        assert_dual_coefficients(p1, ops, values)


def highest_weight_program(two_j):
    ops, triple = feasibility._moment_operator_set(two_j), spinalg.spin_operators(two_j)
    hw = spinalg.moment_matrix(highest_weight_state(two_j), triple)
    return ops, spinalg.moment_values(hw)


class TestSolveAnalytic:
    def test_min_trace_with_pinned_corner(self):
        # phase-1 of <e00> = -1 at unit trace: <sigma_z / 2, Y> = -3/2 in Y = X + t*1
        sol = sdp.solve(np.stack([SIGMA_Z / 2.0]), np.array([-1.5]))
        assert sol.status == sdp.STATUS_OPTIMAL
        assert sol.primal_objective == pytest.approx(1.5, abs=1e-7)
        assert np.abs(sol.x - np.diag([0.0, 3.0])).max() < 1e-6
        assert np.abs(sol.z - E00).max() < 1e-6
        p1 = sdp.phase1_min_t(np.stack([np.eye(2, dtype=complex), E00]), np.array([1.0, -1.0]))
        assert p1.t_star == pytest.approx(1.0, abs=1e-7)
        assert np.abs(p1.x - np.diag([-1.0, 2.0])).max() < 1e-6

    def test_minimum_eigenvalue_form(self, rng):
        # a full pin leaves X = X0, so t* = -lambda_min(X0): -1/3 at I/3
        basis = matcore.hermitian_basis(3)
        u, _ = np.linalg.qr(random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3))
        for x0 in (np.eye(3, dtype=complex) / 3.0, u @ np.diag([0.7, 0.5, -0.2]) @ u.conj().T):
            p1 = sdp.phase1_min_t(basis, np.array([matcore.hs_inner(b, x0) for b in basis]))
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            assert p1.t_star == pytest.approx(-matcore.min_eigenvalue(x0), abs=1e-7)
        assert p1.t_star > 0

    def test_solution_invariants_on_random_problems(self):
        rng = np.random.default_rng(5150)
        programs = [highest_weight_program(4)]
        for trial in range(10):
            d = int(rng.integers(2, 6))
            rows, values, _ = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
            programs.append((np.stack(rows), values))
        for ops, values in programs:
            d = ops.shape[1]
            p1 = sdp.phase1_min_t(ops, values)
            sol = p1.solution
            assert sol.status == sdp.STATUS_OPTIMAL
            assert sol.gap <= 1e-8 * (1.0 + abs(sol.primal_objective))
            assert matcore.min_eigenvalue(p1.x) >= -p1.t_star - 1e-9
            assert matcore.min_eigenvalue(p1.dual_z) >= -1e-9
            for a, b in zip(ops, values):
                assert abs(matcore.hs_inner(a, p1.x) - b) <= 1e-8 * (1 + abs(b))
            # complementary slackness at the optimum: <X + t*1, Z> = 0
            assert abs(matcore.hs_inner(sol.x, sol.z)) <= 1e-7 * d

    def test_recombined_rows_give_the_same_program(self):
        # rows T A with values T b, for a random invertible real T, state the same
        # program: same t* and dual, and coefficients over the new rows
        rng = np.random.default_rng(4242)
        for trial in range(10):
            d = int(rng.integers(2, 6))
            rows, values, _ = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
            ops = np.stack(rows)
            t = rng.standard_normal((len(ops), len(ops)))
            ref = sdp.phase1_min_t(ops, values)
            mixed_ops, mixed_values = np.tensordot(t, ops, axes=1), t @ values
            p1 = sdp.phase1_min_t(mixed_ops, mixed_values)
            assert p1.solution.status == ref.solution.status == sdp.STATUS_OPTIMAL
            assert p1.t_star == pytest.approx(ref.t_star, abs=1e-9)
            assert np.abs(p1.dual_z - ref.dual_z).max() <= 1e-9
            assert_dual_coefficients(p1, mixed_ops, mixed_values)


class TestWeakDualityAndDeterminism:
    def test_weak_duality_every_iteration(self):
        p1 = sdp.phase1_min_t(*highest_weight_program(4))
        log = p1.solution.iterate_log
        assert len(log) >= 3
        for pobj, dobj, _, pres, dres in log:
            # feasible-start path: both iterates stay feasible throughout
            assert pres <= 1e-9
            assert dres <= 1e-9
            assert pobj >= dobj - 1e-9

    def test_bit_identical_reruns(self):
        a = sdp.phase1_min_t(*highest_weight_program(4))
        b = sdp.phase1_min_t(*highest_weight_program(4))
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
            alpha = sdp._max_step(inv_factor, direction, {})
            assert 0.0 < alpha < math.inf
            edge = np.linalg.eigvalsh(x + alpha * direction)
            assert abs(edge[0]) <= 1e-9 * np.abs(edge).max()
            # a PSD direction never leaves the cone
            assert sdp._max_step(inv_factor, g @ g.conj().T, {}) == math.inf

    def test_flattened_contractions_match_their_definitions(self):
        rng = np.random.default_rng(3200)
        ops = feasibility._moment_operator_set(62)
        d = ops.shape[1]
        a_apply, a_adjoint, schur, min_norm = sdp._contractions(ops)
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
        # without the identity the nine rows are independent: the start point
        # is the least-squares solution of tr(A_k X) = b_k
        independent = ops[1:]
        b = a_apply(x)[1:]
        start = sdp._contractions(independent)[3](b)
        flat = independent.reshape(len(independent), -1).conj()
        want, *_ = np.linalg.lstsq(flat, b.astype(complex), rcond=None)
        assert close(start.ravel(), want)


class TestSolveAgainstOracle:
    def test_agreement_small_problems(self):
        # phase-1 t* against the barrier oracle on the program's dual
        rng = np.random.default_rng(777)
        signs = set()
        for trial in range(8):
            d = int(rng.integers(2, 5))
            rows, values, (c, ops, vals) = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
            p1 = sdp.phase1_min_t(rows, values)
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            upper, lower, _, diag = bracket_optimum(ops, vals, c)
            assert diag["residual"] < 1e-8
            assert abs(upper + p1.t_star) <= 1e-4
            assert abs(lower + p1.t_star) <= 1e-4
            assert max(abs(upper + p1.t_star), abs(lower + p1.t_star)) <= 1e-7
            signs.add(bool(p1.t_star > 0))
        assert signs == {False, True}


def assert_dual_coefficients(p1, ops, values):
    """The dual coefficients rebuild dual_z over the rows and pair with b to -t*."""
    c = p1.dual_coefficients
    assert np.abs(np.tensordot(c, ops, axes=1) - p1.dual_z).max() <= 1e-10
    assert float(c @ values) == pytest.approx(-p1.t_star, abs=1e-8)


def corner_program(e00_value):
    """Unit trace and a prescribed <e00>."""
    return np.stack([np.eye(2, dtype=complex), E00]), np.array([1.0, e00_value])


class TestPhase1:
    def test_strictly_feasible_full_pin(self):
        basis = matcore.hermitian_basis(3)
        values = np.array([matcore.hs_inner(b, np.eye(3, dtype=complex) / 3.0) for b in basis])
        p1 = sdp.phase1_min_t(basis, values)
        assert p1.t_star == pytest.approx(-1.0 / 3.0, abs=1e-7)
        assert np.abs(p1.x - np.eye(3) / 3.0).max() < 1e-6

    def test_negative_diagonal_infeasible(self):
        p1 = sdp.phase1_min_t(*corner_program(-1.0))
        assert p1.t_star == pytest.approx(1.0, abs=1e-6)
        assert p1.t_star > 1e-7

    def test_boundary_highest_weight_moments(self):
        p1 = sdp.phase1_min_t(*highest_weight_program(4))
        assert abs(p1.t_star) <= 1e-7

    def test_requires_trace_normalization(self):
        with pytest.raises(ValueError, match="trace"):
            sdp.phase1_min_t(SIGMA_Z[None], np.array([0.2]))

    def test_rejects_malformed_programs(self):
        with pytest.raises(ValueError, match="square"):
            sdp.phase1_min_t(np.eye(2, dtype=complex), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="at least"):
            sdp.phase1_min_t(np.zeros((0, 2, 2)), np.zeros(0))
        with pytest.raises(ValueError, match="Hermitian"):
            sdp.phase1_min_t(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), np.array([1.0, 0.0]))
        ops = np.stack([np.eye(2, dtype=complex), SIGMA_Z])
        for values in (np.ones(1), np.ones(3), np.ones((2, 1))):
            with pytest.raises(ValueError, match="expected 2 values"):
                sdp.phase1_min_t(ops, values)

    def test_dual_solution_is_unit_trace_psd(self):
        ops, values = corner_program(-0.2)
        p1 = sdp.phase1_min_t(ops, values)
        z = p1.dual_z
        assert np.trace(z).real == pytest.approx(1.0, abs=1e-9)
        assert matcore.min_eigenvalue(z) >= -1e-9
        assert_dual_coefficients(p1, ops, values)
        # on a feasible input the dual pairs with the certificate to -t_star
        feasible = sdp.phase1_min_t(*corner_program(0.3))
        assert matcore.hs_inner(feasible.dual_z, feasible.x) == pytest.approx(
            -feasible.t_star, abs=1e-8
        )

    def test_dual_coefficients_on_random_rows(self, rng):
        # feasible values come from a state; the others are arbitrary, so t* > 0
        for trial in range(6):
            d = int(rng.integers(2, 5))
            ops = np.stack([np.eye(d, dtype=complex)] + [random_hermitian(rng, d) for _ in range(3)])
            if trial % 2:
                values = np.array([1.0, *rng.standard_normal(3) * 3.0])
            else:
                rho = random_density(rng, d)
                values = np.array([matcore.hs_inner(a, rho) for a in ops])
            p1 = sdp.phase1_min_t(ops, values)
            assert p1.solution.status == sdp.STATUS_OPTIMAL
            assert (p1.t_star > 0) == bool(trial % 2)
            assert_dual_coefficients(p1, ops, values)

    def test_trace_only_dual_is_maximally_mixed(self):
        # no traceless row reaches the solver, so the dual is the objective 1/d
        ops, values = np.eye(3, dtype=complex)[None], np.array([1.0])
        p1 = sdp.phase1_min_t(ops, values)
        assert p1.t_star == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert np.abs(p1.dual_z - np.eye(3) / 3.0).max() < 1e-15
        assert_dual_coefficients(p1, ops, values)


def mixed_batch(rng):
    """One stack with a dependent row (the last repeats the second, doubled) and
    three value rows: a quantum accept, a cone-infeasible reject and a conflict."""
    d = 3
    h1, h2 = random_hermitian(rng, d), random_hermitian(rng, d)
    ops = np.stack([np.eye(d, dtype=complex), h1, h2, 2.0 * h1])
    rho = random_density(rng, d)
    accept = np.array([matcore.hs_inner(a, rho) for a in ops])
    far = 3.0 * np.abs(np.linalg.eigvalsh(h1)).max()  # no state reaches <h1> = far
    reject = np.array([1.0, far, 0.1, 2.0 * far])
    conflict = accept + np.array([0.0, 0.0, 0.0, 0.3])
    return ops, np.stack([accept, reject, conflict])


def assert_same_result(got, want):
    assert got.solution.status == want.solution.status
    if want.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE:
        assert got.t_star == want.t_star == math.inf
        assert got.x is None and got.dual_coefficients is None
        return
    assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
    assert np.abs(got.dual_coefficients - want.dual_coefficients).max() <= 1e-8
    assert np.abs(got.x - want.x).max() <= 1e-8


class TestBatchedPhase1:
    def test_each_program_matches_its_own_solve(self, rng):
        ops, values = mixed_batch(rng)
        batch = sdp.phase1_min_t(ops, values)
        assert isinstance(batch, list) and len(batch) == 3
        for got, v in zip(batch, values):
            assert_same_result(got, sdp.phase1_min_t(ops, v))
        accept, reject, conflict = batch
        assert accept.t_star < -1e-7 < 1e-7 < reject.t_star
        assert conflict.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert conflict.solution.iterations == 0 and "conflicts" in conflict.solution.message

    def test_permuting_the_batch_permutes_the_results(self, rng):
        ops, values = mixed_batch(rng)
        values = np.concatenate([values, values[:2] * [1.0, 0.9, 1.1, 0.9]])
        batch = sdp.phase1_min_t(ops, values)
        order = [3, 0, 4, 2, 1]
        permuted = sdp.phase1_min_t(ops, values[order])
        for got, i in zip(permuted, order):
            want = batch[i]
            assert got.solution.status == want.solution.status
            assert got.solution.iterations == want.solution.iterations
            if math.isfinite(want.t_star):
                assert abs(got.t_star - want.t_star) <= 1e-12 * abs(want.t_star)

    def test_chunked_batch_matches_one_kernel_call(self, rng, monkeypatch):
        # two rows of 3x3 reach the kernel: 18 entries per program, so chunks of 2
        ops, values = mixed_batch(rng)
        values = np.concatenate([values, values[:2] * [1.0, 0.9, 1.1, 0.9]])
        whole = sdp.phase1_min_t(ops, values)
        monkeypatch.setattr(sdp, "BATCH_ENTRIES", 40)
        for got, want in zip(sdp.phase1_min_t(ops, values), whole, strict=True):
            assert_same_result(got, want)

    def test_programs_stop_on_their_own(self, monkeypatch):
        # with the iteration cap at the quicker program's count, it stays optimal
        # while its neighbour fails, each with its own log and message; the
        # accept <e00> = 0.3 converges in fewer iterations than the reject -1.0
        ops, quick = corner_program(0.3)
        slow = corner_program(-1.0)[1]
        refs = [sdp.phase1_min_t(ops, v).solution for v in (quick, slow)]
        assert refs[0].iterations < refs[1].iterations
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", refs[0].iterations)
        got = [p.solution for p in sdp.phase1_min_t(ops, np.stack([quick, slow]))]
        assert got[0].status == sdp.STATUS_OPTIMAL
        assert got[0].iterations == refs[0].iterations
        assert len(got[0].iterate_log) == refs[0].iterations + 1
        assert got[1].status == sdp.STATUS_FAILURE
        assert got[1].message.startswith(f"no convergence after {refs[0].iterations} iterations")
        assert len(got[1].iterate_log) == refs[0].iterations + 1

    def test_a_failed_program_leaves_its_neighbours(self, monkeypatch):
        # every stacked Cholesky raises, so each matrix takes the _chol path, in the
        # order X_0, X_1, Z_0, Z_1; program 1's X fails there in iteration 1
        ops, quick = corner_program(-1.0)
        values = np.stack([quick, corner_program(0.3)[1]])
        refs = sdp.phase1_min_t(ops, values)
        real_cholesky, real_chol = np.linalg.cholesky, sdp._chol
        calls = []

        def stacked_raises(a):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("forced")
            return real_cholesky(a)

        def chol(a):
            calls.append(len(calls))
            if calls[-1] == 5:
                raise np.linalg.LinAlgError("matrix lost positive definiteness")
            return real_chol(a)

        monkeypatch.setattr(np.linalg, "cholesky", stacked_raises)
        monkeypatch.setattr(sdp, "_chol", chol)
        ok, failed = sdp.phase1_min_t(ops, values)
        assert (failed.solution.status, failed.solution.iterations) == (sdp.STATUS_FAILURE, 1)
        assert failed.solution.message == "linear algebra failure: matrix lost positive definiteness"
        assert failed.solution.iterate_log == refs[1].solution.iterate_log[:2]
        assert_same_result(ok, refs[0])
        assert ok.solution.iterations == refs[0].solution.iterations

    def test_batch_shape_is_checked(self):
        ops = np.stack([np.eye(2, dtype=complex), SIGMA_Z])
        for values in (np.ones((3, 1)), np.ones((2, 3)), np.ones((1, 1, 2))):
            with pytest.raises(ValueError, match="expected 2 values"):
                sdp.phase1_min_t(ops, values)


def assert_bit_identical(got, want):
    assert got.solution.status == want.solution.status
    assert got.solution.iterate_log == want.solution.iterate_log
    assert got.t_star == want.t_star or (math.isnan(got.t_star) and math.isnan(want.t_star))
    for a, b in ((got.x, want.x), (got.dual_z, want.dual_z), (got.dual_coefficients, want.dual_coefficients)):
        assert (a is None and b is None) or np.array_equal(a, b)


class TestPreparedProgram:
    """``phase1_program`` runs the dependency pass once; ``phase1_min_t`` given it
    skips the pass and solves exactly as over the bare stack."""

    @staticmethod
    def programs(rng):
        """An accept, a reject and a conflict; then the 2j = 10 moment stack at a
        random state, the highest weight (boundary) and <L3^2> = 0 (reject)."""
        yield mixed_batch(rng)
        ops, edge = highest_weight_program(10)
        inside = spinalg.moment_values(spinalg.moment_matrix(random_density(rng, 11), spinalg.spin_operators(10)))
        casimir = 30.0
        flat = np.array([1.0, 0.6 * casimir, 0.0, 0.0, 0.4 * casimir, 0.0, 0.0, 0.0, 0.0, 0.0])
        yield ops, np.stack([inside, edge, flat])

    @pytest.mark.parametrize("decide", [False, True])
    def test_bit_identical_to_the_bare_stack(self, rng, decide):
        for ops, values in self.programs(rng):
            program = sdp.phase1_program(ops)
            batch = sdp.phase1_min_t(program, values, decide=decide)
            for got, want in zip(batch, sdp.phase1_min_t(ops, values, decide=decide), strict=True):
                assert_bit_identical(got, want)
            for v in values:
                single = sdp.phase1_min_t(program, v, decide=decide)
                assert_bit_identical(single, sdp.phase1_min_t(ops, v, decide=decide))

    def test_holds_the_dependency_pass(self):
        ops = np.stack([np.eye(2, dtype=complex), SIGMA_Z, 2.0 * SIGMA_Z])
        program = sdp.phase1_program(ops)
        assert program.rows.shape == (1, 2, 2) and program.null.shape == (3, 2)
        assert np.abs(np.tensordot(program.coeff, ops, axes=1) - np.eye(2)).max() <= 1e-12
        assert np.array_equal(program.traces, [2.0, 0.0, 0.0])
        assert np.abs(np.tensordot(program.w, ops, axes=1) - program.rows).max() <= 1e-12

    def test_malformed_programs_fail_at_the_pass(self):
        with pytest.raises(ValueError, match="cap"):
            sdp.phase1_program(np.eye(sdp.DIM_CAP + 1, dtype=complex)[None])
        with pytest.raises(ValueError, match="at least the trace"):
            sdp.phase1_program(np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="do not fix the trace"):
            sdp.phase1_program(SIGMA_Z[None])
        program = sdp.phase1_program(np.stack([np.eye(2, dtype=complex), SIGMA_Z]))
        with pytest.raises(ValueError, match="expected 2 values"):
            sdp.phase1_min_t(program, np.ones(3))


class TestInfeasibilityDetection:
    @staticmethod
    def assert_conflict(p1):
        assert p1.solution.status == sdp.STATUS_PRIMAL_INFEASIBLE
        assert p1.solution.iterations == 0
        assert p1.t_star == math.inf
        assert p1.x is None and p1.dual_z is None
        assert "conflicts" in p1.solution.message

    def test_inconsistent_rows_reported_immediately(self):
        ops = np.stack([np.eye(2, dtype=complex), E00, 2.0 * E00])
        self.assert_conflict(sdp.phase1_min_t(ops, np.array([1.0, 0.2, 0.5])))

    def test_conflicting_trace_only_rows(self):
        # a trace-only row has a zero traceless part: it conflicts through its value alone
        eye = np.eye(2, dtype=complex)
        ops = np.stack([eye, E00, 2.0 * eye])
        self.assert_conflict(sdp.phase1_min_t(ops, np.array([1.0, 0.2, 3.0])))

    def test_consistent_but_cone_infeasible(self):
        # no PSD point meets the rows: an optimal solve with t* > 0 and a separating dual
        ops, values = corner_program(-1.0)
        p1 = sdp.phase1_min_t(ops, values)
        assert p1.solution.status == sdp.STATUS_OPTIMAL
        assert p1.t_star > 1e-7
        value = float(p1.dual_coefficients @ values)
        assert value == pytest.approx(-p1.t_star, abs=1e-7)
        assert np.trace(p1.dual_z).real == pytest.approx(1.0, abs=1e-9)
        assert matcore.min_eigenvalue(p1.dual_z) >= -1e-9

    def test_final_iterate_gets_the_stop_test(self, monkeypatch):
        # a solve that converges at iteration k stays optimal with k iterations
        # allowed; with k - 1 it fails, having logged and tested every iterate
        program = corner_program(-1.0)
        ref = sdp.phase1_min_t(*program).solution
        k = ref.iterations
        assert ref.status == sdp.STATUS_OPTIMAL and k >= 2
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", k)
        sol = sdp.phase1_min_t(*program).solution
        assert (sol.status, sol.iterations, sol.iterate_log) == (sdp.STATUS_OPTIMAL, k, ref.iterate_log)
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", k - 1)
        sol = sdp.phase1_min_t(*program).solution
        assert (sol.status, sol.iterations) == (sdp.STATUS_FAILURE, k - 1)
        assert sol.iterate_log == ref.iterate_log[:k]
        assert sol.message.startswith(f"no convergence after {k - 1} iterations")

    @pytest.mark.parametrize("e00", [-1.0, 0.3])
    def test_decided_run_is_the_optimal_run_cut_short(self, e00):
        # a decided solve takes the optimal solve's iterates and stops at the first
        # one whose bound clears the band: t_d for the reject, t_p for the accept
        program = corner_program(e00)
        ref = sdp.phase1_min_t(*program)
        p1 = sdp.phase1_min_t(*program, decide=True)
        sol = p1.solution
        assert sol.iterations < ref.solution.iterations
        assert sol.iterate_log == ref.solution.iterate_log[: sol.iterations + 1]
        shift = 1.0 / 2  # the fitted trace over d
        pobj, dobj = sol.iterate_log[-1][:2]
        if e00 < 0:
            assert sol.status == sdp.STATUS_DUAL_BOUND
            assert p1.t_star == dobj - shift
            assert 1e-7 < p1.t_star <= ref.t_star + 1e-9
            assert float(p1.dual_coefficients @ program[1]) == pytest.approx(-p1.t_star, abs=1e-15)
            assert all(l[1] - shift <= 1e-7 for l in sol.iterate_log[:-1])
        else:
            assert sol.status == sdp.STATUS_PRIMAL_BOUND
            assert p1.t_star == pobj - shift
            assert ref.t_star - 1e-9 <= p1.t_star < -1e-7
            assert matcore.min_eigenvalue(p1.x) >= -p1.t_star - 1e-12
            assert all(l[0] - shift >= -1e-7 for l in sol.iterate_log[:-1])

    def test_failure_reports_residuals(self, monkeypatch):
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        p1 = sdp.phase1_min_t(*corner_program(-1.0))
        assert p1.solution.status == sdp.STATUS_FAILURE
        assert "res" in p1.solution.message
        assert math.isnan(p1.t_star) and p1.x is None and p1.dual_z is None

    def test_dimension_cap_enforced(self):
        d = sdp.DIM_CAP + 1
        with pytest.raises(ValueError, match="cap"):
            sdp.phase1_min_t(np.eye(d, dtype=complex)[None], np.array([1.0]))
        d = sdp.DIM_CAP
        p1 = sdp.phase1_min_t(np.eye(d, dtype=complex)[None], np.array([1.0]))
        assert p1.t_star == pytest.approx(-1.0 / d, abs=1e-15)
