import math
import warnings

import numpy as np
import pytest

from spinmoment import feasibility, matcore, sdp, spinalg

from conftest import highest_weight_state, kernel_only, random_density, random_hermitian
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
    """Record the row stack of every sdp.solve call from here on: the (m, d, d)
    stack of the program's one block."""
    seen = []
    real_solve = sdp.solve

    def recording(rows, b, **kwargs):
        assert len(rows.sizes) == 1
        seen.append(rows.stack[:, 0])
        return real_solve(rows, b, **kwargs)

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
        sol = sdp.solve(sdp.Blocks(np.stack([SIGMA_Z / 2.0])[:, None], (2,)), np.array([-1.5]))
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
        for pobj, dobj, _, pres in log:
            # feasible-start path: the primal iterate stays feasible throughout
            assert pres <= 1e-9
            assert pobj >= dobj - 1e-9
        # the dual slack is C - A^*(y) by construction, so its residual is rounding
        assert p1.solution.dual_residual <= 1e-14

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
        # each matrix as a batch of one program in one block
        rng = np.random.default_rng(3100 + d)
        for _ in range(3):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = g @ g.conj().T / d + 0.1 * np.eye(d)
            inv_factor = np.linalg.inv(sdp._chol(x))[None, None]
            direction = random_hermitian(rng, d)
            (alpha,) = sdp._max_step(inv_factor, direction[None, None], {})
            assert 0.0 < alpha < math.inf
            edge = np.linalg.eigvalsh(x + alpha * direction)
            assert abs(edge[0]) <= 1e-9 * np.abs(edge).max()
            # a PSD direction never leaves the cone
            assert sdp._max_step(inv_factor, (g @ g.conj().T)[None, None], {})[0] == math.inf

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
    three consistent value rows: two quantum accepts and a cone-infeasible reject."""
    d = 3
    h1, h2 = random_hermitian(rng, d), random_hermitian(rng, d)
    ops = np.stack([np.eye(d, dtype=complex), h1, h2, 2.0 * h1])
    accept, other = (np.einsum("iab,ba->i", ops, random_density(rng, d)).real for _ in range(2))
    far = 3.0 * np.abs(np.linalg.eigvalsh(h1)).max()  # no state reaches <h1> = far
    reject = np.array([1.0, far, 0.1, 2.0 * far])
    return ops, np.stack([accept, reject, other])


def spy_on_the_kernel(monkeypatch):
    """Record every call of sdp.solve and sdp._path_following from here on."""
    calls = []
    for name in ("solve", "_path_following"):
        real = getattr(sdp, name)
        spy = lambda *args, _real=real, _name=name, **kwargs: calls.append(_name) or _real(*args, **kwargs)
        monkeypatch.setattr(sdp, name, spy)
    return calls


def assert_same_result(got, want):
    assert got.solution.status == want.solution.status
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
        accept, reject, other = batch
        assert max(accept.t_star, other.t_star) < -1e-7 < 1e-7 < reject.t_star

    @pytest.mark.parametrize("decide", [False, True])
    def test_a_conflict_raises_before_any_solve(self, rng, monkeypatch, decide):
        # the last row repeats the second, doubled: a value off by 0.3 conflicts,
        # alone or anywhere in a batch
        ops, values = mixed_batch(rng)
        conflict = values[0] + np.array([0.0, 0.0, 0.0, 0.3])
        calls = spy_on_the_kernel(monkeypatch)
        with pytest.raises(ValueError, match="conflict"):
            sdp.phase1_min_t(ops, conflict, decide=decide)
        with pytest.raises(ValueError, match="values of program 1 conflict"):
            sdp.phase1_min_t(ops, np.stack([values[0], conflict, values[1]]), decide=decide)
        assert calls == []

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
        # every stacked Cholesky raises, so each program's (n, D, D) blocks take the
        # _chol path, in the order X_0, X_1, Z_0, Z_1; program 1's X fails there in
        # iteration 1
        ops, quick = corner_program(-1.0)
        values = np.stack([quick, corner_program(0.3)[1]])
        refs = sdp.phase1_min_t(ops, values)
        real_cholesky, real_chol = np.linalg.cholesky, sdp._chol
        calls = []

        def stacked_raises(a):
            if a.ndim == 4:
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


class TestEach:
    def test_a_lone_failure_is_recorded_from_the_first_raise(self):
        # a stack of one whose fallback is the stacked call runs it once; the record,
        # the output and the neighbours of a two-program stack are as with a rerun
        calls = []

        def cholesky(a):
            calls.append(a.shape)
            return np.linalg.cholesky(a)

        def blank(a):
            return np.broadcast_to(np.eye(3), a.shape)

        bad = -np.eye(3)[None, None]
        failed, rerun = {}, {}
        got = sdp._each(cholesky, (bad,), failed, cholesky, blank)
        want = sdp._each(cholesky, (bad,), rerun, lambda a: cholesky(a), blank)
        assert calls == [bad.shape, bad.shape, bad.shape[1:]]
        assert failed == rerun and failed[0].startswith("linear algebra failure: ")
        assert np.array_equal(got, want) and got.shape == bad.shape
        pair = np.concatenate([np.eye(3)[None, None], bad])
        failed.clear()
        got = sdp._each(cholesky, (pair,), failed, cholesky, blank)
        assert list(failed) == [1]
        assert np.array_equal(got, np.broadcast_to(np.eye(3), pair.shape))


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
        """Two accepts and a reject; then the 2j = 10 moment stack at a
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
        assert program.rows.stack.shape == (1, 1, 2, 2) and program.rows.sizes == (2,)
        assert program.null.shape == (3, 2)
        assert np.abs(np.tensordot(program.coeff, ops, axes=1) - np.eye(2)).max() <= 1e-12
        assert np.array_equal(program.traces, [2.0, 0.0, 0.0])
        assert np.abs(np.tensordot(program.w, ops, axes=1) - program.rows.stack[:, 0]).max() <= 1e-12

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
    def assert_conflict(monkeypatch, ops, values):
        # an input error, raised before any iteration, alone and in a batch
        calls = spy_on_the_kernel(monkeypatch)
        for batch in (values, np.stack([values, values])):
            with pytest.raises(ValueError, match="conflict"):
                sdp.phase1_min_t(ops, batch)
        assert calls == []

    def test_inconsistent_rows_reported_immediately(self, monkeypatch):
        ops = np.stack([np.eye(2, dtype=complex), E00, 2.0 * E00])
        self.assert_conflict(monkeypatch, ops, np.array([1.0, 0.2, 0.5]))

    def test_conflicting_trace_only_rows(self, monkeypatch):
        # a trace-only row has a zero traceless part: it conflicts through its value alone
        eye = np.eye(2, dtype=complex)
        self.assert_conflict(monkeypatch, np.stack([eye, E00, 2.0 * eye]), np.array([1.0, 0.2, 3.0]))

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
    def test_decided_run_is_the_optimal_run_cut_short(self, monkeypatch, e00):
        # a decided kernel solve takes the optimal solve's iterates and stops at the
        # first bound that clears the band: for the reject, t_d of the dual look-ahead
        # point beyond the last iterate; for the accept, t_p of an iterate (the
        # factored stage would take the accept first: TestFactoredAccepts)
        kernel_only(monkeypatch)
        program = corner_program(e00)
        ref = sdp.phase1_min_t(*program)
        p1 = sdp.phase1_min_t(*program, decide=True)
        sol = p1.solution
        assert sol.iterations < ref.solution.iterations
        shift = 1.0 / 2  # the fitted trace over d
        pobj, dobj = sol.iterate_log[-1][:2]
        if e00 < 0:
            assert sol.iterate_log[:-1] == ref.solution.iterate_log[: sol.iterations]
            # the look-ahead moves the dual point only
            assert pobj == sol.iterate_log[-2][0]
            assert sol.status == sdp.STATUS_DUAL_BOUND
            assert p1.t_star == dobj - shift
            assert 1e-7 < p1.t_star <= ref.t_star + 1e-9
            assert float(p1.dual_coefficients @ program[1]) == pytest.approx(-p1.t_star, abs=1e-15)
            assert all(l[1] - shift <= 1e-7 for l in sol.iterate_log[:-1])
        else:
            assert sol.iterate_log == ref.solution.iterate_log[: sol.iterations + 1]
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


def force_cholesky_failure(monkeypatch):
    """Every Cholesky factor raises, stacked and through _chol's jitter loop."""

    def raises(a):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", raises)
    monkeypatch.setattr(sdp, "_chol", raises)


def fail_the_first_corrector(monkeypatch):
    """The corrector's step test of iteration 0 (the second _max_step call) fails
    for program 0, after the predictor has passed."""
    real, calls = sdp._max_step, []

    def max_step(inv_factor, direction, failed):
        calls.append(None)
        if len(calls) == 2:
            failed.setdefault(0, "linear algebra failure: forced")
        return real(inv_factor, direction, failed)

    monkeypatch.setattr(sdp, "_max_step", max_step)


def collapse_the_steps(monkeypatch, calls: int | None = None):
    """Step lengths near 1e-12 for program 0, in the first ``calls`` _max_step calls
    (two per iteration) or in all: the stall test ends it after five iterations."""
    real, seen = sdp._max_step, []

    def max_step(inv_factor, direction, failed):
        alpha = real(inv_factor, direction, failed)
        seen.append(None)
        if calls is None or len(seen) <= calls:
            alpha[[0, len(alpha) // 2]] = 1e-12  # X and Z of the first program in the stack
        return alpha

    monkeypatch.setattr(sdp, "_max_step", max_step)


def assert_last_logged_point(p1):
    """A result is the last row of its iterate log, and its dual is the kernel's Z."""
    sol = p1.solution
    pobj, dobj, mu, pres = sol.iterate_log[-1]
    assert sol.iterations == len(sol.iterate_log) - 1
    assert (sol.primal_objective, sol.dual_objective, sol.mu, sol.primal_residual) == (pobj, dobj, mu, pres)
    assert sol.gap == abs(pobj - dobj)
    assert p1.dual_z is (None if p1.x is None else sol.z)


class TestKernelExits:
    """Every way ``_path_following`` can end a program."""

    EXITS = {
        # name: (setup, <e00> of corner_program or None for a trace-only row, decide,
        #        status, message prefix, iterations or None)
        "optimal": (None, -1.0, False, sdp.STATUS_OPTIMAL, "", None),
        "trace-only": (None, None, False, sdp.STATUS_OPTIMAL, "", 0),
        "primal bound": (None, 0.3, True, sdp.STATUS_PRIMAL_BOUND, "", None),
        "dual bound at an iterate": (None, -0.2, True, sdp.STATUS_DUAL_BOUND, "", None),
        "dual bound at the look-ahead": (None, -1.0, True, sdp.STATUS_DUAL_BOUND, "", None),
        "iteration cap": (
            lambda mp: mp.setattr(sdp, "MAX_ITERATIONS", 1), -1.0, False, sdp.STATUS_FAILURE,
            "no convergence after 1 iterations", 1,
        ),
        "diverged": (
            lambda mp: mp.setattr(sdp, "_DIVERGENCE", 0.0), -1.0, False, sdp.STATUS_FAILURE,
            "iterate diverged", 0,
        ),
        "failed factor": (
            force_cholesky_failure, -1.0, False, sdp.STATUS_FAILURE, "linear algebra failure: forced", 0,
        ),
        "failed corrector": (
            fail_the_first_corrector, -1.0, False, sdp.STATUS_FAILURE, "linear algebra failure: forced", 0,
        ),
        "stall": (collapse_the_steps, -1.0, False, sdp.STATUS_FAILURE, "step sizes collapsed", 4),
    }

    @pytest.mark.parametrize("name", list(EXITS))
    def test_each_exit_is_its_last_logged_point(self, monkeypatch, name):
        setup, e00, decide, status, message, iterations = self.EXITS[name]
        kernel_only(monkeypatch)  # the kernel's own exits: no factored accept first
        if setup is not None:
            setup(monkeypatch)
        program = (np.eye(2, dtype=complex)[None], np.array([1.0])) if e00 is None else corner_program(e00)
        p1 = sdp.phase1_min_t(*program, decide=decide)
        assert p1.solution.status == status
        assert p1.solution.message.startswith(message) and bool(message) == bool(p1.solution.message)
        assert iterations is None or p1.solution.iterations == iterations
        assert_last_logged_point(p1)
        log = p1.solution.iterate_log
        if name.startswith("dual bound"):
            # the look-ahead moves the dual point only, so its row keeps the primal objective
            assert (log[-1][0] == log[-2][0]) == name.endswith("look-ahead")

    def test_a_stalled_program_leaves_its_neighbour(self, monkeypatch):
        ops, values = corner_program(-1.0)
        values = np.stack([values, corner_program(0.3)[1]])
        solo = sdp.phase1_min_t(ops, values[1])
        collapse_the_steps(monkeypatch, calls=10)  # program 0 stalls in iteration 4
        stalled, neighbour = sdp.phase1_min_t(ops, values)
        sol = stalled.solution
        assert (sol.status, sol.message) == (sdp.STATUS_FAILURE, "step sizes collapsed")
        assert sol.iterations == len(sol.iterate_log) - 1 == 4
        assert_same_result(neighbour, solo)
        assert_last_logged_point(neighbour)


class TestNonFiniteInput:
    """Non-finite values and operators are named before any kernel call, with no warning."""

    @pytest.mark.parametrize(
        "values, named",
        [
            ([1.0, np.nan], r"b\[1\] = nan"),
            ([np.inf, 0.2], r"b\[0\] = inf"),
            ([[1.0, 0.2], [1.0, -np.inf]], r"b\[1\]\[1\] = -inf"),
            ([[np.nan, 0.2], [1.0, 0.2]], r"b\[0\]\[0\] = nan"),
        ],
    )
    def test_values(self, monkeypatch, values, named):
        calls = spy_on_the_kernel(monkeypatch)
        ops = corner_program(0.0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for program in (ops, sdp.phase1_program(ops)):
                with pytest.raises(ValueError, match=r"phase-1 values has non-finite entries: " + named):
                    sdp.phase1_min_t(program, np.array(values))
        assert calls == []

    def test_operator(self, monkeypatch):
        calls = spy_on_the_kernel(monkeypatch)
        ops = corner_program(0.0)[0]
        ops[1, 0, 1] = np.nan
        named = r"phase-1 operators has non-finite entries: A\[1\]\[0\]\[1\] = \(nan\+0j\)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                sdp.phase1_min_t(ops, np.array([1.0, 0.2]))
        assert calls == []


class TestRealArithmetic:
    """A float64 stack of symmetric operators runs in real arithmetic and solves
    the same program as the stack cast to complex: the path is the same, only
    the arithmetic is cheaper."""

    @staticmethod
    def random_real_program(rng):
        d = int(rng.integers(2, 12))
        m = int(rng.integers(1, min(8, d * (d + 1) // 2)))  # with the identity, independent rows
        g = rng.standard_normal((m, d, d))
        ops = np.concatenate([np.eye(d)[None], (g + g.transpose(0, 2, 1)) / 2.0])
        x = rng.standard_normal((d, d))
        x = x @ x.T / np.trace(x @ x.T)
        # moments of a state, pushed out of the state space on some programs
        values = np.einsum("kij,ji->k", ops, x) + np.concatenate([[0.0], rng.normal(scale=0.3, size=m)])
        return ops, values

    @staticmethod
    def assert_same_solve(real, cast):
        assert real.solution.status == cast.solution.status
        assert real.solution.iterations == cast.solution.iterations
        assert abs(real.t_star - cast.t_star) <= 1e-12 * max(1.0, abs(cast.t_star))

    @pytest.mark.parametrize("decide", [False, True])
    def test_random_real_programs(self, decide):
        rng = np.random.default_rng(2500)
        for _ in range(20):
            ops, values = self.random_real_program(rng)
            program = sdp.phase1_program(ops)
            assert program.rows.stack.dtype == np.float64
            real = sdp.phase1_min_t(program, values, decide=decide)
            cast = sdp.phase1_min_t(ops.astype(complex), values, decide=decide)
            assert real.x.dtype == real.dual_z.dtype == real.solution.z.dtype == np.float64
            assert cast.x.dtype == np.complex128
            self.assert_same_solve(real, cast)

    def test_the_iterates_stay_real(self, monkeypatch):
        # every stack the kernel factors, inverts or step-tests is float64
        rng = np.random.default_rng(2501)
        ops, values = self.random_real_program(rng)
        dtypes = set()
        real_cholesky, real_max_step = np.linalg.cholesky, sdp._max_step

        def cholesky(a):
            dtypes.add(a.dtype)
            return real_cholesky(a)

        def max_step(inv_factor, direction, failed):
            dtypes.update((inv_factor.dtype, direction.dtype))
            return real_max_step(inv_factor, direction, failed)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(sdp, "_max_step", max_step)
        sdp.phase1_min_t(ops, values)
        assert dtypes == {np.dtype(np.float64)}

    @pytest.mark.parametrize("two_j", [4, 10, 30, 62])
    def test_the_real_moment_program(self, two_j):
        # the seven real moment operators, at a real-frame input of each verdict
        real_labels = [0, 1, 3, 4, 6, 7, 9]
        ops = feasibility._moment_operator_set(two_j)[real_labels].real
        j = two_j / 2.0
        casimir = j * (j + 1.0)
        dicke = np.array([1.0, 0.45 * casimir, 0.0, 0.0, 0.45 * casimir, 0.0, 0.1 * casimir, 0.0, 0.0, 0.2])
        flat = np.array([1.0, 0.6 * casimir, 0.0, 0.0, 0.4 * casimir, 0.0, 0.0, 0.0, 0.0, 0.0])
        values = np.stack([dicke, flat])[:, real_labels]
        for decide in (False, True):
            batch = sdp.phase1_min_t(ops, values, decide=decide)
            cast = sdp.phase1_min_t(ops.astype(complex), values, decide=decide)
            assert [p.t_star < 0 for p in batch] == [True, False]
            for real, want in zip(batch, cast, strict=True):
                assert real.x.dtype == np.float64
                self.assert_same_solve(real, want)


class TestBlocks:
    """A program in blocks solves as its dense direct sum: the same status,
    iterations and t*, and X and Z as direct sums of the blocks."""

    @staticmethod
    def random_blocks(rng, sizes, m, dtype=float):
        """m random symmetric (or Hermitian) operators in blocks of ``sizes``,
        the identity first, and values from a state, pushed out on some programs."""
        blocks = []
        for n in sizes:
            g = rng.standard_normal((m - 1, n, n))
            if dtype is complex:
                g = g + 1j * rng.standard_normal((m - 1, n, n))
            blocks.append(np.concatenate([np.eye(n, dtype=dtype)[None], (g + np.conj(g.transpose(0, 2, 1))) / 2.0]))
        dense = np.zeros((m, sum(sizes), sum(sizes)), dtype=dtype)
        at = 0
        for n, blk in zip(sizes, blocks):
            dense[:, at : at + n, at : at + n] = blk
            at += n
        x = random_density(rng, sum(sizes))
        x = x.real if dtype is float else x
        values = np.stack([
            np.einsum("kij,ji->k", dense, x).real + np.concatenate([[0.0], rng.normal(scale=s, size=m - 1)])
            for s in (0.0, 0.3, 0.6)
        ])
        return tuple(blocks), dense, values

    @pytest.mark.parametrize("sizes", [(3, 3), (4, 3, 3, 3), (1, 1, 1, 1, 1), (2, 5), (6,)])
    @pytest.mark.parametrize("decide", [False, True])
    def test_blocks_match_the_direct_sum(self, monkeypatch, sizes, decide):
        # the kernel on the blocks follows the kernel on the direct sum; a decided
        # one-block program would meet the factored stage first
        kernel_only(monkeypatch)
        rng = np.random.default_rng(4000 + sum(sizes))
        for dtype in (float, complex):
            blocks, dense, values = self.random_blocks(rng, sizes, 4, dtype)
            program = sdp.phase1_program(blocks)
            assert program.rows.sizes == tuple(sizes)
            got = sdp.phase1_min_t(program, values, decide=decide)
            want = sdp.phase1_min_t(dense, values, decide=decide)
            for g, w, v in zip(got, want, values, strict=True):
                assert g.solution.status == w.solution.status
                assert g.solution.iterations == w.solution.iterations
                assert abs(g.t_star - w.t_star) <= 1e-9 * max(1.0, abs(w.t_star))
                assert np.abs(g.dual_coefficients - w.dual_coefficients).max() <= 1e-7
                # X and Z are block-diagonal, and Z = sum_i c_i A_i over the direct sums
                off = np.ones_like(dense[0], dtype=bool)
                at = 0
                for n in sizes:
                    off[at : at + n, at : at + n] = False
                    at += n
                assert not g.x[off].any() and not g.dual_z[off].any()
                assert np.abs(np.tensordot(g.dual_coefficients, dense, 1) - g.dual_z).max() <= 1e-12
                single = sdp.phase1_min_t(program, v, decide=decide)
                assert (single.solution.status, single.solution.iterations) == (g.solution.status, g.solution.iterations)
                assert abs(single.t_star - g.t_star) <= 1e-9 * max(1.0, abs(g.t_star))

    def test_padding_leaves_no_trace(self, monkeypatch):
        # blocks of two sizes are padded to one: the padding is the identity in
        # every factor the kernel takes, and zero in every iterate it keeps
        rng = np.random.default_rng(4100)
        blocks, dense, values = self.random_blocks(rng, (4, 2, 2), 3)
        program = sdp.phase1_program(blocks)
        assert program.rows.stack.shape[1:] == (3, 4, 4) and program.rows.sizes == (4, 2, 2)
        seen = []
        real = sdp._max_step

        def spy(inv_factor, direction, failed):
            seen.append((inv_factor[:, 1:, 2:, 2:].copy(), direction[:, 1:, 2:, 2:].copy()))
            return real(inv_factor, direction, failed)

        monkeypatch.setattr(sdp, "_max_step", spy)
        sdp.phase1_min_t(program, values)
        assert seen
        for inv_factor, direction in seen:
            assert np.array_equal(inv_factor, np.broadcast_to(np.eye(2), inv_factor.shape))
            assert not direction.any()


def figure_values():
    """The moment values of the 15x15 figure-slice cells in T but not R, at 2j = 10:
    a batch of frameless programs, most of them factored accepts."""
    from spinmoment import reduction, scan

    u = np.array([0.1, 0.2, 0.3])
    res = scan.scan_grid(10, u, resolution=15, sets=("R", "T"))
    cells = np.argwhere((res.in_t == 1) & (res.in_r == 0))
    v1, v2 = res.v1_values[cells[:, 0]], res.v2_values[cells[:, 1]]
    return reduction._coords_values(10, u, np.stack([v1, v2, 1.0 - v1 - v2], axis=1))


class TestOnRequest:
    """Evidence that a caller may never read is stored as the ``sdp.Later`` call
    that forms it: an ``sdp.OnRequest`` field makes the call on its first read,
    bit for bit the eager formula, and returns the same array to every read."""

    def test_a_field_is_formed_once_on_first_read(self):
        calls = []
        sol = sdp.SdpSolution(sdp.STATUS_OPTIMAL, sdp.Later(lambda: calls.append(1) or np.eye(2)), z=np.eye(2))
        assert calls == [] and sol.y is None
        x = sol.x
        assert calls == [1] and np.array_equal(x, np.eye(2)) and sol.x is x
        assert sdp.SdpSolution(sdp.STATUS_FAILURE).x is None  # the default
        with pytest.raises(TypeError):
            sdp.Phase1Result(0.0)  # x and the solution have no default

    def test_a_factored_accept_stores_its_factor(self):
        # X = herm(V V^dag - dX) + ||dX||_F·1 - t_p·1 from V (d x 3), the residual
        # behind dX over the program's own rows (not a copy of them), and ||dX||_F
        program = feasibility._moment_program(10)
        decided = sdp.phase1_min_t(program, figure_values(), decide=True)
        factored = [p1 for p1 in decided if sdp.FACTORED in p1.solution.message]
        assert len(factored) > 20
        d, r = 11, len(program.rows.stack)
        for p1 in factored:
            sol = p1.solution
            v, res, rows, e = vars(sol)["x"].args
            assert v.shape == (d, sdp.FACTOR_RANK) and res.shape == (r + 1,)
            assert np.shares_memory(rows, program.rows.stack)
            assert e == pytest.approx(math.sqrt(res[:r] @ res[:r] + res[r] ** 2 / d), rel=1e-12)
            assert p1.t_star == pytest.approx(e - sdp.FACTOR_SHIFT, abs=1e-15)
            eye = np.eye(d, dtype=complex)
            dx = np.tensordot(res[:r], rows, 1) + res[r] / d * eye
            y = sdp._herm(v @ v.conj().T - dx) + e * eye
            assert p1.x.tobytes() == (y - p1.t_star * np.eye(d)).tobytes()
            assert sol.x.tobytes() == y.tobytes()
            assert p1.dual_z is sol.z and sol.z.tobytes() == (eye / d).tobytes()
            assert p1.x is p1.x and sol.x is sol.x and p1.dual_z is p1.dual_z

    def test_the_kernel_result_is_formed_on_request(self):
        # X = Y - t_p·1 of a kernel solve too: formed on first read from the kept Y
        ops = np.stack([np.eye(2, dtype=complex), SIGMA_Z])
        p1 = sdp.phase1_min_t(ops, np.array([1.0, 0.4]))
        assert isinstance(vars(p1)["x"], sdp.Later)
        t_p = p1.solution.primal_objective - 0.5
        assert p1.x.tobytes() == (p1.solution.x - t_p * np.eye(2)).tobytes() and p1.x is p1.x
        assert p1.dual_z is p1.solution.z

    def test_the_kernel_starts_where_the_factored_stage_started(self, monkeypatch):
        # one _start per program: the leftovers of a decided batch reach the kernel
        # at the start their factored stage began from, and solve as from their own
        values = figure_values()
        program = feasibility._moment_program(10)
        starts = []
        real = sdp._start
        monkeypatch.setattr(sdp, "_start", lambda rows, b: starts.append(len(b)) or real(rows, b))
        decided = sdp.phase1_min_t(program, values, decide=True)
        assert starts == [len(values)]
        left = [i for i, p1 in enumerate(decided) if not p1.solution.message]
        assert 0 < len(left) < len(values)
        trace, b = sdp._standard_form(program, values[left])
        alone = sdp._path_following(program.rows, b, trace / 11)
        for i, sol in zip(left, alone):
            assert decided[i].solution.iterate_log == sol.iterate_log
            assert decided[i].solution.x.tobytes() == sol.x.tobytes()
