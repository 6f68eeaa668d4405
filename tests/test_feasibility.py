import gc
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinmoment
from spinmoment import feasibility, matcore, reduction, sdp, spinalg
from spinmoment.feasibility import (
    STATUS_BOUNDARY,
    STATUS_NON_QUANTUM,
    STATUS_QUANTUM,
)
from spinmoment.reduction import RenormalizedCoords
from spinmoment.scan import scan_grid
from spinmoment.spinalg import MomentMatrix

import symmetric_oracle
from first_moment_sdp import exact_test_first_moments
from outer_set import outer_test, tau_of_pair, tau_of_values
from conftest import (
    build_fixed_state,
    canonical,
    casimir_vector,
    first_moment_part,
    highest_weight_state,
    kernel_only,
    moment_operators,
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

    @pytest.mark.parametrize("two_j", [1, 4, 62])
    def test_just_outside_is_boundary_like_the_sdp(self, two_j):
        j = two_j / 2.0
        ell = np.array([0.0, 0.0, j * (1.0 + 1e-8)])
        closed = feasibility.first_moment_test(ell, two_j)
        via_sdp = exact_test_first_moments(ell, two_j)
        assert closed.status == via_sdp.status == STATUS_BOUNDARY
        assert closed.t_star is None
        t = 1e-8 / (two_j + 1)
        assert f"t_star = {t:.3e}" in closed.tests_run[-1].detail
        assert via_sdp.t_star == pytest.approx(t, abs=sdp.TOLERANCE)

    @pytest.mark.parametrize("two_j", [2, 3, 4, 10])
    def test_agrees_with_the_sdp_route(self, two_j):
        rng = np.random.default_rng(212 + two_j)
        j = two_j / 2.0
        for _ in range(40):
            direction = rng.standard_normal(3)
            ell = direction / np.linalg.norm(direction) * rng.uniform(0.0, 1.3 * j)
            closed = feasibility.first_moment_test(ell, two_j)
            assert closed.status == exact_test_first_moments(ell, two_j).status

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 10, 30, 62, 200])
    def test_reject_carries_the_optimal_witness(self, two_j):
        # Z = (1 - l^.L/j)/(2j+1): PSD, unit trace, value -t*; its coefficients,
        # 1/(2j+1) on I and -l^/(j(2j+1)) on L, reported canonical
        rng = np.random.default_rng(300 + two_j)
        j = two_j / 2.0
        ops = moment_operators(two_j)
        for _ in range(3):
            direction = rng.standard_normal(3)
            ell = direction / np.linalg.norm(direction) * j * rng.uniform(1.01, 1.5)
            v = feasibility.first_moment_test(ell, two_j)
            assert (v.status, v.t_star) == (STATUS_NON_QUANTUM, None)
            w = v.witness
            assert w.op_labels == spinalg.MOMENT_LABELS
            closed = np.zeros(10)
            closed[[0, 7, 8, 9]] = np.concatenate([[1.0], -ell / np.linalg.norm(ell) / j]) / (two_j + 1)
            assert np.abs(w.op_coefficients - canonical(closed, two_j)).max() <= 1e-15 * np.abs(closed).max()
            assert matcore.min_eigenvalue(w.matrix) >= -1e-9
            assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
            assert np.abs(np.tensordot(w.op_coefficients, ops, axes=1) - w.matrix).max() <= 1e-8
            assert w.value == pytest.approx((1.0 - np.linalg.norm(ell) / j) / (two_j + 1), abs=1e-12)
            if two_j <= 62:
                assert abs(w.value + exact_test_first_moments(ell, two_j).t_star) <= 1e-6

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


class TestCoherentState:
    @pytest.mark.parametrize("two_j", range(1, 21))
    def test_equals_the_top_eigenvector(self, two_j):
        rng = np.random.default_rng(700 + two_j)
        triple = spinalg.spin_operators(two_j)
        poles = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), np.array([1e-9, 0.0, -1.0])]
        for direction in poles + list(rng.standard_normal((6, 3))):
            n_hat = direction / np.linalg.norm(direction)
            l_n = n_hat[0] * triple.l1 + n_hat[1] * triple.l2 + n_hat[2] * triple.l3
            top = matcore.hermitian_eig(l_n)[1][:, -1]
            state = spinalg.coherent_state(direction, two_j)
            assert np.abs(np.outer(state, state.conj()) - np.outer(top, top.conj())).max() <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 7, 62, 1000])
    def test_certificate_reproduces_the_first_moments(self, two_j):
        rng = np.random.default_rng(800 + two_j)
        j = two_j / 2.0
        triple = spinalg.spin_operators(two_j)
        for ell in [np.array([0.0, 0.0, -j]), *(rng.standard_normal((3, 3)))]:
            ell = ell / np.linalg.norm(ell) * j * rng.uniform(0.2, 1.0)
            v = feasibility.first_moment_test(ell, two_j)
            assert v.accepted
            state = v.certificate_state
            assert np.array_equal(state, state.conj().T)
            assert abs(np.trace(state).real - 1.0) <= 1e-12
            moments = [matcore.hs_inner(state, lk) for lk in triple.as_list()]
            assert np.abs(np.array(moments) - ell).max() <= 1e-12 * j


class TestBuildFixedState:
    def test_zero_moments(self):
        state = build_fixed_state(np.zeros(3), 4)
        assert np.abs(state - np.eye(5) / 5.0).max() < 1e-14

    def test_first_moments_reproduced(self, rng):
        two_j = 7
        ell = rng.standard_normal(3)
        state = build_fixed_state(ell, two_j)
        triple = spinalg.spin_operators(two_j)
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)
        for lk, target in zip(triple.as_list(), ell):
            assert np.trace(lk @ state).real == pytest.approx(target, abs=1e-10)

    def test_boundary_of_positivity_at_j2(self):
        # PSD threshold sits at |l| = (j+1)/3 = 1 for j = 2
        state = build_fixed_state(np.array([0.0, 0.0, 1.0]), 4)
        assert matcore.min_eigenvalue(state) == pytest.approx(0.0, abs=1e-9)

    def test_open_part_needed_beyond_threshold(self):
        state = build_fixed_state(np.array([0.0, 0.0, 1.5]), 4)
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

    @pytest.mark.parametrize("two_j", [6, 30, 62])
    def test_certificate_is_the_phase1_primal(self, two_j):
        # X = Y - t*·1 for the solver's positive definite Y: lambda_min(X) >= -t*;
        # the random state has no frame and solves the complex program; the
        # Dicke mixture is axial, and its closed-form X' comes back as V^dag X' V
        rng = np.random.default_rng(1500 + two_j)
        ops = feasibility._moment_operator_set(two_j)
        d = two_j + 1
        dicke = dicke_mixture_moments(two_j, 1e-3)
        for m in (spinalg.moment_matrix(random_density(rng, d), spinalg.spin_operators(two_j)), dicke):
            v = feasibility.exact_test_direct(m)
            assert v.status == STATUS_QUANTUM
            x = v.certificate_state
            b = spinalg.moment_values(m)
            frame = feasibility._real_frame(b, two_j)
            assert (frame is not None) == (m is dicke)
            if frame is None:
                want = sdp.phase1_min_t(ops, b).x
            else:
                # X' = diag(q) - t*·1 with q on two levels, diag(q) = F^T F for the rows
                # F = sqrt(q_r) e_r: X = G^dag G - t*·1 over G = F V, two combinations of
                # rows of V; the dense V^dag X' V agrees to its own rounding
                kind, rot3, t = frame
                assert kind == "axial"
                (closed,) = feasibility._axial_optimum((t @ b)[feasibility._KEPT[kind]][None], two_j)
                q = np.diag(closed.solution.x)
                assert np.count_nonzero(q) == 2
                assert np.array_equal(closed.factor.T @ closed.factor != 0.0, np.diag(q != 0.0))
                assert np.abs(closed.factor.T @ closed.factor - closed.solution.x).max() <= 4.0 * np.finfo(float).eps * q.max()
                rows = feasibility._spin_rotation(rot3, two_j, closed.factor)
                want = rows.conj().T @ rows - closed.t_star * np.eye(d)
                want = (want + want.conj().T) / 2.0
                rot = feasibility._spin_rotation(rot3, two_j, np.eye(two_j + 1))
                dense = rot.conj().T @ closed.x @ rot
                assert np.abs(x - dense).max() <= 4.0 * d * np.finfo(float).eps * np.abs(closed.x).max()
            assert np.array_equal(x, want)
            assert matcore.min_eigenvalue(x) >= abs(v.t_star) - 1e-12
            assert abs(np.trace(x).real - 1.0) <= 1e-12
            if frame is None:
                # decided, the complex program is accepted by the factored stage: X is
                # its phase-1 primal V V^dag + tau·1 - dX, bit for bit
                decided = feasibility.exact_test_direct(m, decide=True)
                p1 = sdp.phase1_min_t(ops, b, decide=True)
                assert sdp.FACTORED in p1.solution.message and p1.solution.status == sdp.STATUS_PRIMAL_BOUND
                assert np.array_equal(decided.certificate_state, p1.x) and decided.t_star == p1.t_star
                assert matcore.min_eigenvalue(p1.x) >= -p1.t_star - 1e-12
                assert abs(np.trace(p1.x).real - 1.0) <= 1e-12
        # rotated highest-weight inputs sit on the boundary: X still meets every moment
        edge = spinalg.moment_matrix(highest_weight_state(two_j), spinalg.spin_operators(two_j))
        for _ in range(2):
            rot = random_so3(rng)
            m = MomentMatrix.from_matrix(two_j, rot @ edge.matrix @ rot.T)
            v = feasibility.exact_test_direct(m)
            assert v.status == STATUS_BOUNDARY
            b = spinalg.moment_values(m)
            got = np.einsum("kij,ji->k", ops, v.certificate_state).real
            assert np.all(np.abs(got - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))
            assert matcore.min_eigenvalue(v.certificate_state) >= -v.t_star - 1e-12

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
            m += first_moment_part(np.array([0.0, 0.0, r]))
            mm = MomentMatrix.from_matrix(two_j, m)
            sdp_says = feasibility.exact_test_direct(mm).accepted
            closed_form = feasibility.first_moment_test(
                np.array([0.0, 0.0, r]), two_j
            ).status
            assert sdp_says == (closed_form != STATUS_NON_QUANTUM)

    def test_works_at_spin_half(self):
        m = np.eye(3, dtype=complex) / 4.0
        m += first_moment_part(np.array([0.0, 0.0, 0.3]))
        mm = MomentMatrix.from_matrix(1, m)
        assert feasibility.exact_test_direct(mm).status == STATUS_QUANTUM
        m2 = np.eye(3, dtype=complex) / 4.0
        m2 += first_moment_part(np.array([0.0, 0.0, 0.51]))
        mm2 = MomentMatrix.from_matrix(1, m2)
        assert feasibility.exact_test_direct(mm2).status == STATUS_NON_QUANTUM


def iterations(verdict) -> int:
    """The SDP iteration count in the exact stage's detail."""
    (record,) = [r for r in verdict.tests_run if r.name == "exact"]
    return int(re.match(r"t_star = \S+, (\d+) iterations", record.detail).group(1))


class TestExactTestBatch:
    @staticmethod
    def figure_cells():
        """The moment matrices of the scan-figure cells in T but not R (15x15 grid)."""
        from spinmoment import scan

        u = np.array([0.1, 0.2, 0.3])
        res = scan.scan_grid(10, u, resolution=15, sets=("R", "T"))
        cells = np.argwhere((res.in_t == 1) & (res.in_r == 0))
        return [scan._moments(10, u, float(res.v1_values[a]), float(res.v2_values[b])) for a, b in cells]

    def test_matches_one_at_a_time_on_the_figure_cells(self):
        # the batch decides: each cell stops where its own decided solve stops,
        # with the verdict of the optimum
        ms = self.figure_cells()
        batch = feasibility.exact_test_batch(ms)
        assert len(batch) == len(ms) > 20
        assert {v.status for v in batch} == {STATUS_QUANTUM, STATUS_NON_QUANTUM}
        for got, m in zip(batch, ms):
            want = feasibility.exact_test_direct(m, decide=True)
            assert (got.status, got.stage) == (want.status, want.stage)
            assert got.status == feasibility.exact_test_direct(m).status
            assert got.t_star_kind == want.t_star_kind
            assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
            assert [r.name for r in got.tests_run] == [r.name for r in want.tests_run]
            assert iterations(got) == iterations(want)
            if want.witness is not None:
                assert abs(got.witness.value - want.witness.value) <= 1e-9 * abs(want.witness.value)
            if sdp.FACTORED in want.tests_run[0].detail:
                # a factored accept's arithmetic is its own: the batch changes no bit
                assert got.tests_run[0].detail == want.tests_run[0].detail
                assert got.t_star == want.t_star
                assert np.array_equal(got.certificate_state, want.certificate_state)
        assert sum(sdp.FACTORED in v.tests_run[0].detail for v in batch) > 20
        assert {v.t_star_kind for v in batch} >= {"primal bound", "dual bound"}
        again = feasibility.exact_test_batch(ms)
        assert [v.t_star for v in again] == [v.t_star for v in batch]

    def test_scan_cells_take_the_values_from_their_coordinates(self, monkeypatch):
        # the scan's exact cells build no moment matrix, and their flags are the
        # per-cell oracle's, which still builds one
        from spinmoment import scan

        u = np.array([0.1, 0.2, 0.3])
        res = scan.scan_grid(10, u, resolution=15, sets=("R", "T"))
        cells = np.argwhere((res.in_t == 1) & (res.in_r == 0))
        points = [(float(res.v1_values[a]), float(res.v2_values[b])) for a, b in cells]
        want = [scan._point_flags(10, u, v1, v2, True)[1] == 1 for v1, v2 in points]

        def no_matrix(*args):
            raise AssertionError("a moment matrix was built")

        monkeypatch.setattr(MomentMatrix, "from_matrix", no_matrix)
        accepted, seconds, (factored, kernel) = scan._exact_cells((10, u, points))
        assert accepted == want and len(seconds) == len(points)
        # no cell of the slice has a frame: each is a factored accept or a kernel solve
        assert factored + kernel == len(points) and 0 < factored <= sum(want)
        assert 0 < sum(want) < len(want)

    def test_one_spin_per_batch(self):
        assert feasibility.exact_test_batch([]) == []
        ms = [coords_matrix([0, 0, 0], [1 / 3, 1 / 3, 1 / 3], two_j) for two_j in (4, 6)]
        with pytest.raises(ValueError, match="one spin"):
            feasibility.exact_test_batch(ms)

    def test_conflicting_values_raise_as_alone(self):
        good = MomentMatrix.from_matrix(1, np.eye(3, dtype=complex) / 4.0)
        with pytest.raises(ValueError, match="conflict"):
            feasibility.exact_test_batch([good, TestConflictingValues.M])


class TestCapBeforeOperators:
    @pytest.mark.parametrize("two_j", [64, 1000])
    def test_over_cap_raises_before_any_spin_operator(self, two_j, monkeypatch):
        # every operator is a pair lift: the stack must check the cap before it lifts
        built = []
        lift, pair_adjoint = feasibility._lift, feasibility._pair_adjoint
        monkeypatch.setattr(feasibility, "_lift", lambda c, tj: built.append(tj) or lift(c, tj))
        monkeypatch.setattr(feasibility, "_pair_adjoint", lambda w, tj: built.append(tj) or pair_adjoint(w, tj))
        feasibility._moment_operator_set.cache_clear()
        feasibility._moment_program.cache_clear()
        j = two_j / 2.0
        m = MomentMatrix.from_matrix(two_j, np.diag([j * (j + 1) / 2, j * (j + 1) / 2, 0.0]).astype(complex))
        ell = np.zeros(3)
        calls = (
            lambda: feasibility.exact_test_direct(m),
            lambda: exact_test_first_moments(ell, two_j),
            lambda: feasibility.exact_test_batch([m]),
            lambda: feasibility.classify(m),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"cone dimension {two_j + 1} exceeds the cap"):
                call()
        assert built == []
        assert feasibility._moment_program.cache_info().currsize == 0

    def test_early_reject_over_the_cap_leaves_no_cached_operators(self):
        two_j = 100
        cached = feasibility._moment_operator_set.cache_info().currsize
        programs = feasibility._moment_program.cache_info().currsize
        for build, stage in ((negative_variance_moments, "chi"), (long_first_moment_moments, "first-moment")):
            v = feasibility.classify(build(two_j))
            assert (v.stage, v.status) == (stage, STATUS_NON_QUANTUM)
            assert v.witness.separates
            assert v.witness.matrix.shape == (two_j + 1, two_j + 1)
        assert feasibility._moment_operator_set.cache_info().currsize == cached
        assert feasibility._moment_program.cache_info().currsize == programs

    def test_early_reject_keeps_its_dense_witness_over_the_cap(self):
        two_j = 64
        v = feasibility.classify(negative_variance_moments(two_j))
        assert (v.stage, v.status) == ("chi", STATUS_NON_QUANTUM)
        assert v.witness.matrix.shape == (two_j + 1, two_j + 1)
        assert matcore.min_eigenvalue(v.witness.matrix) >= -1e-9
        assert v.witness.separates


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
        v2 = symmetric_oracle.symmetric_isometry(2)
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
        # the extension program has no qubit cap: it reproduces t* of the phase-1
        # program over the dense spin products at every 2j the solver allows,
        # and stops only at the cone cap sdp.DIM_CAP
        rng = np.random.default_rng(613)
        for two_j in (4, 13, 30, 62):
            dense = moment_operators(two_j)
            for raw in (dicke_mixture_moments(two_j), dicke_zero_moments(two_j, 0.1)):
                rot = random_so3(rng)
                m = MomentMatrix.from_matrix(two_j, rot @ raw.matrix @ rot.T)
                ext = feasibility.exact_test_extension(reduction.reconstruct_rho(m), two_j)
                want = sdp.phase1_min_t(dense, spinalg.moment_values(m)).t_star
                assert abs(want) > 1e-6
                assert ext.accepted == (want < 0.0)
                assert abs(ext.t_star - want) <= 1e-8
        with pytest.raises(ValueError, match="cone dimension 65 exceeds"):
            feasibility.exact_test_extension(np.eye(3, dtype=complex) / 3.0, 64)

    def test_entries_near_the_float_max_are_an_input_error(self):
        # finite, but (rho + rho^dag)/2 overflows: a ValueError, with no warning
        with pytest.raises(ValueError, match="reduced state is too large for float64 arithmetic"):
            feasibility.exact_test_extension(1e308 * np.eye(3), 4)

    @pytest.mark.parametrize("two_j", [2, 3, 4, 7, 10, 12])
    def test_closed_form_ops_match_oracle(self, two_j):
        basis3 = matcore.hermitian_basis(3)
        ops = feasibility._pair_adjoint(basis3, two_j)
        assert ops.shape == (9, two_j + 1, two_j + 1)
        for k, e in zip(ops, basis3):
            assert np.abs(k - symmetric_oracle.marginal_adjoint(e, two_j)).max() <= 1e-12

    def test_marginal_of_certificate_matches_input(self, rng):
        rho = random_density(rng, 3)
        while not reduction.ppt_inner_test(rho):
            rho = random_density(rng, 3)
        for two_j in (6, 10):
            v = feasibility.exact_test_extension(rho, two_j)
            assert v.accepted
            omega = symmetric_oracle.embed_spin_state(v.certificate_state, two_j)
            marg = symmetric_oracle.pair_marginal(omega, two_j)
            assert np.abs(marg - rho).max() < 1e-7

    @pytest.mark.parametrize("two_j", [4, 30, 62])
    def test_reject_carries_pair_witness(self, two_j):
        rng = np.random.default_rng(900 + two_j)
        ops = moment_operators(two_j)
        for f in (0.05, 0.1):
            rot = random_so3(rng)
            m = MomentMatrix.from_matrix(two_j, rot @ dicke_zero_moments(two_j, f).matrix @ rot.T)
            rho = reduction.reconstruct_rho(m)
            v = feasibility.exact_test_extension(rho, two_j)
            assert (v.stage, v.status) == ("extension", STATUS_NON_QUANTUM)
            w = v.witness
            assert w.op_labels == spinalg.MOMENT_LABELS
            assert matcore.min_eigenvalue(w.matrix) >= -1e-9
            assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
            assert abs(w.value + v.t_star) <= 1e-6
            assert np.abs(np.tensordot(w.op_coefficients, ops, axes=1) - w.matrix).max() <= 1e-8
            # the same coefficients over K_i are the pair operator W, <W, rho> = value
            pair = np.tensordot(w.op_coefficients, reduction.reduction_operators(two_j), axes=1)
            assert matcore.hs_inner(pair, rho) == pytest.approx(w.value, abs=1e-12)
            assert [r.name for r in v.tests_run] == ["extension", "witness"]


class TestOuterTest:
    def test_highest_weight_true_on_boundary(self):
        triple = spinalg.spin_operators(8)
        m = spinalg.moment_matrix(highest_weight_state(8), triple)
        assert outer_test(m)

    def test_maximally_mixed_true(self):
        triple = spinalg.spin_operators(4)
        m = spinalg.moment_matrix(np.eye(5, dtype=complex) / 5.0, triple)
        assert outer_test(m)

    def test_non_psd_reconstruction_fails_tau(self):
        # v2 < -1/3 drives <L2^2> negative, so tau (and chi, congruent to it) picks up a negative minor
        m = coords_matrix([0, 0, 0], [2.0, -0.5, -0.5], 4)
        rho = reduction.reconstruct_rho(m)
        assert matcore.min_eigenvalue(rho) < -1e-6  # per-instance premise
        assert matcore.min_eigenvalue(tau_of_values(m.values, 4)) < -matcore.PSD_TOL
        assert not outer_test(m)


class TestWitnessSearch:
    # the witness of an exact reject is the phase-1 dual of exact_test_direct
    def test_detects_overconcentrated_moments(self):
        m = coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)
        v = feasibility.exact_test_direct(m)
        t_star, w = v.t_star, v.witness
        assert w.value < 0.0
        assert w.separates
        assert abs(w.value + t_star) < 1e-6
        assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        assert np.trace(w.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_no_witness_for_maximally_mixed(self):
        triple = spinalg.spin_operators(4)
        m = spinalg.moment_matrix(np.eye(5, dtype=complex) / 5.0, triple)
        v = feasibility.exact_test_direct(m)
        assert v.witness is None
        assert v.t_star <= -1e-7

    def test_validity_sweep_over_random_quantum_points(self):
        rng = np.random.default_rng(99)
        m_bad = coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)
        w = feasibility.exact_test_direct(m_bad).witness
        triple = spinalg.spin_operators(4)
        for _ in range(100):
            m = spinalg.moment_matrix(random_density(rng, 5), triple)
            assert w.evaluate(spinalg.moment_values(m)) >= -1e-7

    def test_conflicting_values_are_an_input_error(self):
        # at j = 1/2 every L_k^2 is 1/4, so unequal diagonal moments conflict
        m = MomentMatrix.from_matrix(1, np.diag([0.3, 0.25, 0.2]).astype(complex))
        with pytest.raises(ValueError, match="conflict"):
            feasibility.exact_test_direct(m)

    def test_evaluate_rejects_values_of_another_operator_set(self):
        w = feasibility.exact_test_direct(coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], 4)).witness
        with pytest.raises(ValueError, match="expected 10 values"):
            w.evaluate(np.ones(4))

    def test_witness_matrix_consistent_with_coefficients(self):
        m = coords_matrix([0.1, 0.0, 0.4], [0.9, 0.2, -0.1], 6)
        w = feasibility.exact_test_direct(m).witness
        ops = moment_operators(6)
        rebuilt = sum(c * op for c, op in zip(w.op_coefficients, ops))
        assert np.abs(rebuilt - w.matrix).max() < 1e-8


class TestClassify:
    def test_maximally_mixed_accepted_at_inner_stage(self):
        triple = spinalg.spin_operators(10)
        m = spinalg.moment_matrix(np.eye(11, dtype=complex) / 11.0, triple)
        v = feasibility.classify(m)
        assert v.status == STATUS_QUANTUM
        assert v.stage == "inner"
        assert [r.name for r in v.tests_run] == ["validate", "first-moment", "chi", "reconstruct", "inner"]

    def test_chi_violation_rejected_before_reconstruction(self):
        v = feasibility.classify(negative_variance_moments(4))
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
        # at j = 1 the pair marginal is the state itself, so the reconstruct
        # stage decides: t* = -lambda_min(rho_j), and the certificate is rho_j
        # in the reversed (spin) order
        assert v.stage == "reconstruct"
        names = [r.name for r in v.tests_run]
        assert names == ["validate", "first-moment", "chi", "reconstruct"]
        # the chi stage is the outer (tau) test, so there is no separate one
        assert "outer" not in names
        assert v.t_star == pytest.approx(-matcore.min_eigenvalue(rho), abs=1e-12)
        assert abs(v.t_star - feasibility.exact_test_direct(m).t_star) <= 1e-7
        assert np.abs(v.certificate_state - rho[::-1, ::-1]).max() <= 1e-12
        check = spinalg.moment_matrix(v.certificate_state, spinalg.spin_operators(2))
        assert np.abs(check.matrix - m.matrix).max() <= 1e-12

    def test_tau_rejection_with_witness(self):
        # entangled state whose moments violate the 4x4 conditions at large j
        bell = np.zeros((3, 3), dtype=complex)
        bell[0, 0] = bell[2, 2] = bell[0, 2] = bell[2, 0] = 0.5
        rho = 0.97 * bell + 0.03 * np.eye(3) / 3.0
        m = moments_of_pair_state(rho, 12)
        assert matcore.min_eigenvalue(tau_of_values(m.values, 12)) < -matcore.PSD_TOL
        assert not outer_test(m)
        v = feasibility.classify(m)
        assert v.status == STATUS_NON_QUANTUM
        # chi and tau test the same condition (congruent matrices): the chi
        # stage is the outer test
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
            tau = tau_of_pair(reduction.reconstruct_rho(m), two_j)
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
            tau = tau_of_pair(reduction.reconstruct_rho(m), two_j)
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


def dicke_zero_moments(two_j, f):
    """<L3^2> = 0 forces |j,0>, whose L1/L2 moments are equal: not quantum for f > 0."""
    casimir = two_j / 2.0 * (two_j / 2.0 + 1.0)
    diag = np.diag([(0.5 + f) * casimir, (0.5 - f) * casimir, 0.0]).astype(complex)
    return MomentMatrix.from_matrix(two_j, diag)


def dicke_one_moments(two_j, f):
    """<L3^2> = l3^2 = 1 forces |j,1>, whose L1/L2 moments are equal: not quantum
    for f > 0.  Unlike Dicke-zero, l = (0, 0, 1) makes it a parity input, which
    the exact stage decides with one SDP (from 2j = 6 on; at 2j = 4 the
    reconstruct stage rejects it)."""
    casimir = two_j / 2.0 * (two_j / 2.0 + 1.0)
    diag = np.diag([(0.5 + f) * (casimir - 1.0), (0.5 - f) * (casimir - 1.0), 1.0]).astype(complex)
    return MomentMatrix.from_matrix(two_j, diag + first_moment_part([0.0, 0.0, 1.0]))


def dicke_mixture_moments(two_j, eps=0.01):
    """|j,0> (j integer) or |j,1/2> plus eps * I/d: quantum but pair-entangled."""
    triple = spinalg.spin_operators(two_j)
    d = triple.dim
    rho = (1.0 - eps) * np.diag(np.eye(d)[d // 2]).astype(complex) + eps * np.eye(d) / d
    return spinalg.moment_matrix(rho, triple)


def parity_mixture_moments(two_j, eps=0.01):
    """cos(0.3)|j,1> + sin(0.3)|j,-1> plus eps * I/d (integer j >= 1): quantum but
    pair-entangled, with l along the axis and unequal L1/L2 moments, a parity
    input the exact stage accepts with one SDP."""
    triple = spinalg.spin_operators(two_j)
    d = triple.dim
    psi = np.zeros(d)
    psi[two_j // 2 - 1], psi[two_j // 2 + 1] = np.cos(0.3), np.sin(0.3)
    rho = (1.0 - eps) * np.outer(psi, psi).astype(complex) + eps * np.eye(d) / d
    return spinalg.moment_matrix(rho, triple)


def long_first_moment_moments(two_j, excess=0.5):
    """|l| = j + excess > j: the first-moment stage rejects at every 2j."""
    j = two_j / 2.0
    m = np.diag([j / 2.0, j / 2.0, j * j]).astype(complex)
    m += first_moment_part(np.array([0.0, 0.0, j + excess]))
    return MomentMatrix.from_matrix(two_j, m)


def negative_variance_moments(two_j, frac=0.1):
    """l = 0 and <L1^2> = -e < 0 with e = frac j(j+1): the first moments pass,
    chi rejects, and its witness separates at every 2j."""
    casimir = two_j / 2.0 * (two_j / 2.0 + 1.0)
    e = frac * casimir
    return MomentMatrix.from_matrix(two_j, np.diag([-e, (casimir + e) / 2, (casimir + e) / 2]).astype(complex))


def forbid_dense_spin_matrices(monkeypatch, stage):
    """Make building the operator stack or any dense spin matrix fail the test."""

    def refuse(two_j):
        raise AssertionError(f"a {stage} witness built a dense spin-j operator")

    monkeypatch.setattr(feasibility, "_moment_operator_set", refuse)
    monkeypatch.setattr(spinalg, "spin_operators", refuse)


class TestOneSdpPerDecision:
    PATHS = {
        # path: (moments builder, expected stage, expected status, SDP solves)
        "inner-accept": (
            lambda tj: spinalg.moment_matrix(
                np.eye(tj + 1, dtype=complex) / (tj + 1), spinalg.spin_operators(tj)
            ),
            "inner", STATUS_QUANTUM, 0,
        ),
        "first-moment-reject": (long_first_moment_moments, "first-moment", STATUS_NON_QUANTUM, 0),
        "chi-reject": (negative_variance_moments, "chi", STATUS_NON_QUANTUM, 0),
        "reconstruct-reject": (
            lambda tj: coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], tj),
            "reconstruct", STATUS_NON_QUANTUM, 0,
        ),
        "exact-accept": (dicke_mixture_moments, "exact", STATUS_QUANTUM, 0),
        "exact-reject": (lambda tj: dicke_zero_moments(tj, 0.1), "exact", STATUS_NON_QUANTUM, 0),
        # figure-slice cells (u = (0.1, 0.2, 0.3)) with no frame: the complex program
        "frameless-accept": (lambda tj: coords_matrix([0.1, 0.2, 0.3], [-0.02, 0.46, 0.56], tj), "exact", STATUS_QUANTUM, 0),
        "frameless-reject": (
            lambda tj: coords_matrix([0.1, 0.2, 0.3], [-0.2, 0.28, 0.92] if tj == 4 else [-0.08, 0.22, 0.86], tj),
            "exact", STATUS_NON_QUANTUM, 1,
        ),
    }

    @staticmethod
    def count_calls(monkeypatch):
        """Record every sdp.solve and sdp.phase1_min_t call from here on, with
        whether it stops at a decided bound."""
        calls = []
        programs = []
        real_solve = sdp.solve
        real_phase1 = sdp.phase1_min_t

        def counting_solve(ops, b, *, shift=None):
            calls.append((ops, shift is not None))
            return real_solve(ops, b, shift=shift)

        def counting_phase1(ops, values, *, decide=False):
            programs.append((ops, decide))
            return real_phase1(ops, values, decide=decide)

        monkeypatch.setattr(sdp, "solve", counting_solve)
        monkeypatch.setattr(sdp, "phase1_min_t", counting_phase1)
        return calls, programs

    @pytest.mark.parametrize("two_j", [4, 10])
    @pytest.mark.parametrize("path", list(PATHS))
    def test_solve_count(self, monkeypatch, two_j, path):
        build, stage, status, expected = self.PATHS[path]
        m = build(two_j)
        calls, programs = self.count_calls(monkeypatch)
        v = feasibility.classify(m)
        assert (v.stage, v.status) == (stage, status)
        assert len(calls) == expected
        # at most one phase-1 program per decision: the solver's, none for the witness;
        # the frameless accept's is decided by the factored stage before any kernel solve
        assert len(programs) == (1 if path.startswith("frameless") else 0)
        # classify's exact stage stops at a decided bound, over the per-spin program
        assert all(decided for _, decided in calls + programs)
        assert all(ops is feasibility._moment_program(two_j) for ops, _ in programs)
        # the exact reject is four-block and the exact accept axial: each is decided
        # with no SDP, by the tangent/chord search and by the closed form
        if path.startswith("exact"):
            assert v.tests_run[-1 if v.accepted else -2].frame == ("axial" if v.accepted else "four-block")
        if path.startswith("frameless"):
            record = v.tests_run[-1 if v.accepted else -2]
            assert record.frame is None and (sdp.FACTORED in record.detail) == v.accepted

    @pytest.mark.parametrize("path", list(PATHS))
    def test_spin_one_solves_nothing(self, monkeypatch, path):
        # at 2j = 2 the pair marginal is the state: every path ends by the
        # reconstruct stage at the latest, with the status of the exact test
        build = self.PATHS[path][0]
        m = build(2)
        want = feasibility.exact_test_direct(m)
        calls, programs = self.count_calls(monkeypatch)
        v = feasibility.classify(m)
        assert calls == [] and programs == []
        assert v.stage in ("first-moment", "chi", "reconstruct")
        assert v.status == want.status
        if v.accepted:
            assert v.stage == "reconstruct"
            assert abs(v.t_star - want.t_star) <= 1e-7
            got = np.einsum("kij,ji->k", moment_operators(2), v.certificate_state).real
            assert np.abs(got - spinalg.moment_values(m)).max() <= 1e-12
            assert matcore.min_eigenvalue(v.certificate_state) == pytest.approx(-v.t_star, abs=1e-15)

    def test_bench_tracer_sees_the_solve(self, monkeypatch):
        # bench/run.py reads its sdp.solve.* metrics off these spans: the parity
        # reject solves one SDP, the four-block Dicke-zero none
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from tracing import Tracer

        for m, solves in ((dicke_one_moments(6, 0.1), 1), (dicke_zero_moments(4, 0.1), 0)):
            with Tracer(spinmoment) as tracer:
                v = spinmoment.feasibility.classify(m)
            assert (v.stage, v.status) == ("exact", STATUS_NON_QUANTUM)
            spans = [s for s in tracer.spans if s.name == "sdp.solve"]
            assert len(spans) == solves
            for span in spans:
                status, iterations = span.info
                # the exact stage stops once its dual bound clears the band
                assert status == sdp.STATUS_DUAL_BOUND and iterations > 0

    def test_spin_half_reject_solves_nothing(self, monkeypatch):
        ell = np.array([0.3, 0.0, 0.5])
        m = np.eye(3, dtype=complex) / 4.0
        m += first_moment_part(ell)
        m = MomentMatrix.from_matrix(1, m)
        calls, programs = self.count_calls(monkeypatch)
        v = feasibility.classify(m)
        assert (v.stage, v.status, v.t_star) == ("first-moment", STATUS_NON_QUANTUM, None)
        assert calls == [] and programs == []
        w = v.witness
        assert w.separates
        # the optimal first-moment witness: value = -t* = -(|l|/j - 1)/(2j+1)
        assert abs(w.value + (np.linalg.norm(ell) / 0.5 - 1.0) / 2.0) <= 1e-12
        assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
        ops = moment_operators(1)
        assert np.abs(np.tensordot(w.op_coefficients, ops, axes=1) - w.matrix).max() <= 1e-12

    @pytest.mark.parametrize("two_j", [4, 10, 30])
    def test_exact_reject_witness_is_phase1_dual(self, two_j):
        rng = np.random.default_rng(500 + two_j)
        ops = moment_operators(two_j)
        for f in (0.05, 0.1, 0.15):
            rot = random_so3(rng)
            m = dicke_zero_moments(two_j, f)
            m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
            v = feasibility.classify(m)
            assert (v.stage, v.status) == ("exact", STATUS_NON_QUANTUM)
            w = v.witness
            assert abs(w.value + v.t_star) <= 1e-6
            assert matcore.min_eigenvalue(w.matrix) >= -1e-9
            assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
            rebuilt = sum(c * op for c, op in zip(w.op_coefficients, ops))
            assert np.abs(rebuilt - w.matrix).max() <= 1e-8
            assert [r.name for r in v.tests_run][-2:] == ["exact", "witness"]

    @pytest.mark.parametrize("two_j", [4, 62])
    def test_exact_test_direct_reject_carries_its_witness(self, two_j):
        rng = np.random.default_rng(700 + two_j)
        ops = moment_operators(two_j)
        rot = random_so3(rng)
        m = dicke_zero_moments(two_j, 0.1)
        m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
        v = feasibility.exact_test_direct(m)
        assert (v.stage, v.status) == ("exact", STATUS_NON_QUANTUM)
        w = v.witness
        assert w.op_labels == spinalg.MOMENT_LABELS
        assert abs(w.value + v.t_star) <= 1e-6
        assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
        rebuilt = sum(c * op for c, op in zip(w.op_coefficients, ops))
        assert np.abs(rebuilt - w.matrix).max() <= 1e-8
        assert [r.name for r in v.tests_run] == ["exact", "witness"]


def rotated(m, rng):
    rot = random_so3(rng)
    return MomentMatrix.from_matrix(m.two_j, rot @ m.matrix @ rot.T)


class TestStageSeconds:
    """A phase-1 stage is timed with its solve, and no stage is counted twice."""

    @staticmethod
    def calls(m):
        rho = reduction.reconstruct_rho(m)
        return {
            "classify": (lambda: [feasibility.classify(m)], "exact"),
            "direct": (lambda: [feasibility.exact_test_direct(m)], "exact"),
            # parity and axial: one solve, and the axial input in closed form
            "batch": (lambda: feasibility.exact_test_batch([m, dicke_mixture_moments(m.two_j)]), "exact"),
            "extension": (lambda: [feasibility.exact_test_extension(rho, m.two_j)], "extension"),
            "first-moments": (
                lambda: [exact_test_first_moments(m.first_moments, m.two_j)], "exact-first-moment"
            ),
        }

    @pytest.mark.parametrize("entry", ["classify", "direct", "batch", "extension", "first-moments"])
    def test_the_stage_holds_its_solve(self, monkeypatch, entry):
        # a parity input, so every entry point solves one SDP (the four-block
        # Dicke-zero would solve none)
        m = dicke_one_moments(30, 0.1)
        call, stage = self.calls(m)[entry]
        spent = []
        real = sdp.phase1_min_t

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(sdp, "phase1_min_t", timed)
        t0 = time.perf_counter()
        verdicts = call()
        wall = time.perf_counter() - t0
        assert len(spent) == 1
        records = [r for v in verdicts for r in v.tests_run]
        assert sum(r.seconds for r in records if r.name == stage) >= 0.5 * sum(spent)
        assert sum(r.seconds for r in records) <= wall
        if entry == "classify":
            assert verdicts[0].stage == "exact"


class TestDecidedStop:
    """classify's exact stage stops at the first iterate whose primal or dual
    bound on t* clears the boundary band; exact_test_direct runs to the optimum.
    An axial input needs neither: its closed form is the optimum either way."""

    DETAIL = (
        r"t_star = \S+, \d+ iterations, gap \S+, "
        r"(real frame, (parity|four-block|axial), |factored, \|dX\|_F = \S+, )?(optimum|primal bound|dual bound)"
    )

    @staticmethod
    def families(two_j):
        """Rotated Dicke + eps I/d (exact accepts) and Dicke-zero (exact rejects)."""
        rng = np.random.default_rng(900 + two_j)
        ms = [dicke_mixture_moments(two_j, eps) for eps in (0.005, 0.02)]
        ms += [dicke_zero_moments(two_j, f) for f in (0.05, 0.15)]
        return [rotated(m, rng) for m in ms]

    @pytest.mark.parametrize("two_j", [4, 10, 30, 62])
    def test_verdict_and_evidence_against_the_optimum(self, two_j):
        ops = moment_operators(two_j)
        for m in self.families(two_j):
            got = feasibility.classify(m)
            want = feasibility.exact_test_direct(m)
            assert (got.status, got.stage) == (want.status, want.stage)
            assert want.t_star_kind == "optimum"
            (record,) = [r for r in got.tests_run if r.name == "exact"]
            assert re.fullmatch(self.DETAIL, record.detail)
            assert record.detail.endswith(got.t_star_kind)
            assert record.frame == ("axial" if got.status == STATUS_QUANTUM else "four-block")
            assert (iterations(got) == 0) == (got.status == STATUS_QUANTUM)
            b = spinalg.moment_values(m)
            if got.status == STATUS_NON_QUANTUM:
                # t_d <= t*: the witness is the dual iterate, value exactly -t_d
                assert got.t_star_kind == "dual bound"
                assert matcore.BOUNDARY_BAND < got.t_star <= want.t_star + 1e-9
                w = got.witness
                assert abs(w.value + got.t_star) <= 1e-12
                assert matcore.min_eigenvalue(w.matrix) >= -1e-9
                assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
                assert np.abs(np.tensordot(w.op_coefficients, ops, 1) - w.matrix).max() <= 1e-8
            else:
                # the axial accept is decided in closed form, at the optimum itself:
                # the certificate is q on the active facet's levels, shifted by t*
                assert got.status == STATUS_QUANTUM and got.t_star_kind == "optimum"
                assert got.t_star == want.t_star < -matcore.BOUNDARY_BAND
                assert np.array_equal(got.certificate_state, want.certificate_state)
                x = got.certificate_state
                assert matcore.min_eigenvalue(x) >= -got.t_star - 1e-12
                assert abs(np.trace(x).real - 1.0) <= 1e-12
                moments = np.einsum("kij,ji->k", ops, x).real
                assert np.all(np.abs(moments - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))

    def test_rejects_end_at_the_dual_look_ahead(self, monkeypatch):
        # a reject whose full predictor step already certifies a bound above the
        # band skips that iteration's step lengths and corrector: over the Dicke-one
        # rejects (parity, so the kernel decides them), two step-length tests per
        # iteration come to at most 30 calls (50 when each reject waits for an
        # iterate to clear the band); the parity accepts (the pair state of
        # parity_mixture_moments) are untouched by it, at most 64 calls.  Every
        # group makes step tests, so the counts cannot pass with no kernel at all
        calls = {}
        real = sdp._max_step
        key = None

        def counting(*args):
            calls[key] = calls.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(sdp, "_max_step", counting)
        for two_j in (6, 10, 30, 62):
            rng = np.random.default_rng(900 + two_j)
            accepts = [rotated(parity_mixture_moments(two_j, eps), rng) for eps in (0.005, 0.02)]
            rejects = [rotated(dicke_one_moments(two_j, f), rng) for f in (0.05, 0.15)]
            for status, group in ((STATUS_QUANTUM, accepts), (STATUS_NON_QUANTUM, rejects)):
                key = (status, two_j)
                for m in group:
                    v = feasibility.classify(m)
                    assert (v.status, v.stage) == (status, "exact")
                    assert [r.frame for r in v.tests_run if r.name == "exact"] == ["parity"]
                assert calls.get(key, 0) >= 1
        total = {status: sum(n for (s, _), n in calls.items() if s == status) for status in (STATUS_QUANTUM, STATUS_NON_QUANTUM)}
        assert total[STATUS_NON_QUANTUM] <= 30
        assert total[STATUS_QUANTUM] <= 64

    def test_fewer_iterations_at_the_cap(self):
        # the rejects; the axial accepts take 0 iterations either way
        for m in self.families(62)[2:]:
            assert iterations(feasibility.classify(m)) < iterations(feasibility.exact_test_direct(m))

    def test_iterations_at_the_cap(self, monkeypatch):
        # on the seed-1 verdicts-cap inputs the three dicke-zero exact verdicts are
        # four-block, decided by the tangent/chord search in at most 7 eigensolves
        # each (its "iterations"), and the three axial (dicke) ones in closed form:
        # no SDP at all
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        items = inputs.make_inputs(1, (62,), {"dicke": 3, "v-over-1": 3, "dicke-zero": 3})
        calls, programs = TestOneSdpPerDecision.count_calls(monkeypatch)
        verdicts = [feasibility.classify(MomentMatrix.from_matrix(it.two_j, it.matrix)) for it in items]
        assert calls == [] and programs == []
        exact = [v for v in verdicts if v.stage == "exact"]
        assert len(exact) == 6
        counts = [iterations(v) for v in exact if [r.frame for r in v.tests_run if r.name == "exact"] == ["four-block"]]
        assert len(counts) == 3
        assert max(counts) <= 7

    @pytest.mark.parametrize("two_j", [6, 30])
    def test_boundary_input_runs_to_the_optimum(self, two_j):
        # the rotated highest-weight state is axial (closed form); cos|j, j> + sin|j, j-1>,
        # on the lower chord through m = j and j - 1, has no frame and solves the SDP
        rng = np.random.default_rng(1700 + two_j)
        triple = spinalg.spin_operators(two_j)
        chord = np.zeros(two_j + 1, dtype=complex)
        chord[:2] = np.cos(0.4), np.sin(0.4)
        for state, frame in ((highest_weight_state(two_j), "axial"), (np.outer(chord, chord.conj()), None)):
            m = rotated(spinalg.moment_matrix(state, triple), rng)
            got = feasibility.exact_test_direct(m, decide=True)
            want = feasibility.exact_test_direct(m)
            assert got.tests_run[0].frame == frame
            assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind) == (
                STATUS_BOUNDARY, "optimum"
            )
            assert got.t_star == want.t_star
            assert np.array_equal(got.certificate_state, want.certificate_state)

    def test_batched_and_single_stop_together(self):
        ms = [m for two_j in (10,) for m in self.families(two_j)]
        ms += [dicke_mixture_moments(10, 0.2), coords_matrix([0, 0, 0], [0.9, 0.05, 0.05], 10)]
        ops = feasibility._moment_operator_set(10)
        values = np.stack([spinalg.moment_values(m) for m in ms])
        batch = sdp.phase1_min_t(ops, values, decide=True)
        for got, v in zip(batch, values, strict=True):
            single = sdp.phase1_min_t(ops, v, decide=True)
            assert got.solution.status == single.solution.status
            assert got.solution.iterations == single.solution.iterations
            assert abs(got.t_star - single.t_star) <= 1e-9 * abs(single.t_star)
            again = sdp.phase1_min_t(ops, v, decide=True)
            assert again.t_star == single.t_star and again.solution.iterate_log == single.solution.iterate_log
        assert {p.solution.status for p in batch} == {sdp.STATUS_PRIMAL_BOUND, sdp.STATUS_DUAL_BOUND}
        rerun = sdp.phase1_min_t(ops, values, decide=True)
        assert [p.t_star for p in rerun] == [p.t_star for p in batch]
        assert all(np.array_equal(a.x, b.x) for a, b in zip(rerun, batch))


class TestFactoredAccepts:
    """A decided one-block program meets the factored stage of
    ``sdp.phase1_min_t`` first: an accept proved by a rank-3 factor V, with the
    certificate V V^dag + tau·1 - dX and no kernel solve.  What it cannot prove
    falls through to the kernel, in input order."""

    U = (0.1, 0.2, 0.3)

    @classmethod
    def figure_values(cls, resolution):
        """The moment values of the figure-slice cells in T but not R."""
        res = scan_grid(10, cls.U, resolution=resolution, sets=("R", "T"))
        cells = np.argwhere((res.in_t == 1) & (res.in_r == 0))
        v1, v2 = res.v1_values[cells[:, 0]], res.v2_values[cells[:, 1]]
        return np.stack([reduction._coords_values(10, np.array(cls.U), (a, b, 1.0 - a - b)) for a, b in zip(v1, v2)])

    def test_figure_slice_flags_do_not_depend_on_the_stage(self, monkeypatch):
        res = scan_grid(10, self.U, resolution=41)
        exact = int(((res.in_t == 1) & (res.in_r == 0)).sum())
        assert res.s_factored > 0 and res.s_kernel > 0 and res.s_factored + res.s_kernel == exact
        monkeypatch.setattr(sdp, "FACTOR_STEPS", 0)
        kernel = scan_grid(10, self.U, resolution=41)
        assert (kernel.s_factored, kernel.s_kernel) == (0, exact)
        assert np.array_equal(res.in_s, kernel.in_s)

    def test_every_factored_accept_is_a_kernel_accept(self):
        # on the 41x41 figure slice each factored accept's optimum is below the band,
        # its bound t_p = ||dX||_F - tau lies between that optimum and the band (so
        # ||dX||_F < tau - band), and its certificate meets every value with
        # lambda_min >= -t_p
        values = self.figure_values(41)
        program = feasibility._moment_program(10)
        ops = moment_operators(10)
        decided = sdp.phase1_min_t(program, values, decide=True)
        factored = [i for i, p1 in enumerate(decided) if sdp.FACTORED in p1.solution.message]
        assert len(factored) > 200
        for i, optimum in zip(factored, sdp.phase1_min_t(program, values[factored])):
            p1 = decided[i]
            assert optimum.solution.status == sdp.STATUS_OPTIMAL
            assert optimum.t_star - 1e-8 <= p1.t_star < -matcore.BOUNDARY_BAND
            assert matcore.min_eigenvalue(p1.x) >= -p1.t_star - 1e-12
            got = np.einsum("kij,ji->k", ops, p1.x).real
            assert np.abs(got - values[i]).max() <= 1e-12 * np.abs(values[i]).max()

    @settings(max_examples=40, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        eps=st.floats(1e-2, 1.0),
        pure=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noisy_states_are_factored_accepts(self, two_j, eps, pure, seed):
        rng = np.random.default_rng(seed)
        d = two_j + 1
        if pure:
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        else:
            rho = random_density(rng, d)
        rho = (1.0 - eps) * rho + eps * np.eye(d) / d
        m = spinalg.moment_matrix(rho, spinalg.spin_operators(two_j))
        b = spinalg.moment_values(m)
        assume(feasibility._real_frame(b, two_j) is None)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            real = sdp._path_following
            patch.setattr(sdp, "_path_following", lambda *a, **k: calls.append(a) or real(*a, **k))
            v = feasibility.exact_test_direct(m, decide=True)
        assert calls == []
        assert (v.status, v.t_star_kind) == (STATUS_QUANTUM, "primal bound")
        (record,) = v.tests_run
        assert re.fullmatch(TestDecidedStop.DETAIL, record.detail) and sdp.FACTORED in record.detail
        x = v.certificate_state
        assert matcore.min_eigenvalue(x) >= 0.0
        assert abs(np.trace(x).real - 1.0) <= 1e-12
        got = np.einsum("kij,ji->k", moment_operators(two_j), x).real
        assert np.abs(got - b).max() <= 1e-9 * np.abs(b).max()

    def test_only_the_leftovers_reach_the_kernel(self, monkeypatch):
        # an empty batch, a batch of accepts and a single accept call no kernel; the
        # leftovers of a mixed batch go to it in input order, as one chunk
        values = self.figure_values(15)
        program = feasibility._moment_program(10)
        accepts = [i for i, p1 in enumerate(sdp.phase1_min_t(program, values, decide=True)) if p1.solution.message]
        calls = []
        for name in ("solve", "_path_following"):
            real = getattr(sdp, name)
            monkeypatch.setattr(sdp, name, lambda *a, _real=real, _name=name, **k: calls.append((_name, a)) or _real(*a, **k))
        assert feasibility._phase1_verdicts("exact", 4, np.empty((0, 10)), decide=True) == []
        assert sdp.phase1_min_t(program, np.empty((0, 10)), decide=True) == []
        assert len(sdp.phase1_min_t(program, values[accepts], decide=True)) == len(accepts)
        assert sdp.FACTORED in sdp.phase1_min_t(program, values[accepts[0]], decide=True).solution.message
        assert calls == []
        sdp.phase1_min_t(program, values, decide=True)
        ((name, (rows, b, shifts)),) = calls
        left = [i for i in range(len(values)) if i not in accepts]
        assert name == "_path_following" and np.array_equal(b, sdp._standard_form(program, values[left])[1])


class TestFirstMomentStage:
    """classify compares |l| with j first at every spin: a reject carries the
    optimal first-moment witness, built as a band, and solves no SDP."""

    CASES = [(62, 0.5), (400, 10.0), (400, 0.5), (1000, 0.5), (1000, 10.0)]

    @pytest.mark.parametrize("two_j, excess", CASES)
    def test_rejects_long_first_moments_at_every_spin(self, monkeypatch, two_j, excess):
        rng = np.random.default_rng(2600 + two_j)
        m = rotated(long_first_moment_moments(two_j, excess), rng)
        d, j = two_j + 1, two_j / 2.0
        oracle = moment_operators(two_j) if two_j <= 400 else None
        calls, programs = TestOneSdpPerDecision.count_calls(monkeypatch)
        forbid_dense_spin_matrices(monkeypatch, "first-moment")
        v = feasibility.classify(m)
        monkeypatch.undo()
        assert calls == [] and programs == []
        assert (v.stage, v.status, v.t_star) == ("first-moment", STATUS_NON_QUANTUM, None)
        assert [(r.name, r.outcome) for r in v.tests_run] == [
            ("validate", "pass"), ("first-moment", "reject"), ("witness", "found")
        ]
        w = v.witness
        assert w.separates
        assert w.value == pytest.approx((1.0 - (j + excess) / j) / d, abs=1e-12)
        assert w.value == w.evaluate(spinalg.moment_values(m))
        assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
        closed = np.zeros(10)
        closed[[0, 7, 8, 9]] = np.concatenate([[1.0], -m.first_moments / np.linalg.norm(m.first_moments) / j]) / d
        assert np.abs(w.op_coefficients - canonical(closed, two_j)).max() <= 1e-15 * np.abs(closed).max()
        if oracle is not None:
            assert np.abs(np.tensordot(w.op_coefficients, oracle, axes=1) - w.matrix).max() <= 1e-12
            assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        if two_j <= 62:
            want = exact_test_first_moments(m.first_moments, two_j)
            assert abs(w.value + want.t_star) <= 1e-7

    @pytest.mark.parametrize("two_j", [2, 3, 4, 10])
    def test_matches_the_closed_form_test(self, two_j):
        # the same witness as first_moment_test's, and the same verdict as the
        # SDP route whenever the stage rejects
        rng = np.random.default_rng(2700 + two_j)
        j = two_j / 2.0
        for _ in range(5):
            m = rotated(long_first_moment_moments(two_j, rng.uniform(0.05, 1.0) * j), rng)
            v = feasibility.classify(m)
            closed = feasibility.first_moment_test(m.first_moments, two_j)
            assert (v.stage, v.status) == ("first-moment", closed.status) == ("first-moment", STATUS_NON_QUANTUM)
            assert np.array_equal(v.witness.op_coefficients, closed.witness.op_coefficients)
            assert np.array_equal(v.witness.matrix, closed.witness.matrix)
            assert feasibility.exact_test_direct(m).status == STATUS_NON_QUANTUM

    def test_passing_inputs_record_the_stage(self):
        v = feasibility.classify(negative_variance_moments(10))
        assert [r.name for r in v.tests_run] == ["validate", "first-moment", "chi", "witness"]
        record = v.tests_run[1]
        assert (record.name, record.outcome) == ("first-moment", "pass")
        assert record.detail == "|l| = 0, j = 5, t_star = -9.091e-02"

    def test_reject_at_two_j_1000_is_small_in_a_fresh_process(self):
        # the witness is a band lift: no spin matrix or operator stack is built
        code = """
import resource, sys
import numpy as np
from spinmoment import feasibility, spinalg
two_j, j = 1000, 500.0
m = np.diag([j / 2, j / 2, j * j]).astype(complex)
m += np.tensordot([0.0, 0.0, j + 0.5], spinalg.CHI_PATTERN[7:, 1:, 1:], 1)
m = spinalg.MomentMatrix.from_matrix(two_j, m)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
v = feasibility.classify(m)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert v.stage == "first-moment" and v.witness.separates
print((after - before) / 1024.0)
"""
        src = str(Path(spinmoment.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert float(done.stdout) < 20.0


class TestEarlyRejectWitness:
    # (moments builder, stage it rejects at): v1 > 1 leaves chi PSD, but at
    # 2j >= 30 the v = (1.2, -0.1, -0.1) point has <L2^2> < 0 and fails chi first
    BUILDERS = (
        (negative_variance_moments, lambda tj: "chi"),
        (
            lambda tj: coords_matrix([0, 0, 0], [1.2, -0.1, -0.1], tj),
            lambda tj: "reconstruct" if tj <= 10 else "chi",
        ),
        (lambda tj: coords_matrix([0, 0, 0], [1.02, -0.01, -0.01], tj), lambda tj: "reconstruct"),
    )

    @pytest.mark.parametrize("two_j", [2, 3, 4, 7, 10, 30, 62])
    def test_closed_form_witness_separates(self, two_j):
        rng = np.random.default_rng(900 + two_j)
        ops = moment_operators(two_j)
        for build, stage_at in self.BUILDERS:
            for _ in range(2):
                rot = random_so3(rng)
                m = build(two_j)
                m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
                v = feasibility.classify(m)
                assert (v.stage, v.status, v.t_star) == (stage_at(two_j), STATUS_NON_QUANTUM, None)
                w = v.witness
                assert matcore.min_eigenvalue(w.matrix) >= -1e-9
                assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
                rebuilt = sum(c * op for c, op in zip(w.op_coefficients, ops))
                assert np.abs(rebuilt - w.matrix).max() <= 1e-8
                assert w.value < 0
                assert w.value == w.evaluate(spinalg.moment_values(m))
                assert feasibility.exact_test_direct(m).witness.value < 0

    @pytest.mark.parametrize("two_j", [4, 62, 200, 400])
    def test_chi_witness_in_closed_form(self, two_j, monkeypatch):
        rng = np.random.default_rng(950 + two_j)
        rot = random_so3(rng)
        m = negative_variance_moments(two_j)
        m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
        chi = spinalg.chi_matrix(m)
        # the oracle: c over the dense ten-operator stack, normalized by its traces
        ops = moment_operators(two_j)
        vec = np.linalg.eigh(chi)[1][:, 0]
        c = np.einsum("a,iab,b->i", vec.conj(), spinalg.CHI_PATTERN, vec).real
        c = canonical(c / float(c @ np.einsum("iaa->i", ops).real), two_j)
        forbid_dense_spin_matrices(monkeypatch, "chi")
        v = feasibility.classify(m)
        assert (v.stage, v.status) == ("chi", STATUS_NON_QUANTUM)
        w = v.witness
        assert np.abs(w.op_coefficients - c).max() <= 1e-12 * np.abs(c).max()
        assert abs(w.value - float(c @ spinalg.moment_values(m))) <= 1e-12
        assert np.abs(np.tensordot(c, ops, axes=1) - w.matrix).max() <= 1e-12
        assert w.separates

    @pytest.mark.parametrize("two_j", [4, 62, 200, 400])
    def test_reconstruct_witness_in_closed_form(self, two_j, monkeypatch):
        rng = np.random.default_rng(970 + two_j)
        rot = random_so3(rng)
        m = coords_matrix([0, 0, 0], [1.005, -0.0025, -0.0025], two_j)
        m = MomentMatrix.from_matrix(two_j, rot @ m.matrix @ rot.T)
        rho = reduction.reconstruct_rho(m)
        # the oracle: c_i = v^dag R_i v over the dense ten-operator stack, normalized by its traces
        ops = moment_operators(two_j)
        vec = np.linalg.eigh(rho)[1][:, 0]
        c = np.einsum("a,iab,b->i", vec.conj(), reduction._reconstruction_system(two_j), vec).real
        c = canonical(c / float(c @ np.einsum("iaa->i", ops).real), two_j)
        forbid_dense_spin_matrices(monkeypatch, "reconstruct")
        v = feasibility.classify(m)
        assert (v.stage, v.status) == ("reconstruct", STATUS_NON_QUANTUM)
        w = v.witness
        assert np.abs(w.op_coefficients - c).max() <= 1e-12 * np.abs(c).max()
        assert abs(w.value - float(c @ spinalg.moment_values(m))) <= 1e-12
        assert np.abs(np.tensordot(c, ops, axes=1) - w.matrix).max() <= 1e-12
        assert w.separates

    def test_reconstruct_reject_over_the_cap(self):
        two_j = 400
        cached = feasibility._moment_operator_set.cache_info()
        v = feasibility.classify(coords_matrix([0, 0, 0], [1.005, -0.0025, -0.0025], two_j))
        assert (v.stage, v.status, v.t_star) == ("reconstruct", STATUS_NON_QUANTUM, None)
        w = v.witness
        assert w.value == pytest.approx(-1.87e-5, rel=1e-2)
        assert w.separates
        assert abs(np.trace(w.matrix).real - 1.0) <= 1e-9
        assert matcore.min_eigenvalue(w.matrix) >= -1e-9
        assert feasibility._moment_operator_set.cache_info() == cached


    @pytest.mark.parametrize("two_j", [1, 4, 62])
    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-3])
    def test_reject_only_with_separating_witness(self, two_j, eps):
        # |l| = j(1 + eps) along z: just outside the first-moment ball
        j = two_j / 2.0
        l3 = j * (1.0 + eps)
        if two_j == 1:
            m = np.eye(3, dtype=complex) / 4.0
        else:
            off = (j * (j + 1.0) - l3**2) / 2.0
            m = np.diag([off, off, l3**2]).astype(complex)
        m += first_moment_part(np.array([0.0, 0.0, l3]))
        m = MomentMatrix.from_matrix(two_j, m)
        v = feasibility.classify(m)
        assert v.status == feasibility.exact_test_direct(m).status
        if v.status == STATUS_NON_QUANTUM:
            assert v.witness.separates
        if eps == 1e-8:
            assert v.status == STATUS_BOUNDARY
            # at j = 1/2 the first-moment stage's t* band decides; above, chi's witness is inside the band
            decided_by = ("first-moment", "boundary") if two_j == 1 else ("witness", "inside band")
            assert decided_by in [(r.name, r.outcome) for r in v.tests_run]


class TestConflictingValues:
    # at j = 1/2 every L_k^2 is 1/4, so unequal diagonal moments conflict
    M = MomentMatrix.from_matrix(1, np.diag([0.3, 0.25, 0.2]).astype(complex))

    @pytest.mark.parametrize("decide", [feasibility.exact_test_direct, feasibility.classify])
    def test_every_entry_point_raises(self, decide):
        with pytest.raises(ValueError):
            decide(self.M)


class TestNonFiniteInput:
    """The raw-array entry points name a non-finite entry instead of returning
    a NaN certificate or witness or failing inside LAPACK."""

    @pytest.mark.parametrize(
        "ell, named",
        [([np.nan, 0.0, 0.0], r"l\[0\] = nan"), ([0.1, 0.2, -np.inf], r"l\[2\] = -inf")],
        ids=["nan", "-inf"],
    )
    def test_first_moment_test(self, ell, named):
        with pytest.raises(ValueError, match=f"first moments has non-finite entries: {named}"):
            feasibility.first_moment_test(np.array(ell), 3)

    @pytest.mark.parametrize(
        "ell, named",
        [([np.nan, 0.0, 0.0], r"l\[0\] = nan"), ([0.0, np.inf, 0.0], r"l\[1\] = inf")],
        ids=["nan", "inf"],
    )
    def test_exact_test_first_moments(self, ell, named):
        with pytest.raises(ValueError, match=f"first moments has non-finite entries: {named}"):
            exact_test_first_moments(np.array(ell), 3)

    @pytest.mark.parametrize(
        "u, named",
        [([np.nan, 0.0, 0.0], r"u\[0\] = nan"), ([0.0, 0.0, np.inf], r"u\[2\] = inf")],
        ids=["nan", "inf"],
    )
    def test_scan_grid(self, u, named):
        # checked before any arithmetic: no RuntimeWarning, no empty regions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"first moments has non-finite entries: {named}"):
                scan_grid(10, np.array(u), resolution=5)

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "off-diagonal"])
    def test_exact_test_extension(self, entry):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[entry] = np.nan
        named = rf"rho\[{entry[0]}\]\[{entry[1]}\] = \(?nan"
        with pytest.raises(ValueError, match=f"reduced state has non-finite entries: {named}"):
            feasibility.exact_test_extension(rho, 4)


class TestFirstMomentShape:
    @pytest.mark.parametrize("entry", [feasibility.first_moment_test, exact_test_first_moments])
    @pytest.mark.parametrize("shape", [(2,), (1, 3), (4,)])
    def test_first_moments_must_be_a_3_vector(self, entry, shape):
        with pytest.raises(ValueError, match="first moments must be a real 3-vector"):
            entry(np.full(shape, 0.1), 3)


dense_moment_operators = lru_cache(maxsize=8)(moment_operators)  # 2j = 400 is 26 MB


class TestPairLiftStack:
    """Every measured operator is built as a pair lift, with no spin matrix;
    the dense spin products of ``conftest.moment_operators`` are the partner."""

    def test_stack_matches_dense_spin_products(self):
        for two_j in range(1, 64):
            got, want = feasibility._moment_operator_set(two_j), moment_operators(two_j)
            scale = np.abs(want).max(axis=(1, 2))
            assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-15 * scale), two_j

    @settings(max_examples=40, deadline=None)
    @given(two_j=st.one_of(st.integers(2, 63), st.sampled_from([100, 400])), seed=st.integers(0, 2**32 - 1))
    def test_lift_is_the_dense_sum(self, two_j, seed):
        # _lift(c) = sum_i c_i A_i for any c, above the SDP cap too
        c = np.random.default_rng(seed).standard_normal((2, len(spinalg.MOMENT_LABELS)))
        ops = dense_moment_operators(two_j)
        want = np.tensordot(c, ops, 1)
        scale = np.abs(c) @ np.abs(ops).max(axis=(1, 2))
        err = np.abs(feasibility._lift(c, two_j) - want).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * scale)

    def test_decision_paths_build_no_spin_operators(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        spins = (4, 10, 30, 62)
        items = inputs.make_inputs(21, spins, {family: 1 for family in inputs.FAMILIES})
        pair = random_density(np.random.default_rng(2100), 3)

        def refuse(two_j):
            raise AssertionError("a decision path built the dense spin operators")

        monkeypatch.setattr(spinalg, "spin_operators", refuse)
        feasibility._moment_operator_set.cache_clear()
        feasibility._moment_program.cache_clear()
        for two_j in spins:
            at = [it for it in items if it.two_j == two_j]
            ms = [MomentMatrix.from_matrix(two_j, it.matrix) for it in at]
            assert {it.family for it in at} == set(inputs.FAMILIES)
            assert [feasibility.classify(m).status for m in ms] == [it.expect for it in at]
            assert [v.status for v in feasibility.exact_test_batch(ms)] == [it.expect for it in at]
            assert [feasibility.exact_test_direct(m).status for m in ms] == [it.expect for it in at]
            ext = feasibility.exact_test_extension(pair, two_j)
            assert ext.status == feasibility.exact_test_direct(moments_of_pair_state(pair, two_j)).status
        result = scan_grid(10, np.array([0.1, 0.2, 0.3]), resolution=21)
        assert ((result.in_t == 1) & (result.in_r == 0)).any()
        assert result.area("R") <= result.area("S") <= result.area("T")


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
        m += first_moment_part(np.array([0.0, 0.0, 0.6]))
        mm = MomentMatrix.from_matrix(1, m)
        v = feasibility.classify(mm)
        assert v.status == STATUS_NON_QUANTUM
        assert v.witness is not None
        assert v.witness.value < 0

    @pytest.mark.parametrize("ell", [[0.1, 0.2, 0.3], [0.0, 0.0, 0.5], [0.0, 0.6, 0.0]])
    def test_classify_runs_the_first_moment_stage_itself(self, monkeypatch, ell):
        # the stage after the structure check is first_moment_test's, run by classify
        # itself: same verdict, evidence and stage rows, with no call to it
        mm = MomentMatrix.from_matrix(1, np.eye(3, dtype=complex) / 4.0 + first_moment_part(np.array(ell)))
        want = feasibility.first_moment_test(mm.first_moments, 1)

        def forbidden(*args):
            raise AssertionError("classify called first_moment_test")

        monkeypatch.setattr(feasibility, "first_moment_test", forbidden)
        v = feasibility.classify(mm)
        assert (v.status, v.stage, v.t_star, v.t_star_kind) == (want.status, want.stage, None, None)
        rows = [(r.name, r.outcome, r.detail) for r in v.tests_run]
        assert rows == [("validate", "pass", ""), ("structure", "pass", "second moments forced at j=1/2")] + [
            (r.name, r.outcome, r.detail) for r in want.tests_run
        ]
        if want.witness is None:
            assert v.witness is None and np.array_equal(v.certificate_state, want.certificate_state)
        else:
            assert v.certificate_state is None
            assert np.array_equal(v.witness.matrix, want.witness.matrix)
            assert np.array_equal(v.witness.op_coefficients, want.witness.op_coefficients)


def frame_moments(two_j, construction, rng):
    """A moment matrix under a random rotation: l = 0 or l along a principal axis
    of Re(M), which have a frame; or a degenerate pair of Re(M) with any l, which
    has none.  The values are spread over both verdicts."""
    j = two_j / 2.0
    casimir = j * (j + 1.0)
    v = rng.dirichlet(np.ones(3)) * 1.4 - 0.4 / 3.0  # sum(v) = 1, some v_k < 0 or > 1
    ell = np.zeros(3)
    if construction == "axis":
        ell[2] = rng.uniform(-1.05, 1.05) * j
    elif construction == "pair":
        v[1] = v[0] = (1.0 - v[2]) / 2.0
        ell = rng.standard_normal(3)
        ell *= rng.uniform(0.0, 1.05) * j / np.linalg.norm(ell)
    m = np.diag(v * casimir).astype(complex) + first_moment_part(ell)
    return rotated(MomentMatrix.from_matrix(two_j, m), rng)


def complex_verdict(m, decide=True):
    """The verdict of the complex program over all ten operators, solved by the
    kernel alone (no factored accept stage) and read as ``exact_test_direct``
    reads its own."""
    b = spinalg.moment_values(m)
    with pytest.MonkeyPatch.context() as patch:
        kernel_only(patch)
        p1 = sdp.phase1_min_t(feasibility._moment_program(m.two_j), b, decide=decide)
    return feasibility._read_phase1(p1, m.two_j, b, "exact", feasibility._StageLog())


def assert_same_t_star(got, want, m):
    """A verdict against the complex program's decided kernel one, ``want``: a
    blocked solve follows it iteration for iteration to the same t*; a
    four-block verdict is decided with no SDP (``feasibility._four_block_optimum``),
    and so is a factored accept of the complex program (``sdp._factored_accepts``),
    so its bound lies between the band and the complex optimum, and its optimum
    is that optimum to the kernel's 1e-8 gap."""
    if got.tests_run[0].frame != "four-block" and sdp.FACTORED not in got.tests_run[0].detail:
        assert iterations(got) == iterations(want)
        assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
        return
    optimum = complex_verdict(m, decide=False).t_star
    if got.t_star_kind == "dual bound":
        assert matcore.BOUNDARY_BAND < got.t_star <= optimum + 1e-9
    elif got.t_star_kind == "primal bound":
        assert optimum - 1e-8 <= got.t_star < -matcore.BOUNDARY_BAND
    else:
        assert abs(got.t_star - optimum) <= 1e-8


def bench_evidence():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import evidence
    finally:
        sys.path.pop(0)
    return evidence


class TestRealFrame:
    """Inputs with a frame solve in it, with the same verdict as the complex
    program and evidence stated in the input's frame; a principal axis of Re(M)
    perpendicular to l alone is no frame, and such inputs solve the complex one."""

    @settings(max_examples=40, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        construction=st.sampled_from(["zero", "axis", "pair"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_verdict_as_the_complex_program(self, two_j, construction, seed):
        rng = np.random.default_rng(seed)
        m = frame_moments(two_j, construction, rng)
        b = spinalg.moment_values(m)
        framed = construction != "pair"
        assert (feasibility._real_frame(b, two_j) is not None) == framed
        got = feasibility.exact_test_direct(m, decide=True)
        want = complex_verdict(m)
        assert ("real frame" in got.tests_run[0].detail) == framed
        assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind)
        assert_same_t_star(got, want, m)
        evidence = bench_evidence()
        if got.status == STATUS_QUANTUM:
            assert evidence.check_certificate(got.certificate_state, two_j, b) is None
        elif got.status == STATUS_NON_QUANTUM:
            assert evidence.check_witness(got.witness, two_j, b) is None

    def test_generic_inputs_have_no_frame(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        rng = np.random.default_rng(2800)
        ms = [
            MomentMatrix.from_matrix(it.two_j, it.matrix)
            for seed in (1, 2, 3)
            for it in inputs.make_inputs(seed, (4, 10, 30, 62), {"coherent": 2, "v-over-1": 2})
        ]
        ms += [spinalg.moment_matrix(random_density(rng, tj + 1), spinalg.spin_operators(tj)) for tj in (4, 10, 30, 62)]
        for m in ms:
            assert feasibility._real_frame(spinalg.moment_values(m), m.two_j) is None
        for m in ms[-4:]:
            assert "real frame" not in feasibility.exact_test_direct(m).tests_run[0].detail

    @pytest.mark.parametrize("two_j", [1, 2, 3, 10, 63])
    def test_spin_rotation_represents_the_rotation(self, two_j):
        rng = np.random.default_rng(2900 + two_j)
        ls = moment_operators(two_j)[7:]
        half_turns = [np.diag(s) for s in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
        for rot in [np.eye(3), *half_turns, *(random_so3(rng) for _ in range(4))]:
            v = feasibility._spin_rotation(rot, two_j, np.eye(two_j + 1))
            assert np.abs(v.conj().T @ v - np.eye(two_j + 1)).max() <= 1e-12
            # the rows a parity accept turns back through: Q^T V, as r = d combinations
            q = feasibility._frame_basis("parity", two_j)
            assert np.abs(feasibility._spin_rotation(rot, two_j, q.T) - q.T @ v).max() <= 1e-13
            got = v.conj().T @ ls @ v
            assert np.abs(got - np.tensordot(rot, ls, 1)).max() <= 1e-9 * two_j

    @staticmethod
    def witnesses(two_j, rng):
        """A witness of every stage, the exact one from the real-frame and the
        complex program, and the extension program's."""
        found = [
            (feasibility.classify(rotated(long_first_moment_moments(two_j), rng)), "first-moment"),
            (feasibility.classify(rotated(negative_variance_moments(two_j), rng)), "chi"),
            (feasibility.classify(rotated(coords_matrix([0, 0, 0], [1.02, -0.01, -0.01], two_j), rng)), "reconstruct"),
            (feasibility.exact_test_direct(rotated(dicke_zero_moments(two_j, 0.1), rng)), "exact"),
            (feasibility.exact_test_direct(coords_matrix([0.2, -0.1, 0.3], [1.1, -0.04, -0.06], two_j)), "exact"),
        ]
        for verdict, stage in found:
            assert (verdict.stage, verdict.status) == (stage, STATUS_NON_QUANTUM)
        assert ["real frame" in v.tests_run[0].detail for v, _ in found[3:]] == [True, False]
        bell = np.zeros((3, 3), dtype=complex)
        bell[[0, 0, 2, 2], [0, 2, 0, 2]] = 0.5
        extension = feasibility.exact_test_extension(bell, two_j)
        assert extension.status == STATUS_NON_QUANTUM
        return [v.witness for v, _ in found] + [extension.witness]

    @pytest.mark.parametrize("two_j", [4, 10, 30, 62])
    def test_witness_coefficients_are_canonical(self, two_j):
        # c.r = 0 for the Casimir vector r, and Z = sum_i c_i A_i as before
        rng = np.random.default_rng(3000 + two_j)
        r = casimir_vector(two_j)
        ops = moment_operators(two_j)
        for w in self.witnesses(two_j, rng):
            c = w.op_coefficients
            assert abs(c @ r) <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(r)
            assert np.abs(feasibility._lift(c, two_j) - w.matrix).max() <= 1e-12
            assert np.abs(np.tensordot(c, ops, 1) - w.matrix).max() <= 1e-12 * max(1.0, two_j)

    @pytest.mark.parametrize("two_j", [4, 10, 30, 62])
    def test_frame_and_complex_witnesses_agree(self, two_j):
        # Dicke-zero is four-block: its witness is a tangent of the search, not the
        # complex program's dual point.  At the optimum each value is within the
        # stopping gap, sdp.TOLERANCE = 1e-8, of -t*; the value of a tangent falls off
        # quadratically in its angle from the optimal one, so the two coefficient
        # vectors agree to about sqrt(1e-8) relative (at most 1e-4 seen), checked to
        # ten times that.  Each decided one separates
        rng = np.random.default_rng(3100 + two_j)
        evidence = bench_evidence()
        for f in (0.05, 0.1, 0.15):
            m = rotated(dicke_zero_moments(two_j, f), rng)
            b = spinalg.moment_values(m)
            for decide in (False, True):
                got, want = feasibility.exact_test_direct(m, decide=decide), complex_verdict(m, decide)
                assert got.tests_run[0].frame == "four-block"
                if decide:
                    assert got.witness.separates and want.witness.separates
                else:
                    assert abs(got.witness.value - want.witness.value) <= 1e-8
                    c, c_want = got.witness.op_coefficients, want.witness.op_coefficients
                    assert np.linalg.norm(c - c_want) <= 10.0 * np.sqrt(sdp.TOLERANCE) * np.linalg.norm(c_want)
                assert evidence.check_witness(got.witness, two_j, b) is None


def axial_moments(two_j, rng):
    """Re(M) with a degenerate pair and l along the third principal axis (or
    l = 0), under a random rotation: the axial kind.  At j = 1/2 Re(M) is I/4."""
    j = two_j / 2.0
    v = rng.dirichlet(np.ones(3)) * 1.4 - 0.4 / 3.0 if two_j > 1 else np.full(3, 1.0 / 3.0)
    v[1] = v[0] = (1.0 - v[2]) / 2.0
    ell = np.array([0.0, 0.0, rng.uniform(-1.05, 1.05) * j * rng.integers(0, 2)])
    m = np.diag(v * j * (j + 1.0)).astype(complex) + first_moment_part(ell)
    return rotated(MomentMatrix.from_matrix(two_j, m), rng)


class TestBlockFrames:
    """Symmetric inputs solve their frame's program in blocks: the same verdict,
    iteration count and t* as the complex program over all ten operators, and
    evidence that passes the bench checker in the input's frame."""

    @staticmethod
    def kind_of(construction, two_j):
        """The kind each construction of ``frame_moments`` is built to have."""
        return {
            "zero": "four-block" if two_j % 2 == 0 else "parity",
            "axis": "parity",
            "pair": None,
        }[construction]

    @settings(max_examples=60, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        construction=st.sampled_from(["zero", "axis", "pair"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_verdict_is_the_complex_one(self, two_j, construction, seed):
        # axial inputs solve no blocked program: TestAxialClosedForm checks them
        rng = np.random.default_rng(seed)
        m = frame_moments(two_j, construction, rng)
        b = spinalg.moment_values(m)
        got = feasibility.exact_test_direct(m, decide=True)
        want = complex_verdict(m)
        assert got.tests_run[0].frame == self.kind_of(construction, two_j)
        assert want.tests_run[0].frame is None
        assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind)
        assert_same_t_star(got, want, m)
        evidence = bench_evidence()
        if got.status == STATUS_QUANTUM:
            assert evidence.check_certificate(got.certificate_state, two_j, b) is None
        elif got.status == STATUS_NON_QUANTUM:
            assert evidence.check_witness(got.witness, two_j, b) is None

    @settings(max_examples=40, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        f=st.floats(0.05, 0.45),
        l3=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_blocked_reject_lifts_its_coefficients(self, two_j, f, l3, seed):
        # <L3^2> = 0 with unequal <L1^2> and <L2^2> is not quantum: a four-block reject
        # for l = 0 at integer j, else a parity one.  Its witness is _lift(c) of the
        # coefficients mapped back, with no D^j(R) and no block basis built, and it is
        # the frame's dual rotated back (for four-block, the search's tangent)
        rng = np.random.default_rng(seed)
        m = dicke_zero_moments(two_j, f).matrix + first_moment_part([0.0, 0.0, l3])
        m = rotated(MomentMatrix.from_matrix(two_j, m), rng)
        b = spinalg.moment_values(m)
        kind = "four-block" if l3 == 0.0 and two_j % 2 == 0 else "parity"
        frame = feasibility._real_frame(b, two_j)
        assert frame.kind == kind
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_spin_rotation", "_frame_basis"):
                real = getattr(feasibility, name)
                patch.setattr(feasibility, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
            got = feasibility.exact_test_direct(m, decide=True)
        assert calls == []
        assert (got.status, got.tests_run[0].frame) == (STATUS_NON_QUANTUM, kind)
        kept = frame.moments[feasibility._KEPT[kind]] @ b
        if kind == "four-block":  # decided with no SDP
            (p1,) = feasibility._four_block_optimum(kept, two_j, True)
        else:
            p1 = sdp.phase1_min_t(feasibility._frame_program(kind, two_j), kept, decide=True)
        v = feasibility._spin_rotation(frame.rotation, two_j, np.eye(two_j + 1))
        w = feasibility._frame_basis(kind, two_j).T @ v
        want = w.conj().T @ p1.dual_z @ w
        assert np.abs(got.witness.matrix - want).max() <= 1e-13 * np.abs(want).max()
        assert bench_evidence().check_witness(got.witness, two_j, b) is None

    @settings(max_examples=30, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        extra=st.lists(st.sampled_from(["zero", "axis", "axial"]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_mixed_batch_solves_once_per_kind(self, two_j, extra, seed):
        # each row of a batch with axial, parity and (at integer j) four-block
        # inputs is decided in its own kind's program, as it would be alone: one
        # solve for the parity rows, the four-block ones by one batched search
        # and the axial ones in closed form
        rng = np.random.default_rng(seed)
        constructions = ["axial", "axis", *extra]
        ms = [axial_moments(two_j, rng) if c == "axial" else frame_moments(two_j, c, rng) for c in constructions]
        alone = [feasibility.exact_test_direct(m, decide=True) for m in ms]
        kinds = {v.tests_run[0].frame for v in alone}
        assert len(kinds) >= 2 and None not in kinds
        calls = []
        real = sdp.phase1_min_t

        def spy(program, values, **kwargs):
            calls.append(program)
            return real(program, values, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdp, "phase1_min_t", spy)
            batch = feasibility.exact_test_batch(ms)
        assert len(calls) == len(kinds - {"axial", "four-block"})
        assert {id(p) for p in calls} == {id(feasibility._frame_program(k, two_j)) for k in kinds - {"axial", "four-block"}}
        evidence = bench_evidence()
        for got, want, m in zip(batch, alone, ms):
            assert got.tests_run[0].frame == want.tests_run[0].frame
            assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind)
            assert iterations(got) == iterations(want)
            assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
            b = spinalg.moment_values(m)
            if got.status == STATUS_QUANTUM:
                assert evidence.check_certificate(got.certificate_state, two_j, b) is None
            elif got.status == STATUS_NON_QUANTUM:
                assert evidence.check_witness(got.witness, two_j, b) is None

    @settings(max_examples=30, deadline=None)
    @given(two_j=st.integers(2, 63), seed=st.integers(0, 2**32 - 1))
    def test_generic_states_take_no_frame(self, two_j, seed):
        rng = np.random.default_rng(seed)
        m = spinalg.moment_matrix(random_density(rng, two_j + 1), spinalg.spin_operators(two_j))
        assert feasibility._real_frame(spinalg.moment_values(m), two_j) is None
        assert feasibility.exact_test_direct(m, decide=True).tests_run[0].frame is None

    def test_generic_bench_inputs_take_no_frame(self, monkeypatch):
        # the inputs of TestRealFrame.test_generic_inputs_have_no_frame that reach the exact stage
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        ms = [
            MomentMatrix.from_matrix(it.two_j, it.matrix)
            for seed in (1, 2, 3)
            for it in inputs.make_inputs(seed, (4, 10, 30, 62), {"coherent": 2, "v-over-1": 2})
        ]
        for m in ms:
            records = feasibility.exact_test_direct(m, decide=True).tests_run
            assert [r.frame for r in records] == [None] * len(records)

    @pytest.mark.parametrize("two_j", [2, 3, 4, 31, 62, 63])
    def test_blocks_split_the_space(self, two_j):
        # each blocked kind's bases are orthonormal, cover C^d, and every kept operator
        # is block-diagonal on them; the four-block kind holds four blocks of about d/4
        ops = feasibility._moment_operator_set(two_j)
        d = two_j + 1
        for kind in ("parity", "four-block"):
            if kind == "four-block" and two_j % 2:
                continue
            blocks = feasibility._frame_blocks(kind, two_j)
            q = feasibility._frame_basis(kind, two_j)
            assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-15
            inside = np.zeros((d, d), dtype=bool)
            at = 0
            for block in blocks:
                inside[at : at + block.shape[1], at : at + block.shape[1]] = True
                at += block.shape[1]
            kept = q.T @ ops[feasibility._KEPT[kind]].real @ q
            assert np.abs(kept[:, ~inside]).max(initial=0.0) <= 1e-15 * np.abs(kept).max()
            if kind == "four-block":
                assert len(blocks) == (3 if two_j == 2 else 4)
                assert max(b.shape[1] for b in blocks) - min(b.shape[1] for b in blocks) <= 1


def axial_line(two_j, c, l3, rng):
    """Re(M) = diag(a, a, c), a = (j(j+1) - c)/2, and l = (0, 0, l3), under a random rotation."""
    j = two_j / 2.0
    a = (j * (j + 1.0) - c) / 2.0
    m = np.diag([a, a, c]).astype(complex) + first_moment_part([0.0, 0.0, l3])
    return rotated(MomentMatrix.from_matrix(two_j, m), rng)


class TestAxialClosedForm:
    """Axial inputs are decided in closed form over the polygon conv{(m, m^2)}
    (``feasibility._axial_optimum``): the verdict of the complex program at its
    optimum, t* within that solve's own bounds, a witness of value -t* and
    evidence that passes the bench checker."""

    @staticmethod
    def decide(m):
        """The closed-form verdict, checked against the complex program run to the optimum."""
        two_j = m.two_j
        b = spinalg.moment_values(m)
        got = feasibility.exact_test_direct(m, decide=True)
        assert got.tests_run[0].frame == "axial"
        assert (got.t_star_kind, iterations(got)) == ("optimum", 0)
        p1 = sdp.phase1_min_t(feasibility._moment_program(two_j), b)
        want = feasibility._read_phase1(p1, two_j, b, "exact", feasibility._StageLog())
        assert got.status == want.status
        t_d = p1.t_star - (p1.solution.primal_objective - p1.solution.dual_objective)
        assert t_d - 1e-12 <= got.t_star <= p1.t_star + 1e-12
        if got.witness is not None:
            # relative to the pairing's own scale, sum_i |c_i b_i|: a t* near the band
            # is the difference of terms about 1e4 times larger at 2j = 62
            w = got.witness
            assert abs(w.value + got.t_star) <= 1e-12 * (np.abs(w.op_coefficients) @ np.abs(b))
        evidence = bench_evidence()
        if got.status == STATUS_QUANTUM:
            assert evidence.check_certificate(got.certificate_state, two_j, b) is None
        elif got.status == STATUS_NON_QUANTUM:
            assert evidence.check_witness(got.witness, two_j, b) is None
        return got

    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 63), seed=st.integers(0, 2**32 - 1))
    def test_the_closed_form_is_the_optimum(self, two_j, seed):
        self.decide(axial_moments(two_j, np.random.default_rng(seed)))

    def test_both_sides_of_the_band(self):
        rng = np.random.default_rng(3300)
        statuses = {self.decide(axial_moments(two_j, rng)).status for two_j in (2, 5, 30, 63) for _ in range(8)}
        assert statuses == {STATUS_QUANTUM, STATUS_NON_QUANTUM}

    @pytest.mark.parametrize("two_j", [2, 3, 10, 62, 63])
    def test_edges_of_the_polygon(self, two_j):
        # l3 = +-j with c = j^2 (a coherent state), c = j^2 with |l3| < j (the top
        # chord: a mixture of |j, +-j>) and l3 = m, c = m^2 (|j, m>, a vertex) sit on
        # the boundary, and the certificate reproduces them; l3 = j with a smaller
        # or larger c crosses a chord, and c above j^2 the top chord
        rng = np.random.default_rng(3400 + two_j)
        j = two_j / 2.0
        ops = moment_operators(two_j)
        edges = [(j * j, j), (j * j, -j), (j * j, 0.3 * j), *((m * m, m) for m in (j - 1.0, j - 2.0, 0.5 * (two_j % 2)))]
        for c, l3 in edges:
            m = axial_line(two_j, c, l3, rng)
            got = self.decide(m)
            assert got.status == STATUS_BOUNDARY and abs(got.t_star) <= 1e-12 * two_j
            b = spinalg.moment_values(m)
            moments = np.einsum("kij,ji->k", ops, got.certificate_state).real
            assert np.all(np.abs(moments - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))
            assert matcore.min_eigenvalue(got.certificate_state) >= -1e-12
        for c, l3 in ((j * j - 0.1, j), (j * j + 0.1, j), (j * j + 0.1, 0.0)):
            assert self.decide(axial_line(two_j, c, l3, rng)).status == STATUS_NON_QUANTUM

    def test_spin_half_takes_the_first_moment_sides(self):
        # at 2j = 1 the chords have tr f = 0: t* = (|l3|/j - 1)/d, and a reject's
        # witness is the side (1 -+ 2 L3)/2
        rng = np.random.default_rng(3500)
        for l3 in (0.0, 0.2, -0.45, 0.5, -0.55, 0.7):
            got = self.decide(axial_line(1, 0.25, l3, rng))
            assert got.t_star == pytest.approx((abs(l3) / 0.5 - 1.0) / 2.0, abs=1e-15)
        # S33 = 1/4 at j = 1/2: a degenerate pair off I/4 conflicts, as in the SDP
        m = MomentMatrix.from_matrix(1, np.diag([0.3, 0.3, 0.15]).astype(complex))
        with pytest.raises(ValueError, match="conflict"):
            feasibility.exact_test_direct(m)


def four_block_accept(two_j, rng):
    """l = 0 and Re(M) = diag(0.595, 0.395, 0.01) j(j+1) under a random rotation: a
    four-block input that is quantum from 2j = 6 on (its pairs are entangled, so
    classify reaches the exact stage)."""
    j = two_j / 2.0
    m = np.diag(np.array([0.595, 0.395, 0.01]) * j * (j + 1.0)).astype(complex)
    return rotated(MomentMatrix.from_matrix(two_j, m), rng)


class TestFourBlockSearch:
    """Four-block programs are decided with no SDP, by the tangent/chord search of
    ``feasibility._four_block_optimum`` over the field of values of their two rows:
    the blocked program's t* and decided status, and evidence that passes the bench
    checker."""

    @staticmethod
    def kept(m):
        frame = feasibility._real_frame(spinalg.moment_values(m), m.two_j)
        assert frame.kind == "four-block"
        return frame.moments[feasibility._KEPT["four-block"]] @ spinalg.moment_values(m)

    @settings(max_examples=60, deadline=None)
    @given(two_j=st.integers(1, 31).map(lambda n: 2 * n), seed=st.integers(0, 2**32 - 1))
    def test_the_search_is_the_blocked_program(self, two_j, seed):
        m = frame_moments(two_j, "zero", np.random.default_rng(seed))
        kept = self.kept(m)
        program = feasibility._frame_program("four-block", two_j)
        (got,) = feasibility._four_block_optimum(kept, two_j, False)
        want = sdp.phase1_min_t(program, kept)
        assert got.solution.status == want.solution.status == sdp.STATUS_OPTIMAL
        assert abs(got.t_star - want.t_star) <= 1e-8
        (got,) = feasibility._four_block_optimum(kept, two_j, True)
        assert got.solution.status == sdp.phase1_min_t(program, kept, decide=True).solution.status
        b = spinalg.moment_values(m)
        evidence = bench_evidence()
        for decide in (False, True):
            v = feasibility.exact_test_direct(m, decide=decide)
            assert v.tests_run[0].frame == "four-block"
            if v.status == STATUS_QUANTUM:
                assert evidence.check_certificate(v.certificate_state, two_j, b) is None
            elif v.status == STATUS_NON_QUANTUM:
                assert evidence.check_witness(v.witness, two_j, b) is None
                # value -t_d: t_star itself at a dual bound, within the gap of the optimum
                dual = v.t_star_kind == "dual bound"
                gap = 1e-12 * (np.abs(v.witness.op_coefficients) @ np.abs(b)) if dual else 1e-8
                assert abs(v.witness.value + v.t_star) <= gap

    @pytest.mark.parametrize("two_j", [2, 4, 62])
    def test_edge_rows(self, two_j):
        # b~ = 0 (zero values: X = 0) leaves Y = 0 optimal at no eigensolve; the values
        # of I/d are b~ = 0 to rounding; conflicting values (off the Casimir) and a
        # non-finite value raise the kernel's own ValueError, single or batched
        program = feasibility._frame_program("four-block", two_j)
        j, d = two_j / 2.0, two_j + 1
        (zero,) = feasibility._four_block_optimum(np.zeros(4), two_j, True)
        assert (zero.solution.status, zero.solution.iterations, zero.t_star) == (sdp.STATUS_OPTIMAL, 0, 0.0)
        assert not zero.x.any() and zero.factor.shape == (0, d)
        mixed = np.array([1.0, *[j * (j + 1.0) / 3.0] * 3])
        for decide in (False, True):
            (got,) = feasibility._four_block_optimum(mixed, two_j, decide)
            assert abs(got.t_star + 1.0 / d) <= 1e-12
            assert abs(got.t_star - sdp.phase1_min_t(program, mixed).t_star) <= 1e-8
        off = mixed * [1.0, 1.0, 1.0, 1.5]
        for values in (off, np.stack([mixed, off]), np.array([1.0, np.nan, 0.0, 0.0])):
            with pytest.raises(ValueError) as want:
                sdp.phase1_min_t(program, values)
            with pytest.raises(ValueError) as got:
                feasibility._four_block_optimum(values, two_j, True)
            assert str(got.value) == str(want.value)

    def test_no_four_block_verdict_runs_the_kernel(self, monkeypatch):
        calls = []
        real = sdp._path_following
        monkeypatch.setattr(sdp, "_path_following", lambda *a, **k: calls.append(a) or real(*a, **k))
        rng = np.random.default_rng(3700)
        ms = [rotated(dicke_zero_moments(tj, f), rng) for tj in (4, 10, 62) for f in (0.05, 0.15)]
        ms += [four_block_accept(tj, rng) for tj in (10, 62)] + [frame_moments(30, "zero", rng) for _ in range(4)]
        verdicts = [f(m) for m in ms for f in (feasibility.classify, feasibility.exact_test_direct)]
        verdicts += feasibility.exact_test_batch(ms[:2]) + feasibility.exact_test_batch(ms[-4:])
        assert {r.frame for v in verdicts for r in v.tests_run if r.name == "exact"} == {"four-block"}
        assert {v.status for v in verdicts} >= {STATUS_QUANTUM, STATUS_NON_QUANTUM}
        scan_grid(10, np.zeros(3), resolution=9, sets=("R", "S", "T"))
        assert calls == []
        feasibility.classify(dicke_one_moments(6, 0.1))  # a parity input solves one SDP
        assert len(calls) == 1

    @pytest.mark.parametrize("two_j", [6, 10, 30, 62])
    def test_an_accept_is_built_from_its_support_vectors(self, monkeypatch, two_j):
        # the certificate sum_r u_r u_r^dag - t*·1 from the two rows of Y turned back,
        # (F Q^T) D^j(R), in O(d^2), against the dense W^dag X' W, W = Q^T D^j(R):
        # equal to 1e-13, at most a few ulps of the O(1) entries of a d x d product
        rng = np.random.default_rng(3800 + two_j)
        evidence = bench_evidence()
        for _ in range(3):
            m = four_block_accept(two_j, rng)
            b = spinalg.moment_values(m)
            frame = feasibility._real_frame(b, two_j)
            shapes = []
            real = feasibility._spin_rotation
            monkeypatch.setattr(feasibility, "_spin_rotation", lambda *a: shapes.append(np.shape(a[2])) or real(*a))
            got = feasibility.exact_test_direct(m, decide=True)
            assert shapes == []  # the certificate is formed on its first read
            got.certificate_state
            monkeypatch.undo()
            assert (got.status, got.t_star_kind, got.tests_run[0].frame) == (STATUS_QUANTUM, "primal bound", "four-block")
            assert shapes == [(2, two_j + 1)]  # two combinations of rows, never all of D^j(R)
            (p1,) = feasibility._four_block_optimum(self.kept(m), two_j, True)
            v = feasibility._spin_rotation(frame.rotation, two_j, np.eye(two_j + 1))
            w = feasibility._frame_basis("four-block", two_j).T @ v
            dense = w.conj().T @ p1.x @ w
            assert np.abs(got.certificate_state - (dense + dense.conj().T) / 2.0).max() <= 1e-13
            assert evidence.check_certificate(got.certificate_state, two_j, b) is None
            assert p1.solution.primal_residual <= 1e-15


class TestRandomStates:
    """Moments of random states at every spin up to the cone cap: ``classify``
    accepts them, never raises, and its evidence passes the benchmark's
    package-free checks; an interior point stays quantum under a relative
    1e-9 push that keeps the Casimir."""

    KINDS = ("pure", "rank-2", "coherent", "full-rank")

    @staticmethod
    def state(kind, two_j, rng):
        d = two_j + 1
        if kind == "coherent":
            psi = spinalg.coherent_state(rng.standard_normal(3), two_j)
            return np.outer(psi, psi.conj())
        rank = {"pure": 1, "rank-2": 2, "full-rank": d}[kind]
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    @staticmethod
    def assert_evidence(verdict, m):
        evidence = bench_evidence()
        values = evidence.moment_values(m.matrix)
        if verdict.witness is not None:
            assert evidence.check_witness(verdict.witness, m.two_j, values) is None
        x = verdict.certificate_state
        if x is not None and verdict.status == STATUS_BOUNDARY:
            # a boundary verdict certifies only |t*| <= band, so lambda_min(X) >= -band: its
            # X can miss the checker's -1e-9 floor (a pure state at 2j = 3 has t* = 2.6e-9)
            assert np.linalg.eigvalsh(x)[0] >= -matcore.BOUNDARY_BAND
            assert abs(np.trace(x).real - 1.0) <= evidence.TRACE_TOL
            moments = np.einsum("kij,ji->k", evidence.operators(m.two_j), x).real
            assert np.abs(moments - values).max() <= evidence.MOMENT_TOL
        elif x is not None:
            assert evidence.check_certificate(x, m.two_j, values) is None

    @settings(max_examples=150, deadline=None)
    @given(two_j=st.integers(2, 63), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    def test_moments_of_states_are_accepted(self, two_j, kind, seed):
        rng = np.random.default_rng(seed)
        m = spinalg.moment_matrix(self.state(kind, two_j, rng), spinalg.spin_operators(two_j))
        verdict = feasibility.classify(m)
        assert verdict.status in (STATUS_QUANTUM, STATUS_BOUNDARY)
        self.assert_evidence(verdict, m)

    @settings(max_examples=80, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        kind=st.sampled_from(KINDS),
        weight=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_small_push_keeps_an_interior_point_quantum(self, two_j, kind, weight, seed):
        rng = np.random.default_rng(seed)
        d, j = two_j + 1, two_j / 2.0
        rho = (1.0 - weight) * self.state(kind, two_j, rng) + weight * np.eye(d) / d
        m = spinalg.moment_matrix(rho, spinalg.spin_operators(two_j))
        e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        e = (e + e.conj().T) / 2.0
        e -= np.trace(e).real / 3.0 * np.eye(3)  # tr Re(e) = 0: the push keeps the Casimir
        pushed = MomentMatrix.from_matrix(two_j, m.matrix + 1e-9 * j * (j + 1.0) * e / np.abs(e).max())
        verdict = feasibility.classify(pushed)
        assert verdict.status == STATUS_QUANTUM
        self.assert_evidence(verdict, pushed)


class TestEvidenceOnRequest:
    """A phase-1 verdict's certificate, and the dense Y, Z and X of the closed
    forms and the factored stage, are formed on their first read
    (``sdp.OnRequest``): a scan or a batch that reads the flags forms none, and a
    read returns the eager formula's bits, the same array every time."""

    @staticmethod
    def formed(monkeypatch):
        """The builder of every on-request value formed from here on, in order."""
        formed = []
        call = partial.__call__
        monkeypatch.setattr(sdp.Later, "__call__", lambda self: formed.append(self.func) or call(self))
        return formed

    def test_a_scan_and_a_frameless_batch_form_no_certificate(self, monkeypatch):
        formed = self.formed(monkeypatch)
        res = scan_grid(10, (0.1, 0.2, 0.3), resolution=41)
        assert (res.area("S"), res.s_factored + res.s_kernel) == (603, 301)
        batch = feasibility.exact_test_batch(TestExactTestBatch.figure_cells())
        assert all(v.tests_run[0].frame is None for v in batch)
        assert sum(sdp.FACTORED in v.tests_run[0].detail for v in batch) > 20
        assert formed == []
        accept = next(v for v in batch if sdp.FACTORED in v.tests_run[0].detail)
        x = accept.certificate_state
        assert formed == [feasibility._certificate, sdp._less_identity, sdp._factored_x]
        assert accept.certificate_state is x and len(formed) == 3

    @pytest.mark.parametrize("two_j", [6, 62])
    def test_axial_matrices_are_the_eager_formulas(self, two_j):
        b = spinalg.moment_values(dicke_mixture_moments(two_j, 1e-3))
        frame = feasibility._real_frame(b, two_j)
        assert frame.kind == "axial"
        kept = (frame.moments @ b)[feasibility._KEPT["axial"]][None]
        (p1,) = feasibility._axial_optimum(kept, two_j)
        # the closed form's Y, X' = Y - t*·1 and Z' as they were formed eagerly
        j, d = two_j / 2.0, two_j + 1
        levels, facets, traces, support = feasibility._polygon_facets(two_j)
        bounds = -(kept @ facets.T) / traces
        k = int(np.argmax(bounds[0]))
        t = float(bounds[0, k])
        s, (lo, hi) = kept[0, 0] + d * t, support[k]
        y = np.zeros((d, d))
        a_lo, a_hi = round(j - lo), round(j - hi)
        y[a_lo, a_lo], y[a_hi, a_hi] = (hi * s - kept[0, 2]) / (hi - lo), (kept[0, 2] - lo * s) / (hi - lo)
        c = facets[k] / traces[k]
        z = np.diag(c[0] + c[1] * levels**2 + c[2] * levels)
        assert p1.t_star == t
        assert p1.solution.x.tobytes() == y.tobytes()
        assert p1.x.tobytes() == (y - t * np.eye(d)).tobytes()
        assert p1.dual_z.tobytes() == z.tobytes()
        assert p1.x is p1.x and p1.dual_z is p1.solution.z is p1.solution.z

    @pytest.mark.parametrize("two_j", [6, 62])
    def test_four_block_matrices_are_the_eager_formulas(self, two_j):
        rng = np.random.default_rng(5100 + two_j)
        program = feasibility._frame_program("four-block", two_j)
        (stack, sizes), d = program.rows, two_j + 1
        _, _, entry, placed = sdp._layout(tuple(sizes), stack.shape[-1], stack.dtype)
        for m in (four_block_accept(two_j, rng), frame_moments(two_j, "zero", rng)):
            b = spinalg.moment_values(m)
            frame = feasibility._real_frame(b, two_j)
            assert frame.kind == "four-block"
            kept = (frame.moments @ b)[feasibility._KEPT["four-block"]]
            trace, _ = sdp._standard_form(program, kept)
            for decide in (False, True):
                (p1,) = feasibility._four_block_optimum(kept, two_j, decide)
                sol = p1.solution
                z = np.zeros((d, d))  # 1/d - y.R, the direct sum of the blocks
                z[placed] = -matcore.combine(tuple(sol.y.tolist()), stack)[entry]
                z[np.diag_indices(d)] += 1.0 / d
                assert p1.dual_z.tobytes() == z.tobytes() and p1.dual_z is sol.z is sol.z
                y = p1.factor.T @ p1.factor
                t_p = sol.primal_objective - float(trace[0]) / d
                assert sol.x.tobytes() == y.tobytes()
                assert p1.x.tobytes() == (y - t_p * np.eye(d)).tobytes() and p1.x is p1.x

    def test_a_certificate_is_the_eager_rotation(self):
        # a four-block accept at 2j = 62: G^dag G - t*·1, G = (F Q^T) D^j(R), hermitized;
        # classify's verdict reads it through the exact stage's, still on request
        two_j = 62
        m = four_block_accept(two_j, np.random.default_rng(5200))
        b = spinalg.moment_values(m)
        frame = feasibility._real_frame(b, two_j)
        (p1,) = feasibility._four_block_optimum((frame.moments @ b)[feasibility._KEPT["four-block"]], two_j, True)
        g = feasibility._spin_rotation(frame.rotation, two_j, p1.factor @ feasibility._frame_basis("four-block", two_j).T)
        want = g.conj().T @ g
        want[np.diag_indices(two_j + 1)] -= p1.t_star
        want += want.conj().T
        want /= 2.0
        for v in (feasibility.exact_test_direct(m, decide=True), feasibility.classify(m)):
            assert v.stage == "exact" and isinstance(vars(v)["certificate_state"], sdp.Later)
            x = v.certificate_state
            assert x.tobytes() == want.tobytes() and v.certificate_state is x

    def test_an_unread_factored_verdict_stores_its_factor(self):
        # l in a principal plane of Re(M) at 2j = 62 has no frame: a factored accept,
        # whose unread verdict holds V (d x 3) and no d x d matrix
        two_j, d = 62, 63
        c = 31 * 32
        matrix = np.diag([0.59 * c, 0.4 * c, 0.01 * c]).astype(complex) + first_moment_part([1.0, 0.0, 1.0])
        ms = [MomentMatrix.from_matrix(two_j, matrix)] * 8
        feasibility.exact_test_batch(ms[:1])  # the per-spin caches
        gc.collect()
        tracemalloc.start()
        try:
            batch = feasibility.exact_test_batch(ms)
            gc.collect()
            stored = tracemalloc.get_traced_memory()[0]
            batch[0].certificate_state
            read = tracemalloc.get_traced_memory()[0] - stored
        finally:
            tracemalloc.stop()
        assert all(sdp.FACTORED in v.tests_run[0].detail and v.tests_run[0].frame is None for v in batch)
        assert stored / len(batch) < d * d * 16 / 4
        assert read > d * d * 16 / 2  # the measure sees a dense certificate once one is read
