import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from outer_set import outer_test
from conftest import (
    build_fixed_state,
    canonical,
    casimir_vector,
    first_moment_part,
    highest_weight_state,
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
        # the random state has no frame and solves the complex program, the
        # Dicke mixture the axial one, whose blocks X' come back as W^dag X' W
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
                kind, rot3, t = frame
                blocked = sdp.phase1_min_t(feasibility._frame_program(kind, two_j), (t @ b)[feasibility._KEPT[kind]]).x
                rot = feasibility._frame_basis(kind, two_j).T @ feasibility._spin_rotation(rot3, two_j)
                want = rot.conj().T @ blocked @ rot
                want = (want + want.conj().T) / 2.0
            assert np.array_equal(x, want)
            assert matcore.min_eigenvalue(x) >= abs(v.t_star) - 1e-12
            assert abs(np.trace(x).real - 1.0) <= 1e-12
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
        accepted, seconds = scan._exact_cells((10, u, points))
        assert accepted == want and len(seconds) == len(points)
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
        # v2 < -1/3 drives <L2^2> negative, so tau picks up a negative minor
        m = coords_matrix([0, 0, 0], [2.0, -0.5, -0.5], 4)
        rho = reduction.reconstruct_rho(m)
        assert matcore.min_eigenvalue(rho) < -1e-6  # per-instance premise
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
        # the tau test is implied by the chi stage, so classify never runs it
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
        assert not outer_test(m)
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


def dicke_zero_moments(two_j, f):
    """<L3^2> = 0 forces |j,0>, whose L1/L2 moments are equal: not quantum for f > 0."""
    casimir = two_j / 2.0 * (two_j / 2.0 + 1.0)
    diag = np.diag([(0.5 + f) * casimir, (0.5 - f) * casimir, 0.0]).astype(complex)
    return MomentMatrix.from_matrix(two_j, diag)


def dicke_mixture_moments(two_j, eps=0.01):
    """|j,0> (j integer) or |j,1/2> plus eps * I/d: quantum but pair-entangled."""
    triple = spinalg.spin_operators(two_j)
    d = triple.dim
    rho = (1.0 - eps) * np.diag(np.eye(d)[d // 2]).astype(complex) + eps * np.eye(d) / d
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
        "exact-accept": (dicke_mixture_moments, "exact", STATUS_QUANTUM, 1),
        "exact-reject": (lambda tj: dicke_zero_moments(tj, 0.1), "exact", STATUS_NON_QUANTUM, 1),
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
        # at most one phase-1 program per decision: the solver's, none for the witness
        assert len(programs) == expected
        # classify's exact stage stops at a decided bound, over the per-spin program
        assert all(decided for _, decided in calls + programs)
        # both exact inputs have a frame with blocks: the program is their kind's
        kind = {"exact-accept": "axial", "exact-reject": "four-block"}.get(path)
        assert all(ops is feasibility._frame_program(kind, two_j) for ops, _ in programs)

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
        # bench/run.py reads its sdp.solve.* metrics off these spans
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from tracing import Tracer

        m = dicke_zero_moments(4, 0.1)
        with Tracer(spinmoment) as tracer:
            v = spinmoment.feasibility.classify(m)
        assert (v.stage, v.status) == ("exact", STATUS_NON_QUANTUM)
        (span,) = [s for s in tracer.spans if s.name == "sdp.solve"]
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
            "batch": (lambda: feasibility.exact_test_batch([m, dicke_zero_moments(m.two_j, 0.1)]), "exact"),
            "extension": (lambda: [feasibility.exact_test_extension(rho, m.two_j)], "extension"),
            "first-moments": (
                lambda: [exact_test_first_moments(m.first_moments, m.two_j)], "exact-first-moment"
            ),
        }

    @pytest.mark.parametrize("entry", ["classify", "direct", "batch", "extension", "first-moments"])
    def test_the_stage_holds_its_solve(self, monkeypatch, entry):
        m = dicke_mixture_moments(30)
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
        assert sum(r.seconds for r in records if r.name == stage) >= 0.5 * spent[0]
        assert sum(r.seconds for r in records) <= wall
        if entry == "classify":
            assert verdicts[0].stage == "exact"


class TestDecidedStop:
    """classify's exact stage stops at the first iterate whose primal or dual
    bound on t* clears the boundary band; exact_test_direct runs to the optimum."""

    DETAIL = r"t_star = \S+, \d+ iterations, gap \S+, (real frame, ((parity|four-block|axial), )?)?(optimum|primal bound|dual bound)"

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
                # t_p >= t*: the certificate is the primal iterate shifted by t_p
                assert got.status == STATUS_QUANTUM and got.t_star_kind == "primal bound"
                assert want.t_star - 1e-9 <= got.t_star < -matcore.BOUNDARY_BAND
                x = got.certificate_state
                assert matcore.min_eigenvalue(x) >= -got.t_star - 1e-12
                assert abs(np.trace(x).real - 1.0) <= 1e-12
                moments = np.einsum("kij,ji->k", ops, x).real
                assert np.all(np.abs(moments - b) <= 1e-10 * np.maximum(1.0, np.abs(b)))

    def test_rejects_end_at_the_dual_look_ahead(self, monkeypatch):
        # a reject whose full predictor step already certifies a bound above the
        # band skips that iteration's step lengths and corrector: over the rejects
        # of these families, two step-length tests per iteration come to at most
        # 30 calls (50 when each reject waits for an iterate to clear the band); the
        # accepts are untouched at 50
        calls = {STATUS_QUANTUM: 0, STATUS_NON_QUANTUM: 0}
        real = sdp._max_step
        status = None

        def counting(*args):
            calls[status] += 1
            return real(*args)

        monkeypatch.setattr(sdp, "_max_step", counting)
        for two_j in (4, 10, 30, 62):
            ms = self.families(two_j)
            for status, group in ((STATUS_QUANTUM, ms[:2]), (STATUS_NON_QUANTUM, ms[2:])):
                assert all(feasibility.classify(m).status == status for m in group)
        assert calls[STATUS_NON_QUANTUM] <= 30
        assert calls[STATUS_QUANTUM] <= 50

    def test_fewer_iterations_at_the_cap(self):
        for m in self.families(62):
            assert iterations(feasibility.classify(m)) < iterations(feasibility.exact_test_direct(m))

    def test_iterations_at_the_cap(self, monkeypatch):
        # the interior point starts at the program's own scale: on the seed-1
        # verdicts-cap inputs the decided solves average at most 4.2 iterations
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        items = inputs.make_inputs(1, (62,), {"dicke": 3, "v-over-1": 3, "dicke-zero": 3})
        verdicts = [feasibility.classify(MomentMatrix.from_matrix(it.two_j, it.matrix)) for it in items]
        counts = [iterations(v) for v in verdicts if v.stage == "exact"]
        assert len(counts) == 6
        assert np.mean(counts) <= 4.2

    @pytest.mark.parametrize("two_j", [6, 30])
    def test_boundary_input_runs_to_the_optimum(self, two_j):
        rng = np.random.default_rng(1700 + two_j)
        edge = spinalg.moment_matrix(highest_weight_state(two_j), spinalg.spin_operators(two_j))
        m = rotated(edge, rng)
        got = feasibility.exact_test_direct(m, decide=True)
        want = feasibility.exact_test_direct(m)
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


class TestPairLiftStack:
    """Every measured operator is built as a pair lift, with no spin matrix;
    the dense spin products of ``conftest.moment_operators`` are the partner."""

    def test_stack_matches_dense_spin_products(self):
        for two_j in range(1, 64):
            got, want = feasibility._moment_operator_set(two_j), moment_operators(two_j)
            scale = np.abs(want).max(axis=(1, 2))
            assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-15 * scale), two_j

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
    """A moment matrix with a real frame, under a random rotation: l = 0; l along
    a principal axis of Re(M); or a degenerate pair of Re(M) with any l.  The
    values are spread over both verdicts."""
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
    """The verdict of the complex program over all ten operators, read as
    ``exact_test_direct`` reads its own."""
    b = spinalg.moment_values(m)
    p1 = sdp.phase1_min_t(feasibility._moment_program(m.two_j), b, decide=decide)
    return feasibility._read_phase1(p1, b, "exact", feasibility._StageLog())


def bench_evidence():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import evidence
    finally:
        sys.path.pop(0)
    return evidence


class TestRealFrame:
    """Inputs with a principal axis of Re(M) perpendicular to l solve the real
    program in the frame where that axis is y, with the same verdict as the
    complex program and evidence stated in the input's frame."""

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
        assert feasibility._real_frame(b, two_j) is not None
        got = feasibility.exact_test_direct(m, decide=True)
        want = complex_verdict(m)
        assert "real frame" in got.tests_run[0].detail
        assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind)
        assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
        assert iterations(got) == iterations(want)
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
            v = feasibility._spin_rotation(rot, two_j)
            assert np.abs(v.conj().T @ v - np.eye(two_j + 1)).max() <= 1e-12
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
        rng = np.random.default_rng(3100 + two_j)
        for f in (0.05, 0.1, 0.15):
            m = rotated(dicke_zero_moments(two_j, f), rng)
            for decide in (False, True):
                got, want = feasibility.exact_test_direct(m, decide=decide), complex_verdict(m, decide)
                assert "real frame" in got.tests_run[0].detail
                c, c_want = got.witness.op_coefficients, want.witness.op_coefficients
                assert np.linalg.norm(c - c_want) <= 1e-9 * np.linalg.norm(c_want)
                assert np.abs(got.witness.matrix - want.witness.matrix).max() <= 1e-9


def axial_moments(two_j, rng):
    """Re(M) with a degenerate pair and l along the third principal axis (or
    l = 0), under a random rotation: the axial kind."""
    j = two_j / 2.0
    v = rng.dirichlet(np.ones(3)) * 1.4 - 0.4 / 3.0
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
            "pair": "real",
            "axial": "axial",
        }[construction]

    @settings(max_examples=60, deadline=None)
    @given(
        two_j=st.integers(2, 63),
        construction=st.sampled_from(["zero", "axis", "pair", "axial"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_verdict_is_the_complex_one(self, two_j, construction, seed):
        rng = np.random.default_rng(seed)
        m = axial_moments(two_j, rng) if construction == "axial" else frame_moments(two_j, construction, rng)
        b = spinalg.moment_values(m)
        got = feasibility.exact_test_direct(m, decide=True)
        want = complex_verdict(m)
        assert got.tests_run[0].frame == self.kind_of(construction, two_j)
        assert want.tests_run[0].frame is None
        assert (got.status, got.t_star_kind) == (want.status, want.t_star_kind)
        assert iterations(got) == iterations(want)
        assert abs(got.t_star - want.t_star) <= 1e-9 * abs(want.t_star)
        evidence = bench_evidence()
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
        # each kind's bases are orthonormal, cover C^d, and every kept operator is
        # block-diagonal on them; the four-block kind holds four blocks of about d/4
        ops = feasibility._moment_operator_set(two_j)
        d = two_j + 1
        for kind in ("real", "parity", "four-block", "axial"):
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
