import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmoment import feasibility, matcore, reduction, spinalg
from spinmoment.spinalg import MomentMatrix

from conftest import first_moment_part, highest_weight_state, random_density, random_so3


class TestSpinOperators:
    def test_spin_half_is_pauli(self):
        t = spinalg.spin_operators(1)
        assert np.abs(t.l3 - np.diag([0.5, -0.5])).max() < 1e-15
        assert np.abs(t.l1 - np.array([[0, 0.5], [0.5, 0]])).max() < 1e-15
        assert np.abs(t.l2 - np.array([[0, -0.5j], [0.5j, 0]])).max() < 1e-15

    def test_spin_one_l3_and_casimir(self):
        t = spinalg.spin_operators(2)
        assert np.abs(t.l3 - np.diag([1.0, 0.0, -1.0])).max() < 1e-15
        casimir = t.l1 @ t.l1 + t.l2 @ t.l2 + t.l3 @ t.l3
        assert np.abs(casimir - 2.0 * np.eye(3)).max() < 1e-14

    def test_commutators_at_large_half_integer_spin(self):
        report = spinalg.validate_algebra(spinalg.spin_operators(15))
        assert report.commutator_residual < 1e-10
        assert report.casimir_residual < 1e-10

    def test_rejects_non_positive_two_j(self):
        with pytest.raises(ValueError):
            spinalg.spin_operators(0)


class TestValidateAlgebra:
    def test_valid_triple(self):
        report = spinalg.validate_algebra(spinalg.spin_operators(6))
        assert report.commutator_residual < 1e-10
        assert report.casimir_residual < 1e-10

    def test_detects_scaled_l3(self):
        t = spinalg.spin_operators(8)
        broken = spinalg.SpinOperatorTriple(two_j=8, l1=t.l1, l2=t.l2, l3=1.01 * t.l3)
        report = spinalg.validate_algebra(broken)
        # Casimir gains (1.01^2 - 1) L3^2, largest entry 0.0201 j^2
        assert report.casimir_residual == pytest.approx(0.0201 * 16.0, rel=1e-10)
        assert report.commutator_residual > 1e-3

    def test_pauli_casimir_exact(self):
        t = spinalg.spin_operators(1)
        casimir = t.l1 @ t.l1 + t.l2 @ t.l2 + t.l3 @ t.l3
        assert np.array_equal(casimir, 0.75 * np.eye(2))


class TestMomentMatrix:
    @pytest.mark.parametrize("two_j", [2, 3, 4, 10])
    def test_maximally_mixed(self, two_j):
        t = spinalg.spin_operators(two_j)
        j = two_j / 2.0
        d = two_j + 1
        # oracle: brute-force operator traces tr(L_k L_l) = delta_kl j(j+1)d/3
        ls = t.as_list()
        for k in range(3):
            for l in range(3):
                raw = np.trace(ls[k] @ ls[l])
                expect = (j * (j + 1.0) * d / 3.0) if k == l else 0.0
                assert abs(raw - expect) < 1e-10
        m = spinalg.moment_matrix(np.eye(d, dtype=complex) / d, t)
        assert np.abs(m.matrix - (j * (j + 1.0) / 3.0) * np.eye(3)).max() < 1e-12
        assert np.abs(m.first_moments).max() < 1e-12

    @pytest.mark.parametrize("two_j", [2, 5, 12])
    def test_highest_weight(self, two_j):
        t = spinalg.spin_operators(two_j)
        j = two_j / 2.0
        m = spinalg.moment_matrix(highest_weight_state(two_j), t)
        assert np.allclose(m.first_moments, [0.0, 0.0, j], atol=1e-12)
        assert m.matrix[2, 2].real == pytest.approx(j * j)
        assert m.matrix[0, 0].real == pytest.approx(j / 2.0)
        assert m.matrix[1, 1].real == pytest.approx(j / 2.0)
        assert m.matrix[0, 1].imag == pytest.approx(j / 2.0)

    def test_casimir_trace_for_random_states(self, rng):
        for two_j in (2, 3, 7):
            t = spinalg.spin_operators(two_j)
            j = two_j / 2.0
            for _ in range(5):
                m = spinalg.moment_matrix(random_density(rng, two_j + 1), t)
                assert np.trace(m.matrix).real == pytest.approx(j * (j + 1.0), abs=1e-9)

    def test_rejects_non_state(self, rng):
        t = spinalg.spin_operators(2)
        with pytest.raises(ValueError, match="positive semidefinite"):
            spinalg.moment_matrix(np.diag([1.5, 0.5, -1.0]).astype(complex), t)
        with pytest.raises(ValueError, match="trace"):
            spinalg.moment_matrix(np.eye(3, dtype=complex), t)

    def test_from_matrix_rejects_casimir_violation(self):
        m = (2.1 / 3.0 * 2.0) * np.eye(3)  # trace 2.1 instead of j(j+1) = 2
        with pytest.raises(ValueError, match="Casimir"):
            MomentMatrix.from_matrix(2, m)

    def test_casimir_message_reports_residual(self):
        t = spinalg.spin_operators(20)
        m = spinalg.moment_matrix(np.eye(21, dtype=complex) / 21.0, t).matrix.copy()
        m[0, 0] += 1e-7  # above CASIMIR_TOL * max |M_kl| = 1e-9 * 110/3
        with pytest.raises(ValueError, match=r"j\(j\+1\) = 1\.000e-07 exceeds the tolerance 3\.7e-08"):
            MomentMatrix.from_matrix(20, m)

    def test_from_matrix_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match=r"non-finite entries: M\[0\]\[0\]"):
            MomentMatrix.from_matrix(4, np.diag([np.nan, 1.0, 2.0]))

    def test_from_matrix_rejects_non_hermitian(self):
        m = (2.0 / 3.0) * np.eye(3, dtype=complex)
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            MomentMatrix.from_matrix(2, m)

    def test_from_matrix_rejects_entries_near_the_float_max(self):
        # finite, but (M + M^dag)/2 overflows: an input error, with no warning
        with pytest.raises(ValueError, match="too large for float64 arithmetic"):
            MomentMatrix.from_matrix(4, 1e308 * np.eye(3))


# every float, and the non-finite and near-overflow values often
_PARTS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 0.0]), st.floats())
_MATRICES = st.lists(st.builds(complex, _PARTS, _PARTS), min_size=9, max_size=9).map(
    lambda z: np.array(z).reshape(3, 3)
)


class TestMalformedInput:
    """Validation raises nothing but ``ValueError``; tier-1 turns any numpy
    warning into a failure."""

    @settings(max_examples=300, deadline=None)
    @given(two_j=st.integers(1, 70), matrix=_MATRICES)
    @example(two_j=4, matrix=1e308 * np.eye(3))
    def test_from_matrix_returns_or_raises_value_error(self, two_j, matrix):
        try:
            MomentMatrix.from_matrix(two_j, matrix)
        except ValueError:
            pass


class TestRelativeTolerances:
    @pytest.mark.parametrize("two_j", [20, 40, 62])
    def test_noisy_moments_of_random_states_validate(self, two_j):
        # 1e-10 relative noise on each entry: far above an absolute 1e-9 once
        # the entries grow like j(j+1), far below CASIMIR_TOL relative to them
        rng = np.random.default_rng(3000 + two_j)
        t = spinalg.spin_operators(two_j)
        for trial in range(50):
            exact = spinalg.moment_matrix(random_density(rng, two_j + 1), t)
            noise = rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))
            noisy = exact.matrix * (1.0 + 1e-10 * noise)
            m = MomentMatrix.from_matrix(two_j, noisy)
            assert np.abs(m.first_moments - exact.first_moments).max() <= 1e-6
            # the moments that validate are decided, not refused by a later stage
            assert feasibility.classify(m).status == feasibility.STATUS_QUANTUM
            if trial < 3:
                assert feasibility.exact_test_direct(m).status == feasibility.STATUS_QUANTUM

    @pytest.mark.parametrize("two_j", [30, 62])
    @pytest.mark.parametrize("fraction", [0.3, 0.9])
    def test_casimir_error_within_tolerance_is_decided(self, two_j, fraction):
        # the maximally mixed state with a Casimir error that from_matrix accepts
        d = two_j + 1
        exact = spinalg.moment_matrix(np.eye(d, dtype=complex) / d, spinalg.spin_operators(two_j))
        tol = matcore.CASIMIR_TOL * max(1.0, float(np.abs(exact.matrix).max()))
        m = MomentMatrix.from_matrix(two_j, exact.matrix + np.diag([fraction * tol, 0.0, 0.0]))
        assert feasibility.classify(m).status == feasibility.STATUS_QUANTUM
        assert feasibility.exact_test_direct(m).status == feasibility.STATUS_QUANTUM

    @pytest.mark.parametrize("two_j", [20, 62])
    def test_large_casimir_error_still_raises(self, two_j):
        # 1e-6 j(j+1) is far beyond CASIMIR_TOL: from_matrix refuses it, and a
        # MomentMatrix built directly around the check fails the reconstruction
        j = two_j / 2.0
        d = two_j + 1
        exact = spinalg.moment_matrix(np.eye(d, dtype=complex) / d, spinalg.spin_operators(two_j))
        bad = exact.matrix + np.diag([1e-6 * j * (j + 1.0), 0.0, 0.0])
        with pytest.raises(ValueError, match="Casimir"):
            MomentMatrix.from_matrix(two_j, bad)
        m = MomentMatrix(two_j=two_j, matrix=bad, first_moments=exact.first_moments)
        with pytest.raises(ValueError, match="inconsistent with any reduced state"):
            reduction.reconstruct_rho(m)
        with pytest.raises(ValueError, match="inconsistent with any reduced state"):
            feasibility.classify(m)


class TestChiMatrix:
    def test_maximally_mixed_j1(self):
        t = spinalg.spin_operators(2)
        m = spinalg.moment_matrix(np.eye(3, dtype=complex) / 3.0, t)
        chi = spinalg.chi_matrix(m)
        assert np.abs(chi - np.diag([1.0, 2 / 3, 2 / 3, 2 / 3])).max() < 1e-12

    def test_highest_weight_on_boundary(self):
        t = spinalg.spin_operators(2)
        m = spinalg.moment_matrix(highest_weight_state(2), t)
        vals, _ = matcore.hermitian_eig(spinalg.chi_matrix(m))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_uncertainty_violation_not_psd(self):
        j = 2.0
        ell = np.array([0.0, 0.0, j + 0.5])
        m = np.diag([j / 2.0, j / 2.0, j * j]).astype(complex)
        m += first_moment_part(ell)
        mm = MomentMatrix.from_matrix(4, m)
        assert matcore.min_eigenvalue(spinalg.chi_matrix(mm)) < -1e-6

    @pytest.mark.parametrize("two_j", [2, 3, 4, 10])
    def test_psd_for_random_states(self, two_j):
        rng = np.random.default_rng(two_j * 101)
        t = spinalg.spin_operators(two_j)
        for _ in range(200):
            m = spinalg.moment_matrix(random_density(rng, two_j + 1), t)
            assert matcore.min_eigenvalue(spinalg.chi_matrix(m)) >= -1e-9


class TestCovariance:
    def test_rotated_triple_matches_rotated_moments(self, rng):
        t = spinalg.spin_operators(5)
        for _ in range(10):
            rho = random_density(rng, 6)
            m = spinalg.moment_matrix(rho, t)
            r = random_so3(rng)
            ls = t.as_list()
            rotated = [sum(r[k, l] * ls[l] for l in range(3)) for k in range(3)]
            m_rot = np.array(
                [
                    [np.trace(rotated[k] @ rotated[l] @ rho) for l in range(3)]
                    for k in range(3)
                ]
            )
            assert np.abs(m_rot - r @ m.matrix @ r.T).max() < 1e-9


def load_bench_inputs():
    """``bench/inputs.py``, the seeded verdict input families, as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


class TestRotationCovariance:
    """A global rotation R acts on the moments as M -> R M R^T and leaves the
    question unchanged, so every verdict and every optimum t* must be too."""

    @pytest.mark.parametrize("two_j", [4, 10, 30, 62])
    def test_rotated_inputs_get_the_same_verdict(self, two_j):
        inputs = load_bench_inputs()
        rng = np.random.default_rng(7000 + two_j)
        items = inputs.make_inputs(two_j, (two_j,), {family: 3 for family in inputs.FAMILIES})
        assert {item.family for item in items} == set(inputs.FAMILIES)
        for item in items:
            r = random_so3(rng)
            m = MomentMatrix.from_matrix(two_j, item.matrix)
            rotated = MomentMatrix.from_matrix(two_j, r @ item.matrix @ r.T)
            assert np.abs(rotated.first_moments - r @ m.first_moments).max() < 1e-9
            a, b = feasibility.classify(m), feasibility.classify(rotated)
            assert (a.status, a.stage, a.t_star_kind) == (b.status, b.stage, b.t_star_kind)
            assert a.status == item.expect
            if a.t_star is not None:
                assert abs(a.t_star - b.t_star) < 1e-7
            t, t_rotated = (feasibility.exact_test_direct(x).t_star for x in (m, rotated))
            assert abs(t - t_rotated) < 1e-7


class TestExtractFirstMoments:
    """``MomentMatrix.from_matrix`` reads l_m = 2 Im(M_kl) for cyclic (k, l, m)
    into ``first_moments``; each input's real diagonal is set so that
    tr Re(M) = j(j+1), with j = 2 (two_j = 4), which leaves Im(M) as it was."""

    @staticmethod
    def first_moments(m):
        m = np.array(m, dtype=complex)
        m[np.diag_indices(3)] += (6.0 - m.real.trace()) / 3.0
        return MomentMatrix.from_matrix(4, m).first_moments

    def test_highest_weight_pattern(self):
        m = np.diag([1.0, 1.0, 4.0]).astype(complex)
        m[0, 1] += 1j
        m[1, 0] -= 1j
        assert np.allclose(self.first_moments(m), [0.0, 0.0, 2.0])

    def test_real_symmetric_gives_zero(self, rng):
        sym = rng.standard_normal((3, 3))
        sym = sym + sym.T
        assert np.abs(self.first_moments(sym.astype(complex))).max() == 0.0

    def test_round_trip_of_the_first_moment_part(self, rng):
        ell = rng.standard_normal(3)
        assert np.abs(self.first_moments(first_moment_part(ell)) - ell).max() < 1e-15

    def test_antisymmetry_bookkeeping(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 0.3j
        m[1, 0] = -0.3j
        assert self.first_moments(m)[2] == pytest.approx(0.6)

    def test_rejects_inconsistent_imaginary_parts(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 0.3j
        m[1, 0] = 0.3j
        with pytest.raises(ValueError, match="not Hermitian"):
            self.first_moments(m)
