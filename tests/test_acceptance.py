"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Sampling is fully seeded; runtime guards use generous limits.
"""

import time

import numpy as np
import pytest

from spinmoment import cli, feasibility, matcore, reduction, sdp, spinalg
from spinmoment.scan import scan_grid

import symmetric_oracle
from conftest import (
    build_fixed_state,
    moment_operators,
    moments_of_pair_state,
    random_coords,
    random_density,
    random_so3,
)
from first_moment_sdp import exact_test_first_moments
from sdp_oracle import bracket_optimum, random_phase1_dual

BAND = 1e-7


def report(num, ok, detail):
    print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def pair_state_samples():
    rng = np.random.default_rng(515)
    return [random_density(rng, 3) for _ in range(500)]


@pytest.fixture(scope="module")
def sandwich_flags(pair_state_samples):
    """PPT / exact / tau flags for the shared samples at j in {1, 2, 5}."""
    flags = {}
    for two_j in (2, 4, 10):
        rows = []
        for rho in pair_state_samples:
            ppt = matcore.is_psd(rho, tol=1e-7) and matcore.is_psd(reduction._partial_transpose(rho), tol=1e-7)
            m = moments_of_pair_state(rho, two_j)
            exact = feasibility.exact_test_direct(m).t_star <= BAND
            tau_ok = matcore.is_psd(reduction.tau(rho, two_j), tol=1e-7)
            rows.append((ppt, exact, tau_ok))
        flags[two_j] = rows
    return flags


def test_criterion_1_algebra_identities():
    t0 = time.perf_counter()
    worst_comm = worst_cas = 0.0
    for two_j in range(1, 31):
        rep = spinalg.validate_algebra(spinalg.spin_operators(two_j))
        worst_comm = max(worst_comm, rep.commutator_residual)
        worst_cas = max(worst_cas, rep.casimir_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_comm < 1e-10 and worst_cas < 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"algebra residuals over two_j<=30: commutator {worst_comm:.2e}, "
        f"Casimir {worst_cas:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_first_moment_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(212)
    mismatches = 0
    skipped = 0
    total = 0
    for two_j in (2, 3, 4, 10):
        j = two_j / 2.0
        for _ in range(1000):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            ell = direction * rng.uniform(0.0, 1.3 * j)
            r = float(np.linalg.norm(ell))
            if abs(r - j) <= 1e-6:
                skipped += 1
                continue
            closed_form = r * r <= j * j
            via_sdp = exact_test_first_moments(ell, two_j).accepted
            total += 1
            if closed_form != via_sdp:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(
        2,
        ok,
        f"first-moment law: {total} samples over four spin numbers, "
        f"{mismatches} mismatches ({skipped} in band), {elapsed:.1f}s",
    )


def test_criterion_3_fixed_state_threshold():
    two_j = 4
    direction = np.array([0.0, 0.0, 1.0])

    def psd_at(r):
        state = build_fixed_state(r * direction, two_j)
        return matcore.min_eigenvalue(state) > 0.0

    lo, hi = 0.5, 1.5
    assert psd_at(lo) and not psd_at(hi)
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    threshold = (lo + hi) / 2.0
    ok = abs(threshold - 1.0) <= 1e-6
    report(3, ok, f"rho_fix positivity threshold at j=2: |l| = {threshold:.9f} (expect 1)")


def test_criterion_4_sandwich(sandwich_flags):
    t0 = time.perf_counter()
    violations = 0
    total = 0
    for two_j, rows in sandwich_flags.items():
        for ppt, exact, tau_ok in rows:
            total += 1
            if ppt and not exact:
                violations += 1
            if exact and not tau_ok:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 600.0
    report(
        4,
        ok,
        f"sandwich PPT => exact => tau over {total} state/spin pairs: "
        f"{violations} violations",
    )


def test_criterion_5_nesting_in_j(sandwich_flags):
    violations = 0
    for (_, e5, t5), (_, e2, t2) in zip(sandwich_flags[10], sandwich_flags[4]):
        if e5 and not e2:
            violations += 1
        if t5 and not t2:
            violations += 1
    ok = violations == 0
    report(
        5,
        ok,
        f"nesting: exact/tau acceptance at j=5 implies the same at j=2 "
        f"on 500 shared samples: {violations} violations",
    )


@pytest.fixture(scope="module")
def figure_scan():
    t0 = time.perf_counter()
    result = scan_grid(10, np.array([0.1, 0.2, 0.3]), resolution=101)
    return result, time.perf_counter() - t0


def test_criterion_6_figure_reproduction(figure_scan):
    result, elapsed = figure_scan
    bad = int(((result.in_r == 1) & (result.in_s == 0)).sum())
    bad += int(((result.in_s == 1) & (result.in_t == 0)).sum())
    areas = (result.area("R"), result.area("S"), result.area("T"))
    ok = (
        bad == 0
        and all(a > 0 for a in areas)
        and areas[0] <= areas[1] <= areas[2]
        and elapsed < 300.0
    )
    report(
        6,
        ok,
        f"101x101 scan at j=5, u=(0.1,0.2,0.3): areas R/S/T = "
        f"{areas[0]}/{areas[1]}/{areas[2]}, {bad} nesting violations, {elapsed:.1f}s",
    )


def test_criterion_7_convergence_trend(figure_scan):
    u = np.array([0.1, 0.2, 0.3])
    gaps = []
    areas_r = []
    for two_j in (4, 10, 20, 40):
        res = scan_grid(two_j, u, resolution=101, sets=("R", "T"))
        gaps.append(res.area("T") - res.area("R"))
        areas_r.append(res.area("R"))
    ok = all(a == areas_r[0] for a in areas_r) and all(
        gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1)
    )
    report(
        7,
        ok,
        f"area(T_j) - area(R) over j = 2, 5, 10, 20: {gaps} (non-increasing)",
    )


def extension_partner(two_j):
    """The 9-operator extension program of the 2j-qubit oracle, and the map from
    a moment vector b to its values.

    Its operators are K_r = P^dag(E_r) over E = ``matcore.hermitian_basis(3)``,
    built on 2j qubits by ``symmetric_oracle.marginal_adjoint``.  Each dense
    moment operator A_i (``conftest.moment_operators``) lies in their span,
    A_i = sum_r T_ir K_r, so b = T e for the values e_r = <E_r, rho_j>, and
    e = T^+ b.  Nothing of it comes from the package's pair lifts or its
    reconstruction.
    """
    ops = np.stack([symmetric_oracle.marginal_adjoint(e, two_j) for e in matcore.hermitian_basis(3)])
    gram = np.einsum("rab,sba->rs", ops, ops).real
    t = np.linalg.solve(gram, np.einsum("rab,iba->ri", ops, moment_operators(two_j)).real).T
    return sdp.phase1_program(ops), np.linalg.pinv(t)


def formulation_gaps(spins=(2, 3, 4, 5, 6), per_spin=200):
    """Criterion 8's comparison of ``exact_test_direct`` with the independent
    extension program on seeded inputs, each rotated by a seeded SO(3) R:
    (disagreements, compared, skipped, max |t*_direct - t*_extension|)."""
    rng = np.random.default_rng(88)
    rotations = np.random.default_rng(8800)
    disagreements = compared = skipped = 0
    worst = 0.0
    for two_j in spins:
        program, values_of = extension_partner(two_j)
        for _ in range(per_spin):
            coords = random_coords(rng, two_j)
            rot = random_so3(rotations)
            m = spinalg.MomentMatrix.from_matrix(two_j, rot @ reduction.moments_from_coords(coords).matrix @ rot.T)
            direct = feasibility.exact_test_direct(m)
            ext = sdp.phase1_min_t(program, values_of @ spinalg.moment_values(m))
            if abs(direct.t_star) <= BAND or abs(ext.t_star) <= BAND:
                skipped += 1
                continue
            compared += 1
            worst = max(worst, abs(direct.t_star - ext.t_star))
            if direct.accepted != (ext.t_star < -BAND):
                disagreements += 1
    return disagreements, compared, skipped, worst


def test_criterion_8_formulation_equivalence():
    t0 = time.perf_counter()
    disagreements, compared, skipped, worst = formulation_gaps()
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and compared + skipped == 1000 and worst <= 1e-8
    report(
        8,
        ok,
        f"direct vs the 2j-qubit extension program on 1000 rotated moment matrices: "
        f"{disagreements} disagreements ({compared} compared, {skipped} in band), "
        f"max |delta t*| = {worst:.1e}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("label", ["S12", "L1"])
def test_formulation_checks_catch_a_scaled_operator(label, monkeypatch):
    # criterion 8 and validate's witness-duality must see a decision stack
    # whose S12 or L1 is scaled by 0.9, which the covariant verdicts can hide
    real = feasibility._moment_operator_set
    row = spinalg.MOMENT_LABELS.index(label)

    def mutant(two_j):
        ops = real(two_j).copy()
        ops[row] *= 0.9
        return ops

    feasibility._moment_program.cache_clear()
    monkeypatch.setattr(feasibility, "_moment_operator_set", mutant)
    try:
        *_, worst = formulation_gaps(spins=(4, 6), per_spin=20)
        name, ok, _ = cli._check_witness_duality(np.random.default_rng(2024))
    finally:
        feasibility._moment_program.cache_clear()
    assert worst > 1e-8
    assert (name, ok) == ("witness-duality", False)


def test_criterion_9_witness_duality():
    rng = np.random.default_rng(909)
    two_j = 4
    witnesses = []
    worst_gap = 0.0
    worst_zmin = 0.0
    worst_trace = 0.0
    while len(witnesses) < 100:
        coords = random_coords(rng, two_j, u_radius=1.0, v_spread=1.0)
        m = reduction.moments_from_coords(coords)
        verdict = feasibility.exact_test_direct(m)
        if verdict.t_star <= BAND:
            continue
        w = verdict.witness
        witnesses.append(w)
        worst_gap = max(worst_gap, abs(w.value + verdict.t_star))
        worst_zmin = min(worst_zmin, matcore.min_eigenvalue(w.matrix))
        worst_trace = max(worst_trace, abs(np.trace(w.matrix).real - 1.0))
    triple = spinalg.spin_operators(two_j)
    worst_eval = np.inf
    for _ in range(100):
        m = spinalg.moment_matrix(random_density(rng, 5), triple)
        values = spinalg.moment_values(m)
        for w in witnesses:
            worst_eval = min(worst_eval, w.evaluate(values))
    ok = (
        worst_gap <= 1e-6
        and worst_zmin >= -1e-9
        and worst_trace <= 1e-9
        and worst_eval >= -1e-7
    )
    report(
        9,
        ok,
        f"witness duality on 100 non-quantum inputs: max |value + t*| = "
        f"{worst_gap:.2e}, min eig(Z) = {worst_zmin:.2e}, max |tr Z - 1| = "
        f"{worst_trace:.2e}; min witness value over 100 quantum points = "
        f"{worst_eval:.2e}",
    )


def test_criterion_10_sdp_oracle():
    # phase-1 t* against the barrier oracle on the program's dual (t* = -optimum)
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst_err = 0.0
    worst_gap = 0.0
    positive = 0
    for trial in range(50):
        d = int(rng.integers(2, 6))
        rows, values, (c, ops, vals) = random_phase1_dual(rng, d, int(rng.integers(0, 4)))
        p1 = sdp.phase1_min_t(rows, values)
        sol = p1.solution
        assert sol.status == sdp.STATUS_OPTIMAL
        upper, lower, _, diag = bracket_optimum(ops, vals, c)
        assert diag["residual"] < 1e-8
        assert diag["lambda_min"] > -1e-9
        worst_err = max(worst_err, abs(upper + p1.t_star), abs(lower + p1.t_star))
        worst_gap = max(worst_gap, sol.gap / (1.0 + abs(sol.primal_objective)))
        positive += p1.t_star > 0
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-4 and worst_err <= 1e-7 and worst_gap <= 1e-8 and 0 < positive < 50
    report(
        10,
        ok,
        f"50 random phase-1 programs vs barrier oracle on their duals: "
        f"max t* error {worst_err:.2e}, "
        f"max relative gap {worst_gap:.2e}, t* > 0 on {positive}, {elapsed:.1f}s",
    )
