"""Command-line frontend: moment-file checks, witness extraction, region scans
and the self-validation suite.

Moment files are JSON with the spin number transported as the integer
``two_j`` plus either a full 3x3 complex matrix "M" (entries as [re, im]
pairs) or renormalized coordinates "coords": {"u": [...], "v": [...]}.
Exit codes for ``check``: 0 quantum, 1 non-quantum, 2 boundary, 3 input or
validation errors.  ``check``, ``witness`` and ``scan`` exit with 4 when the
SDP solver fails to converge, so no verdict, witness or region could be
produced.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import feasibility, matcore, reduction, scan, sdp, spinalg
from .scan import scan_grid
from .spinalg import MomentMatrix

EXIT_QUANTUM = 0
EXIT_NON_QUANTUM = 1
EXIT_BOUNDARY = 2
EXIT_INPUT_ERROR = 3
EXIT_SOLVER_FAILURE = 4


class MomentFileError(ValueError):
    pass


def parse_spin(text: str) -> int:
    """Parse a spin number like "5", "2.5" or "5/2" into two_j."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if den.strip() != "2":
            raise MomentFileError(f"spin fractions must have denominator 2, got {text!r}")
        two_j = int(num)
    else:
        j = float(text)
        if not math.isfinite(j):
            raise MomentFileError(f"spin must be finite, got {text!r}")
        two_j = round(2 * j)
        if abs(2 * j - two_j) > 1e-9:
            raise MomentFileError(f"spin {text!r} is not an integer or half-integer")
    if two_j < 1:
        raise MomentFileError(f"spin must be positive, got {text!r}")
    return two_j


def _spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def _is_number(x) -> bool:
    """A JSON number: ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_complex_entry(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re, im = entry
        if _is_number(re) and _is_number(im):
            return complex(re, im)
    raise MomentFileError(f"{where} must be a number or an [re, im] pair, got {entry!r}")


def load_moment_file(path: str) -> tuple[MomentMatrix, str]:
    """Parse and validate a JSON moment file, returning (matrix, label)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MomentFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MomentFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MomentFileError("moment file must be a JSON object")
    if "two_j" not in data:
        raise MomentFileError('missing field "two_j"')
    two_j = data["two_j"]
    if not isinstance(two_j, int) or isinstance(two_j, bool) or two_j < 1:
        raise MomentFileError(f'"two_j" must be a positive integer, got {two_j!r}')
    label = data.get("label", "")
    if not isinstance(label, str):
        raise MomentFileError('"label" must be a string')
    has_m = "M" in data
    has_coords = "coords" in data
    if has_m == has_coords:
        raise MomentFileError('exactly one of "M" or "coords" must be present')

    if has_m:
        raw = data["M"]
        if not isinstance(raw, list) or len(raw) != 3:
            raise MomentFileError('"M" must be a 3x3 array')
        m = np.zeros((3, 3), dtype=complex)
        for k, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 3:
                raise MomentFileError(f"M[{k}] must be a row of 3 entries")
            for l, entry in enumerate(row):
                m[k, l] = _parse_complex_entry(entry, f"M[{k}][{l}]")
        try:
            return MomentMatrix.from_matrix(two_j, m), label
        except ValueError as exc:
            raise MomentFileError(str(exc)) from exc

    raw = data["coords"]
    if not isinstance(raw, dict) or set(raw) - {"u", "v"} or "u" not in raw or "v" not in raw:
        raise MomentFileError('"coords" must be an object with fields "u" and "v"')
    vectors = {}
    for name in ("u", "v"):
        seq = raw[name]
        if not isinstance(seq, list) or len(seq) != 3 or not all(
            _is_number(x) for x in seq
        ):
            raise MomentFileError(f'coords.{name} must be a list of 3 numbers')
        vectors[name] = np.array(seq, dtype=float)
    try:
        coords = reduction.RenormalizedCoords(u=vectors["u"], v=vectors["v"], two_j=two_j)
        return reduction.moments_from_coords(coords), label
    except ValueError as exc:
        raise MomentFileError(str(exc)) from exc


def _print_stages(records) -> None:
    print(f"  {'stage':<14} {'outcome':<24} {'time':>9}  detail")
    for rec in records:
        print(f"  {rec.name:<14} {rec.outcome:<24} {rec.seconds:>8.3f}s  {rec.detail}")


def _witness_json(witness: feasibility.Witness) -> dict:
    return {
        "value": witness.value,
        "coefficients": {
            name: float(c) for name, c in zip(witness.op_labels, witness.op_coefficients)
        },
        "min_eigenvalue": matcore.min_eigenvalue(witness.matrix),
        "trace": float(np.trace(witness.matrix).real),
    }


def cmd_check(args) -> int:
    m, label = load_moment_file(args.input)
    verdict = feasibility.classify(m)
    title = label or args.input
    print(f"moment check: {title}")
    print(f"  j = {_spin_label(m.two_j)} (two_j = {m.two_j})")
    _print_stages(verdict.tests_run)
    print(f"verdict: {verdict.status} (decided by the {verdict.stage} stage)")
    report = {
        "status": verdict.status,
        "stage": verdict.stage,
        "t_star": verdict.t_star,
        "t_star_kind": verdict.t_star_kind,
        "frame": next((r.frame for r in verdict.tests_run if r.frame is not None), None),
    }
    if verdict.witness is not None:
        report["witness"] = _witness_json(verdict.witness)
    if verdict.certificate_state is not None:
        vals = matcore.hermitian_eigvals(verdict.certificate_state)
        report["certificate_spectrum"] = [float(x) for x in vals]
    print(json.dumps(report))
    return {
        feasibility.STATUS_QUANTUM: EXIT_QUANTUM,
        feasibility.STATUS_NON_QUANTUM: EXIT_NON_QUANTUM,
        feasibility.STATUS_BOUNDARY: EXIT_BOUNDARY,
    }[verdict.status]


def cmd_witness(args) -> int:
    m, label = load_moment_file(args.input)
    # at j = 1/2 classify checks the forced second moments and decides in closed form
    verdict = feasibility.classify(m) if m.two_j == 1 else feasibility.exact_test_direct(m)
    title = label or args.input
    print(f"witness search: {title}")
    witness = verdict.witness
    if witness is None:
        print(f"no witness exists: the input is {verdict.status} ({verdict.tests_run[-1].detail})")
        return 1
    zvals = matcore.hermitian_eigvals(witness.matrix)
    print(f"  value c.b = {witness.value:.9g}")
    print(f"  Z spectrum: {np.array2string(zvals, precision=8)}")
    print(f"  tr Z = {float(np.trace(witness.matrix).real):.12g}")
    print("  coefficients over the measured operators:")
    for name, coeff in zip(witness.op_labels, witness.op_coefficients):
        print(f"    {name:<4} {coeff:+.9g}")
    print(json.dumps(_witness_json(witness)))
    print("verdict: hyperplane separates the input from the quantum set")
    return 0


def cmd_scan(args) -> int:
    two_j = args.two_j if args.two_j is not None else parse_spin(args.j)
    u = np.array([float(x) for x in args.u.split(",")])
    if u.shape != (3,):
        raise MomentFileError("--u needs three comma-separated numbers")
    sets = tuple(s.strip().upper() for s in args.sets.split(",") if s.strip())
    if math.hypot(*u) > 1.0 + 1e-12:  # hypot, as |u| of a huge u would overflow
        print("warning: |u| > 1, all regions will be empty", file=sys.stderr)
    t0 = time.perf_counter()
    result = scan_grid(
        two_j,
        u,
        v1_range=(args.v1_min, args.v1_max),
        v2_range=(args.v2_min, args.v2_max),
        resolution=args.grid,
        sets=sets,
        workers=args.workers,
    )
    result.to_csv(args.out)
    if args.svg:
        result.to_svg(args.svg)
    elapsed = time.perf_counter() - t0
    areas = [f"area({name}) = {result.area(name)}" for name in ("R", "S", "T") if name in sets or name in "RT"]
    print(
        f"scanned {args.grid}x{args.grid} grid at j = {_spin_label(two_j)} "
        f"in {elapsed:.1f}s; " + ", ".join(areas)
    )
    n_exact = int(((result.in_t == 1) & (result.in_r == 0)).sum()) if "S" in sets else 0
    p50, p99 = np.percentile(result.point_seconds * 1e3, [50, 99])
    print(
        f"exact tests on {n_exact} cells; per cell p50 {p50:.3f} ms, p99 {p99:.3f} ms; "
        f"{result.s_factored} factored accepts, {result.s_kernel} kernel solves"
    )
    print(f"wrote {args.out}" + (f" and {args.svg}" if args.svg else ""))
    return 0


def _corner_program():
    """The phase-1 program <e00> = -1 at unit trace, whose t* is 1."""
    return np.stack([np.eye(2), np.diag([1.0, 0.0])]), np.array([1.0, -1.0])


def _check_spin_algebra(j_max: int, inject_fault: bool) -> tuple[str, bool, str]:
    worst_comm = worst_cas = 0.0
    for two_j in range(1, j_max + 1):
        report = spinalg.validate_algebra(spinalg.spin_operators(two_j))
        worst_comm = max(worst_comm, report.commutator_residual)
        worst_cas = max(worst_cas, report.casimir_residual)
    limit = 1e-30 if inject_fault else 1e-10
    detail = f"two_j <= {j_max}: commutator {worst_comm:.2e}, Casimir {worst_cas:.2e}"
    if inject_fault:
        detail += " [fault injected: limit 1e-30]"
    return "spin-algebra", worst_comm < limit and worst_cas < limit, detail


def _check_sdp_analytic() -> tuple[str, bool, str]:
    # programs with known t*: the corner's is 1, and the full pin at I/3 has t* = -1/3
    basis = matcore.hermitian_basis(3)
    pin = (basis, np.array([matcore.hs_inner(b, np.eye(3, dtype=complex) / 3.0) for b in basis]))
    analytic_ok = True
    detail = []
    programs = (("<e00> = -1", _corner_program(), 1.0), ("pin I/3", pin, -1.0 / 3.0))
    for name, program, expected in programs:
        p1 = sdp.phase1_min_t(*program)
        ok = p1.solution.status == sdp.STATUS_OPTIMAL and abs(p1.t_star - expected) < 1e-7
        analytic_ok &= ok
        detail.append(f"{name}: t* = {p1.t_star:.9f}")
    return "sdp-analytic", analytic_ok, "; ".join(detail)


def _check_sdp_determinism() -> tuple[str, bool, str]:
    sol_a = sdp.phase1_min_t(*_corner_program()).solution
    sol_b = sdp.phase1_min_t(*_corner_program()).solution
    same = sol_a.iterations == sol_b.iterations and sol_a.iterate_log == sol_b.iterate_log
    return "sdp-determinism", same, f"{sol_a.iterations} identical iterations"


def _check_sandwich(rng: np.random.Generator) -> tuple[str, bool, str]:
    violations = 0
    total = 0
    for two_j in (2, 4):
        for _ in range(40):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            b = matcore.traces(reduction.reduction_operators(two_j), rho).real
            mm = MomentMatrix.from_matrix(two_j, matcore.combine(b, spinalg.CHI_PATTERN)[1:, 1:])
            in_r = reduction.ppt_inner_test(rho)
            exact = feasibility.exact_test_direct(mm).accepted
            in_t = matcore.is_psd(spinalg.chi_matrix(mm))
            total += 1
            if (in_r and not exact) or (exact and not in_t):
                violations += 1
    return "sandwich", violations == 0, f"{total} samples, {violations} violations"


def _dense_moment_operators(two_j: int) -> np.ndarray:
    """The ten measured operators as products of ``spin_operators``, built apart
    from the pair lifts the decisions use."""
    ls = spinalg.spin_operators(two_j).as_list()
    products = [(ls[k] @ ls[l] + ls[l] @ ls[k]) / 2.0 for k, l in zip(*spinalg._UPPER)]
    return np.stack([np.eye(two_j + 1, dtype=complex), *products, *ls])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A random SO(3) matrix: the Q of a Gaussian matrix, its sign fixed to det +1."""
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return rot * np.linalg.det(rot)


def _witness_deviations(w: feasibility.Witness, ops: np.ndarray) -> tuple[float, float, float]:
    """-lambda_min(Z), |tr Z - 1| and max |sum_i c_i A_i - Z| of a witness over ``ops``."""
    z = w.matrix
    expansion = float(np.abs(matcore.combine(w.op_coefficients, ops) - z).max())
    return -matcore.min_eigenvalue(z), abs(np.trace(z).real - 1.0), expansion


def _check_witness_duality(rng: np.random.Generator) -> tuple[str, bool, str]:
    # The witness comes from the pair-lift stack, t* from the same program over the
    # dense products, on rotated inputs with l != 0, so every operator takes part.
    worst = z_dev = 0.0
    tested = 0
    for two_j in (4, 30, 62):
        dense = _dense_moment_operators(two_j)
        for v1, v2 in ((1.1, -0.05), (1.3, -0.2), (-0.4, 0.8)):
            coords = reduction.RenormalizedCoords(np.array([0.2, -0.1, 0.3]), np.array([v1, v2, 1 - v1 - v2]), two_j)
            rot = _random_rotation(rng)
            mm = MomentMatrix.from_matrix(two_j, rot @ reduction.moments_from_coords(coords).matrix @ rot.T)
            partner = sdp.phase1_min_t(dense, spinalg.moment_values(mm))
            if partner.t_star > matcore.BOUNDARY_BAND:
                tested += 1
                w = feasibility.exact_test_direct(mm).witness
                if w is None:
                    worst = math.inf
                    continue
                worst = max(worst, abs(w.value + partner.t_star))
                z_dev = max(z_dev, *_witness_deviations(w, dense))
    detail = (
        f"{tested} points at 2j in 4, 30, 62, max |value + t*| = {worst:.2e}, "
        f"max(-min eig Z, |tr Z - 1|, |Z - sum c_i A_i|) = {z_dev:.1e}"
    )
    return "witness-duality", tested == 9 and worst < 1e-6 and z_dev <= 1e-9, detail


def _check_first_moment(rng: np.random.Generator) -> tuple[str, bool, str]:
    # The law |l| <= j against the phase-1 program over the dense I, L1, L2, L3;
    # each closed-form reject witness must be the optimal one, value = -t* of
    # that independent program.
    mism = bad_witness = rejects = 0
    worst = 0.0
    ops = _dense_moment_operators(3)
    program = sdp.phase1_program(ops[[0, 7, 8, 9]])
    for _ in range(60):
        ell = rng.standard_normal(3)
        ell *= rng.uniform(0.0, 2.3) / np.linalg.norm(ell)
        closed = float(np.linalg.norm(ell)) <= 1.5
        t_star = sdp.phase1_min_t(program, np.concatenate([[1.0], ell])).t_star
        if abs(np.linalg.norm(ell) - 1.5) > 1e-6 and closed != (t_star <= matcore.BOUNDARY_BAND):
            mism += 1
        w = feasibility.first_moment_test(ell, 3).witness
        if w is None:
            continue
        rejects += 1
        gap = abs(w.value + t_star)
        worst = max(worst, gap)
        negativity, trace_dev, expansion = _witness_deviations(w, ops)
        bad_witness += not (gap <= 1e-6 and negativity <= 1e-9 and trace_dev <= 1e-9 and expansion <= 1e-8)
    detail = (
        f"60 samples at j=3/2, {mism} mismatches; {rejects} reject witnesses, "
        f"{bad_witness} invalid, max |value + t*| = {worst:.2e}"
    )
    return "first-moment", mism == 0 and bad_witness == 0, detail


def _check_early_witness(rng: np.random.Generator) -> tuple[str, bool, str]:
    # Early rejects carry closed-form witnesses; each must separate like an SDP one.
    # The chi input keeps l = 0, so the first-moment stage passes it: <L1^2> = -e < 0.
    failing = []
    z_dev = 0.0
    for two_j in (4, 30, 62):
        j = two_j / 2.0
        e = 0.1 * j * (j + 1.0)
        negative = np.diag([-e, (j * (j + 1.0) + e) / 2.0, (j * (j + 1.0) + e) / 2.0]).astype(complex)
        coords = reduction.RenormalizedCoords(u=np.zeros(3), v=np.array([1.02, -0.01, -0.01]), two_j=two_j)
        ops = _dense_moment_operators(two_j)
        for stage, raw in (("chi", negative), ("reconstruct", reduction.moments_from_coords(coords).matrix)):
            rot = _random_rotation(rng)
            mm = MomentMatrix.from_matrix(two_j, rot @ raw @ rot.T)
            verdict = feasibility.classify(mm)
            w = verdict.witness
            negativity, trace_dev, expansion = _witness_deviations(w, ops)
            z_dev = max(z_dev, negativity, trace_dev)
            ok = (verdict.stage, verdict.t_star) == (stage, None) and max(negativity, trace_dev) <= 1e-9
            ok &= expansion <= 1e-8
            ok &= w.value < 0 and w.value == w.evaluate(spinalg.moment_values(mm))
            direct = feasibility.exact_test_direct(mm).witness
            ok &= direct is not None and direct.value < 0
            if not ok:
                failing.append(f"{stage} at 2j = {two_j}")
    detail = f"chi and reconstruct rejects at 2j in 4, 30, 62, max(-min eig Z, |tr Z - 1|) = {z_dev:.1e}"
    return "early-witness", not failing, detail + "".join(f"; {f} failed" for f in failing)


def _check_real_frame(rng: np.random.Generator) -> tuple[str, bool, str]:
    # Each kind of frame, on rotated inputs built to have it, must be the kind the
    # exact test takes, with t* of the complex program over the dense products.
    # Parity has l along a principal axis, four-block l = 0, axial l along a
    # degenerate pair's axis; the control, a degenerate pair of Re(M) with l off
    # its axes, has no frame and runs the complex program.
    worst = 0.0
    taken = 0
    shapes = (
        (None, (0.3, -0.2, 0.4), (0.25, 0.25, 0.5)),
        ("parity", (0.0, 0.0, 0.6), (0.2, 0.3, 0.5)),
        ("four-block", (0.0, 0.0, 0.0), (1.1, -0.04, -0.06)),
        ("axial", (0.0, 0.0, 0.5), (0.35, 0.35, 0.3)),
    )
    for two_j in (4, 30, 62):
        dense = _dense_moment_operators(two_j)
        for kind, u, v in shapes:
            coords = reduction.RenormalizedCoords(np.array(u), np.array(v), two_j)
            rot = _random_rotation(rng)
            mm = MomentMatrix.from_matrix(two_j, rot @ reduction.moments_from_coords(coords).matrix @ rot.T)
            verdict = feasibility.exact_test_direct(mm)
            taken += verdict.tests_run[0].frame == kind
            partner = sdp.phase1_min_t(dense, spinalg.moment_values(mm))
            worst = max(worst, abs(verdict.t_star - partner.t_star))
    detail = (
        f"{taken} of 12 inputs at 2j in 4, 30, 62 took their frame (none, parity, four-block, axial), "
        f"max |t* - t*(complex)| = {worst:.1e}"
    )
    return "real-frame", taken == 12 and worst <= 1e-8, detail


def _check_scan_oracle() -> tuple[str, bool, str]:
    # The scan's R/T flags come from one LDL mask per affine slice map; the
    # per-cell reference rebuilds each cell's state and takes its eigenvalues.
    # On u = (0, 0, 1) the only member cell, v = (0, 0, 1), is a pure state.
    cells = mismatches = members = 0
    for two_j, u in ((10, (0.1, 0.2, 0.3)), (10, (0.0, 0.0, 1.0))):
        u = np.array(u)
        result = scan_grid(two_j, u, resolution=13, sets=("R", "T"))
        for i1, v1 in enumerate(result.v1_values):
            for i2, v2 in enumerate(result.v2_values):
                in_r, _, in_t = scan._point_flags(two_j, u, float(v1), float(v2), False)
                cells += 1
                members += bool(in_t)
                mismatches += (result.in_r[i1, i2], result.in_t[i1, i2]) != (in_r, in_t)
    detail = f"{cells} cells on the figure and u = (0, 0, 1) slices, {members} in T, {mismatches} differ"
    return "scan-oracle", mismatches == 0 and members > 0, detail


def _run_validation(j_max: int, seed: int, inject_fault: bool) -> list[tuple[str, bool, str]]:
    """Every suite in order; the sampling suites draw from one generator in turn.
    A suite that raises fails with the exception as its detail, and the rest run on."""
    rng = np.random.default_rng(seed)
    suites = (
        ("spin-algebra", lambda: _check_spin_algebra(j_max, inject_fault)),
        ("sdp-analytic", _check_sdp_analytic),
        ("sdp-determinism", _check_sdp_determinism),
        ("sandwich", lambda: _check_sandwich(rng)),
        ("witness-duality", lambda: _check_witness_duality(rng)),
        ("first-moment", lambda: _check_first_moment(rng)),
        ("early-witness", lambda: _check_early_witness(rng)),
        ("scan-oracle", _check_scan_oracle),
        ("real-frame", lambda: _check_real_frame(rng)),
    )
    checks = []
    for name, suite in suites:
        try:
            checks.append(suite())
        except Exception as exc:  # a raise fails this suite only
            checks.append((name, False, f"raised {type(exc).__name__}: {exc}"))
    return checks


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    checks = _run_validation(args.j_max, args.seed, args.inject_fault)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        mark = " ok " if ok else "FAIL"
        print(f"[{mark}] {name}: {detail}")
    print(f"ran {len(checks)} suites in {time.perf_counter() - t0:.1f}s")
    if failed:
        print(f"failing: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmoment",
        description="Decide whether first and second spin-operator moments admit a quantum state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a moment file")
    p.add_argument("--input", required=True, help="JSON moment file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("witness", help="search for a separating hyperplane")
    p.add_argument("--input", required=True, help="JSON moment file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="scan the (v1, v2) plane at fixed u")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", help='spin number, e.g. "5" or "5/2"')
    group.add_argument("--two-j", dest="two_j", type=int, help="twice the spin number")
    p.add_argument("--u", required=True, help="first moments u1,u2,u3 (renormalized)")
    p.add_argument("--grid", type=int, default=101, help="grid resolution per axis")
    p.add_argument("--sets", default="R,S,T", help="which sets to evaluate (subset of R,S,T)")
    p.add_argument("--v1-min", type=float, default=-0.2)
    p.add_argument("--v1-max", type=float, default=1.0)
    p.add_argument("--v2-min", type=float, default=-0.2)
    p.add_argument("--v2-max", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="optional SVG rendering path")
    p.add_argument("--workers", type=int, default=1, help="exact-test processes, at most the CPU count")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("validate", help="run the self-validation suites")
    p.add_argument("--j-max", type=int, default=20, help="largest two_j for algebra checks")
    p.add_argument("--seed", type=int, default=2024, help="seed for all sampling")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="force a failing tolerance (self-test of the validator)",
    )
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command; input errors exit 3 and solver failures exit 4."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
