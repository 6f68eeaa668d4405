import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinmoment
from spinmoment import cli, sdp
from spinmoment.cli import MomentFileError, load_moment_file, parse_spin
from spinmoment.scan import read_scan_csv, scan_grid


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def spin_half_file(tmp_path, ell):
    """A j = 1/2 moment file: Re(M) = I/4 is forced, Im(M) carries l."""
    m = [[[0.25, 0.0], [0.0, ell[2] / 2], [0.0, -ell[1] / 2]],
         [[0.0, -ell[2] / 2], [0.25, 0.0], [0.0, ell[0] / 2]],
         [[0.0, ell[1] / 2], [0.0, -ell[0] / 2], [0.25, 0.0]]]
    return write_json(tmp_path / "half.json", {"two_j": 1, "M": m})


def mixed_file(tmp_path, two_j=10):
    return write_json(
        tmp_path / "mixed.json",
        {"two_j": two_j, "coords": {"u": [0, 0, 0], "v": [1 / 3, 1 / 3, 1 / 3]}},
    )


class TestParseSpin:
    def test_formats(self):
        assert parse_spin("5") == 10
        assert parse_spin("2.5") == 5
        assert parse_spin("5/2") == 5
        assert parse_spin("1") == 2

    def test_rejects_bad_values(self):
        for bad in ("0", "-1", "1/3", "0.3"):
            with pytest.raises(MomentFileError):
                parse_spin(bad)


class TestMomentFile:
    def test_full_matrix_entry_pairs(self, tmp_path):
        j = 1.0
        m = [
            [[j / 2, 0], [0, j / 2], [0, 0]],
            [[0, -j / 2], [j / 2, 0], [0, 0]],
            [[0, 0], [0, 0], [j * j, 0]],
        ]
        path = write_json(tmp_path / "hw.json", {"two_j": 2, "M": m, "label": "hw"})
        mm, label = load_moment_file(path)
        assert label == "hw"
        assert np.allclose(mm.first_moments, [0, 0, 1])

    def test_coords_form(self, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"two_j": 4, "coords": {"u": [0, 0, 0.5], "v": [0.25, 0.25, 0.5]}},
        )
        mm, _ = load_moment_file(path)
        assert mm.two_j == 4

    @pytest.mark.parametrize(
        "payload, pattern",
        [
            ({}, "two_j"),
            ({"two_j": 0, "M": []}, "two_j"),
            ({"two_j": 2}, "exactly one"),
            (
                {
                    "two_j": 2,
                    "M": [[0, 0, 0]] * 3,
                    "coords": {"u": [0, 0, 0], "v": [0, 0, 1]},
                },
                "exactly one",
            ),
            ({"two_j": 2, "M": [[0, 0], [0, 0]]}, r"3x3"),
            ({"two_j": 2, "M": [[[0, 0], "x", [0, 0]]] * 3}, r"M\[0\]\[1\]"),
            ({"two_j": 2, "coords": {"u": [0, 0], "v": [0, 0, 1]}}, "coords.u"),
            ({"two_j": 4, "coords": {"u": [0, 0, 0], "v": [0.3, 0.3, 0.3]}}, "Casimir"),
        ],
    )
    def test_parse_errors(self, tmp_path, payload, pattern):
        path = write_json(tmp_path / "bad.json", payload)
        with pytest.raises(MomentFileError, match=pattern):
            load_moment_file(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(MomentFileError, match="cannot read"):
            load_moment_file(str(tmp_path / "missing.json"))


class TestCheckCommand:
    def test_quantum_exit_zero(self, tmp_path, capsys):
        rc = cli.main(["check", "--input", mixed_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out.strip().splitlines()[-1])
        assert report["status"] == "quantum"
        assert report["stage"] == "inner"

    def test_non_quantum_exit_one_with_witness(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {"two_j": 4, "coords": {"u": [0, 0, 1.1], "v": [0.2, 0.2, 0.6]}},
        )
        rc = cli.main(["check", "--input", path])
        out = capsys.readouterr().out
        assert rc == 1
        report = json.loads(out.strip().splitlines()[-1])
        assert report["status"] == "non-quantum"
        assert report["witness"]["value"] < 0
        assert report["witness"]["min_eigenvalue"] >= -1e-9
        coefficients = report["witness"]["coefficients"]
        assert list(coefficients) == ["I", "S11", "S12", "S13", "S22", "S23", "S33", "L1", "L2", "L3"]

    def test_spin_half_reject_carries_first_moment_witness(self, tmp_path, capsys):
        # |l| = 0.6 > j = 1/2: the optimal witness has value (1 - |l|/j)/(2j+1) = -0.1
        rc = cli.main(["check", "--input", spin_half_file(tmp_path, [0.6, 0.0, 0.0])])
        out = capsys.readouterr().out
        assert rc == 1
        report = json.loads(out.strip().splitlines()[-1])
        assert (report["status"], report["stage"]) == ("non-quantum", "first-moment")
        witness = report["witness"]
        assert abs(witness["value"] + 0.1) <= 1e-12
        assert all(witness["coefficients"][f"S{k}{l}"] == 0.0 for k in "123" for l in "123" if k <= l)

    def test_boundary_exit_two(self, tmp_path, capsys):
        # a pure entangled symmetric state sits exactly on the j=1 boundary:
        # its moments are M = diag(1, 0, 1) with no first moments
        m = [
            [[1, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0]],
        ]
        path = write_json(tmp_path / "edge.json", {"two_j": 2, "M": m})
        rc = cli.main(["check", "--input", path])
        out = capsys.readouterr().out
        assert rc == 2
        report = json.loads(out.strip().splitlines()[-1])
        assert report["status"] == "boundary"
        assert abs(report["t_star"]) <= 1e-7
        assert "certificate_spectrum" in report

    @pytest.mark.parametrize(
        "payload",
        [
            {"two_j": True, "M": [[0.25, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]},
            {"two_j": 2, "M": [[[True, 0], 0, 0], [0, 2 / 3, 0], [0, 0, 1 / 3]]},
            {"two_j": 2, "coords": {"u": [0, 0, False], "v": [0.4, 0.3, 0.3]}},
        ],
    )
    def test_boolean_values_exit_three(self, tmp_path, capsys, payload):
        rc = cli.main(["check", "--input", write_json(tmp_path / "bool.json", payload)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_casimir_violation_exit_three(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "cas.json",
            {"two_j": 4, "coords": {"u": [0, 0, 0], "v": [0.3, 0.3, 0.3]}},
        )
        rc = cli.main(["check", "--input", path])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Casimir" in err


class TestSolverFailure:
    @pytest.mark.parametrize("command", ["check", "witness", "scan"])
    def test_failed_solve_exits_four(self, tmp_path, capsys, monkeypatch, command):
        # Dicke |2,0> at 2j = 4: entangled, so classify reaches the exact SDP
        m = [[[3, 0], [0, 0], [0, 0]], [[0, 0], [3, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
        path = write_json(tmp_path / "dicke.json", {"two_j": 4, "M": m})
        argv = [command, "--input", path]
        if command == "scan":
            # the paper-figure slice has cells only the S test (an SDP) decides
            out = str(tmp_path / "scan.csv")
            argv = ["scan", "--two-j", "10", "--u", "0.1,0.2,0.3", "--grid", "9",
                    "--workers", "1", "--out", out]

        def failing_solve(ops, b, dim):
            return sdp.SdpSolution(status=sdp.STATUS_FAILURE, message="forced failure")

        monkeypatch.setattr(sdp, "solve", failing_solve)
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == cli.EXIT_SOLVER_FAILURE == 4
        assert err.startswith("error: ") and "forced failure" in err


class TestWitnessCommand:
    def test_found_exit_zero(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {"two_j": 4, "coords": {"u": [0, 0, 0], "v": [1.2, -0.1, -0.1]}},
        )
        rc = cli.main(["witness", "--input", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "separates" in out
        report = json.loads(out.strip().splitlines()[-2])
        assert report["value"] < 0

    def test_quantum_input_exit_one(self, tmp_path, capsys):
        rc = cli.main(["witness", "--input", mixed_file(tmp_path, 4)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "no witness exists" in out and "t_star" in out
        # an accepted input prints no hyperplane
        assert "Z spectrum" not in out

    def test_spin_half_witness_solves_no_sdp(self, tmp_path, capsys, monkeypatch):
        path = spin_half_file(tmp_path, [0.6, 0.0, 0.0])
        assert cli.main(["check", "--input", path]) == 1
        checked = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["witness"]
        calls = []
        real_solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda *args: calls.append(args) or real_solve(*args))
        rc = cli.main(["witness", "--input", path])
        out = capsys.readouterr().out
        assert rc == 0 and calls == []
        report = json.loads(out.strip().splitlines()[-2])
        assert report["value"] == checked["value"]
        assert report["coefficients"] == checked["coefficients"]

    def test_spin_half_quantum_input_exit_one(self, tmp_path, capsys):
        rc = cli.main(["witness", "--input", spin_half_file(tmp_path, [0.1, 0.2, 0.3])])
        out = capsys.readouterr().out
        assert rc == 1
        assert "no witness exists" in out and "t_star" in out

    def test_malformed_input_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"two_j": 2})
        rc = cli.main(["witness", "--input", path])
        assert rc == 3
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness"])
        assert exc.value.code == 2


class TestScanCommand:
    def test_scan_csv_and_svg(self, tmp_path, capsys):
        out_csv = str(tmp_path / "scan.csv")
        out_svg = str(tmp_path / "scan.svg")
        rc = cli.main(
            [
                "scan",
                "--j",
                "5",
                "--u",
                "0.1,0.2,0.3",
                "--grid",
                "9",
                "--out",
                out_csv,
                "--svg",
                out_svg,
            ]
        )
        assert rc == 0
        rows, header = read_scan_csv(out_csv)
        assert header == ("v1", "v2", "in_R", "in_Sj", "in_Tj")
        assert len(rows) == 81
        # nesting at every grid point
        for _, _, fr, fs, ft in rows:
            assert not (fr == 1 and fs == 0)
            assert not (fs == 1 and ft == 0)
        svg = (tmp_path / "scan.svg").read_text(encoding="utf-8")
        assert svg.startswith("<?xml")
        # the summary counts the exact-test cells (T but not R) and the per-cell times
        summary = re.search(
            r"exact tests on (\d+) cells; per cell p50 ([\d.]+) ms, p99 ([\d.]+) ms",
            capsys.readouterr().out,
        )
        assert summary is not None
        assert int(summary.group(1)) == sum(fr == 0 and ft == 1 for _, _, fr, _, ft in rows) > 0
        assert 0.0 < float(summary.group(2)) <= float(summary.group(3))

    def test_svg_cells_match_csv_flags(self, tmp_path):
        result = scan_grid(4, np.array([0.0, 0.0, 0.2]), resolution=7)
        csv_path = str(tmp_path / "s.csv")
        svg_path = str(tmp_path / "s.svg")
        result.to_csv(csv_path)
        result.to_svg(svg_path)
        svg = (tmp_path / "s.svg").read_text(encoding="utf-8")
        cells = dict(
            re.findall(r'<rect id="c-(\d+-\d+)" [^>]*fill="(#[0-9a-f]+)"', svg)
        )
        from spinmoment.scan import SVG_COLORS

        for i1 in range(7):
            for i2 in range(7):
                key = f"{i1}-{i2}"
                if result.in_r[i1, i2] == 1:
                    assert cells[key] == SVG_COLORS["R"]
                elif result.in_s[i1, i2] == 1:
                    assert cells[key] == SVG_COLORS["S"]
                elif result.in_t[i1, i2] == 1:
                    assert cells[key] == SVG_COLORS["T"]
                else:
                    assert key not in cells

    def test_csv_round_trip_reproduces_flags(self, tmp_path):
        two_j = 4
        u = np.array([0.1, 0.0, 0.2])
        result = scan_grid(two_j, u, resolution=9)
        path = str(tmp_path / "r.csv")
        result.to_csv(path)
        rows, _ = read_scan_csv(path)
        rng = np.random.default_rng(8)
        from spinmoment.scan import _point_flags

        picks = rng.choice(len(rows), size=max(1, len(rows) // 100 + 3), replace=False)
        for idx in picks:
            v1, v2, fr, fs, ft = rows[idx]
            gr, gs, gt = _point_flags(two_j, u, v1, v2, True)
            assert (int(gr), int(gs), int(gt)) == (fr, fs, ft)

    def test_degenerate_point_at_full_polarization(self, tmp_path):
        # u = (0,0,1) admits only v = (0,0,1)
        result = scan_grid(6, np.array([0.0, 0.0, 1.0]), resolution=7)
        assert result.area("R") == 1
        assert result.area("S") == 1
        assert result.area("T") == 1
        i1 = np.where(np.isclose(result.v1_values, 0.0))[0][0]
        i2 = np.where(np.isclose(result.v2_values, 0.0))[0][0]
        assert result.in_s[i1, i2] == 1

    def test_spin_one_exact_set_is_all_positive_states(self):
        # at j = 1 no extension is required, so S equals the PSD points and
        # is strictly larger than the separable region R
        from spinmoment import matcore, reduction
        from spinmoment.reduction import RenormalizedCoords

        result = scan_grid(2, np.zeros(3), resolution=9)
        assert result.area("S") > result.area("R")
        for i1, v1 in enumerate(result.v1_values):
            for i2, v2 in enumerate(result.v2_values):
                coords = RenormalizedCoords(
                    u=np.zeros(3), v=np.array([v1, v2, 1 - v1 - v2]), two_j=2
                )
                rho = reduction.reconstruct_rho(reduction.moments_from_coords(coords))
                psd = matcore.min_eigenvalue(rho) >= -1e-8
                assert (result.in_s[i1, i2] == 1) == psd

    def test_sets_subset_skips_exact(self, tmp_path):
        result = scan_grid(4, np.array([0.0, 0.0, 0.2]), resolution=5, sets=("R", "T"))
        assert np.all(result.in_s == -1)
        path = str(tmp_path / "rt.csv")
        result.to_csv(path)
        rows, _ = read_scan_csv(path)
        assert all(r[3] is None for r in rows)

    def test_unknown_set_name_exit_three(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        argv = ["scan", "--two-j", "4", "--u", "0,0,0", "--grid", "5", "--sets", "R,X", "--out", out]
        assert cli.main(argv) == 3
        assert "unknown set names ['X']" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown set"):
            scan_grid(4, np.zeros(3), resolution=5, sets=("R", "Q"))

    @pytest.mark.parametrize("spin", [("--two-j", "0"), ("--j", "inf"), ("--j", "1e400")])
    def test_bad_spin_exit_three(self, tmp_path, spin):
        # run as a user would, so an escaping exception shows as a traceback
        src = str(Path(spinmoment.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["scan", *spin, "--u", "0,0,0", "--grid", "5", "--out", str(tmp_path / "x.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "spinmoment.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bound", ["--v1-min", "--v2-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_range_exit_three(self, tmp_path, capsys, bound, value):
        argv = ["scan", "--two-j", "4", "--u", "0,0,0", "--grid", "5", bound, value,
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {bound[2:4]} range (")

    def test_parallel_scan_matches_serial(self):
        u = np.array([0.1, 0.2, 0.3])
        serial = scan_grid(4, u, resolution=9, workers=1)
        parallel = scan_grid(4, u, resolution=9, workers=2)
        assert np.array_equal(serial.in_r, parallel.in_r)
        assert np.array_equal(serial.in_s, parallel.in_s)
        assert np.array_equal(serial.in_t, parallel.in_t)

    @pytest.mark.parametrize(
        "two_j, u, n, sets",
        [
            (2, (0.0, 0.0, 0.0), 9, ("R", "S", "T")),
            (4, (0.0, 0.0, 1.2), 3, ("R", "T")),
            (6, (0.0, 0.0, 1.0), 7, ("R", "S", "T")),
            (10, (0.1, 0.2, 0.3), 15, ("R", "S", "T")),
            (62, (0.3, -0.2, 0.1), 15, ("R", "T")),
        ],
    )
    def test_every_cell_matches_point_oracle(self, two_j, u, n, sets):
        from spinmoment.scan import _point_flags

        u = np.array(u)
        result = scan_grid(two_j, u, resolution=n, sets=sets)
        for i1, v1 in enumerate(result.v1_values):
            for i2, v2 in enumerate(result.v2_values):
                fr, fs, ft = _point_flags(two_j, u, float(v1), float(v2), "S" in sets)
                got = (result.in_r[i1, i2], result.in_s[i1, i2], result.in_t[i1, i2])
                assert got == (int(fr), int(fs), int(ft)), (v1, v2)

    def test_warns_on_long_u(self, tmp_path, capsys):
        rc = cli.main(
            [
                "scan",
                "--two-j",
                "4",
                "--u",
                "0,0,1.2",
                "--grid",
                "3",
                "--sets",
                "R,T",
                "--out",
                str(tmp_path / "w.csv"),
            ]
        )
        assert rc == 0
        assert "|u| > 1" in capsys.readouterr().err


class TestValidateCommand:
    def test_default_green(self, capsys):
        rc = cli.main(["validate", "--j-max", "8", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL]" not in out
        assert "spin-algebra" in out

    def test_witness_duality_checks_extension_formulation(self, capsys, monkeypatch):
        # the witness must agree with t* of the independent extension program
        import dataclasses

        from spinmoment import feasibility

        real = feasibility.exact_test_extension

        def shifted(*args, **kwargs):
            v = real(*args, **kwargs)
            return dataclasses.replace(v, t_star=v.t_star + 1e-3)

        monkeypatch.setattr(feasibility, "exact_test_extension", shifted)
        rc = cli.main(["validate", "--j-max", "4"])
        assert rc == 1
        assert "[FAIL] witness-duality" in capsys.readouterr().out

    def test_sdp_analytic_suite_catches_shifted_t_star(self, capsys, monkeypatch):
        import dataclasses

        real = sdp.phase1_min_t

        def shifted(*args, **kwargs):
            p1 = real(*args, **kwargs)
            return dataclasses.replace(p1, t_star=p1.t_star + 1e-3)

        monkeypatch.setattr(sdp, "phase1_min_t", shifted)
        rc = cli.main(["validate", "--j-max", "4"])
        assert rc == 1
        assert "[FAIL] sdp-analytic" in capsys.readouterr().out

    def test_early_witness_suite_catches_flipped_sign(self, capsys, monkeypatch):
        from spinmoment import feasibility

        real = feasibility._eigenvector_witness

        def flipped(*args):
            w = real(*args)
            return feasibility.Witness(-w.matrix, -w.value, -w.op_coefficients, w.op_labels)

        monkeypatch.setattr(feasibility, "_eigenvector_witness", flipped)
        rc = cli.main(["validate", "--j-max", "4"])
        assert rc == 1
        assert "[FAIL] early-witness" in capsys.readouterr().out

    def test_first_moment_suite_catches_flipped_sign(self, capsys, monkeypatch):
        import dataclasses

        from spinmoment import feasibility

        real = feasibility.first_moment_test

        def flipped(*args):
            v = real(*args)
            if v.witness is None:
                return v
            w = dataclasses.replace(v.witness, op_coefficients=-v.witness.op_coefficients)
            return dataclasses.replace(v, witness=w)

        monkeypatch.setattr(feasibility, "first_moment_test", flipped)
        rc = cli.main(["validate", "--j-max", "4"])
        assert rc == 1
        assert "[FAIL] first-moment" in capsys.readouterr().out

    def test_injected_fault_goes_red(self, capsys):
        rc = cli.main(["validate", "--j-max", "4", "--inject-fault"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[FAIL] spin-algebra" in captured.out
        assert "spin-algebra" in captured.err
