import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinmoment
from spinmoment import cli, feasibility, sdp
from spinmoment.cli import MomentFileError, load_moment_file, parse_spin
from spinmoment.scan import scan_grid

from conftest import first_moment_part
from scan_csv import read_scan_csv


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
        assert report["t_star"] is None and report["t_star_kind"] is None

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

    def test_exact_stage_reports_its_bound(self, tmp_path, capsys):
        # <L3^2> = 0 with <L1^2> != <L2^2> at 2j = 4: only the exact stage rejects,
        # and it stops at the dual bound that clears the band
        c = 6.0  # j(j+1)
        m = [[[0.6 * c, 0], [0, 0], [0, 0]], [[0, 0], [0.4 * c, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
        rc = cli.main(["check", "--input", write_json(tmp_path / "zero.json", {"two_j": 4, "M": m})])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 1
        report = json.loads(lines[-1])
        assert (report["stage"], report["t_star_kind"]) == ("exact", "dual bound")
        assert report["t_star"] > 1e-7
        assert abs(report["witness"]["value"] + report["t_star"]) <= 1e-12
        (row,) = [line for line in lines if line.split()[:1] == ["exact"]]
        assert row.endswith(", dual bound")

    @staticmethod
    def dicke_file(tmp_path, two_j, m, eps):
        """|j, m> mixed with eps * I/d, axial about z: an exact accept for small |m|."""
        j = two_j / 2.0
        c = j * (j + 1.0)
        l3, l3sq = (1.0 - eps) * m, (1.0 - eps) * m * m + eps * c / 3.0
        side = (c - l3sq) / 2.0
        rows = [[[side, 0], [0, l3 / 2], [0, 0]], [[0, -l3 / 2], [side, 0], [0, 0]], [[0, 0], [0, 0], [l3sq, 0]]]
        return write_json(tmp_path / "dicke.json", {"two_j": two_j, "M": rows})

    def test_check_reports_the_frame(self, tmp_path, capsys):
        # l = 0 with distinct principal values is four-block, the Dicke input axial,
        # and a generic input's exact stage runs the complex program
        c = 6.0
        zero = [[[0.6 * c, 0], [0, 0], [0, 0]], [[0, 0], [0.4 * c, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
        generic = {"two_j": 10, "coords": {"u": [0.1, 0.2, 0.3], "v": [0.4, 0.6, 0.0]}}
        for path, frame, status in (
            (write_json(tmp_path / "zero.json", {"two_j": 4, "M": zero}), "four-block", "non-quantum"),
            (self.dicke_file(tmp_path, 30, 3, 0.01), "axial", "quantum"),
            (write_json(tmp_path / "generic.json", generic), None, "non-quantum"),
        ):
            cli.main(["check", "--input", path])
            lines = capsys.readouterr().out.strip().splitlines()
            report = json.loads(lines[-1])
            assert (report["stage"], report["status"], report["frame"]) == ("exact", status, frame)
            (row,) = [line for line in lines if line.split()[:1] == ["exact"]]
            assert (f"real frame, {frame}, " in row) == (frame is not None)

    def test_spin_half_reject_carries_first_moment_witness(self, tmp_path, capsys):
        # |l| = 0.6 > j = 1/2: the optimal witness has value (1 - |l|/j)/(2j+1) = -0.1
        rc = cli.main(["check", "--input", spin_half_file(tmp_path, [0.6, 0.0, 0.0])])
        out = capsys.readouterr().out
        assert rc == 1
        report = json.loads(out.strip().splitlines()[-1])
        assert (report["status"], report["stage"]) == ("non-quantum", "first-moment")
        witness = report["witness"]
        assert abs(witness["value"] + 0.1) <= 1e-12
        # the closed form has no S_kl part; made canonical, S11 = S22 = S33 and c.r = 0
        c = witness["coefficients"]
        assert c["S12"] == c["S13"] == c["S23"] == 0.0
        assert c["S11"] == c["S22"] == c["S33"]
        assert abs(c["S11"] + c["S22"] + c["S33"] - 0.75 * c["I"]) <= 1e-15

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
        assert report["t_star_kind"] == "optimum"
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


class TestHugeCoordinates:
    """Coordinates whose moments overflow float64 are an input error, with no
    numpy warning (tier-1 makes a RuntimeWarning an error): ValueError, exit 3."""

    @pytest.mark.parametrize(
        "u, v", [([1e308, 0, 0], [0.2, 0.3, 0.5]), ([0, 0, 0], [1e308, -1e308, 1])], ids=["u", "v"]
    )
    def test_check_coords(self, tmp_path, capsys, u, v):
        from spinmoment import reduction

        coords = reduction.RenormalizedCoords(np.array(u, dtype=float), np.array(v, dtype=float), 4)
        with pytest.raises(ValueError, match="too large for float64"):
            reduction.moments_from_coords(coords)
        path = write_json(tmp_path / "huge.json", {"two_j": 4, "coords": {"u": u, "v": v}})
        assert cli.main(["check", "--input", path]) == 3
        assert "too large for float64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "u, v, entry",
        [([0, 0, 0], [float("nan"), 0, 1], "v[0] = nan"), ([0, float("inf"), 0], [0.2, 0.3, 0.5], "u[1] = inf")],
        ids=["nan-v", "inf-u"],
    )
    def test_check_non_finite_coords(self, tmp_path, capsys, u, v, entry):
        # json reads NaN and Infinity; the error names the coordinate, exit 3
        path = write_json(tmp_path / "nan.json", {"two_j": 4, "coords": {"u": u, "v": v}})
        assert cli.main(["check", "--input", path]) == 3
        assert f"non-finite entries: {entry}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs, argv",
        [
            ({"u": (1e308, 0.0, 0.0)}, ["--u", "1e308,0,0"]),
            ({"v1_range": (-1e308, 1e308)}, ["--v1-min=-1e308", "--v1-max=1e308"]),
        ],
        ids=["u", "v1-range"],
    )
    def test_scan(self, tmp_path, capsys, kwargs, argv):
        with pytest.raises(ValueError, match="too large for float64"):
            scan_grid(10, **{"u": (0.1, 0.2, 0.3), **kwargs}, resolution=5)
        argv = ["scan", "--j", "5", "--u", "0.1,0.2,0.3", "--grid", "5", "--out", str(tmp_path / "s.csv"), *argv]
        assert cli.main(argv) == 3
        assert "too large for float64" in capsys.readouterr().err


class TestSolverFailure:
    @staticmethod
    def run(argv, capsys, iterations):
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == cli.EXIT_SOLVER_FAILURE == 4
        assert err.startswith("error: ") and f"no convergence after {iterations} iterations" in err
        assert out is None or not out.exists()

    @pytest.mark.parametrize("command", ["check", "witness", "scan"])
    def test_failed_solve_exits_four(self, tmp_path, capsys, monkeypatch, command):
        # l = 0 and Re(M) = diag(3.6, 2.25, 0.15) at 2j = 4: entangled pairs, so classify
        # reaches the exact stage, in a four-block frame, decided with no SDP by the
        # search of feasibility._four_block_optimum (an axial input would be decided
        # in closed form).  Its first eigensolve already decides it, so the search
        # is allowed none and fails after 0 iterations; the scan's S cells still run
        # the kernel, whose real non-convergence is forced as in
        # test_kernel_non_convergence_exits_four
        m = [[[3.6, 0], [0, 0], [0, 0]], [[0, 0], [2.25, 0], [0, 0]], [[0, 0], [0, 0], [0.15, 0]]]
        path = write_json(tmp_path / "zero.json", {"two_j": 4, "M": m})
        argv = [command, "--input", path]
        if command == "scan":
            # the paper-figure slice has cells only the S test (an SDP) decides
            argv = ["scan", "--two-j", "10", "--u", "0.1,0.2,0.3", "--grid", "9",
                    "--workers", "1", "--out", str(tmp_path / "scan.csv")]
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(feasibility, "_EVALUATIONS", 0)
        self.run(argv, capsys, 1 if command == "scan" else 0)

    @pytest.mark.parametrize("command", ["check", "witness"])
    def test_kernel_non_convergence_exits_four(self, tmp_path, capsys, monkeypatch, command):
        # Dicke-one at 2j = 6, l = (0, 0, 1) and Re(M) = diag(6.6, 4.4, 1): a parity
        # input the exact stage decides with the SDP kernel, so this is a real
        # non-convergence: no program reaches the tolerance in one iteration
        m = np.diag([6.6, 4.4, 1.0]) + first_moment_part([0.0, 0.0, 1.0])
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        path = write_json(tmp_path / "one.json", {"two_j": 6, "M": pairs})
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
        self.run([command, "--input", path], capsys, 1)


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

    def test_spin_half_structure_violation_exit_three(self, tmp_path, capsys):
        m = [[0.3, 0, 0], [0, 0.25, 0], [0, 0, 0.2]]
        rc = cli.main(["witness", "--input", write_json(tmp_path / "half.json", {"two_j": 1, "M": m})])
        assert rc == 3
        assert "forced to Re(M) = I/4" in capsys.readouterr().err

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
        # the summary counts the exact-test cells (T but not R), the per-cell times and
        # the cells the factored stage and the kernel decided: no cell here has a frame
        summary = re.search(
            r"exact tests on (\d+) cells; per cell p50 ([\d.]+) ms, p99 ([\d.]+) ms; "
            r"(\d+) factored accepts, (\d+) kernel solves",
            capsys.readouterr().out,
        )
        assert summary is not None
        assert int(summary.group(1)) == sum(fr == 0 and ft == 1 for _, _, fr, _, ft in rows) > 0
        assert 0.0 < float(summary.group(2)) <= float(summary.group(3))
        assert int(summary.group(4)) + int(summary.group(5)) == int(summary.group(1))
        assert 0 < int(summary.group(4)) <= sum(fr == 0 and fs == 1 for _, _, fr, fs, _ in rows)

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

    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        # a fake pool records its size and runs the spans inline, so that no process starts
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        u = np.array([0.1, 0.2, 0.3])
        serial = scan_grid(10, u, resolution=15)
        capped = scan_grid(10, u, resolution=15, workers=5000)
        assert sizes == [3]
        assert np.array_equal(serial.in_s, capped.in_s)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_exit_three(self, tmp_path, capsys, workers):
        out = tmp_path / "x.csv"
        argv = ["scan", "--two-j", "4", "--u", "0,0,0", "--grid", "5", "--workers", workers, "--out", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: workers must be at least 1, got {workers}")
        assert not out.exists()

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
            (62, (0.3, -0.2, 0.1), 31, ("R", "T")),
            (3, (0.1, 0.2, 0.3), 15, ("R", "T")),
            (1000, (0.1, 0.2, 0.3), 21, ("R", "T")),
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

    def test_blocks_smaller_than_a_row_keep_the_flags(self, monkeypatch):
        # a budget below one grid row gives one-row R/T blocks and one-cell exact batches
        u = np.array([0.1, 0.2, 0.3])
        whole = scan_grid(10, u, resolution=9)
        monkeypatch.setattr(sdp, "BATCH_ENTRIES", 8)
        assert sdp.batch_size(9 * 41) == 1
        blocked = scan_grid(10, u, resolution=9)
        assert (blocked.in_s == 0).any() and (blocked.in_s[blocked.in_r == 0] == 1).any()
        for name in ("in_r", "in_s", "in_t"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    def test_random_slices_match_per_row_eigenvalue_tests(self):
        # the per-row eigvalsh scan the LDL mask replaced, over the same affine maps
        from spinmoment import matcore
        from spinmoment.scan import _slice_maps

        rng = np.random.default_rng(1903)
        for _ in range(10):
            two_j = int(rng.integers(2, 64))
            u = rng.uniform(-0.4, 0.4, 3)
            result = scan_grid(two_j, u, resolution=51, sets=("R", "T"))
            maps = _slice_maps(two_j, u)
            for i1, v1 in enumerate(result.v1_values):
                rho_psd, pt_psd, chi_psd = (
                    np.linalg.eigvalsh(c0 + v1 * d1 + result.v2_values[:, None, None] * d2)[:, 0]
                    >= -matcore.PSD_TOL
                    for c0, d1, d2 in maps
                )
                assert np.array_equal(result.in_r[i1], rho_psd & pt_psd), (two_j, u, v1)
                assert np.array_equal(result.in_t[i1], rho_psd & chi_psd), (two_j, u, v1)

    @pytest.mark.parametrize("u, named", [("nan,0,0", r"u\[0\] = nan"), ("0,inf,0", r"u\[1\] = inf")])
    def test_non_finite_u_is_an_input_error(self, u, named, tmp_path, capsys):
        out = tmp_path / "n.csv"
        rc = cli.main(["scan", "--two-j", "4", "--u", u, "--grid", "3", "--sets", "R,T", "--out", str(out)])
        assert rc == 3
        assert re.search(f"error: first moments has non-finite entries: {named}", capsys.readouterr().err)
        assert not out.exists()

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
        assert "[ ok ] real-frame: 12 of 12 inputs" in out and "(none, parity, four-block, axial)" in out

    def test_witness_duality_checks_extension_formulation(self, monkeypatch):
        # the witness must agree with t* of the program over the independent
        # dense spin products; a partner with S12 scaled by 0.9 disagrees
        real = cli._dense_moment_operators

        def scaled(two_j):
            ops = real(two_j)
            ops[2] *= 0.9
            return ops

        name, ok, _ = cli._check_witness_duality(np.random.default_rng(2024))
        assert (name, ok) == ("witness-duality", True)
        monkeypatch.setattr(cli, "_dense_moment_operators", scaled)
        name, ok, _ = cli._check_witness_duality(np.random.default_rng(2024))
        assert (name, ok) == ("witness-duality", False)

    def test_sdp_analytic_suite_catches_shifted_t_star(self, monkeypatch):
        import dataclasses

        real = sdp.phase1_min_t

        def shifted(*args, **kwargs):
            p1 = real(*args, **kwargs)
            return dataclasses.replace(p1, t_star=p1.t_star + 1e-3)

        monkeypatch.setattr(sdp, "phase1_min_t", shifted)
        name, ok, _ = cli._check_sdp_analytic()
        assert (name, ok) == ("sdp-analytic", False)

    def test_early_witness_suite_catches_flipped_sign(self, monkeypatch):
        from spinmoment import feasibility

        real = feasibility._eigenvector_witness

        def flipped(*args):
            w = real(*args)
            return feasibility.Witness(-w.matrix, -w.value, -w.op_coefficients, w.op_labels)

        monkeypatch.setattr(feasibility, "_eigenvector_witness", flipped)
        name, ok, detail = cli._check_early_witness(np.random.default_rng(2024))
        assert (name, ok) == ("early-witness", False)
        assert "chi at 2j = 4 failed" in detail

    def test_scan_oracle_suite_catches_a_wrong_mask(self, monkeypatch):
        from spinmoment import matcore

        real = matcore.psd_mask
        name, ok, detail = cli._check_scan_oracle()
        assert (name, ok) == ("scan-oracle", True)
        assert detail.startswith("338 cells") and detail.endswith(", 0 differ")
        # a mask shifted the wrong way, lambda_min >= +PSD_TOL, drops the pure state
        # at v = (0, 0, 1) on the u = (0, 0, 1) slice
        shift = 2.0 * matcore.PSD_TOL
        monkeypatch.setattr(matcore, "psd_mask", lambda stack: real(stack - shift * np.eye(stack.shape[-1])))
        name, ok, _ = cli._check_scan_oracle()
        assert (name, ok) == ("scan-oracle", False)

    @staticmethod
    def clear_programs():
        from spinmoment import feasibility

        feasibility._frame_program.cache_clear()
        feasibility._moment_program.cache_clear()

    def test_real_frame_suite_catches_a_scaled_operator(self, monkeypatch):
        # L1 scaled by 0.9: no frame keeps it, and the frameless control's complex
        # program, which does, misses the t* over the dense products
        from spinmoment import feasibility

        name, ok, detail = cli._check_real_frame(np.random.default_rng(2024))
        assert (name, ok) == ("real-frame", True)
        assert detail.startswith("12 of 12 inputs")
        real = feasibility._moment_operator_set

        def mutant(two_j):
            ops = real(two_j).copy()
            ops[7] *= 0.9
            return ops

        self.clear_programs()
        monkeypatch.setattr(feasibility, "_moment_operator_set", mutant)
        try:
            name, ok, _ = cli._check_real_frame(np.random.default_rng(2024))
        finally:
            self.clear_programs()
        assert (name, ok) == ("real-frame", False)

    def test_real_frame_suite_catches_a_scaled_block_operator(self, monkeypatch):
        # L3 scaled by 0.9: the complex program of the frameless control and the
        # parity program keep it and miss the dense t*, the four-block one drops it,
        # and the axial closed form reads no operator; S33, which every program
        # keeps in the Casimir dependency, scaled by 0.9 makes the inputs' values
        # conflict
        from spinmoment import feasibility

        real, solve = feasibility._moment_operator_set, feasibility._phase1_verdicts
        seen = []

        def recording(stage, two_j, values, **kwargs):
            verdict = solve(stage, two_j, values, **kwargs)
            want = sdp.phase1_min_t(cli._dense_moment_operators(two_j), values).t_star
            seen.append((verdict.tests_run[0].frame, abs(verdict.t_star - want) > 1e-8))
            return verdict

        monkeypatch.setattr(feasibility, "_phase1_verdicts", recording)
        for label in (9, 6):
            def mutant(two_j, label=label):
                ops = real(two_j).copy()
                ops[label] *= 0.9
                return ops

            self.clear_programs()
            monkeypatch.setattr(feasibility, "_moment_operator_set", mutant)
            try:
                if label == 9:
                    name, ok, detail = cli._check_real_frame(np.random.default_rng(2024))
                    assert (name, ok) == ("real-frame", False)
                    assert detail.startswith("12 of 12 inputs")
                    assert {frame for frame, missed in seen if missed} == {None, "parity"}
                else:
                    with pytest.raises(ValueError, match="conflict"):
                        cli._check_real_frame(np.random.default_rng(2024))
            finally:
                self.clear_programs()

    def test_first_moment_suite_catches_flipped_sign(self, monkeypatch):
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
        name, ok, _ = cli._check_first_moment(np.random.default_rng(2024))
        assert (name, ok) == ("first-moment", False)

    def test_a_raising_suite_fails_alone(self, capsys, monkeypatch):
        # a suite whose solve raises prints its own [FAIL] line; the others still
        # run and validate exits 1, not with an input or solver error code
        def raises():
            raise ArithmeticError("phase-1 SDP did not converge: forced")

        monkeypatch.setattr(cli, "_check_sdp_analytic", raises)
        rc = cli.main(["validate", "--j-max", "4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[FAIL] sdp-analytic: raised ArithmeticError: phase-1 SDP did not converge: forced" in captured.out
        assert captured.out.count("[ ok ]") == 8
        assert "[ ok ] real-frame: 12 of 12 inputs" in captured.out
        assert "ran 9 suites" in captured.out
        assert "failing: sdp-analytic" in captured.err

    def test_injected_fault_goes_red(self, capsys):
        rc = cli.main(["validate", "--j-max", "4", "--inject-fault"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[FAIL] spin-algebra" in captured.out
        assert "spin-algebra" in captured.err
