"""CLI contract tests: exit codes, file formats, determinism."""

import argparse
import json
import warnings

import numpy as np
import pytest

from vortexfield import verify
from vortexfield.canonical import VortexConfig
from vortexfield.cli import build_parser, main
from vortexfield.geom import ConformalDomain
from vortexfield.micromag import ExternalField, magnetization_field, minimize_g_descent
from vortexfield.poisson import GridSpec

TWO_PI = 2.0 * np.pi


def run(args):
    return main(args)


class TestMinimizeCommand:
    def test_disk_zero_field(self, tmp_path):
        code = run(["minimize", "--domain", "disk", "--h", "0,0",
                    "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        s1, s2 = summary["s_min"]
        sep = abs(s1 - s2)
        assert abs(min(sep, TWO_PI - sep) - np.pi) < 1e-3
        assert summary["converged"] is True
        assert summary["config"]["domain"] == "disk"
        assert summary["total"] == summary["w0"] + summary["v_ext"]

    def test_budget_exhaustion_exits_2(self, tmp_path):
        code = run(["minimize", "--domain", "disk", "--h", "0,0",
                    "--max-evals", "3", "--out", str(tmp_path)])
        assert code == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is False

    def test_budget_exhaustion_is_reported(self, tmp_path, capsys):
        code = run(["minimize", "--h", "-0.01,0", "--grid", "16,32", "--max-evals", "3",
                    "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("minimize did not converge within the evaluation budget "
                                "(3 evaluations used, budget 3)\n")

    def test_failing_start_names_the_solver_failure(self, tmp_path, capsys, monkeypatch):
        # two Picard steps cannot converge at h = (0, 1): every vertex of the
        # starting simplex fails, and the run stops there
        from vortexfield import optimize
        calls = []
        real = optimize.total_energy

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(optimize, "total_energy", counted)
        code = run(["minimize", "--h", "0,1", "--grid", "16,32", "--max-iter", "2",
                    "--out", str(tmp_path)])
        assert code == 2
        assert len(calls) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Picard iteration did not converge in 2 steps")
        assert "budget" not in err
        assert not (tmp_path / "summary.json").exists()

    def test_failing_start_solves_each_vertex_once(self, tmp_path, monkeypatch):
        # each failing vertex keeps its solver message, so none is solved again
        from vortexfield import micromag
        calls, real = [], micromag.picard_solve

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(micromag, "picard_solve", counted)
        code = run(["minimize", "--h", "0,1", "--grid", "16,32", "--max-iter", "2",
                    "--out", str(tmp_path)])
        assert code == 2
        assert len(calls) == 3

    def test_budget_is_not_exceeded(self, tmp_path, capsys):
        code = run(["minimize", "--h=-0.01,0", "--grid", "16,32", "--max-evals", "4",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "(4 evaluations used, budget 4)" in capsys.readouterr().err
        assert json.loads((tmp_path / "summary.json").read_text())["evaluations"] == 4

    def test_byte_identical_reruns_in_one_process(self, tmp_path):
        # the search's warm starts live in its objective, so a second run
        # starts cold like the first
        args = ["minimize", "--domain", "oval", "--c", "0.2", "--h=0,3", "--grid", "16,32",
                "--out", str(tmp_path)]
        written = []
        for _ in range(2):
            assert run(args) == 0
            written.append((tmp_path / "summary.json").read_bytes())
        assert written[0] == written[1]

    def test_summary_reuses_the_search_evaluation(self, tmp_path, monkeypatch):
        # the reported pair is the search's lowest value: its breakdown is
        # kept, not solved again
        from vortexfield import cli, optimize
        real = optimize.total_energy
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        monkeypatch.setattr(optimize, "total_energy", counted)
        monkeypatch.setattr(cli, "total_energy", counted)
        code = run(["minimize", "--h=-0.01,0", "--grid", "16,32", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(calls) == summary["evaluations"]
        assert summary["total"] == summary["optimizer"]["best_history"][-1]
        cold = real(ConformalDomain.disk(), VortexConfig.pair(*summary["s_min"]),
                    ExternalField((-0.01, 0.0)), GridSpec(16, 32))
        assert summary["total"] == pytest.approx(cold.total, rel=1e-12, abs=0.0)
        assert summary["w0"] == cold.w0

    def test_invalid_grid_exits_1(self, tmp_path):
        assert run(["minimize", "--grid", "3,7", "--out", str(tmp_path)]) == 1

    def test_oversized_c_exits_1(self, tmp_path):
        assert run(["minimize", "--domain", "oval", "--c", "0.7",
                    "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("spelling", [["--h", "-0.01,0", "--s0", "-0.5,2.5"],
                                          ["--h=-0.01,0", "--s0=-0.5,2.5"]])
    def test_negative_values_in_both_spellings(self, tmp_path, spelling):
        code = run(["minimize", *spelling, "--grid", "16,32", "--max-evals", "3",
                    "--out", str(tmp_path)])
        assert code == 2  # parsed and run; three evaluations cannot converge
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["h"] == [-0.01, 0.0]
        assert summary["config"]["s0"] == [-0.5, 2.5]


class TestLandscapeCommand:
    def test_csv_format_contract(self, tmp_path):
        code = run(["landscape", "--domain", "disk", "--h", "0,0",
                    "--landscape-n", "16", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "landscape.csv").read_text().splitlines()
        assert lines[0] == "s1,s2,W"
        assert len(lines) == 1 + 16 * 16
        # diagonal cells carry the literal inf
        diag = lines[1].split(",")
        assert diag[2] == "inf"
        for line in lines[1:]:
            assert "nan" not in line

    def test_zero_field_minimum_band(self, tmp_path):
        run(["landscape", "--domain", "disk", "--h", "0,0",
             "--landscape-n", "32", "--out", str(tmp_path)])
        rows = (tmp_path / "landscape.csv").read_text().splitlines()[1:]
        data = [row.split(",") for row in rows]
        values = np.array([float(v) for _, _, v in data])
        s1 = np.array([float(a) for a, _, _ in data])
        s2 = np.array([float(b) for _, b, _ in data])
        best = np.argmin(values)
        sep = abs(s1[best] - s2[best]) % TWO_PI
        sep = min(sep, TWO_PI - sep)
        assert abs(sep - np.pi) <= TWO_PI / 32 + 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run(["landscape", "--domain", "disk", "--h", "0,0",
                        "--landscape-n", "16", "--out", str(out)]) == 0
        assert (out1 / "landscape.csv").read_bytes() == (out2 / "landscape.csv").read_bytes()

    def test_max_iter_reaches_every_evaluation(self, tmp_path):
        # h = (0, 1) needs more than five Picard steps at most of the 240 cells;
        # with two, no cell converges and the command fails
        failures = {}
        for max_iter in ("5", "50"):
            out = tmp_path / max_iter
            assert run(["landscape", "--h", "0,1", "--grid", "16,32", "--landscape-n", "16",
                        "--max-iter", max_iter, "--out", str(out)]) == 0
            summary = json.loads((out / "landscape_summary.json").read_text())
            failures[max_iter] = summary["failures"]
        assert 200 < failures["5"] < 240 and failures["50"] == 0

    def test_a_scan_with_no_finite_cell_exits_2(self, tmp_path, capsys):
        # one Picard step converges in no cell at h = (0, 1): the command names
        # the first cell's solver failure and writes nothing
        out = tmp_path / "l"
        code = run(["landscape", "--h", "0,1", "--grid", "16,32", "--landscape-n", "16",
                    "--max-iter", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Picard iteration did not converge in 1 steps")
        assert not out.exists()

    def test_svg_emission(self, tmp_path):
        run(["landscape", "--domain", "disk", "--h", "0,0",
             "--landscape-n", "16", "--svg", "--out", str(tmp_path)])
        svg = (tmp_path / "landscape.svg").read_text()
        assert svg.startswith("<svg")
        assert "#b0b0b0" in svg  # sentinel color of the infinite band


class TestFieldCommand:
    def test_requires_s_or_auto_min(self, tmp_path):
        assert run(["field", "--domain", "disk", "--out", str(tmp_path)]) == 1

    def test_degenerate_angles_exit_1(self, tmp_path):
        assert run(["field", "--domain", "disk", "--s", "1.0,1.0",
                    "--out", str(tmp_path)]) == 1

    def test_unit_rows_and_summary(self, tmp_path):
        code = run(["field", "--domain", "disk", "--h", "0,0",
                    "--s", "0,3.14159", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "field.csv").read_text().splitlines()
        assert lines[0] == "x,y,mx,my"
        for line in lines[1:]:
            x, y, mx, my = map(float, line.split(","))
            assert abs(mx * mx + my * my - 1.0) < 1e-9
        summary = json.loads((tmp_path / "field_summary.json").read_text())
        assert summary["samples"] == len(lines) - 1
        assert "solver" not in summary   # h = 0: theta = 0 without a solve

    def test_summary_reports_the_picard_solve(self, tmp_path):
        assert run(["field", "--h", "0,1", "--s", "0.5,2.5", "--grid", "16,32",
                    "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "field_summary.json").read_text())
        solver = summary["solver"]
        assert set(solver) == {"iterations", "residual", "final_change", "sigma",
                               "branches_solved", "loser_bound"}
        assert solver["sigma"] in (1, -1)
        assert solver["branches_solved"] in (1, 2)
        assert isinstance(solver["loser_bound"], float)   # |h| = 1 < lambda_min
        assert solver["iterations"] >= 1
        assert solver["final_change"] < summary["config"]["tol"]
        assert solver["residual"] < 1e-6

    def test_boundary_tangency_rows(self, tmp_path):
        # the outermost sample ring sits at r = 1 - 1e-9; arrows there are
        # tangent except near the two vortices at angles 0 and pi
        run(["field", "--domain", "disk", "--h", "0,0", "--s", "0,3.14159",
             "--out", str(tmp_path)])
        lines = (tmp_path / "field.csv").read_text().splitlines()[1:]
        checked = 0
        for line in lines:
            x, y, mx, my = map(float, line.split(","))
            r = np.hypot(x, y)
            if r < 1.0 - 1e-6:
                continue
            angle = np.arctan2(y, x) % TWO_PI
            near_vortex = min(angle, TWO_PI - angle) < 0.1 or abs(angle - np.pi) < 0.1
            if near_vortex:
                continue
            assert abs(mx * x / r + my * y / r) < 1e-6
            checked += 1
        assert checked > 10

    def test_auto_min_with_failing_start_names_the_solver_failure(self, tmp_path, capsys):
        code = run(["field", "--auto-min", "--domain", "oval", "--h", "0,1",
                    "--grid", "16,32", "--max-iter", "2", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Picard iteration did not converge in 2 steps")
        assert "budget" not in err
        assert not (tmp_path / "field.csv").exists()

    def test_auto_min_byte_identical_reruns_in_one_process(self, tmp_path):
        args = ["field", "--auto-min", "--domain", "oval", "--c", "0.2", "--h=0,3",
                "--grid", "16,32", "--jitter", "0.5", "--out", str(tmp_path)]
        written = []
        for _ in range(2):
            assert run(args) == 0
            written.append([(tmp_path / name).read_bytes()
                            for name in ("field.csv", "field_summary.json")])
        assert written[0] == written[1]

    def test_auto_min_solves_nothing_after_the_search(self, tmp_path, monkeypatch):
        # the field samples the search's own solve at the pair it reports
        from vortexfield import cli, micromag
        calls, after_search = [], []
        real_solve, real_search = micromag.picard_solve, cli.nelder_mead

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real_solve(*args, **kwargs)

        def search(*args, **kwargs):
            result = real_search(*args, **kwargs)
            after_search.append(len(calls))
            return result
        monkeypatch.setattr(micromag, "picard_solve", counted)
        monkeypatch.setattr(cli, "nelder_mead", search)
        assert run(["field", "--auto-min", "--domain", "oval", "--c", "0.2", "--h", "0,1",
                    "--grid", "16,32", "--out", str(tmp_path)]) == 0
        assert len(calls) > 0 and after_search == [len(calls)]

    def test_auto_min_starts_from_the_search_thetas(self, tmp_path):
        # the field is the search's own solve at the minimizer, which started
        # from the affine fit through the search's thetas near it; it is the
        # cold solve's field, which takes more Picard steps
        assert run(["field", "--auto-min", "--domain", "oval", "--c", "0.2", "--h=0,3",
                    "--grid", "32,64", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "field_summary.json").read_text())
        cold = magnetization_field(ConformalDomain.oval(0.2), VortexConfig.pair(*summary["s"]),
                                   ExternalField((0.0, 3.0)), GridSpec(32, 64))
        rows = np.loadtxt(tmp_path / "field.csv", delimiter=",", skiprows=1)
        expected = np.array([(p.x, p.y, p.mx, p.my) for p in cold.samples])
        assert rows.shape == expected.shape
        assert np.max(np.abs(rows - expected)) <= 1e-9
        assert summary["solver"]["iterations"] < cold.solver["iterations"]
        assert summary["solver"]["sigma"] == cold.solver["sigma"]

    def test_strong_field_converges(self, tmp_path):
        # |h| = 8 is past the plain Picard contraction bound (about 5.8)
        code = run(["field", "--domain", "oval", "--c", "0.2", "--h", "0,8",
                    "--s", "0.5,2.5", "--grid", "32,64", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "field.csv").exists()

    def test_oval_svg(self, tmp_path):
        code = run(["field", "--domain", "oval", "--h", "0,0.01",
                    "--s", "0,3.14159", "--svg", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "field.svg").read_text().startswith("<svg")


class TestInputValidation:
    @pytest.mark.parametrize("args", [
        ["minimize", "--domain", "disk", "--c", "nan"],
        ["minimize", "--tol", "nan"],
        ["minimize", "--tol", "inf"],
        ["landscape", "--landscape-n", "8"],
        ["field", "--s", "0,3", "--jitter", "nan"],
        ["field", "--s", "0,3", "--jitter", "-1"],
        ["field", "--s", "0,3", "--samples", "0,48"],
        ["field", "--s", "0,3", "--jitter", "0.5", "--seed", "-1"],
        ["field", "--s", "1,1.0000000005"],
        ["minimize", "--s0", "inf,1"],
        ["minimize", "--h=1e308,1e308"],
        ["minimize", "--domain", "disk", "--c", "-3"],
        ["field", "--s", "0.5,2.5", "--auto-min"],
        ["field", "--s", "0.5,2.5", "--max-evals", "3"],
        ["field", "--s", "0.5,2.5", "--s0", "1,2"],
        ["field", "--s", "0.5,2.5", "--jitter", "1e308"],
        ["field", "--s", "0.5,2.5", "--jitter", "100"],
        ["field"],
    ])
    def test_rejected_before_any_work(self, tmp_path, capsys, args):
        # no numpy warning either: the check runs before any arithmetic
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*args, "--grid", "16,32", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("invalid configuration: ")
        assert not out.exists()

    def test_malformed_pairs_are_usage_errors(self, tmp_path, capsys):
        # a non-integral lattice size is rejected, not truncated
        cases = [(["--grid", "16.5,32"], "expected two integers"),
                 (["--samples", "8,12.5"], "expected two integers"),
                 (["--h", "1,2,3"], "expected two comma-separated values")]
        for args, message in cases:
            out = tmp_path / "out"
            with pytest.raises(SystemExit) as exit_info:
                run(["field", "--s", "0,3", *args, "--out", str(out)])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()


PROBLEM = {"--domain", "--c", "--h", "--grid", "--tol", "--max-iter", "--w0-nodes"}
SEARCH = {"--s0", "--max-evals"}


class TestCommandOptions:
    @pytest.mark.parametrize("command, expected", [
        ("minimize", PROBLEM | SEARCH | {"--out"}),
        ("landscape", PROBLEM | {"--svg", "--out", "--landscape-n"}),
        ("field", PROBLEM | SEARCH | {"--svg", "--out", "--s", "--auto-min",
                                      "--samples", "--jitter", "--seed"}),
        ("verify", {"--out", "--only"}),
    ])
    def test_each_command_takes_only_the_options_it_reads(self, command, expected):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
        options = [opt for a in actions for opt in a.option_strings]
        assert sorted(options) == sorted(expected)
        assert all(a.help for a in actions)

    @pytest.mark.parametrize("args", [["verify", "--grid", "16,32"],
                                      ["verify", "--h=1,0"],
                                      ["minimize", "--svg"]])
    def test_options_a_command_does_not_read_are_usage_errors(self, tmp_path, args):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run([*args, "--out", str(out)])
        assert exit_info.value.code == 2
        assert not out.exists()


class TestVerifyCommand:
    def test_unknown_check_set_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["verify", "--only", "nosuch", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: ")
        assert captured.out == ""
        assert not out.exists()

    def test_quadrature_subset(self, tmp_path, capsys):
        code = run(["verify", "--only", "quadrature", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert names == {"logsin_integrals", "disk_reduction", "oval_w0"}
        assert report["all_passed"] is True
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_report_holds_the_config_verify_reads(self, tmp_path):
        assert run(["verify", "--only", "quadrature", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["config"] == {"out": str(tmp_path), "only": "quadrature"}

    def test_punctured_subset(self, tmp_path):
        code = run(["verify", "--only", "punctured", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["punctured_ladder"]

    def test_oracle_check_fails_on_a_descent_stopped_by_its_cap(self, tmp_path, monkeypatch):
        # the descent's own theta, but reported as cut off at the step cap
        # with its gradient still above 1e-8: close enough to pass on the
        # max-norm gap alone, and no oracle
        def capped(config, field, grid):
            theta, _, _ = minimize_g_descent(config, field, grid)
            return theta, 400_000, 2e-8

        monkeypatch.setattr(verify, "minimize_g_descent", capped)
        assert run(["verify", "--only", "oracle", "--out", str(tmp_path)]) == 3
        (check,) = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
        assert check["name"] == "picard_oracle" and check["passed"] is False
        assert check["measured"]["max_diff"] < 1e-6
        assert check["measured"]["descent_residual"] == 2e-8
