"""Command-line interface: exit codes, files, determinism, config handling."""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bromell as bm
from bromell import cli, solver
from bromell.cli import build_problem, main
from bromell.solver import SolveOptions


@pytest.fixture()
def diag_files(tmp_path):
    mpath = tmp_path / "diag.mtx"
    upath = tmp_path / "u0.txt"
    bm.save_operator(mpath, np.diag([-1.0, -2.0]))
    bm.save_vector(upath, [1.0, 1.0])
    return str(mpath), str(upath)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def rotation_files(tmp_path):
    """The operator [[-1, 2], [-2, -1]] (eigenvalues -1 +- 2i) and u0 = (1, 0.5)."""
    mpath = tmp_path / "rotation.mtx"
    upath = tmp_path / "rotation_u0.txt"
    bm.save_operator(mpath, np.array([[-1.0, 2.0], [-2.0, -1.0]]))
    bm.save_vector(upath, [1.0, 0.5])
    return str(mpath), str(upath)


class TestHelp:
    def test_stated_defaults_match_solve_options(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per option
        with pytest.raises(SystemExit):
            run("solve", "--help")
        text = capsys.readouterr().out
        stated = dict(re.findall(r"^\s+--(\w+) \S+\s.*\(default ([^):]+)\)$", text, re.M))
        fields = {"eps1": "eps1", "eps2": "eps2", "grid": "grid_pts", "nmax": "n_max"}
        assert stated.keys() == fields.keys()
        for flag, field in fields.items():
            assert float(stated[flag]) == getattr(SolveOptions, field), flag

    def test_stated_defaults_are_read_from_solve_options(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        monkeypatch.setattr(SolveOptions, "eps1", 2.5e-10)
        monkeypatch.setattr(SolveOptions, "n_max", 512)
        with pytest.raises(SystemExit):
            run("window", "--help")
        text = capsys.readouterr().out
        assert "weighted level (default 2.5e-10)" in text
        assert "plain level (default 1e-13)" in text
        assert "node-count cap (default 512)" in text


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (("--grid", "abc"), "argument --grid: invalid int value: 'abc'"),
        (("--no-such-flag", "1"), "unrecognized arguments: --no-such-flag 1"),
    ])
    def test_usage_error_exits_1(self, argv, message, capsys):
        # Exit 2 is kept for a failed feasibility check.
        assert run("solve", "--problem", "bs", "--t", "1", "--tol", "1e-6", *argv) == 1
        assert message in capsys.readouterr().err


class TestImportGraph:
    def test_cli_import_loads_no_scipy_optimize(self):
        # A fresh interpreter: this test session has loaded scipy.optimize itself.
        src = str(Path(bm.__file__).resolve().parent.parent)
        code = (
            f"import json, sys; sys.path.insert(0, {src!r}); import bromell.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize'])))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == []


class TestSolveCommand:
    def test_success_writes_files_and_exits_zero(self, diag_files, tmp_path):
        mpath, upath = diag_files
        out = tmp_path / "out"
        code = run(
            "solve", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t", "1", "--tol", "1e-8", "--grid", "40", "--validate",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "solution.txt").exists()
        assert (out / "report.txt").exists()
        assert (out / "errors.csv").exists()
        solution = bm.load_vector(out / "solution.txt")
        exact = np.array([math.exp(-1.0), math.exp(-2.0)])
        assert np.max(np.abs(solution - exact)) <= 1e-8

    def test_unreachable_tolerance_exits_two(self, diag_files, tmp_path):
        mpath, upath = diag_files
        code = run(
            "solve", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t", "1", "--tol", "1e-30", "--grid", "40", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_missing_matrix_file_exits_one(self, tmp_path):
        code = run(
            "solve", "--problem", "file", "--matrix", str(tmp_path / "nope.mtx"),
            "--t", "1", "--tol", "1e-6", "--out", str(tmp_path / "o"),
        )
        assert code == 1

    def test_non_finite_u0_rejected_before_the_pipeline(self, diag_files, tmp_path, capsys):
        mpath, _ = diag_files
        upath = tmp_path / "nan_u0.txt"
        upath.write_text("1.0\nnan\n")
        code = run(
            "solve", "--problem", "file", "--matrix", mpath, "--u0", str(upath),
            "--t", "1", "--tol", "1e-6", "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "nan_u0.txt:2: value must be finite" in err
        assert "stage" not in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_box_rejected_before_any_stage(self, tmp_path, capsys, monkeypatch):
        stages = []
        for stage in ("eigenvalues", "compute_grid"):
            monkeypatch.setattr(solver, stage, lambda *args, _s=stage: stages.append(_s))
        code = run(
            "solve", "--problem", "bs", "--t", "1", "--tol", "5e-6", "--zr", "inf",
            "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "need finite z_r, got inf" in err
        assert "stage" not in err
        assert stages == []
        assert not (tmp_path / "o").exists()

    def test_eigenvalue_outside_the_circle_names_the_fix(self, rotation_files, tmp_path, capsys):
        # The default z_r sits just right of Re(-1 +- 2i), so the circle of
        # radius z_r - z_l about z_l = -41 passes below the eigenvalue.
        mpath, upath = rotation_files
        argv = ["solve", "--problem", "file", "--matrix", mpath, "--u0", upath,
                "--t", "1", "--tol", "1e-8"]
        code = run(*argv, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "stage 'inner-ellipse'" in err
        assert "increase z_r" in err
        out = tmp_path / "wide"
        assert run(*argv, "--zr", "0.5", "--out", str(out)) == 0
        assert "N_final=36" in (out / "report.txt").read_text().splitlines()

    def test_zero_data_rejected_before_any_stage(self, rotation_files, tmp_path, capsys):
        mpath, _ = rotation_files
        argv = ["--problem", "file", "--matrix", mpath, "--t", "1", "--tol", "1e-8", "--zr", "0.5"]
        code = run("solve", *argv, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "u(t) = 0" in err
        assert "stage" not in err
        assert run("pseudo", *argv, "--out", str(tmp_path / "p")) == 0

    def test_deterministic_outputs(self, diag_files, tmp_path):
        mpath, upath = diag_files
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                "solve", "--problem", "file", "--matrix", mpath, "--u0", upath,
                "--t", "1", "--tol", "1e-8", "--grid", "40", "--validate",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        for fname in ("solution.txt", "report.txt", "errors.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestPseudoCommand:
    def test_one_schur_factorization(self, schur_calls, tmp_path):
        code = run(
            "pseudo", "--problem", "cd", "--t", "1", "--tol", "5e-8", "--grid", "20",
            "--out", str(tmp_path / "pseudo"),
        )
        assert code == 0
        assert len(schur_calls) == 1

    def test_outputs_and_ellipse_consistency(self, diag_files, tmp_path):
        mpath, upath = diag_files
        out = tmp_path / "pseudo"
        code = run(
            "pseudo", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t", "1", "--tol", "1e-6", "--grid", "16", "--out", str(out),
        )
        assert code == 0
        grid_lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(grid_lines) == 1 + 16 * 16
        for fname in ("curve_c1.csv", "curve_c2.csv", "curve_critical.csv"):
            lines = (out / fname).read_text().strip().splitlines()
            assert lines[0] == "x,y_level"
            assert len(lines) == 1 + 16
        pts = np.loadtxt(out / "gamma_plus.csv", delimiter=",", skiprows=1)
        xs, ys = pts[:, 0], pts[:, 1]
        z_l = xs.min()
        A = xs.max() - z_l
        B = ys.max()
        form = ((xs - z_l) / A) ** 2 + (ys / B) ** 2
        np.testing.assert_allclose(form, np.ones_like(form), atol=1e-10)
        assert (out / "gamma.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--t", "1", "--tol", "1e-6", "--eps2", "0"), "need finite eps2 > 0, got 0.0"),
        (("--t", "nan", "--tol", "1e-6"), "need finite t_weight > 0, got nan"),
        (("--t", "1", "--tol", "-1"), "need tol > 0, got -1.0"),
    ])
    def test_bad_option_rejected_before_any_stage(self, flags, message, tmp_path, capsys,
                                                  monkeypatch):
        stages = []
        for stage in ("eigenvalues", "compute_grid"):
            monkeypatch.setattr(solver, stage, lambda *args, _s=stage: stages.append(_s))
        code = run("pseudo", "--problem", "bs", *flags, "--grid", "20",
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert stages == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--nmax", "1"), "pseudo runs no quadrature and takes no --nmax"),
        (("--validate",), "pseudo runs no quadrature and takes no --validate"),
    ])
    def test_unread_flag_rejected_before_any_stage(self, flags, message, tmp_path, capsys,
                                                   monkeypatch):
        stages = []
        for stage in ("eigenvalues", "compute_grid"):
            monkeypatch.setattr(solver, stage, lambda *args, _s=stage: stages.append(_s))
        code = run("pseudo", "--problem", "bs", "--t", "1", "--tol", "1e-6", "--grid", "20",
                   *flags, "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert stages == []
        assert not (tmp_path / "o").exists()


class TestConvergenceCommand:
    def test_table_and_model_echo(self, diag_files, tmp_path):
        mpath, upath = diag_files
        out = tmp_path / "conv"
        code = run(
            "convergence", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t", "1", "--tol", "1e-8", "--grid", "40", "--validate",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "errors.csv").read_text().strip().splitlines()
        assert lines[0] == "N,measured_error,model_error,B_term"
        keys, rows = bm.read_report(out / "report.txt")
        a, c, D, t = (float(keys[k]) for k in ("a", "c", "D", "t"))
        for N, measured, model, _ in rows:
            expected = 2 * math.pi * c * math.exp(D * t - (a / c) * N)
            assert model == pytest.approx(expected, rel=1e-12)
            assert measured == measured  # measured column present in validate mode


class TestWindowCommand:
    def test_window_rows_and_reuse(self, diag_files, tmp_path):
        mpath, upath = diag_files
        out = tmp_path / "win"
        code = run(
            "window", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t0", "1", "--t1", "4", "--times", "1,2,4", "--tol", "1e-8",
            "--grid", "24", "--out", str(out),
        )
        assert code == 0
        lines = (out / "window.csv").read_text().strip().splitlines()
        assert lines[0] == "t,c_t,K_t,N_used,error,reused_solves"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        n_used = int(rows[0][3])
        assert int(rows[0][5]) == 0
        for row in rows[1:]:
            assert int(row[5]) == n_used - 1  # full reuse at every later time

    @pytest.mark.parametrize("argv, fails", [
        (("--problem", "bs", "--t0", "1", "--t1", "10", "--tol", "1e-12", "--grid", "50"), True),
        (("--problem", "cd:d=40,n=12", "--t0", "1", "--t1", "2", "--tol", "1e-6",
          "--zl", "-20", "--zr", "0.05", "--grid", "24"), False),
    ])
    def test_failed_feasibility_is_reported(self, argv, fails, tmp_path, capsys):
        # The bs plan's round-off forecast at (c_grid, t1) exceeds tol, and
        # no a > 0 gives the round-off margin at tol 1e-12.
        run("window", *argv, "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert ("feasibility check failed: fail:" in err) == fails

    def test_equal_endpoints_rejected(self, diag_files, tmp_path):
        mpath, upath = diag_files
        code = run(
            "window", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t0", "2", "--t1", "2", "--tol", "1e-8", "--out", str(tmp_path / "o"),
        )
        assert code == 1

    def test_reuse_line_counts_the_capped_first_rule(self, tmp_path, capsys):
        # The plan has 164 nodes; with --nmax 100 each time's first rule has
        # 100 nodes, of which the second time reuses all 99.
        code = run(
            "window", "--problem", "bs", "--t0", "1", "--t1", "10", "--tol", "5e-8",
            "--times", "1,10", "--nmax", "100", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "164 nodes" in out
        assert "solves = 99, reused = 99 (nodes x (times - 1) = 99)" in out

    def test_node_budget_rejected_before_any_stage(self, tmp_path, capsys, monkeypatch):
        stages = []
        for stage in ("eigenvalues", "compute_grid"):
            monkeypatch.setattr(solver, stage, lambda *args, _s=stage: stages.append(_s))
        code = run(
            "window", "--problem", "bs", "--t0", "1", "--t1", "10", "--tol", "5e-8",
            "--grid", "50", "--nmax", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "need n_max >= 2, got 1" in capsys.readouterr().err
        assert stages == []

    @pytest.mark.parametrize("times, message", [
        ("1,20", "t = 20.0 outside the window [1.0, 10.0]"),
        ("1,x", "bad --times value 'x' (expected a number)"),
    ])
    def test_bad_times_rejected_before_planning(self, times, message, tmp_path, capsys,
                                                monkeypatch):
        def no_plan(*args):
            raise AssertionError("plan_window called")

        monkeypatch.setattr(cli, "plan_window", no_plan)
        code = run(
            "window", "--problem", "bs", "--t0", "1", "--t1", "10", "--tol", "5e-8",
            "--grid", "30", "--times", times, "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, diag_files, tmp_path):
        mpath, upath = diag_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem=file\n"
            f"matrix={mpath}\n"
            f"u0={upath}\n"
            "t=1\n"
            "tol=1e-8\n"
            "grid=40\n"
            f"out={tmp_path / 'cfg_out'}\n"
        )
        assert run("solve", "--config", str(cfg)) == 0
        # an explicit flag must beat the config value
        assert run("solve", "--config", str(cfg), "--tol", "1e-30") == 2

    def test_unknown_config_key_rejected(self, diag_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        assert run("solve", "--config", str(cfg), "--problem", "cd") == 1
        assert "error: unknown config key 'nonsense'" in capsys.readouterr().err

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=bs\ngrid=30\n# the same key again\ngrid=40\n")
        out = tmp_path / "o"
        code = run("pseudo", "--config", str(cfg), "--t", "1", "--tol", "1e-6",
                   "--out", str(out))
        assert code == 1
        assert f"{cfg}:4: key 'grid' given more than once" in capsys.readouterr().err
        assert not (out / "grid.csv").exists()

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
    ])
    def test_config_booleans_in_any_case(self, word, value, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"validate={word}\n")
        args = argparse.Namespace(config=str(cfg), validate=None)
        cli._apply_config(args)
        assert args.validate is value

    @pytest.mark.parametrize("word", ["on", "ture", ""])
    def test_config_boolean_outside_the_words_rejected(self, word, tmp_path, capsys,
                                                       monkeypatch):
        # validate=on once ran the cd solve without validation and exited 0.
        stages = []
        monkeypatch.setattr(solver, "eigenvalues", lambda *args: stages.append(1))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem=cd:d=40,n=12\nt=1\ntol=1e-4\nvalidate={word}\n")
        assert run("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert (f"error: config key 'validate' takes 1/true/yes or 0/false/no, got '{word}'"
                in capsys.readouterr().err)
        assert not stages

    def test_builtin_problem_selectors(self, tmp_path):
        code = run(
            "solve", "--problem", "cd:d=40,n=12", "--t", "1", "--tol", "1e-4",
            "--grid", "24", "--zl", "-20", "--zr", "0.05", "--validate",
            "--out", str(tmp_path / "cd_out"),
        )
        assert code == 0

    def test_problem_parameters_take_the_generator_types(self):
        args = argparse.Namespace(problem="bs:n=12,sigma=0.1,K=90", matrix=None, u0=None)
        built = build_problem(args)
        expected = bm.black_scholes_problem(n=12, sigma=0.1, K=90.0)
        assert np.array_equal(built.operator.entries, expected.operator.entries)
        assert built.operator.source_tag == expected.operator.source_tag

    @pytest.mark.parametrize("problem, message", [
        ("bs:N=40", "unknown parameter 'N' for problem 'bs'"),
        ("cd:d=40,size=12", "unknown parameter 'size' for problem 'cd'"),
        ("file:N=40", "problem 'file' takes no parameters, got 'N=40'"),
        ("bs:n=12,n=20", "parameter 'n' given more than once"),
        ("cd:d=40, n=12,d=50", "parameter 'd' given more than once"),
    ])
    def test_unknown_problem_parameter_rejected(self, problem, message, tmp_path, capsys,
                                                monkeypatch):
        stages = []
        monkeypatch.setattr(solver, "eigenvalues", lambda *args: stages.append(1))
        code = run("solve", "--problem", problem, "--t", "1", "--tol", "1e-6",
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert message in capsys.readouterr().err
        assert stages == []


class TestEndToEndRecipe:
    def test_cd_reference_recipe(self, tmp_path):
        out = tmp_path / "cd_run"
        code = run(
            "solve", "--problem", "cd:d=400,n=64", "--t", "1", "--tol", "5e-8",
            "--zl", "-40", "--zr", "0.09", "--validate", "--out", str(out),
        )
        assert code == 0
        keys, _ = bm.read_report(out / "report.txt")
        assert keys["reached_tol"] == "true"
        assert float(keys["reference_error"]) <= 5e-8

    def test_node_budget_exhaustion_is_not_silent(self, diag_files, tmp_path):
        mpath, upath = diag_files
        code = run(
            "solve", "--problem", "file", "--matrix", mpath, "--u0", upath,
            "--t", "1", "--tol", "1e-12", "--grid", "40", "--nmax", "8",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
