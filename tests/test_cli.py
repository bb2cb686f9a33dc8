"""Command-line front end: config handling, subcommands, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from ratiopt import cli
from ratiopt.cli import (
    PRESETS,
    ConfigError,
    RunManifest,
    main,
    parse_config_file,
)
from ratiopt.expkit.realdata import smoke_dataset_path
from ratiopt.model import NewtonConfig

SOLVE_ARGS = ["--family", "gaussian", "--m", "32", "--n", "96", "--s", "3",
              "--coherence", "0.8", "--gamma", "1e-3", "--beta", "0.05"]


def strict_json(path):
    """The file parsed as strict JSON: NaN and Infinity are errors."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def cap_newton(monkeypatch):
    """Make the CLI's two-phase runs stop Newton after one step; returns the
    list their reports are appended to."""
    solve = cli.run_hafam
    reports = []

    def capped(p, cfg, *args, **kwargs):
        cfg = dataclasses.replace(cfg, newton=NewtonConfig(ssn_max=1))
        reports.append(solve(p, cfg, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_hafam", capped)
    return reports


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return first, rows[0], rows[1:]


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ngamma = 1e-3\nm_list = 32,64\nsolver=admm\n")
        parsed = parse_config_file(str(cfg))
        assert parsed == {"gamma": 1e-3, "m_list": [32, 64], "solver": "admm"}

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_file(str(cfg))

    def test_line_diagnostics(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 1e-3\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(str(cfg))

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = not-an-int\n")
        with pytest.raises(ConfigError, match="m"):
            parse_config_file(str(cfg))


class TestManifest:
    def test_hash_ignores_timestamps(self):
        a = RunManifest("solve", {"gamma": 1e-3, "seed": 0}, "t1")
        b = RunManifest("solve", {"gamma": 1e-3, "seed": 0}, "t2",
                        finished="t3")
        assert a.hash == b.hash

    def test_hash_covers_config(self):
        a = RunManifest("solve", {"gamma": 1e-3, "seed": 0}, "t")
        b = RunManifest("solve", {"gamma": 1e-4, "seed": 0}, "t")
        assert a.hash != b.hash


class TestPresets:
    def test_expected_presets_present(self):
        assert {"table1-gaussian", "table1-odct", "fig3-noisy",
                "sec5b-identify", "fig2-profiles"} <= set(PRESETS)

    def test_table1_regime(self):
        p = PRESETS["table1-gaussian"]
        assert (p["m"], p["n"], p["s"]) == (256, 2048, 12)
        assert p["gamma"] == 1e-4 and p["beta"] == 0.015


class TestSolveCommand:
    def test_small_instance_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", *SOLVE_ARGS, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] and report["nnz"] >= 1
        assert report["manifest"]["hash"]
        first, header, rows = read_csv(out / "series.csv")
        assert first.startswith("# manifest_hash=")
        assert header[0] == "iteration" and len(rows) >= 1

    def test_imax_zero_exit_2(self, tmp_path):
        code = main(["solve", *SOLVE_ARGS, "--solver", "admm",
                     "--imax", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["iterations"] == 0

    def test_stalled_newton_exit_2(self, tmp_path, monkeypatch):
        solve = cli.run_hafam

        def stalled(*args, **kwargs):
            rep = solve(*args, **kwargs)
            rep.phase2_trace.stop_reason = "stall"
            return rep

        monkeypatch.setattr(cli, "run_hafam", stalled)
        code = main(["solve", *SOLVE_ARGS, "--out", str(tmp_path / "o")])
        assert code == 2
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert not report["converged"]

    def test_newton_cap_exit_2(self, tmp_path, monkeypatch):
        # one Newton step leaves the gradient above grad_tol without a
        # line-search stall: the cap is not convergence
        reports = cap_newton(monkeypatch)
        code = main(["solve", *SOLVE_ARGS, "--out", str(tmp_path / "o")])
        tr2 = reports[0].phase2_trace
        assert not tr2.stalled and tr2.grad_norms[-1] > NewtonConfig.grad_tol
        assert code == 2
        report = strict_json(tmp_path / "o" / "report.json")
        assert report["converged"] is False

    @pytest.mark.parametrize("extra, code, kinds", [
        ([], 0, (float, float)),                    # certified two-phase point
        (["--solver", "admm", "--imax", "5"], 2, (float, type(None))),
        (["--solver", "admm", "--imax", "0"], 2, (type(None), type(None))),
    ])
    def test_certificate_in_report(self, tmp_path, extra, code, kinds):
        # the margin needs kkt_residual <= 1e-6; all three are null at x = 0
        out = tmp_path / "o"
        assert main(["solve", *SOLVE_ARGS, *extra, "--out", str(out)]) == code
        report = strict_json(out / "report.json")
        dist, margin = (report["subgradient_distance"],
                        report["nondegeneracy_margin"])
        assert (type(dist), type(margin)) == kinds
        if margin is not None:
            assert report["kkt_residual"] <= 1e-6
            assert dist <= 1e-6 and margin > 0.0
        if dist is not None and margin is None:
            assert report["kkt_residual"] > 1e-6

    @pytest.mark.parametrize("line, key", [("mystery = 3", "mystery"),
                                           ("tau_list = 0.1", "tau_list")],
                             ids=["mystery", "tau_list"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--m", "abc"], "bad value for key 'm'"),
        (["solve", "--bogus", "1"], "unrecognized arguments"),
        ([], "required"),
    ], ids=["bad_value", "unknown_flag", "no_command"])
    def test_usage_error_exit_1(self, capsys, argv, message):
        # 2 means "did not converge", so argparse's usage exit 2 is remapped
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0

    def test_missing_required_key_exit_1(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path / "o")]) == 1
        # the instance shape is required too
        assert main(["solve", *SOLVE_ARGS[:2], *SOLVE_ARGS[-4:],
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_solver_exit_1(self, tmp_path):
        code = main(["solve", *SOLVE_ARGS, "--solver", "bogus",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_determinism(self, tmp_path):
        main(["solve", *SOLVE_ARGS, "--out", str(tmp_path / "a")])
        main(["solve", *SOLVE_ARGS, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "series.csv").read_text() == \
            (tmp_path / "b" / "series.csv").read_text()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")

        def seed_of(out):
            report = json.loads((out / "report.json").read_text())
            return report["manifest"]["seed"]

        main(["solve", *SOLVE_ARGS, "--config", str(cfg),
              "--out", str(tmp_path / "f")])
        assert seed_of(tmp_path / "f") == 5
        monkeypatch.setenv("RATIOPT_SEED", "7")
        main(["solve", *SOLVE_ARGS, "--config", str(cfg),
              "--out", str(tmp_path / "e")])
        assert seed_of(tmp_path / "e") == 7
        main(["solve", *SOLVE_ARGS, "--config", str(cfg), "--seed", "9",
              "--out", str(tmp_path / "s")])
        assert seed_of(tmp_path / "s") == 9


class TestStrictJson:
    def test_non_finite_floats_become_null(self, tmp_path):
        path = tmp_path / "r.json"
        cli._write_json(str(path), {
            "nan": float("nan"), "inf": float("inf"), "ninf": -float("inf"),
            "finite": 1.5, "nested": {"rows": [(1, float("nan"), "a")]}})
        assert strict_json(path) == {
            "nan": None, "inf": None, "ninf": None, "finite": 1.5,
            "nested": {"rows": [[1, None, "a"]]}}


class TestIdentifyCommand:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "out"
        code = main(["identify", "--m-list", "24", "--s-list", "2",
                     "--T-list", "5", "--seeds", "2", "--n", "96",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out / "identify_heatmap.csv")
        assert header[:3] == ["m", "s", "T"] and len(rows) == 1
        assert 0.0 <= float(rows[0][5]) <= 1.0

    def test_empty_grid_exit_1(self, tmp_path):
        code = main(["identify", "--m-list", "", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_single_seed_deterministic(self, tmp_path):
        args = ["identify", "--m-list", "24", "--s-list", "2", "--T-list",
                "5", "--seeds", "1", "--n", "64"]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "identify_heatmap.csv").read_text() == \
            (tmp_path / "b" / "identify_heatmap.csv").read_text()


class TestProfileCommand:
    ARGS = ["profile", "--m", "24", "--n", "96", "--s-list", "3",
            "--seeds", "1", "--gamma", "1e-3", "--beta", "0.05",
            "--imax", "20000"]

    def test_curve_csv_well_formed(self, tmp_path):
        out = tmp_path / "out"
        assert main([*self.ARGS, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "profile_curves.csv")
        assert header == ["tau", "solver", "pi"]
        by_solver = {}
        for tau, solver, pi in rows:
            by_solver.setdefault(solver, []).append(float(pi))
        for curve in by_solver.values():
            assert all(b >= a for a, b in zip(curve, curve[1:]))
            assert max(curve) <= 1.0

    def test_single_solver_flat(self, tmp_path):
        out = tmp_path / "out"
        assert main([*self.ARGS, "--solver", "admm", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "profile_curves.csv")
        assert all(float(pi) == 1.0 for _, _, pi in rows)

    def test_solvers_timed_unrecorded(self, no_telemetry):
        # the profile compares the bare algorithms: no solver pays for
        # per-iteration telemetry
        p, _ = cli._build_synthetic(dict(
            family="gaussian", m=24, n=96, s=3, coherence=0.8, gamma=1e-3,
            seed=0))
        solvers = cli._profile_solvers(dict(beta=0.05, seed=0, imax=20000))
        t = cli.profile_times([(p, np.zeros(p.n))], solvers)
        assert [name for name, _ in solvers] == ["admm", "hafam"]
        assert np.all(np.isfinite(t))

    def test_noise_sigma_reaches_instances(self, tmp_path, monkeypatch):
        # profile builds its instances like solve, so noise_sigma is used
        rhs = []

        def fake_times(problems, solvers):
            rhs.append([p.b for p, _ in problems])
            return np.ones((len(problems), len(solvers)))

        monkeypatch.setattr(cli, "profile_times", fake_times)
        for sigma in ("0", "0.05"):
            assert main([*self.ARGS, "--noise-sigma", sigma,
                         "--out", str(tmp_path / sigma)]) == 0
        assert len(rhs[0]) == 2
        assert not any(np.array_equal(a, b) for a, b in zip(*rhs))

    def test_solvers_start_from_given_x0(self, monkeypatch):
        # each solver starts from the x0 profile_times pairs with the problem
        starts = []
        for name in ("run_admm", "run_hafam"):
            def spy(p, cfg, x0, *args, solve=getattr(cli, name), **kwargs):
                starts.append(x0)
                return solve(p, cfg, x0, *args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        p, _ = cli._build_synthetic(dict(
            family="gaussian", m=24, n=96, s=3, coherence=0.8, gamma=1e-3,
            seed=0))
        x0 = np.full(p.n, 0.01)
        solvers = cli._profile_solvers(dict(beta=0.05, seed=0, imax=20000))
        cli.profile_times([(p, x0)], solvers)
        assert len(starts) == 2 and all(s is x0 for s in starts)

    def test_newton_cap_counts_as_failure(self, monkeypatch):
        # a Newton phase that ends at ssn_max above grad_tol did not
        # converge, so the profile gives the two-phase solver no time
        reports = cap_newton(monkeypatch)
        p, _ = cli._build_synthetic(dict(
            family="gaussian", m=24, n=96, s=3, coherence=0.8, gamma=1e-3,
            seed=0))
        solvers = cli._profile_solvers(dict(beta=0.05, seed=0, imax=20000))
        t = cli.profile_times([(p, np.zeros(p.n))], solvers)
        assert np.isfinite(t[0, 0]) and np.isinf(t[0, 1])
        assert reports[0].phase2_trace.grad_norms[-1] > NewtonConfig.grad_tol


class TestRealdataCommand:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main(["realdata", "--data", str(smoke_dataset_path()),
                     "--gamma", "1e-3", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out / "realdata_table.csv")
        assert header[:2] == ["repetition", "solver"]
        assert [r[1] for r in rows] == ["admm", "admm-l1", "hafam"]
        assert all(float(r[3]) >= 0.0 for r in rows)

    def test_solvers_run_unrecorded(self, tmp_path, monkeypatch,
                                    no_telemetry):
        # cpu_seconds times the bare algorithms: every solver returns a
        # trace with no per-iteration series
        traces = []
        for name in ("run_admm", "run_admm_l1_baseline", "run_hafam"):
            def spy(*args, solve=getattr(cli, name), **kwargs):
                out = solve(*args, **kwargs)
                traces.append(out[1] if isinstance(out, tuple)
                              else out.phase1_trace)
                return out

            monkeypatch.setattr(cli, name, spy)
        code = main(["realdata", "--data", str(smoke_dataset_path()),
                     "--gamma", "1e-3", "--out", str(tmp_path / "o")])
        assert code == 0 and len(traces) == 3
        assert all(tr.stop_reason and tr.relerr == [] for tr in traces)

    def test_missing_data_exit_1(self, tmp_path):
        assert main(["realdata", "--out", str(tmp_path / "o")]) == 1

    def test_bad_split_ratio_exit_1(self, tmp_path):
        code = main(["realdata", "--data", str(smoke_dataset_path()),
                     "--split-ratio", "1.5", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["realdata", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("text", ["", "bmi,target\n"],
                             ids=["empty", "header_only"])
    def test_no_data_rows_exit_1(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code = main(["realdata", "--data", str(data),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: CSV file {data}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, report_name, table_name", [
    (["solve", *SOLVE_ARGS], "report.json", "series.csv"),
    (["identify", "--m-list", "24", "--s-list", "2", "--T-list", "5",
      "--seeds", "1", "--n", "64"],
     "identify_report.json", "identify_heatmap.csv"),
    (TestProfileCommand.ARGS, "profile_report.json", "profile_curves.csv"),
    (["realdata", "--data", str(smoke_dataset_path()), "--gamma", "1e-3"],
     "realdata_report.json", "realdata_table.csv"),
], ids=["solve", "identify", "profile", "realdata"])
def test_manifest_lists_both_files(tmp_path, argv, report_name, table_name):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    report_path, table_path = tmp_path / report_name, tmp_path / table_name
    manifest = strict_json(report_path)["manifest"]
    assert sorted(manifest["outputs"]) == sorted([str(report_path),
                                                  str(table_path)])
    assert report_path.is_file() and table_path.is_file()
    first, _, _ = read_csv(table_path)
    assert first == f"# manifest_hash={manifest['hash']}\n"
