import gc
import hashlib
import io
import json
import shutil
import threading

import numpy as np
import pytest

from targetcost import cli, ode
from targetcost.normals import Params
from targetcost.ode import load_curve
from targetcost import sim
from targetcost.sim import BLOCK, dump_path_csv

from helpers import reference_path, run_cli, run_python


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    proc = run_cli(["calibrate", "--p", "2"], cwd=path)
    assert proc.returncode == 0, proc.stderr
    return path


class TestCalibrate:
    def test_outputs_and_report(self, workdir):
        assert (workdir / "gcurve_p2.csv").exists()
        sidecar = json.loads((workdir / "gcurve_p2.json").read_text())
        assert 0.86 <= sidecar["g_mid"] <= 0.90
        assert sidecar["left_residual"] <= sidecar["epsilon"] == 1e-10
        assert sidecar["right_residual"] <= sidecar["epsilon"]

    def test_p3_midpoint_bound(self, tmp_path):
        proc = run_cli(["calibrate", "--p", "3", "--out", "c3"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        sidecar = json.loads((tmp_path / "c3.json").read_text())
        assert 0.5 ** 3 < sidecar["g_mid"] < 1.0

    def test_epsilon_validation(self, tmp_path):
        # Below normals.CDF_MIN (6e-16) the stored levels would clamp, and
        # the reloaded curve's quantile grid would no longer be uniform.
        for epsilon in ("0.5", "6e-16"):
            proc = run_cli(["calibrate", "--p", "2", "--epsilon", epsilon],
                           cwd=tmp_path)
            assert proc.returncode == 2
            assert "--epsilon" in proc.stderr
        assert not (tmp_path / "gcurve_p2.csv").exists()

    @pytest.mark.parametrize("epsilon", ["1e-6", "1e-10", "7e-16"])
    def test_small_epsilon_curve_evaluates(self, tmp_path, epsilon):
        # Any tail target in range calibrates a curve that the other
        # commands load and evaluate.
        proc = run_cli(["calibrate", "--p", "2", "--epsilon", epsilon,
                        "--out", "c6"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["value", "--T", "1", "--x", "0", "--c", "0",
                        "--curve", "c6.csv"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["value"] - 0.88) <= 0.02
        proc = run_cli(["simulate", "--curve", "c6.csv", "--n-paths", "64",
                        "--n-steps", "50"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("p, failed", [("1.1", "lower_bound"), ("2", None)])
    def test_failed_invariants_are_reported(self, tmp_path, monkeypatch,
                                            capsys, p, failed):
        # With lower_bound asking g - (1 - y)^p >= 1, which no curve meets,
        # the check fails; the curve is still written, with one warning line
        # naming the invariant.
        if failed is not None:
            monkeypatch.setattr(ode, "LOWER_BOUND_TOL", -1.0)
        assert cli.main(["calibrate", "--p", p, "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c.csv").exists()
        err = capsys.readouterr().err
        if failed is None:
            assert err == ""
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("warning:")
            assert failed in lines[0]

    def test_stored_curve_and_solve_grid_verdict(self, workdir, shot_p2):
        # The file holds the curve shoot returns, 926 rows at the default
        # tail target, and the sidecar the verdict checked on the solve
        # grid and the solver's counters.
        curve, sidecar = load_curve(workdir / "gcurve_p2.csv",
                                    workdir / "gcurve_p2.json")
        assert len(curve.ys) == 926
        for name in ("ys", "gs", "dgs"):
            assert np.array_equal(getattr(curve, name),
                                  getattr(shot_p2.curve, name))
        assert sidecar["invariants"] == {
            name: [ok, worst] for name, (ok, worst) in shot_p2.invariants.items()}
        assert sidecar["solver"] == shot_p2.solver

    @pytest.mark.parametrize("p, stderr", [
        ("1.01", None),
        ("1.2", None),
        ("5", None),
        ("7", None),
    ])
    def test_warnings_come_from_the_solve_grid(self, tmp_path, capsys, p,
                                               stderr):
        # A kernel cut off at the 1e-4 quantiles warned here of lower_bound
        # at p <= 1.2 and of ode_residual at p = 7; the whole-line kernel
        # meets both on its solve grid.
        assert cli.main(["calibrate", "--p", p, "--out", str(tmp_path / "c")]) == 0
        expected = "" if stderr is None else f"warning: curve fails invariants: {stderr}\n"
        assert capsys.readouterr().err == expected

    def test_non_numeric_input_names_flag(self, tmp_path):
        proc = run_cli(["calibrate", "--p", "abc"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--p" in proc.stderr


class TestValue:
    def test_reference_case(self, workdir):
        proc = run_cli(["value", "--T", "1", "--x", "0", "--c", "0",
                        "--curve", "gcurve_p2.csv"], cwd=workdir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["level"] == 0.5
        assert abs(payload["value"] - 0.88) <= 0.02

    def test_state_one(self, workdir):
        proc = run_cli(["value", "--x", "1", "--curve", "gcurve_p2.csv"],
                       cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == 0.0

    def test_scaled_horizon(self, workdir):
        proc = run_cli(["value", "--T", "4", "--curve", "gcurve_p2.csv"],
                       cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["value"] - 0.22) <= 0.005

    def test_round_trip_bit_identical(self, workdir):
        args = ["value", "--T", "1.7", "--x", "0.25", "--c", "-0.3",
                "--curve", "gcurve_p2.csv"]
        first = run_cli(args, cwd=workdir).stdout
        second = run_cli(args, cwd=workdir).stdout
        assert first == second

    def test_p_mismatch_is_usage_error(self, workdir):
        proc = run_cli(["value", "--p", "3", "--curve", "gcurve_p2.csv"],
                       cwd=workdir)
        assert proc.returncode == 2
        assert "sidecar" in proc.stderr

    def test_missing_curve(self, tmp_path):
        proc = run_cli(["value", "--curve", "nope.csv"], cwd=tmp_path)
        assert proc.returncode == 2


class TestMalformedCurve:
    @pytest.mark.parametrize("body", [
        "0.1,0.9,-1.0\n0.2,oops,-1.0\n",
        "0.1,0.9,-1.0\n0.2,0.8\n",
        "",
    ], ids=["non_float_field", "short_row", "header_only"])
    def test_value_exits_2_naming_the_file(self, workdir, tmp_path, capsys,
                                           body):
        bad = tmp_path / "bad.csv"
        shutil.copy(workdir / "gcurve_p2.json", tmp_path / "bad.json")
        bad.write_text("z,g,g_z\n" + body)
        assert cli.main(["value", "--curve", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert str(bad) in err

    @pytest.mark.parametrize("command", [["value"], ["simulate", "--n-paths",
                                                     "10", "--n-steps", "4"]])
    def test_y_form_file_exits_2(self, workdir, tmp_path, capsys, command):
        # A curve written in the y,g,dg form before curves were stored in z
        # is not read: the error names the file and says to calibrate again.
        old = tmp_path / "old.csv"
        shutil.copy(workdir / "gcurve_p2.json", tmp_path / "old.json")
        old.write_text("y,g,dg\n0.1,0.9,-1.0\n0.2,0.8,-1.0\n")
        assert cli.main([*command, "--curve", str(old)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(old) in err
        assert "calibrate" in err


class TestNegativeExponentValue:
    # argparse alone reads "-8.86e-05" as an unknown option, not as --c's value
    @pytest.mark.parametrize("argv", [
        ["value", "--curve", "gcurve_p2.csv", "--c"],
        ["oracle", "--n", "200", "--c"],
    ])
    def test_spaced_form_matches_equals_form(self, workdir, monkeypatch,
                                             capsys, argv):
        monkeypatch.chdir(workdir)
        assert cli.main(argv + ["-8.86e-05"]) == 0
        spaced = capsys.readouterr().out
        assert cli.main(argv[:-1] + ["--c=-8.86e-05"]) == 0
        assert capsys.readouterr().out == spaced


class TestOracle:
    def test_reference_value(self, tmp_path):
        proc = run_cli(["oracle", "--n", "2000", "--T", "1", "--c", "0",
                        "--p", "2"], cwd=tmp_path)
        assert proc.returncode == 0
        assert abs(float(proc.stdout) - 0.88) <= 0.02

    def test_far_threshold_is_free(self, tmp_path):
        proc = run_cli(["oracle", "--n", "400", "--c", "100"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1e-12

    def test_profile_matches_curve(self, workdir):
        proc = run_cli(["oracle", "--n", "2000", "--p", "2",
                        "--profile", "0.1:0.9:9", "--out", "prof.csv"],
                       cwd=workdir)
        assert proc.returncode == 0
        lines = (workdir / "prof.csv").read_text().strip().splitlines()
        assert lines[0] == "y,g_dp"
        assert len(lines) == 10
        from targetcost.ode import eval_g, load_curve
        curve, _ = load_curve(workdir / "gcurve_p2.csv", workdir / "gcurve_p2.json")
        worst = 0.0
        for line in lines[1:]:
            y, val = map(float, line.split(","))
            worst = max(worst, abs(val - eval_g(curve, y)))
        assert worst <= 0.02

    def test_non_finite_threshold_is_usage_error(self, tmp_path):
        proc = run_cli(["oracle", "--n", "100", "--c", "nan"], cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "c must be a finite number" in proc.stderr

    @pytest.mark.parametrize("p", ["1.5", "2", "3"])
    def test_no_numeric_warnings(self, tmp_path, p):
        proc = run_cli(["oracle", "--n", "2000", "--p", p], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_bad_profile_spec(self, tmp_path):
        proc = run_cli(["oracle", "--profile", "0.5:0.1:3"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--profile" in proc.stderr

    def test_profile_count_above_the_cap_exits_3(self, tmp_path):
        count = cli.MAX_PROFILE_LEVELS + 1
        proc = run_cli(["oracle", "--n", "100", "--profile", f"0.1:0.9:{count}",
                        "--out", "prof.csv"], cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (f"error: --profile COUNT {count} is above the "
                               f"limit of {cli.MAX_PROFILE_LEVELS} levels\n")
        assert not (tmp_path / "prof.csv").exists()

    def test_profile_count_at_the_cap_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_PROFILE_LEVELS", 3)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["oracle", "--n", "100", "--profile", "0.1:0.9:3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert cli.main(["oracle", "--n", "100", "--profile", "0.1:0.9:4"]) == 3
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_summary_and_reproducible_dump(self, workdir):
        args = ["simulate", "--curve", "gcurve_p2.csv", "--n-paths", "500",
                "--n-steps", "200", "--seed", "9", "--dump-paths", "paths",
                "--dump-count", "2", "--summary-out", "summary.json"]
        first = run_cli(args, cwd=workdir)
        assert first.returncode == 0, first.stderr
        summary = json.loads((workdir / "summary.json").read_text())
        assert summary["feasibility_violations"] == 0
        assert summary["seed"] == 9
        dump0 = (workdir / "paths" / "path_0000.csv").read_bytes()
        second = run_cli(args, cwd=workdir)
        assert second.returncode == 0
        assert (workdir / "paths" / "path_0000.csv").read_bytes() == dump0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("count", [0, 1, 5, BLOCK + 3])
    def test_dump_matches_path_by_path(self, workdir, tmp_path, monkeypatch,
                                       capsys, count):
        # One draw per block and chunked recording write the bytes of the
        # paths filled one at a time; the command leaves no thread running
        # and prints only its summary.
        monkeypatch.chdir(workdir)
        before = threading.active_count()
        argv = ["simulate", "--n-paths", str(BLOCK + 10), "--n-steps", "4",
                "--seed", "6", "--x", "0.2", "--c", "0.1",
                "--dump-paths", str(tmp_path / "dd"),
                "--dump-count", str(count)]
        assert cli.main(argv) == 0
        assert threading.active_count() == before
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1
        curve, _ = load_curve("gcurve_p2.csv", "gcurve_p2.json")
        params = Params(2.0, 1.0, 0.2, 0.1)
        written = sorted(path.name for path in (tmp_path / "dd").iterdir())
        assert written == [f"path_{i:04d}.csv" for i in range(count)]
        for i in range(count):
            buf = io.StringIO(newline="")
            dump_path_csv(reference_path(curve, params, 4, 6, i), buf)
            assert ((tmp_path / "dd" / f"path_{i:04d}.csv").read_bytes()
                    == buf.getvalue().encode()), i

    def test_memory_guard_exits_3_writing_nothing(self, workdir, tmp_path,
                                                  monkeypatch, capsys):
        # 10 000 paths of 100 000 steps would hold 6.1 GiB of increments;
        # a draw here raises at once instead of allocating.
        def drew(*args):
            raise RuntimeError("drew a block")
        monkeypatch.setattr(sim, "_block_increments", drew)
        monkeypatch.chdir(workdir)
        argv = ["simulate", "--n-steps", "100000",
                "--dump-paths", str(tmp_path / "dd"),
                "--summary-out", str(tmp_path / "summary.json")]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "GiB" in err
        assert list(tmp_path.iterdir()) == []

    def test_seed_env_override(self, workdir):
        args = ["simulate", "--curve", "gcurve_p2.csv", "--n-paths", "64",
                "--n-steps", "50"]
        via_env = run_cli(args, cwd=workdir, env_extra={"TARGETCOST_SEED": "321"})
        via_flag = run_cli(args + ["--seed", "321"], cwd=workdir)
        assert via_env.returncode == 0, via_env.stderr
        assert via_flag.returncode == 0, via_flag.stderr
        assert json.loads(via_env.stdout) == json.loads(via_flag.stdout)

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    def test_negative_dump_count_is_usage_error(self, workdir, tmp_path,
                                                monkeypatch, capsys,
                                                via_config):
        monkeypatch.chdir(workdir)
        argv = ["simulate", "--n-paths", "64", "--n-steps", "50",
                "--dump-paths", str(tmp_path / "dd")]
        if via_config:
            (tmp_path / "cfg.ini").write_text("dump_count = -3\n")
            argv += ["--config", str(tmp_path / "cfg.ini")]
        else:
            argv += ["--dump-count", "-3"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--dump-count" in err
        assert not (tmp_path / "dd").exists()

    def test_threads_is_not_an_option(self, workdir, tmp_path):
        # There is no thread-count option: neither the flag nor a config key.
        args = ["simulate", "--curve", "gcurve_p2.csv", "--n-paths", "64",
                "--n-steps", "50"]
        proc = run_cli(args + ["--threads", "2"], cwd=workdir)
        assert proc.returncode == 2
        assert "--threads" in proc.stderr
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("threads = 2\n")
        proc = run_cli(args + ["--config", str(cfg)], cwd=workdir)
        assert proc.returncode == 2
        assert "--threads" in proc.stderr


class TestBsdeCheck:
    def test_reports_stats(self, workdir):
        proc = run_cli(["bsde-check", "--curve", "gcurve_p2.csv",
                        "--n-paths", "64", "--n-steps", "500",
                        "--delta", "0.45", "--seed", "2024"], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert abs(stats["mean_residual"]) <= 3.0 * stats["stderr"]
        assert stats["z_min"] >= 0.0

    def test_delta_validation(self, workdir):
        proc = run_cli(["bsde-check", "--curve", "gcurve_p2.csv",
                        "--delta", "0.7"], cwd=workdir)
        assert proc.returncode == 2
        assert "--delta" in proc.stderr


class TestExpcase:
    def test_reference_output(self, tmp_path):
        proc = run_cli(["expcase", "--T", "1", "--x", "0", "--lam", "1"],
                       cwd=tmp_path)
        assert proc.returncode == 0
        assert "1.71828" in proc.stdout
        lines = (tmp_path / "witnesses.csv").read_text().strip().splitlines()
        assert lines[0] == "n,I_n,mass,entropy,duality_gap"
        assert len(lines) == 6

    def test_state_one(self, tmp_path):
        proc = run_cli(["expcase", "--x", "1"], cwd=tmp_path)
        assert "value = 0" in proc.stdout

    def test_custom_sequence(self, tmp_path):
        proc = run_cli(["expcase", "--n-list", "4,8", "--out", "w.csv"],
                       cwd=tmp_path)
        assert len((tmp_path / "w.csv").read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("n_list, message", [
        ("4.5", "--n-list"), ("4,,8", "--n-list"), ("0,4", "n must be")])
    def test_bad_sequence_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         n_list, message):
        # The whole list is checked before the first line is printed.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["expcase", "--n-list", n_list]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert not (tmp_path / "witnesses.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--x", "nan"), ("--x", "-inf"), ("--x", "inf"),
        ("--c", "nan"), ("--c", "-inf")])
    def test_non_finite_input_is_usage_error(self, tmp_path, monkeypatch,
                                             capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["expcase", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag[2:]} must be a finite number\n"
        assert not (tmp_path / "witnesses.csv").exists()

    def test_sequence_from_two(self, tmp_path):
        # n = 2 puts the entropy antiderivative on its logarithmic branch
        proc = run_cli(["expcase", "--n-list", "2,4", "--out", "w.csv"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "w.csv").read_text().strip().splitlines()) == 3


_SCIPY_PROBE = """
import json, sys
from targetcost import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

at_import = scipy_modules()
codes = [cli.main(argv) for argv in (
    ["value", "--curve", "gcurve_p2.csv"],
    ["oracle", "--n", "100"],
    ["expcase", "--out", "w.csv"],
    ["simulate", "--n-paths", "64", "--n-steps", "50", "--seed", "1"],
)]
print(json.dumps({"import": at_import, "codes": codes,
                  "commands": scipy_modules()}))
"""


# Every command, with any import of SciPy made to fail.
_SCIPY_BLOCKED_PROBE = """
import json, sys
sys.modules["scipy"] = None
from targetcost import cli

codes = [cli.main(argv) for argv in (
    ["calibrate", "--p", "2"],
    ["value", "--curve", "gcurve_p2.csv"],
    ["oracle", "--n", "100"],
    ["simulate", "--n-paths", "64", "--n-steps", "50", "--seed", "1"],
    ["bsde-check", "--n-paths", "64", "--n-steps", "50", "--seed", "1"],
    ["expcase", "--out", "w.csv"],
    ["verify", "--budget", "quick"],
)]
print(json.dumps(codes))
"""


class TestStartup:
    def test_commands_without_calibration_load_no_scipy(self, workdir):
        proc = run_python(["-c", _SCIPY_PROBE], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        assert probe["import"] == []
        assert probe["codes"] == [0, 0, 0, 0]
        assert probe["commands"] == []

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        proc = run_python(["-c", _SCIPY_BLOCKED_PROBE], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0] * 7


class TestParserReuse:
    """One parser serves every cli.main call of a process."""

    def test_call_leaves_no_cyclic_garbage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["expcase", "--n-list", "4,8", "--out", "w.csv"]
        assert cli.main(argv) == 0
        gc.collect()
        gc.disable()  # so that no automatic pass collects part of the count
        try:
            assert cli.main(argv) == 0
            assert gc.collect() < 50
        finally:
            gc.enable()

    def test_config_does_not_leak_into_next_call(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.ini").write_text("p = 3\n")
        assert cli.main(["calibrate", "--config", "cfg.ini", "--out", "a"]) == 0
        assert cli.main(["calibrate", "--out", "b"]) == 0
        assert json.loads((tmp_path / "a.json").read_text())["p"] == 3.0
        assert json.loads((tmp_path / "b.json").read_text())["p"] == 2.0

    def test_usage_error_does_not_break_next_call(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--n", "abc"])
        assert exc.value.code == 2
        assert cli.main(["oracle", "--n", "100", "--c", "nan"]) == 2
        assert cli.main(["oracle", "--n", "100"]) == 0
        assert capsys.readouterr().out.strip() != ""


class TestConfigPrecedence:
    def test_config_fills_missing_flags(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("n = 400\nc = 100  # far away\n")
        proc = run_cli(["oracle", "--config", "cfg.ini"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 1e-12

    def test_flags_beat_config(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("c = 100\nn = 400\n")
        proc = run_cli(["oracle", "--config", "cfg.ini", "--c", "0",
                        "--n", "500"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(0.873, abs=0.02)

    def test_malformed_config(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("just some words\n")
        proc = run_cli(["oracle", "--config", "cfg.ini"], cwd=tmp_path)
        assert proc.returncode == 2

    def test_config_p_is_parsed_as_a_number(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("p = 2\nT = 4\n")
        proc = run_cli(["value", "--config", str(cfg)], cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["value"] - 0.22) <= 0.005
        cfg.write_text("p = 3\n")
        proc = run_cli(["value", "--config", str(cfg)], cwd=workdir)
        assert proc.returncode == 2
        assert "--p" in proc.stderr

    def test_config_seed_is_parsed_as_an_integer(self, workdir, tmp_path):
        args = ["simulate", "--n-paths", "64", "--n-steps", "50"]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("seed = 7\n")
        via_file = run_cli(args + ["--config", str(cfg)], cwd=workdir)
        via_flag = run_cli(args + ["--seed", "7"], cwd=workdir)
        assert via_file.returncode == 0, via_file.stderr
        assert json.loads(via_file.stdout) == json.loads(via_flag.stdout)
        cfg.write_text("seed = 7.5\n")
        proc = run_cli(args + ["--config", str(cfg)], cwd=workdir)
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_config_choices_are_checked(self, tmp_path):
        (tmp_path / "cfg.ini").write_text("budget = bogus\n")
        proc = run_cli(["verify", "--config", "cfg.ini"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--budget" in proc.stderr

    @pytest.mark.parametrize("key, value", [("nn", "100"), ("pro", "0.2:0.8:3")])
    def test_unknown_config_key_is_rejected(self, tmp_path, key, value):
        # "pro" is a prefix of --profile, which the command line would accept.
        (tmp_path / "cfg.ini").write_text(f"{key} = {value}\n")
        proc = run_cli(["oracle", "--config", "cfg.ini"], cwd=tmp_path)
        assert proc.returncode == 2
        assert f"--{key}" in proc.stderr


class TestVerifyCommand:
    def test_quick_budget_passes_and_writes_report(self, tmp_path):
        proc = run_cli(["verify", "--budget", "quick", "--report", "report.json"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["seconds"] < 60.0

    def test_perturb_g_is_not_an_option(self, tmp_path):
        # The kernel-bump hook is gone: neither the flag nor a config key.
        proc = run_cli(["verify", "--perturb-g", "0.05"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--perturb-g" in proc.stderr
        (tmp_path / "cfg.ini").write_text("perturb_g = 0.05\n")
        proc = run_cli(["verify", "--config", "cfg.ini"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--perturb-g" in proc.stderr


class TestHelp:
    @pytest.mark.parametrize("cmd", ["calibrate", "value", "oracle", "simulate",
                                     "bsde-check", "expcase", "verify"])
    def test_every_command_documents_flags(self, cmd, tmp_path):
        proc = run_cli([cmd, "--help"], cwd=tmp_path)
        assert proc.returncode == 0
        assert "--config" in proc.stdout


# Outputs recorded before eval_g dropped its slope and the one-path
# Monte Carlo routes left the package; the value cases reach both tails
# (c = +-9) and the free state (x = 1).  Every value, the simulate summary
# and the non-empty dumps were recorded again when the kernel came to be
# solved on the whole line by Howard's policy iteration: g(1/2) moved from
# 0.8666881 to 0.8687334, and past the stored ends the kernel reads values
# within 1e-10 of 1 and 0 instead of exactly 1 and 0.
# GOLDEN_VALUE_BANDED_LU holds the value outputs of that kernel with its
# tridiagonal solves done by a banded LU factorization (SciPy's
# solve_banded) instead of cyclic reduction.
GOLDEN_VALUE = {
    (): (
        '{"T": 1.0, "c": 0.0, "g_at_level": 0.8687333545861696, '
        '"level": 0.5, "p": 2.0, '
        '"value": 0.8687333545861696, "x": 0.0}\n'),
    ('--x', '1'): (
        '{"T": 1.0, "c": 0.0, "g_at_level": 0.8687333545861696, '
        '"level": 0.5, "p": 2.0, '
        '"value": 0.0, "x": 1.0}\n'),
    ('--c', '9'): (
        '{"T": 1.0, "c": 9.0, "g_at_level": 9.485810579589452e-11, '
        '"level": 0.9999999999999993, "p": 2.0, '
        '"value": 9.485810579589452e-11, "x": 0.0}\n'),
    ('--c', '-9'): (
        '{"T": 1.0, "c": -9.0, "g_at_level": 0.9999999999003407, '
        '"level": 6.220960574271819e-16, "p": 2.0, '
        '"value": 0.9999999999003407, "x": 0.0}\n'),
    ('--T', '1.7', '--x', '0.25', '--c', '-0.3'): (
        '{"T": 1.7, "c": -0.3, "g_at_level": 0.9094835369322388, '
        '"level": 0.40901111320746447, "p": 2.0, '
        '"value": 0.30093205266140255, "x": 0.25}\n'),
    ('--T', '4', '--x', '0.5', '--c', '3.6'): (
        '{"T": 4.0, "c": 3.6, "g_at_level": 0.2386464837512128, '
        '"level": 0.9640696808870742, "p": 2.0, '
        '"value": 0.0149154052344508, "x": 0.5}\n'),
    ('--T', '0.25', '--x', '0.1', '--c', '-0.9'): (
        '{"T": 0.25, "c": -0.9, "g_at_level": 0.9972406058006282, '
        '"level": 0.03593031911292581, "p": 2.0, '
        '"value": 3.2310595627940355, "x": 0.1}\n'),
}
GOLDEN_VALUE_BANDED_LU = {
    (): (
        '{"T": 1.0, "c": 0.0, "g_at_level": 0.8687333545861695, '
        '"level": 0.5, "p": 2.0, '
        '"value": 0.8687333545861695, "x": 0.0}\n'),
    ('--x', '1'): (
        '{"T": 1.0, "c": 0.0, "g_at_level": 0.8687333545861695, '
        '"level": 0.5, "p": 2.0, '
        '"value": 0.0, "x": 1.0}\n'),
    ('--c', '9'): (
        '{"T": 1.0, "c": 9.0, "g_at_level": 9.485810579589489e-11, '
        '"level": 0.9999999999999993, "p": 2.0, '
        '"value": 9.485810579589489e-11, "x": 0.0}\n'),
    ('--c', '-9'): (
        '{"T": 1.0, "c": -9.0, "g_at_level": 0.9999999999003407, '
        '"level": 6.220960574271819e-16, "p": 2.0, '
        '"value": 0.9999999999003407, "x": 0.0}\n'),
    ('--T', '1.7', '--x', '0.25', '--c', '-0.3'): (
        '{"T": 1.7, "c": -0.3, "g_at_level": 0.9094835369322388, '
        '"level": 0.40901111320746447, "p": 2.0, '
        '"value": 0.30093205266140255, "x": 0.25}\n'),
    ('--T', '4', '--x', '0.5', '--c', '3.6'): (
        '{"T": 4.0, "c": 3.6, "g_at_level": 0.23864648375121267, '
        '"level": 0.9640696808870742, "p": 2.0, '
        '"value": 0.014915405234450792, "x": 0.5}\n'),
    ('--T', '0.25', '--x', '0.1', '--c', '-0.9'): (
        '{"T": 0.25, "c": -0.9, "g_at_level": 0.9972406058006282, '
        '"level": 0.03593031911292581, "p": 2.0, '
        '"value": 3.2310595627940355, "x": 0.1}\n'),
}
GOLDEN_SIMULATE = (
    '{"feasibility_violations": 0, "mean_cost": 0.46455044436382215, '
    '"n_paths": 4106, "n_steps": 4, "params": {"T": 1.0, "c": 0.1, '
    '"p": 2.0, "x": 0.2}, "seed": 6, "stderr": 0.0026996728373240826}\n')
GOLDEN_DUMP_SHA256 = {
    0: 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    1: '7d20159d31d0fab22d41d9de4a537a23353ddcce2845ff86ccde0994965cdbf6',
    5: '88bf9144bb894c540486d47433eb75b012f1d92630e26f78b0ce65c4545c091e',
    BLOCK + 3:
        'abd04ee2ffbdb0327e7ee6d3710fd084637c0d5b575179f8690677a715666987',
}
GOLDEN_EXPCASE = {
    (): (
        "value = 1.7182818284590451\n"
        "optimal_rate = 1\n"
        "witnesses: w.csv  final_gap = 0.0606\n",
        "14c7ace57aee7be5c5dffa7fa1311db0d6ecb0db6a706063a4aee9e8e692ff0b"),
    ("--T", "2", "--x", "0.3", "--lam", "1.5", "--c", "0.4",
     "--n-list", "2,3,5,144,200"): (
        "value = 1.3809176967581824\n"
        "optimal_rate = 0.34999999999999998\n"
        "witnesses: w.csv  final_gap = 0.0213\n",
        "6b4045338bd12bb962e3dded1aacfbc3a58ce8726d3663ee6e3555b2c1a79d2d"),
}


class TestGoldenBits:
    """Exact bytes of recorded command outputs: stdout, and the files
    written, by sha256 (the dumped paths concatenated in name order)."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_VALUE))
    def test_value(self, workdir, monkeypatch, capsys, case):
        monkeypatch.chdir(workdir)
        assert cli.main(["value", "--curve", "gcurve_p2.csv", *case]) == 0
        assert capsys.readouterr().out == GOLDEN_VALUE[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_VALUE_BANDED_LU))
    def test_value_within_rounding_of_banded_lu(self, workdir, monkeypatch,
                                                capsys, case):
        monkeypatch.chdir(workdir)
        assert cli.main(["value", "--curve", "gcurve_p2.csv", *case]) == 0
        got = json.loads(capsys.readouterr().out)
        before = json.loads(GOLDEN_VALUE_BANDED_LU[case])
        assert got.keys() == before.keys()
        for key, value in before.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    @pytest.mark.parametrize("count", sorted(GOLDEN_DUMP_SHA256))
    def test_simulate(self, workdir, tmp_path, monkeypatch, capsys, count):
        monkeypatch.chdir(workdir)
        assert cli.main(["simulate", "--n-paths", str(BLOCK + 10),
                         "--n-steps", "4", "--seed", "6", "--x", "0.2",
                         "--c", "0.1", "--dump-paths", str(tmp_path / "dd"),
                         "--dump-count", str(count)]) == 0
        assert capsys.readouterr().out == GOLDEN_SIMULATE
        digest = hashlib.sha256()
        for path in sorted((tmp_path / "dd").iterdir()):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == GOLDEN_DUMP_SHA256[count]

    @pytest.mark.parametrize("case", sorted(GOLDEN_EXPCASE))
    def test_expcase(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["expcase", "--out", "w.csv", *case]) == 0
        out, csv_sha256 = GOLDEN_EXPCASE[case]
        assert capsys.readouterr().out == out
        assert (hashlib.sha256((tmp_path / "w.csv").read_bytes()).hexdigest()
                == csv_sha256)
