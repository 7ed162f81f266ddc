import json

import pytest

from helpers import run_cli


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
        assert sidecar["left_residual"] <= 1e-3
        assert sidecar["right_residual"] <= 1e-3

    def test_p3_midpoint_bound(self, tmp_path):
        proc = run_cli(["calibrate", "--p", "3", "--out", "c3"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        sidecar = json.loads((tmp_path / "c3.json").read_text())
        assert 0.5 ** 3 < sidecar["g_mid"] < 1.0

    def test_epsilon_validation(self, tmp_path):
        proc = run_cli(["calibrate", "--p", "2", "--epsilon", "0.5"], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--epsilon" in proc.stderr

    @pytest.mark.parametrize("epsilon", ["1e-6", "1e-10"])
    def test_small_epsilon_curve_evaluates(self, tmp_path, epsilon):
        # Near y = 1 - epsilon the stored levels move the quantile grid by
        # about ulp(1)/pdf(z) in z (1e-11 at 1e-6); the reloaded curve must
        # still evaluate.
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
            worst = max(worst, abs(val - eval_g(curve, y)[0]))
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

    def test_seed_env_override(self, workdir):
        args = ["simulate", "--curve", "gcurve_p2.csv", "--n-paths", "64",
                "--n-steps", "50"]
        via_env = run_cli(args, cwd=workdir, env_extra={"TARGETCOST_SEED": "321"})
        via_flag = run_cli(args + ["--seed", "321"], cwd=workdir)
        assert via_env.returncode == 0, via_env.stderr
        assert via_flag.returncode == 0, via_flag.stderr
        assert json.loads(via_env.stdout) == json.loads(via_flag.stdout)

    def test_thread_count_does_not_change_results(self, workdir):
        args = ["simulate", "--curve", "gcurve_p2.csv", "--n-paths", "5000",
                "--n-steps", "64", "--seed", "4"]
        one = run_cli(args + ["--threads", "1"], cwd=workdir)
        four = run_cli(args + ["--threads", "4"], cwd=workdir)
        assert one.returncode == 0, one.stderr
        assert four.returncode == 0, four.stderr
        assert json.loads(one.stdout) == json.loads(four.stdout)


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

    def test_perturbation_hook_fails_verification(self, tmp_path):
        proc = run_cli(["verify", "--budget", "quick", "--perturb-g", "0.05"],
                       cwd=tmp_path)
        assert proc.returncode == 4
        assert "bsde_residual" in proc.stderr


class TestHelp:
    @pytest.mark.parametrize("cmd", ["calibrate", "value", "oracle", "simulate",
                                     "bsde-check", "expcase", "verify"])
    def test_every_command_documents_flags(self, cmd, tmp_path):
        proc = run_cli([cmd, "--help"], cwd=tmp_path)
        assert proc.returncode == 0
        assert "--config" in proc.stdout
