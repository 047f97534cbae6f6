import csv
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from ssl_lab import cli, experiments
from ssl_lab.cli import _write_manifest, main
from ssl_lab.data_io import RESULTS_COLUMNS, read_results
from ssl_lab.errors import ConvergenceError
from ssl_lab.experiments import FitProtocol, TrialConfig

ROOT = Path(__file__).resolve().parent.parent
DATA_CSV = str(ROOT / "data" / "synthetic_2gmm_200.csv")

SMALL_SIM = [
    "simulate", "--s", "1.5", "--d", "3", "--nl", "8", "--nu", "40",
    "--nval", "30", "--ntest", "25", "--methods", "sl,sslw",
    "--replicates", "2", "--seed", "5", "--threads", "1",
]


#: A value other than simulate's default for every TrialConfig field but model and protocol,
#: and for every FitProtocol field.
TRIAL_FIELD_VALUES = {
    "n_l": 7,
    "n_u": 31,
    "n_val": 21,
    "n_test": 22,
    "methods": ["sl", "sslw"],
    "t_grid": [0.25, 0.5],
    "self_train_thresholds": [0.5, 1.0],
    "ridge_grid": [0.5, 2.0],
    "base_seed": 9,
    "ul_backend": "em",
    "em_budget": 7,
}


def failing_fit(*args, **kwargs):
    raise ConvergenceError("injected")


def run_small_sim(out_dir, extra=()):
    code = main(SMALL_SIM + ["--out", str(out_dir), "--quiet"] + list(extra))
    assert code == 0
    return Path(out_dir)


#: `theory` output, byte for byte, at one size per regime label and at a size whose
#: bound exponent factor clamps to 0 (n_u at the validity edge (160/s)^2 * d).
THEORY_PINS = {
    "--s 1 --d 2 --nl 10000 --nu 50": """{
  "excess_rate": 0.00012070261884828525,
  "estimation_rate": 0.014106912317171965,
  "ulp_excess_upper": null,
  "ulp_estimation_upper": null,
  "h_l": 0.9950248756218906,
  "h_u": 0.00497512437810943,
  "trivial_excess": 0.3413447460685429,
  "regime": "SL-dominant"
}""",
    "--s 1 --d 2 --nl 10 --nu 1000000": """{
  "excess_rate": 1.2130491889333774e-06,
  "estimation_rate": 0.0014142064913583157,
  "ulp_excess_upper": 0.007118221577156297,
  "ulp_estimation_upper": 0.008514835248030008,
  "h_l": 9.99990000099999e-06,
  "h_u": 0.999990000099999,
  "trivial_excess": 0.3413447460685429,
  "regime": "UL-dominant"
}""",
    "--s 1 --d 2 --nl 100 --nu 100": """{
  "excess_rate": 0.006065306597126334,
  "estimation_rate": 0.1,
  "ulp_excess_upper": null,
  "ulp_estimation_upper": null,
  "h_l": 0.5,
  "h_u": 0.5,
  "trivial_excess": 0.3413447460685429,
  "regime": "Balanced"
}""",
    "--s 0.001 --d 2 --nl 50 --nu 1000": """{
  "excess_rate": 0.000999999500000125,
  "estimation_rate": 0.001,
  "ulp_excess_upper": null,
  "ulp_estimation_upper": null,
  "h_l": 0.999980000399992,
  "h_u": 1.999960000798051e-05,
  "trivial_excess": 0.00039894221391101325,
  "regime": "LowSNR"
}""",
    "--s 0.1 --d 2 --nl 50 --nu 5120000": """{
  "excess_rate": 0.00038829755285568084,
  "estimation_rate": 0.006246950475544242,
  "ulp_excess_upper": 1.0062739470912,
  "ulp_estimation_upper": 0.10625000000000001,
  "h_l": 0.0009756097560975609,
  "h_u": 0.9990243902439024,
  "trivial_excess": 0.03982783727702899,
  "regime": "UL-dominant"
}""",
}


class TestTheory:
    @pytest.mark.parametrize("size", sorted(THEORY_PINS))
    def test_report_is_pinned_byte_for_byte(self, capsys, size):
        assert main(["theory", *size.split()]) == 0
        assert capsys.readouterr().out == THEORY_PINS[size] + "\n"

    def test_prints_rate_report_json(self, capsys):
        assert main(["theory", "--s", "1", "--d", "10", "--nl", "10", "--nu", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isclose(payload["excess_rate"], 0.606531, rel_tol=0, abs_tol=1e-6)
        assert payload["regime"] == "LowSNR"

    def test_low_snr_regime_example(self, capsys):
        assert main(["theory", "--s", "0.001", "--nu", "1000", "--nl", "10", "--d", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "LowSNR"

    def test_missing_flag_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["theory", "--s", "1", "--d", "10", "--nl", "10"])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_invalid_problem_size_exits_2(self, capsys):
        assert main(["theory", "--s", "-1", "--d", "10", "--nl", "10", "--nu", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_snr_past_the_rule_exits_2_naming_s(self, capsys):
        assert main(["theory", "--s", "1e154", "--d", "2", "--nl", "5", "--nu", "10"]) == 2
        err = capsys.readouterr().err
        assert err == "error: s must lie in [0, 1e+100], got 1e+154\n"

    @pytest.mark.parametrize("s", ["0", "5e-324", "1e-200", "1e-155", "1", "1e100"])
    def test_extreme_sizes_exit_0_or_2(self, capsys, s):
        sizes = ["0", "1", "2", str(10 ** 308), str(10 ** 400)]
        for d, n_l, n_u in itertools.product(sizes, repeat=3):
            code = main(["theory", "--s", s, "--d", d, "--nl", n_l, "--nu", n_u])
            out, err = capsys.readouterr()
            shape = (code, out.startswith("{"), err.startswith("error: "), err.count("\n"))
            assert shape in ((0, True, False, 0), (2, False, True, 1)), (d, n_l, n_u)

    @pytest.mark.parametrize("size, field, want", [
        # A denominator that underflows to 0 takes its limit: min(s, d / 0+) = s.
        ("--s 1e-200 --d 2 --nl 0 --nu 10", "excess_rate", 1e-200),
        ("--s 1e-200 --d 2 --nl 0 --nu 10", "estimation_rate", 1e-200),
        # (160/s)**2 overflows, so no n_u meets the bounds' validity condition.
        ("--s 1e-155 --d 2 --nl 1 --nu 10", "ulp_excess_upper", None),
    ])
    def test_underflow_and_overflow_take_their_limits(self, capsys, size, field, want):
        assert main(["theory", *size.split()]) == 0
        assert json.loads(capsys.readouterr().out)[field] == want

    def test_size_past_float_range_exits_2(self, capsys):
        argv = ["theory", "--s", "1", "--d", "2", "--nl", "1", "--nu", str(10 ** 400)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: n_u must lie in [0, 1.79769e+308], got an int of 1329 bits\n"
        )


#: A results file for report, and the arguments of each non-simulate command.
REPORT_INPUT = str(ROOT / "tests" / "golden" / "fig3.csv")
OTHER_COMMANDS = {
    "theory": ["theory", "--s", "1", "--d", "2", "--nl", "5", "--nu", "10"],
    "fit": ["fit", DATA_CSV, "--nl", "20"],
    "report": ["report", REPORT_INPUT],
}


class TestSimulateOnlyFlags:
    @pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
    @pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "-3"], ["--threads", "1"]])
    def test_threads_exits_2_outside_simulate(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        assert main(OTHER_COMMANDS[command] + flag + ["--out", str(out), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --threads applies to the simulate command\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
    def test_config_exits_2_outside_simulate(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = OTHER_COMMANDS[command] + ["--config", str(tmp_path / "c.json"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --config applies to the simulate command\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
    def test_help_outside_simulate_lists_neither_flag(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        usage = capsys.readouterr().out
        assert "--threads" not in usage and "--config" not in usage


class TestSimulate:
    def test_writes_manifest_and_results(self, tmp_path, capsys):
        out = run_small_sim(tmp_path)
        assert (out / "manifest.json").exists()
        sweep = read_results(str(out / "results.csv"))
        assert sweep.axis_name == "snr"
        assert sweep.grid == (1.5,)
        assert sweep.methods() == ("sl", "sslw")
        assert sweep.replicates == 2

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = run_small_sim(tmp_path / "a")
        second = run_small_sim(tmp_path / "b")
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        lone = run_small_sim(tmp_path / "t1")
        code = main(
            SMALL_SIM[:-2] + ["--threads", "2", "--out", str(tmp_path / "t2"), "--quiet"]
        )
        assert code == 0
        assert (lone / "results.csv").read_bytes() == (tmp_path / "t2" / "results.csv").read_bytes()

    def test_manifest_replay_reproduces_results(self, tmp_path):
        original = run_small_sim(tmp_path / "orig")
        code = main([
            "simulate", "--config", str(original / "manifest.json"),
            "--out", str(tmp_path / "replay"), "--quiet",
        ])
        assert code == 0
        assert (original / "results.csv").read_bytes() == (
            tmp_path / "replay" / "results.csv"
        ).read_bytes()

    def test_manifest_with_an_infinite_threshold_replays(self, tmp_path):
        """+inf is written as JSON's Infinity, which --config reads back."""
        config = tmp_path / "cfg.json"
        config.write_text('{"self_train_thresholds": [0.5, Infinity], "methods": ["selftrain"],'
                          ' "n_l": 6, "n_u": 30, "n_val": 20, "n_test": 20}')
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["simulate", "--config", str(config), "--out", str(first), "--quiet"]) == 0
        manifest = first / "manifest.json"
        assert '"self_train_thresholds": [\n      0.5,\n      Infinity\n    ]' in manifest.read_text()
        assert main(["simulate", "--config", str(manifest), "--out", str(replay), "--quiet"]) == 0
        assert (first / "results.csv").read_bytes() == (replay / "results.csv").read_bytes()

    @pytest.mark.parametrize("grid, replicates", [("1", 2**64 + 1), ("1,2", 2**63 + 1),
                                                  ("1", 10**400)])
    def test_more_trials_than_seeds_tell_apart_exit_2_before_the_manifest(
        self, tmp_path, capsys, grid, replicates
    ):
        bound = 2**64 // len(grid.split(","))
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"replicates": {replicates}}}')
        for given in (["--replicates", str(replicates)], ["--config", str(config)]):
            out = tmp_path / "run"
            argv = ["simulate", "--axis", "snr", "--grid", grid, *given, "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: replicates must be at most {bound}, got ")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_manifest_records_resolved_merge(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"s": 2.5, "d": 4, "n_l": 6, "replicates": 3}))
        out = tmp_path / "run"
        code = main([
            "simulate", "--config", str(config), "--s", "1.25", "--nu", "30",
            "--nval", "20", "--ntest", "20", "--out", str(out), "--quiet",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["s"] == 1.25
        assert manifest["config"]["d"] == 4
        assert manifest["config"]["n_l"] == 6
        assert manifest["config"]["replicates"] == 3
        assert manifest["config_path"] == str(config)
        assert manifest["base_seed"] == 0

    def test_method_aliases_are_normalized(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "simulate", "--s", "1.0", "--d", "2", "--nl", "6", "--nu", "30",
            "--nval", "20", "--ntest", "20", "--methods", "UL+,sls",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["methods"] == ["ulplus", "ssls"]

    def test_duplicate_method_tags_run_and_record_once(self, tmp_path):
        out = run_small_sim(tmp_path, ["--methods", "sl,supervised,SL"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["methods"] == ["sl"]
        assert read_results(str(out / "results.csv")).methods() == ("sl",)

    def test_failed_manifest_write_leaves_existing_file_intact(self, tmp_path):
        run_small_sim(tmp_path)
        path = tmp_path / "manifest.json"
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_manifest(
                str(tmp_path), "manifest.json", "simulate", {"unserializable": object()}
            )
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "results.csv"]

    def test_env_var_supplies_out_dir_and_flag_wins(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("SSL_LAB_OUT_DIR", str(env_dir))
        run_small_sim_args = SMALL_SIM + ["--quiet"]
        assert main(run_small_sim_args) == 0
        assert (env_dir / "results.csv").exists()
        flag_dir = tmp_path / "from_flag"
        assert main(run_small_sim_args + ["--out", str(flag_dir)]) == 0
        assert (flag_dir / "results.csv").exists()

    def test_quiet_suppresses_chatter(self, tmp_path, capsys):
        run_small_sim(tmp_path)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv,pattern",
        [
            (["simulate", "--axis", "snr"], "together"),
            (["simulate", "--grid", "1,2"], "together"),
            (["simulate", "--methods", "bogus"], "unknown method"),
            (["simulate", "--grid", "1,oops", "--axis", "snr"], "numbers"),
            (["simulate", "--nl", "0"], "n_l"),
        ],
    )
    def test_bad_flags_exit_2(self, tmp_path, capsys, argv, pattern):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert pattern in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["nl", "nu"])
    def test_non_integer_sample_size_grid_exits_2(self, tmp_path, capsys, axis):
        out = tmp_path / "run"
        code = main(["simulate", "--axis", axis, "--grid", "2,1.7", "--out", str(out)])
        assert code == 2
        assert f"{axis} grid value must be a whole number, got 1.7" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "extra,pattern",
        [
            (["--replicates", "0"], "replicates"),
            (["--threads", "0"], "threads"),
            (["--axis", "nl", "--grid", "10,0"], "n_l"),
            (["--nval", "0", "--methods", "sslw,logistic"], "nonempty validation set"),
            (["--nval", "0", "--methods", "sl,sslw"], "nonempty validation set"),
            (["--nu", "100", "--axis", "nu_over_nl", "--grid", "3,7"], "whole n_l"),
            (["--nu", "100", "--axis", "nu_over_nl", "--grid", "4,7"], "whole n_l"),
            (["--d", "0"], "d must be at least 1"),
            (["--s", "-1", "--axis", "nl", "--grid", "5"], "s must lie in [0, 1e+100], got -1.0"),
            (["--ntest", "0"], "n_test must be at least 1"),
            # Each grid value is one cell of results.csv, which report could not read back.
            (["--axis", "snr", "--grid", "1,1"], "grid values must be distinct"),
            (["--axis", "snr", "--grid", "0,-0.0"], "grid values must be distinct"),
            (["--nu", "100", "--axis", "nu_over_nl", "--grid", "10,10.0"], "must be distinct"),
        ],
    )
    def test_bad_sweep_size_exits_2_before_compute(self, tmp_path, capsys, extra, pattern):
        out = tmp_path / "run"
        code = main(SMALL_SIM + ["--out", str(out)] + extra)
        assert code == 2
        assert pattern in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()

    def test_snr_past_the_rule_exits_2_before_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--s", "1e160", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: s must lie in [0, 1e+100], got 1e+160\n"
        assert not out.exists()

    def test_snr_grid_value_past_the_rule_exits_2_before_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["simulate", "--s", "1", "--nl", "5", "--nu", "10", "--methods", "sl",
                "--axis", "snr", "--grid", "1e200", "--threads", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: snr grid value must lie in [0, 1e+100], got 1e+200\n"
        assert not out.exists()

    @pytest.mark.parametrize("ratio, message", [
        ("nan", "grid value must lie in [0, inf], got nan"),
        ("1e-320", "n_u / nu_over_nl grid value (n_u = 100) must lie in [0, 1.79769e+308], "
                   "got inf"),
    ])
    def test_ratio_that_leaves_no_finite_n_l_exits_2_before_the_manifest(
        self, tmp_path, capsys, ratio, message
    ):
        # 100 / 1e-320 overflows to inf, which has no whole n_l to round to.
        out = tmp_path / "run"
        argv = ["simulate", "--axis", "nu_over_nl", "--grid", ratio, "--nl", "5", "--nu", "100",
                "--methods", "sl", "--threads", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "values,pattern",
        [
            ({"self_train_thresholds": [float("nan")]}, "self_train_thresholds"),
            ({"self_train_thresholds": [0.5, float("nan")]}, "self_train_thresholds"),
            ({"ridge_grid": [0.0]}, "ridge_grid"),
            ({"ridge_grid": [0.1, 0.0, 1.0]}, "ridge_grid"),
            ({"n_l": "abc"}, "n_l must be a whole number"),
            ({"s": "x"}, "s must be a real number, got 'x'"),
            ({"grid": "1,2"}, "--grid must be given together"),
            ({"ridge_grid": "abc"}, "ridge_grid values must be numbers"),
            ({"em_budget": None}, "em_budget must be a whole number"),
            ({"self_train_thresholds": "ab"}, "self_train_thresholds values must be numbers"),
            ({"t_grid": [2.0], "methods": ["sslw"]}, "t_grid"),
            ({"d": 2.5}, "d must be a whole number"),
            ({"replicates": True}, "replicates must be a whole number"),
            ({"axis": "nu", "grid": [1e30]}, "n_u must be at most 4611686018427387903"),
            ({"n_u": 1e30}, "n_u must be at most 4611686018427387903"),
            ({"d": 1e30}, "d must be at most 9223372036854775807"),
            ({"n_test": 0}, "n_test must be at least 1"),
            ({"axis": "nu_over_nl", "grid": [float("nan")]}, "grid value must lie in [0, inf]"),
        ],
    )
    def test_bad_selftrain_grid_in_config_exits_2_before_compute(
        self, tmp_path, capsys, values, pattern
    ):
        config = tmp_path / "cfg.json"
        # json writes NaN as the bare token NaN, which json.load reads back.
        config.write_text(json.dumps({
            "methods": ["sl", "selftrain"], "n_l": 6, "n_u": 30, "n_val": 20, "n_test": 20,
            **values,
        }))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 2
        assert pattern in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("values", [
        {"s": 10**400},
        {"axis": "snr", "grid": [1.0, 10**400]},
        {"t_grid": [10**400], "methods": ["sslw"]},
        {"ridge_grid": [0.1, 10**400]},
        {"self_train_thresholds": [10**400]},
    ], ids=lambda values: [key for key in values if key not in ("axis", "methods")][0])
    def test_a_number_past_float_range_exits_2_naming_its_key(self, tmp_path, capsys, values):
        # json reads 1 followed by 400 zeros as an int that float() cannot hold.
        key = [key for key in values if key not in ("axis", "methods")][0]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"methods": ["sl"], "n_l": 6, "n_u": 30, **values}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not out.exists()

    def test_infinite_selftrain_threshold_is_the_labeled_only_fit(self, tmp_path):
        # Every trial's threshold is inf, so the cell's mean threshold is inf
        # at any replicate count (inf - inf must not turn it into NaN).
        for replicates in (1, 2):
            config = tmp_path / f"cfg{replicates}.json"
            config.write_text(json.dumps({
                "methods": ["logistic", "selftrain"], "n_l": 6, "n_u": 30, "n_val": 20,
                "n_test": 20, "self_train_thresholds": [float("inf")],
                "replicates": replicates,
            }))
            out = tmp_path / f"run{replicates}"
            code = main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
            assert code == 0
            sweep = read_results(str(out / "results.csv"))
            assert sweep.replicates == replicates
            logistic, selftrain = sweep.cell(0, "logistic"), sweep.cell(0, "selftrain")
            assert selftrain.mean_excess == logistic.mean_excess
            assert selftrain.extra["threshold"] == math.inf

    def test_every_method_failed_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "fit_sl", failing_fit)
        out = tmp_path / "run"
        code = main(SMALL_SIM + ["--out", str(out), "--quiet", "--methods", "sl"])
        assert code == 3
        assert "ConvergenceError: injected" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_running_out_of_memory_exits_3_with_one_line(self, tmp_path):
        """A 200M-row draw under a 1 GiB address-space limit that this subprocess sets on itself."""
        limited = (
            f"import resource, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from ssl_lab.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        args = ["simulate", "--threads", "1", "--nu", "200000000", "--out", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-c", limited, *args], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 3
        assert done.stderr.startswith("error: Unable to allocate")
        assert done.stderr.count("\n") == 1

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the pool's workers must inherit the patched draw")
    def test_broken_pool_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        """A worker that dies mid-trial breaks the pool, which run_sweep raises as an
        SslLabError."""
        monkeypatch.setattr(experiments, "sample_labeled", lambda *args: os._exit(1))
        argv = SMALL_SIM[:-2] + ["--threads", "2", "--out", str(tmp_path / "run"), "--quiet"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: A process in the process pool was terminated abruptly")
        assert err.count("\n") == 1

    def test_other_runtime_errors_still_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "run_sweep", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(SMALL_SIM + ["--out", str(tmp_path / "run"), "--quiet"])

    @pytest.mark.parametrize("methods", ["sl", "sl,sslw", ["sl", "sslw"]])
    def test_config_methods_may_be_string_or_list(self, tmp_path, methods):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "methods": methods, "n_l": 6, "n_u": 30, "n_val": 20, "n_test": 20,
        }))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        expected = ["sl"] if methods == "sl" else ["sl", "sslw"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["methods"] == expected
        assert read_results(str(out / "results.csv")).methods() == tuple(expected)

    def test_a_whole_number_flag_refuses_a_whole_float(self, tmp_path, capsys):
        """A flag goes through argparse's int, which takes `20` but not `20.0`."""
        with pytest.raises(SystemExit) as exit:
            main(SMALL_SIM + ["--nl", "20.0", "--out", str(tmp_path / "run")])
        assert exit.value.code == 2
        assert "argument --nl: invalid int value: '20.0'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_config_whole_number_takes_a_whole_float(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_l": 20.0, "n_u": 30, "n_val": 20, "n_test": 20}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["n_l"] == 20

    def test_trial_field_values_cover_every_trial_field(self):
        trial = {f.name for f in fields(TrialConfig)} - {"model", "protocol"}
        assert set(TRIAL_FIELD_VALUES) == trial | {f.name for f in fields(FitProtocol)}

    @pytest.mark.parametrize("key", sorted(TRIAL_FIELD_VALUES))
    def test_config_file_sets_every_trial_field(self, tmp_path, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "n_l": 6, "n_u": 30, "n_val": 20, "n_test": 20, key: TRIAL_FIELD_VALUES[key],
        }))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"][key] == TRIAL_FIELD_VALUES[key]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma": 2.0}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main([
            "simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        ]) == 2
        assert "config file" in capsys.readouterr().err

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b'{"n_l": ' + b"7" * 5_000 + b"}", "(4300 digits) for integer string conversion"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf8", "5000-digit-int", "deep-nesting"])
    def test_unreadable_config_json_exits_2_naming_the_file(
        self, tmp_path, capsys, content, reason
    ):
        config = tmp_path / "cfg.json"
        config.write_bytes(content)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: ")
        assert reason in err and err.count("\n") == 1
        assert not out.exists()


class TestFit:
    def fit_args(self, out_dir, extra=()):
        return ["fit", DATA_CSV, "--nl", "20", "--seed", "3",
                "--out", str(out_dir), "--quiet"] + list(extra)

    def test_bundled_csv_gives_errors_in_range_and_finite_rho(self, tmp_path, capsys):
        assert main(self.fit_args(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["test_errors"]) == {
            "sl", "ulplus", "sslw", "logistic", "selftrain", "lda"
        }
        for error in payload["test_errors"].values():
            assert 0.0 <= error <= 1.0
        assert math.isfinite(payload["compatibility"]["rho"])
        assert payload["failures"] == {}
        assert (tmp_path / "fit_results.json").exists()
        assert (tmp_path / "fit_manifest.json").exists()

    def test_split_parts_are_gone_before_the_whole_table_fit(self, tmp_path, monkeypatch):
        refs, alive = [], []
        split, compatibility_score = cli.split, cli.compatibility_score

        def spy_split(*args, **kwargs):
            parts = split(*args, **kwargs)
            refs.extend(weakref.ref(part) for part in parts)
            return parts

        def spy_compatibility_score(table):
            alive.extend(ref for ref in refs if ref() is not None)
            return compatibility_score(table)

        monkeypatch.setattr(cli, "split", spy_split)
        monkeypatch.setattr(cli, "compatibility_score", spy_compatibility_score)
        assert main(self.fit_args(tmp_path)) == 0
        assert len(refs) == 4
        assert alive == []

    def test_duplicate_method_tags_fit_and_record_once(self, tmp_path, capsys):
        assert main(self.fit_args(tmp_path, ["--methods", "sl,supervised"])) == 0
        manifest = json.loads((tmp_path / "fit_manifest.json").read_text())
        assert manifest["config"]["methods"] == ["sl"]
        assert list(json.loads(capsys.readouterr().out)["test_errors"]) == ["sl"]

    def test_pca_flag_reduces_dimension(self, tmp_path, capsys):
        assert main(self.fit_args(tmp_path, ["--pca", "2"])) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 2

    def test_deterministic_output(self, tmp_path, capsys):
        assert main(self.fit_args(tmp_path / "a")) == 0
        first = capsys.readouterr().out
        assert main(self.fit_args(tmp_path / "b")) == 0
        assert capsys.readouterr().out == first

    def test_nonexistent_file_exits_2(self, tmp_path, capsys):
        args = self.fit_args(tmp_path)
        args[1] = str(tmp_path / "missing.csv")
        assert main(args) == 2
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,text", [(1, b"x1,x2,\xe9t\xe9,label"), (4, b"1.0,2.0,3.0\xff,1")]
    )
    def test_text_that_does_not_decode_exits_2(self, tmp_path, capsys, line, text):
        lines = Path(DATA_CSV).read_bytes().splitlines()
        lines[line - 1] = text
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        args = self.fit_args(tmp_path)
        args[1] = str(path)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {path}: line {line}: not valid utf-8 text\n"

    def test_unsupported_method_exits_2(self, tmp_path, capsys):
        assert main(self.fit_args(tmp_path, ["--methods", "ssls"])) == 2
        assert "not available on real data" in capsys.readouterr().err

    def test_infeasible_split_exits_2(self, tmp_path, capsys):
        args = self.fit_args(tmp_path)
        args[args.index("--nl") + 1] = "500"
        assert main(args) == 2
        assert "error" in capsys.readouterr().err

    def test_every_method_failed_exits_3(self, tmp_path, capsys, monkeypatch):
        # Every default method fits through one of these three.
        for name in ("fit_sl", "fit_logistic_grid", "fit_spherical_lda"):
            monkeypatch.setattr(experiments, name, failing_fit)
        assert main(self.fit_args(tmp_path)) == 3
        assert "ConvergenceError: injected" in capsys.readouterr().err
        # Selections are kept only for methods that scored.
        assert json.loads((tmp_path / "fit_results.json").read_text())["selections"] == {}

    @pytest.mark.parametrize("methods", ["sslw,logistic", "sl,sslw", "selftrain"])
    def test_nval_zero_with_validation_methods_exits_2(self, tmp_path, capsys, methods):
        out = tmp_path / "run"
        assert main(self.fit_args(out, ["--nval", "0", "--methods", methods])) == 2
        assert "nonempty validation set" in capsys.readouterr().err
        assert not (out / "fit_manifest.json").exists()
        assert not (out / "fit_results.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--pca", "0", "pca must be at least 1, got 0"),
        ("--pca", "-2", "pca must be at least 1, got -2"),
        ("--nval", "-1", "n_val must be at least 0, got -1"),
    ])
    def test_bad_flag_exits_2_before_the_table_is_read(self, tmp_path, capsys, flag, value,
                                                       message):
        out = tmp_path / "run"
        args = self.fit_args(out, [flag, value])
        args[1] = str(tmp_path / "missing.csv")
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ntest_zero_exits_2_before_any_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.fit_args(out, ["--ntest", "0"])) == 2
        assert "n_test must be at least 1" in capsys.readouterr().err
        assert not (out / "fit_manifest.json").exists()
        assert not (out / "fit_results.json").exists()

    @pytest.mark.parametrize("n_l", ["0", "-2"])
    def test_nl_below_one_exits_2_before_any_manifest(self, tmp_path, capsys, n_l):
        out = tmp_path / "run"
        args = self.fit_args(out)
        args[args.index("--nl") + 1] = n_l
        assert main(args) == 2
        assert "n_l must be at least 1" in capsys.readouterr().err
        assert not (out / "fit_manifest.json").exists()
        assert not (out / "fit_results.json").exists()

    def test_results_file_is_replaced_whole(self, tmp_path):
        stale = tmp_path / "fit_results.json"
        stale.write_text("stale")
        assert main(self.fit_args(tmp_path)) == 0
        assert json.loads(stale.read_text())["n"] == 200
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fit_manifest.json", "fit_results.json"
        ]

    @pytest.mark.parametrize("pca", [[], ["--pca", "1"]], ids=["standardize", "pca"])
    @pytest.mark.parametrize("value", [
        lambda i: 1e200 * i, lambda i: 1e308 if i % 2 else -1e308, lambda i: 1e308,
    ], ids=["ramp", "alternating", "constant"])
    def test_a_column_that_overflows_exits_2_naming_it(self, tmp_path, capsys, value, pca):
        table = tmp_path / "big.csv"
        table.write_text("a,big,label\n" + "".join(
            f"{0.1 * i!r},{value(i)!r},{i % 2}\n" for i in range(40)
        ))
        out = tmp_path / "run"
        args = self.fit_args(out, pca)
        args[1] = str(table)
        assert main(args) == 2
        message = "feature column 'big' overflows a float: its mean or spread is not finite"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label\n1.0,p\nthree,q\n")
        args = self.fit_args(tmp_path)
        args[1] = str(bad)
        assert main(args + ["--positive-label", "p"]) == 2
        assert "row 3" in capsys.readouterr().err


class TestReport:
    def results_with(self, tmp_path, methods, grid=("8", "16")):
        out = tmp_path / "sim"
        code = main([
            "simulate", "--s", "1.2", "--d", "3", "--nl", "8", "--nu", "60",
            "--nval", "30", "--ntest", "25", "--methods", methods,
            "--axis", "nl", "--grid", ",".join(grid), "--replicates", "2",
            "--seed", "11", "--out", str(out), "--quiet",
        ])
        assert code == 0
        return out / "results.csv"

    def test_renders_series_chart_per_input(self, tmp_path, capsys):
        results = self.results_with(tmp_path, "sl,ulplus,sslw")
        charts = tmp_path / "charts"
        assert main(["report", str(results), "--out", str(charts)]) == 0
        svg_path = charts / "results.svg"
        assert svg_path.exists()
        text = svg_path.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert text.count("<polyline") == 3
        assert "nl" in text and "mean excess" in text
        assert "wrote" in capsys.readouterr().out
        assert (charts / "report_manifest.json").exists()

    @pytest.mark.parametrize("column, text", [
        ("replicates", "0_2"), ("replicates", " 2"), ("replicates", "+2"),
        ("mean_excess", "0.0_021883240771010948"),
    ])
    def test_a_number_reads_back_only_as_simulate_writes_it(self, tmp_path, capsys, column,
                                                            text):
        golden = ROOT / "tests" / "golden" / "fig3.csv"
        schema, header, row, *rest = golden.read_text().split("\n")
        cells = row.split(",")
        cells[RESULTS_COLUMNS.index(column)] = text
        results = tmp_path / "fig3.csv"
        results.write_text("\n".join([schema, header, ",".join(cells), *rest]))
        charts = tmp_path / "charts"
        assert main(["report", str(results), "--out", str(charts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"row 3: cannot parse {text!r} in column {column!r}" in err
        assert not charts.exists()

    @pytest.mark.parametrize("flags", [[], ["--log-x", "--log-y"], ["--gap", "sl", "sslw"]],
                             ids=["plain", "log", "gap"])
    def test_rows_in_descending_axis_order_draw_the_same_charts(self, tmp_path, flags):
        schema, header, *rows = (ROOT / "tests" / "golden" / "fig3.csv").read_text().splitlines()
        charts = {}
        for order, kept in (("ascending", rows), ("descending", rows[::-1])):
            results = tmp_path / order / "fig3.csv"
            results.parent.mkdir()
            results.write_text("\n".join([schema, header, *kept]) + "\n")
            out = tmp_path / order / "charts"
            assert main(["report", str(results), "--out", str(out), "--quiet", *flags]) == 0
            charts[order] = {path.name: path.read_bytes() for path in out.glob("*.svg")}
        assert len(charts["ascending"]) == (2 if flags[:1] == ["--gap"] else 1)
        assert charts["descending"] == charts["ascending"]

    def test_gap_flag_normalizes_aliases_and_writes_chart(self, tmp_path):
        results = self.results_with(tmp_path, "sl,ssls,sslw")
        charts = tmp_path / "charts"
        code = main([
            "report", str(results), "--gap", "sls", "ssl-w",
            "--out", str(charts), "--quiet",
        ])
        assert code == 0
        gap_path = charts / "results_gap_ssls_sslw.svg"
        assert gap_path.exists()
        assert gap_path.read_text().count("<polyline") == 1

    def test_metric_and_log_flags(self, tmp_path):
        results = self.results_with(tmp_path, "sl,sslw")
        charts = tmp_path / "charts"
        code = main([
            "report", str(results), "--metric", "test_error",
            "--log-x", "--out", str(charts), "--quiet",
        ])
        assert code == 0
        assert "mean test_error" in (charts / "results.svg").read_text()

    def test_empty_results_file_exits_3(self, tmp_path, capsys):
        from ssl_lab.data_io import write_results
        from ssl_lab.experiments import SweepResult

        empty = tmp_path / "empty.csv"
        write_results(SweepResult(axis_name="snr", grid=(), replicates=0, cells=()), str(empty))
        assert main(["report", str(empty), "--out", str(tmp_path)]) == 3
        assert "no data rows" in capsys.readouterr().err

    def test_results_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# schema ssl-lab-sweep 1\n\xff\n")
        charts = tmp_path / "charts"
        assert main(["report", str(bad), "--out", str(charts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} cannot be decoded: ") and err.count("\n") == 1
        assert not charts.exists()

    def test_corrupt_results_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a results file\n")
        assert main(["report", str(bad), "--out", str(tmp_path)]) == 2
        assert "schema" in capsys.readouterr().err
        assert not (tmp_path / "report_manifest.json").exists()

    @pytest.mark.parametrize("column, value, every_row", [
        ("std_excess", "-1.0", False), ("mean_test_error", "1.7", False),
        ("mean_excess", "nan", False), ("replicates", "0", True),
        ("mean_estimation", "inf", False),
    ])
    def test_results_no_sweep_can_write_exit_2(self, tmp_path, capsys, column, value, every_row):
        results = self.results_with(tmp_path, "sl,ulplus")
        lines = results.read_text().splitlines()
        index = lines[1].split(",").index(column)
        for i in range(2, len(lines) if every_row else 3):
            fields = lines[i].split(",")
            assert fields[2] == "sl" or every_row
            fields[index] = value
            lines[i] = ",".join(fields)
        results.write_text("\n".join(lines) + "\n")
        charts = tmp_path / "charts"
        assert main(["report", str(results), "--out", str(charts)]) == 2
        assert "row 3" in capsys.readouterr().err
        assert not (charts / "report_manifest.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines.insert(3, lines[2]), "row 4: method 'sl' repeats at axis value 8.0"),
        (lambda lines: lines.__setitem__(2, lines[2].replace(",8.0,", ",nan,", 1)),
         "row 3: axis value 'nan' is not finite"),
        (lambda lines: lines.__setitem__(2, lines[2].replace(",8.0,", ",inf,", 1)),
         "row 3: axis value 'inf' is not finite"),
    ])
    def test_results_a_sweep_cannot_write_exit_2_and_write_nothing(
        self, tmp_path, capsys, edit, message
    ):
        results = self.results_with(tmp_path, "sl,ulplus")
        lines = results.read_text().splitlines()
        edit(lines)
        results.write_text("\n".join(lines) + "\n")
        charts = tmp_path / "charts"
        assert main(["report", str(results), "--out", str(charts)]) == 2
        assert message in capsys.readouterr().err
        assert not charts.exists()

    @pytest.mark.parametrize("cells, flags, message", [
        # Axis values whose span is past float range.
        ([("-1e+308", "0.5", "0.1"), ("1e+308", "0.5", "0.1")], [],
         "the span of an axis from -1e+308 to 1e+308"),
        # A band edge, mean + std, that overflows.
        ([("1.0", "1e+308", "1e+308"), ("2.0", "0.5", "0.1")], ["--metric", "estimation"],
         "the span of the plotted values from 0 to inf"),
        # A log axis whose padded low end underflows to zero.
        ([("5e-324", "0.5", "0.1")], ["--log-x"], "the low end of a log axis"),
        # A zero mean, which a log axis cannot place.
        ([("1.0", "0.0", "0.0"), ("2.0", "0.5", "0.1")], ["--metric", "estimation", "--log-y"],
         "log-scaled values must be positive"),
    ])
    def test_a_chart_that_cannot_be_drawn_exits_2_and_writes_nothing(
        self, tmp_path, capsys, cells, flags, message
    ):
        rows = "".join(f"snr,{x},sl,2,0.1,0.01,{mean},{std},0.3,0.01,\n" for x, mean, std in cells)
        results = tmp_path / "results.csv"
        results.write_text(f"# schema ssl-lab-sweep 1\n{','.join(RESULTS_COLUMNS)}\n{rows}")
        charts = tmp_path / "charts"
        assert main(["report", str(results), *flags, "--out", str(charts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not charts.exists()

    def test_missing_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The good file comes first: nothing is written until every input reads.
        results = self.results_with(tmp_path, "sl")
        charts = tmp_path / "charts"
        missing = tmp_path / "missing.csv"
        assert main(["report", str(results), str(missing), "--out", str(charts)]) == 2
        assert "missing.csv" in capsys.readouterr().err
        assert not charts.exists()

    def test_inputs_whose_charts_share_a_name_exit_2_and_write_nothing(self, tmp_path, capsys):
        # Two runs' results.csv both chart to results.svg; an input named like
        # another's gap chart clashes with that chart.
        first = self.results_with(tmp_path / "a", "sl,sslw")
        second = self.results_with(tmp_path / "b", "sl,sslw")
        gap_named = tmp_path / "results_gap_sl_sslw.csv"
        gap_named.write_bytes(first.read_bytes())
        charts = tmp_path / "charts"
        for inputs, gap, name in (
            ([first, second], [], "results.svg"),
            ([first, gap_named], ["--gap", "sl", "sslw"], "results_gap_sl_sslw.svg"),
        ):
            argv = ["report", *map(str, inputs), *gap, "--out", str(charts)]
            assert main(argv) == 2
            out = capsys.readouterr()
            assert out.err == f"error: {inputs[0]} and {inputs[1]} would both write {name}\n"
            assert out.out == ""
            assert not charts.exists()

    def test_gap_method_missing_from_sweep_exits_2(self, tmp_path, capsys):
        results = self.results_with(tmp_path, "sl,sslw")
        assert main([
            "report", str(results), "--gap", "sl", "em", "--out", str(tmp_path), "--quiet",
        ]) == 2
        assert "em" in capsys.readouterr().err

    def test_config_flag_rejected_outside_simulate(self, tmp_path, capsys):
        results = self.results_with(tmp_path, "sl")
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        assert main([
            "report", str(results), "--config", str(config), "--out", str(tmp_path)
        ]) == 2
        assert "simulate" in capsys.readouterr().err


#: The hostile values: as JSON text for a --config value, and as the argv
#: string a flag receives. The last is a byte that is not UTF-8, as Python decodes it.
HOSTILE_JSON = ["true", "NaN", "Infinity", "-Infinity", "-0.0", str(10**400), "9" * 5000,
                '"abc"', "[1, 2]", '{"a": 1}', "[]", "null", '"\\udcff"']
HOSTILE_ARGS = ["true", "nan", "inf", "-inf", "-0.0", str(10**400), "9" * 5000, "abc",
                "[1, 2]", '{"a": 1}', "[]", "", b"\xff".decode("utf-8", "surrogateescape")]
#: A one-trial sweep that runs every method a config key feeds, as config and as flags.
HOSTILE_BASE = {"s": 1, "d": 2, "n_l": 4, "n_u": 10, "n_val": 5, "n_test": 5,
                "methods": ["sl", "sslw", "logistic", "selftrain"], "replicates": 1}
SIMULATE_FLAGS = {"s": "--s", "d": "--d", "n_l": "--nl", "n_u": "--nu", "n_val": "--nval",
                  "n_test": "--ntest", "methods": "--methods", "base_seed": "--seed",
                  "ul_backend": "--ul-backend", "em_budget": "--em-budget", "axis": "--axis",
                  "grid": "--grid", "replicates": "--replicates"}
#: The two keys that are given together: each is tried beside a valid value of the other.
PARTNER = {"axis": {"grid": [1]}, "grid": {"axis": "snr"}}
FIT_BASE = {"data": DATA_CSV, "--nl": "20"}
THEORY_BASE = {"--s": "1", "--d": "2", "--nl": "5", "--nu": "10"}


class TestHostileInputs:
    """No input ends in exit 1: each hostile value exits 0, or exits 2 with one error line
    and writes nothing. None of them reaches a runtime failure (exit 3)."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        # Every sweep here is one trial, which the serial path runs.
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError(f"a one-trial sweep started a pool: {kwargs}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    def ends_well(self, capsys, argv, out):
        try:
            code = main([*argv, "--out", str(out), "--quiet"])
        except SystemExit as exit:  # argparse's usage error
            code = exit.code
        captured = capsys.readouterr()
        written = sorted(path.name for path in out.iterdir()) if out.exists() else []
        if code == 2:
            lines = captured.err.splitlines()
            assert [line for line in lines if "error: " in line] == lines[-1:], argv
            assert captured.out == "" and written == [], argv
        else:
            assert code == 0, (argv, captured.err)
        return code

    @pytest.mark.parametrize("key", sorted(cli._SIMULATE_KEYS))
    def test_simulate_config_value(self, tmp_path, capsys, key):
        config = {**HOSTILE_BASE, **PARTNER.get(key, {})}
        config.pop(key, None)
        for number, text in enumerate(HOSTILE_JSON):
            path = tmp_path / f"cfg{number}.json"
            path.write_text(json.dumps(config)[:-1] + f', "{key}": {text}}}')
            argv = ["simulate", "--config", str(path), "--threads", "1"]
            self.ends_well(capsys, argv, tmp_path / f"run{number}")

    @pytest.mark.parametrize("key", sorted(SIMULATE_FLAGS))
    def test_simulate_flag(self, tmp_path, capsys, key):
        given = {**HOSTILE_BASE, **PARTNER.get(key, {})}
        given.pop(key, None)
        base = ["simulate", "--threads", "1"]
        for name, value in given.items():
            value = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            base += [SIMULATE_FLAGS[name], value]
        for number, text in enumerate(HOSTILE_ARGS):
            self.ends_well(capsys, [*base, SIMULATE_FLAGS[key], text], tmp_path / f"run{number}")

    @pytest.mark.parametrize("flag", ["--threads", "--preset", "--config"])
    def test_other_simulate_flag(self, tmp_path, capsys, flag):
        base = ["simulate", "--nl", "4", "--nu", "10", "--nval", "5", "--ntest", "5"]
        for number, text in enumerate(HOSTILE_ARGS):
            self.ends_well(capsys, [*base, flag, text], tmp_path / f"run{number}")

    @pytest.mark.parametrize("flag", ["data", "--label-column", "--positive-label", "--nl",
                                      "--nval", "--ntest", "--pca", "--methods", "--seed"])
    def test_fit_flag(self, tmp_path, capsys, flag):
        for number, text in enumerate(HOSTILE_ARGS):
            given = {**FIT_BASE, flag: text}
            argv = ["fit", given.pop("data"), *itertools.chain(*given.items())]
            self.ends_well(capsys, argv, tmp_path / f"run{number}")

    @pytest.mark.parametrize("flag", [*THEORY_BASE, "--seed"])
    def test_theory_flag(self, tmp_path, capsys, flag):
        for number, text in enumerate(HOSTILE_ARGS):
            argv = ["theory", *itertools.chain(*{**THEORY_BASE, flag: text}.items())]
            self.ends_well(capsys, argv, tmp_path / f"run{number}")

    @pytest.mark.parametrize("flag", ["results", "--metric", "--gap"])
    def test_report_flag(self, tmp_path, capsys, flag):
        for number, text in enumerate(HOSTILE_ARGS):
            given = {"results": REPORT_INPUT, flag: text}
            argv = ["report", given.pop("results"), *itertools.chain(*given.items())]
            if flag == "--gap":
                argv.append("sl")
            self.ends_well(capsys, argv, tmp_path / f"run{number}")

    @pytest.mark.parametrize("column", range(11))
    def test_report_results_cell(self, tmp_path, capsys, column):
        """Each cell of a results file's one data row, given each hostile value. Only
        rows that simulate can write are charted: -0.0 as the axis value or a statistic,
        and an empty extra."""
        schema, header, row = Path(REPORT_INPUT).read_text().splitlines()[:3]
        charted = []
        for number, text in enumerate(HOSTILE_ARGS):
            cells = row.split(",")
            cells[column] = text
            path = tmp_path / f"results{number}.csv"
            with open(path, "w", newline="", errors="surrogateescape") as handle:
                handle.write(f"{schema}\n{header}\n")
                csv.writer(handle, lineterminator="\n").writerow(cells)
            if self.ends_well(capsys, ["report", str(path)], tmp_path / f"run{number}") == 0:
                charted.append(text)
        expected = {1: ["-0.0"], **dict.fromkeys(range(4, 10), ["-0.0"]), 10: [""]}
        assert charted == expected.get(column, [])
