"""Golden pin: reduced-replicate preset sweeps against committed results.

Each file under tests/golden/ is the results.csv of one preset run at a
few replicates, with "logistic" added to the fig1a/fig1b method lists so
the ridge-selected logistic fit is pinned too. Methods whose fitting code
is fixed must reproduce their bytes exactly. Methods built on an
iterative or dense solver that may be replaced may move in trailing
digits: the logistic-based ones ("logistic", "selftrain") and the
spectral ones ("ul", "ulplus", "ssls", "sslw"). Their metrics and
continuous extras ("threshold") are compared at RTOL, while every
selection extra (the chosen "ridge" and "t", the "branch_*" indicators
and "wrong_sign") must match exactly; a flipped selection fails the pin.
ATOL is a floor for values near zero: excess risk is quadratic in the
angle error, so an excess of 1e-7 moves by a relative 1e-3 when theta
moves by a relative 1e-6. The floor is a millionth of the 1e-3
resolution of a 1,000-row test error.

fit_synthetic.json is the fit_results.json of `ssl-lab fit` on the
bundled data/synthetic_2gmm_200.csv at --nl 20 --seed 3 with the default
methods; fit_synthetic_all.json is the same run with every method fit
offers. Every field but "data", the path as given on the command line,
must match exactly.

fig1a_config.json, fig1b_config.json and fig3_config.json are the
`config` blocks of the `simulate --preset` manifests, which must not move
by a byte. custom_manifest.json is the manifest of a small custom run as
an earlier release wrote it, with `null` for the grids left at their
defaults; replaying it with `--config` must reproduce custom.csv byte for
byte. Regeneration keeps custom_manifest.json when it exists and only
replays it, so the pin goes on testing that older format.

Each directory report_<run>/ under tests/golden/ holds the SVGs that
`ssl-lab report` writes for one committed results file under one flag set
(REPORT_GOLDEN); every byte must match. They depend only on that file and
on Python's float formatting, so unlike the results pins they hold
whatever BLAS kernel runs.

The exact pins hold where OpenBLAS runs the kernels the files were
written with: other kernels round every BLAS product differently, on the
"em" backend as on the spectral one (README, Determinism).

Regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
only when a change is meant to move the pinned numbers, and say so in
CHANGES.md.
"""

import csv
import json
import math
import os
import tempfile
from dataclasses import replace
from unittest import mock

import pytest

from ssl_lab.cli import main
from ssl_lab.data_io import write_results
from ssl_lab.errors import SslLabError
from ssl_lab.experiments import PRESETS, run_sweep

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
#: golden file name -> the --methods of its fit run (None: the defaults).
FIT_GOLDEN = {
    "fit_synthetic.json": None,
    "fit_synthetic_all.json": "sl,ul,ulplus,sslw,em,em_means,logistic,selftrain,lda",
}
FIT_DATA = "data/synthetic_2gmm_200.csv"
GOLDEN_REPLICATES = {"fig1a": 2, "fig1b": 1, "fig3": 2}
EXTRA_METHODS = {"fig1a": ("logistic",), "fig1b": ("logistic",), "fig3": ()}
EXACT_METHODS = {"sl", "em", "lda"}
TOLERANT_METHODS = {"logistic", "selftrain", "ul", "ulplus", "ssls", "sslw"}
RTOL = 1e-3
ATOL = 1e-9
CUSTOM_MANIFEST = os.path.join(GOLDEN_DIR, "custom_manifest.json")
CUSTOM_RESULTS = os.path.join(GOLDEN_DIR, "custom.csv")
#: report_<run> -> (the golden results file it reads, its flags).
REPORT_GOLDEN = {
    "plain": ("fig1a", ()),
    "log": ("fig1a", ("--log-x", "--log-y")),
    "gap": ("fig3", ("--metric", "test_error", "--gap", "sl", "sslw")),
}
CUSTOM_RUN = [
    "simulate", "--s", "1.5", "--d", "3", "--nl", "8", "--nu", "40", "--nval", "30",
    "--ntest", "25", "--methods", "sl,sslw,logistic,selftrain", "--replicates", "2",
    "--ul-backend", "em", "--seed", "5", "--threads", "1", "--quiet",
]


def golden_path(preset):
    return os.path.join(GOLDEN_DIR, f"{preset}.csv")


def run_golden(preset, path):
    spec = PRESETS[preset]
    cfg = replace(spec.cfg, methods=spec.cfg.methods + EXTRA_METHODS[preset])
    sweep = run_sweep(cfg, spec.axis, spec.grid, GOLDEN_REPLICATES[preset], threads=1)
    write_results(sweep, path)


def read_rows(path):
    with open(path, newline="") as handle:
        schema = handle.readline()
        return schema, list(csv.DictReader(handle))


def parse_extra(text):
    return dict(part.split("=", 1) for part in text.split(";")) if text else {}


def is_selection(key):
    return key in ("ridge", "t", "wrong_sign") or key.startswith("branch_")


def close(a, b):
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=ATOL)


@pytest.mark.parametrize("preset", sorted(GOLDEN_REPLICATES))
def test_preset_matches_golden(preset, tmp_path):
    fresh = tmp_path / "results.csv"
    run_golden(preset, fresh)
    schema, expected = read_rows(golden_path(preset))
    fresh_schema, actual = read_rows(fresh)
    assert fresh_schema == schema
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        where = f"{preset} {want['axis_value']} {want['method']}"
        for key in ("axis_name", "axis_value", "method", "replicates"):
            assert got[key] == want[key], where
        method = want["method"]
        assert method in EXACT_METHODS | TOLERANT_METHODS, where
        if method in EXACT_METHODS:
            assert got == want, where
            continue
        for key in want:
            if key.startswith(("mean_", "std_")):
                assert close(got[key], want[key]), f"{where} {key}: {got[key]} vs {want[key]}"
        want_extra, got_extra = parse_extra(want["extra"]), parse_extra(got["extra"])
        assert got_extra.keys() == want_extra.keys(), where
        for key, value in want_extra.items():
            if is_selection(key):
                assert got_extra[key] == value, f"{where} {key} flipped"
            else:
                assert close(got_extra[key], value), f"{where} {key}: {got_extra[key]} vs {value}"


def run_fit(out_dir, methods):
    """fit_results.json of a pinned fit run, with "data" as the repo-relative path."""
    data = os.path.join(os.path.dirname(TESTS_DIR), FIT_DATA)
    argv = ["fit", data, "--nl", "20", "--seed", "3", "--out", out_dir, "--quiet"]
    if methods is not None:
        argv += ["--methods", methods]
    assert main(argv) == 0
    with open(os.path.join(out_dir, "fit_results.json")) as handle:
        payload = json.load(handle)
    payload["data"] = FIT_DATA
    return payload


def assert_fit_matches(name, out_dir):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        expected = json.load(handle)
    assert run_fit(str(out_dir), FIT_GOLDEN[name]) == expected


def test_fit_matches_golden(tmp_path):
    assert_fit_matches("fit_synthetic.json", tmp_path)


def test_fit_all_methods_matches_golden(tmp_path):
    assert_fit_matches("fit_synthetic_all.json", tmp_path)


def config_path(preset):
    return os.path.join(GOLDEN_DIR, f"{preset}_config.json")


def preset_config(preset, out_dir):
    """The `config` block of a preset's manifest, stopping before any trial runs."""
    with mock.patch("ssl_lab.cli.run_sweep", side_effect=SslLabError("stop")):
        assert main(["simulate", "--preset", preset, "--out", out_dir, "--quiet"]) == 3
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        return json.dumps(json.load(handle)["config"], indent=2) + "\n"


def replay_custom(out_dir):
    """Run simulate from the pinned custom manifest; return its results.csv bytes."""
    argv = ["simulate", "--config", CUSTOM_MANIFEST, "--threads", "1", "--out", out_dir]
    assert main(argv + ["--quiet"]) == 0
    with open(os.path.join(out_dir, "results.csv"), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("preset", sorted(GOLDEN_REPLICATES))
def test_preset_manifest_config_matches_golden(preset, tmp_path):
    with open(config_path(preset)) as handle:
        assert preset_config(preset, str(tmp_path)) == handle.read()


def test_custom_manifest_replays_to_golden_results(tmp_path):
    with open(CUSTOM_MANIFEST) as handle:
        config = json.load(handle)["config"]
    assert config["t_grid"] is None and config["ridge_grid"] is None
    with open(CUSTOM_RESULTS, "rb") as handle:
        assert replay_custom(str(tmp_path)) == handle.read()


def report_dir(run):
    return os.path.join(GOLDEN_DIR, f"report_{run}")


def report_svgs(run, out_dir):
    """{name: bytes} of every SVG that `report` writes for one REPORT_GOLDEN run."""
    preset, flags = REPORT_GOLDEN[run]
    argv = ["report", golden_path(preset), *flags, "--out", out_dir, "--quiet"]
    assert main(argv) == 0
    svgs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".svg"):
            with open(os.path.join(out_dir, name), "rb") as handle:
                svgs[name] = handle.read()
    return svgs


@pytest.mark.parametrize("run", sorted(REPORT_GOLDEN))
def test_report_matches_golden_svgs(run, tmp_path):
    expected = {}
    for name in sorted(os.listdir(report_dir(run))):
        with open(os.path.join(report_dir(run), name), "rb") as handle:
            expected[name] = handle.read()
    assert report_svgs(run, str(tmp_path)) == expected


def write_custom_manifest():
    """Write custom_manifest.json from a run in a scratch directory (out_dir ".")."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out_dir:
        os.chdir(out_dir)
        try:
            assert main(CUSTOM_RUN + ["--out", "."]) == 0
        finally:
            os.chdir(cwd)
        with open(os.path.join(out_dir, "manifest.json")) as src:
            text = src.read()
    with open(CUSTOM_MANIFEST, "w") as handle:
        handle.write(text)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(GOLDEN_REPLICATES):
        run_golden(name, golden_path(name))
        print(f"wrote {golden_path(name)}")
    for name, methods in sorted(FIT_GOLDEN.items()):
        with tempfile.TemporaryDirectory() as out_dir:
            payload = run_fit(out_dir, methods)
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    for name in sorted(GOLDEN_REPLICATES):
        with tempfile.TemporaryDirectory() as out_dir:
            text = preset_config(name, out_dir)
        with open(config_path(name), "w") as handle:
            handle.write(text)
        print(f"wrote {config_path(name)}")
    if not os.path.exists(CUSTOM_MANIFEST):
        write_custom_manifest()
        print(f"wrote {CUSTOM_MANIFEST}")
    with tempfile.TemporaryDirectory() as out_dir:
        results = replay_custom(out_dir)
    with open(CUSTOM_RESULTS, "wb") as handle:
        handle.write(results)
    print(f"wrote {CUSTOM_RESULTS}")
    for run in sorted(REPORT_GOLDEN):
        with tempfile.TemporaryDirectory() as out_dir:
            svgs = report_svgs(run, out_dir)
        os.makedirs(report_dir(run), exist_ok=True)
        for name, svg in svgs.items():
            path = os.path.join(report_dir(run), name)
            with open(path, "wb") as handle:
                handle.write(svg)
            print(f"wrote {path}")
