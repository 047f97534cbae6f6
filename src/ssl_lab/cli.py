"""Command-line entry point: simulate, theory, fit, and report.

simulate runs a replicated sweep (a compiled-in preset or a custom
problem) and writes results.csv plus a manifest; theory prints the
closed-form rate report for one problem size as JSON; fit ingests a
user CSV, standardizes it, optionally PCA-projects it, splits it, and
scores the requested estimators on the held-out test rows; report
renders results CSVs as self-contained SVG line charts. theory and charts
(with xml.etree) are imported only by the commands that use them, so no
other command pays for loading them.

Configuration precedence for simulate is defaults < preset < config
file < flags. Every layer goes through one table of config keys, which
coerces each value and rejects a bad one before any manifest is written,
and the manifest records the sweep that runs. A manifest is itself a
valid --config file, so re-running with it reproduces results.csv
byte-for-byte. Exit codes: 0 success, 2 a usage or configuration
problem (bad flags, unreadable inputs, malformed files), 3 a runtime
failure (solver non-convergence, empty results, every requested method
failing, failed writes, running out of memory, a worker pool that lost a
worker). The SSL_LAB_OUT_DIR environment variable
supplies the default output directory; --out wins when both are set.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data_io import (
    SplitSpec,
    atomic_writer,
    load_csv,
    pca_project,
    read_results,
    split,
    standardize,
    write_results,
)
from .errors import DataFormatError, SslLabError, ValidationError
from .experiments import (
    METHODS,
    METRIC_FIELDS,
    PRESETS,
    SWEEP_AXES,
    UL_BACKENDS,
    FitContext,
    SweepSpec,
    TrialConfig,
    check_validation_size,
    compatibility_score,
    first_axis_model,
    fit_methods,
    run_sweep,
    sweep_cell_configs,
    test_error,
)
from .gmm import check_whole

#: Accepted spellings of each method tag.
METHOD_ALIASES = {
    alias: tag for tag, method in METHODS.items() for alias in (tag, *method.aliases)
}
#: Methods cmd_fit can run on real data, and those it runs by default.
FIT_METHODS = tuple(tag for tag, method in METHODS.items() if method.real_data)
DEFAULT_FIT_METHODS = tuple(tag for tag, method in METHODS.items() if method.fit_default)


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    return value


def _fail(code: int, message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _resolve_out_dir(args) -> str:
    out = args.out or os.environ.get("SSL_LAB_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return os.cpu_count() or 1


def _base_seed(args) -> int:
    return args.base_seed if args.base_seed is not None else 0


def _normalize_method(name: str) -> str:
    key = str(name).strip().lower()
    if key not in METHOD_ALIASES:
        raise ValidationError(
            f"unknown method {name!r}; known tags are {', '.join(METHODS)}"
        )
    return METHOD_ALIASES[key]


def _parse_methods(text, key: str = "methods") -> tuple:
    """Canonical tags of a list or comma-separated string, each once, in first-seen order."""
    if isinstance(text, (list, tuple)):
        text = ",".join(map(str, text))
    names = [tok for tok in str(text).split(",") if tok.strip()]
    if not names:
        raise ValidationError(f"{key} list is empty")
    return tuple(dict.fromkeys(_normalize_method(name) for name in names))


def _real(value, key: str) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            # json reads a long run of digits as an int past float range.
            raise ValidationError(f"{key} is too large for a float") from None
    raise ValidationError(f"{key} must be a number, got {value!r}")


def _reals(value, key: str):
    """A list of reals, also as a comma-separated string; null means not given."""
    if value is None:
        return None
    try:
        if isinstance(value, str):
            values = tuple(float(tok) for tok in value.split(",") if tok.strip())
        else:
            values = tuple(_real(entry, key) for entry in value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} values must be numbers, got {value!r}") from None
    if not values:
        raise ValidationError(f"{key} is empty")
    return values


def _as_given(value, key: str):
    """A name, checked where it is used; null means not given."""
    return value


#: Every simulate config key, in manifest order, and its one coercion.
#: A key names the field that holds it: s and d on the model, then the
#: TrialConfig fields, then SweepSpec's axis, grid and replicates.
_SIMULATE_KEYS = {
    "s": _real,
    "d": check_whole,
    "n_l": check_whole,
    "n_u": check_whole,
    "n_val": check_whole,
    "n_test": check_whole,
    "methods": _parse_methods,
    "t_grid": _reals,
    "self_train_thresholds": _reals,
    "ridge_grid": _reals,
    "base_seed": check_whole,
    "ul_backend": _as_given,
    "em_budget": check_whole,
    "axis": _as_given,
    "grid": _reals,
    "replicates": check_whole,
}
#: simulate without a preset: TrialConfig's defaults on s = 1, d = 2,
#: n_l = 20, n_u = 2000, one replicate, and no axis or grid yet.
_DEFAULT_SWEEP = SweepSpec(
    cfg=TrialConfig(model=first_axis_model(1.0, 2), n_l=20, n_u=2000),
    axis=None, grid=None, replicates=1,
)


def _write_manifest(out_dir, filename, command, config, base_seed=0, config_path=None) -> str:
    """Write what a run was asked to do, before it starts computing."""
    payload = {
        "command": command,
        "config": _jsonable(config),
        "config_path": config_path,
        "out_dir": out_dir,
        "base_seed": base_seed,
        "artifact_version": __version__,
        "started_at": datetime.now(timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, filename)
    with atomic_writer(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def _load_config_file(path) -> dict:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as err:
        raise ValidationError(f"cannot read config file: {err}") from None
    except json.JSONDecodeError as err:
        raise DataFormatError(f"config file is not valid JSON: {err}") from None
    if isinstance(obj, dict) and "command" in obj and isinstance(obj.get("config"), dict):
        obj = obj["config"]
    if not isinstance(obj, dict):
        raise DataFormatError("config file must hold a JSON object")
    return obj


def _spec_config(spec: SweepSpec) -> dict:
    """A sweep's value of every config key, read from the field it names."""
    holders = (spec.cfg.model, spec.cfg, spec)
    return {
        key: getattr(next(h for h in holders if hasattr(h, key)), key) for key in _SIMULATE_KEYS
    }


def _sweep_spec(config: dict) -> SweepSpec:
    """The sweep a resolved config describes; the inverse of _spec_config."""
    def own(cls):
        names = {f.name for f in fields(cls)}
        return {key: value for key, value in config.items() if key in names}

    model = first_axis_model(config["s"], config["d"])
    spec = SweepSpec(cfg=TrialConfig(model=model, **own(TrialConfig)), **own(SweepSpec))
    if spec.axis is None and spec.grid is None:
        return replace(spec, axis="snr", grid=(model.s,))
    if spec.axis is None or spec.grid is None:
        raise ValidationError("--axis and --grid must be given together")
    return spec


def _resolve_simulate(args) -> SweepSpec:
    """Merge defaults < preset < config file < flags through _SIMULATE_KEYS."""
    config = dict.fromkeys(_SIMULATE_KEYS)
    layers = [_spec_config(PRESETS[args.preset] if args.preset else _DEFAULT_SWEEP)]
    if args.config:
        layers.append(_load_config_file(args.config))
    layers.append({k: v for k, v in vars(args).items() if k in config and v is not None})
    for layer in layers:
        unknown = set(layer) - set(config)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in layer.items():
            value = _SIMULATE_KEYS[key](value, key)
            if value is not None:
                config[key] = value
    return _sweep_spec(config)


def _cmd_simulate(args) -> int:
    try:
        spec = _resolve_simulate(args)
        sweep_cell_configs(spec.cfg, spec.axis, spec.grid, spec.replicates, _threads(args))
        out_dir = _resolve_out_dir(args)
    except (ValidationError, DataFormatError, OSError) as err:
        return _fail(2, err)
    try:
        manifest_path = _write_manifest(out_dir, "manifest.json", "simulate",
                                        _spec_config(spec), spec.cfg.base_seed, args.config)
        sweep = run_sweep(spec.cfg, spec.axis, spec.grid, spec.replicates, _threads(args))
        if all(stats.extra.get("failures") == sweep.replicates
               for row in sweep.cells for stats in row):
            reasons = "; ".join(list(sweep.failure_reasons)[:3])
            return _fail(3, f"every requested method failed in every cell: {reasons}")
        results_path = os.path.join(out_dir, "results.csv")
        write_results(sweep, results_path)
    except (SslLabError, OSError) as err:
        return _fail(3, err)
    _say(args, f"wrote {manifest_path}")
    _say(
        args,
        f"wrote {results_path} ({len(sweep.grid)} cells x "
        f"{len(sweep.methods())} methods x {sweep.replicates} replicates)",
    )
    return 0


def _cmd_theory(args) -> int:
    from .theory import ProblemSize, rate_report

    try:
        report = rate_report(ProblemSize(s=args.s, d=args.d, n_l=args.nl, n_u=args.nu))
    except SslLabError as err:
        return _fail(2, err)
    print(json.dumps(_jsonable(asdict(report)), indent=2))
    return 0


def _cmd_fit(args) -> int:
    seed = _base_seed(args)
    try:
        methods = _parse_methods(args.methods) if args.methods else DEFAULT_FIT_METHODS
        unsupported = [m for m in methods if m not in FIT_METHODS]
        if unsupported:
            raise ValidationError(
                f"methods {unsupported} are not available on real data; "
                f"choose from {', '.join(FIT_METHODS)}"
            )
        check_validation_size(methods, args.nval)
        for name, value, least in (("n_l", args.nl, 1), ("n_val", args.nval, 0),
                                   ("n_test", args.ntest, 1), ("pca", args.pca, 1)):
            if value is not None:
                check_whole(value, name, least)
        # One transform per path, and no name holds the raw table once it has run.
        raw = load_csv(args.data, args.label_column, args.positive_label)
        table = standardize(raw) if args.pca is None else pca_project(raw, args.pca)
        del raw
        remainder = table.n - args.nl
        n_val = args.nval if args.nval is not None else max(1, remainder // 4)
        n_test = args.ntest if args.ntest is not None else max(1, remainder // 4)
        spec = SplitSpec(n_l=args.nl, n_val=n_val, n_test=n_test, seed=seed)
        labeled, pool, validation, test = split(table, spec)
        out_dir = _resolve_out_dir(args)
    except (ValidationError, DataFormatError, OSError) as err:
        return _fail(2, err)

    resolved = {
        "data": os.fspath(args.data),
        "label_column": args.label_column,
        "positive_label": str(args.positive_label),
        "n_l": spec.n_l,
        "n_val": spec.n_val,
        "n_test": spec.n_test,
        "pca": args.pca,
        "methods": methods,
        "base_seed": seed,
    }
    try:
        manifest_path = _write_manifest(out_dir, "fit_manifest.json", "fit", resolved, seed)
    except OSError as err:
        return _fail(3, err)

    scores, failures = fit_methods(
        FitContext(labeled=labeled, unlabeled=pool, validation=validation),
        methods,
        lambda theta, extra: (test_error(theta, test), extra),
    )
    # The parts are a second copy of the table; none is alive through the whole-table fit.
    n_pool = pool.n
    del labeled, pool, validation, test
    test_errors = {tag: error for tag, (error, _) in scores.items()}
    selections = {
        f"{tag}_{key}": value for tag, (_, extra) in scores.items() for key, value in extra.items()
    }

    try:
        rho, inverse = compatibility_score(table)
        compatibility = {"rho": rho, "inverse": inverse}
    except SslLabError as err:
        compatibility = {"error": f"{type(err).__name__}: {err}"}

    payload = {
        "data": os.fspath(args.data),
        "n": table.n,
        "d": table.d,
        "split": {
            "n_l": spec.n_l,
            "n_val": spec.n_val,
            "n_test": spec.n_test,
            "pool": n_pool,
            "seed": seed,
        },
        "test_errors": test_errors,
        "selections": selections,
        "failures": failures,
        "compatibility": compatibility,
    }
    text = json.dumps(_jsonable(payload), indent=2)
    print(text)
    results_path = os.path.join(out_dir, "fit_results.json")
    try:
        with atomic_writer(results_path) as handle:
            handle.write(text + "\n")
    except OSError as err:
        return _fail(3, err)
    _say(args, f"wrote {manifest_path}")
    _say(args, f"wrote {results_path}")
    if not test_errors:
        reasons = "; ".join(f"{tag}: {message}" for tag, message in failures.items())
        return _fail(3, f"every requested method failed: {reasons}")
    return 0


def _cmd_report(args) -> int:
    from .charts import render_gap_chart, render_series_chart

    try:
        gap_pair = tuple(_normalize_method(name) for name in args.gap) if args.gap else None
    except ValidationError as err:
        return _fail(2, err)
    # Every input is read, every chart rendered and their names checked
    # before anything is written, so a bad input leaves no manifest and no
    # partial charts, and no chart overwrites another.
    charts = []
    for path in args.results:
        try:
            sweep = read_results(path)
        except (DataFormatError, OSError) as err:
            return _fail(2, err)
        if not sweep.grid:
            return _fail(3, f"{path}: results file has no data rows to plot")
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            charts.append((path, f"{stem}.svg", render_series_chart(
                sweep, metric=args.metric, log_x=args.log_x, log_y=args.log_y, title=stem
            )))
            if gap_pair:
                a, b = gap_pair
                charts.append((path, f"{stem}_gap_{a}_{b}.svg", render_gap_chart(
                    sweep, a, b, metric=args.metric, log_x=args.log_x, title=f"{stem}: {a} vs {b}"
                )))
        except ValidationError as err:
            return _fail(2, err)
    owners = {}
    for path, name, _ in charts:
        if name in owners:
            return _fail(2, f"{owners[name]} and {path} would both write {name}")
        owners[name] = path
    try:
        out_dir = _resolve_out_dir(args)
    except OSError as err:
        return _fail(2, err)
    resolved = {
        "results": [os.fspath(p) for p in args.results],
        "metric": args.metric,
        "log_x": args.log_x,
        "log_y": args.log_y,
        "gap": list(gap_pair) if gap_pair else None,
    }
    written = []
    try:
        _write_manifest(out_dir, "report_manifest.json", "report", resolved, _base_seed(args))
        for _, name, svg in charts:
            target = os.path.join(out_dir, name)
            with atomic_writer(target) as handle:
                handle.write(svg + "\n")
            written.append(target)
    except OSError as err:
        return _fail(3, err)
    for target in written:
        _say(args, f"wrote {target}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssl-lab",
        description="Simulation lab for semi-supervised learning on Gaussian mixtures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="base_seed", type=int, help="base seed (default 0)")
    common.add_argument(
        "--out", default=None, help="output directory (default: SSL_LAB_OUT_DIR or '.')"
    )
    common.add_argument("--quiet", action="store_true", help="suppress informational output")
    # theory, fit and report take --config and --threads only so that main can
    # reject them with one error line; their help does not list them.
    unhelped = argparse.ArgumentParser(add_help=False)
    unhelped.add_argument("--config", help=argparse.SUPPRESS)
    unhelped.add_argument("--threads", help=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", parents=[common], help="run a replicated sweep and write results.csv"
    )
    sim.add_argument(
        "--config", default=None, help="JSON config file; flags override its values"
    )
    sim.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: available parallelism)",
    )
    sim.add_argument("--preset", choices=sorted(PRESETS), help="compiled-in sweep")
    sim.add_argument("--s", type=float, default=None, help="signal-to-noise ratio")
    sim.add_argument("--d", type=int, default=None, help="dimension")
    sim.add_argument("--nl", dest="n_l", type=int, default=None, help="labeled sample size")
    sim.add_argument("--nu", dest="n_u", type=int, default=None, help="unlabeled sample size")
    sim.add_argument("--nval", dest="n_val", type=int, default=None, help="validation sample size")
    sim.add_argument("--ntest", dest="n_test", type=int, default=None, help="test sample size")
    sim.add_argument("--methods", default=None, help="comma-separated method tags")
    sim.add_argument("--axis", choices=SWEEP_AXES, default=None, help="sweep axis")
    sim.add_argument("--grid", default=None, help="comma-separated axis values")
    sim.add_argument("--replicates", type=int, default=None, help="trials per cell")
    sim.add_argument(
        "--ul-backend", dest="ul_backend", choices=UL_BACKENDS, default=None,
        help="unsupervised direction backend",
    )
    sim.add_argument(
        "--em-budget", dest="em_budget", type=int, default=None,
        help="iteration budget of the em backend",
    )
    sim.set_defaults(handler=_cmd_simulate)

    theory = sub.add_parser(
        "theory", parents=[common, unhelped], help="print the closed-form rate report as JSON"
    )
    theory.add_argument("--s", type=float, required=True, help="signal-to-noise ratio")
    theory.add_argument("--d", type=int, required=True, help="dimension")
    theory.add_argument("--nl", type=int, required=True, help="labeled sample size")
    theory.add_argument("--nu", type=int, required=True, help="unlabeled sample size")
    theory.set_defaults(handler=_cmd_theory)

    fit = sub.add_parser(
        "fit", parents=[common, unhelped], help="fit estimators to a CSV dataset"
    )
    fit.add_argument("data", help="CSV file with a header row and one label column")
    fit.add_argument(
        "--label-column", dest="label_column", default="label", help="label column name"
    )
    fit.add_argument(
        "--positive-label", dest="positive_label", default="1",
        help="raw label value mapped to +1",
    )
    fit.add_argument("--nl", type=int, required=True, help="labeled training rows")
    fit.add_argument(
        "--nval", type=int, default=None,
        help="validation rows (default: a quarter of the remainder)",
    )
    fit.add_argument(
        "--ntest", type=int, default=None,
        help="test rows (default: a quarter of the remainder)",
    )
    fit.add_argument(
        "--pca", type=int, default=None, metavar="K",
        help="project the standardized features onto K principal axes",
    )
    fit.add_argument("--methods", default=None, help="comma-separated method tags")
    fit.set_defaults(handler=_cmd_fit)

    report = sub.add_parser(
        "report", parents=[common, unhelped], help="render results CSVs as SVG charts"
    )
    report.add_argument("results", nargs="+", help="results CSV files written by simulate")
    report.add_argument(
        "--metric", choices=METRIC_FIELDS, default="excess", help="plotted metric"
    )
    report.add_argument("--log-x", dest="log_x", action="store_true", help="log-scale x axis")
    report.add_argument("--log-y", dest="log_y", action="store_true", help="log-scale y axis")
    report.add_argument(
        "--gap", nargs=2, metavar=("A", "B"), default=None,
        help="also chart the error gap between two methods",
    )
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for flag in ("config", "threads"):
        if args.command != "simulate" and getattr(args, flag) is not None:
            return _fail(2, f"--{flag} applies to the simulate command")
    try:
        return args.handler(args)
    except (SslLabError, OSError, MemoryError) as err:
        return _fail(3, str(err) or type(err).__name__)
    except RuntimeError as err:
        # A pool that lost a worker raises BrokenExecutor, a RuntimeError. Importing
        # it only here keeps concurrent.futures off the CLI's import path.
        from concurrent.futures import BrokenExecutor

        if not isinstance(err, BrokenExecutor):
            raise
        return _fail(3, err)


if __name__ == "__main__":
    sys.exit(main())
