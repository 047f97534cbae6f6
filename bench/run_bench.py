"""ssl-lab benchmark: three closed-loop CLI workloads, end to end or traced.

Usage (from the repository root):

    python3 bench/run_bench.py --workload sweep-selftrain --seed 1 --seconds 34 --trace 0

Every workload goes through the public entry point ``ssl_lab.cli.main``,
the code behind the ``ssl-lab`` console script, one command after
another in a single closed loop. The timed iterations of a run share
one fresh interpreter (bench/child.py) that imports ``ssl_lab`` from
``src/`` of the checkout, runs one warm-up iteration untimed, then
times iteration after iteration until ``--seconds`` have passed. Iterations are short, so a
run holds tens to hundreds of them, and timings are medians over them.

Iteration timings are given at reference speed. On a few cores of a shared host
the same iteration takes up to twice as long while other tenants are
busy, in phases of seconds to minutes, so raw medians of runs made
minutes apart spread by up to 45%. Between iterations the child times
a fixed probe kernel of four 2.5 ms units (bench/child.py: 2 x 2
products in a Python loop, 4,000 x 3 products, draws, a pure-Python
loop; nothing from ssl_lab), mixed like the workload's profile. Each
iteration's wall time is scaled by PROBE_NOMINAL_S over the mean of
the two probe times around it: the unit ``s_ref`` is a second on a
machine where the probe takes PROBE_NOMINAL_S. sweep-spectral, whose
time goes to power iteration on 2 x 2 matrices and to draws, speeds
up more than an even mix when the host frees up, so its probe is
three units of 2 x 2 products and one of draws; the others use one
unit of each kind. A change to the program moves these numbers as it
moves raw time; a change of host speed mostly cancels. Raw medians are
printed too.

Workloads. Iteration i of a run uses seed ``--seed * 10000 + i``
(default --seed 1), so a run covers many inputs; the warm-up uses the
seed of iteration 0 and must reproduce its output bytes.

- sweep-selftrain: ``simulate --preset fig1b --threads 1 --replicates 1``
  then ``report``: all seven grid cells, up to 7,000-row self-training
  unions. Logistic gradient descent inside ridge selection and
  self-training dominates; the em backend bypasses power iteration.
  After the timed iterations one more interpreter runs iteration 0's
  sweep at ``--threads $(nproc)``, the process-pool path (worker
  start-up, pickling, chunking over cells of unequal cost); its
  results.csv must equal iteration 0's byte for byte, and its traced
  run gives parallel_efficiency.
- sweep-spectral: ``simulate --preset fig3 --threads 1 --replicates 4``
  then ``report``. No logistic fits: power iteration, large draws and
  the sslw t-grid.
- fit-table: ``fit table.csv --nl 50 --pca 5`` with the default methods,
  on a 100,000 x 20 CSV generated here with numpy and the csv module;
  the iterations differ in the split seed. One large read, standardize,
  PCA by deflation, then the fits.

The presets' own replicate counts (20) make an iteration of 1 to 17 s,
too long for a steady median; results.csv still holds the whole grid.
A fourth workload, fig1a at ``--threads $(nproc)``, was dropped: two
pool workers on a few shared cores spread past any usable bound.

End-to-end metrics (``--trace 0``), each reported on every workload:

- setup_s: median time for a fresh interpreter to import ssl_lab.cli,
  over SETUP_REPEATS interpreters started for it and the run's own.
- wall_s: median time of one iteration (all of its commands), s_ref.
- trials_per_s: median trials per s_ref of an iteration; a fit-table
  iteration is one trial.
- rows_per_s: median data rows per s_ref of an iteration, rows drawn
  by the sweeps' trials or rows of the fitted table.
- peak_rss_mb: peak resident memory in MiB of the timed interpreter.
- fit_ok_frac: fits that succeeded over fits attempted. A fit fails when
  results carry a ``failures=`` extra, when fit_results.json lists it
  under ``failures``, or, for every fit of the iteration, on a non-zero
  exit code or a failed output check. failed_frac = 1 - fit_ok_frac is
  printed with both counts; the result line carries the counts too.

``--trace 1`` runs half of the time untraced and half traced, each in
its own interpreter, and prints per-layer metrics (see layer_metrics)
instead. Spans go to ``.bench_build/ssl-lab/<workload>/spans.jsonl``.
Self times are per iteration and exclude nested spans.

The last line of standard output is the JSON result (``--workload all``
runs every workload in turn, prints a summary table of their metrics
with units, and ends with one result per workload). The exit code
is 0 only if every output check passed; a checkout without
``src/ssl_lab`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracing import self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")

DEFAULT_SEED = 1
SEED_STRIDE = 10_000
MAX_ITERATIONS = 2_000
SETUP_REPEATS = 7
PROBE_NOMINAL_S = 0.010
CHILD_TIMEOUT_S = 150.0
RSS_POLL_S = 0.5
NPROC = len(os.sched_getaffinity(0))

TABLE_ROWS = 100_000
TABLE_DIM = 20
TABLE_SNR = 1.5
TABLE_EIGEN_GAP = 0.001

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None = None
    replicates: int | None = None
    pool_check: bool = False
    probe: tuple = (("tiny", 1), ("mid", 1), ("draw", 1), ("py", 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-selftrain", preset="fig1b", replicates=1, pool_check=True),
        Workload("sweep-spectral", preset="fig3", replicates=4, probe=(("tiny", 3), ("draw", 1))),
        Workload("fit-table"),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s_ref",
    "trials_per_s": "trials/s_ref",
    "rows_per_s": "rows/s_ref",
    "peak_rss_mb": "MiB",
    "fit_ok_frac": "ratio",
}


@dataclass
class Iteration:
    """One timed iteration: its wall time, exit codes, checks and spans."""

    seed: int
    out: str
    wall_s: float = math.nan
    probe_s: float = math.nan
    codes: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    trials: int = 0
    rows: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Phase:
    """One child interpreter: its import time, peak memory and iterations."""

    import_s: float = math.nan
    peak_kib: int = 0
    iterations: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------- inputs


def make_table_csv(seed: int) -> bytes:
    """A TABLE_ROWS x TABLE_DIM two-class table with signal on every axis.

    x = y * theta + noise with theta_j = TABLE_SNR / sqrt(TABLE_DIM), so
    every coordinate carries the same share of the signal and per-column
    standardization keeps it. The noise is drawn from the seed, then made
    exactly white and orthogonal to the labels and the intercept, and
    given the covariance C diag(1 + TABLE_EIGEN_GAP * k) C^T with C the
    orthonormal DCT-II basis. Its eigenvalues are thus near-equal, which
    makes PCA by power iteration slow, yet the same for every seed, so
    the PCA cost does not swing with the seed's random eigenvalue gaps.
    Labels are written as 1 / 0.
    """
    import numpy as np

    n, d = TABLE_ROWS, TABLE_DIM
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], size=n)
    draws = np.column_stack([np.ones(n), y, rng.standard_normal((n, d))])
    white = np.linalg.qr(draws)[0][:, 2:] * math.sqrt(n)
    k = np.arange(d)
    dct = math.sqrt(2.0 / d) * np.cos(np.pi * (k[:, None] + 0.5) * k[None, :] / d)
    dct[:, 0] = 1.0 / math.sqrt(d)
    spectrum = 1.0 + TABLE_EIGEN_GAP * k[::-1]
    x = y[:, None] * (TABLE_SNR / math.sqrt(d)) + white @ (np.sqrt(spectrum)[:, None] * dct.T)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([f"x{j + 1}" for j in range(d)] + ["label"])
    row_format = ",".join(["%.6f"] * d) + ",%s\n"
    labels = np.where(y > 0, "1", "0").tolist()
    out.writelines(row_format % (*row, label) for row, label in zip(x.tolist(), labels))
    return out.getvalue().encode()


def iteration_commands(workload: Workload, seed: int, out: str, table: str, threads: int):
    """The commands of one iteration with the given seed, writing to `out`.

    A sweep at more than one thread is the pool check: simulate only.
    """
    common = ["--seed", str(seed), "--out", out, "--quiet"]
    if workload.preset is None:
        return [["fit", table, "--nl", "50", "--pca", "5", *common]]
    simulate = ["simulate", "--preset", workload.preset, "--threads", str(threads)]
    if workload.replicates is not None:
        simulate += ["--replicates", str(workload.replicates)]
    commands = [simulate + common]
    if threads == 1:
        commands.append(["report", os.path.join(out, "results.csv"), *common])
    return commands


def make_inputs(workload: Workload, seed: int, work: str) -> tuple:
    """(seeds, files): the iterations' seeds and the files they read.

    Every input of a run derives from `seed`: iteration i's sweep or
    split seed is seed * SEED_STRIDE + i, and fit-table's one table is
    drawn from `seed` itself.
    """
    files = {}
    if workload.preset is None:
        files[os.path.join(work, "table.csv")] = make_table_csv(seed)
    seeds = [seed * SEED_STRIDE + i for i in range(MAX_ITERATIONS)]
    return seeds, files


def digest(seeds, files) -> str:
    h = hashlib.sha256(json.dumps(seeds).encode())
    for path in sorted(files):
        h.update(path.encode())
        h.update(files[path])
    return h.hexdigest()


# ---------------------------------------------------------------- children


def _tree_rss_kib(root_pid: int) -> int:
    """Summed resident set of root_pid and its descendants, from /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat[stat.rindex(")") + 2:].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    total = 0
    page_kib = os.sysconf("SC_PAGE_SIZE") // 1024
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page_kib
        except OSError:
            continue
    return total


def run_child(job: dict, work: str, tag: str, poll_tree: bool) -> tuple:
    """Run bench/child.py on `job`; return (result or None, peak tree KiB).

    With `poll_tree` the summed resident set of the child and its pool
    workers is polled while it runs; otherwise only the child's own peak
    is reported, and the parent stays idle.
    """
    job_path = os.path.join(work, f"job-{tag}.json")
    result_path = os.path.join(work, f"result-{tag}.json")
    with open(job_path, "w") as handle:
        json.dump({"src": SRC, **job}, handle)
    if os.path.exists(result_path):
        os.remove(result_path)
    peak = 0
    with open(os.path.join(work, "child.log"), "a") as log:
        proc = subprocess.Popen(
            [sys.executable, CHILD, job_path, result_path],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, start_new_session=True,
        )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                if poll_tree:
                    peak = max(peak, _tree_rss_kib(proc.pid))
                    time.sleep(RSS_POLL_S)
                else:
                    try:
                        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                    except subprocess.TimeoutExpired:
                        pass
        finally:
            if proc.poll() is None:
                # The child leads its own process group, so pool workers die with it.
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, peak
    with open(result_path) as handle:
        return json.load(handle), peak


def run_phase(workload, name, seeds, seconds, trace, work, table, threads=1) -> Phase:
    """One interpreter: warm up on seeds[0], then time iterations for `seconds`.

    The warm-up writes to out/<name>/warmup; timed iteration i writes to
    out/<name>/<i>. With seconds = 0 exactly one iteration is timed. A
    pool phase (threads > 1) has no warm-up and polls its workers' memory.
    """
    root = os.path.join(work, "out", name)
    shutil.rmtree(root, ignore_errors=True)
    iterations = [Iteration(seed, os.path.join(root, str(i))) for i, seed in enumerate(seeds)]
    warmup = os.path.join(root, "warmup")
    job = {
        "warmup": [] if threads > 1 else iteration_commands(
            workload, seeds[0], warmup, table, threads
        ),
        "iterations": [
            iteration_commands(workload, it.seed, it.out, table, threads) for it in iterations
        ],
        "seconds": seconds,
        "trace": trace,
        "probe": dict(workload.probe),
    }
    result, tree_peak = run_child(job, work, name, threads > 1)
    phase = Phase(peak_kib=tree_peak)
    if result is None:
        phase.problems.append(f"{name}: child failed; see child.log")
        return phase
    phase.import_s = result["import_s"]
    phase.peak_kib = max(tree_peak, result["maxrss_kib"])
    phase.missing = result.get("missing", [])
    if result["warmup_codes"] != [0] * len(job["warmup"]):
        phase.problems.append(f"{name}: warm-up exit codes {result['warmup_codes']}")
    probes = result["probes"]
    for index, (wall, codes) in enumerate(zip(result["walls"], result["codes"])):
        it = iterations[index]
        it.wall_s, it.codes = wall, codes
        it.probe_s = statistics.mean(probes[index:index + 2])
        if trace:
            it.spans, it.counts = result["spans"][index], result["counts"][index]
        if codes != [0] * len(job["iterations"][index]):
            it.problems.append(f"{name} iteration {index}: exit codes {codes}")
        phase.iterations.append(it)
    if not phase.iterations:
        phase.problems.append(f"{name}: no iteration ran")
    return phase


# ---------------------------------------------------------------- checks


def _file_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def check_sweep(workload: Workload, out: str, it: Iteration, report: bool) -> bytes | None:
    """Read results.csv back and compare it with the preset's grid x methods."""
    from ssl_lab.data_io import read_results
    from ssl_lab.errors import SslLabError
    from ssl_lab.experiments import PRESETS

    spec = PRESETS[workload.preset]
    replicates = workload.replicates or spec.replicates
    methods = tuple(sorted(spec.cfg.methods))
    it.trials = len(spec.grid) * replicates
    it.rows = replicates * sum(_rows_per_trial(spec, value) for value in spec.grid)
    it.attempted = it.trials * len(methods)
    path = os.path.join(out, "results.csv")
    try:
        sweep = read_results(path)
    except (OSError, SslLabError) as err:
        it.problems.append(f"{out}: results.csv does not read back: {err}")
        return None
    if sweep.axis_name != spec.axis or sweep.grid != tuple(float(v) for v in spec.grid):
        it.problems.append(f"{out}: grid {sweep.axis_name} {sweep.grid} differs from the preset")
    if sweep.replicates != replicates:
        it.problems.append(f"{out}: replicates {sweep.replicates}, expected {replicates}")
    for value, row in zip(sweep.grid, sweep.cells):
        if tuple(sorted(stats.method for stats in row)) != methods:
            it.problems.append(f"{out}: cell {value}: methods differ from {methods}")
        for stats in row:
            it.failed += int(stats.extra.get("failures", 0))
            means = (stats.mean_excess, stats.mean_estimation, stats.mean_test_error)
            if not all(math.isfinite(m) for m in means):
                it.problems.append(f"{out}: cell {value} {stats.method}: non-finite mean")
    if report:
        svg = _file_bytes(os.path.join(out, "results.svg")) or b""
        if b"<svg" not in svg[:200]:
            it.problems.append(f"{out}: report wrote no results.svg")
    return _file_bytes(path)


def _rows_per_trial(spec, value) -> int:
    """Rows one trial of the cell at `value` draws: n_l + n_u + n_val + n_test."""
    cfg = spec.cfg
    n_l, n_u = cfg.n_l, cfg.n_u
    if spec.axis == "nl":
        n_l = int(value)
    elif spec.axis == "nu":
        n_u = int(value)
    elif spec.axis == "nu_over_nl":
        n_l = max(1, round(n_u / value))
    return n_l + n_u + cfg.n_val + cfg.n_test


def check_fit(out: str, it: Iteration) -> bytes | None:
    """Every requested method has a test error in [0, 1] or a failure reason."""
    from ssl_lab.cli import DEFAULT_FIT_METHODS

    it.trials, it.rows, it.attempted = 1, TABLE_ROWS, len(DEFAULT_FIT_METHODS)
    raw = _file_bytes(os.path.join(out, "fit_results.json"))
    try:
        payload = json.loads(raw)
    except (TypeError, ValueError):
        it.problems.append(f"{out}: fit_results.json is missing or not JSON")
        return None
    if payload.get("n") != TABLE_ROWS:
        it.problems.append(f"{out}: fit read {payload.get('n')} rows, expected {TABLE_ROWS}")
    errors, failures = payload.get("test_errors", {}), payload.get("failures", {})
    for method in DEFAULT_FIT_METHODS:
        error = errors.get(method)
        if isinstance(error, (int, float)) and 0.0 <= error <= 1.0:
            continue
        if isinstance(failures.get(method), str) and failures[method]:
            it.failed += 1
        else:
            it.problems.append(f"{out}: {method}: no test error in [0, 1] and no failure reason")
    return raw


def check_phase(workload, phase: Phase, reference: dict, pool: bool = False) -> None:
    """Check every iteration's outputs, and the warm-up's against iteration 0.

    Output bytes must equal `reference[seed]`, the first bytes any phase
    produced for that seed, so the warm-up, the phases and the pool run
    must all agree.
    """
    check = check_fit if workload.preset is None else (
        lambda out, it: check_sweep(workload, out, it, report=not pool)
    )
    if phase.iterations and not pool:
        first = phase.iterations[0]
        warm = Iteration(first.seed, os.path.join(os.path.dirname(first.out), "warmup"))
        produced = check(warm.out, warm)
        phase.problems += warm.problems
        if produced is not None:
            reference.setdefault(first.seed, produced)
    for it in phase.iterations:
        produced = check(it.out, it)
        if produced is not None and reference.setdefault(it.seed, produced) != produced:
            it.problems.append(f"{it.out}: output bytes for seed {it.seed} differ from its first run")
        if it.problems:
            it.failed = it.attempted


# ---------------------------------------------------------------- metrics


def _per_s(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def ref_s(it: Iteration) -> float:
    """The iteration's wall time in s_ref, scaled by the probes around it."""
    return it.wall_s * PROBE_NOMINAL_S / it.probe_s


def end_to_end(setup, phase: Phase) -> dict:
    iterations = phase.iterations
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "wall_s": statistics.median(ref_s(it) for it in iterations),
        "trials_per_s": statistics.median(_per_s(it.trials, ref_s(it)) for it in iterations),
        "rows_per_s": statistics.median(_per_s(it.rows, ref_s(it)) for it in iterations),
        "peak_rss_mb": phase.peak_kib / 1024.0,
        "fit_ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }


def span_table(iterations) -> dict:
    """name -> [calls, self_s, total_s, attr] summed over iterations."""
    table: dict = {}
    for it in iterations:
        spans = it.spans
        for record, own in zip(spans, self_times(spans)):
            _, parent, name, start, end, attr = record
            row = table.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += end - start
            nested_draw = (
                name.startswith("gmm.sample_")
                and parent is not None
                and spans[parent][2].startswith("gmm.sample_")
            )
            if attr is not None and not nested_draw:
                row[3] += attr
    return table


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(traced, untraced, pool) -> dict:
    """Per-layer metrics, per traced iteration.

    Spans of forked pool workers are lost, so parallel_efficiency and
    pool_overhead_s compare the summed run_trial time of the traced
    ``--threads 1`` iterations of the pool run's seed with NPROC times
    the pool run's run_sweep span; without a traced pool run both are 0.
    """
    k = len(traced)
    table = span_table(traced)

    def total(column, *names):
        return sum(table.get(n, (0, 0.0, 0.0, 0.0))[column] for n in names) / k

    def self_s(*names):
        return total(1, *names)

    def calls(*names):
        return total(0, *names)

    def layer_self(layer):
        return self_s(*(n for n in table if n.startswith(layer + ".")))

    def count(name):
        return sum(it.counts.get(name, 0) for it in traced) / k

    def durations(iterations, name):
        return [s[4] - s[3] for it in iterations for s in it.spans if s[2] == name]

    trial_ms = [1e3 * t for t in durations(traced, "experiments.run_trial")]
    pool_seeds = {it.seed for it in pool}
    serial = [it for it in traced if it.seed in pool_seeds]
    serial_sweeps = durations(serial, "experiments.run_sweep")
    pool_sweeps = durations(pool, "experiments.run_sweep")
    if serial_sweeps and pool_sweeps:
        serial_trial_s = sum(durations(serial, "experiments.run_trial")) / len(serial_sweeps)
        pool_s = NPROC * statistics.median(pool_sweeps)
        efficiency, overhead = serial_trial_s / pool_s, pool_s - serial_trial_s
    else:
        efficiency, overhead = 0.0, 0.0
    traced_wall = statistics.median(ref_s(it) for it in traced)
    untraced_wall = statistics.median(ref_s(it) for it in untraced)
    covered = sum(row[1] for row in table.values()) / k
    return {
        "gmm.sample_s": (self_s("gmm.sample_labeled", "gmm.sample_unlabeled"), "s"),
        "gmm.rows_sampled": (total(3, "gmm.sample_labeled", "gmm.sample_unlabeled"), "rows"),
        "gmm.eval_s": (
            self_s("gmm.excess_risk", "gmm.estimation_error", "gmm.prediction_error"), "s"
        ),
        "gmm.self_s": (layer_self("gmm"), "s"),
        "estimators.fit_logistic_s": (self_s("estimators.fit_logistic"), "s"),
        "estimators.fit_logistic_calls": (calls("estimators.fit_logistic"), "count"),
        "estimators.logistic_objective_calls": (count("estimators.logistic_objective"), "count"),
        "estimators.logistic_gradient_calls": (count("estimators.logistic_gradient"), "count"),
        "estimators.logistic_rows_touched": (count("estimators.logistic_rows_touched"), "rows"),
        "estimators.self_train_s": (self_s("estimators.self_train"), "s"),
        "estimators.self_train_calls": (calls("estimators.self_train"), "count"),
        "estimators.leading_eigenpair_s": (self_s("estimators.leading_eigenpair"), "s"),
        "estimators.leading_eigenpair_calls": (calls("estimators.leading_eigenpair"), "count"),
        "estimators.fit_ul_calls": (calls("estimators.fit_ul"), "count"),
        "estimators.fit_em_s": (self_s("estimators.fit_em"), "s"),
        "estimators.fit_em_calls": (calls("estimators.fit_em"), "count"),
        "estimators.fit_ssl_w_s": (self_s("estimators.fit_ssl_w"), "s"),
        "estimators.avg_margin_calls": (count("estimators.avg_margin"), "count"),
        "estimators.self_s": (layer_self("estimators"), "s"),
        "experiments.trials": (total(3, "experiments.run_sweep"), "count"),
        "experiments.run_trial_ms_p50": (_percentile(trial_ms, 0.5), "ms"),
        "experiments.run_trial_ms_p90": (_percentile(trial_ms, 0.9), "ms"),
        "experiments.harness_s": (self_s("experiments.run_sweep"), "s"),
        "experiments.parallel_efficiency": (efficiency, "ratio"),
        "experiments.pool_overhead_s": (overhead, "s"),
        "experiments.compatibility_score_s": (self_s("experiments.compatibility_score"), "s"),
        "experiments.self_s": (layer_self("experiments"), "s"),
        "data_io.load_csv_s": (self_s("data_io.load_csv"), "s"),
        "data_io.csv_bytes_read": (total(3, "data_io.load_csv"), "bytes"),
        "data_io.standardize_s": (self_s("data_io.standardize"), "s"),
        "data_io.pca_project_s": (self_s("data_io.pca_project"), "s"),
        "data_io.split_s": (self_s("data_io.split"), "s"),
        "data_io.write_results_s": (self_s("data_io.write_results"), "s"),
        "data_io.results_bytes_written": (total(3, "data_io.write_results"), "bytes"),
        "data_io.read_results_s": (self_s("data_io.read_results"), "s"),
        "data_io.self_s": (layer_self("data_io"), "s"),
        "charts.render_s": (self_s("charts.render_series_chart", "charts.render_gap_chart"), "s"),
        "charts.svg_bytes": (total(3, "charts.render_series_chart", "charts.render_gap_chart"), "bytes"),
        "cli.overhead_s": (self_s("cli.main"), "s"),
        "trace.wall_s": (traced_wall, "s_ref"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.coverage_frac": (covered / (sum(it.wall_s for it in traced) / k), "ratio"),
    }


# ---------------------------------------------------------------- report


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": NPROC,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
        "git": git_revision(),
    }


def git_revision() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"revision": None, "dirty": None}
    try:
        revision = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": revision, "dirty": bool(status.strip())}


def print_walls(name: str, iterations) -> None:
    """Sample count, median and, with ten samples above it, the p90 wall."""
    for unit, walls in (("s", [it.wall_s for it in iterations]),
                        ("s_ref", [ref_s(it) for it in iterations])):
        walls.sort()
        line = f"{name}: {len(walls)} iterations, wall median {statistics.median(walls):.4f} {unit}"
        if len(walls) >= 100:
            line += f", p90 {_percentile(walls, 0.9):.4f}"
        print(f"{line}, min {walls[0]:.4f}, max {walls[-1]:.4f}")
    probes = [it.probe_s for it in iterations]
    print(f"{name}: probe median {statistics.median(probes):.5f} s,"
          f" min {min(probes):.5f}, max {max(probes):.5f}")


def print_span_table(traced) -> None:
    k = len(traced)
    rows = sorted(span_table(traced).items(), key=lambda item: -item[1][1])
    print(f"{'span (per iteration)':40s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s}")
    for name, (n, own, whole, _) in rows:
        print(f"{name:40s} {n / k:10.1f} {own / k:10.4f} {whole / k:10.4f}")


def write_spans(path, phases) -> None:
    with open(path, "w") as handle:
        for name, phase in phases.items():
            for index, it in enumerate(phase.iterations):
                for sid, parent, span, start, end, attr in it.spans:
                    handle.write(json.dumps({
                        "phase": name, "iteration": index, "id": sid, "parent": parent,
                        "name": span, "start": start, "end": end, "attr": attr,
                    }) + "\n")
                handle.write(json.dumps(
                    {"phase": name, "iteration": index, "counts": it.counts}
                ) + "\n")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; print its report.

    Returns the result object: correct, attempted, failed and metrics.
    """
    env = environment()
    work = os.path.join(ROOT, ".bench_build", "ssl-lab", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seeds, files = make_inputs(workload, seed, work)
    inputs_repeat = digest(seeds, files) == digest(*make_inputs(workload, seed, work))
    for path, data in files.items():
        with open(path, "wb") as handle:
            handle.write(data)
    table = os.path.join(work, "table.csv")

    empty = {"warmup": [], "iterations": [], "seconds": 0.0, "trace": False, "probe": {}}
    setup = []
    for i in range(SETUP_REPEATS):
        result, _ = run_child(empty, work, f"setup{i}", False)
        setup.append(result["import_s"] if result else math.nan)

    reference: dict = {}
    phases: dict = {}
    if trace:
        phases["untraced"] = run_phase(workload, "untraced", seeds, seconds / 2, False, work, table)
        phases["traced"] = run_phase(workload, "traced", seeds, seconds / 2, True, work, table)
    else:
        phases["untraced"] = run_phase(workload, "untraced", seeds, seconds, False, work, table)
    if workload.pool_check:
        phases["pool"] = run_phase(
            workload, "pool", seeds[:1], 0.0, trace, work, table, threads=NPROC
        )
    for name, phase in phases.items():
        check_phase(workload, phase, reference, pool=name == "pool")
    every = [it for phase in phases.values() for it in phase.iterations]
    setup = [t for t in setup + [p.import_s for p in phases.values()] if math.isfinite(t)]
    problems = [p for phase in phases.values() for p in phase.problems]
    problems += [p for it in every for p in it.problems]
    if not inputs_repeat:
        problems.append("the same seed gave different inputs")
    attempted = sum(it.attempted for it in every)
    failed = sum(it.failed for it in every)

    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"workload": workload.name, "seed": seed,
                      "default_seed": DEFAULT_SEED, "env": env}))
    for name, phase in phases.items():
        if phase.iterations:
            print_walls(name, phase.iterations)
    if not phases["untraced"].iterations:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(attempted, 1),
                "metrics": {}}
    measured = end_to_end(setup, phases["untraced"])
    for name, value in measured.items():
        print(f"{name:16s} {value:14.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_frac':16s} {failed / max(attempted, 1):14.6g} ratio"
          f" ({failed} failed of {attempted} fits)")

    if trace and phases["traced"].iterations:
        traced = phases["traced"].iterations
        pool = phases["pool"].iterations if "pool" in phases else []
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(
                traced, phases["untraced"].iterations, pool
            ).items()
        }
        print_span_table(traced)
        for name, entry in metrics.items():
            print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}")
        missing = sorted(set(phases["traced"].missing))
        if missing:
            print(f"not traced (absent from the program): {', '.join(missing)}")
        if workload.pool_check:
            print("not measurable here: spans of forked pool workers stay in the workers;"
                  " the pool run is timed at its run_sweep span only")
        spans_path = os.path.join(work, "spans.jsonl")
        write_spans(spans_path, phases)
        print(f"spans: {spans_path}")
    elif trace:
        metrics = {}
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in measured.items()
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn with a summary table",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "ssl_lab", "cli.py")):
        print(f"error: no ssl_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) > 1:
        first = next(iter(results.values()))["metrics"]
        metric_names = list(first)
        print(f"{'workload':16s}" + "".join(f" {m:>14s}" for m in metric_names)
              + f" {'failed_frac':>14s}")
        print(f"{'':16s}" + "".join(f" {'[' + first[m]['unit'] + ']':>14s}" for m in metric_names)
              + f" {'[ratio]':>14s}")
        for name, result in results.items():
            cells = "".join(
                f" {result['metrics'].get(m, {'value': math.nan})['value']:14.6g}"
                for m in metric_names
            )
            print(f"{name:16s}{cells} {result['failed'] / max(result['attempted'], 1):14.6g}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
