"""Consistency rules for the committed paired-benchmark records (BENCH_*.json).

Each record holds, per workload and metric, one run of the parent and one
of the change per pair, with the medians and win counts derived from them.
These rules check that the derived numbers are the ones the runs give.
"""

import copy
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("topic", "command", "parent", "change", "method", "env", "pairs", "workloads")
ENV_KEYS = ("nproc", "python", "numpy", "blas")
#: Metrics where a smaller run is the better one; every other metric is higher-better.
LOWER_IS_BETTER = ("setup_s", "wall_s", "peak_rss_mb")
MIN_PAIRS = 10
MEDIAN_ATOL = 2e-6


def problems(record) -> list:
    """Every rule the record breaks, as readable strings (empty when it holds)."""
    found = [f"missing key {key!r}" for key in KEYS if key not in record]
    found += [f"env lacks {key!r}" for key in ENV_KEYS if key not in record.get("env", {})]
    pairs = record.get("pairs")
    if not (isinstance(pairs, int) and pairs >= MIN_PAIRS):
        found.append(f"pairs must be at least {MIN_PAIRS}, got {pairs!r}")
    for workload, metrics in record.get("workloads", {}).items():
        for name, entry in metrics.items():
            if not (isinstance(entry, dict) and "parent_runs" in entry):
                continue
            where = f"{workload}.{name}"
            runs = {side: entry[f"{side}_runs"] for side in ("parent", "change")}
            for side, values in runs.items():
                if len(values) != pairs:
                    found.append(f"{where}: {len(values)} {side} runs for {pairs} pairs")
                median = entry[f"{side}_median"]
                if abs(statistics.median(values) - median) > MEDIAN_ATOL:
                    found.append(f"{where}: {side}_median {median} is not the runs' median")
            lower = name in LOWER_IS_BETTER
            won = sum(
                (change < parent) if lower else (change > parent)
                for parent, change in zip(runs["parent"], runs["change"])
            )
            if entry["change_better"] != won:
                found.append(f"{where}: change_better {entry['change_better']}, runs say {won}")
    return found


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_record_is_consistent(path):
    assert problems(json.loads(path.read_text())) == []


def test_there_is_a_bench_record():
    assert BENCH_FILES


def test_rules_catch_violations():
    record = json.loads(BENCH_FILES[0].read_text())
    workload = next(iter(record["workloads"]))
    where = f"{workload}.wall_s"

    def broken(edit):
        """problems() of a copy of the record after edit(copy, its wall_s entry)."""
        bad = copy.deepcopy(record)
        edit(bad, bad["workloads"][workload]["wall_s"])
        return problems(bad)

    def miscount(rec, wall):
        wall["change_better"] += 1

    def shift_median(rec, wall):
        wall["parent_median"] += 1e-3

    def drop_run(rec, wall):
        wall["change_runs"].pop()

    pairs, wins = record["pairs"], record["workloads"][workload]["wall_s"]["change_better"]
    shifted = record["workloads"][workload]["wall_s"]["parent_median"] + 1e-3
    assert broken(lambda rec, wall: rec.pop("method")) == ["missing key 'method'"]
    assert broken(lambda rec, wall: rec["env"].pop("blas")) == ["env lacks 'blas'"]
    assert f"pairs must be at least {MIN_PAIRS}, got 9" in broken(
        lambda rec, wall: rec.update(pairs=9)
    )
    assert broken(miscount) == [f"{where}: change_better {wins + 1}, runs say {wins}"]
    assert broken(shift_median) == [f"{where}: parent_median {shifted} is not the runs' median"]
    assert f"{where}: {pairs - 1} change runs for {pairs} pairs" in broken(drop_run)
