"""Span recorder for the benchmark's traced runs.

A Tracer wraps the public functions of the ssl_lab modules from the
outside. Each call of a wrapped function becomes one span
``[id, parent_id, name, start_s, end_s, attr]``; the parent is the span
that was open when the call began, so nested calls (fit_ssl_w calling
fit_ul calling leading_eigenpair) form a tree and self times never count
a nested call twice. ``attr`` is one number measured at that boundary
(rows drawn, bytes read or written, trials run) or None.

The hottest helpers (the logistic objective and gradient, avg_margin) are
counted, not spanned: a span per call would cost more than the call.

Wrappers are installed under every name a caller looks the function up
by: every ``ssl_lab.*`` module attribute bound to the original function
object is replaced, so ``ssl_lab.experiments.fit_logistic`` and
``ssl_lab.estimators.fit_logistic`` both report. Functions the program
no longer has are skipped and listed in ``Tracer.missing``.

Spans recorded in forked pool workers stay in the workers and are lost.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter


def _rows(args, result):
    return result.n


def _file_size_arg(index):
    def attr(args, result):
        return os.path.getsize(args[index])
    return attr


def _length(args, result):
    return len(result)


def _trials(args, result):
    return len(result.grid) * result.replicates


#: (module, function, attr) for every spanned function. The span is
#: named "<module>.<function>"; the module is the layer.
SPANNED = (
    ("gmm", "sample_labeled", _rows),
    ("gmm", "sample_unlabeled", _rows),
    ("gmm", "excess_risk", None),
    ("gmm", "estimation_error", None),
    ("gmm", "prediction_error", None),
    ("estimators", "fit_sl", None),
    ("estimators", "fit_ul", None),
    ("estimators", "leading_eigenpair", None),
    ("estimators", "plugin_snr", None),
    ("estimators", "fit_ssl_s", None),
    ("estimators", "fit_ssl_w", None),
    ("estimators", "fit_em", None),
    ("estimators", "fit_em_means", None),
    ("estimators", "fit_logistic", None),
    ("estimators", "self_train", None),
    ("estimators", "fit_spherical_lda", None),
    ("experiments", "run_sweep", _trials),
    ("experiments", "run_trial", None),
    ("experiments", "compatibility_score", None),
    ("data_io", "load_csv", _file_size_arg(0)),
    ("data_io", "standardize", None),
    ("data_io", "pca_project", None),
    ("data_io", "split", None),
    ("data_io", "write_results", _file_size_arg(1)),
    ("data_io", "read_results", None),
    ("charts", "render_series_chart", _length),
    ("charts", "render_gap_chart", _length),
)

#: (module, function, counter of rows touched or None) for counted-only calls.
COUNTED = (
    ("estimators", "logistic_objective", "estimators.logistic_rows_touched"),
    ("estimators", "logistic_gradient", "estimators.logistic_rows_touched"),
    ("estimators", "avg_margin", None),
)


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._open: list = []
        self._patches: list = []

    def wrap(self, name: str, fn, attr=None):
        """Return fn recording a span named `name` per call."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, clock(), 0.0, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if attr is not None:
                record[5] = attr(args, result)
            return result

        return traced

    def _count(self, name: str, fn, rows_counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if rows_counter is not None:
                counts[rows_counter] += args[1].n
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every ssl_lab binding of the listed functions."""
        modules = [m for n, m in sys.modules.items() if n.startswith("ssl_lab") and m]
        wanted = [(mod, fn, self.wrap, attr) for mod, fn, attr in SPANNED]
        wanted += [(mod, fn, self._count, rows) for mod, fn, rows in COUNTED]
        for mod, fn_name, make, extra in wanted:
            home = sys.modules.get(f"ssl_lab.{mod}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.missing.append(f"{mod}.{fn_name}")
                continue
            wrapper = make(f"{mod}.{fn_name}", original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    selfs = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs
