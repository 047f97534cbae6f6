"""One benchmark phase in a fresh interpreter.

Usage: python3 bench/child.py JOB.json RESULT.json

JOB.json holds {"src": <dir holding ssl_lab>, "warmup": [argv, ...],
"iterations": [[argv, ...], ...], "seconds": float, "trace": bool,
"probe": {kind: units}}.
The child times ``import ssl_lab.cli`` (the set-up every CLI call pays),
runs the warm-up commands untimed, then runs one iteration after
another through ``ssl_lab.cli.main`` until ``seconds`` have passed or
the iterations run out, timing each. It stops at the first non-zero exit
code. Before the first timed iteration and after each one it times
probe(), a fixed numpy and pure-Python kernel that needs nothing from
ssl_lab, mixed like the workload's own work, so the parent can divide
out the machine's speed at that moment. With "trace" set it installs a Tracer after the warm-up, records
``cli.main`` as the root span, and reports each timed iteration's spans.
RESULT.json receives the timings, probe times, exit codes, the process's
peak resident set, and the spans and counters of a traced phase.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def peak_rss_kib() -> int:
    """This process's peak resident set (VmHWM).

    Not ru_maxrss: Linux carries that across execve, so it would report
    the benchmark parent's size when the parent was larger.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def probe(mix) -> float:
    """Seconds one fixed kernel takes: about 2.5 ms per unit of `mix`.

    `mix` gives units of four kinds of work the program does: a Python
    loop of 2 x 2 products ("tiny", power iteration), products and tanh
    over a 4,000 x 3 array ("mid", logistic gradients), normal draws of
    10,000 x 2 ("draw", sampling) and a pure-Python loop ("py", parsing).
    A host that slows the program slows a probe of the same mix alike.
    """
    import numpy as np

    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    v = np.array([1.0, 0.0])
    x = np.linspace(-1.0, 1.0, 12_000).reshape(4_000, 3)
    w = np.full(3, 0.1)
    rng = np.random.default_rng(0)
    began = time.perf_counter()
    for _ in range(300 * mix.get("tiny", 0)):
        y = m @ v
        v = y / float(np.linalg.norm(y))
    for _ in range(80 * mix.get("mid", 0)):
        w = w - 1e-4 * (x.T @ np.tanh(x @ w))
    for _ in range(5 * mix.get("draw", 0)):
        rng.standard_normal((10_000, 2))
    total = 0.0
    for i in range(30_000 * mix.get("py", 0)):
        total += i * 0.5
    return time.perf_counter() - began


def run_commands(entry, commands, codes) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        for argv in commands:
            codes.append(entry(argv))
            if codes[-1] != 0:
                return


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)

    start = time.perf_counter()
    import ssl_lab.cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(ssl_lab.cli.__file__).startswith(src + os.sep):
        print(f"ssl_lab was imported from {ssl_lab.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    result = {"import_s": import_s, "warmup_codes": [], "walls": [], "codes": [], "probes": []}
    run_commands(ssl_lab.cli.main, job["warmup"], result["warmup_codes"])

    entry = ssl_lab.cli.main
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
        result.update(spans=[], counts=[], missing=tracer.missing)

    start = time.perf_counter()
    result["probes"].append(probe(job["probe"]))
    for commands in job["iterations"]:
        if result["walls"] and time.perf_counter() - start >= job["seconds"]:
            break
        codes: list = []
        began = time.perf_counter()
        run_commands(entry, commands, codes)
        result["walls"].append(time.perf_counter() - began)
        result["codes"].append(codes)
        result["probes"].append(probe(job["probe"]))
        if tracer is not None:
            result["spans"].append(list(tracer.spans))
            result["counts"].append(dict(tracer.counts))
            tracer.spans.clear()
            tracer.counts.clear()
        if len(codes) != len(commands) or any(codes):
            break
    if tracer is not None:
        tracer.uninstall()

    result["maxrss_kib"] = peak_rss_kib()
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
