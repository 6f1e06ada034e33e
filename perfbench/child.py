"""A benchmark child process: it imports ``mmimo`` from this checkout, parses
one workload's inputs, and then runs repetitions on request. ``run.py``
starts it with the BLAS thread cap in its environment.

    python3 perfbench/child.py --workload iid-trials --seed 1 --workers 2

It first prints a JSON line with the import and parse times and the time
of one calibration run after them. Then it answers each ``plain`` or
``traced`` line on standard input with a JSON line for one repetition; a
``plain`` repetition runs between two timed calibration runs, made on every
CPU in turn when the child has more than one worker. At the end of
input it prints its peak resident memory and exits, so a child given no
commands times the set-up alone. Generated configs and outputs go to the
current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _import_program() -> float:
    """Import the CLI from this checkout's ``src`` and return the time taken."""
    start = time.perf_counter()
    import mmimo.cli

    elapsed = time.perf_counter() - start
    expected = os.path.join(ROOT, "src", "mmimo")
    if os.path.dirname(os.path.abspath(mmimo.cli.__file__)) != expected:
        raise SystemExit(f"imported mmimo from {mmimo.cli.__file__}, expected {expected}")
    return elapsed


def calibration_s() -> float:
    """Time of a fixed computation that mixes the kinds of work the workloads
    do: interpreter steps, small LAPACK calls and a bulk complex exponential.
    It runs no ``mmimo`` code, so it measures the speed of the host alone.
    numpy is imported here, after the timed import of ``mmimo.cli``."""
    import numpy as np

    rng = np.random.default_rng(20130424)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    phases = rng.uniform(0.0, 2.0 * np.pi, 25_000)
    start = time.perf_counter()
    total = 0
    for i in range(125_000):
        total += i * i % 7
    for _ in range(1_000):
        np.linalg.svd(matrix, compute_uv=False)
    for _ in range(4):
        np.exp(1j * phases).sum()
    return time.perf_counter() - start


def cpus_calibration_s(every_cpu: bool) -> float:
    """Calibration time on the CPUs a repetition runs on: the current one for
    a single worker, or the mean over every allowed CPU, with this thread
    pinned to each in turn, for a child whose repetitions use them all."""
    cpus = os.sched_getaffinity(0)
    if not every_cpu or len(cpus) == 1:
        return calibration_s()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    import_s = _import_program()
    import spans
    import workloads

    t0 = time.perf_counter()
    ops = workloads.prepare(args.workload, args.seed, args.workers)
    parse_s = time.perf_counter() - t0
    _reply({"import_s": import_s, "parse_s": parse_s, "calibration_s": calibration_s()})

    tracer = spans.Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "plain":
            before = cpus_calibration_s(args.workers > 1)
            rep = workloads.run_once(ops)
            rep["calibration_s"] = [before, cpus_calibration_s(args.workers > 1)]
            _reply(rep)
        elif command == "traced":
            tracer.spans = []
            tracer.install()
            try:
                rep = workloads.run_once(ops, tracer.root)
            finally:
                tracer.uninstall()
            rep["layers"] = spans.layer_metrics(tracer.spans)
            _reply(rep)
        elif command.startswith("spans "):
            tracer.write_spans(command[len("spans "):])
            _reply({})
        else:
            raise SystemExit(f"unknown command {command!r}")
    _reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


if __name__ == "__main__":
    main()
