"""The mmimo benchmark.

    python3 perfbench/run.py --workload iid-trials --seed 1 --seconds 34 --trace 0

Runs one workload (``iid-trials``, ``ray-field`` or ``mc-bounds``; see
``workloads.py``) against the ``mmimo`` package in this checkout's ``src``,
checks its outputs, and prints every metric by name with its unit. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``wall_s``: median time of one repetition, from configs parsed to all
  outputs written, with ``nproc`` trial workers and one BLAS thread per
  worker (``nproc`` BLAS threads on ``mc-bounds``, which runs no workers);
- ``wall_1t_s``: the same problem with one worker and one BLAS thread;
- ``setup_s``: median over fresh interpreters of importing ``mmimo.cli`` and
  parsing the workload's configs;
- ``peak_rss_mb``: peak resident memory of the ``wall_s`` child.

Two long-lived children, one per setting, each run one untimed warm-up
repetition and then run repetitions alternately until ``--seconds`` have
passed, so a slow spell on the host hits both settings.

The times of ``wall_s``, ``wall_1t_s`` and ``setup_s`` are given in
reference seconds. On a shared host the speed of each core drifts by a third
within seconds to minutes, so raw times of the same code differ more between
runs than a regression worth catching. The child therefore times a fixed
calibration computation (``child.calibration_s``, which runs no ``mmimo``
code) just before and just after each repetition, on the CPUs the repetition
runs on, and once after its set-up. Each measured time is multiplied by
``CALIBRATION_NOMINAL_S`` over the mean of its calibration times: that is
its time on a host where the calibration takes ``CALIBRATION_NOMINAL_S``.
The raw medians are printed as information.

``--trace 1`` runs the workload alternately plain and traced (``spans.py``)
and reports the per-layer self times and counts.

Every repetition is an operation per experiment run or validator call. An
operation fails when it raises, when a seed-independent check on its outputs
fails, or when its outputs differ from the first repetition's (across the
``wall_s`` and ``wall_1t_s`` settings, repeats, and traced and plain runs).
The command exits 1 when any operation failed, and 2 without a result when
the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

# Fresh interpreters timed for setup_s: one after each repetition pair, and
# at least this many in all.
SETUP_REPEATS = 15
# Longest wait for one reply from a child.
CHILD_TIMEOUT_S = 120.0
# Typical time of child.calibration_s on the reference host (2 vCPUs of an
# Intel Xeon, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31); it fixes what
# one reference second is.
CALIBRATION_NOMINAL_S = 0.0375

END_TO_END = {"wall_s": "s", "wall_1t_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXPERIMENT_METRICS = {
    "svd-spread": "svd_spread_s",
    "mrt-sumrate": "mrt_sumrate_s",
    "pilot-contamination": "pilot_contamination_s",
    "rural-broadband": "rural_broadband_s",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


PER_LAYER = {f"{layer}_s": "s" for layer in spans.LAYERS}
PER_LAYER.update({key: "B" if key.endswith("_bytes") else "count" for key in spans.COUNTS})
PER_LAYER.update(
    {
        "parallel.threads": "count",
        "parallel.busy_frac": "ratio",
        "parallel.wait_s": "s",
        "config.parse_s": "s",
        "cli.import_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    }
)


def wall_blas_threads(workload: str, nproc: int) -> int:
    """BLAS threads at the ``wall_s`` setting: no more threads than cores."""
    return 1 if workload in workloads.POOLED else nproc


def blas_env(threads: int) -> dict[str, str]:
    """This process's environment with the BLAS thread pools capped."""
    cap = str(threads)
    return dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap)


class Child:
    """A running ``child.py`` driven line by line over its standard streams."""

    def __init__(self, args, cwd: str, threads: int, workers: int):
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--workers", str(workers),
        ]
        self.stderr = tempfile.TemporaryFile(mode="w+", dir=cwd)
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=cwd, env=blas_env(threads), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self.stderr, text=True,
            )
        except OSError as exc:
            self.stderr.close()
            raise BenchmarkError(f"cannot start a child: {exc}") from exc
        try:
            self.ready = self._read()
        except BenchmarkError:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _read(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.stderr.seek(0)
            raise BenchmarkError(f"child gave no reply: {self.stderr.read().strip()[-3000:]}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise BenchmarkError(f"child stopped: {exc}") from exc
        return self._read()

    def finish(self) -> dict:
        """End the input and return the child's closing report."""
        self.proc.stdin.close()
        report = self._read()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()


class Tally:
    """Attempted and failed operations, judged against the first repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    def add(self, rep: dict, label: str, extra: list[str] = ()) -> None:
        if self.reference is None:
            self.reference = rep["digests"]
        for name, digest in rep["digests"].items():
            self.attempted += 1
            problems = list(rep["failures"][name]) + list(extra)
            if digest != self.reference.get(name):
                problems.append(f"{name}: outputs of the {label} repetition differ from the first repetition")
            if problems:
                self.failed += 1
                self.problems.extend(problems)


def setup_time(args, cwd: str, nproc: int) -> dict:
    """Import and parse time of one fresh interpreter, and its scale factor."""
    with Child(args, cwd, wall_blas_threads(args.workload, nproc), nproc) as child:
        child.finish()
        ready = child.ready
    return {"raw_s": ready["import_s"] + ready["parse_s"], "scale": CALIBRATION_NOMINAL_S / ready["calibration_s"]}


def scale(rep: dict) -> float:
    """Factor from a repetition's measured time to reference seconds."""
    return CALIBRATION_NOMINAL_S / statistics.fmean(rep["calibration_s"])


def measure_end_to_end(args, cwd: str, nproc: int, tally: Tally, detail: dict):
    par_reps, one_reps, setups = [], [], []
    with Child(args, cwd, wall_blas_threads(args.workload, nproc), nproc) as par, Child(args, cwd, 1, 1) as one:
        tally.add(par.ask("plain"), "wall_s warm-up")
        tally.add(one.ask("plain"), "wall_1t_s warm-up")
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            par_reps.append(par.ask("plain"))
            one_reps.append(one.ask("plain"))
            setups.append(setup_time(args, cwd, nproc))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_time(args, cwd, nproc))
        peak_rss_mb = par.finish()["peak_rss_mb"]
        one.finish()
    detail.update(parallel=par_reps, single=one_reps, setup_s=setups)
    for rep in par_reps:
        tally.add(rep, "wall_s")
    for rep in one_reps:
        tally.add(rep, "wall_1t_s")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] * scale(r) for r in par_reps),
        "wall_1t_s": statistics.median(r["wall_s"] * scale(r) for r in one_reps),
        "setup_s": statistics.median(s["raw_s"] * s["scale"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    extras = {
        key: statistics.median(r["op_s"][op] * scale(r) for r in par_reps)
        for op, key in EXPERIMENT_METRICS.items()
        if op in par_reps[0]["op_s"]
    }
    detail["raw_s"] = {
        "wall_s": statistics.median(r["wall_s"] for r in par_reps),
        "wall_1t_s": statistics.median(r["wall_s"] for r in one_reps),
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "calibration_s": statistics.median(c for r in par_reps + one_reps for c in r["calibration_s"]),
    }
    detail["samples"] = {"wall_s": len(par_reps), "wall_1t_s": len(one_reps), "setup_s": len(setups)}
    return metrics, extras


def measure_layers(args, cwd: str, nproc: int, tally: Tally, detail: dict):
    pairs = []
    with Child(args, cwd, wall_blas_threads(args.workload, nproc), nproc) as child:
        tally.add(child.ask("plain"), "warm-up")
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(pairs) < 2:
            pairs.append({"plain": child.ask("plain"), "traced": child.ask("traced")})
        child.ask(f"spans {os.path.join(WORK, f'spans-{args.workload}.csv')}")
        child.finish()
        ready = child.ready
    detail["pairs"] = pairs
    first = pairs[0]["traced"]["layers"]
    exact = list(spans.COUNTS) + ["trace.spans"]
    for i, pair in enumerate(pairs):
        layers = pair["traced"]["layers"]
        extra = [
            f"count {key} is {layers[key]} in traced repetition {i}, {first[key]} in the first"
            for key in exact if layers[key] != first[key]
        ]
        attributed = sum(layers[f"{layer}_s"] for layer in spans.LAYERS)
        if abs(attributed - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"] + 1e-6:
            extra.append(f"self times add up to {attributed:.6f} s, traced wall is {layers['trace.wall_s']:.6f} s")
        tally.add(pair["plain"], "plain")
        tally.add(pair["traced"], "traced", extra)

    traced = [p["traced"]["layers"] for p in pairs]
    metrics = {key: statistics.median(t[key] for t in traced) for key in first if key not in exact}
    metrics.update({key: first[key] for key in exact})
    metrics["parallel.threads"] = max(t["parallel.threads"] for t in traced)
    metrics["trace.overhead_s"] = statistics.median(p["traced"]["wall_s"] for p in pairs) - statistics.median(
        p["plain"]["wall_s"] for p in pairs
    )
    metrics["cli.import_s"] = ready["import_s"]
    metrics["config.parse_s"] = ready["parse_s"]
    detail["samples"] = {"traced": len(pairs), "plain": len(pairs)}
    return metrics, {}


def environment(workload: str, nproc: int) -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {"wall_s": wall_blas_threads(workload, nproc), "wall_1t_s": 1},
        "workers": {"wall_s": nproc, "wall_1t_s": 1},
        "nproc": nproc,
        "cpu": cpu,
        "commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mmimo", "cli.py")):
        print(f"benchmark error: no mmimo package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.makedirs(WORK, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tally, detail = Tally(), {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, extras = measure(args, cwd, nproc, tally, detail)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    detail.update(environment=environment(args.workload, nproc), digests=tally.reference, problems=tally.problems)
    with open(os.path.join(WORK, f"last-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)

    units = PER_LAYER if args.trace else END_TO_END
    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}, seed {args.seed}, samples {detail['samples']}")
    if "raw_s" in detail:
        print("raw medians in seconds, before calibration (information only) " + json.dumps(detail["raw_s"]))
    print("environment " + json.dumps(detail["environment"], sort_keys=True))
    print("output digests (information only) " + json.dumps({k: (v or "")[:16] for k, v in tally.reference.items()}))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for key in sorted(metrics):
        value = metrics[key]
        print(f"  {key:32s} {value:>16{'d' if isinstance(value, int) else '.6f'}} {units[key]}")
    for key, value in extras.items():
        print(f"  {key:32s} {value:>16.6f} s")
    print(f"  {'failed_frac':32s} {failed_frac:>16.6f} ratio ({tally.failed}/{tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
