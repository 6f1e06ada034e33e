"""Deterministic fan-out of independent Monte Carlo trials."""

from __future__ import annotations

import os
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


def ordered_trial_map(fn: Callable[[int], T], n_trials: int, workers: int = 1) -> Iterator[T]:
    """Yield fn(0), ..., fn(n_trials - 1) in index order.

    Trials must be pure functions of their index (seeds derived per index),
    so the worker count never changes results, only wall-clock time. At most
    min(workers, n_trials, CPUs) threads are started, counting the CPUs this
    process may run on (its affinity set, which `taskset` or a cpuset
    narrows, where the platform has one). With one thread every trial runs
    on the calling thread, and `concurrent.futures` is not imported.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(workers or 1, n_trials, cpus)
    if threads <= 1:
        for i in range(n_trials):
            yield fn(i)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, range(n_trials))
