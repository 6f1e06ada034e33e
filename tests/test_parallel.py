import os
import threading
import time

from mmimo.parallel import ordered_trial_map


def test_threads_capped_at_cpu_count():
    def trial(index):
        time.sleep(0.01)
        return index, threading.get_ident()

    results = list(ordered_trial_map(trial, 8, workers=64))
    assert [index for index, _ in results] == list(range(8))
    assert len({ident for _, ident in results}) <= os.cpu_count()


def test_threads_capped_at_cpus_the_process_may_use(monkeypatch):
    # A process pinned to one CPU (taskset, a cpuset) runs its trials in order on the calling thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    caller = threading.get_ident()
    results = list(ordered_trial_map(lambda index: (index, threading.get_ident()), 6, workers=4))
    assert results == [(index, caller) for index in range(6)]
