"""Span tracing for the benchmark's traced run.

The tracer rebinds each public ``mmimo`` function listed in ``TARGETS`` to a
wrapper that records a span (name, thread, start, end, parent span, trial
index, counts). The name is rebound in every ``mmimo`` module that imported
it, and ``Seed.generator`` is wrapped on the class. Nothing inside ``src/``
changes; ``uninstall`` restores the original objects.

Self times are attributed by a sweep over all threads: at each instant the
elapsed time is split evenly between the innermost spans of the threads that
are running, and a thread whose innermost span is ``ordered_trial_map`` is
waiting on its pool whenever a pool thread has a trial open. So the self
times of one traced repetition add up exactly to its wall time.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

ROOT = "experiments.run_self"
MAP = "parallel.trial_map"
TRIAL_COUNTS = {"parallel.trials": 1}


def _ray_counts(args, result):
    scene = args["scene"]
    p, m = result.shape
    s = scene.scatterer_positions.shape[0]
    # Computed: one phasor per leg of every ray, and the two complex legs
    # plus the P x M result that the ray sum materialises.
    return {
        "channel.ray_sum_calls": 1,
        "channel.ray_exp_evals": (p + m) * s,
        "channel.ray_bytes": 16 * ((p + m) * s + p * m),
    }


def _emit_counts(args, result):
    return {
        "experiments.emit_rows": sum(len(t.rows) for t in args["result"].tables.values()),
        "experiments.emit_bytes": sum(os.path.getsize(path) for path in result),
    }


# (module, attribute, span name or function of the bound arguments, counts:
# None, a constant dict per call, or a function of the bound arguments and result)
TARGETS = [
    ("numerics", "Seed.generator", "numerics.seed_generator", {"numerics.seed_generator_calls": 1}),
    (
        "numerics",
        "draw_complex_gaussian",
        "numerics.gaussian_draw",
        lambda a, r: {"numerics.gaussian_bytes": r.nbytes},  # computed: 16 * rows * cols
    ),
    ("numerics", "singular_values", "numerics.svd", {"numerics.svd_calls": 1}),
    ("numerics", "singular_value_spread_db", "numerics.svd", None),
    ("numerics", "pseudo_inverse", "numerics.pinv", {"numerics.pinv_calls": 1}),
    ("channel", "scatterer_channel_matrix", "channel.ray_sum", _ray_counts),
    ("channel", "redraw_scatterers", "channel.scatter_redraw", None),
    ("channel", "place_terminals", "channel.large_scale", {"channel.large_scale_calls": 1}),
    ("channel", "build_large_scale_profile", "channel.large_scale", {"channel.large_scale_calls": 1}),
    ("transceiver", "mrt_precoder", "transceiver.precoder", {"transceiver.precoder_calls": 1}),
    ("transceiver", "zf_precoder", "transceiver.precoder", {"transceiver.precoder_calls": 1}),
    ("transceiver", "evaluate_downlink", "transceiver.link_eval", None),
    ("transceiver", "budget_for_mean_desired_snr", "transceiver.link_eval", None),
    ("transceiver", "field_map", "transceiver.field_map_self", None),
    (
        "pilots",
        "simulate_contamination",
        "pilots.contamination",
        lambda a, r: {"pilots.contamination_trials": a["trials"]},
    ),
    (
        "capacity",
        "simulate_ul_rates",
        lambda a: f"capacity.ul_{a['scheme']}",
        lambda a, r: {"capacity.draws": a["n_draws"]},
    ),
    ("capacity", "simulate_dl_rates", "capacity.dl_mrt", lambda a, r: {"capacity.draws": a["n_draws"]}),
    ("capacity", "ul_rate_bound", "capacity.bound", None),
    ("capacity", "dl_mrt_sinr", "capacity.bound", None),
    ("capacity", "ee_se_sweep", "capacity.bound", None),
    ("capacity", "maxmin_power_control", "capacity.maxmin", {"capacity.maxmin_calls": 1}),
    ("capacity", "rural_broadband", "capacity.rural_self", None),
    ("parallel", "ordered_trial_map", MAP, None),
    ("experiments", "emit_tables", "experiments.emit", _emit_counts),
]

# Every span name above plus the root, so that each workload reports the same keys.
LAYERS = sorted({t[2] for t in TARGETS if isinstance(t[2], str)} | {"capacity.ul_mrc", "capacity.ul_zf", ROOT})
COUNTS = sorted(
    {
        "numerics.seed_generator_calls", "numerics.gaussian_bytes", "numerics.svd_calls",
        "numerics.pinv_calls", "channel.ray_sum_calls", "channel.ray_exp_evals", "channel.ray_bytes",
        "channel.large_scale_calls", "transceiver.precoder_calls", "pilots.contamination_trials",
        "capacity.draws", "capacity.maxmin_calls", "experiments.emit_rows", "experiments.emit_bytes",
        "parallel.trials",
    }
)


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for the root span
    trial: int  # -1 outside a trial
    counts: dict | None


class _Arguments:
    """A call's arguments by parameter name, bound only when first read."""

    __slots__ = ("signature", "args", "kwargs", "bound")

    def __init__(self, signature, args, kwargs):
        self.signature, self.args, self.kwargs, self.bound = signature, args, kwargs, None

    def __getitem__(self, key):
        if self.bound is None:
            bound = self.signature.bind(*self.args, **self.kwargs)
            bound.apply_defaults()
            self.bound = bound.arguments
        return self.bound[key]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self):
        local = self._local
        try:
            local.stack
        except AttributeError:
            local.stack = []  # (span id, name)
            local.trial = -1
        return local

    def _open(self, name: str, parent: int | None = None):
        state = self._state()
        if parent is None:
            parent = state.stack[-1][0] if state.stack else 0
        sid = next(self._ids)
        state.stack.append((sid, name))
        return state, sid, parent, time.perf_counter_ns()

    def _close(self, opened, name: str, counts=None, bound=None, result=None):
        state, sid, parent, start = opened
        end = time.perf_counter_ns()
        state.stack.pop()
        if callable(counts):
            counts = counts(bound, result) if result is not None else None
        self.spans.append(Span(sid, name, threading.get_ident(), start, end, parent, state.trial, counts))

    def root(self, fn):
        """Run ``fn()`` inside the root span and return its result."""
        opened = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(opened, ROOT)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, counts):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = _Arguments(signature, args, kwargs)
            span_name = name(bound) if callable(name) else name
            opened = tracer._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(opened, span_name, counts, bound, result)

        return traced

    def _wrap_trial_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(trial_fn, n_trials, workers=1):
            opened = tracer._open(MAP)
            state, map_id = opened[0], opened[1]
            caller = state.stack[-2][1] if len(state.stack) > 1 else ROOT

            def trial(index):
                inner = tracer._open(caller, parent=map_id)
                inner[0].trial = index
                try:
                    return trial_fn(index)
                finally:
                    tracer._close(inner, caller, TRIAL_COUNTS)
                    inner[0].trial = -1

            try:
                yield from fn(trial, n_trials, workers)
            finally:
                tracer._close(opened, MAP)

        return traced

    def install(self) -> None:
        import mmimo

        modules = [importlib.import_module(f"mmimo.{m}") for m in
                   ("numerics", "channel", "transceiver", "pilots", "capacity", "parallel", "experiments", "cli")]
        modules.append(mmimo)
        for module_name, attr, name, counts in TARGETS:
            owner = importlib.import_module(f"mmimo.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap_trial_map(original) if name == MAP else self._wrap(original, name, counts)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "thread", "start_ns", "end_ns", "parent", "trial"))
            for s in self.spans:
                writer.writerow((s.id, s.name, s.thread, s.start, s.end, s.parent, s.trial))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, counts, and thread-pool figures of one traced repetition."""
    self_s = defaultdict(float)
    wait_s = 0.0
    events = []
    for s in spans:
        if s.end > s.start:
            events.append((s.start, 1, s.id, s))
            events.append((s.end, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list[Span]] = defaultdict(list)
    prev = None
    for t, kind, _, span in events:
        if prev is not None and t > prev:
            dt = (t - prev) / 1e9
            busy = [stack[-1] for stack in stacks.values() if stack]
            active = [top for top in busy if not (top.name == MAP and len(busy) > 1)]
            if len(active) < len(busy):
                wait_s += dt
            for top in active:
                self_s[top.name] += dt / len(active)
        prev = t
        if kind == 1:
            stacks[span.thread].append(span)
        else:
            stacks[span.thread].remove(span)

    counts = Counter()
    for s in spans:
        if s.counts:
            counts.update(s.counts)
    maps = {s.id: s for s in spans if s.name == MAP}
    trial_threads = defaultdict(set)
    busy_ns = 0
    for s in spans:
        if s.parent in maps:
            trial_threads[s.parent].add(s.thread)
            busy_ns += s.end - s.start
    capacity_ns = sum((m.end - m.start) * len(trial_threads[m.id]) for m in maps.values())
    roots = [s for s in spans if s.parent == 0]

    metrics = {f"{layer}_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update({key: int(counts.get(key, 0)) for key in COUNTS})
    metrics["parallel.threads"] = max((len(v) for v in trial_threads.values()), default=0)
    metrics["parallel.busy_frac"] = busy_ns / capacity_ns if capacity_ns else 0.0
    metrics["parallel.wait_s"] = wait_s
    metrics["trace.wall_s"] = sum(r.end - r.start for r in roots) / 1e9
    metrics["trace.spans"] = len(spans)
    return metrics
