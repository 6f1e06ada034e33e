"""The benchmark's span tracer against the package: every traced name
resolves, and every argument a span name or count reads is a parameter of
its target, so a rename fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path


SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Read(Exception):
    pass


class _Recorder:
    """Stands in for a call's bound arguments, or its result, and stops the
    span name or count function at its first read, recording an argument's key."""

    def __init__(self):
        self.keys = []

    def __getitem__(self, key):
        self.keys.append(key)
        raise _Read

    def __getattr__(self, name):
        raise _Read


def target(module_name, attr):
    owner = importlib.import_module(f"mmimo.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def first_read(fn, *result):
    recorder = _Recorder()
    try:
        fn(recorder, *result)
    except _Read:
        pass
    return recorder.keys


def test_install_and_uninstall_restore_every_target():
    spans = load_spans()
    originals = [target(module, attr) for module, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [target(module, attr) for module, attr, _, _ in spans.TARGETS]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [target(module, attr) for module, attr, _, _ in spans.TARGETS] == originals


def test_arguments_read_by_spans_are_parameters_of_their_targets():
    spans = load_spans()
    read = set()
    for module, attr, name, counts in spans.TARGETS:
        parameters = inspect.signature(target(module, attr)).parameters
        keys = (first_read(name) if callable(name) else []) + (first_read(counts, _Recorder()) if callable(counts) else [])
        for key in keys:
            assert key in parameters, f"{module}.{attr} has no parameter {key!r}"
            read.add((attr, key))
    assert {
        ("simulate_ul_rates", "scheme"),
        ("simulate_ul_rates", "n_draws"),
        ("simulate_dl_rates", "n_draws"),
        ("simulate_contamination", "trials"),
        ("scatterer_channel_matrix", "scene"),
    } <= read
