"""What the runs reach: every function in `src/mmimo` is called by a run of a
bundled config, or is on `ALLOWED` with the reason it stays.

One fresh interpreter runs every bundled config through the CLI under
`sys.setprofile` and `threading.setprofile`: `validate`, then `run` at a few
trials on two workers, and the `--channels` path of each experiment that
accepts a measured set. The measured set is written with
`channel.save_measured_channels`, the writer of the format the runs read. A
fresh interpreter keeps test order from changing what counts as reached.

The test fails on a function that `ast` finds in the package and no run
called, unless `ALLOWED` lists it. It also fails on a stale entry: one that a
run now reaches, that names no function, or that is marked `SPANS_TARGET` but
is not in `perfbench/spans.py`'s `TARGETS`.

    PYTHONPATH=src python tests/test_reach.py

prints the functions no run reaches, with their line counts and reasons.
"""

import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mmimo"
SPANS_PATH = ROOT / "perfbench" / "spans.py"

VALIDATOR = "validator of the closed-form bounds: mc-bounds and criterion 7 use it, and ROADMAP item 6 gives it a run"
SPANS_TARGET = "perfbench/spans.py target"

# "module.qualname" of each function that no run reaches -> why it stays.
ALLOWED = {
    "capacity.SystemParams.pilot_snr": VALIDATOR,
    "capacity.simulate_ul_rates": VALIDATOR,
    "capacity.simulate_dl_rates": VALIDATOR,
    "capacity._statistic_pieces": VALIDATOR,
    "capacity._ul_rate_sums": VALIDATOR,
    "capacity._lower_inverse": VALIDATOR,
    "capacity.ul_rate_bound": VALIDATOR,
    "capacity.dl_mrt_sinr": VALIDATOR,
    "numerics.draw_complex_gaussian": f"{SPANS_TARGET}: the per-matrix i.i.d. draw of the Library block",
    "transceiver.evaluate_downlink": f"{SPANS_TARGET}: the per-matrix downlink of the Library block",
    "transceiver.budget_for_mean_desired_snr": f"{SPANS_TARGET}: the Library block's power budget",
    "channel.place_terminals": f"{SPANS_TARGET}: one drop's ground radii, as the rural blocks draw them",
    "channel.build_large_scale_profile": f"{SPANS_TARGET}: one drop's betas, as the rural blocks form them",
    "transceiver.LinkReport.sum_rate": "the Library block and the criterion-2 reference read it",
    "errors.ParseError.__init__": "an error path: only a malformed measured set raises it",
    "experiments.Table.rows": "the benchmark's checks and the tests read a table's rows; emission reads its groups",
}


def package_functions() -> dict[str, tuple[Path, int, int]]:
    """{"module.qualname": (file, first line, line count)} of every `def` in
    the package, nested ones as "outer.<locals>.inner". The first line is
    that of the first decorator, as a code object's `co_firstlineno`."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{module}.{prefix}{child.name}"] = (path, first, child.end_lineno - first + 1)
                visit(child, module, path, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.resolve(), "")
    return found


def trace_runs(workdir: Path) -> list[tuple[str, int]]:
    """Run every bundled config through the CLI under the profile hooks and
    return the (file, first line) of each package function called."""
    import threading

    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    threading.setprofile(record)
    try:
        import numpy as np
        from click.testing import CliRunner

        from mmimo.channel import save_measured_channels
        from mmimo.cli import main
        from mmimo.experiments import EXPERIMENTS

        channels = workdir / "measured.cfcsv"
        parts = np.random.default_rng(2013).standard_normal((2, 3, 16, 4))
        save_measured_channels(parts[0] + 1j * parts[1], channels)
        runner = CliRunner()
        for config in sorted((ROOT / "configs").glob("*.ini")):
            name = config.stem
            runs = [["validate"], ["run", "--trials", "3", "--workers", "2"]]
            if EXPERIMENTS[name].measured:
                runs.append(["run", "--channels", str(channels)])
            for index, args in enumerate(runs):
                if args[0] == "run":
                    args = args + ["--out", str(workdir / f"{name}-{index}")]
                outcome = runner.invoke(main, [args[0], "--config", str(config), *args[1:]])
                if outcome.exit_code != 0:
                    raise SystemExit(f"{name} {' '.join(args)}: exit {outcome.exit_code}: {outcome.output}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sorted({(code.co_filename, code.co_firstlineno) for code in called})


@functools.cache
def reach() -> tuple[dict, set]:
    """(package_functions(), the names a fresh interpreter's runs reached)."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, __file__, "--trace"], env=env, capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stderr
    called = {(str(Path(file).resolve()), line) for file, line in json.loads(done.stdout)}
    functions = package_functions()
    return functions, {name for name, (path, line, _) in functions.items() if (str(path), line) in called}


def spans_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{module_name}.{attr}" for module_name, attr, _, _ in module.TARGETS}


def test_every_function_is_reached_or_allowed():
    functions, reached = reach()
    unlisted = sorted(set(functions) - reached - set(ALLOWED))
    assert not unlisted, f"no run reaches these, and ALLOWED does not list them: {', '.join(unlisted)}"


def test_allow_list_has_no_stale_entry():
    functions, reached = reach()
    missing = sorted(set(ALLOWED) - set(functions))
    assert not missing, f"ALLOWED names functions that do not exist: {', '.join(missing)}"
    now_reached = sorted(set(ALLOWED) & reached)
    assert not now_reached, f"ALLOWED lists functions that a run reaches: {', '.join(now_reached)}"
    marked = {name for name, reason in ALLOWED.items() if reason.startswith(SPANS_TARGET)}
    untargeted = sorted(marked - spans_targets())
    assert not untargeted, f"marked {SPANS_TARGET!r} but not in its TARGETS: {', '.join(untargeted)}"


def test_every_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


if __name__ == "__main__":
    if sys.argv[1:] == ["--trace"]:
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(trace_runs(Path(work))))
        sys.exit(0)
    functions, reached = reach()
    unreached = sorted(set(functions) - reached)
    total = sum(functions[name][2] for name in unreached)
    print(f"unreached ({len(unreached)} of {len(functions)} functions, {total} lines):")
    for name in unreached:
        print(f"  {name} ({functions[name][2]} lines): {ALLOWED.get(name, 'NOT ALLOWED')}")
    for name in sorted(set(ALLOWED) - set(unreached)):
        print(f"  stale: {name} ({'reached' if name in functions else 'no such function'})")
