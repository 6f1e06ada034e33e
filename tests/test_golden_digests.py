"""Golden output digests: every output byte of the bundled configs, pinned.

Each run below goes through the CLI at a small fixed trial count. The
fixture `golden_digests.json` holds the SHA-256 of each CSV it writes and of
its summary.json without the `output_dir` and `channels_path` lines (they
name where the run wrote and read, not what it computed). A change that
moves no stream must leave every digest as it is.

A change that does move a stream regenerates the fixture on purpose:

    PYTHONPATH=src python tests/test_golden_digests.py

and its change log says which outputs moved and why. The fixture also
records the numpy and BLAS build it was taken on: the float32 ray phasors
and the BLAS products may round differently on another build or CPU, so on
another stamp the test fails and names both stamps.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mmimo.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "golden_digests.json"

# Name -> (bundled config, extra CLI arguments, whether the run reads the measured set).
RUNS = {
    "svd-spread": ("svd-spread.ini", ["--trials", "100"], False),
    "svd-spread-channels": ("svd-spread.ini", [], True),
    "mrt-sumrate": ("mrt-sumrate.ini", ["--trials", "100"], False),
    "mrt-sumrate-channels": ("mrt-sumrate.ini", [], True),
    "focusing-map": ("focusing-map.ini", ["--trials", "20"], False),
    "ee-se-tradeoff": ("ee-se-tradeoff.ini", [], False),
    "pilot-contamination": ("pilot-contamination.ini", ["--trials", "50"], False),
    "rural-broadband": ("rural-broadband.ini", ["--trials", "5"], False),
}

# Lines of summary.json that name paths rather than results.
_PATH_KEYS = ('"output_dir":', '"channels_path":')


def stamp() -> dict:
    """The numpy version, BLAS build and SIMD extensions the outputs depend on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd": config["SIMD Extensions"],
    }


def write_measured_set(path: Path) -> None:
    """A fixed CFCSV set of 8 matrices of 16 x 4, written without the library."""
    values = np.random.default_rng(2013).standard_normal((8 * 16, 8))
    lines = ["16,4,8"] + [",".join(map(repr, row.tolist())) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        lines = data.decode("utf-8").split("\n")
        data = "\n".join(ln for ln in lines if not ln.strip().startswith(_PATH_KEYS)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def compute_digests(workdir: Path, workers: int = 1) -> dict:
    """Run every entry of RUNS into `workdir` and return {run: {file: sha256}}."""
    channels = workdir / "measured.cfcsv"
    write_measured_set(channels)
    runner = CliRunner()
    digests = {}
    for name, (config, extra, measured) in RUNS.items():
        out = workdir / name
        args = ["run", "--config", str(ROOT / "configs" / config), "--out", str(out), "--workers", str(workers)]
        args += extra + (["--channels", str(channels)] if measured else [])
        outcome = runner.invoke(main, args)
        assert outcome.exit_code == 0, f"{name}: exit {outcome.exit_code}: {outcome.output}"
        digests[name] = {p.name: _digest(p) for p in sorted(out.iterdir())}
    return digests


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_golden_digests(tmp_path, workers):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    here = stamp()
    if here != golden["stamp"]:
        pytest.fail(
            "golden digests were taken on another numpy/BLAS build; regenerate them deliberately.\n"
            f"fixture: {json.dumps(golden['stamp'], sort_keys=True)}\n"
            f"here:    {json.dumps(here, sort_keys=True)}"
        )
    digests = compute_digests(tmp_path, workers)
    moved = [
        f"{name}/{file}"
        for name in sorted(set(digests) | set(golden["digests"]))
        for file in sorted(set(digests.get(name, {})) | set(golden["digests"].get(name, {})))
        if digests.get(name, {}).get(file) != golden["digests"].get(name, {}).get(file)
    ]
    assert not moved, f"outputs moved from the golden digests: {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        fixture = {"stamp": stamp(), "digests": compute_digests(Path(work))}
    FIXTURE.write_text(json.dumps(fixture, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
