"""Golden output digests: every output byte of the bundled configs, pinned.

Each run below goes through the CLI at a small fixed trial count. The
fixture `golden_digests.json` holds the SHA-256 of each CSV it writes and of
its summary.json without the `output_dir` and `channels_path` lines (they
name where the run wrote and read, not what it computed). It also holds the
SHA-256 of the rates of the three Monte Carlo validators at M = 100, K = 40
and one 250-draw block, which no bundled config runs. A change that moves no
stream must leave every digest as it is.

A change that does move a stream regenerates the fixture on purpose:

    PYTHONPATH=src python tests/test_golden_digests.py

which prints the digests that moved against the old fixture before it
writes the new one, and its change log says which outputs moved and why.
The fixture also records the numpy and BLAS build it was taken on, and the
OpenBLAS kernel that build picked for this CPU at load time: the float32 ray
phasors and the BLAS products may round differently on another build, CPU or
kernel, so on another stamp the test fails and names both stamps.
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mmimo import capacity
from mmimo.cli import main
from mmimo.experiments import EXPERIMENTS
from mmimo.numerics import Seed

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

# The capacity validators at M = 100, K = 40 in one VALIDATOR_BLOCK of draws.
VALIDATOR_PARAMS = dict(m=100, k=40, tau=40, coherence_symbols=196, rho_ul=1.0, rho_dl=10.0)
VALIDATOR_DRAWS = 250
VALIDATORS = ("ul-mrc", "ul-zf", "dl-mrt")

# Lines of summary.json that name paths rather than results.
_PATH_KEYS = ('"output_dir":', '"channels_path":')


def blas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs, such as "SkylakeX", read from
    the loaded library; None where there is no such library or symbol. The
    build's "openblas configuration" names the build target, not this kernel,
    which OpenBLAS picks per CPU (or by OPENBLAS_CORETYPE) when it loads."""
    package = Path(np.__file__).resolve().parent
    libraries = [*package.parent.glob("numpy.libs/libscipy_openblas64_*"), *package.glob(".dylibs/libscipy_openblas64_*")]
    for path in sorted(libraries):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def stamp() -> dict:
    """The numpy version, BLAS build and run-time kernel, and SIMD extensions the outputs depend on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")} | {"core": blas_core()},
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


def validator_digests() -> dict:
    """{validator: {"rates": sha256}} of the simulated per-terminal rates."""
    params = capacity.SystemParams(**VALIDATOR_PARAMS)
    k = VALIDATOR_PARAMS["k"]
    betas = np.linspace(1.0, 0.1, k)
    digests = {}
    for index, name in enumerate(VALIDATORS):
        seed = Seed(2013).child(index)
        if name == "dl-mrt":
            rates = capacity.simulate_dl_rates(params, betas, np.full(k, 1.0 / k), seed, VALIDATOR_DRAWS)
        else:
            rates = capacity.simulate_ul_rates(params, name[3:], betas, seed, VALIDATOR_DRAWS)
        digests[name] = {"rates": hashlib.sha256(rates.tobytes()).hexdigest()}
    return digests


def compute_digests(workdir: Path, workers: int = 1) -> dict:
    """Run every entry of RUNS into `workdir` and the validators, and return
    {run: {file: sha256}}."""
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
    return digests | validator_digests()


def test_runs_cover_the_experiment_table():
    # A run of every experiment, and a run on the measured set of every one that accepts it.
    measured = {f"{name}-channels" for name, spec in EXPERIMENTS.items() if spec.measured}
    assert set(EXPERIMENTS) | measured <= set(RUNS)
    assert {name for name, (_, _, reads) in RUNS.items() if reads} == measured


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
    moved = moved_digests(compute_digests(tmp_path, workers), golden["digests"])
    assert not moved, f"outputs moved from the golden digests: {', '.join(moved)}"


def moved_digests(digests: dict, golden: dict) -> list[str]:
    """The "run/file" names whose digest differs between two digest sets,
    or that only one of them has."""
    return [
        f"{name}/{file}"
        for name in sorted(set(digests) | set(golden))
        for file in sorted(set(digests.get(name, {})) | set(golden.get(name, {})))
        if digests.get(name, {}).get(file) != golden.get(name, {}).get(file)
    ]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        fixture = {"stamp": stamp(), "digests": compute_digests(Path(work))}
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {"digests": {}}
    moved = moved_digests(fixture["digests"], old["digests"])
    print(f"moved ({len(moved)}): {', '.join(moved) or 'none'}", file=sys.stderr)
    FIXTURE.write_text(json.dumps(fixture, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
