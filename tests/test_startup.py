"""The start-up contract: `import mmimo.cli` and a parsed config load only what
every run needs, and each deferred module loads on first use.

Every check runs in a fresh interpreter, since this test process has long
since imported every module. The interpreters run at once, so the file costs
about the time of the slowest one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmimo.channel import save_measured_channels
from mmimo.numerics import Seed, draw_complex_gaussian

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEFERRED = ("mmimo.transceiver", "mmimo.pilots", "mmimo.channel", "mmimo.parallel", "concurrent.futures")

_CONTRACT_SCRIPT = """
import json, sys
import mmimo.cli
from mmimo.config import parse_config
parse_config(sys.argv[1])
report = {"after_parse": [name for name in json.loads(sys.argv[2]) if name in sys.modules]}
from mmimo.parallel import ordered_trial_map
report["one_thread"] = list(ordered_trial_map(lambda i: i * i, 3, workers=1))
report["pool_after_one_thread"] = "concurrent.futures" in sys.modules
import mmimo
report["transceiver"] = mmimo.transceiver.__name__
from mmimo import channel
report["channel"] = channel.__name__
try:
    mmimo.nosuch
except AttributeError as exc:
    report["nosuch"] = str(exc)
print(json.dumps(report))
"""

# A tiny run of each path that imports a deferred module on first use:
# (config body, extra CLI arguments, files written).
_PATHS = {
    "focusing-map": (
        "trials = 4\n\n[focusing-map]\nm = 8\nn_scatterers = 20\ngrid_points = 3\n",
        ["--workers", "2"],
        {"focusing_map_mrt.csv", "focusing_map_zf.csv", "summary.json"},
    ),
    "pilot-contamination": (
        "trials = 3\n\n[pilot-contamination]\nm_list = 4,8\nm_limit = 16\ntau = 4\n",
        [],
        {"contamination.csv", "summary.json"},
    ),
    "rural-broadband": ("trials = 1\n", [], {"rural.csv", "summary.json"}),
    "svd-spread": ("trials = 1\n", ["--channels", "set.cfcsv"], {"spread.csv", "summary.json"}),
}


def _start(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """Start every fresh interpreter, then collect (returncode, stdout, stderr, workdir) by name."""
    root = tmp_path_factory.mktemp("startup")
    save_measured_channels(draw_complex_gaussian(Seed(4), 6, 2, 3), root / "set.cfcsv")
    (root / "svd.ini").write_text("[experiment]\nexperiment = svd-spread\n")
    started = {"contract": (_start(["-c", _CONTRACT_SCRIPT, "svd.ini", json.dumps(DEFERRED)], root), root)}
    for name, (body, extra, _) in _PATHS.items():
        (root / f"{name}.ini").write_text(f"[experiment]\nexperiment = {name}\n{body}")
        args = ["-m", "mmimo.cli", "run", "--config", f"{name}.ini", "--out", f"out-{name}", *extra]
        started[name] = (_start(args, root), root / f"out-{name}")
    return {name: (*proc.communicate(timeout=120), proc.returncode, out) for name, (proc, out) in started.items()}


def test_cli_import_and_parse_leave_run_modules_unloaded(fresh_runs):
    stdout, stderr, code, _ = fresh_runs["contract"]
    assert code == 0, stderr
    report = json.loads(stdout)
    assert report["after_parse"] == []
    assert report["one_thread"] == [0, 1, 4]
    assert not report["pool_after_one_thread"]
    assert report["transceiver"] == "mmimo.transceiver"
    assert report["channel"] == "mmimo.channel"
    assert report["nosuch"] == "module 'mmimo' has no attribute 'nosuch'"


@pytest.mark.parametrize("name", sorted(_PATHS))
def test_each_deferred_path_runs_in_a_fresh_interpreter(fresh_runs, name):
    _, stderr, code, out = fresh_runs[name]
    assert code == 0, stderr
    assert stderr == ""
    assert {path.name for path in out.iterdir()} == _PATHS[name][2]
