"""The benchmark's workloads: inputs generated from the workload seed, one
repetition of each workload against the public ``mmimo`` API, and the output
checks that do not depend on the random streams.

Every trial count is fixed here rather than taken from the bundled configs or
``--paper-scale``, so edits to ``configs/`` never change what is measured.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

# Population median of the 4x4 i.i.d. complex singular-value spread, in dB.
SPREAD_4X4_MEDIAN_DB = 17.4
# Standard deviations of an order-statistic confidence band for a median.
MEDIAN_BAND_SIGMAS = 4.0
# A pilot-contamination log-log slope may miss 1 by the acceptance suite's
# window, which covers the finite-M offset, plus this many Monte Carlo
# standard errors for the smaller trial count used here.
SLOPE_WINDOW = 0.05
SLOPE_SIGMAS = 4.0
# The rural scenario serves every terminal but the weakest 5% of 1000.
RURAL_SERVED = 950
# ZF must null the co-scheduled terminals at least this far below the grid mean.
ZF_NULL_DB = -60.0
# Monte Carlo slack on "closed-form bound <= simulated rate", as in acceptance
# criterion 7: the bounds sit within half a percent of the simulated means.
MC_SLACK = 1.01

# Sizes are per repetition. Each repetition takes about a second, so that one
# run holds a dozen or more repetitions per setting and reports their median.
#
# iid-trials: thousands of tiny trials (M <= 128 with K = 4, or K = 1 up to
# M = 10,000) whose per-trial fixed costs dominate: Seed.generator, small SVDs
# and precoders, and the thread-pool handoff. No ray sums run here.
IID_TRIALS = {
    "svd-spread": 250,
    "mrt-sumrate": 125,
    "pilot-contamination": 100,
    "rural-broadband": 50,
    "ee-se-tradeoff": 1,
}
IID_PARAMS = {
    "svd-spread": "m_list = 4,32,128\nk = 4\n",
    "mrt-sumrate": "m_list = 4,8,16,32,64,128\nk = 4\ntarget_snr_db = 10.0\n",
    "pilot-contamination": (
        "m_list = 16,64,256,1024\nm_limit = 10000\nbeta_home = 1.0\n"
        "betas_contaminating = 1.0\nrho_pilot = 1.0\ntau = 16\n"
    ),
    "rural-broadband": "",
    "ee-se-tradeoff": "rho_points = 201\nm_massive = 100\nk_massive = 40\n",
}
# ray-field: the bundled focusing-map geometry (M = 64, 400 scatterers, 41x41
# grid) with both schemes; a few heavy trials, each a ray sum and a matmul.
RAY_TRIALS = 4
RAY_GRID = 41
RAY_PARAMS = f"m = 64\nn_scatterers = 400\nscheme = both\ngrid_points = {RAY_GRID}\ngrid_extent_lambda = 400.0\n"

# mc-bounds: the capacity validators and their closed forms at M = 100, K = 40,
# one 250-draw batch each: bulk random draws, einsum reductions, per-draw pinv.
# No trial workers; only the BLAS thread setting differs between wall_s and
# wall_1t_s.
MC_M = 100
MC_K = 40
MC_DRAWS = 250
MC_COHERENCE = 196
MC_RHO_UL = 1.0
MC_RHO_DL = 10.0
VALIDATORS = ("ul-mrc", "ul-zf", "dl-mrt")

WORKLOADS = ("iid-trials", "ray-field", "mc-bounds")
# Workloads whose trials run on the trial workers. At the wall_s setting they
# get one BLAS thread per worker, so workers x BLAS threads never exceeds the
# cores; mc-bounds runs no trial workers and gets nproc BLAS threads instead.
POOLED = frozenset({"iid-trials", "ray-field"})


def derived_seed(seed: int, label: str) -> int:
    """Master seed of one experiment, a pure function of the workload seed."""
    return random.Random(f"{seed}:{label}").getrandbits(63)


def config_texts(workload: str, seed: int) -> dict[str, str]:
    """INI text of every experiment the workload runs, keyed by experiment."""
    if workload == "iid-trials":
        specs = {name: (IID_TRIALS[name], IID_PARAMS[name]) for name in IID_TRIALS}
    elif workload == "ray-field":
        specs = {"focusing-map": (RAY_TRIALS, RAY_PARAMS)}
    else:
        return {}
    return {
        name: (
            f"[experiment]\nexperiment = {name}\nseed = {derived_seed(seed, name)}\n"
            f"trials = {trials}\noutput_dir = out/{name}\n\n[{name}]\n{params}"
        )
        for name, (trials, params) in specs.items()
    }


@dataclass(frozen=True)
class McInputs:
    """Inputs of the mc-bounds workload."""

    betas: np.ndarray  # slow-fading profile, strongest terminal first
    master: int  # master seed of the Monte Carlo draws


def mc_inputs(seed: int) -> McInputs:
    rng = np.random.default_rng(derived_seed(seed, "mc-bounds"))
    betas = np.sort(rng.uniform(0.1, 1.0, MC_K))[::-1].copy()
    return McInputs(betas=betas, master=derived_seed(seed, "mc-seed"))


def prepare(workload: str, seed: int, workers: int):
    """Parse the workload's inputs (the part timed as set-up).

    Returns the list of operations; the INI files are written to the
    current directory and parsed through ``mmimo.config.parse_config``.
    """
    from mmimo import capacity, config

    if workload == "mc-bounds":
        inputs = mc_inputs(seed)
        params = capacity.SystemParams(
            m=MC_M, k=MC_K, tau=MC_K, coherence_symbols=MC_COHERENCE,
            rho_ul=MC_RHO_UL, rho_dl=MC_RHO_DL,
        )
        return [(name, (params, inputs)) for name in VALIDATORS]
    ops = []
    for name, text in config_texts(workload, seed).items():
        path = f"{name}.ini"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append((name, config.parse_config(path, workers=workers)))
    return ops


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def execute(name: str, payload):
    """Run one operation and produce its outputs (the timed part)."""
    if name in VALIDATORS:
        return _run_validator(name, *payload)
    from mmimo import experiments

    result = experiments.run(payload)
    experiments.emit_tables(result, payload.output_dir)
    return result


def _run_validator(name: str, params, inputs: McInputs):
    """Simulated per-terminal rates and the matching closed-form bounds."""
    from mmimo import capacity
    from mmimo.numerics import Seed

    seed = Seed(inputs.master).child(VALIDATORS.index(name))
    if name == "dl-mrt":
        eta = np.full(MC_K, 1.0 / MC_K)
        simulated = capacity.simulate_dl_rates(params, inputs.betas, eta, seed, MC_DRAWS)
        gammas = capacity.estimate_quality(inputs.betas, params.pilot_snr, params.tau)
        sinr = capacity.dl_mrt_sinr(MC_M, params.rho_dl, inputs.betas, gammas, eta)
        return simulated, params.overhead_prefactor * np.log2(1.0 + sinr)
    scheme = name[3:]
    simulated = capacity.simulate_ul_rates(params, scheme, inputs.betas, seed, MC_DRAWS)
    return simulated, capacity.ul_rate_bound(params, scheme, inputs.betas)


def inspect_outputs(name: str, payload, outcome) -> tuple[str, list[str]]:
    """Digest of an operation's outputs and the checks it failed."""
    if name in VALIDATORS:
        simulated, bound = outcome
        failures = []
        if not np.all(bound <= MC_SLACK * simulated):
            worst = int(np.argmax(bound - MC_SLACK * simulated))
            failures.append(
                f"{name}: closed-form bound {bound[worst]:.6g} exceeds simulated rate "
                f"{simulated[worst]:.6g} at terminal {worst}"
            )
        return _digest_arrays(simulated, bound), failures
    return _digest_dir(payload.output_dir), check_experiment(name, outcome)


def _slope_error(rows, column: int, m_values) -> float:
    """Monte Carlo standard error of the least-squares slope of log(mean power)
    against log(M), from the per-trial spread of the powers at each M."""
    x = np.log(np.asarray(m_values, dtype=float))
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    variance = 0.0
    for w, m in zip(weights, m_values):
        v = np.array([row[column] for row in rows if row[0] == m])
        variance += w**2 * v.var(ddof=1) / (v.size * v.mean() ** 2)
    return math.sqrt(variance)


def check_experiment(name: str, result) -> list[str]:
    """Checks on one experiment's result that hold for every seed."""
    s = result.summary
    failures = []
    if name == "svd-spread":
        spreads = np.sort([row[3] for row in result.tables["spread"].rows if row[0] == 4])
        n = spreads.size
        half = MEDIAN_BAND_SIGMAS * math.sqrt(n) / 2.0
        lo, hi = spreads[max(int(n / 2 - half), 0)], spreads[min(int(math.ceil(n / 2 + half)), n - 1)]
        if not lo <= SPREAD_4X4_MEDIAN_DB <= hi:
            failures.append(f"svd-spread: 4x4 median band [{lo:.3f}, {hi:.3f}] dB excludes {SPREAD_4X4_MEDIAN_DB}")
    elif name == "mrt-sumrate":
        ceiling = s["interference_free_ceiling_bps_hz"]
        over = {m: r for m, r in s["mean_sum_rate_bps_hz"].items() if not r <= ceiling}
        if over:
            failures.append(f"mrt-sumrate: mean sum rate above the interference-free ceiling at M={over}")
    elif name == "pilot-contamination":
        rows = result.tables["contamination"].rows
        m_values = result.resolved_config["params"]["m_list"]
        for key, column in (("desired_power_loglog_slope", 2), ("directed_power_loglog_slope", 3)):
            window = SLOPE_WINDOW + SLOPE_SIGMAS * _slope_error(rows, column, m_values)
            if not abs(s[key] - 1.0) <= window:
                failures.append(f"pilot-contamination: {key} = {s[key]:.4f}, want 1 +/- {window:.4f}")
    elif name == "rural-broadband":
        if s["served_per_drop"] != RURAL_SERVED:
            failures.append(f"rural-broadband: serves {s['served_per_drop']}, want {RURAL_SERVED}")
    elif name == "focusing-map":
        for table in ("focusing_map_mrt", "focusing_map_zf"):
            rows = len(result.tables[table].rows)
            if rows != RAY_GRID**2:
                failures.append(f"focusing-map: {table} has {rows} rows, want {RAY_GRID**2}")
        nulls = s["zf"]["terminal_power_db"][1:]
        if not all(v <= ZF_NULL_DB for v in nulls):
            failures.append(f"focusing-map: ZF leaves co-scheduled terminals at {nulls} dB, want <= {ZF_NULL_DB}")
        if not s["mrt"]["target_gain_db"] > 0.0:
            failures.append(f"focusing-map: MRT target gain {s['mrt']['target_gain_db']:.2f} dB is not positive")
    return failures


def run_once(ops, around=None) -> dict:
    """One repetition of a workload: wall time and per-operation times, then
    output digests and failed checks. An exception fails its operation.

    ``around(fn)`` runs the timed part; the traced run passes its root span.
    """
    outcomes, times = {}, {}

    def body():
        for name, payload in ops:
            t0 = time.perf_counter()
            try:
                outcomes[name] = execute(name, payload)
            except Exception as exc:  # a failed operation is recorded, not fatal
                outcomes[name] = exc
            times[name] = time.perf_counter() - t0

    start = time.perf_counter()
    if around is None:
        body()
    else:
        around(body)
    wall = time.perf_counter() - start
    digests, failures = {}, {}
    for name, payload in ops:
        outcome = outcomes[name]
        if isinstance(outcome, Exception):
            digests[name], failures[name] = None, [f"{name}: {type(outcome).__name__}: {outcome}"]
        else:
            digests[name], failures[name] = inspect_outputs(name, payload, outcome)
    return {"wall_s": wall, "op_s": times, "digests": digests, "failures": failures}
