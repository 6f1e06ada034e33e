"""The named batch experiments and their CSV/JSON emission.

Every experiment is a pure function of its resolved configuration: trials
derive their draws from per-index sub-seeds (one per block of trials for the
block-drawn experiments, see `numerics.bartlett_blocks`), reductions run in
trial order, and floats are written in shortest round-trip form, so reruns
are byte-identical no matter how many workers execute the trials.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__, capacity, channel, pilots, transceiver
from .config import ExperimentConfig
from .errors import DomainError
from .numerics import EmpiricalCdf, Seed, bartlett_blocks, singular_value_spread_db


@dataclass(frozen=True)
class Table:
    header: tuple[str, ...]
    rows: list[tuple]


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    summary: dict
    tables: dict[str, Table]
    resolved_config: dict
    config_hash: str
    seed: int


def run(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured experiment and collect its tables and summary."""
    runner = _RUNNERS[config.experiment]
    summary, tables = runner(config)
    return ExperimentResult(
        experiment=config.experiment,
        summary=summary,
        tables=tables,
        resolved_config=config.resolved(),
        config_hash=config.config_hash(),
        seed=config.seed,
    )


# The CSV formatter of each cell type a table holds; every cell of a column
# shares one formatter. np.float64 subclasses float, so float.__repr__ gives
# repr(float(v)).
_COLUMN_FORMATS = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__, str: str}


def _format_column(column: tuple) -> list[str]:
    """The CSV text of every cell of a column, through its one formatter."""
    (fmt,) = {_COLUMN_FORMATS[kind] for kind in set(map(type, column))}
    return list(map(fmt, column))


def emit_tables(result: ExperimentResult, output_dir) -> list[str]:
    """Write one CSV per table plus summary.json; returns the file paths.

    summary.json is serialised first, as strict JSON: a NaN or infinity in it
    raises `DomainError` before any file is written."""
    payload = {
        "experiment": result.experiment,
        "seed": result.seed,
        "config_hash": result.config_hash,
        "version": __version__,
        "resolved_config": result.resolved_config,
        "metrics": result.summary,
    }
    try:
        summary_text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"summary of {result.experiment} is not valid JSON: {exc}") from None
    os.makedirs(output_dir, exist_ok=True)
    written = []
    for name, table in result.tables.items():
        path = os.path.join(output_dir, f"{name}.csv")
        columns = [_format_column(column) for column in zip(*table.rows)]
        lines = [",".join(table.header)] + list(map(",".join, zip(*columns)))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    summary_path = os.path.join(output_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_text + "\n")
    written.append(summary_path)
    return written


# ---------------------------------------------------------------------------
# svd-spread
# ---------------------------------------------------------------------------


def _channel_groups(config: ExperimentConfig):
    """Yield (M, K, stacks) per antenna count for svd-spread and mrt-sumrate,
    each stack a (count, rows, K) array F in trial order with F^H F = H^H H:
    the measured CFCSV set as one stack of its matrices H, or for `m_list`
    entry mi the conjugate transposes of the Bartlett factors A of
    `bartlett_blocks(Seed(seed).child(mi), M, K, trials)`. These have exactly
    the singular values and Gram matrices of M x K i.i.d. CN(0, 1) draws,
    also for M < K, without an M-length axis."""
    if config.channels_path is not None:
        measured = channel.load_measured_channels(config.channels_path)
        yield measured.m, measured.k, [measured.matrices]
        return
    k = config.params["k"]
    seed = Seed(config.seed)
    for mi, m in enumerate(config.params["m_list"]):
        blocks = bartlett_blocks(seed.child(mi), m, k, config.trials)
        yield m, k, (a.conj().transpose(0, 2, 1) for a, _ in blocks)


def _run_svd_spread(config: ExperimentConfig):
    rows: list[tuple] = []
    medians: dict[str, float] = {}
    for m, k, stacks in _channel_groups(config):
        spreads = np.concatenate([singular_value_spread_db(h) for h in stacks])
        rows.extend((m, k, t, s) for t, s in enumerate(spreads))
        medians[str(m)] = EmpiricalCdf.from_samples(spreads).median
    summary = {"median_spread_db": medians}
    return summary, {"spread": Table(("M", "K", "trial", "spread_db"), rows)}


# ---------------------------------------------------------------------------
# mrt-sumrate
# ---------------------------------------------------------------------------


def _run_mrt_sumrate(config: ExperimentConfig):
    snr = 10.0 ** (config.params["target_snr_db"] / 10.0)
    rows: list[tuple] = []
    means: dict[str, float] = {}
    for m, k, stacks in _channel_groups(config):
        # G = F^H F by einsum, not BLAS, so that no sum depends on the BLAS thread count.
        grams = (np.einsum("tri,trj->tij", f.conj(), f) for f in stacks)
        rates = np.concatenate([capacity.mrt_sum_rates(g, snr) for g in grams])
        rows.extend((m, k, t, r) for t, r in enumerate(rates))
        means[str(m)] = float(np.mean(rates))
    summary = {
        "mean_sum_rate_bps_hz": means,
        "interference_free_ceiling_bps_hz": k * math.log2(1.0 + snr),
    }
    return summary, {"sumrate": Table(("M", "K", "realization", "sum_rate_bps_hz"), rows)}


# ---------------------------------------------------------------------------
# focusing-map
# ---------------------------------------------------------------------------


def _json_db(value) -> float | str:
    """A dB value for summary.json: the string "-inf" for zero power, since
    JSON has no infinities. NaN and +inf stay floats, for `emit_tables` to reject."""
    value = float(value)
    return "-inf" if value == -math.inf else value


def _run_focusing_map(config: ExperimentConfig):
    p = config.params
    schemes = ("mrt", "zf") if p["scheme"] == "both" else (p["scheme"],)
    seed = Seed(config.seed)
    scene = channel.make_focusing_scene(
        seed.child(0),
        m_antennas=p["m"],
        n_scatterers=p["n_scatterers"],
        region_side_lambda=p["region_side_lambda"],
        bs_distance_lambda=p["bs_distance_lambda"],
        antenna_spacing_lambda=p["antenna_spacing_lambda"],
        other_user_offset_lambda=p["other_user_offset_lambda"],
    )
    grid = np.linspace(-p["grid_extent_lambda"], p["grid_extent_lambda"], p["grid_points"])
    tables: dict[str, Table] = {}
    summary: dict = {}
    for fmap in transceiver.field_map(scene, schemes, grid, grid, config.trials, seed.child(1), workers=config.workers):
        # Row-major over (y, x), as Python floats.
        xs = np.tile(fmap.x_lambda, fmap.y_lambda.size).tolist()
        ys = np.repeat(fmap.y_lambda, fmap.x_lambda.size).tolist()
        rows = list(zip(xs, ys, fmap.power_db.ravel().tolist()))
        tables[f"focusing_map_{fmap.scheme}"] = Table(("x_lambda", "y_lambda", "avg_power_db"), rows)
        # A ZF null that cancels exactly is -inf dB.
        summary[fmap.scheme] = {
            "target_gain_db": _json_db(fmap.target_gain_db),
            "terminal_power_db": [_json_db(v) for v in fmap.terminal_power_db],
        }
    return summary, tables


# ---------------------------------------------------------------------------
# ee-se-tradeoff
# ---------------------------------------------------------------------------


def _run_ee_se(config: ExperimentConfig):
    p = config.params
    rho_db = np.linspace(p["rho_min_db"], p["rho_max_db"], p["rho_points"])
    systems = capacity.default_tradeoff_systems(
        m_massive=p["m_massive"], k_massive=p["k_massive"], m_beamforming=p["m_beamforming"]
    )
    curves = capacity.ee_se_sweep(systems, 10.0 ** (rho_db / 10.0), p["coherence_symbols"])
    ref_se, ref_ee = curves["reference"].peak_ee_point()
    rows = []
    summary: dict = {"reference_peak": {"se_bps_hz": ref_se, "ee": ref_ee}}
    for label, curve in curves.items():
        ee_rel = curve.energy_efficiency / ref_ee
        se, ee = curve.spectral_efficiency, curve.energy_efficiency
        rows.extend(zip([label] * rho_db.size, rho_db.tolist(), se.tolist(), ee.tolist(), ee_rel.tolist()))
        se_rel = curve.spectral_efficiency / ref_se
        witness = (se_rel >= 10.0) & (ee_rel >= 100.0)
        summary[label] = {
            "max_ee_relative": float(np.max(ee_rel)),
            "max_se_relative": float(np.max(se_rel)),
            "max_ee_relative_at_10x_se": float(np.max(ee_rel[se_rel >= 10.0], initial=0.0)),
            "has_10x_se_100x_ee_point": bool(np.any(witness)),
        }
    table = Table(("system", "rho_db", "se_bps_hz", "ee_bits_per_joule", "ee_relative"), rows)
    return summary, {"tradeoff": table}


# ---------------------------------------------------------------------------
# pilot-contamination
# ---------------------------------------------------------------------------


def _run_pilot_contamination(config: ExperimentConfig):
    p = config.params
    seed = Seed(config.seed)
    m_values = list(p["m_list"])
    rows = []
    mean_desired = []
    mean_directed = []
    for mi, m in enumerate(m_values + [p["m_limit"]]):
        sample = pilots.simulate_contamination(
            m,
            p["beta_home"],
            p["betas_contaminating"],
            p["rho_pilot"],
            p["tau"],
            config.trials,
            seed.child(mi),
        )
        powers = (sample.desired.tolist(), sample.directed.tolist(), sample.noise.tolist())
        rows.extend(zip([m] * config.trials, range(config.trials), *powers))
        if mi < len(m_values):
            mean_desired.append(float(np.mean(sample.desired)))
            mean_directed.append(float(np.mean(sample.directed)))
        elif float(np.mean(sample.directed)) == 0.0:
            sir_at_limit = math.inf
        else:
            sir_at_limit = 10.0 * math.log10(float(np.mean(sample.desired)) / float(np.mean(sample.directed)))
    log_m = np.log(np.asarray(m_values, dtype=float))
    desired_slope = float(np.polyfit(log_m, np.log(mean_desired), 1)[0])
    directed_slope = float(np.polyfit(log_m, np.log(mean_directed), 1)[0])
    limit = pilots.contamination_sir_limit_db(p["beta_home"], p["betas_contaminating"])
    summary = {
        "desired_power_loglog_slope": desired_slope,
        "directed_power_loglog_slope": directed_slope,
        "sir_limit_db": limit if math.isfinite(limit) else "unbounded",
        "sir_at_m_limit_db": sir_at_limit if math.isfinite(sir_at_limit) else "unbounded",
        "m_limit": p["m_limit"],
    }
    table = Table(("M", "trial", "desired_power", "directed_power", "noise_power"), rows)
    return summary, {"contamination": table}


# ---------------------------------------------------------------------------
# rural-broadband
# ---------------------------------------------------------------------------


def _run_rural(config: ExperimentConfig):
    p = dict(config.params)
    rural_config = capacity.RuralConfig(**p)
    result = capacity.rural_broadband(rural_config, Seed(config.seed), config.trials)
    sinr_db = (10.0 * np.log10(result.sinr)).tolist()
    served = [result.served] * config.trials
    rates = (result.equal_rate_mbps.tolist(), result.sum_throughput_gbps.tolist())
    rows = list(zip(range(config.trials), served, sinr_db, *rates))
    table = Table(("drop", "served", "sinr_db", "throughput_mbps", "sum_gbps"), rows)
    return result.summary(), {"rural": table}


_RUNNERS = {
    "svd-spread": _run_svd_spread,
    "mrt-sumrate": _run_mrt_sumrate,
    "focusing-map": _run_focusing_map,
    "ee-se-tradeoff": _run_ee_se,
    "pilot-contamination": _run_pilot_contamination,
    "rural-broadband": _run_rural,
}
