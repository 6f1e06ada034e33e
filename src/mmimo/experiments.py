"""The named batch experiments, their declarations and their CSV/JSON emission.

Each experiment is one `Experiment` record in `EXPERIMENTS`: its parameter
schema, default trial counts, runner and cross-key check, and whether it is
block-drawn or accepts measured channels. Adding an experiment is one entry.

Every experiment is a pure function of its resolved configuration: trials
derive their draws from per-index sub-seeds (one per block of trials for the
block-drawn experiments, see `numerics.bartlett_blocks` and
`capacity.rural_broadband`), reductions run in trial order, and floats are
written in shortest round-trip form, so reruns are byte-identical no matter
how many workers execute the trials.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, get_type_hints

import numpy as np

from . import __version__, capacity
from .errors import ConfigError, DomainError, NumericError
from .numerics import EmpiricalCdf, Seed, bartlett_blocks, singular_value_spread_db

if TYPE_CHECKING:
    from .config import ExperimentConfig


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
    summary, tables = EXPERIMENTS[config.experiment].runner(config)
    return ExperimentResult(
        experiment=config.experiment,
        summary=summary,
        tables=tables,
        resolved_config=config.resolved(),
        config_hash=config.config_hash(),
        seed=config.seed,
    )


# The CSV formatter of each cell type a table holds; every cell of a column
# shares one formatter. Float cells are Python floats, from `.tolist()`.
_COLUMN_FORMATS = {float: float.__repr__, int: int.__repr__, str: str}


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
        from .channel import load_measured_channels

        measured = load_measured_channels(config.channels_path)
        yield measured.shape[1], measured.shape[2], [measured]
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
        rows.extend((m, k, t, s) for t, s in enumerate(spreads.tolist()))
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
        rows.extend((m, k, t, r) for t, r in enumerate(rates.tolist()))
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
    from . import channel, transceiver

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


def _check_focusing_map(*, m, scheme, antenna_spacing_lambda, grid_extent_lambda, **lengths) -> None:
    """Reject a scheme the antenna count cannot serve, and a scene whose span,
    the sum of the terms below, passes 1e150 wavelengths: no coordinate
    difference of its points exceeds it, so no squared distance passes 2e300."""
    from .channel import FOCUSING_TERMINALS

    if scheme != "mrt" and m < FOCUSING_TERMINALS:
        raise ConfigError(
            f"key 'focusing-map.m': zero-forcing (scheme = {scheme}) needs m >= "
            f"{FOCUSING_TERMINALS}, the scene's terminal count, got {m}"
        )
    terms = {
        "region_side_lambda": lengths["region_side_lambda"],
        "bs_distance_lambda": lengths["bs_distance_lambda"],
        "antenna_spacing_lambda": (m - 1) * antenna_spacing_lambda,
        "grid_extent_lambda": 2.0 * grid_extent_lambda,
        "other_user_offset_lambda": lengths["other_user_offset_lambda"],
    }
    span = sum(terms.values())  # a float, perhaps inf
    if span > 1e150:
        raise ConfigError(
            f"key 'focusing-map.{max(terms, key=terms.get)}': the scene spans region_side + bs_distance + "
            f"(m - 1) antenna_spacing + 2 grid_extent + other_user_offset = {span:.6g} wavelengths; "
            "past 1e150 its squared distances overflow"
        )


# ---------------------------------------------------------------------------
# ee-se-tradeoff
# ---------------------------------------------------------------------------


def _run_ee_se(config: ExperimentConfig):
    p = config.params
    rho_db = np.linspace(p["rho_min_db"], p["rho_max_db"], p["rho_points"])
    curves = capacity.ee_se_sweep(
        10.0 ** (rho_db / 10.0), p["coherence_symbols"], p["m_massive"], p["k_massive"], p["m_beamforming"]
    )
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


def _check_ee_se(*, rho_min_db, rho_max_db, rho_points, coherence_symbols, m_massive, k_massive, m_beamforming):
    """Reject a config that zero-forcing cannot serve, or whose sweep cannot
    give finite outputs: the largest level times M overflows the closed
    forms, or the one-antenna reference's rate is 0 at every level, so each
    relative column is 0/0."""
    if k_massive >= m_massive:
        raise ConfigError(
            f"key 'ee-se-tradeoff.k_massive': zero-forcing needs k_massive < m_massive = {m_massive}, "
            f"got {k_massive}"
        )
    if k_massive > coherence_symbols:
        raise ConfigError(
            f"key 'ee-se-tradeoff.k_massive': pilots of length k_massive must fit in "
            f"coherence_symbols = {coherence_symbols}, got {k_massive}"
        )
    if coherence_symbols == 1:
        raise ConfigError(
            "key 'ee-se-tradeoff.coherence_symbols': must be >= 2, since the one-antenna reference's "
            "pilot of one symbol leaves no payload in a coherence interval of 1"
        )
    # The grid's largest level: np.linspace ends on rho_max_db, but one point is rho_min_db alone.
    ends_high = rho_points > 1 and rho_max_db >= rho_min_db
    key, level = ("rho_max_db", rho_max_db) if ends_high else ("rho_min_db", rho_min_db)
    rho = 10.0 ** (np.array([level]) / 10.0)  # as `_run_ee_se` forms the grid
    antennas = max(m_massive, m_beamforming)  # at most MAX_COUNT: the product is a float, perhaps inf
    if not math.isfinite(float(rho[0]) * antennas):
        raise ConfigError(
            f"key 'ee-se-tradeoff.{key}': the largest level, {level} dB, times {antennas} antennas "
            f"overflows a float"
        )
    if np.log2(1.0 + capacity.ul_mrc_sinr(1, rho, np.ones(1), rho, 1))[0] == 0.0:
        raise ConfigError(
            f"key 'ee-se-tradeoff.{key}': the largest level, {level} dB, leaves the one-antenna "
            f"reference a rate of 0 at every level (it needs more than about -79.77 dB)"
        )


# ---------------------------------------------------------------------------
# pilot-contamination
# ---------------------------------------------------------------------------


def _run_pilot_contamination(config: ExperimentConfig):
    from . import pilots

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
        else:
            sir_at_limit = _sir_db(float(np.mean(sample.desired)), float(np.mean(sample.directed)))
    log_m = np.log(np.asarray(m_values, dtype=float))
    fits = (("beta_home", "desired", mean_desired), ("betas_contaminating", "directed", mean_directed))
    for key, kind, means in fits:
        if 0.0 in means:
            raise NumericError(
                f"key 'pilot-contamination.{key}': the mean {kind} power at m_list entry "
                f"{m_values[means.index(0.0)]} underflows to 0, so its log-log slope is undefined"
            )
    desired_slope, directed_slope = (float(np.polyfit(log_m, np.log(means), 1)[0]) for _, _, means in fits)
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


def _sir_db(desired: float, directed: float) -> float:
    """10 log10(desired / directed) of the mean powers at m_limit, +inf when
    `directed` is 0. A ratio past the float range is formed as a difference
    of logs."""
    if directed == 0.0:
        return math.inf
    if desired == 0.0:
        raise NumericError("key 'pilot-contamination.beta_home': the mean desired power at m_limit underflows to 0")
    ratio = desired / directed
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(desired) - math.log10(directed))


def _check_pilot_contamination(*, m_list, **_) -> None:
    if len(set(m_list)) < 2:
        raise ConfigError(
            f"key 'pilot-contamination.m_list': the log-log slope fit needs at least two distinct "
            f"antenna counts, got {m_list}"
        )


# ---------------------------------------------------------------------------
# rural-broadband
# ---------------------------------------------------------------------------


def _run_rural(config: ExperimentConfig):
    rural_config = capacity.RuralConfig(**config.params)
    result = capacity.rural_broadband(rural_config, Seed(config.seed), config.trials)
    sinr_db = (10.0 * np.log10(result.sinr)).tolist()
    served = [result.served] * config.trials
    rates = (result.equal_rate_mbps.tolist(), result.sum_throughput_gbps.tolist())
    rows = list(zip(range(config.trials), served, sinr_db, *rates))
    table = Table(("drop", "served", "sinr_db", "throughput_mbps", "sum_gbps"), rows)
    return result.summary(), {"rural": table}


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# The largest integer a key may hold: every integer up to 2**53 is exact as a
# float and far inside int64, so a count enters a run's float and int64
# arithmetic without an OverflowError.
MAX_COUNT = 2**53


def _parse_int(text: str) -> int:
    value = int(text)
    if abs(value) > MAX_COUNT:
        digits = str(abs(value))
        shown = value if len(digits) <= 20 else f"a {len(digits)}-digit integer"
        raise ValueError(f"must be at most 2**53 = {MAX_COUNT} in magnitude, got {shown}")
    return value


def _parse_positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text.strip()!r}")
    return value


def _parse_positive_float(text: str) -> float:
    value = _parse_finite_float(text)
    if value <= 0.0:
        raise ValueError(f"must be a finite number > 0, got {text.strip()!r}")
    return value


def _parse_db(text: str) -> float:
    """A level in dB under `capacity._is_db_level`'s rule."""
    value = _parse_finite_float(text)
    if not capacity._is_db_level(value):
        raise ValueError(f"must be {capacity._DB_LEVEL}, got {text.strip()!r}")
    return value


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], list]:
    """Parser of a non-empty comma-separated list whose entries each pass `parse`."""

    def parse_list(text: str) -> list:
        values = [parse(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError("list must not be empty")
        return values

    return parse_list


def _parse_scheme(text: str) -> str:
    if text not in ("mrt", "zf", "both"):
        raise ValueError(f"must be mrt, zf, or both, got {text!r}")
    return text


@dataclass(frozen=True)
class Option:
    parse: Callable[[str], Any]
    default: Any


def _dataclass_schema(cls) -> dict[str, Option]:
    """One option per field of `cls`, parsed by its int, float or bool type;
    ints must be at most MAX_COUNT in magnitude, floats finite."""
    parsers, hints = {int: _parse_int, float: _parse_finite_float, bool: _parse_bool}, get_type_hints(cls)
    return {f.name: Option(parsers[hints[f.name]], f.default) for f in fields(cls)}


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration, all that `config` and `run` know of it."""

    schema: dict[str, Option]  # its section's keys; the defaults hold at desk and paper scale
    trials: tuple[int, int]  # default trial counts, (desk, paper), indexed by paper_scale
    runner: Callable[[ExperimentConfig], tuple[dict, dict[str, Table]]]
    check: Callable[..., object] = lambda **params: None  # gets the parsed params; raises ConfigError
    # Its trials are drawn in blocks sized by BLOCK_ENTRIES: Bartlett factors
    # (`numerics.bartlett_blocks`), or rural drops (`capacity.rural_broadband`).
    block_drawn: bool = False
    measured: bool = False  # it accepts a measured-channel set (--channels)


EXPERIMENTS: dict[str, Experiment] = {
    "focusing-map": Experiment(
        {
            "m": Option(_parse_positive_int, 64),
            "n_scatterers": Option(_parse_positive_int, 400),
            "scheme": Option(_parse_scheme, "both"),
            "region_side_lambda": Option(_parse_positive_float, 800.0),
            "bs_distance_lambda": Option(_parse_positive_float, 1600.0),
            "antenna_spacing_lambda": Option(_parse_positive_float, 4.0),
            "other_user_offset_lambda": Option(_parse_positive_float, 40.0),
            "grid_extent_lambda": Option(_parse_positive_float, 400.0),
            "grid_points": Option(_parse_positive_int, 41),
        },
        (100, 10_000), _run_focusing_map, _check_focusing_map,
    ),
    "svd-spread": Experiment(
        {
            "m_list": Option(_list_of(_parse_positive_int), [4, 32, 128]),
            "k": Option(_parse_positive_int, 4),
        },
        (2000, 10_000), _run_svd_spread, block_drawn=True, measured=True,
    ),
    "mrt-sumrate": Experiment(
        {
            "m_list": Option(_list_of(_parse_positive_int), [4, 8, 16, 32, 64, 128]),
            "k": Option(_parse_positive_int, 4),
            "target_snr_db": Option(_parse_db, 10.0),
        },
        (2000, 10_000), _run_mrt_sumrate, block_drawn=True, measured=True,
    ),
    "ee-se-tradeoff": Experiment(
        {
            "rho_min_db": Option(_parse_db, -30.0),
            "rho_max_db": Option(_parse_db, 20.0),
            "rho_points": Option(_parse_positive_int, 201),
            "coherence_symbols": Option(_parse_positive_int, 196),
            "m_massive": Option(_parse_positive_int, 100),
            "k_massive": Option(_parse_positive_int, 40),
            "m_beamforming": Option(_parse_positive_int, 100),
        },
        (1, 1), _run_ee_se, _check_ee_se,
    ),
    "pilot-contamination": Experiment(
        {
            "m_list": Option(_list_of(_parse_positive_int), [16, 64, 256, 1024]),
            "m_limit": Option(_parse_positive_int, 10_000),
            "beta_home": Option(_parse_positive_float, 1.0),
            "betas_contaminating": Option(_list_of(_parse_positive_float), [1.0]),
            "rho_pilot": Option(_parse_positive_float, 1.0),
            "tau": Option(_parse_positive_int, 16),
        },
        (200, 1000), _run_pilot_contamination, _check_pilot_contamination, block_drawn=True,
    ),
    # The scenario's own checks: ranges, pinned values, pilot length.
    "rural-broadband": Experiment(
        _dataclass_schema(capacity.RuralConfig), (50, 500), _run_rural, capacity.RuralConfig, block_drawn=True
    ),
}
