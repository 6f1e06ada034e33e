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
import orjson

from . import __version__, capacity
from .errors import ConfigError, DomainError, NumericError
from .numerics import EmpiricalCdf, Seed, bartlett_blocks, singular_value_spread_db

if TYPE_CHECKING:
    from .config import ExperimentConfig


@dataclass(frozen=True)
class Table:
    """One CSV table, held as its columns: one 1-D array per column of
    `header`, all of one length, the row count, each of dtype float64, int64
    or str ("U"). `emit_tables` writes each number column with one orjson
    call."""

    header: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    @property
    def rows(self) -> list[tuple]:
        """Every row as a tuple of Python values."""
        return list(zip(*(column.tolist() for column in self.columns)))


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


def _array_texts(a: np.ndarray) -> list[str]:
    """`repr` of each entry of a 1-D float64 or int64 array, byte for byte.

    One orjson call writes every entry in its shortest round-trip form. For
    an integer, and for a float that is zero or finite with magnitude in
    [1e-4, 1e16), that is `repr`'s text. The other floats are written by
    `repr`: orjson writes a non-finite one as null, and the rest in another
    layout (1e-8, 0.000031 and 1e16 where `repr` writes 1e-08, 3.1e-05 and
    1e+16)."""
    if a.size == 0:
        return []
    texts = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if a.dtype.kind == "f":
        magnitude = np.abs(a)
        outside = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (a != 0.0)
        for i in np.flatnonzero(outside).tolist():
            texts[i] = repr(float(a[i]))
    return texts


def _table_lines(table: Table) -> list[str]:
    """The CSV lines of a table, header first. Each number column is written
    by one `_array_texts` call, so every float is `repr`'s text, and each
    label column by its own strings. A column that is not a 1-D float64,
    int64 or str array raises `TypeError` (not an array, or another dtype) or
    `ValueError` (another shape), as do columns of unequal lengths."""
    texts = []
    for name, column in zip(table.header, table.columns, strict=True):
        if not isinstance(column, np.ndarray):
            raise TypeError(f"column {name!r} of a table must be a numpy array, got {type(column).__name__}")
        if column.ndim != 1:
            raise ValueError(f"column {name!r} of a table must be 1-D, got shape {column.shape}")
        if column.dtype.kind == "U":
            texts.append(column.tolist())
        elif column.dtype in (np.float64, np.int64):
            texts.append(_array_texts(column))
        else:
            raise TypeError(f"column {name!r} of a table must be float64, int64 or str, got {column.dtype}")
    if len({len(t) for t in texts}) > 1:
        raise ValueError(f"the columns of table {table.header} have unequal lengths")
    return [",".join(table.header), *map(",".join, zip(*texts))]


def emit_tables(result: ExperimentResult, output_dir) -> list[str]:
    """Write one CSV per table plus summary.json; returns the file paths.

    summary.json is serialised first, as strict JSON: a NaN or infinity in it
    raises `DomainError` before any file is written. Each table is written
    from its columns (`Table`), never its rows: one orjson call per number
    column, whose text equals `repr`'s for zero and for finite magnitudes in
    [1e-4, 1e16); `repr` writes the other floats. A column of another type or
    shape, or of another length, raises as `_table_lines` says."""
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
        lines = _table_lines(table)
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


def _run_columns(runs: list[tuple[int, int, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """The columns (M, K, trial index, value) of (M, K, values) runs, run by run."""
    lengths = [values.size for _, _, values in runs]
    return (
        np.repeat([m for m, _, _ in runs], lengths),
        np.repeat([k for _, k, _ in runs], lengths),
        np.concatenate([np.arange(n) for n in lengths]),
        np.concatenate([values for _, _, values in runs]),
    )


def _run_svd_spread(config: ExperimentConfig):
    runs = [
        (m, k, np.concatenate([singular_value_spread_db(h) for h in stacks]))
        for m, k, stacks in _channel_groups(config)
    ]
    summary = {"median_spread_db": {str(m): EmpiricalCdf.from_samples(spreads).median for m, _, spreads in runs}}
    return summary, {"spread": Table(("M", "K", "trial", "spread_db"), _run_columns(runs))}


# ---------------------------------------------------------------------------
# mrt-sumrate
# ---------------------------------------------------------------------------


def _run_mrt_sumrate(config: ExperimentConfig):
    snr = 10.0 ** (config.params["target_snr_db"] / 10.0)
    runs = []
    for m, k, stacks in _channel_groups(config):
        # G = F^H F by einsum, not BLAS, so that no sum depends on the BLAS thread count.
        grams = (np.einsum("tri,trj->tij", f.conj(), f) for f in stacks)
        runs.append((m, k, np.concatenate([capacity.mrt_sum_rates(g, snr) for g in grams])))
    summary = {
        "mean_sum_rate_bps_hz": {str(m): float(np.mean(rates)) for m, _, rates in runs},
        "interference_free_ceiling_bps_hz": k * math.log2(1.0 + snr),
    }
    return summary, {"sumrate": Table(("M", "K", "realization", "sum_rate_bps_hz"), _run_columns(runs))}


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
        # Row-major over (y, x).
        nx, ny = fmap.x_lambda.size, fmap.y_lambda.size
        columns = (np.tile(fmap.x_lambda, ny), np.repeat(fmap.y_lambda, nx), fmap.power_db.ravel())
        tables[f"focusing_map_{fmap.scheme}"] = Table(("x_lambda", "y_lambda", "avg_power_db"), columns)
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
    summary: dict = {"reference_peak": {"se_bps_hz": ref_se, "ee": ref_ee}}
    for label, curve in curves.items():
        ee_rel = curve.energy_efficiency / ref_ee
        se_rel = curve.spectral_efficiency / ref_se
        witness = (se_rel >= 10.0) & (ee_rel >= 100.0)
        summary[label] = {
            "max_ee_relative": float(np.max(ee_rel)),
            "max_se_relative": float(np.max(se_rel)),
            "max_ee_relative_at_10x_se": float(np.max(ee_rel[se_rel >= 10.0], initial=0.0)),
            "has_10x_se_100x_ee_point": bool(np.any(witness)),
        }
    ee = np.concatenate([curve.energy_efficiency for curve in curves.values()])
    columns = (
        np.repeat(np.array(list(curves)), rho_db.size),
        np.tile(rho_db, len(curves)),
        np.concatenate([curve.spectral_efficiency for curve in curves.values()]),
        ee,
        ee / ref_ee,
    )
    table = Table(("system", "rho_db", "se_bps_hz", "ee_bits_per_joule", "ee_relative"), columns)
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
    ladder = m_values + [p["m_limit"]]
    samples = [
        pilots.simulate_contamination(
            m, p["beta_home"], p["betas_contaminating"], p["rho_pilot"], p["tau"], config.trials, seed.child(mi)
        )
        for mi, m in enumerate(ladder)
    ]
    mean_desired = [_mean_power(sample.desired) for sample in samples[:-1]]
    mean_directed = [_mean_power(sample.directed) for sample in samples[:-1]]
    sir_at_limit = _sir_db(_mean_power(samples[-1].desired), _mean_power(samples[-1].directed))
    log_m = np.log(np.asarray(m_values, dtype=float))
    fits = (("beta_home", "desired", mean_desired), ("betas_contaminating", "directed", mean_directed))
    for key, kind, means in fits:
        if 0.0 in means:
            raise NumericError(
                f"key 'pilot-contamination.{key}': the mean {kind} power at m_list entry "
                f"{m_values[means.index(0.0)]} underflows to 0, so its log-log slope is undefined"
            )
    desired_slope, directed_slope = (float(np.polyfit(log_m, np.log(means), 1)[0]) for _, _, means in fits)
    summary = {
        "desired_power_loglog_slope": desired_slope,
        "directed_power_loglog_slope": directed_slope,
        "sir_limit_db": pilots.contamination_sir_limit_db(p["beta_home"], p["betas_contaminating"]),
        "sir_at_m_limit_db": sir_at_limit if math.isfinite(sir_at_limit) else "unbounded",
        "m_limit": p["m_limit"],
    }
    columns = (
        np.repeat(ladder, config.trials),
        np.tile(np.arange(config.trials), len(ladder)),
        np.concatenate([sample.desired for sample in samples]),
        np.concatenate([sample.directed for sample in samples]),
        np.concatenate([sample.noise for sample in samples]),
    )
    table = Table(("M", "trial", "desired_power", "directed_power", "noise_power"), columns)
    return summary, {"contamination": table}


def _mean_power(powers: np.ndarray) -> float:
    """The mean of finite powers >= 0, itself finite: where their sum could
    pass the float range, it is the mean of the powers scaled by the largest."""
    largest = float(np.max(powers))
    if largest * powers.size < math.inf:
        return float(np.mean(powers))
    return largest * float(np.mean(powers / largest))


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


def _check_pilot_contamination(*, m_list, m_limit, beta_home, betas_contaminating, rho_pilot, tau) -> None:
    """Reject a ladder of fewer than two antenna counts, and column gains
    whose projections overflow. `pilots._contamination_sample` squares
    g^T W_:l, with g the column gains and W = Z^H Z, and |g^T W_:l| is at
    most (sum of g) max_j W_jj. Each W_jj is a Gamma(M, 1) draw, which passes
    M + sqrt(84 M) + 42 with probability at most e^-42 (its sub-gamma tail),
    so that bound times the gain sum must square to a float."""
    if len(m_list) < 2:
        raise ConfigError(
            f"key 'pilot-contamination.m_list': the log-log slope fit needs at least two antenna counts, "
            f"got {m_list}"
        )
    squares = {  # each key's largest column gain squared; a float, perhaps inf
        "beta_home": beta_home,
        "betas_contaminating": max(betas_contaminating),
        "rho_pilot": 1.0 / (rho_pilot * tau),
    }
    gain_sum = math.sqrt(beta_home) + sum(map(math.sqrt, betas_contaminating)) + math.sqrt(squares["rho_pilot"])
    antennas = max(m_list + [m_limit])
    projection = gain_sum * (antennas + math.sqrt(84.0 * antennas) + 42.0)
    if not math.isfinite(projection * projection):
        raise ConfigError(
            f"key 'pilot-contamination.{max(squares, key=squares.get)}': the column gains sum to "
            f"{gain_sum:.6g}, so at {antennas} antennas the squared projections overflow a float"
        )


# ---------------------------------------------------------------------------
# rural-broadband
# ---------------------------------------------------------------------------


def _run_rural(config: ExperimentConfig):
    rural_config = capacity.RuralConfig(**config.params)
    result = capacity.rural_broadband(rural_config, Seed(config.seed), config.trials)
    sinr_db = 10.0 * np.log10(result.sinr)
    columns = (
        np.arange(config.trials),
        np.full(config.trials, result.served),
        sinr_db,
        result.equal_rate_mbps,
        result.sum_throughput_gbps,
    )
    table = Table(("drop", "served", "sinr_db", "throughput_mbps", "sum_gbps"), columns)
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


def _parse_ladder(text: str) -> list[int]:
    """An antenna ladder: a non-empty list of positive ints, none repeated,
    since each summary entry is keyed by its antenna count."""
    values = _list_of(_parse_positive_int)(text)
    if len(set(values)) < len(values):
        raise ValueError(f"must not repeat an antenna count, got {values}")
    return values


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
            "m_list": Option(_parse_ladder, [4, 32, 128]),
            "k": Option(_parse_positive_int, 4),
        },
        (2000, 10_000), _run_svd_spread, block_drawn=True, measured=True,
    ),
    "mrt-sumrate": Experiment(
        {
            "m_list": Option(_parse_ladder, [4, 8, 16, 32, 64, 128]),
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
            "m_list": Option(_parse_ladder, [16, 64, 256, 1024]),
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
