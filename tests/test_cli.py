import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmimo import capacity, cli, transceiver
from mmimo.channel import save_measured_channels
from mmimo.cli import main
from mmimo.config import parse_config
from mmimo.errors import ConfigError, DomainError
from mmimo.experiments import EXPERIMENTS, ExperimentResult, Table, _array_texts, emit_tables, run
from mmimo.numerics import BLOCK_ENTRIES, Seed, draw_complex_gaussian, singular_value_spread_db

from mc_compare import assert_same_means

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, body):
    path.write_text(body)
    return str(path)


class TestParseConfig:
    def test_minimal_svd_spread_defaults(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        config = parse_config(path)
        assert config.params["m_list"] == [4, 32, 128]
        assert config.params["k"] == 4
        assert config.seed == 0
        assert config.trials == 2000

    def test_paper_scale_trials(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        config = parse_config(path, paper_scale=True)
        assert config.trials == 10_000

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = warp-drive\n")
        with pytest.raises(ConfigError, match="warp-drive"):
            parse_config(path)

    def test_duplicate_key_named(self, tmp_path):
        body = "[experiment]\nexperiment = svd-spread\n\n[svd-spread]\nk = 4\nk = 5\n"
        path = write_config(tmp_path / "c.ini", body)
        with pytest.raises(ConfigError, match="duplicate key 'svd-spread.k'"):
            parse_config(path)

    def test_unknown_key_path(self, tmp_path):
        body = "[experiment]\nexperiment = svd-spread\n\n[svd-spread]\nm_lists = 4\n"
        path = write_config(tmp_path / "c.ini", body)
        with pytest.raises(ConfigError, match="svd-spread.m_lists"):
            parse_config(path)

    def test_type_mismatch_names_key(self, tmp_path):
        body = "[experiment]\nexperiment = svd-spread\n\n[svd-spread]\nk = four\n"
        path = write_config(tmp_path / "c.ini", body)
        with pytest.raises(ConfigError, match="svd-spread.k"):
            parse_config(path)

    def test_wrong_section_rejected(self, tmp_path):
        body = "[experiment]\nexperiment = svd-spread\n\n[rural-broadband]\nm = 64\n"
        path = write_config(tmp_path / "c.ini", body)
        with pytest.raises(ConfigError, match="rural-broadband"):
            parse_config(path)

    def test_channels_only_for_supported(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = focusing-map\n")
        with pytest.raises(ConfigError, match="measured channels"):
            parse_config(path, channels_path="whatever.cfcsv")

    def test_config_hash_ignores_output_dir_only(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        base = parse_config(path, output_dir="a")
        assert replace(base, output_dir="b").config_hash() == base.config_hash()
        measured = tmp_path / "set.cfcsv"
        save_measured_channels(draw_complex_gaussian(Seed(0), 4, 4), measured)
        for change in (
            {"seed": 1},
            {"trials": 3},
            {"paper_scale": True},
            {"channels_path": str(measured)},
            {"params": {**base.params, "k": 5}},
        ):
            assert replace(base, **change).config_hash() != base.config_hash(), change

    def test_config_hash_follows_measured_file_content(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        original, copy = tmp_path / "set.cfcsv", tmp_path / "copy.cfcsv"
        save_measured_channels(draw_complex_gaussian(Seed(0), 4, 4), original)
        copy.write_bytes(original.read_bytes())
        first = parse_config(path, channels_path=str(original))
        assert parse_config(path, channels_path=str(copy)).config_hash() == first.config_hash()
        before = first.config_hash()
        save_measured_channels(draw_complex_gaussian(Seed(1), 4, 4), original)
        assert first.config_hash() != before
        assert first.resolved()["channels_path"] == str(original)

    def test_overrides_apply(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = svd-spread\nseed = 3\ntrials = 10\n",
        )
        config = parse_config(path, seed=11, trials=99, output_dir="elsewhere")
        assert (config.seed, config.trials, config.output_dir) == (11, 99, "elsewhere")


class TestRunAndEmit:
    def test_svd_spread_header_contract(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = svd-spread\ntrials = 5\n\n[svd-spread]\nm_list = 4\n",
        )
        result = run(parse_config(path, output_dir=str(tmp_path / "out")))
        files = emit_tables(result, str(tmp_path / "out"))
        spread = next(f for f in files if f.endswith("spread.csv"))
        first = open(spread).readline().strip()
        assert first == "M,K,trial,spread_db"

    def test_focusing_map_header_contract(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = focusing-map\ntrials = 2\n\n"
            "[focusing-map]\nm = 4\nn_scatterers = 25\ngrid_points = 5\nscheme = mrt\n",
        )
        result = run(parse_config(path, output_dir=str(tmp_path / "out")))
        files = emit_tables(result, str(tmp_path / "out"))
        table = next(f for f in files if "focusing_map_mrt" in f)
        assert open(table).readline().strip() == "x_lambda,y_lambda,avg_power_db"

    def test_summary_provenance(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = svd-spread\ntrials = 5\nseed = 9\n\n[svd-spread]\nm_list = 4\n",
        )
        result = run(parse_config(path, output_dir=str(tmp_path / "out")))
        emit_tables(result, str(tmp_path / "out"))
        payload = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert payload["seed"] == 9
        assert "config_hash" in payload
        assert payload["resolved_config"]["params"]["k"] == 4

    def test_exact_null_written_as_minus_inf(self, tmp_path, monkeypatch):
        real_field_map = transceiver.field_map

        def exact_nulls(*args, **kwargs):
            # Force one ZF null and one grid cell to cancel exactly.
            maps = real_field_map(*args, **kwargs)
            cells = maps[0].power_db.copy()
            cells[0, 0] = -np.inf
            terminals = maps[0].terminal_power_db.copy()
            terminals[1] = -np.inf
            return (replace(maps[0], power_db=cells, terminal_power_db=terminals),)

        monkeypatch.setattr(transceiver, "field_map", exact_nulls)
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = focusing-map\ntrials = 2\n\n"
            "[focusing-map]\nm = 8\nn_scatterers = 25\ngrid_points = 3\nscheme = zf\n",
        )
        out = tmp_path / "out"
        emit_tables(run(parse_config(path, output_dir=str(out))), str(out))

        def no_constants(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        payload = json.loads((out / "summary.json").read_text(), parse_constant=no_constants)
        terminals = payload["metrics"]["zf"]["terminal_power_db"]
        assert terminals[1] == "-inf"
        assert all(isinstance(v, float) for i, v in enumerate(terminals) if i != 1)
        rows = (out / "focusing_map_zf.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "-inf"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_summary_rejected_before_any_file(self, tmp_path, value):
        result = ExperimentResult(
            experiment="svd-spread",
            summary={"median_spread_db": {"4": value}},
            tables={"spread": Table(("M",), [(4,)])},
            resolved_config={},
            config_hash="0",
            seed=0,
        )
        out = tmp_path / "out"
        with pytest.raises(DomainError, match="svd-spread"):
            emit_tables(result, str(out))
        assert not out.exists()

    @pytest.mark.parametrize(
        "groups, error",
        [
            ([(1,), (2.0,)], ValueError),
            ([(True,), (False,)], KeyError),
            ([(np.float64(1.0),), (np.float64(2.0),)], KeyError),
            ([(1, np.zeros(2)), (2.0, np.zeros(2))], ValueError),
            ([(1, np.zeros(2, dtype=np.float32))], KeyError),
            ([(1, np.zeros(2, dtype=bool))], KeyError),
            ([(np.arange(2), np.zeros(3))], ValueError),
            ([(1, np.zeros((2, 2)))], ValueError),
        ],
        ids=[
            "mixed", "bool", "numpy-float", "group-int-float", "float32-array", "bool-array", "unequal-lengths",
            "2d-array",
        ],
    )
    def test_column_without_one_formatter_rejected(self, tmp_path, groups, error):
        # Every column, across its groups, holds one cell type of `_COLUMN_FORMATS`, an array's
        # by its dtype (`_ARRAY_KINDS`); no cell is formatted on its own.
        result = ExperimentResult(
            experiment="svd-spread",
            summary={},
            tables={"spread": Table(("M", "value")[: len(groups[0])], groups)},
            resolved_config={},
            config_hash="0",
            seed=0,
        )
        with pytest.raises(error):
            emit_tables(result, str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "config, measured",
        [(name, False) for name in EXPERIMENTS] + [(name, True) for name, spec in EXPERIMENTS.items() if spec.measured],
    )
    def test_groups_emit_the_bytes_of_their_rows(self, tmp_path, config, measured):
        # A table written from its groups equals the same table written from its rows, each a one-row group.
        channels = None
        if measured:
            channels = str(tmp_path / "set.cfcsv")
            save_measured_channels(draw_complex_gaussian(Seed(5), 16, 4, 3), channels)
        result = run(parse_config(str(CONFIGS_DIR / f"{config}.ini"), trials=3, channels_path=channels))
        by_rows = replace(result, tables={name: Table(t.header, t.rows) for name, t in result.tables.items()})
        files = [Path(f).name for f in emit_tables(result, str(tmp_path / "groups"))]
        assert [Path(f).name for f in emit_tables(by_rows, str(tmp_path / "rows"))] == files
        for name in files:
            assert (tmp_path / "groups" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes(), name

    # Zero, the edges of [1e-4, 1e16) where orjson's layout and repr's part, the extremes and
    # integral floats; each with its negation.
    FLOAT_EDGES = [
        0.0, 1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), 5e-324, sys.float_info.max,
        2.0**53, 2.0**53 + 2.0, 1.0, 3.0, 1e15, 123456789.0, math.inf, math.nan,
    ]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        a=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
        step=st.sampled_from([1, 2, 3, -1, -2]),
    )
    @example(np.array(FLOAT_EDGES + [-x for x in FLOAT_EDGES]), 1)
    @example(np.array(FLOAT_EDGES + [-x for x in FLOAT_EDGES]), -3)
    def test_float_array_texts_are_repr(self, a, step):
        # Any float64, subnormals and non-finite ones included, in a contiguous or strided array.
        a = a[::step]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _array_texts(a) == list(map(repr, a.tolist()))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        a=hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-(2**63), 2**63 - 1)),
        step=st.sampled_from([1, 2, -1]),
    )
    @example(np.array([-(2**63), 2**63 - 1, 0, -1, 2**53 + 1]), 1)
    def test_int_array_texts_are_repr(self, a, step):
        a = a[::step]
        assert _array_texts(a) == list(map(repr, a.tolist()))

    def test_config_closure(self, tmp_path):
        # Every schema default appears in the emitted resolved config.
        for name, spec in EXPERIMENTS.items():
            path = write_config(tmp_path / f"{name}.ini", f"[experiment]\nexperiment = {name}\n")
            config = parse_config(path)
            assert set(config.resolved()["params"]) == set(spec.schema)

    def test_mrt_sumrate_ceiling_in_summary(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = mrt-sumrate\ntrials = 5\n\n[mrt-sumrate]\nm_list = 4,8\n",
        )
        result = run(parse_config(path))
        assert result.summary["interference_free_ceiling_bps_hz"] == pytest.approx(
            4 * np.log2(11.0)
        )

    def test_single_terminal_runs(self, tmp_path):
        # K = 1 draws no normals: one singular value (a 0 dB spread), and an
        # MRT stream that hears no interference.
        for experiment, table, value in (("svd-spread", "spread", 0.0), ("mrt-sumrate", "sumrate", np.log2(11.0))):
            body = f"[experiment]\nexperiment = {experiment}\ntrials = 5\n\n[{experiment}]\nm_list = 1,4\nk = 1\n"
            rows = run(parse_config(write_config(tmp_path / f"{experiment}.ini", body))).tables[table].rows
            assert len(rows) == 10 and all(row[3] == pytest.approx(value, rel=1e-12, abs=1e-12) for row in rows)

    # Trial counts T < T' such that a group crosses a block boundary before
    # T: Bartlett blocks count the K x K = 16 entries per trial of K = 4
    # terminals, or of one contaminator's 4 x 4 W.
    @pytest.mark.parametrize(
        "experiment, params, table, entries, short, long",
        [
            ("svd-spread", "m_list = 4,128\n", "spread", 16, 2060, 2100),
            ("mrt-sumrate", "m_list = 4,128\n", "sumrate", 16, 2060, 2100),
            ("pilot-contamination", "m_list = 16,1024\nm_limit = 2048\n", "contamination", 16, 2060, 2100),
        ],
    )
    def test_rows_prefix_stable_across_trial_counts(self, tmp_path, experiment, params, table, entries, short, long):
        assert BLOCK_ENTRIES // entries < short
        body = f"[experiment]\nexperiment = {experiment}\nseed = 4\n\n[{experiment}]\n{params}"
        path = write_config(tmp_path / "c.ini", body)
        rows = {n: run(parse_config(path, trials=n)).tables[table].rows for n in (short, long)}
        trial = 1 if experiment == "pilot-contamination" else 2
        assert rows[short] == [row for row in rows[long] if row[trial] < short]

    def test_block_entries_recorded_for_block_drawn_experiments(self, tmp_path):
        for name in EXPERIMENTS:
            path = write_config(tmp_path / f"{name}.ini", f"[experiment]\nexperiment = {name}\n")
            resolved = parse_config(path).resolved()
            drawn = name in ("svd-spread", "mrt-sumrate", "pilot-contamination", "rural-broadband")
            assert resolved.get("block_entries") == (BLOCK_ENTRIES if drawn else None), name
        channels = tmp_path / "set.cfcsv"
        save_measured_channels(draw_complex_gaussian(Seed(0), 4, 4), channels)
        measured = parse_config(tmp_path / "svd-spread.ini", channels_path=str(channels))
        assert "block_entries" not in measured.resolved()

    def test_measured_channels_flow(self, tmp_path):
        stack = np.stack([draw_complex_gaussian(Seed(1).child(f), 8, 3) for f in range(5)])
        channels = tmp_path / "set.cfcsv"
        save_measured_channels(stack, channels)
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        result = run(parse_config(path, channels_path=str(channels)))
        assert len(result.tables["spread"].rows) == 5
        assert result.tables["spread"].rows[0][0] == 8

        path2 = write_config(tmp_path / "c2.ini", "[experiment]\nexperiment = mrt-sumrate\n")
        result2 = run(parse_config(path2, channels_path=str(channels)))
        assert len(result2.tables["sumrate"].rows) == 5


class TestGramChainDistribution:
    """svd-spread and mrt-sumrate rows, drawn as Bartlett factors, against
    the same quantities of directly drawn M x K i.i.d. channels, including
    M = 1 and M < K."""

    def test_rows_match_direct_draws(self, tmp_path):
        k, trials, m_list = 4, 4000, (1, 2, 3, 8, 32)
        tables = {}
        for experiment, table in (("svd-spread", "spread"), ("mrt-sumrate", "sumrate")):
            body = (
                f"[experiment]\nexperiment = {experiment}\nseed = 5\ntrials = {trials}\n\n"
                f"[{experiment}]\nm_list = {','.join(map(str, m_list))}\nk = {k}\n"
            )
            rows = run(parse_config(write_config(tmp_path / f"{experiment}.ini", body))).tables[table].rows
            tables[experiment] = np.array([row[3] for row in rows]).reshape(len(m_list), trials)
        for i, m in enumerate(m_list):
            h = draw_complex_gaussian(Seed(6).child(m), m, k, trials)
            direct = np.column_stack(
                [singular_value_spread_db(h), capacity.mrt_sum_rates(np.einsum("tri,trj->tij", h.conj(), h), 10.0)]
            )
            engine = np.column_stack([tables["svd-spread"][i], tables["mrt-sumrate"][i]])
            assert_same_means(engine, direct, f"spread and MRT sum rate M={m} K={k}")


_BLAS_THREADS_SCRIPT = """
import hashlib, sys
from mmimo.channel import save_measured_channels
from mmimo.config import parse_config
from mmimo.experiments import run
from mmimo.numerics import Seed, draw_complex_gaussian
configs, channels = sys.argv[1], sys.argv[2]
save_measured_channels(draw_complex_gaussian(Seed(3), 16, 4, 40), channels)
for experiment, table in (("svd-spread", "spread"), ("mrt-sumrate", "sumrate")):
    path = f"{configs}/{experiment}.ini"
    for config in (parse_config(path, trials=500), parse_config(path, channels_path=channels)):
        sys.stdout.write(hashlib.sha256(repr(run(config).tables[table].rows).encode()).hexdigest() + "\\n")
"""


class TestBlasThreads:
    def test_blas_threads_do_not_change_rows(self, tmp_path):
        # Bundled and measured rows of both Gram-chain experiments.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", _BLAS_THREADS_SCRIPT, str(CONFIGS_DIR), str(tmp_path / f"set{threads}.cfcsv")],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == 4 and outputs[0] == outputs[1]


def run_finite(workdir, body, table):
    """`mmimo run` of an INI body in process: the outcome, and the rows of
    its CSV `table`. The CSV and summary.json must hold finite numbers, and
    no warning may be raised."""
    path = write_config(workdir / "c.ini", body)
    out = workdir / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in outcome.output
    if outcome.exit_code != 0:
        return outcome, None
    rows = [line.split(",") for line in (out / table).read_text().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
    json.loads((out / "summary.json").read_text(), parse_constant=lambda name: pytest.fail(f"summary holds {name}"))
    return outcome, rows


def validated_run(body, table):
    """`mmimo validate`, then `run_finite`, of an INI body in a fresh
    directory: the exit code the two must share, 0 or 2, and the rows of
    `table` (None when rejected). A rejection is one line from both commands
    and no warning."""
    with tempfile.TemporaryDirectory() as work:
        workdir = Path(work)
        path = write_config(workdir / "c.ini", body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validated = CliRunner().invoke(main, ["validate", "--config", path])
        assert [str(w.message) for w in caught] == []
        outcome, rows = run_finite(workdir, body, table)
    assert validated.exit_code in (0, 2), validated.output
    assert outcome.exit_code == validated.exit_code, outcome.output
    if validated.exit_code != 0:
        for rejected in (validated, outcome):
            assert rejected.stderr.startswith("config error:") and rejected.stderr.count("\n") == 1
    return validated.exit_code, rows


class TestEeSeTradeoffProperty:
    """Every ee-se-tradeoff config that `validate` accepts runs to exit 0
    with finite outputs; every other one exits 2 from both commands with a
    one-line message. No traceback and no warning either way."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        # The dB keys over their whole accepted range (about -3233 to 3000 dB) and past it.
        rho_min_db=st.floats(min_value=-3300.0, max_value=3100.0),
        rho_max_db=st.floats(min_value=-3300.0, max_value=3100.0),
        rho_points=st.integers(min_value=1, max_value=4),
        k_massive=st.integers(min_value=1, max_value=196),
        extra_antennas=st.integers(min_value=1, max_value=10**9),
        m_beamforming=st.integers(min_value=1, max_value=10**9),
    )
    @example(3000.0, 3000.0, 2, 40, 10**9 - 40, 10**9)
    @example(-300.0, -80.0, 2, 40, 60, 100)
    @example(-100.0, -30.0, 1, 40, 60, 100)
    def test_accepted_configs_run_to_finite_outputs(
        self, rho_min_db, rho_max_db, rho_points, k_massive, extra_antennas, m_beamforming
    ):
        m_massive = min(k_massive + extra_antennas, 10**9)
        body = (
            f"[experiment]\nexperiment = ee-se-tradeoff\n\n[ee-se-tradeoff]\n"
            f"rho_min_db = {rho_min_db!r}\nrho_max_db = {rho_max_db!r}\nrho_points = {rho_points}\n"
            f"k_massive = {k_massive}\nm_massive = {m_massive}\nm_beamforming = {m_beamforming}\n"
        )
        code, rows = validated_run(body, "tradeoff.csv")
        if code == 0:
            assert len(rows) == 4 * rho_points


class TestMrtSumrateProperty:
    """Every mrt-sumrate config that `validate` accepts runs to exit 0 with
    finite outputs, also with antennas fewer than terminals; every other one
    exits 2 from both commands with a one-line message. No traceback and no
    warning either way."""

    # 60 derandomized examples plus 4 explicit ones, about 0.2 s.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        # target_snr_db over its whole accepted range (about -3233 to 3000 dB) and past it.
        target_snr_db=st.floats(min_value=-3300.0, max_value=3100.0),
        k=st.integers(min_value=1, max_value=4),
        m_list=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(-3233.0, 4, [1, 4], 1)
    @example(-3200.0, 4, [2, 8], 1)
    @example(0.0, 3, [1, 2, 3], 1)
    @example(2999.99, 4, [1, 2, 8], 1)
    def test_accepted_configs_run_to_finite_outputs(self, target_snr_db, k, m_list, seed):
        trials = 3
        body = (
            f"[experiment]\nexperiment = mrt-sumrate\ntrials = {trials}\nseed = {seed}\n\n[mrt-sumrate]\n"
            f"target_snr_db = {target_snr_db!r}\nk = {k}\nm_list = {','.join(map(str, m_list))}\n"
        )
        code, rows = validated_run(body, "sumrate.csv")
        if code == 0:
            assert len(rows) == trials * len(m_list)


# Any value of any schema key: small integers, integers past the float range,
# every float, any text.
_ANY_VALUE = st.one_of(
    st.integers(min_value=-3, max_value=300),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)


@st.composite
def _sections(draw):
    """An experiment and values for any subset of its schema's keys."""
    name = draw(st.sampled_from(list(EXPERIMENTS)))
    return name, draw(st.fixed_dictionaries({}, optional={key: _ANY_VALUE for key in EXPERIMENTS[name].schema}))


class TestValidateProperty:
    """`validate` of any values of any keys of any experiment exits 0, or 2
    with a one-line message; never a traceback or a warning. Only validate:
    an accepted size such as m = 10**9 would allocate memory if run. A rural
    section allows overrides unless the draw sets allow_override, so that its
    range checks, not its pinned values, decide."""

    # 200 derandomized examples plus 2 explicit ones, about 0.6 s.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(section=_sections())
    @example(section=("ee-se-tradeoff", {"m_massive": 10**400}))  # raised OverflowError (exit 1)
    @example(section=("focusing-map", {"m": "\r0"}))  # configparser's message ran over two lines
    def test_validate_exits_0_or_2(self, section):
        name, values = section
        if name == "rural-broadband":
            values = {"allow_override": True, **values}
        # repr keeps every float exact, and writes nan and inf as such.
        lines = [
            f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}" for key, value in values.items()
        ]
        body = f"[experiment]\nexperiment = {name}\n\n[{name}]\n" + "\n".join(lines) + "\n"
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "c.ini"
            path.write_text(body, encoding="utf-8")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcome = CliRunner().invoke(main, ["validate", "--config", str(path)])
        assert [str(w.message) for w in caught] == []
        assert outcome.exit_code in (0, 2), outcome.output
        assert "Traceback" not in outcome.output
        if outcome.exit_code == 0:
            assert json.loads(outcome.stdout)["experiment"] == name
        else:
            assert outcome.stderr.startswith("config error:") and outcome.stderr.count("\n") == 1


class TestCliProcess:
    def test_validate_ok(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        runner = CliRunner()
        outcome = runner.invoke(main, ["validate", "--config", path])
        assert outcome.exit_code == 0
        assert json.loads(outcome.output)["experiment"] == "svd-spread"

    def test_config_error_exit_code_2(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = nope\n")
        runner = CliRunner()
        outcome = runner.invoke(main, ["run", "--config", path])
        assert outcome.exit_code == 2

    def test_missing_file_exit_code_2(self):
        runner = CliRunner()
        outcome = runner.invoke(main, ["run", "--config", "/nonexistent/x.ini"])
        assert outcome.exit_code == 2

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_utf8_config_exit_code_2(self, tmp_path, command):
        path = tmp_path / "c.ini"
        path.write_bytes(b"# caf\xe9\n[experiment]\nexperiment = svd-spread\ntrials = 2\n")
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2
        assert outcome.stderr.startswith("config error: config file is not UTF-8")
        assert outcome.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_non_utf8_channels_exit_code_3(self, tmp_path):
        channels = tmp_path / "set.cfcsv"
        channels.write_bytes(b"2,1,1\n1.0,0.0\n2.0,\xff0.0\n")
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = mrt-sumrate\n")
        out = tmp_path / "o"
        outcome = CliRunner().invoke(main, ["run", "--config", path, "--channels", str(channels), "--out", str(out)])
        assert outcome.exit_code == 3
        assert outcome.stderr.startswith("error: line 3: not UTF-8")
        assert outcome.stderr.count("\n") == 1
        assert not out.exists()

    def test_pinned_scenario_violation_exit_code_2(self, tmp_path):
        # Pinned rural scenario rejects overrides without the explicit flag.
        body = (
            "[experiment]\nexperiment = rural-broadband\ntrials = 2\n\n"
            "[rural-broadband]\nm = 16\n"
        )
        path = write_config(tmp_path / "c.ini", body)
        runner = CliRunner()
        outcome = runner.invoke(main, ["run", "--config", path, "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 2

    def test_runtime_error_exit_code_3(self, tmp_path):
        # Valid config, malformed measured-channel file: domain error at run time.
        bad = tmp_path / "bad.cfcsv"
        bad.write_text("2,1,1\n1.0,0.0\n")
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\n")
        runner = CliRunner()
        outcome = runner.invoke(
            main,
            ["run", "--config", path, "--channels", str(bad), "--out", str(tmp_path / "o")],
        )
        assert outcome.exit_code == 3

    @pytest.mark.parametrize(
        "experiment, fault, message",
        [
            ("svd-spread", "zero", "error: singular value spread undefined for a rank-deficient matrix"),
            ("mrt-sumrate", "zero", "error: cannot beamform toward an all-zero channel column"),
            # Rejected by the parser with its line, before any matrix is reduced.
            ("svd-spread", "nan", "error: line 13: non-finite value 'nan'; values must be finite floats"),
            ("mrt-sumrate", "nan", "error: line 13: non-finite value 'nan'; values must be finite floats"),
        ],
        ids=["svd-spread-zero", "mrt-sumrate-zero", "svd-spread-nan", "mrt-sumrate-nan"],
    )
    def test_measured_channel_fault_exit_code_3(self, tmp_path, experiment, fault, message):
        # An all-zero column or a NaN entry in one matrix of a measured set.
        stack = draw_complex_gaussian(Seed(2), 8, 3, 4)
        if fault == "zero":
            stack[2, :, 1] = 0.0
        channels = tmp_path / "set.cfcsv"
        save_measured_channels(stack, channels)
        if fault == "nan":
            # The writer refuses NaN, so put it in by hand: Re H[1][3, 2] is token 4 of line 13.
            lines = channels.read_text().split("\n")
            tokens = lines[12].split(",")
            tokens[4] = "nan"
            lines[12] = ",".join(tokens)
            channels.write_text("\n".join(lines))
        path = write_config(tmp_path / "c.ini", f"[experiment]\nexperiment = {experiment}\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--channels", str(channels), "--out", str(out)])
        assert outcome.exit_code == 3
        assert outcome.stderr.startswith(message)
        assert len(outcome.stderr.splitlines()) == 1
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in outcome.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "experiment, seed, value",
        [
            ("svd-spread", 2**64, 4),
            ("svd-spread", 1, 0),
            ("mrt-sumrate", 1, 0),
            ("focusing-map", 1, "foo"),
            ("focusing-map", 1, "m=0"),
            ("focusing-map", 1, "n_scatterers=0"),
            ("focusing-map", 1, "grid_points=0"),
            ("focusing-map", 1, "grid_points=-3"),
            ("focusing-map", 1, "region_side_lambda=0"),
            ("focusing-map", 1, "region_side_lambda=nan"),
            ("focusing-map", 1, "antenna_spacing_lambda=0"),
            ("focusing-map", 1, "antenna_spacing_lambda=-4"),
            ("focusing-map", 1, "other_user_offset_lambda=0"),
            ("focusing-map", 1, "m=3"),
            ("focusing-map", 1, "grid_extent_lambda=nan"),
            ("focusing-map", 1, "bs_distance_lambda=nan"),
            ("focusing-map", 1, "bs_distance_lambda=-1"),
            ("focusing-map", 1, "region_side_lambda=1e300"),
            ("focusing-map", 1, "grid_extent_lambda=1e300"),
            ("focusing-map", 1, "bs_distance_lambda=1e200"),
            ("svd-spread", 1, "m_list=4,0"),
            ("mrt-sumrate", 1, "m_list=-4"),
            ("mrt-sumrate", 1, "target_snr_db=nan"),
            ("mrt-sumrate", 1, "target_snr_db=4000"),
            ("mrt-sumrate", 1, "target_snr_db=3079"),
            ("ee-se-tradeoff", 1, "rho_min_db=nan"),
            ("ee-se-tradeoff", 1, "rho_min_db=-4000"),
            ("ee-se-tradeoff", 1, "rho_max_db=inf"),
            ("ee-se-tradeoff", 1, "rho_max_db=4000"),
            ("ee-se-tradeoff", 1, "rho_max_db=3063"),
            ("ee-se-tradeoff", 1, "rho_points=0"),
            ("ee-se-tradeoff", 1, "coherence_symbols=0"),
            ("ee-se-tradeoff", 1, "m_massive=0"),
            ("ee-se-tradeoff", 1, "k_massive=0"),
            ("ee-se-tradeoff", 1, "m_beamforming=0"),
            ("ee-se-tradeoff", 1, "k_massive=100"),
            ("ee-se-tradeoff", 1, "m_massive=40"),
            ("ee-se-tradeoff", 1, "coherence_symbols=39"),
            ("pilot-contamination", 1, "rho_pilot=-1"),
            ("pilot-contamination", 1, "beta_home=0"),
            ("pilot-contamination", 1, "beta_home=nan"),
            ("pilot-contamination", 1, "tau=0"),
            ("pilot-contamination", 1, "m_limit=0"),
            ("pilot-contamination", 1, "betas_contaminating="),
            ("pilot-contamination", 1, "betas_contaminating=0"),
            ("pilot-contamination", 1, "betas_contaminating=1,nan"),
            ("pilot-contamination", 1, "m_list=0,16"),
            ("pilot-contamination", 1, "m_list=16"),
            ("pilot-contamination", 1, "m_list=16,16"),
            ("pilot-contamination", 1, "beta_home=1e308"),
            ("pilot-contamination", 1, "rho_pilot=5e-324"),
            ("rural-broadband", 1, "base_gain_db=nan"),
            ("rural-broadband", 1, "coherence_s=nan"),
            ("rural-broadband", 1, "terminal_pilot_power_w=-0.1"),
            ("rural-broadband", 1, "terminal_pilot_power_w=0"),
            ("rural-broadband", 1, "m=16"),
        ],
    )
    def test_invalid_value_rejected_before_run(self, tmp_path, command, experiment, seed, value):
        # A bare value sets the experiment's usual key; "key=value" names another.
        key, _, value = str(value).rpartition("=")
        key = key or ("scheme" if experiment == "focusing-map" else "k")
        body = f"[experiment]\nexperiment = {experiment}\ntrials = 2\nseed = {seed}\n\n[{experiment}]\n{key} = {value}\n"
        path = write_config(tmp_path / "c.ini", body)
        args = [command, "--config", path]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2
        assert outcome.stderr.startswith("config error:")
        assert outcome.stderr.count("\n") == 1
        assert "Traceback" not in outcome.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "values",
        [
            # Ran to negative rates.
            "pilot_fraction = 2",
            # Ran to rates of 0, the last two with a divide-by-zero warning.
            "pilot_fraction = 1",
            "m = 0",
            "total_power_w = 0",
            # Exited 3, after the draws.
            "n_terminals = 0",
            "bandwidth_hz = 0",
            "coherence_s = -1",
            "pilot_fraction = 0",
            "radius_km = 0.035",
            "radius_km = 0.01",
            "exclusion_km = -0.001",
            "drop_fraction = 1",
            "shadow_sigma_db = -1",
            # A pilot of 0.00328 symbols, which rounds to none, and a coherence interval of inf symbols.
            "pilot_fraction = 1e-9",
            "coherence_s = 1e300\nbandwidth_hz = 1e300",
            # Exited 1 with a traceback: OverflowError squaring the radius or forming the noise floor, and
            # ZeroDivisionError over a noise floor of 0.
            "radius_km = 1e200",
            "radius_km = 2e200\nexclusion_km = 1e200",
            "noise_figure_db = 4000",
            "noise_figure_db = 1e300",
            "noise_figure_db = -1e300",
            "noise_figure_db = 3000\nbandwidth_hz = 1e100\ncoherence_s = 1e-90",
            # Exited 3 after the run, with a NaN or an infinity in the summary.
            "noise_figure_db = -3000",
            "total_power_w = 1e300",
            "terminal_pilot_power_w = 1e300",
            "terminal_gain_db = 4000",
            "base_gain_db = -1e300",
        ],
    )
    def test_rural_override_out_of_range_rejected_before_run(self, tmp_path, monkeypatch, command, values):
        # allow_override lifts the pinned values, not the range checks.
        body = (
            "[experiment]\nexperiment = rural-broadband\ntrials = 2\n\n"
            f"[rural-broadband]\nallow_override = true\n{values}\n"
        )
        path = write_config(tmp_path / "c.ini", body)
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the run started"))
        args = [command, "--config", path] + (["--out", str(tmp_path / "o")] if command == "run" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        assert outcome.stderr.startswith("config error:") and outcome.stderr.count("\n") == 1
        assert values.split("=")[0].strip() in outcome.stderr  # the first key set names the fault
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "values, limit_db",
        [("beta_home = 1e200", 4000.0), ("beta_home = 1e-300", -6000.0), ("betas_contaminating = 1e200", -4000.0)],
    )
    def test_pilot_contamination_limit_finite_at_extreme_coefficients(self, tmp_path, values, limit_db):
        # These exited 1 with an OverflowError, or wrote "unbounded" with RuntimeWarnings.
        body = f"[experiment]\nexperiment = pilot-contamination\ntrials = 2\n\n[pilot-contamination]\n{values}\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.output
        assert [str(w.message) for w in caught] == []
        assert json.loads((out / "summary.json").read_text())["metrics"]["sir_limit_db"] == pytest.approx(limit_db)

    def test_pilot_contamination_sir_at_m_limit_past_the_float_range(self, tmp_path):
        # The ratio of the mean powers at m_limit underflows to 0; this exited 1 with a math domain error.
        values = "beta_home = 1e-300\nbetas_contaminating = 1e300"
        body = f"[experiment]\nexperiment = pilot-contamination\ntrials = 2\n\n[pilot-contamination]\n{values}\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.output
        assert [str(w.message) for w in caught] == []
        sir = json.loads((out / "summary.json").read_text())["metrics"]["sir_at_m_limit_db"]
        rows = [line.split(",") for line in (out / "contamination.csv").read_text().splitlines()[1:]]
        desired, directed = (np.mean([float(r[c]) for r in rows if r[0] == "10000"]) for c in (2, 3))
        assert sir == pytest.approx(10.0 * (math.log10(desired) - math.log10(directed)), rel=1e-12)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "values, key",
        [
            ("beta_home = 1e308", "beta_home"),
            ("beta_home = 1.5e300", "beta_home"),
            ("rho_pilot = 5e-324", "rho_pilot"),
            ("betas_contaminating = 1,1e301", "betas_contaminating"),
        ],
    )
    def test_pilot_contamination_projection_past_the_float_range_rejected(self, tmp_path, command, values, key):
        # Past the limit: all but beta_home = 1.5e300, which sits just past it, ran to overflow and
        # invalid-value warnings, then exited 3 on a summary with nan, naming no key.
        body = f"[experiment]\nexperiment = pilot-contamination\ntrials = 2\n\n[pilot-contamination]\n{values}\n"
        args = [command, "--config", write_config(tmp_path / "c.ini", body)]
        args += ["--out", str(tmp_path / "o")] if command == "run" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        assert outcome.stderr.startswith(f"config error: key 'pilot-contamination.{key}':")
        assert outcome.stderr.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "o").exists()

    def test_pilot_contamination_projection_inside_the_float_range_runs(self, tmp_path):
        # At m_limit = 10000 the limit on beta_home lies between 1.4e300 and 1.5e300.
        body = "[experiment]\nexperiment = pilot-contamination\ntrials = 2\n\n[pilot-contamination]\nbeta_home = 1.4e300\n"
        path = write_config(tmp_path / "c.ini", body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 0, outcome.output
        assert [str(w.message) for w in caught] == []

    def test_pilot_contamination_mean_power_sum_past_the_float_range_runs(self, tmp_path):
        # The 20000 desired powers at m_limit, about 1.4e304 each, sum past the float range: this
        # printed an overflow warning from np.mean and wrote sir_at_m_limit_db = "unbounded".
        values = "beta_home = 1.4e300\nm_list = 16,64"
        body = f"[experiment]\nexperiment = pilot-contamination\ntrials = 20000\n\n[pilot-contamination]\n{values}\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.output
        assert [str(w.message) for w in caught] == []
        # At M = 10000 the exact means are about 1e4 beta_home (desired) and 1 (directed), so the SIR is
        # about 10 log10(1.4e304) dB; 0.2 dB is about 6 standard errors of the directed mean.
        sir = json.loads((out / "summary.json").read_text())["metrics"]["sir_at_m_limit_db"]
        assert sir == pytest.approx(10.0 * math.log10(1.4e304), abs=0.2)

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "values", ["region_side_lambda = 1e300", "grid_extent_lambda = 1e300", "bs_distance_lambda = 1e200"]
    )
    def test_focusing_map_scene_past_the_float_range_rejected(self, tmp_path, command, values):
        # These ran to an overflow and an invalid-value warning, then exited 3 naming no key.
        body = f"[experiment]\nexperiment = focusing-map\ntrials = 2\n\n[focusing-map]\n{values}\n"
        args = [command, "--config", write_config(tmp_path / "c.ini", body)]
        args += ["--out", str(tmp_path / "o")] if command == "run" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        key = values.split("=")[0].strip()
        assert outcome.stderr.startswith(f"config error: key 'focusing-map.{key}':")
        assert outcome.stderr.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "values, code, stderr",
        [
            # ZF is rank-deficient when the array is that far off.
            ("bs_distance_lambda = 1e150", 3, "error: matrix is numerically rank-deficient\n"),
            ("bs_distance_lambda = 1e150\nscheme = mrt", 0, ""),
        ],
    )
    def test_focusing_map_scene_inside_the_span_limit_runs(self, tmp_path, values, code, stderr):
        body = (
            "[experiment]\nexperiment = focusing-map\ntrials = 2\n\n"
            f"[focusing-map]\nm = 8\nn_scatterers = 20\ngrid_points = 5\n{values}\n"
        )
        path = write_config(tmp_path / "c.ini", body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(tmp_path / "o")])
        assert outcome.exit_code == code, outcome.output
        assert outcome.stderr == stderr
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("key, entry", [("beta_home", 1024), ("betas_contaminating", 256)])
    def test_pilot_contamination_mean_power_underflow_exit_code_3(self, tmp_path, key, entry):
        # A mean power of 0 at an m_list entry made the log-log fit NaN: this printed a divide-by-zero
        # warning and exited 3 on a summary with nan, naming no key.
        body = f"[experiment]\nexperiment = pilot-contamination\ntrials = 2\n\n[pilot-contamination]\n{key} = 5e-324\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 3, outcome.output
        assert outcome.stderr.startswith(f"error: key 'pilot-contamination.{key}': ")
        assert f"at m_list entry {entry} underflows to 0" in outcome.stderr
        assert outcome.stderr.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, sinr",
        # A noise floor of about 1e287 W leaves every SINR at 0: this wrote sinr_db = -inf and exited 0.
        # A gain of 3000 dB makes beta infinite: this failed on a summary with inf after about ten warnings.
        [("noise_figure_db = 3000", "0.0"), ("terminal_gain_db = 3000", "inf")],
    )
    def test_rural_sinr_out_of_float_range_exit_code_3_without_files(self, tmp_path, value, sinr):
        body = (
            "[experiment]\nexperiment = rural-broadband\ntrials = 2\n\n"
            f"[rural-broadband]\nallow_override = true\n{value}\n"
        )
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 3, outcome.output
        assert outcome.stderr.startswith(f"error: rural drop 0: the equalised SINR at pilot power x1.0 is {sinr};")
        assert outcome.stderr.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("rho_max_db", [200, 3000])
    def test_ee_se_tradeoff_finite_at_high_snr(self, tmp_path, rho_max_db):
        # 1 + rho sum(beta) - rho gamma cancelled to 0 from about 160 dB; the
        # interference 1 + rho (sum_{j != k} beta_j + epsilon_k) stays >= 1.
        body = f"[experiment]\nexperiment = ee-se-tradeoff\n\n[ee-se-tradeoff]\nrho_max_db = {rho_max_db}\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.stderr
        assert [str(w.message) for w in caught] == []
        rows = [line.split(",") for line in (out / "tradeoff.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4 * 201
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "params, key",
        [
            # 10^300 x 1e9 antennas overflows; the run ended in inf (exit 3).
            ("rho_max_db = 3000\nm_massive = 1000000000\nm_beamforming = 1000000000", "rho_max_db"),
            ("rho_max_db = 3000\nm_beamforming = 1000000000", "rho_max_db"),
            # Antenna counts past the float range; the check itself raised OverflowError (exit 1).
            # The parser now rejects any count past 2**53 and names its key.
            pytest.param(f"m_massive = {10**400}", "m_massive", id="m_massive-10**400"),
            pytest.param(f"m_beamforming = {10**400}", "m_beamforming", id="m_beamforming-10**400"),
            # The reference's rate is 0 at every level; the run ended in 0/0 (exit 3).
            ("rho_min_db = -100\nrho_max_db = -79.9", "rho_max_db"),
            ("rho_min_db = -300\nrho_max_db = -80", "rho_max_db"),
            ("rho_min_db = -90\nrho_max_db = -100", "rho_min_db"),
            ("rho_min_db = -100\nrho_max_db = -30\nrho_points = 1", "rho_min_db"),
            ("coherence_symbols = 1\nk_massive = 1", "coherence_symbols"),
        ],
    )
    def test_ee_se_tradeoff_sweep_without_finite_outputs_rejected(self, tmp_path, command, params, key):
        body = f"[experiment]\nexperiment = ee-se-tradeoff\n\n[ee-se-tradeoff]\n{params}\n"
        path = write_config(tmp_path / "c.ini", body)
        args = [command, "--config", path] + (["--out", str(tmp_path / "o")] if command == "run" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        assert outcome.stderr.startswith(f"config error: key 'ee-se-tradeoff.{key}'")
        assert outcome.stderr.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "params",
        [
            "rho_max_db = 3000\nm_massive = 100000000\nm_beamforming = 100000000",
            "rho_min_db = -100\nrho_max_db = -79.5",
            "rho_min_db = -30\nrho_max_db = -90",
        ],
    )
    def test_ee_se_tradeoff_sweep_edges_accepted(self, tmp_path, params):
        body = f"[experiment]\nexperiment = ee-se-tradeoff\n\n[ee-se-tradeoff]\n{params}\n"
        outcome, rows = run_finite(tmp_path, body, "tradeoff.csv")
        assert outcome.exit_code == 0, outcome.output
        assert len(rows) == 4 * 201

    def test_mrt_sumrate_finite_at_3000_db(self, tmp_path):
        # The highest accepted level: 10^300, from which the run's own products stay finite.
        body = "[experiment]\nexperiment = mrt-sumrate\ntrials = 20\n\n[mrt-sumrate]\ntarget_snr_db = 3000\n"
        path = write_config(tmp_path / "c.ini", body)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.stderr
        assert [str(w.message) for w in caught] == []
        rows = [line.split(",") for line in (out / "sumrate.csv").read_text().splitlines()[1:]]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize("paper_scale", [False, True])
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_bundled_config_validates(self, experiment, paper_scale):
        # Every bundled INI must parse, so a key dropped from a schema is caught here.
        args = ["validate", "--config", str(CONFIGS_DIR / f"{experiment}.ini")]
        outcome = CliRunner().invoke(main, args + (["--paper-scale"] if paper_scale else []))
        assert outcome.exit_code == 0, outcome.stderr
        assert json.loads(outcome.output)["experiment"] == experiment

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_mrt_focusing_map_below_terminal_count_accepted(self, tmp_path, command):
        # Only zero-forcing needs as many antennas as the scene has terminals.
        body = (
            "[experiment]\nexperiment = focusing-map\ntrials = 2\n\n"
            "[focusing-map]\nm = 3\nscheme = mrt\nn_scatterers = 25\ngrid_points = 5\n"
        )
        path = write_config(tmp_path / "c.ini", body)
        args = [command, "--config", path]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 0, outcome.stderr
        if command == "run":
            assert (tmp_path / "o" / "focusing_map_mrt.csv").exists()

    def test_non_finite_summary_exit_code_3_without_files(self, tmp_path, monkeypatch):
        def runner(config):
            return {"x": math.nan}, {"t": Table(("a",), [(1,)])}

        monkeypatch.setitem(EXPERIMENTS, "svd-spread", replace(EXPERIMENTS["svd-spread"], runner=runner))
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\ntrials = 2\n")
        out = tmp_path / "o"
        outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 3
        assert len(outcome.stderr.splitlines()) == 1
        assert "Traceback" not in outcome.stderr
        assert not out.exists()

    def test_integer_keys_past_2_53_exit_2_naming_the_key(self, tmp_path):
        # Each of these ran past validate and ended in a traceback (exit 1).
        # Only parse: a count the run could take would allocate or loop.
        keys = 0
        for name, spec in EXPERIMENTS.items():
            for key, option in spec.schema.items():
                default = option.default[0] if isinstance(option.default, list) else option.default
                if type(default) is not int:
                    continue
                keys += 1
                body = f"[experiment]\nexperiment = {name}\n\n[{name}]\n{key} = {10**400}\n"
                if name == "rural-broadband":
                    body += "allow_override = true\n"
                path = write_config(tmp_path / "c.ini", body)
                for args in (["validate"], ["run", "--out", str(tmp_path / "o")]):
                    outcome = CliRunner().invoke(main, args + ["--config", path])
                    assert outcome.exit_code == 2, (name, key, args[0], outcome.output)
                    assert outcome.stderr == f"config error: key '{name}.{key}': must be at most 2**53 = " \
                        f"{2**53} in magnitude, got a 401-digit integer\n"
        assert keys == 17
        assert not (tmp_path / "o").exists()

    def test_count_bound_is_2_53(self, tmp_path):
        # Parse only: a count this large is accepted, never run.
        head = "[experiment]\nexperiment = focusing-map\n"
        path = write_config(tmp_path / "ok.ini", f"{head}\n[focusing-map]\nm = {2**53}\n")
        assert parse_config(path, trials=2**53).params["m"] == 2**53
        path = write_config(tmp_path / "over.ini", f"{head}\n[focusing-map]\nm = {2**53 + 1}\n")
        with pytest.raises(ConfigError, match=f"'focusing-map.m': .* got {2**53 + 1}$"):
            parse_config(path)
        path = write_config(tmp_path / "trials.ini", f"{head}trials = {2**53 + 1}\n")
        with pytest.raises(ConfigError, match=r"trials must be >= 1 and at most 2\*\*53"):
            parse_config(path)

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 256. TiB for an array\nwith shape (35184372088832,)"),
             "error: out of memory: Unable to allocate 256. TiB for an array with shape (35184372088832,)\n"),
            (MemoryError(), "error: out of memory: an allocation failed\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_exit_code_3_in_one_line(self, tmp_path, monkeypatch, error, message):
        def runner(config):
            raise error

        monkeypatch.setitem(EXPERIMENTS, "svd-spread", replace(EXPERIMENTS["svd-spread"], runner=runner))
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\ntrials = 2\n")
        outcome = CliRunner().invoke(main, ["run", "--config", path, "--out", str(tmp_path / "o")])
        assert outcome.exit_code == 3
        assert outcome.stderr == message

    def test_numpy_size_refusal_exit_code_3_other_value_errors_raise(self, tmp_path, monkeypatch):
        def refused(config):
            # numpy refuses both sizes before it tries to allocate anything.
            return np.empty((2**40, 2**40)) if config.seed else np.empty(2**64)

        def broken(config):
            raise ValueError("a bug")

        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\ntrials = 2\n")
        for runner, seed, code in ((refused, 1, 3), (refused, 0, 3), (broken, 0, 1)):
            monkeypatch.setitem(EXPERIMENTS, "svd-spread", replace(EXPERIMENTS["svd-spread"], runner=runner))
            args = ["run", "--config", path, "--seed", str(seed), "--out", str(tmp_path / "o")]
            outcome = CliRunner().invoke(main, args)
            assert outcome.exit_code == code
            if code == 3:
                assert outcome.stderr.startswith("error: out of memory: numpy refused an array size: ")
                assert outcome.stderr.count("\n") == 1
            else:
                assert isinstance(outcome.exception, ValueError)

    # out=None leaves the empty path to the file's `output_dir =`, "" passes it as --out.
    @pytest.mark.parametrize("command, out", [("run", None), ("validate", None), ("run", "")])
    def test_empty_output_dir_rejected_before_run(self, tmp_path, monkeypatch, command, out):
        # An empty path ran the whole experiment and then failed to write (exit 3).
        body = "[experiment]\nexperiment = svd-spread\ntrials = 2\n" + ("output_dir =\n" if out is None else "")
        path = write_config(tmp_path / "c.ini", body)
        monkeypatch.chdir(tmp_path)
        args = [command, "--config", path] + ([] if out is None else ["--out", out])
        outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        assert outcome.stderr.startswith("config error: key 'experiment.output_dir'")
        assert outcome.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]

    # via="file" names the path in `output_dir =`, "out" passes it as --out.
    @pytest.mark.parametrize("command, via", [("run", "file"), ("validate", "file"), ("run", "out")])
    @pytest.mark.parametrize("below", [False, True])
    def test_output_dir_on_existing_file_rejected_before_run(self, tmp_path, monkeypatch, command, via, below):
        # A regular file there ran the whole experiment and then failed to write (exit 3).
        target = tmp_path / "afile"
        target.write_bytes(b"keep\n")
        out = str(target / "sub" if below else target)
        body = "[experiment]\nexperiment = svd-spread\ntrials = 2\n" + (f"output_dir = {out}\n" if via == "file" else "")
        path = write_config(tmp_path / "c.ini", body)
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("the run started"))
        args = [command, "--config", path] + (["--out", out] if via == "out" else [])
        outcome = CliRunner().invoke(main, args)
        assert outcome.exit_code == 2, outcome.output
        assert outcome.stderr == f"config error: key 'experiment.output_dir': {str(target)!r} exists and is not a directory\n"
        assert "Traceback" not in outcome.output
        assert target.read_bytes() == b"keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.ini"]

    def test_seed_option_out_of_range_exit_code_2(self, tmp_path):
        path = write_config(tmp_path / "c.ini", "[experiment]\nexperiment = svd-spread\ntrials = 2\n")
        outcome = CliRunner().invoke(
            main, ["run", "--config", path, "--seed", str(2**64), "--out", str(tmp_path / "o")]
        )
        assert outcome.exit_code == 2
        assert "Traceback" not in outcome.stderr

    def test_run_emits_files(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = svd-spread\ntrials = 4\n\n[svd-spread]\nm_list = 4\n",
        )
        runner = CliRunner()
        out = tmp_path / "out"
        outcome = runner.invoke(main, ["run", "--config", path, "--out", str(out)])
        assert outcome.exit_code == 0
        assert (out / "spread.csv").exists()
        assert (out / "summary.json").exists()

    def test_rerun_byte_identical_across_workers(self, tmp_path):
        path = write_config(
            tmp_path / "c.ini",
            "[experiment]\nexperiment = svd-spread\ntrials = 20\nseed = 7\n\n[svd-spread]\nm_list = 4,8\n",
        )
        runner = CliRunner()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["run", "--config", path, "--out", str(out1)]).exit_code == 0
        assert (
            runner.invoke(
                main, ["run", "--config", path, "--out", str(out2), "--workers", "4"]
            ).exit_code
            == 0
        )
        assert (out1 / "spread.csv").read_bytes() == (out2 / "spread.csv").read_bytes()
