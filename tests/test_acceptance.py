"""Release acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
values (run with -s to see them live) and then asserts the stated windows.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mmimo import capacity as cap
from mmimo.channel import make_focusing_scene
from mmimo.cli import main as cli_main
from mmimo.config import parse_config
from mmimo.experiments import run
from mmimo.numerics import Seed, draw_complex_gaussian, singular_value_spread_db
from mmimo.pilots import contamination_sir_limit_db, simulate_contamination
from mmimo.transceiver import (
    budget_for_mean_desired_snr,
    evaluate_downlink,
    field_map,
    mrt_precoder,
)

from test_capacity import bisect_equal_sinr, one_drop

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")


def shipped_summary(experiment: str, seed: int, trials: int) -> dict:
    """The summary metrics of the bundled config, as `mmimo run` computes them."""
    return run(parse_config(CONFIGS_DIR / f"{experiment}.ini", seed=seed, trials=trials)).summary


def test_criterion_1_singular_value_spread_cdf():
    """i.i.d. spread medians: 23 +/- 3 dB at M=4, < 3.5 dB at M=128, decreasing,
    from per-matrix draws and from what `mmimo run` of the bundled config computes."""
    start = time.monotonic()
    seed = Seed(101)
    medians = {}
    for mi, m in enumerate((4, 32, 128)):
        spreads = [
            singular_value_spread_db(draw_complex_gaussian(seed.child(mi, t), m, 4))
            for t in range(10_000)
        ]
        medians[m] = float(np.median(spreads))
    elapsed = time.monotonic() - start
    shipped = {int(m): v for m, v in shipped_summary("svd-spread", 101, 10_000)["median_spread_db"].items()}
    ok = elapsed < 60.0 and all(
        20.0 <= v[4] <= 26.0 and v[128] < 3.5 and v[4] > v[32] > v[128] for v in (medians, shipped)
    )
    report(
        1,
        ok,
        f"medians dB M4={medians[4]:.2f} (want 23+/-3) M32={medians[32]:.2f} "
        f"M128={medians[128]:.2f} (want <3.5), {elapsed:.1f}s; shipped path M4={shipped[4]:.2f} "
        f"M32={shipped[32]:.2f} M128={shipped[128]:.2f}",
    )
    assert sorted(shipped) == [4, 32, 128]
    for path in (medians, shipped):
        assert path[128] < 3.5
        assert path[4] > path[32] > path[128]
    assert elapsed < 60.0
    assert 20.0 <= medians[4] <= 26.0 and 20.0 <= shipped[4] <= 26.0, (
        f"4x4 medians {medians[4]:.2f} dB (per matrix), {shipped[4]:.2f} dB (shipped path)"
    )


def test_criterion_2_mrt_sum_rate_vs_antennas():
    """MRT sum-rate growth toward the interference-free ceiling."""
    start = time.monotonic()
    seed = Seed(102)
    m_values = (4, 8, 16, 32, 64, 128)
    means = []
    for mi, m in enumerate(m_values):
        rates = np.empty(2000)
        for t in range(2000):
            h = draw_complex_gaussian(seed.child(mi, t), m, 4)
            budget = budget_for_mean_desired_snr(h, 10.0, 1.0)
            rates[t] = evaluate_downlink(h, mrt_precoder(h, budget), 1.0).sum_rate
        means.append(float(np.mean(rates)))
    elapsed = time.monotonic() - start
    increasing = bool(np.all(np.diff(means) > 0))
    ok = increasing and means[-1] >= 12.0 and means[0] <= 9.0 and elapsed < 120.0
    report(
        2,
        ok,
        f"sum-rate bits/s/Hz M4={means[0]:.2f} (<=9) M128={means[-1]:.2f} (>=12, "
        f"ceiling 13.84), increasing={increasing}, {elapsed:.1f}s",
    )
    assert increasing
    assert means[-1] >= 12.0
    assert means[0] <= 9.0
    assert elapsed < 120.0


def test_criterion_2_mrt_sum_rate_shipped_path():
    """Criterion 2's windows on what `mmimo run` of the bundled config computes."""
    start = time.monotonic()
    by_m = shipped_summary("mrt-sumrate", 102, 2000)["mean_sum_rate_bps_hz"]
    elapsed = time.monotonic() - start
    means = [by_m[str(m)] for m in (4, 8, 16, 32, 64, 128)]
    increasing = bool(np.all(np.diff(means) > 0))
    ok = increasing and means[-1] >= 12.0 and means[0] <= 9.0 and elapsed < 120.0
    report(
        2,
        ok,
        f"shipped path: sum-rate bits/s/Hz M4={means[0]:.2f} (<=9) M128={means[-1]:.2f} (>=12, "
        f"ceiling 13.84), increasing={increasing}, {elapsed:.1f}s",
    )
    assert sorted(map(int, by_m)) == [4, 8, 16, 32, 64, 128]
    assert increasing
    assert means[-1] >= 12.0
    assert means[0] <= 9.0
    assert elapsed < 120.0


def test_criterion_3_energy_spectral_tradeoff_headline():
    """Multi-terminal sweep holds a (>=10x SE, >=100x EE) point over the reference."""
    start = time.monotonic()
    rho_grid = 10 ** (np.linspace(-30.0, 20.0, 201) / 10.0)
    curves = cap.ee_se_sweep(rho_grid, 196, 100, 40, 100)
    ref_se, ref_ee = curves["reference"].peak_ee_point()
    mrc = curves["mrc"]
    se_rel = mrc.spectral_efficiency / ref_se
    ee_rel = mrc.energy_efficiency / ref_ee
    witness = (se_rel >= 10.0) & (ee_rel >= 100.0)
    elapsed = time.monotonic() - start
    ok = bool(witness.any()) and elapsed < 30.0
    report(
        3,
        ok,
        f"max EE ratio {ee_rel.max():.1f} (want >=100 with SE ratio >=10; "
        f"SE ratio at that point {se_rel[np.argmax(ee_rel)]:.1f}), {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert witness.any(), (
        f"no operating point with SE >= 10x and EE >= 100x the reference peak; "
        f"best EE ratio {ee_rel.max():.2f}"
    )


def test_criterion_4_rural_broadband():
    """Pinned rural scenario: 21.2 Mb/s per terminal and 20 Gb/s sum, 950 served."""
    start = time.monotonic()
    result = cap.rural_broadband(cap.RuralConfig(), Seed(104), drops=500)
    elapsed = time.monotonic() - start
    likely = result.throughput_95_likely_mbps()
    total = float(np.mean(result.sum_throughput_gbps))
    ok = (
        result.served == 950
        and 21.2 * 0.8 <= likely <= 21.2 * 1.2
        and 20.0 * 0.8 <= total <= 20.0 * 1.2
        and elapsed < 600.0
    )
    report(
        4,
        ok,
        f"95%-likely {likely:.2f} Mb/s (want 21.2+/-20%), sum {total:.2f} Gb/s "
        f"(want 20+/-20%), served {result.served} (want 950), {elapsed:.1f}s",
    )
    assert result.served == 950
    assert elapsed < 600.0
    assert 21.2 * 0.8 <= likely <= 21.2 * 1.2, f"95%-likely throughput {likely:.2f} Mb/s"
    assert 20.0 * 0.8 <= total <= 20.0 * 1.2, f"sum throughput {total:.2f} Gb/s"


@pytest.mark.slow
def test_criterion_5_spatial_focusing():
    """Reduced-scale focusing: MRT target gain ~ 10 log10(M); ZF nulls co-users."""
    start = time.monotonic()
    seed = Seed(105)
    scene = make_focusing_scene(seed.child(0))
    grid = np.linspace(-400.0, 400.0, 41)
    mrt, zf = field_map(scene, ("mrt", "zf"), grid, grid, 100, seed.child(1))
    elapsed = time.monotonic() - start
    expected = 10.0 * math.log10(64.0)
    null_margin = float(np.min(zf.target_gain_db - zf.terminal_power_db[1:]))
    ok = (
        abs(mrt.target_gain_db - expected) <= 3.0
        and null_margin >= 20.0
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"MRT target gain {mrt.target_gain_db:.2f} dB (want {expected:.2f}+/-3), "
        f"ZF null margin {null_margin:.1f} dB (want >=20), {elapsed:.1f}s",
    )
    assert abs(mrt.target_gain_db - expected) <= 3.0
    assert null_margin >= 20.0
    assert elapsed < 300.0


def test_criterion_6_pilot_contamination():
    """Contaminated combining: SIR at the asymptote, desired/directed both ~ M."""
    start = time.monotonic()
    seed = Seed(106)
    m_values = (16, 64, 256, 1024)
    desired, directed = [], []
    for mi, m in enumerate(m_values):
        sample = simulate_contamination(
            m, 1.0, [1.0], rho_pilot=1.0, tau=64, trials=400, seed=seed.child(mi)
        )
        desired.append(float(np.mean(sample.desired)))
        directed.append(float(np.mean(sample.directed)))
    log_m = np.log(np.asarray(m_values, dtype=float))
    slope_desired = float(np.polyfit(log_m, np.log(desired), 1)[0])
    slope_directed = float(np.polyfit(log_m, np.log(directed), 1)[0])
    big = simulate_contamination(10_000, 1.0, [1.0], 1.0, 100, 100, seed.child(9))
    sir_db = 10.0 * math.log10(float(np.mean(big.desired)) / float(np.mean(big.directed)))
    limit_db = contamination_sir_limit_db(1.0, [1.0])
    elapsed = time.monotonic() - start
    ok = (
        abs(sir_db - limit_db) <= 1.0
        and abs(slope_desired - 1.0) <= 0.05
        and abs(slope_directed - 1.0) <= 0.05
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"SIR@M=1e4 {sir_db:.2f} dB vs limit {limit_db:.2f} (within 1), slopes "
        f"desired {slope_desired:.3f} directed {slope_directed:.3f} (1+/-0.05), {elapsed:.1f}s",
    )
    assert abs(sir_db - limit_db) <= 1.0
    assert abs(slope_desired - 1.0) <= 0.05
    assert abs(slope_directed - 1.0) <= 0.05
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_7_bound_validity_suite():
    """Closed forms never exceed simulation; max-min matches bisection to 1e-9."""
    start = time.monotonic()
    points = [
        ("mrc", 8, 2, 0.1, 2),
        ("mrc", 8, 4, 10.0, 8),
        ("mrc", 32, 4, 1.0, 4),
        ("mrc", 64, 8, 0.2, 16),
        ("mrc", 100, 40, 1.0, 40),
        ("mrc", 128, 8, 5.0, 8),
        ("zf", 8, 4, 10.0, 8),
        ("zf", 32, 4, 0.1, 4),
        ("zf", 64, 16, 1.0, 16),
        ("zf", 100, 40, 1.0, 40),
        ("zf", 128, 8, 5.0, 16),
        ("zf", 16, 2, 2.0, 2),
    ]
    worst = -math.inf
    for i, (scheme, m, k, rho, tau) in enumerate(points):
        params = cap.SystemParams(m=m, k=k, tau=tau, coherence_symbols=196, rho_ul=rho)
        betas = np.linspace(0.5, 2.0, k)
        bound = cap.ul_rate_bound(params, scheme, betas)
        simulated = cap.simulate_ul_rates(params, scheme, betas, Seed(107).child(i), 10_000)
        excess = float(np.max(bound - simulated * 1.01))
        worst = max(worst, excess)
        assert np.all(bound <= simulated * 1.01), (
            f"{scheme} M={m} K={k} rho={rho} tau={tau}: bound exceeds simulation"
        )
    rng = np.random.default_rng(11)
    max_dev = 0.0
    for _ in range(8):
        k = int(rng.integers(2, 50))
        betas = rng.uniform(0.01, 2.0, k)
        gammas = betas * rng.uniform(0.5, 1.0, k)
        served, _, sinr = one_drop(betas, gammas, 40.0, 128, drop_fraction=0.05)
        oracle = bisect_equal_sinr(betas[served], gammas[served], 40.0, 128)
        max_dev = max(max_dev, abs(sinr - oracle) / oracle)
    elapsed = time.monotonic() - start
    ok = worst <= 0.0 and max_dev <= 1e-9
    report(
        7,
        ok,
        f"12/12 bounds below simulation (worst margin {worst:.4f}), max-min vs "
        f"bisection rel dev {max_dev:.2e} (want <=1e-9), {elapsed:.1f}s",
    )
    assert max_dev <= 1e-9


def test_criterion_8_deterministic_outputs(tmp_path):
    """Every experiment is byte-identical across reruns and worker counts."""
    start = time.monotonic()
    configs = {
        "svd-spread": "[experiment]\nexperiment = svd-spread\ntrials = 25\nseed = 5\n\n"
        "[svd-spread]\nm_list = 4,16\n",
        "mrt-sumrate": "[experiment]\nexperiment = mrt-sumrate\ntrials = 25\nseed = 5\n\n"
        "[mrt-sumrate]\nm_list = 4,16\n",
        "focusing-map": "[experiment]\nexperiment = focusing-map\ntrials = 4\nseed = 5\n\n"
        "[focusing-map]\nm = 8\nn_scatterers = 40\ngrid_points = 9\n",
        "ee-se-tradeoff": "[experiment]\nexperiment = ee-se-tradeoff\nseed = 5\n\n"
        "[ee-se-tradeoff]\nrho_points = 41\n",
        "pilot-contamination": "[experiment]\nexperiment = pilot-contamination\ntrials = 30\n"
        "seed = 5\n\n[pilot-contamination]\nm_list = 16,64\nm_limit = 512\n",
        "rural-broadband": "[experiment]\nexperiment = rural-broadband\ntrials = 6\nseed = 5\n",
    }
    runner = CliRunner()
    for name, body in configs.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(body)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        for out, workers in ((out_a, "1"), (out_b, "4")):
            args = ["run", "--config", str(cfg), "--out", str(out), "--workers", workers]
            outcome = runner.invoke(cli_main, args)
            assert outcome.exit_code == 0, f"{name}: {outcome.output}"
        csvs_a = sorted(p.name for p in out_a.glob("*.csv"))
        csvs_b = sorted(p.name for p in out_b.glob("*.csv"))
        assert csvs_a == csvs_b and csvs_a
        for filename in csvs_a:
            assert (out_a / filename).read_bytes() == (out_b / filename).read_bytes(), (
                f"{name}/{filename} differs between 1 and 4 workers"
            )
    elapsed = time.monotonic() - start
    report(8, True, f"six experiments byte-identical at 1 vs 4 workers, {elapsed:.1f}s")
