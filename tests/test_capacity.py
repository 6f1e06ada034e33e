import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmimo import capacity as cap
from mmimo.channel import BASE_HEIGHT_M, TERMINAL_HEIGHT_M, path_loss_db
from mmimo.errors import ConfigError, DegenerateChannelError, DimensionError, DomainError, RankError
from mmimo.numerics import BLOCK_ENTRIES, Seed, bartlett_blocks, draw_complex_gaussian
from mmimo.transceiver import budget_for_mean_desired_snr, evaluate_downlink, mrt_precoder

from mc_compare import assert_same_means


def bisect_equal_sinr(betas, gammas, rho_dl, m, tol=1e-13):
    """Independent oracle: bisect on the common SINR subject to sum(eta) <= 1."""
    betas = np.asarray(betas, float)
    gammas = np.asarray(gammas, float)

    def feasible(s):
        eta = s * (1.0 + rho_dl * betas) / (rho_dl * m * gammas)
        return float(np.sum(eta)) <= 1.0

    lo, hi = 0.0, 1.0
    while feasible(hi):
        hi *= 2.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


class TestNoiseFloor:
    def test_20mhz_nf9(self):
        # -174 dBm/Hz + 73 dB + 9 dB = -92 dBm.
        watts = cap.noise_power_w(20e6, 9.0)
        assert 10 * np.log10(watts * 1000) == pytest.approx(-91.99, abs=0.01)


class TestSystemParams:
    def test_tau_bounds(self):
        with pytest.raises(DomainError):
            cap.SystemParams(m=4, k=2, tau=0, coherence_symbols=10)
        with pytest.raises(DomainError):
            cap.SystemParams(m=4, k=2, tau=11, coherence_symbols=10)

    def test_overhead(self):
        params = cap.SystemParams(m=4, k=2, tau=5, coherence_symbols=20)
        assert params.overhead_prefactor == pytest.approx(0.75)


class TestUlRateBound:
    def test_all_pilots_zero_rate(self):
        params = cap.SystemParams(m=16, k=2, tau=10, coherence_symbols=10, rho_ul=1.0)
        rates = cap.ul_rate_bound(params, "mrc", np.ones(2))
        assert np.all(rates == 0.0)

    def test_monotone_in_antennas(self):
        rates = []
        for m in (2, 4, 8, 16, 32, 64):
            params = cap.SystemParams(m=m, k=2, tau=2, coherence_symbols=100, rho_ul=1.0)
            rates.append(float(np.sum(cap.ul_rate_bound(params, "mrc", np.ones(2)))))
        assert np.all(np.diff(rates) > 0)

    def test_zf_needs_headroom(self):
        params = cap.SystemParams(m=4, k=4, tau=4, coherence_symbols=100, rho_ul=1.0)
        with pytest.raises(RankError):
            cap.ul_rate_bound(params, "zf", np.ones(4))

    def test_bound_below_simulation(self):
        params = cap.SystemParams(m=100, k=40, tau=40, coherence_symbols=196, rho_ul=1.0)
        betas = np.linspace(0.5, 2.0, 40)
        bound = cap.ul_rate_bound(params, "mrc", betas)
        simulated = cap.simulate_ul_rates(params, "mrc", betas, Seed(0), n_draws=4000)
        assert np.all(bound <= simulated * 1.01)
        assert np.all(simulated - bound < 1.0)

    def test_prefactor_linear_in_overhead(self):
        # Same tau (hence same SINR), different coherence: rate scales with
        # the payload fraction exactly.
        betas = np.ones(2)
        long = cap.SystemParams(m=16, k=2, tau=10, coherence_symbols=100, rho_ul=1.0)
        short = cap.SystemParams(m=16, k=2, tau=10, coherence_symbols=20, rho_ul=1.0)
        r_long = cap.ul_rate_bound(long, "mrc", betas)
        r_short = cap.ul_rate_bound(short, "mrc", betas)
        assert np.allclose(r_short, r_long * (0.5 / 0.9), rtol=1e-12)


class TestEstimateQuality:
    def test_formula(self):
        gamma = cap.estimate_quality(np.array([1.0]), rho_pilot=1.0, tau=10)
        assert gamma[0] == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_never_exceeds_beta(self):
        betas = np.logspace(-3, 1, 20)
        gamma = cap.estimate_quality(betas, 2.0, 8)
        assert np.all(gamma <= betas)

    def test_simulated_mmse_estimate_matches_gamma(self):
        # The validators' drawn statistics have the moments of the MMSE
        # estimator: E[G_kk] = E[C_kk] = M gamma_k (the estimate's
        # mean-square is gamma and it is uncorrelated with its error), and
        # E|C_kj|^2 = M gamma_k beta_j for k != j, each within 4 standard errors.
        m, betas = 4, np.array([1.0, 0.25])
        params = cap.SystemParams(m=m, k=2, tau=8, coherence_symbols=100, rho_pilot=2.0)
        gammas = cap.estimate_quality(betas, 2.0, 8)
        gram, cross = engine_statistics(params, betas, Seed(3), 20_000)
        samples = {
            "G_kk": np.diagonal(gram, axis1=1, axis2=2).real,
            "C_kk": np.diagonal(cross, axis1=1, axis2=2).real,
            "|C_01|^2": np.abs(cross[:, 0, 1]) ** 2,
            "|C_10|^2": np.abs(cross[:, 1, 0]) ** 2,
        }
        expected = {
            "G_kk": m * gammas,
            "C_kk": m * gammas,
            "|C_01|^2": m * gammas[0] * betas[1],
            "|C_10|^2": m * gammas[1] * betas[0],
        }
        for name, values in samples.items():
            error = values.std(axis=0, ddof=1) / np.sqrt(len(values))
            assert np.all(np.abs(values.mean(axis=0) - expected[name]) <= 4.0 * error), name


class TestEeSeSweep:
    @pytest.fixture(scope="class")
    @staticmethod
    def curves():
        rho = 10 ** (np.linspace(-30, 20, 201) / 10.0)
        return cap.ee_se_sweep(rho, 196, 100, 40, 100)

    def test_reference_normalised_to_one(self, curves):
        ref = curves["reference"]
        _, peak = ref.peak_ee_point()
        assert np.max(ref.energy_efficiency / peak) == pytest.approx(1.0)

    def test_beamforming_dominates_reference(self, curves):
        ref = curves["reference"]
        bf = curves["beamforming"]
        # For every reference point there is a beamforming point that is at
        # least as good in both coordinates.
        for se, ee in zip(ref.spectral_efficiency, ref.energy_efficiency):
            dominated = (bf.spectral_efficiency >= se) & (bf.energy_efficiency >= ee)
            assert dominated.any()

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            cap.ee_se_sweep([], 196, 100, 40, 100)

    def test_multi_terminal_frontier_headline(self, curves):
        # Multi-terminal operation must offer at least tenfold spectral
        # efficiency together with a hundredfold energy efficiency over the
        # reference's best-energy point.
        ref_se, ref_ee = curves["reference"].peak_ee_point()
        mrc = curves["mrc"]
        witness = (mrc.spectral_efficiency >= 10 * ref_se) & (
            mrc.energy_efficiency >= 100 * ref_ee
        )
        assert witness.any(), (
            f"max EE ratio {np.max(mrc.energy_efficiency) / ref_ee:.1f} "
            f"(best at SE ratio "
            f"{mrc.spectral_efficiency[np.argmax(mrc.energy_efficiency)] / ref_se:.1f})"
        )


def one_drop(betas, gammas, rho_dl, m, drop_fraction=0.05):
    """`maxmin_power_control` of one drop with one row of estimate qualities:
    the served terminals in index order, the power fractions
    eta = SINR x cost on them (0 elsewhere) and the equalised SINR."""
    served, cost, sinr = cap.maxmin_power_control(betas[None], gammas[None, None], rho_dl, m, drop_fraction)
    eta = np.zeros(betas.size)
    eta[served[0]] = sinr[0, 0] * cost[0, 0]
    return np.sort(served[0]), eta, float(sinr[0, 0])


class TestMaxMinPowerControl:
    def test_equal_betas_uniform(self):
        betas = np.ones(20)
        gammas = 0.9 * betas
        served, eta, _ = one_drop(betas, gammas, rho_dl=10.0, m=64)
        assert served.size == 19
        assert np.allclose(eta[served], eta[served][0], rtol=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 30))
            betas = rng.uniform(0.01, 2.0, k)
            gammas = betas * rng.uniform(0.5, 1.0, k)
            rho, m = 50.0, 256
            _, _, sinr = one_drop(betas, gammas, rho, m, drop_fraction=0.0)
            oracle = bisect_equal_sinr(betas, gammas, rho, m)
            assert sinr == pytest.approx(oracle, rel=1e-9)

    def test_two_user_closed_form(self):
        betas = np.array([1.0, 0.25])
        gammas = np.array([0.9, 0.2])
        rho, m = 8.0, 32
        _, eta, _ = one_drop(betas, gammas, rho, m, drop_fraction=0.0)
        weights = (1.0 + rho * betas) / gammas
        expected_eta = weights / np.sum(weights)
        assert np.allclose(eta, expected_eta, rtol=1e-12)
        sinrs = rho * m * eta * gammas / (1.0 + rho * betas)
        assert sinrs[0] == pytest.approx(sinrs[1], rel=1e-9)

    def test_equalisation_and_optimality(self):
        rng = np.random.default_rng(4)
        betas = rng.uniform(0.05, 1.0, 15)
        gammas = betas * 0.9
        rho, m = 20.0, 128
        _, control_eta, control_sinr = one_drop(betas, gammas, rho, m, drop_fraction=0.0)
        sinrs = rho * m * control_eta * gammas / (1.0 + rho * betas)
        assert np.allclose(sinrs, control_sinr, rtol=1e-9)
        # Any feasible perturbation strictly lowers the minimum SINR.
        for _ in range(25):
            delta = rng.normal(0, 1e-3, betas.size)
            delta -= delta.mean()
            eta = control_eta + delta
            if np.any(eta < 0):
                continue
            perturbed = rho * m * eta * gammas / (1.0 + rho * betas * np.sum(eta))
            assert perturbed.min() < control_sinr

    def test_weakest_served_gets_largest_share(self):
        rng = np.random.default_rng(5)
        betas = rng.uniform(0.05, 1.0, 40)
        gammas = betas * rng.uniform(0.8, 1.0, 40)
        served, eta, _ = one_drop(betas, gammas, rho_dl=30.0, m=256)
        weakest = served[np.argmin(gammas[served])]
        assert eta[weakest] == pytest.approx(np.max(eta), rel=1e-12)

    def test_tie_break_is_stable(self):
        betas = np.ones(40)
        gammas = 0.9 * betas
        served, _, _ = one_drop(betas, gammas, rho_dl=10.0, m=64)
        assert served.tolist() == list(range(2, 40))

    @pytest.mark.parametrize("betas_shape, gammas_shape", [((1, 0), (1, 1, 0)), ((1, 3), (0, 1, 3))])
    def test_empty_input_rejected(self, betas_shape, gammas_shape):
        with pytest.raises(DomainError, match="no terminals"):
            cap.maxmin_power_control(np.ones(betas_shape), np.full(gammas_shape, 0.5), 1.0, 4)

    @pytest.mark.parametrize("drop_fraction", [0.0, 0.05, 0.3])
    def test_piece_rows_equal_one_drop_calls(self, drop_fraction):
        # A piece's (R, D, K) rows are D x R one-drop calls, bit for bit.
        rng = np.random.default_rng(7)
        betas = rng.lognormal(-20.0, 2.0, (4, 300))
        gammas = betas * rng.uniform(0.5, 1.0, (3, *betas.shape))
        served, cost, sinr = cap.maxmin_power_control(betas, gammas, 1e12, 6400, drop_fraction)
        assert sinr.shape == (3, 4) and served.shape == (4, 300 - math.floor(drop_fraction * 300))
        assert cost.shape == (3, *served.shape)
        for d in range(4):
            for r in range(3):
                single_served, eta, single_sinr = one_drop(betas[d], gammas[r, d], 1e12, 6400, drop_fraction)
                assert sinr[r, d] == single_sinr
                assert np.array_equal(np.sort(served[d] - 300 * d), single_served)
                assert np.array_equal(eta[served[d] - 300 * d], sinr[r, d] * cost[r, d])

    def test_piece_tie_break_is_stable(self):
        # A tie across the cut drops the lowest indices, whatever the piece's
        # other drops hold; the sort alone may order the 77 ties of 13 levels otherwise.
        betas = np.stack([np.linspace(2.0, 1.0, 1000), np.ones(1000), 1.0 + np.arange(1000) % 13])
        served, _, _ = cap.maxmin_power_control(betas, 0.9 * betas[None], 10.0, 64, 0.05)
        dropped = [sorted(set(range(1000)) - set(row.tolist())) for row in served % 1000]
        assert dropped == [list(range(950, 1000)), list(range(50)), list(range(0, 650, 13))]

    @pytest.mark.parametrize("shape", [(3, 4, 950), (1, 1, 1), (2, 7, 37), (3, 1, 9000), (1, 5, 129)])
    def test_axis_sum_equals_row_sums(self, shape):
        # The SINRs come from one sum along the last axis of the contiguous
        # (R, D, S) costs; each equals the sum of its row as a 1-D array, bit for bit.
        rng = np.random.default_rng(sum(shape))
        betas = rng.lognormal(-20.0, 2.0, shape[1:])
        gammas = betas * rng.uniform(0.5, 1.0, shape)
        _, cost, sinr = cap.maxmin_power_control(betas, gammas, 1e12, 6400, 0.0)
        assert cost.shape == shape and cost.flags.c_contiguous
        rows = np.array([np.sum(row) for row in cost.reshape(-1, shape[-1])]).reshape(shape[:-1])
        assert np.array_equal(sinr, 1.0 / rows)

    @pytest.mark.parametrize(
        "betas_shape, gammas_shape",
        [((5,), (1, 1, 5)), ((1, 5), (1, 5)), ((1, 5), (1, 1, 4)), ((1, 5), (2, 2, 5)), ((2, 5), (1, 5, 2)),
         ((1, 5), ())],
    )
    def test_misaligned_shapes_rejected(self, betas_shape, gammas_shape):
        with pytest.raises(DimensionError, match="must align"):
            cap.maxmin_power_control(np.ones(betas_shape), np.full(gammas_shape, 0.5), 1.0, 4)


def direct_channels(seed, m, betas, rho_pilot, tau, draws):
    """(draws, M, K) true channels H and MMSE estimates H_hat drawn as M x K
    matrices: the distributional reference for the validators' Bartlett draw.
    The least-squares estimate is H plus CN(0, 1/(rho_p tau)) noise, then
    MMSE-rescaled."""
    energy = rho_pilot * tau
    h = draw_complex_gaussian(seed.child(0), m, betas.size, draws) * np.sqrt(betas)
    noise = draw_complex_gaussian(seed.child(1), m, betas.size, draws)
    return h, energy * betas / (1.0 + energy * betas) * (h + noise / np.sqrt(energy))


def direct_statistics(h, h_hat):
    """G = H_hat^H H_hat and C = H_hat^H H of a stack of draws."""
    h_hat_h = h_hat.conj().transpose(0, 2, 1)
    return h_hat_h @ h_hat, h_hat_h @ h


def direct_factors(h, h_hat):
    """The validators' factors of a stack of draws, by QR: H_hat = Q R,
    B = R^H and F = Q^H H, so that G = B B^H and C = B F, also for M < K
    (then R is M x K)."""
    q, r = np.linalg.qr(h_hat)
    return r.conj().transpose(0, 2, 1), q.conj().transpose(0, 2, 1) @ h


def engine_statistics(params, betas, seed, draws):
    """G = B B^H and C = B F from the factors of every piece the validators
    draw."""
    b, f = map(np.concatenate, zip(*cap._statistic_pieces(params, betas, seed, draws)))
    return b @ b.conj().transpose(0, 2, 1), b @ f


def stream_power(params, betas, eta):
    """The downlink's s_j^2 column, as `simulate_dl_rates` forms it."""
    gammas = cap.estimate_quality(betas, params.pilot_snr, params.tau)
    return (params.rho_dl * eta / (params.m * gammas))[:, None]


def per_draw_reference_rates(params, betas, eta, h, h_hat):
    """MRC, ZF and downlink rates from an explicit loop over a stack of draws,
    with the ZF combiner taken from `np.linalg.pinv`."""
    stream_scale = np.sqrt(stream_power(params, betas, eta)[:, 0])
    rho = params.rho_ul
    rates = {"mrc": 0.0, "zf": 0.0, "dl": 0.0}
    for channel, estimate in zip(h, h_hat):
        for scheme, combiner in (("mrc", estimate), ("zf", np.linalg.pinv(estimate).conj().T)):
            powers = np.abs(combiner.conj().T @ channel) ** 2
            signal = np.diag(powers)
            noise = np.sum(np.abs(combiner) ** 2, axis=0)
            rates[scheme] = rates[scheme] + np.log2(1.0 + rho * signal / (rho * (powers.sum(axis=1) - signal) + noise))
        heard = np.abs(channel.T @ (estimate.conj() * stream_scale)) ** 2  # [terminal, stream]
        signal = np.diag(heard)
        rates["dl"] = rates["dl"] + np.log2(1.0 + signal / (heard.sum(axis=1) - signal + 1.0))
    return {key: params.overhead_prefactor * total / len(h) for key, total in rates.items()}


_BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
from mmimo import capacity as cap
from mmimo.channel import build_large_scale_profile, place_terminals
from mmimo.numerics import Seed
params = cap.SystemParams(m=100, k=40, tau=40, coherence_symbols=196, rho_ul=1.0, rho_dl=1.0)
betas = np.linspace(0.5, 2.0, 40)
mrc = cap.simulate_ul_rates(params, "mrc", betas, Seed(4), n_draws=500)
zf = cap.simulate_ul_rates(params, "zf", betas, Seed(5), n_draws=500)
dl = cap.simulate_dl_rates(params, betas, np.full(40, 1.0 / 40), Seed(6), n_draws=500)
sys.stdout.write(np.concatenate([mrc, zf, dl]).tobytes().hex())
"""


class TestRateSimulators:
    def test_matches_per_draw_reference(self):
        # The reductions read from G and C equal the explicit receivers.
        params = cap.SystemParams(m=8, k=3, tau=3, coherence_symbols=196, rho_ul=2.0, rho_dl=2.0)
        betas = np.array([0.5, 1.0, 1.7])
        eta = np.array([0.2, 0.3, 0.5])
        h, h_hat = direct_channels(Seed(9), params.m, betas, params.pilot_snr, params.tau, 20)
        expected = per_draw_reference_rates(params, betas, eta, h, h_hat)
        factor, error = direct_factors(h, h_hat)
        for scheme in ("mrc", "zf"):
            reduced = params.overhead_prefactor * cap._ul_rate_sums(scheme, factor, error, params.rho_ul) / 20
            np.testing.assert_allclose(reduced, expected[scheme], rtol=1e-12, atol=0.0)
        cross = factor @ error
        reduced = params.overhead_prefactor * cap._rates(cross, stream_power(params, betas, eta)).sum(axis=0) / 20
        np.testing.assert_allclose(reduced, expected["dl"], rtol=1e-12, atol=0.0)

    def test_zf_needs_fewer_terminals_than_antennas(self):
        params = cap.SystemParams(m=4, k=4, tau=4, coherence_symbols=100, rho_ul=1.0)
        with pytest.raises(RankError):
            cap.simulate_ul_rates(params, "zf", np.ones(4), Seed(0), n_draws=10)

    def test_zf_singular_gram_raises_rank_error(self):
        # A terminal with no channel leaves an all-zero estimate column.
        params = cap.SystemParams(m=4, k=2, tau=2, coherence_symbols=100, rho_ul=1.0)
        with pytest.raises(RankError):
            cap.simulate_ul_rates(params, "zf", np.array([1.0, 0.0]), Seed(0), n_draws=10)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 9, 16, 17, 40, 41, 64])
    def test_lower_inverse_matches_dense_inverse(self, k):
        lower = np.concatenate([a for a, _ in bartlett_blocks(Seed(8).child(k), k + 3, k, 6)])
        got = cap._lower_inverse(lower)
        expected = np.linalg.inv(lower)
        # The dense LU inverse leaves rounding noise above the diagonal.
        assert np.all(np.triu(got, 1) == 0.0)
        assert np.abs(np.triu(expected, 1)).max() <= 1e-12 * np.abs(expected).max()
        np.testing.assert_allclose(got, np.tril(expected), rtol=1e-12, atol=0.0)

    def test_blas_threads_do_not_change_rates(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestStatisticsDistribution:
    """The validators' Bartlett draw of (G, C), formed from the factors of
    their pieces, against G and C formed from directly drawn M x K channels,
    at small M and K and with K > M."""

    @pytest.mark.parametrize("m, k", [(1, 2), (2, 4), (3, 3), (5, 2)])
    def test_moments_match_direct_draw(self, m, k):
        betas = np.linspace(0.4, 1.6, k)
        params = cap.SystemParams(m=m, k=k, tau=k, coherence_symbols=100, rho_pilot=0.7)
        draws = 6000
        engine = engine_statistics(params, betas, Seed(31), draws)
        direct = direct_statistics(*direct_channels(Seed(32), m, betas, params.pilot_snr, params.tau, draws))
        for label, e, d in zip("GC", engine, direct):
            # Entrywise first moments and second absolute moments.
            e, d = (np.concatenate([x.real, x.imag, np.abs(x) ** 2], axis=1).reshape(draws, -1) for x in (e, d))
            assert_same_means(e, d, f"{label} M={m} K={k}")

    @pytest.mark.parametrize(
        "scheme, m, k", [("mrc", 4, 2), ("mrc", 2, 4), ("mrc", 1, 3), ("zf", 3, 2), ("zf", 6, 3), ("dl", 5, 3), ("dl", 2, 5)]
    )
    def test_mean_rates_match_direct_draw(self, scheme, m, k):
        # Rates of 30 independent groups of 200 draws on each side.
        betas = np.linspace(0.5, 1.5, k)
        eta = np.full(k, 1.0 / k)
        params = cap.SystemParams(m=m, k=k, tau=k, coherence_symbols=100, rho_ul=3.0, rho_dl=3.0, rho_pilot=0.5)
        groups, draws = 30, 200
        engine, direct = [], []
        for g in range(groups):
            h, h_hat = direct_channels(Seed(42).child(g), m, betas, params.pilot_snr, params.tau, draws)
            factor, error = direct_factors(h, h_hat)
            if scheme == "dl":
                engine.append(cap.simulate_dl_rates(params, betas, eta, Seed(41).child(g), draws))
                sums = cap._rates(factor @ error, stream_power(params, betas, eta)).sum(axis=0)
            else:
                engine.append(cap.simulate_ul_rates(params, scheme, betas, Seed(41).child(g), draws))
                sums = cap._ul_rate_sums(scheme, factor, error, params.rho_ul)
            direct.append(params.overhead_prefactor * sums / draws)
        assert_same_means(engine, direct, f"{scheme} M={m} K={k}")


class TestMrtSumRates:
    """The Gram-domain MRT sum rate of mrt-sumrate against the per-matrix
    precoder chain of `transceiver`, on the same channels."""

    @pytest.mark.parametrize("m", [1, 2, 4, 32, 128])
    def test_matches_per_matrix_reference(self, m):
        h = draw_complex_gaussian(Seed(60).child(m), m, 4, 50)
        got = cap.mrt_sum_rates(np.einsum("tri,trj->tij", h.conj(), h), 10.0)
        expected = [
            evaluate_downlink(z, mrt_precoder(z, budget_for_mean_desired_snr(z, 10.0, 1.0)), 1.0).sum_rate for z in h
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_zero_column_rejected(self):
        h = draw_complex_gaussian(Seed(61), 4, 3, 5)
        h[3, :, 1] = 0.0
        with pytest.raises(DegenerateChannelError, match="all-zero channel column"):
            cap.mrt_sum_rates(np.einsum("tri,trj->tij", h.conj(), h), 10.0)


class TestDlBoundValidity:
    def test_dl_bound_below_simulation(self):
        m, k = 64, 8
        betas = np.linspace(0.4, 1.5, k)
        params = cap.SystemParams(m=m, k=k, tau=k, coherence_symbols=196, rho_dl=5.0, rho_pilot=5.0)
        gammas = cap.estimate_quality(betas, 5.0, k)
        _, eta, _ = one_drop(betas, gammas, 5.0, m, drop_fraction=0.0)
        bound_sinr = cap.dl_mrt_sinr(m, 5.0, betas, gammas, eta)
        bound = params.overhead_prefactor * np.log2(1.0 + bound_sinr)
        simulated = cap.simulate_dl_rates(params, betas, eta, Seed(1), n_draws=4000)
        assert np.all(bound <= simulated * 1.01)


def reference_rural(config, seed, drops):
    """`rural_broadband` drop by drop: drop i is row i % B of block i // B,
    B = max(1, BLOCK_ENTRIES // K), whose squared ground radii are one
    (rows, K) uniform draw of the block's `child(0)` and whose shadow fading
    is one (rows, K) normal draw of its `child(1)`. Then the link budget at
    the 3-D distance over the squared ground radius and one one-drop max-min
    power control per pilot power (x1, x0.1, x10), each rate from math.log2.
    Returns (rates per pilot power, the x1 SINRs, pilot_quality_min, served)."""
    noise = cap.noise_power_w(config.bandwidth_hz, config.noise_figure_db)
    rho_dl = config.total_power_w / noise
    tau = int(round(config.pilot_fraction * config.coherence_s * config.bandwidth_hz))
    k = config.n_terminals
    block = max(1, BLOCK_ENTRIES // k)
    rates, sinrs, qualities, served = ([], [], []), [], [], set()
    for index in range(drops):
        block_seed = seed.child(index // block)
        rows = (min(block, drops - index // block * block), k)
        squared_radii = block_seed.child(0).generator().uniform(config.exclusion_km**2, config.radius_km**2, rows)
        shadow = config.shadow_sigma_db * block_seed.child(1).generator().standard_normal(rows)
        row = index % block
        distance = np.sqrt(squared_radii[row] + ((BASE_HEIGHT_M - TERMINAL_HEIGHT_M) / 1000.0) ** 2)
        gains_db = config.base_gain_db + config.terminal_gain_db
        betas = 10.0 ** ((-path_loss_db(distance) + shadow[row] + gains_db) / 10.0)
        for scale, scale_rates in zip((1.0, 0.1, 10.0), rates):
            gammas = cap.estimate_quality(betas, scale * config.terminal_pilot_power_w / noise, tau)
            drop_served, _, sinr = one_drop(betas, gammas, rho_dl, config.m, config.drop_fraction)
            rate = (1.0 - config.pilot_fraction) * math.log2(1.0 + sinr) * config.bandwidth_hz / 1e6
            scale_rates.append(rate)
            if scale == 1.0:
                sinrs.append(sinr)
                qualities.append(float(np.min(gammas[drop_served] / betas[drop_served])))
                served.add(len(drop_served))
    (count,) = served
    return [np.array(r) for r in rates], np.array(sinrs), min(qualities), count


def assert_equals_reference(config, seed, drops):
    result = cap.rural_broadband(config, seed, drops)
    (rate, weaker, stronger), sinr, quality, served = reference_rural(config, seed, drops)
    assert np.array_equal(result.equal_rate_mbps, rate)
    assert np.array_equal(result.sinr, sinr)
    assert result.pilot_quality_min == quality
    assert result.served == served
    assert result.sensitivity_mbps == {
        "pilot_power_x0.1_mean": float(np.mean(weaker)),
        "pilot_power_x10_mean": float(np.mean(stronger)),
    }


class TestRuralBroadband:
    @pytest.mark.parametrize(
        "config",
        [
            cap.RuralConfig(),
            cap.RuralConfig(n_terminals=200, drop_fraction=0.0, allow_override=True),
            cap.RuralConfig(n_terminals=200, drop_fraction=0.3, allow_override=True),
        ],
        ids=["pinned", "k200-drop0", "k200-drop0.3"],
    )
    @pytest.mark.parametrize("drops", [1, cap.RURAL_PIECE_DROPS, cap.RURAL_PIECE_DROPS + 1, 6])
    def test_equals_three_pass_reference(self, config, drops):
        assert_equals_reference(config, Seed(7), drops)

    @pytest.mark.parametrize("drops", [3, 4, 5, 9])
    def test_equals_reference_across_block_boundaries(self, drops):
        # 8192 terminals make blocks of 4 drops: 9 drops end one drop into a third block.
        config = cap.RuralConfig(n_terminals=8192, allow_override=True)
        assert max(1, BLOCK_ENTRIES // config.n_terminals) == 4
        assert_equals_reference(config, Seed(11), drops)

    def test_first_drops_do_not_depend_on_the_drop_count(self):
        # Drop 32 opens a second block of the pinned run; the first 32 keep their bytes.
        short = cap.rural_broadband(cap.RuralConfig(), Seed(9), 32)
        long = cap.rural_broadband(cap.RuralConfig(), Seed(9), 33)
        assert short.equal_rate_mbps.tobytes() == long.equal_rate_mbps[:32].tobytes()
        assert short.sinr.tobytes() == long.sinr[:32].tobytes()

    @pytest.mark.parametrize("drops", [1, 32, 33, 70])
    def test_two_generators_per_block(self, monkeypatch, drops):
        calls = []
        generator = Seed.generator

        def counting(seed):
            calls.append(seed.path)
            return generator(seed)

        monkeypatch.setattr(Seed, "generator", counting)
        cap.rural_broadband(cap.RuralConfig(), Seed(1), drops)
        blocks = math.ceil(drops / (BLOCK_ENTRIES // 1000))
        assert sorted(calls) == [(b, stream) for b in range(blocks) for stream in (0, 1)]

    def test_calls_the_public_maxmin_once_per_piece(self, monkeypatch):
        # What the traced layer `capacity.maxmin` wraps is what the run calls.
        shapes = []
        maxmin = cap.maxmin_power_control

        def recording(betas, gammas, *args):
            shapes.append((betas.shape, gammas.shape))
            return maxmin(betas, gammas, *args)

        monkeypatch.setattr(cap, "maxmin_power_control", recording)
        assert cap.RURAL_PIECE_DROPS == 4
        cap.rural_broadband(cap.RuralConfig(), Seed(1), 5)
        assert shapes == [((4, 1000), (3, 4, 1000)), ((1, 1000), (3, 1, 1000))]

    def test_piece_size_changes_no_byte(self, monkeypatch):
        pieces = cap.rural_broadband(cap.RuralConfig(), Seed(8), drops=6)
        monkeypatch.setattr(cap, "RURAL_PIECE_DROPS", 1)
        single = cap.rural_broadband(cap.RuralConfig(), Seed(8), drops=6)
        assert pieces.equal_rate_mbps.tobytes() == single.equal_rate_mbps.tobytes()
        assert pieces.sinr.tobytes() == single.sinr.tobytes()
        assert repr(pieces.summary()) == repr(single.summary())

    def test_pinned_config_required(self):
        with pytest.raises(ConfigError):
            cap.RuralConfig(m=1000)

    def test_override_flag_allows_studies(self):
        config = cap.RuralConfig(m=1000, allow_override=True)
        assert config.m == 1000

    @pytest.mark.parametrize("power", [0.0, -0.1, float("nan")])
    def test_nonpositive_pilot_power_rejected(self, power):
        # Even with the override: a non-positive pilot power gives gamma > beta.
        with pytest.raises(ConfigError, match="terminal_pilot_power_w"):
            cap.RuralConfig(terminal_pilot_power_w=power, allow_override=True)

    def test_smoke_run_serves_950(self):
        result = cap.rural_broadband(cap.RuralConfig(), Seed(2), drops=10)
        assert result.served == 950
        assert result.equal_rate_mbps.shape == (10,)
        assert np.all(result.equal_rate_mbps > 0)
        assert result.pilot_quality_min > 0.9

    def test_summary_fields(self):
        result = cap.rural_broadband(cap.RuralConfig(), Seed(3), drops=5)
        summary = result.summary()
        assert summary["served_per_drop"] == 950
        assert "throughput_95_likely_mbps" in summary
        assert "sensitivity_mbps" in summary

    def test_summary_uses_configured_bandwidth(self):
        config = cap.RuralConfig(allow_override=True, bandwidth_hz=10e6)
        summary = cap.rural_broadband(config, Seed(5), drops=2).summary()
        assert summary["sum_spectral_efficiency_bps_hz"] == summary["sum_throughput_gbps_mean"] * 1e9 / 10e6
