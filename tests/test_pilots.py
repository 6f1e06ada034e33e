import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmimo.errors import DomainError
from mmimo.numerics import BLOCK_ENTRIES, Seed, draw_complex_gaussian
from mmimo.pilots import _contamination_sample, contamination_sir_limit_db, simulate_contamination

from mc_compare import assert_same_means


class TestContaminationLimit:
    def test_no_contaminators_unbounded(self):
        assert contamination_sir_limit_db(1.0, []) == math.inf

    def test_equal_beta_zero_db(self):
        assert contamination_sir_limit_db(1.0, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_weak_contaminators(self):
        assert contamination_sir_limit_db(1.0, [0.1, 0.1]) == pytest.approx(
            10 * math.log10(1.0 / 0.02), rel=1e-9
        )

    @pytest.mark.parametrize(
        "beta_home, others, expected",
        # The squares overflowed, underflowed to the "no contaminator" +inf, or both.
        [(1e200, [1.0], 4000.0), (1e-300, [1.0], -6000.0), (1.0, [1e200], -4000.0), (1.0, [1e-300, 1e-310], 6000.0)],
    )
    def test_extreme_coefficients_give_a_finite_limit(self, beta_home, others, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert contamination_sir_limit_db(beta_home, others) == pytest.approx(expected, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            contamination_sir_limit_db(0.0, [1.0])
        with pytest.raises(DomainError):
            contamination_sir_limit_db(1.0, [-0.5])


def direct_columns(seed, m, n_contaminating, trials):
    """(trials, M, n + 3) unit-variance columns drawn as M-length vectors:
    the distributional reference for the Bartlett draw. Blocks hold
    max(1, BLOCK_ENTRIES // (M (n + 3))) trials, block b from `seed.child(b)`."""
    cols = n_contaminating + 3
    size = max(1, BLOCK_ENTRIES // (m * cols))
    blocks = enumerate(range(0, trials, size))
    return np.concatenate([draw_complex_gaussian(seed.child(b), m, cols, min(size, trials - s)) for b, s in blocks])


def direct_sample(m, beta_home, betas, rho_pilot, tau, trials, seed):
    """The powers of directly drawn columns, read from W = Z^H Z."""
    z = direct_columns(seed, m, len(betas), trials)
    w = np.einsum("tmi,tmj->tij", z.conj(), z)
    return _contamination_sample(w, beta_home, np.asarray(betas, dtype=float), rho_pilot, tau)


def per_trial_reference(draws, beta_home, betas, rho_pilot, tau):
    """Desired, directed and noise powers from an explicit loop over the
    trials of a (trials, M, n + 3) draw."""
    rows = []
    for z in draws:
        h_home = math.sqrt(beta_home) * z[:, 0]
        h_others = z[:, 1:-2] * np.sqrt(betas)
        est = h_home + h_others.sum(axis=1) + z[:, -2] / math.sqrt(rho_pilot * tau)
        u = est / np.linalg.norm(est)
        rows.append(
            (
                abs(np.vdot(u, h_home)) ** 2,
                float(np.sum(np.abs(u.conj() @ h_others) ** 2)),
                abs(np.vdot(u, z[:, -1])) ** 2,
            )
        )
    return np.array(rows)


_BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
from mmimo.numerics import Seed
from mmimo.pilots import simulate_contamination
for m in (16, 1024, 10_000):
    s = simulate_contamination(m, 1.0, [1.0, 0.5], 1.0, 16, 20, Seed(m))
    sys.stdout.write(np.concatenate([s.desired, s.directed, s.noise]).tobytes().hex())
"""


class TestContaminationBlocks:
    @pytest.mark.parametrize("m, betas", [(16, [1.0]), (300, [0.3, 0.7]), (20_000, [1.0]), (2, [1.0])])
    def test_matches_per_trial_reference(self, m, betas):
        # The powers read from W = Z^H Z equal the explicit combiner's.
        trials = 7
        sample = direct_sample(m, 1.3, betas, 2.0, 8, trials, Seed(7).child(m))
        reference = per_trial_reference(direct_columns(Seed(7).child(m), m, len(betas), trials), 1.3, betas, 2.0, 8)
        got = np.column_stack([sample.desired, sample.directed, sample.noise])
        assert np.allclose(got, reference, rtol=1e-12, atol=0.0)

    def test_no_contaminator_directs_nothing(self):
        sample = simulate_contamination(32, 1.0, [], 1.0, 4, 5, Seed(8))
        assert np.array_equal(sample.directed, np.zeros(5))
        assert np.all(sample.desired > 0.0)

    def test_trials_are_prefix_stable(self):
        # One contaminator makes a 4 x 4 W, so a block holds BLOCK_ENTRIES // 16 trials.
        short = BLOCK_ENTRIES // 16 + 3  # crosses a block boundary
        first = simulate_contamination(1024, 1.0, [1.0], 1.0, 16, short, Seed(9))
        longer = simulate_contamination(1024, 1.0, [1.0], 1.0, 16, 3 * short, Seed(9))
        for field in ("desired", "directed", "noise"):
            assert np.array_equal(getattr(first, field), getattr(longer, field)[:short])

    def test_no_trials_rejected(self):
        with pytest.raises(DomainError):
            simulate_contamination(16, 1.0, [1.0], 1.0, 4, 0, Seed(10))

    def test_blas_threads_do_not_change_powers(self):
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


class TestContaminationDistribution:
    # The Bartlett draw against M-length columns, including M < n + 3.
    @pytest.mark.parametrize(
        "m, betas", [(1, [1.0]), (2, [1.0]), (3, [0.5]), (4, [1.0, 0.3]), (12, [0.8])]
    )
    def test_mean_powers_match_direct_draw(self, m, betas):
        trials = 4000
        sample = simulate_contamination(m, 1.2, betas, 0.5, 4, trials, Seed(21).child(m))
        direct = direct_sample(m, 1.2, betas, 0.5, 4, trials, Seed(22).child(m))
        fields = ("desired", "directed", "noise")
        assert_same_means(
            np.column_stack([getattr(sample, f) for f in fields]),
            np.column_stack([getattr(direct, f) for f in fields]),
            f"M={m}",
        )


def exact_means(m, beta_home, betas, rho_pilot, tau):
    """E[desired], E[directed] and E[noise] of the contaminated-estimate
    combiner. With column gains g = (sqrt(beta_home), sqrt(betas)...,
    1/sqrt(rho tau), 0) and G^2 = sum g_j^2, column j of Z given the estimate
    Z g is (g_j / G^2) Z g plus an independent part, so for the unit-norm
    combiner E|u^H z_j|^2 = 1 + (M - 1) g_j^2 / G^2 exactly, at any M >= 1."""
    g2 = beta_home + sum(betas) + 1.0 / (rho_pilot * tau)
    desired = beta_home * (1.0 + (m - 1) * beta_home / g2)
    directed = sum(b * (1.0 + (m - 1) * b / g2) for b in betas)
    return desired, directed, 1.0


class TestContaminationClosedForm:
    # (M, beta_home, betas_contaminating, rho_pilot, tau): M below, at and above n + 3, strong and weak
    # contaminators, and a noisy and a clean estimate.
    GRID = [
        (1, 1.0, [1.0], 1.0, 16),
        (2, 0.3, [1.0], 0.1, 4),
        (5, 1.0, [0.5, 0.1], 1.0, 1),
        (16, 2.0, [1.0], 0.01, 8),
        (64, 1.0, [0.2, 0.2, 0.2], 10.0, 16),
        (256, 0.5, [1.5], 1.0, 64),
    ]
    TRIALS = 10_000
    # Family-wise false-alarm rate over the 3 x len(GRID) two-sided comparisons (Bonferroni).
    ALPHA = 1e-6

    def test_simulated_means_match_the_closed_form(self):
        z_max = statistics.NormalDist().inv_cdf(1.0 - self.ALPHA / (2 * 3 * len(self.GRID)))  # about 5.4
        for index, (m, beta_home, betas, rho_pilot, tau) in enumerate(self.GRID):
            sample = simulate_contamination(m, beta_home, betas, rho_pilot, tau, self.TRIALS, Seed(37).child(index))
            powers = np.column_stack([sample.desired, sample.directed, sample.noise])
            error = powers.std(axis=0, ddof=1) / math.sqrt(self.TRIALS)
            z = (powers.mean(axis=0) - exact_means(m, beta_home, betas, rho_pilot, tau)) / error
            assert np.all(np.abs(z) <= z_max), f"M={m}, beta_home={beta_home}, betas={betas}: z = {z}"


@pytest.mark.slow
class TestContaminationSimulation:
    def test_finite_m_sir_matches_limit(self):
        sample = simulate_contamination(
            m=10_000, beta_home=1.0, betas_contaminating=[0.1, 0.1],
            rho_pilot=1.0, tau=100, trials=60, seed=Seed(5),
        )
        sir_db = 10 * np.log10(np.mean(sample.desired) / np.mean(sample.directed))
        assert sir_db == pytest.approx(contamination_sir_limit_db(1.0, [0.1, 0.1]), abs=1.0)

    def test_desired_and_directed_grow_linearly(self):
        m_values = (16, 64, 256, 1024)
        desired, directed = [], []
        for mi, m in enumerate(m_values):
            sample = simulate_contamination(
                m=m, beta_home=1.0, betas_contaminating=[1.0],
                rho_pilot=1.0, tau=64, trials=400, seed=Seed(6).child(mi),
            )
            desired.append(np.mean(sample.desired))
            directed.append(np.mean(sample.directed))
        log_m = np.log(np.asarray(m_values, float))
        slope_des = np.polyfit(log_m, np.log(desired), 1)[0]
        slope_dir = np.polyfit(log_m, np.log(directed), 1)[0]
        assert slope_des == pytest.approx(1.0, abs=0.05)
        assert slope_dir == pytest.approx(1.0, abs=0.05)
