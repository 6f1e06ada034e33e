import math

import numpy as np
import pytest

from mmimo.errors import DomainError
from mmimo.numerics import Seed
from mmimo.pilots import contamination_sir_limit_db, simulate_contamination


class TestContaminationLimit:
    def test_no_contaminators_unbounded(self):
        assert contamination_sir_limit_db(1.0, []) == math.inf

    def test_equal_beta_zero_db(self):
        assert contamination_sir_limit_db(1.0, [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_two_weak_contaminators(self):
        assert contamination_sir_limit_db(1.0, [0.1, 0.1]) == pytest.approx(
            10 * math.log10(1.0 / 0.02), rel=1e-9
        )

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            contamination_sir_limit_db(0.0, [1.0])
        with pytest.raises(DomainError):
            contamination_sir_limit_db(1.0, [-0.5])


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
