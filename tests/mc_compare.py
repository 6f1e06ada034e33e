"""Comparison of two independent Monte Carlo samples, shared by the tests
that check the Bartlett draws against directly drawn channels."""

import numpy as np


def assert_same_means(engine, direct, label):
    """Means over axis 0 of two independent samples agree within 4 Monte
    Carlo standard errors, entry by entry."""
    engine, direct = np.asarray(engine), np.asarray(direct)
    error = np.sqrt(engine.var(axis=0, ddof=1) / len(engine) + direct.var(axis=0, ddof=1) / len(direct))
    gap = np.abs(engine.mean(axis=0) - direct.mean(axis=0))
    assert np.all(gap <= 4.0 * error), f"{label}: gap {gap} against 4 x {error}"
