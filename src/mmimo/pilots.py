"""Pilot contamination: the asymptotic interference limit of conjugate
processing with a contaminated estimate, and its Monte Carlo simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import Seed, draw_complex_gaussian


def contamination_sir_limit_db(beta_home, betas_contaminating) -> float:
    """Asymptotic (antenna count to infinity) signal-to-interference ratio under
    conjugate processing with a pilot-contaminated estimate.

    Returns +inf when no other terminal shares the pilot.
    """
    if beta_home <= 0.0:
        raise DomainError("home slow-fading coefficient must be positive")
    others = np.asarray(betas_contaminating, dtype=float).ravel()
    if np.any(others < 0.0):
        raise DomainError("contaminating coefficients must be >= 0")
    denom = float(np.sum(others**2))
    if denom == 0.0:
        return math.inf
    return float(10.0 * np.log10(beta_home**2 / denom))


@dataclass(frozen=True)
class ContaminationSample:
    """Per-trial post-combining powers with a unit-norm conjugate combiner."""

    desired: np.ndarray
    directed: np.ndarray
    noise: np.ndarray


def simulate_contamination(
    m: int,
    beta_home: float,
    betas_contaminating,
    rho_pilot: float,
    tau: int,
    trials: int,
    seed: Seed,
) -> ContaminationSample:
    """Monte Carlo of the contaminated-estimate combiner.

    Every contaminator shares the home terminal's pilot sequence. The
    combiner is the normalised least-squares estimate, so `desired` and
    `directed` grow linearly with the antenna count while `noise` stays flat.
    """
    others = np.asarray(betas_contaminating, dtype=float).ravel()
    if trials < 1:
        raise DomainError("need at least one trial")
    desired = np.empty(trials)
    directed = np.empty(trials)
    noise = np.empty(trials)
    est_noise_std = 1.0 / math.sqrt(rho_pilot * tau)
    for t in range(trials):
        s = seed.child(t)
        h_home = math.sqrt(beta_home) * draw_complex_gaussian(s.child(0), m, 1)[:, 0]
        est = h_home.copy()
        if others.size:
            h_others = draw_complex_gaussian(s.child(1), m, others.size) * np.sqrt(others)
            est += h_others.sum(axis=1)
        est = est + est_noise_std * draw_complex_gaussian(s.child(2), m, 1)[:, 0]
        u = est / np.linalg.norm(est)
        n = draw_complex_gaussian(s.child(3), m, 1)[:, 0]
        desired[t] = np.abs(np.vdot(u, h_home)) ** 2
        directed[t] = float(np.sum(np.abs(u.conj() @ h_others) ** 2)) if others.size else 0.0
        noise[t] = np.abs(np.vdot(u, n)) ** 2
    return ContaminationSample(desired=desired, directed=directed, noise=noise)
