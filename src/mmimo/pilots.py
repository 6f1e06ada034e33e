"""Pilot contamination: the asymptotic interference limit of conjugate
processing with a contaminated estimate, and its Monte Carlo simulation.

The simulation draws no M-length channel. Each trial's Gram matrix
W = Z^H Z of its n + 3 unit-variance columns is drawn as A A^H, with A the
Bartlett factor of the complex Wishart matrix (lower triangular, or
(n + 3) x M lower trapezoidal when M < n + 3; `numerics.bartlett_blocks`),
whose CN(0, 1) entries come from uniforms by Box-Muller, each within 3e-7
(relative) of its float64 value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import Seed, bartlett_blocks


def contamination_sir_limit_db(beta_home, betas_contaminating) -> float:
    """Asymptotic (antenna count to infinity) signal-to-interference ratio under
    conjugate processing with a pilot-contaminated estimate.

    Returns +inf when no other terminal shares the pilot. The ratio
    beta_home^2 / sum(beta_c^2) is formed in dB, with the sum scaled by its
    largest term, so no square overflows or underflows.
    """
    if beta_home <= 0.0:
        raise DomainError("home slow-fading coefficient must be positive")
    others = np.asarray(betas_contaminating, dtype=float).ravel()
    if np.any(others < 0.0):
        raise DomainError("contaminating coefficients must be >= 0")
    largest = float(np.max(others, initial=0.0))
    if largest == 0.0:
        return math.inf
    scaled = float(np.sum((others / largest) ** 2))  # in [1, n]
    return 20.0 * (math.log10(beta_home) - math.log10(largest)) - 10.0 * math.log10(scaled)


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

    A trial is an M x (n + 3) unit-variance matrix Z whose columns are the
    home channel, the n contaminating channels, the estimation noise and the
    receiver noise, in that order, before scaling. Every power depends on Z
    only through W = Z^H Z (`_contamination_sample`), so trial t takes W from
    the Bartlett factors of `bartlett_blocks(seed, m, n + 3, ...)`: W = A A^H,
    A lower triangular, or (n + 3) x M lower trapezoidal when M < n + 3. No
    M-length column is drawn.
    """
    others = np.asarray(betas_contaminating, dtype=float).ravel()
    if trials < 1:
        raise DomainError("need at least one trial")
    # einsum, not BLAS, so that no sum depends on the BLAS thread count.
    grams = [np.einsum("tir,tjr->tij", a, a.conj()) for a, _ in bartlett_blocks(seed, m, others.size + 3, trials)]
    return _contamination_sample(np.concatenate(grams), beta_home, others, rho_pilot, tau)


def _contamination_sample(w: np.ndarray, beta_home: float, others: np.ndarray, rho_pilot: float, tau: int):
    """The powers of each trial from its (n + 3) x (n + 3) W = Z^H Z.

    The least-squares estimate is Z g, with g the column gains below and 0 for
    the receiver noise, so |u^H z_j|^2 = |g^T W_:j|^2 / (g^T W g) for the
    unit-norm combiner u = Z g / ||Z g||.
    """
    est_noise_std = 1.0 / math.sqrt(rho_pilot * tau)
    gains = np.concatenate(([math.sqrt(beta_home)], np.sqrt(others), [est_noise_std, 0.0]))
    projections = np.einsum("j,tjl->tl", gains, w)
    powers = np.abs(projections) ** 2 / np.einsum("tl,l->t", projections, gains).real[:, None]
    n = others.size
    return ContaminationSample(
        desired=beta_home * powers[:, 0],
        directed=np.einsum("tj,j->t", powers[:, 1 : n + 1], others),
        noise=powers[:, -1],
    )
