"""Pilot contamination: the asymptotic interference limit of conjugate
processing with a contaminated estimate, and its Monte Carlo simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import Seed, gaussian_blocks


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

    Trial t draws one M x (n + 3) unit-variance matrix from
    `gaussian_blocks(seed, ...)`: its columns are the home channel, the n
    contaminating channels, the estimation noise and the receiver noise, in
    that order, before scaling.
    """
    others = np.asarray(betas_contaminating, dtype=float).ravel()
    if trials < 1:
        raise DomainError("need at least one trial")
    n = others.size
    # Column gains that sum a trial's draw into its least-squares estimate.
    est_noise_std = 1.0 / math.sqrt(rho_pilot * tau)
    estimate_gains = np.concatenate(([math.sqrt(beta_home)], np.sqrt(others), [est_noise_std]))
    inner_powers = []
    # einsum, not BLAS, so that no sum depends on the BLAS thread count.
    for z in gaussian_blocks(seed, m, n + 3, trials):
        est = np.einsum("tmj,j->tm", z[:, :, :-1], estimate_gains)
        u = est / np.linalg.norm(est, axis=1, keepdims=True)
        # |u^H z_j|^2 for every column j of every trial in the block
        inner_powers.append(np.abs(np.einsum("tm,tmj->tj", u.conj(), z)) ** 2)
    powers = np.concatenate(inner_powers)
    return ContaminationSample(
        desired=beta_home * powers[:, 0],
        directed=np.einsum("tj,j->t", powers[:, 1 : n + 1], others),
        noise=powers[:, -1],
    )
