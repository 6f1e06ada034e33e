"""Achievable-rate lower bounds with pilot overhead, energy/spectral
efficiency sweeps, max-min power control, and the rural broadband scenario.

All closed forms assume i.i.d. Rayleigh small-scale fading with MMSE channel
estimates of per-terminal quality gamma = rho_p tau beta^2 / (1 + rho_p tau
beta). They are lower bounds: the Monte Carlo simulators in this module
evaluate the same estimator and receiver directly and must always sit at or
above them. The simulators read the channels only through the K x K products
G = H_hat^H H_hat = B B^H and C = H_hat^H H = B (B^H + E), and draw the
factors B and E directly by the Bartlett decomposition of the complex Wishart
matrix (Z^H Z = A A^H, A lower triangular, or K x M lower trapezoidal when
M < K; see `numerics.draw_bartlett`), never an M x K channel. They reduce one
cache-sized piece of BLOCK_ENTRIES // K^2 draws at a time: C is one product,
MRC reads diag G as the squared row norms of B, and ZF reads B^-1 of the
triangular B, so G is never formed or inverted. Uplink MRC and ZF, downlink
MRT and the perfect-CSI MRT sum rate of mrt-sumrate (`mrt_sum_rates`, with
C = G) all end in one per-draw SINR reduction, `_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import build_large_scale_profile, place_terminals
from .errors import ConfigError, DegenerateChannelError, DimensionError, DomainError, RankError
from .numerics import Seed, bartlett_blocks

THERMAL_NOISE_DBM_PER_HZ = -174.0

_SCHEMES = ("mrc", "zf")

# Draws per block of the Monte Carlo rate simulators: block i of a call
# draws from `seed.child(i)` (`_statistic_pieces`). Part of the stream
# definition: changing it changes every simulated rate. Memory is bounded by
# the pieces of `numerics.bartlett_blocks`, not by this.
VALIDATOR_BLOCK = 250


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Receiver noise floor in watts for the given bandwidth and noise figure."""
    if bandwidth_hz <= 0.0:
        raise DomainError("bandwidth must be positive")
    dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class SystemParams:
    """Scalar system description for the closed-form bounds.

    Transmit SNRs are linear and per terminal unless noted; `tau` and
    `coherence_symbols` fix the pilot overhead prefactor 1 - tau/T.
    """

    m: int
    k: int
    tau: int
    coherence_symbols: int
    rho_ul: float | None = None
    rho_dl: float | None = None
    rho_pilot: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise DomainError("antenna and terminal counts must be >= 1")
        if not 0 < self.tau <= self.coherence_symbols:
            raise DomainError("need 0 < tau <= coherence interval (no payload left beyond tau = T)")
        for name in ("rho_ul", "rho_dl", "rho_pilot"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise DomainError(f"{name} must be positive when given")

    @property
    def overhead_prefactor(self) -> float:
        return 1.0 - self.tau / self.coherence_symbols

    @property
    def pilot_snr(self) -> float:
        rho = self.rho_pilot if self.rho_pilot is not None else self.rho_ul
        if rho is None:
            raise DomainError("neither rho_pilot nor rho_ul is set")
        return rho


def estimate_quality(betas, rho_pilot: float, tau: int) -> np.ndarray:
    """Mean-square of the MMSE channel estimate per terminal (gamma <= beta)."""
    b = np.asarray(betas, dtype=float)
    energy = rho_pilot * tau
    return energy * b**2 / (1.0 + energy * b)


def estimate_error(betas, rho_pilot: float, tau: int) -> np.ndarray:
    """Mean-square of the MMSE estimation error per terminal,
    beta - gamma = beta / (1 + rho_pilot tau beta), formed without the
    cancellation of the difference, which reaches 0 once gamma rounds to beta
    (Ngo, Larsson & Marzetta, IEEE TCOM 2013)."""
    b = np.asarray(betas, dtype=float)
    return b / (1.0 + rho_pilot * tau * b)


def ul_mrc_sinr(m: int, rho_ul, betas, rho_pilot, tau: int) -> np.ndarray:
    """Effective uplink SINR of the conjugate combiner with MMSE estimates
    from pilots of length `tau` sent at `rho_pilot`.

    Two standard lower-bound forms exist for this receiver; the (m - 1)
    variant is usually tighter but degenerates at m = 1, so the elementwise
    best of the two is used (both individually lower-bound the same rate).
    The tight form's interference is 1 + rho_ul (sum_{j != k} beta_j +
    epsilon_k), with epsilon the estimation error, so it stays >= 1 at any
    SNR. `rho_ul` and `rho_pilot` are scalars, or (R, 1) columns, one row per
    transmit SNR.
    """
    b = np.asarray(betas, dtype=float)
    g = estimate_quality(b, rho_pilot, tau)
    total = float(np.sum(b))
    tight = rho_ul * (m - 1) * g / (1.0 + rho_ul * (total - b + estimate_error(b, rho_pilot, tau)))
    hardening = rho_ul * m * g / (1.0 + rho_ul * total)
    return np.maximum(tight, hardening)


def ul_zf_sinr(m: int, rho_ul, betas, rho_pilot, tau: int) -> np.ndarray:
    """Effective uplink SINR of the zero-forcing receiver with MMSE
    estimates. The arguments are as in `ul_mrc_sinr`; the estimation error
    epsilon is summed per row."""
    b = np.asarray(betas, dtype=float)
    if b.size >= m:
        raise RankError(f"zero-forcing bound needs K < M, got K={b.size}, M={m}")
    g = estimate_quality(b, rho_pilot, tau)
    residual = np.sum(estimate_error(b, rho_pilot, tau), axis=-1, keepdims=True)
    return rho_ul * (m - b.size) * g / (1.0 + rho_ul * residual)


_UL_SINR = {"mrc": ul_mrc_sinr, "zf": ul_zf_sinr}


def dl_mrt_sinr(m: int, rho_dl: float, betas, gammas, eta) -> np.ndarray:
    """Effective downlink SINR under conjugate beamforming with power
    fractions `eta` (statistically normalised streams, total-power budget)."""
    b = np.asarray(betas, dtype=float)
    g = np.asarray(gammas, dtype=float)
    e = np.asarray(eta, dtype=float)
    if np.any(e < 0.0):
        raise DomainError("power fractions must be >= 0")
    if float(np.sum(e)) > 1.0 + 1e-9:
        raise DomainError("power fractions must sum to at most 1")
    return rho_dl * m * e * g / (1.0 + rho_dl * b * float(np.sum(e)))


def ul_rate_bound(params: SystemParams, scheme: str, betas) -> np.ndarray:
    """Per-terminal net uplink rate bound in bits/s/Hz, pilot overhead included."""
    if scheme not in _SCHEMES:
        raise DomainError(f"scheme must be one of {_SCHEMES}")
    if params.rho_ul is None:
        raise DomainError("uplink bound needs rho_ul")
    b = np.asarray(betas, dtype=float)
    if b.size != params.k:
        raise DimensionError(f"need {params.k} slow-fading coefficients, got {b.size}")
    sinr = _UL_SINR[scheme](params.m, params.rho_ul, b, params.pilot_snr, params.tau)
    return params.overhead_prefactor * np.log2(1.0 + sinr)


# ---------------------------------------------------------------------------
# Monte Carlo rate simulation (validation oracle for the closed forms)
# ---------------------------------------------------------------------------


def _statistic_pieces(params: SystemParams, betas: np.ndarray, seed: Seed, n_draws: int):
    """Yield per piece of `bartlett_blocks` the factors B = D_gamma^1/2 A and
    E = X D_(beta-gamma)^1/2 of the products G = H_hat^H H_hat = B B^H and
    C = H_hat^H H = B (B^H + E) of the true channels H and their MMSE
    estimates H_hat, drawn without the channels in blocks of
    VALIDATOR_BLOCK draws, block i from `seed.child(i)`.

    H_hat = Z D_gamma^1/2 and H = H_hat + Z_e D_(beta-gamma)^1/2, with Z and
    the estimation error Z_e independent M x K i.i.d. CN(0, 1) matrices, and
    Z^H Z = A A^H, Z^H Z_e = A X in distribution, also for M < K (then B is
    K x M). For K < M, B is K x K lower triangular.
    """
    estimate_scale = np.sqrt(estimate_quality(betas, params.pilot_snr, params.tau))[:, None]
    error_scale = np.sqrt(estimate_error(betas, params.pilot_snr, params.tau))
    for a, x in bartlett_blocks(seed, params.m, betas.size, n_draws, VALIDATOR_BLOCK, cross=True):
        yield estimate_scale * a, x * error_scale


def _cross(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """C = H_hat^H H = B (B^H + E), one batched product."""
    return b @ (b.conj().transpose(0, 2, 1) + e)


def _rates(cross: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Per-draw, per-terminal log2(1 + SINR) of a (draws, K, K) stack C with
    unit noise: terminal k hears stream j with power gain |C_jk|^2. `gain`
    is the downlink's column of s_j^2, (K, 1) or (draws, K, 1), or the
    uplink's row of rho / ||a_k||^2, (draws, 1, K)."""
    powers = gain * np.abs(cross) ** 2
    signal = np.diagonal(powers, axis1=1, axis2=2)
    interference = powers.sum(axis=1) - signal
    return np.log2(1.0 + signal / (interference + 1.0))


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (draws, K, K) stack of lower-triangular
    matrices with nonzero diagonals, by forward substitution: row i of the
    inverse is -L[i, :i] (L^-1)[:i, :i] / L_ii left of its diagonal 1 / L_ii,
    one batched row-by-block product per row.
    """
    k = lower.shape[-1]
    inverse = np.zeros_like(lower)
    for i in range(k):
        pivot = 1.0 / lower[:, i, i]
        inverse[:, i, i] = pivot
        if i:
            row = lower[:, i : i + 1, :i] @ inverse[:, :i, :i]
            inverse[:, i, :i] = -row[:, 0] * pivot[:, None]
    return inverse


def _ul_rate_sums(scheme: str, b: np.ndarray, e: np.ndarray, rho: float) -> np.ndarray:
    """Per-terminal sums over a stack of draws of log2(1 + SINR) for the
    uplink receiver, from the factors B and E of `_statistic_pieces`.

    With combiner columns a_k, terminal k's SINR is rho |a_k^H h_k|^2 /
    (rho sum_{j != k} |a_k^H h_j|^2 + ||a_k||^2): `_rates` of (A^H H)^T with
    gain rho / ||a_k||^2 on column k. For MRC (A = H_hat), A^H H = C and
    ||a_k||^2 = G_kk, the squared norm of row k of B. For ZF
    (A = H_hat G^-1 = pinv(H_hat)^H at full column rank, B square),
    A^H H = G^-1 C = I + B^-H E and ||a_k||^2 = [G^-1]_kk, the squared norm of
    column k of B^-1, so G is never formed or inverted.
    """
    if scheme == "zf":
        diag = np.arange(b.shape[-1])
        if np.any(b[:, diag, diag] == 0.0):
            raise RankError("zero-forcing: singular estimate Gram matrix")
        inverse = _lower_inverse(b)
        cross = inverse.conj().transpose(0, 2, 1) @ e
        cross[:, diag, diag] += 1.0
        norm = np.sum(np.abs(inverse) ** 2, axis=1)
    else:
        cross = _cross(b, e)
        norm = np.sum(np.abs(b) ** 2, axis=2)
    return _rates(cross.transpose(0, 2, 1), rho / norm[:, None, :]).sum(axis=0)


def mrt_sum_rates(gram: np.ndarray, snr_linear: float) -> np.ndarray:
    """Sum rate of each draw of a (draws, K, K) stack G = H^H H under
    maximum-ratio transmission with perfect CSI and unit noise.

    The budget P = snr / mean_k(G_kk / K) sets the mean interference-free SNR
    to `snr_linear`. Stream j is sent on s_j conj(h_j), s_j^2 = (P / K) / G_jj,
    so terminal k hears it with power s_j^2 |G_jk|^2: `_rates` with C = G.
    """
    gains = np.diagonal(gram, axis1=1, axis2=2).real
    if np.any(gains == 0.0):
        raise DegenerateChannelError("cannot beamform toward an all-zero channel column")
    k = gram.shape[-1]
    budget = snr_linear / np.mean(gains / k, axis=-1)
    return _rates(gram, (budget / k)[:, None, None] / gains[:, :, None]).sum(axis=-1)


def simulate_ul_rates(params: SystemParams, scheme: str, betas, seed: Seed, n_draws: int = 10_000) -> np.ndarray:
    """Ergodic per-terminal net uplink rate of the actual receiver, averaged
    over channel and estimation noise. Upper-bounds the closed forms.

    The SINR terms are read from the factors B and E of G = H_hat^H H_hat =
    B B^H and C = H_hat^H H = B (B^H + E) (`_ul_rate_sums`), which are drawn
    directly, piece by piece, by the Bartlett identity Z^H Z = A A^H,
    Z^H Z_e = A X (`_statistic_pieces`), so no M x K channel is formed; for
    M < K, A is K x M. ZF raises `RankError` unless K < M and every G is
    nonsingular.
    """
    if scheme not in _SCHEMES:
        raise DomainError(f"scheme must be one of {_SCHEMES}")
    if params.rho_ul is None:
        raise DomainError("uplink simulation needs rho_ul")
    b = np.asarray(betas, dtype=float)
    if scheme == "zf" and b.size >= params.m:
        raise RankError(f"zero-forcing needs K < M, got K={b.size}, M={params.m}")
    total_rate = np.zeros(b.size)
    for factor, error in _statistic_pieces(params, b, seed, n_draws):
        total_rate += _ul_rate_sums(scheme, factor, error, params.rho_ul)
    return params.overhead_prefactor * total_rate / n_draws


def simulate_dl_rates(params: SystemParams, betas, eta, seed: Seed, n_draws: int = 10_000) -> np.ndarray:
    """Ergodic per-terminal net downlink rate under conjugate beamforming with
    statistically normalised streams (the convention of `dl_mrt_sinr`).

    Stream j is sent on s_j conj(h_hat_j) with s_j^2 = rho_dl eta_j / (M gamma_j),
    so terminal k hears it with power s_j^2 |C_jk|^2 (`_rates`). Only
    C = H_hat^H H = B (B^H + E) is formed, from the factors drawn as in
    `simulate_ul_rates` (`_statistic_pieces`; B is K x M when M < K),
    without a channel.
    """
    if params.rho_dl is None:
        raise DomainError("downlink simulation needs rho_dl")
    b = np.asarray(betas, dtype=float)
    e = np.asarray(eta, dtype=float)
    g = estimate_quality(b, params.pilot_snr, params.tau)
    stream_power = (params.rho_dl * e / (params.m * g))[:, None]
    total_rate = np.zeros(b.size)
    for factor, error in _statistic_pieces(params, b, seed, n_draws):
        total_rate += _rates(_cross(factor, error), stream_power).sum(axis=0)
    return params.overhead_prefactor * total_rate / n_draws


# ---------------------------------------------------------------------------
# Energy efficiency / spectral efficiency tradeoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCurve:
    spectral_efficiency: np.ndarray  # sum bits/s/Hz, overhead included
    energy_efficiency: np.ndarray  # bits per unit radiated energy

    def peak_ee_point(self) -> tuple[float, float]:
        i = int(np.argmax(self.energy_efficiency))
        return float(self.spectral_efficiency[i]), float(self.energy_efficiency[i])


def ee_se_sweep(
    rho_grid,
    coherence_symbols: int,
    m_massive: int,
    k_massive: int,
    m_beamforming: int,
) -> dict[str, SweepCurve]:
    """Sweep per-terminal transmit SNR and trace the (SE, EE) curve of four
    uplink systems: the single-antenna reference link, single-terminal
    beamforming with `m_beamforming` antennas, and the `m_massive`-antenna
    array serving `k_massive` terminals with the MRC and the ZF receiver.

    Pilots are as short as orthogonality allows (tau = K) and are sent at the
    data power, so the average radiated power per terminal equals rho and
    EE = SE / (K rho). Unit slow fading throughout. The whole grid is one
    evaluation of the closed forms, with rho as an (R, 1) column.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if rho.size == 0:
        raise DomainError("transmit SNR sweep grid is empty")
    if np.any(rho <= 0.0):
        raise DomainError("sweep grid must be positive")
    column = rho.reshape(-1, 1)
    systems = (
        ("reference", 1, 1, ul_mrc_sinr),
        ("beamforming", m_beamforming, 1, ul_mrc_sinr),
        ("mrc", m_massive, k_massive, ul_mrc_sinr),
        ("zf", m_massive, k_massive, ul_zf_sinr),
    )
    curves = {}
    for label, m, k, ul_sinr in systems:
        params = SystemParams(m=m, k=k, tau=k, coherence_symbols=coherence_symbols)
        betas = np.ones(k)
        sinr = ul_sinr(m, column, betas, column, k)
        se = np.sum(params.overhead_prefactor * np.log2(1.0 + sinr), axis=1)
        curves[label] = SweepCurve(spectral_efficiency=se, energy_efficiency=se / (k * rho))
    return curves


# ---------------------------------------------------------------------------
# Max-min power control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerControl:
    """Per-terminal downlink power fractions with the excluded set: `eta` is
    (K,) with a float `sinr`, or (R, K) with an (R,) `sinr`, one row per
    estimate quality."""

    eta: np.ndarray
    dropped: tuple[int, ...]
    sinr: float | np.ndarray

    @property
    def served(self) -> np.ndarray:
        mask = np.ones(self.eta.shape[-1], dtype=bool)
        mask[list(self.dropped)] = False
        return np.flatnonzero(mask)


def maxmin_power_control(
    betas,
    gammas,
    rho_dl: float,
    m: int,
    drop_fraction: float = 0.05,
) -> PowerControl:
    """Equalise the downlink conjugate-beamforming SINR across served terminals.

    The weakest `drop_fraction` of terminals by slow fading are excluded
    (ties broken by terminal index), then the full power budget is split so
    every served terminal sees the same effective SINR. With the total-power
    constraint the equalising split is closed-form:
    eta_k proportional to (1 + rho_dl beta_k) / gamma_k.

    `gammas` is (K,), or (R, K) with one row per estimate quality (say, per
    pilot power) over the same `betas`: the terminals are sorted once, every
    row shares the served set, and each row is split as its own 1-D call.
    """
    b = np.asarray(betas, dtype=float)
    g = np.asarray(gammas, dtype=float)
    if b.size == 0:
        raise DomainError("no terminals to serve")
    if b.ndim != 1 or g.ndim not in (1, 2) or g.shape[-1] != b.size:
        raise DimensionError("betas and gammas must align")
    if np.any(b <= 0.0) or np.any(g <= 0.0):
        raise DomainError("slow-fading and estimate-quality coefficients must be positive")
    if not 0.0 <= drop_fraction < 1.0:
        raise DomainError("drop fraction must be in [0, 1)")
    n_drop = int(math.floor(drop_fraction * b.size))
    order = np.argsort(b, kind="stable")
    dropped = tuple(sorted(int(i) for i in order[:n_drop]))
    served = order[n_drop:]
    if served.size == 0:
        raise DomainError("power control dropped every terminal")
    cost = (1.0 + rho_dl * b[served]) / (rho_dl * m * g[..., served])
    # Each row summed as a 1-D array: a 2-D sum along the last axis may round differently.
    sinr = 1.0 / np.array([np.sum(row) for row in cost.reshape(-1, served.size)]).reshape(g.shape[:-1])
    eta = np.zeros(g.shape)
    eta[..., served] = sinr[..., None] * cost
    return PowerControl(eta=eta, dropped=dropped, sinr=float(sinr) if g.ndim == 1 else sinr)


# ---------------------------------------------------------------------------
# Rural broadband scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuralConfig:
    """Fixed-wireless scenario: one large array serving a rural cell.

    The defaults are the pinned scenario; changing any of them raises unless
    `allow_override` is set (sensitivity studies only).
    """

    m: int = 6400
    n_terminals: int = 1000
    total_power_w: float = 120.0
    bandwidth_hz: float = 20e6
    radius_km: float = 6.0
    exclusion_km: float = 0.035
    pilot_fraction: float = 0.25
    coherence_s: float = 0.164
    noise_figure_db: float = 9.0
    terminal_gain_db: float = 8.0
    base_gain_db: float = 0.0
    shadow_sigma_db: float = 8.0
    drop_fraction: float = 0.05
    terminal_pilot_power_w: float = 0.1
    allow_override: bool = False

    # Scenario invariants; terminal_pilot_power_w is deliberately free because
    # the scenario only requires pilots accurate enough that gamma ~ beta.
    _PINNED = ("m", "n_terminals", "total_power_w", "bandwidth_hz", "radius_km", "pilot_fraction",
               "noise_figure_db", "terminal_gain_db", "shadow_sigma_db")

    def __post_init__(self):
        if not self.terminal_pilot_power_w > 0.0:
            # A non-positive pilot power would give an estimate quality above beta.
            raise ConfigError(f"terminal_pilot_power_w must be > 0, got {self.terminal_pilot_power_w}")
        if self.allow_override:
            return
        for name in self._PINNED:
            pinned = getattr(type(self), name)  # the class attribute is the field's default
            if getattr(self, name) != pinned:
                raise ConfigError(
                    f"rural scenario pins {name}={pinned}; set allow_override to study {getattr(self, name)}"
                )


@dataclass(frozen=True)
class RuralResult:
    """Monte Carlo outcome over placement/shadow drops."""

    equal_rate_mbps: np.ndarray  # per drop, the rate every served terminal gets
    sinr: np.ndarray
    served: int
    bandwidth_hz: float
    pilot_quality_min: float  # min over drops of min_k gamma_k / beta_k
    sensitivity_mbps: dict

    @property
    def sum_throughput_gbps(self) -> np.ndarray:
        return self.equal_rate_mbps * self.served / 1000.0

    def throughput_95_likely_mbps(self) -> float:
        """Throughput exceeded by 95% of served terminals over the ensemble.

        Every served terminal in a drop gets the drop's equalised rate, so
        this is the 5th percentile of that rate across drops."""
        return float(np.quantile(self.equal_rate_mbps, 0.05))

    def summary(self) -> dict:
        rate = self.equal_rate_mbps
        return {
            "served_per_drop": self.served,
            "throughput_95_likely_mbps": self.throughput_95_likely_mbps(),
            "throughput_per_terminal_mbps_mean": float(np.mean(rate)),
            "throughput_per_terminal_mbps_median": float(np.median(rate)),
            "sum_throughput_gbps_mean": float(np.mean(self.sum_throughput_gbps)),
            "sum_spectral_efficiency_bps_hz": float(np.mean(self.sum_throughput_gbps) * 1e9 / self.bandwidth_hz),
            "pilot_quality_min": self.pilot_quality_min,
            "sensitivity_mbps": self.sensitivity_mbps,
        }


def rural_broadband(config: RuralConfig, seed: Seed, drops: int) -> RuralResult:
    """Monte Carlo over terminal placement and shadow fading.

    Each drop re-places the terminals, rebuilds the slow-fading profile, and
    runs one max-min power control over the served set, with one row of
    estimate qualities per pilot power: the configured one, 10x weaker and
    10x stronger (the scenario fixes only that pilots are accurate enough,
    so the summary reports the last two as a sensitivity). Each row's
    equalised SINR gives that pilot power's conjugate beamforming rate bound.
    Only slow-fading scalars are handled, so the array size never
    materialises as a matrix.
    """
    if drops < 1:
        raise DomainError("need at least one drop")
    noise = noise_power_w(config.bandwidth_hz, config.noise_figure_db)
    rho_dl = config.total_power_w / noise
    # Pilot powers x1 (the scenario), x0.1 and x10 (its sensitivity), as a column.
    rho_pilot = np.array([[1.0], [0.1], [10.0]]) * config.terminal_pilot_power_w / noise
    tau = int(round(config.pilot_fraction * config.coherence_s * config.bandwidth_hz))
    sinr = np.empty((rho_pilot.size, drops))  # one row per pilot power
    quality = np.empty(drops)
    for index in range(drops):
        drop_seed = seed.child(index)
        positions = place_terminals(drop_seed.child(0), config.n_terminals, config.radius_km, config.exclusion_km)
        betas = build_large_scale_profile(
            positions,
            drop_seed.child(1),
            base_gain_db=config.base_gain_db,
            terminal_gain_db=config.terminal_gain_db,
            shadow_sigma_db=config.shadow_sigma_db,
        )
        gammas = estimate_quality(betas, rho_pilot, tau)
        control = maxmin_power_control(betas, gammas, rho_dl, config.m, config.drop_fraction)
        sinr[:, index] = control.sinr
        served = control.served
        quality[index] = np.min(gammas[0, served] / betas[served])
    # math.log2 per SINR, not np.log2, which may differ in the last bit.
    log_rates = [[math.log2(1.0 + s) for s in row] for row in sinr.tolist()]
    rate, weaker, stronger = (1.0 - config.pilot_fraction) * np.array(log_rates) * config.bandwidth_hz / 1e6
    return RuralResult(
        equal_rate_mbps=rate,
        sinr=sinr[0],
        served=served.size,  # the same in every drop: it depends only on the counts
        bandwidth_hz=config.bandwidth_hz,
        pilot_quality_min=float(np.min(quality)),
        sensitivity_mbps={
            "pilot_power_x0.1_mean": float(np.mean(weaker)),
            "pilot_power_x10_mean": float(np.mean(stronger)),
        },
    )


__all__ = [
    "SystemParams",
    "SweepCurve",
    "PowerControl",
    "RuralConfig",
    "RuralResult",
    "noise_power_w",
    "estimate_quality",
    "estimate_error",
    "ul_mrc_sinr",
    "ul_zf_sinr",
    "dl_mrt_sinr",
    "ul_rate_bound",
    "simulate_ul_rates",
    "simulate_dl_rates",
    "mrt_sum_rates",
    "ee_se_sweep",
    "maxmin_power_control",
    "rural_broadband",
]
