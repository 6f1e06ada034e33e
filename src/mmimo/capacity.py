"""Achievable-rate lower bounds with pilot overhead, energy/spectral
efficiency sweeps, max-min power control, and the rural broadband scenario.

All closed forms assume i.i.d. Rayleigh small-scale fading with MMSE channel
estimates of per-terminal quality gamma = rho_p tau beta^2 / (1 + rho_p tau
beta). They are lower bounds: the Monte Carlo simulators in this module
evaluate the same estimator and receiver directly and must always sit at or
above them. The simulators read the channels only through the K x K products
G = H_hat^H H_hat = B B^H and C = H_hat^H H = B F, and draw the factors B and
F = Q^H H = B^H + E (in the QR frame H_hat = Q R) directly by the Bartlett
decomposition of the complex Wishart matrix (Z^H Z = A A^H, A lower
triangular, or K x M lower trapezoidal when M < K; see
`numerics.bartlett_blocks`, whose CN(0, 1) entries come from uniforms by
Box-Muller, each within 3e-7 of its float64 value), never an M x K
channel. They reduce one cache-sized piece of BLOCK_ENTRIES // K^2 draws at
a time: C is one product, MRC reads diag G as the squared row norms of B,
and ZF reads G^-1 C = B^-H F and the column norms of B^-1, inverted by
batched forward substitution from the triangular B, so G is never formed or
inverted.
Uplink MRC and ZF, downlink MRT and the perfect-CSI MRT sum rate of
mrt-sumrate (`mrt_sum_rates`, with C = G) all end in one per-draw SINR
reduction, `_rates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateChannelError, DimensionError, DomainError, NumericError, RankError
from .numerics import BLOCK_ENTRIES, Seed, bartlett_blocks

THERMAL_NOISE_DBM_PER_HZ = -174.0

_SCHEMES = ("mrc", "zf")

# Draws per block of the Monte Carlo rate simulators: block i of a call
# draws from `seed.child(i)` (`_statistic_pieces`). Part of the stream
# definition: changing it changes every simulated rate. Memory is bounded by
# the pieces of `numerics.bartlett_blocks`, not by this.
VALIDATOR_BLOCK = 250


# The rule of every dB level that a config sets, and its wording.
_DB_LEVEL = "a dB level of at most 3000 dB whose linear value is > 0"


def _is_db_level(value: float) -> bool:
    """Whether the linear value 10^(x/10) of a level in dB is a float in
    (0, 1e300]: from about 3,063 dB the runs' own products of it overflow."""
    try:
        return 0.0 < 10.0 ** (value / 10.0) <= 1e300
    except OverflowError:
        return False


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
    F = B^H + E, E = X D_(beta-gamma)^1/2, of the products
    G = H_hat^H H_hat = B B^H and C = H_hat^H H = B F of the true channels H
    and their MMSE estimates H_hat, drawn without the channels in blocks of
    VALIDATOR_BLOCK draws, block i from `seed.child(i)`.

    H_hat = Z D_gamma^1/2 and H = H_hat + Z_e D_(beta-gamma)^1/2, with Z and
    the estimation error Z_e independent M x K i.i.d. CN(0, 1) matrices, and
    Z^H Z = A A^H, Z^H Z_e = A X in distribution, also for M < K (then B is
    K x M). For K < M, B is K x K lower triangular. In the QR frame
    H_hat = Q R (B = R^H), F = Q^H H. Both are formed in the arrays of A and
    X, scaled in place, with B^H added into X's array.
    """
    estimate_scale = np.sqrt(estimate_quality(betas, params.pilot_snr, params.tau))[:, None]
    error_scale = np.sqrt(estimate_error(betas, params.pilot_snr, params.tau))
    for b, f in bartlett_blocks(seed, params.m, betas.size, n_draws, VALIDATOR_BLOCK, cross=True):
        b *= estimate_scale
        f *= error_scale
        f += b.conj().transpose(0, 2, 1)
        yield b, f


def _squared_magnitudes(values: np.ndarray) -> np.ndarray:
    """np.abs(values) ** 2, squared in place in the one array of the moduli."""
    moduli = np.abs(values)
    return np.square(moduli, out=moduli)


def _rates(cross: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Per-draw, per-terminal log2(1 + SINR) of a (draws, K, K) stack C with
    unit noise: terminal k hears stream j with power gain |C_jk|^2. `gain`
    is the downlink's column of s_j^2, (K, 1) or (draws, K, 1), or the
    uplink's row of rho / ||a_k||^2, (draws, 1, K)."""
    powers = _squared_magnitudes(cross)
    powers *= gain
    signal = np.diagonal(powers, axis1=1, axis2=2)
    interference = powers.sum(axis=1) - signal
    return np.log2(1.0 + signal / (interference + 1.0))


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a (draws, K, K) stack of lower-triangular
    matrices with nonzero diagonals, by forward substitution: row i of the
    inverse is -L[i, :i] (L^-1)[:i, :i] / L_ii left of its diagonal 1 / L_ii,
    one batched row-by-block product per row. The upper triangle stays
    exactly 0.
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


def _ul_rate_sums(scheme: str, b: np.ndarray, f: np.ndarray, rho: float) -> np.ndarray:
    """Per-terminal sums over a stack of draws of log2(1 + SINR) for the
    uplink receiver, from the factors B and F of `_statistic_pieces`.

    With combiner columns a_k, terminal k's SINR is rho |a_k^H h_k|^2 /
    (rho sum_{j != k} |a_k^H h_j|^2 + ||a_k||^2): `_rates` of (A^H H)^T with
    gain rho / ||a_k||^2 on column k. For MRC (A = H_hat), A^H H = C = B F and
    ||a_k||^2 = G_kk, the squared norm of row k of B. For ZF
    (A = H_hat G^-1 = pinv(H_hat)^H at full column rank, B square),
    A^H H = G^-1 C = B^-H F and ||a_k||^2 = [G^-1]_kk, the squared norm of
    column k of B^-1, which `_lower_inverse` forms by batched forward
    substitution, so G is never formed or inverted.
    """
    if scheme == "zf":
        diag = np.arange(b.shape[-1])
        if np.any(b[:, diag, diag] == 0.0):
            raise RankError("zero-forcing: singular estimate Gram matrix")
        inverse = _lower_inverse(b)
        norm = _squared_magnitudes(inverse).sum(axis=1)
        # B^-H without a copy: the column norms are read, so conjugate in place.
        cross = np.conjugate(inverse, out=inverse).transpose(0, 2, 1) @ f
    else:
        cross = b @ f
        norm = _squared_magnitudes(b).sum(axis=2)
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

    The SINR terms are read from the factors B and F = B^H + E of
    G = H_hat^H H_hat = B B^H and C = H_hat^H H = B F (`_ul_rate_sums`), which
    are drawn directly, piece by piece, by the Bartlett identity Z^H Z = A A^H,
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
    C = H_hat^H H = B F, F = B^H + E, is formed, from the factors drawn as in
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
        total_rate += _rates(factor @ error, stream_power).sum(axis=0)
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


def maxmin_power_control(betas, gammas, rho_dl: float, m: int, drop_fraction: float = 0.05):
    """Equalise the downlink conjugate-beamforming SINR across the served
    terminals of D drops at once, for R rows of estimate qualities.

    `betas` is (D, K) and `gammas` (R, D, K); one drop is `betas[None]` with
    `gammas[None, None]`. In each drop the weakest `drop_fraction` of the
    terminals by slow fading are excluded (ties broken by terminal index),
    then the full power budget is split so every served terminal sees the
    same effective SINR. With the total-power constraint the equalising split
    is closed-form: terminal k's power fraction is eta_k = sinr * cost_k,
    cost_k = (1 + rho_dl beta_k) / (rho_dl m gamma_k), and sinr = 1 / sum of
    the costs.

    Returns each drop's served terminals in ascending order of beta as (D, S)
    flat indices into `betas`, their (R, D, S) costs, and the (R, D)
    equalised SINRs.
    """
    b = np.asarray(betas, dtype=float)
    g = np.asarray(gammas, dtype=float)
    if b.size == 0 or g.size == 0:
        raise DomainError("no terminals to serve")
    if b.ndim != 2 or g.ndim != 3 or g.shape[1:] != b.shape:
        raise DimensionError(f"betas (D, K) and gammas (R, D, K) must align, got {b.shape} and {g.shape}")
    if np.any(b <= 0.0) or np.any(g <= 0.0):
        raise DomainError("slow-fading and estimate-quality coefficients must be positive")
    if not 0.0 <= drop_fraction < 1.0:
        raise DomainError("drop fraction must be in [0, 1)")
    d, k = b.shape
    n_drop = int(math.floor(drop_fraction * k))  # < k, since drop_fraction < 1
    # Equal betas have equal costs, so only a tie across the cut needs the
    # index tie-break of a stable sort; the default sort is about 4x faster.
    order = np.argsort(b, axis=-1)
    if n_drop > 0:
        cut = np.take_along_axis(b, order[:, n_drop - 1 : n_drop + 1], axis=-1)
        tied = cut[:, 0] == cut[:, 1]
        order[tied] = np.argsort(b[tied], axis=-1, kind="stable")
    served = order[:, n_drop:] + k * np.arange(d)[:, None]
    cost = (1.0 + rho_dl * np.take(b, served)) / (rho_dl * m * np.take(g.reshape(len(g), -1), served, axis=1))
    return served, cost, 1.0 / cost.sum(axis=-1)


# ---------------------------------------------------------------------------
# Rural broadband scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuralConfig:
    """Fixed-wireless scenario: one large array serving a rural cell.

    The defaults are the pinned scenario; changing any of them raises unless
    `allow_override` is set (sensitivity studies only). The range checks hold
    either way.
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

    @property
    def pilot_symbols(self) -> int:
        """tau, the pilot length: the pilot share of one coherence interval, in symbols."""
        return round(self.pilot_fraction * self.coherence_s * self.bandwidth_hz)

    def __post_init__(self):
        # Outside these ranges a run fails after its draws or reports rates of 0 or below.
        ranges = {
            "m": (self.m >= 1, ">= 1"),
            "n_terminals": (self.n_terminals >= 1, ">= 1"),
            "total_power_w": (self.total_power_w > 0.0, "> 0"),
            "bandwidth_hz": (self.bandwidth_hz > 0.0, "> 0"),
            "exclusion_km": (self.exclusion_km >= 0.0, ">= 0"),
            "radius_km": (self.exclusion_km < self.radius_km < 1e154, f"in (exclusion_km = {self.exclusion_km}, 1e154)"),
            "pilot_fraction": (0.0 < self.pilot_fraction < 1.0, "in (0, 1)"),
            # The coherence interval must be a finite count of symbols.
            "coherence_s": (
                0.0 < self.coherence_s * self.bandwidth_hz < math.inf, "> 0, with coherence_s x bandwidth_hz finite"
            ),
            "noise_figure_db": (_is_db_level(self.noise_figure_db), _DB_LEVEL),
            "terminal_gain_db": (_is_db_level(self.terminal_gain_db), _DB_LEVEL),
            "base_gain_db": (_is_db_level(self.base_gain_db), _DB_LEVEL),
            "shadow_sigma_db": (self.shadow_sigma_db >= 0.0, ">= 0"),
            "drop_fraction": (0.0 <= self.drop_fraction < 1.0, "in [0, 1)"),
            # A non-positive pilot power would give an estimate quality above beta.
            "terminal_pilot_power_w": (self.terminal_pilot_power_w > 0.0, "> 0"),
        }
        for name, (holds, need) in ranges.items():
            if not holds:
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)}")
        if self.pilot_symbols < 1:
            raise ConfigError(
                f"the pilot, pilot_fraction x coherence_s x bandwidth_hz, must round to at least 1 symbol, "
                f"got {self.pilot_symbols}"
            )
        # The run's link budget: a noise floor that is a positive float, and
        # over it a finite downlink SNR and strongest pilot energy (10x, tau symbols).
        try:
            noise = noise_power_w(self.bandwidth_hz, self.noise_figure_db)
        except OverflowError:
            noise = math.inf
        pilot_energy = 10.0 * self.terminal_pilot_power_w * self.pilot_symbols
        if not 0.0 < noise < math.inf or math.inf in (self.total_power_w / noise, pilot_energy / noise):
            raise ConfigError(
                f"noise_figure_db = {self.noise_figure_db} over bandwidth_hz = {self.bandwidth_hz} gives a noise "
                f"floor of {noise} W; it must be a positive float over which total_power_w = {self.total_power_w} "
                f"and terminal_pilot_power_w = {self.terminal_pilot_power_w} give finite SNRs"
            )
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


# Drops of `rural_broadband` evaluated at once, within a block of drops: at
# the pinned 1000 terminals a piece's arrays span about BLOCK_ENTRIES float64
# entries. Of 1 to 16 drops, 4 was the fastest; a whole 32-drop block at once
# was no faster and took more memory. The piece size changes no output.
RURAL_PIECE_DROPS = BLOCK_ENTRIES // (8 * RuralConfig.n_terminals)


def rural_broadband(config: RuralConfig, seed: Seed, drops: int) -> RuralResult:
    """Monte Carlo over terminal placement and shadow fading.

    The drops are drawn in blocks of max(1, BLOCK_ENTRIES // n_terminals)
    drops, 32 at the pinned 1000 terminals. Block b draws the squared ground
    radii of all its terminals with one (drops, K) `uniform` call on
    `seed.child(b).child(0)` (`squared_ground_radii`; the link budget needs no
    azimuth) and their shadow fading with one (drops, K) `standard_normal`
    call on `seed.child(b).child(1)`, both row-major: each drop is a row of its
    block. The block size does not depend on `drops`, so the first T drops are
    the same for every drop count of at least T. Each block is then evaluated
    RURAL_PIECE_DROPS drops at a time: the slow-fading profile, and one
    `maxmin_power_control` call per piece over the served sets, with one row
    of estimate qualities per pilot power: the configured one, 10x weaker and
    10x stronger (the scenario fixes only that pilots are accurate enough, so
    the summary reports the last two as a sensitivity). Each row's equalised
    SINR gives that pilot power's conjugate beamforming rate bound. Only
    slow-fading scalars are handled, so the array size never materialises as
    a matrix.

    Raises `NumericError` naming the first drop whose equalised SINR is 0 or
    not finite, where the link budget leaves the float range.
    """
    from .channel import draw_shadow_db, large_scale_gain, squared_ground_radii

    if drops < 1:
        raise DomainError("need at least one drop")
    noise = noise_power_w(config.bandwidth_hz, config.noise_figure_db)
    rho_dl = config.total_power_w / noise
    # Pilot powers x1 (the scenario), x0.1 and x10 (its sensitivity), one per row.
    scales = (1.0, 0.1, 10.0)
    rho_pilot = np.array(scales)[:, None, None] * config.terminal_pilot_power_w / noise
    tau = config.pilot_symbols
    k = config.n_terminals
    gains_db = config.base_gain_db + config.terminal_gain_db
    block = max(1, BLOCK_ENTRIES // k)
    sinr = np.empty((rho_pilot.size, drops))  # one row per pilot power
    quality = np.empty(drops)
    # An SINR out of the float range is raised below, not warned about on the way.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for index, first in enumerate(range(0, drops, block)):
            shape = (min(block, drops - first), k)
            block_seed = seed.child(index)
            squared_radii = squared_ground_radii(block_seed.child(0), shape, config.radius_km, config.exclusion_km)
            shadow = draw_shadow_db(block_seed.child(1), config.shadow_sigma_db, shape)
            for start in range(0, shape[0], RURAL_PIECE_DROPS):
                piece = slice(start, start + RURAL_PIECE_DROPS)
                betas = large_scale_gain(squared_radii[piece], shadow[piece], gains_db)
                gammas = estimate_quality(betas, rho_pilot, tau)
                served, _, piece_sinr = maxmin_power_control(betas, gammas, rho_dl, config.m, config.drop_fraction)
                columns = slice(first + start, first + start + len(betas))
                sinr[:, columns] = piece_sinr
                quality[columns] = np.min(np.take(gammas[0] / betas, served), axis=-1)
    bad = ~((sinr > 0.0) & (sinr < math.inf))
    if np.any(bad):
        drop = int(np.argmax(np.any(bad, axis=0)))
        row = int(np.argmax(bad[:, drop]))
        raise NumericError(
            f"rural drop {drop}: the equalised SINR at pilot power x{scales[row]} is {sinr[row, drop]}; "
            f"the link budget leaves the float range"
        )
    # math.log2 per SINR, not np.log2, which may differ in the last bit.
    log_rates = [[math.log2(1.0 + s) for s in row] for row in sinr.tolist()]
    rate, weaker, stronger = (1.0 - config.pilot_fraction) * np.array(log_rates) * config.bandwidth_hz / 1e6
    return RuralResult(
        equal_rate_mbps=rate,
        sinr=sinr[0],
        served=served.shape[-1],  # the same in every drop: it depends only on the counts
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
