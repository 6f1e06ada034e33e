"""Linear precoding (MRT, ZF), downlink link evaluation, and averaged spatial
field maps for the scatterer scene."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .channel import ScattererScene, _antenna_leg, _field_blocks, redraw_scatterers, scatterer_channel_matrix
from .errors import DegenerateChannelError, DimensionError, DomainError, RankError
from .numerics import Seed, pseudo_inverse
from .parallel import ordered_trial_map

POWER_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Precoder:
    """Downlink precoding matrix with columns per terminal stream."""

    w: np.ndarray  # M x K
    power_budget: float

    def __post_init__(self):
        radiated = float(np.sum(np.abs(self.w) ** 2))
        if abs(radiated - self.power_budget) > POWER_TOLERANCE * max(self.power_budget, 1.0):
            raise DomainError(f"precoder radiates {radiated:.12g}, budget is {self.power_budget:.12g}")


@dataclass(frozen=True)
class LinkReport:
    """Per-terminal downlink link quality (all powers linear)."""

    signal_power: np.ndarray
    interference_power: np.ndarray
    noise_power: float
    sinr: np.ndarray
    rate_bits_per_s_per_hz: np.ndarray

    @property
    def sum_rate(self) -> float:
        return float(np.sum(self.rate_bits_per_s_per_hz))


def mrt_precoder(h_hat: np.ndarray, power_budget: float) -> Precoder:
    """Maximum-ratio transmission: columns proportional to the conjugated
    channel estimates, scaled so each of the K streams radiates
    power_budget / K."""
    h = np.asarray(h_hat, dtype=complex)
    if power_budget <= 0.0:
        raise DomainError("power budget must be positive")
    norms = np.linalg.norm(h, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateChannelError("cannot beamform toward an all-zero channel column")
    scale = np.sqrt(power_budget * (1.0 / h.shape[1])) / norms
    return Precoder(w=np.conj(h) * scale, power_budget=power_budget)


def zf_precoder(h_hat: np.ndarray, power_budget: float) -> Precoder:
    """Zero-forcing: columns from the channel pseudo-inverse, so the effective
    channel H^T W is diagonal under perfect CSI. Each of the K streams
    radiates power_budget / K."""
    h = np.asarray(h_hat, dtype=complex)
    if power_budget <= 0.0:
        raise DomainError("power budget must be positive")
    m, k = h.shape
    if k > m:
        raise RankError(f"zero-forcing needs K <= M, got K={k}, M={m}")
    # pinv(H^T) = pinv(conj(H))^H; conj(H) is tall, so the column-rank check applies.
    directions = pseudo_inverse(np.conj(h)).conj().T
    norms = np.linalg.norm(directions, axis=0)
    scale = np.sqrt(power_budget * (1.0 / k)) / norms
    return Precoder(w=directions * scale, power_budget=power_budget)


def evaluate_downlink(h_true: np.ndarray, precoder: Precoder, noise_power: float) -> LinkReport:
    """Signal, interference, SINR, and rate per terminal for a precoded downlink."""
    h = np.asarray(h_true, dtype=complex)
    if noise_power < 0.0:
        raise DomainError("noise power must be >= 0")
    if h.shape != precoder.w.shape:
        raise DimensionError(f"channel {h.shape} and precoder {precoder.w.shape} differ")
    effective = h.T @ precoder.w  # entry (k, j): terminal k hearing stream j
    powers = np.abs(effective) ** 2
    signal = np.diag(powers).copy()
    interference = powers.sum(axis=1) - signal
    sinr = signal / (interference + noise_power)
    return LinkReport(
        signal_power=signal,
        interference_power=interference,
        noise_power=float(noise_power),
        sinr=sinr,
        rate_bits_per_s_per_hz=np.log2(1.0 + sinr),
    )


def budget_for_mean_desired_snr(h_true: np.ndarray, snr_linear: float, noise_power: float) -> float:
    """Transmit budget making the interference-free per-terminal SNR equal
    `snr_linear` on average over terminals, for this channel realisation."""
    h = np.asarray(h_true, dtype=complex)
    desired_per_budget = float(np.mean((1.0 / h.shape[1]) * np.linalg.norm(h, axis=0) ** 2))
    if desired_per_budget == 0.0:
        raise DegenerateChannelError("all channel columns are zero")
    return snr_linear * noise_power / desired_per_budget


# ---------------------------------------------------------------------------
# Spatial field maps
# ---------------------------------------------------------------------------

# The field maps' amplitude floor, in wavelengths: it caps the near-field gain
# of rays whose scatterer lands next to an evaluation point. Without it the
# trial average is dominated by those rare close encounters, and a map needs
# far more than a few hundred placements to settle.
MIN_AMPLITUDE_DISTANCE = 2.0


@dataclass(frozen=True)
class FieldMap:
    """Trial-averaged radiated power of the target stream over a grid.

    Powers are stored in dB relative to the spatial mean over the grid.
    `terminal_power_db` holds the same quantity at the exact terminal
    positions (index 0 is the target)."""

    x_lambda: np.ndarray
    y_lambda: np.ndarray
    power_db: np.ndarray  # (len(y), len(x))
    terminal_power_db: np.ndarray
    scheme: str

    @property
    def target_gain_db(self) -> float:
        return float(self.terminal_power_db[0])


def field_map(
    scene: ScattererScene,
    schemes: tuple[str, ...],
    grid_x,
    grid_y,
    trials: int,
    seed: Seed,
    *,
    workers: int = 1,
) -> tuple[FieldMap, ...]:
    """Average |field|^2 of the target terminal's stream (terminal 0 of the
    scene) over random scatterer placements, one map per precoder scheme in
    `schemes` ("mrt", "zf"), in order. Each map is in dB relative to its own
    spatial mean, so the precoders' unit power budget cancels.

    Each trial redraws the scatterers and builds the antenna leg once. From
    it come the perfect-CSI channels h to the scene terminals
    (`scatterer_channel_matrix`) and, per scheme, the scatterer excitation
    v = (antenna leg)^T w. The target stream's field is h^T w at the
    terminals and, at every grid point, `channel.scatterer_field` of v, which
    builds each grid point's ray leg once per trial in blocks of whole grid
    rows from the lattice's squared distances and never forms the grid's ray
    matrix. Each worker thread builds its antenna-leg workspace, block
    workspace and lattice squares once for the whole call and reuses them in
    every trial it runs, so a trial maps no fresh pages for them; the
    workspaces go with the call. All schemes share each trial's scatterer
    draw and ray legs; only the precoder differs. The precoders and the
    terminal field use the same channel rows, so zero-forcing nulls land on
    the exact terminal coordinates at the float64 floor. Every ray's
    amplitude is floored at MIN_AMPLITUDE_DISTANCE.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if not schemes or len(set(schemes)) != len(schemes) or not set(schemes) <= {"mrt", "zf"}:
        raise DomainError(f"need one or more distinct precoder schemes of mrt, zf; got {schemes!r}")
    gx = np.asarray(grid_x, dtype=float)
    gy = np.asarray(grid_y, dtype=float)
    if gx.size == 0 or gy.size == 0:
        raise DomainError("field map needs at least one grid point on each axis")
    n_grid = gx.size * gy.size
    workspaces = threading.local()  # each worker thread's leg workspaces, for this call only

    def one_trial(index: int) -> np.ndarray:
        trial_scene = redraw_scatterers(scene, seed.child(index))
        ant_leg = _antenna_leg(trial_scene, MIN_AMPLITUDE_DISTANCE, workspaces)
        # Perfect CSI toward the K terminals.
        h = scatterer_channel_matrix(trial_scene, scene.terminal_positions, MIN_AMPLITUDE_DISTANCE, ant_leg=ant_leg).T
        targets = []
        for scheme in schemes:
            precoder = mrt_precoder(h, 1.0) if scheme == "mrt" else zf_precoder(h, 1.0)
            targets.append(precoder.w[:, 0])
        # A contiguous copy of each precoder column keeps the product's call, and so its bytes, fixed.
        excitations = [ant_leg.T @ np.ascontiguousarray(w) for w in targets]
        grid_field = _field_blocks(trial_scene, gx, gy, excitations, MIN_AMPLITUDE_DISTANCE, workspaces)
        # One matrix-vector product per scheme: stacking the precoders into
        # one matmul may round differently.
        terminal_field = np.array([h.T @ w for w in targets])
        return np.abs(np.hstack([grid_field, terminal_field])) ** 2

    # One running total per scheme, grid points first, then the terminals.
    totals = np.zeros((len(schemes), n_grid + len(scene.terminal_positions)))
    for trial_powers in ordered_trial_map(one_trial, trials, workers):
        totals += trial_powers
    maps = []
    for scheme, mean_power in zip(schemes, totals / trials):
        spatial_mean = float(np.mean(mean_power[:n_grid]))
        with np.errstate(divide="ignore"):
            rel_db = 10.0 * np.log10(mean_power / spatial_mean)
        maps.append(
            FieldMap(
                x_lambda=gx,
                y_lambda=gy,
                power_db=rel_db[:n_grid].reshape(gy.size, gx.size),
                terminal_power_db=rel_db[n_grid:],
                scheme=scheme,
            )
        )
    return tuple(maps)
