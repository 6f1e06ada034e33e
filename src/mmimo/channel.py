"""Channel generation: geometric scatterer rays, large-scale link budgets,
terminal ground radii, and measured-channel files (i.i.d. draws: `numerics`).

Conventions: channel matrices are M x K (rows = base-station antennas,
columns = terminals). Scatterer-scene coordinates are in wavelengths.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, NumericError, ParseError
from .numerics import Seed

# Rural link-budget anchors: 127 dB loss at 1 km with range-decay exponent 3.52.
# The 127 dB anchor holds for the scenario's 1.9 GHz carrier only.
PATH_LOSS_AT_1KM_DB = 127.0
PATH_LOSS_EXPONENT = 3.52

BASE_HEIGHT_M = 30.0
TERMINAL_HEIGHT_M = 5.0

# Terminals of the focusing scene in units of the other users' offset: the
# target (terminal 0) at the region centre plus four co-scheduled users.
FOCUSING_OFFSETS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
FOCUSING_TERMINALS = len(FOCUSING_OFFSETS)

# Grid points that `scatterer_field` builds and applies at a time, rounded down
# to whole grid rows: 123 points (3 rows) at the bundled 41 x 41 grid. At 400
# scatterers that block's leg is 787 kB and its workspace, at 28 bytes per
# entry, 1.4 MB. Of 64-512 rows, 64-128 were fastest and within 3% of one
# another; 192 rows and more were 15-60% slower.
FIELD_BLOCK_ROWS = 128

_ZERO_RAY = "coincident antenna/scatterer/point produces a zero-length ray"


def path_loss_db(distance_km) -> np.ndarray | float:
    """Distance-dependent path loss in dB."""
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0.0):
        raise DomainError("path loss requires a strictly positive distance")
    loss = PATH_LOSS_AT_1KM_DB + 10.0 * PATH_LOSS_EXPONENT * np.log10(d)
    return float(loss) if np.isscalar(distance_km) else loss


def draw_shadow_db(seed: Seed, sigma_db: float, n: int | tuple[int, ...]) -> np.ndarray:
    """Zero-mean log-normal shadow fading in dB with the given std deviation:
    `n` draws, or an array of shape `n` filled row-major by one
    `standard_normal` call, so its first row is the `n[-1]` draws of the
    same seed."""
    if sigma_db < 0.0:
        raise DomainError("shadow fading standard deviation must be >= 0 dB")
    return sigma_db * seed.generator().standard_normal(n)


def place_terminals(seed: Seed, n: int, radius_km: float, exclusion_km: float = 0.0) -> np.ndarray:
    """Drop `n` terminals uniformly over the annulus between the exclusion
    radius and the cell radius. Returns their (n,) ground radii in km: the
    link budget is rotationally symmetric, so no azimuth is drawn."""
    return np.sqrt(squared_ground_radii(seed, n, radius_km, exclusion_km))


def squared_ground_radii(
    seed: Seed, n: int | tuple[int, ...], radius_km: float, exclusion_km: float = 0.0
) -> np.ndarray:
    """The squared ground radii, in km^2, of `place_terminals`: the first
    uniform draw of `seed`, of `n` terminals or of shape `n`, filled row-major
    by one `uniform` call, so its first row is the radii of `n[-1]` terminals
    of the same seed."""
    if np.any(np.asarray(n) < 0):
        raise DomainError("terminal count must be >= 0")
    if not 0.0 <= exclusion_km < radius_km:
        raise DomainError("need 0 <= exclusion radius < cell radius")
    # Uniform over area: r^2 is uniform between the two radii squared.
    return seed.generator().uniform(exclusion_km**2, radius_km**2, size=n)


def terminal_distance_km(squared_radii) -> np.ndarray:
    """3-D distance from the array, BASE_HEIGHT_M up, to terminals
    TERMINAL_HEIGHT_M up at the given squared ground radii (km^2)."""
    dz_km = (BASE_HEIGHT_M - TERMINAL_HEIGHT_M) / 1000.0
    return np.sqrt(np.asarray(squared_radii, dtype=float) + dz_km**2)


def large_scale_gain(squared_radii, shadow_db, gains_db: float) -> np.ndarray:
    """Slow-fading coefficients beta, any shape: the linear power gain
    10^((-path_loss + shadow + gains)/10) of terminals at the given squared
    ground radii (km^2) with the given shadow fading (dB) and antenna gains.
    Receiver noise is accounted scenario-side, never inside beta."""
    loss = path_loss_db(terminal_distance_km(squared_radii))
    return 10.0 ** ((-loss + shadow_db + gains_db) / 10.0)


def build_large_scale_profile(
    radii: np.ndarray,
    seed: Seed,
    *,
    base_gain_db: float = 0.0,
    terminal_gain_db: float = 8.0,
    shadow_sigma_db: float = 8.0,
) -> np.ndarray:
    """Per-terminal slow-fading coefficients beta of a drop at the given
    ground radii (km), with shadow fading drawn from `seed`
    (`large_scale_gain`)."""
    r = np.asarray(radii, dtype=float).reshape(-1)
    if r.size == 0:
        raise DomainError("need at least one terminal position")
    shadow = draw_shadow_db(seed, shadow_sigma_db, n=r.size)
    return large_scale_gain(r**2, shadow, base_gain_db + terminal_gain_db)


# ---------------------------------------------------------------------------
# Geometric scatterer model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScattererScene:
    """Single-bounce ray geometry: antennas, scatterers, and terminals in a
    rectangular region, all coordinates in wavelengths."""

    region: tuple[float, float]
    antenna_positions: np.ndarray
    scatterer_positions: np.ndarray
    terminal_positions: np.ndarray

    def __post_init__(self):
        for name in ("antenna_positions", "scatterer_positions", "terminal_positions"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1, 2)
            object.__setattr__(self, name, arr)
        if self.scatterer_positions.shape[0] < 1:
            raise GeometryError("scene needs at least one scatterer")
        if self.antenna_positions.shape[0] < 1:
            raise GeometryError("scene needs at least one antenna")


def _axis_squares(coords, scatterer_coords, out=None) -> np.ndarray:
    """(len(coords), S) squared differences of one coordinate to each
    scatterer's, in wavelengths squared, written to `out` if given."""
    squares = np.subtract.outer(coords, scatterer_coords, out=out)
    squares *= squares
    return squares


class _LegWorkspace:
    """The buffers `_phasor_leg` works in, for up to `rows` x S entries:
    float64 squared distances, float32 phase and the complex128 leg, 28
    bytes per entry. The float64 turns live in the leg's memory until the
    phase is taken from them. One workspace serves every block of a field,
    and in `field_map` every trial a worker thread runs; so does one for the
    antenna leg."""

    def __init__(self, rows: int, s: int):
        self.shape = (rows, s)
        self.squares = np.empty((rows, s))
        self.phase = np.empty((rows, s), dtype=np.float32)
        self.leg = np.empty((rows, s), dtype=np.complex128)


def _phasor_leg(work: _LegWorkspace, rows: int, floor: float) -> np.ndarray:
    """The leg amp * exp(-j*2*pi*d) of the squared distances d^2 (in
    wavelengths squared, all positive) in the first `rows` rows of
    `work.squares`, with amp = 1/max(d, floor). Returns a view of `work.leg`;
    every buffer of `work` is overwritten.

    The float64 turns are kept in the first half of the leg's bytes until the
    float32 phase is taken from them. Then float32 sin is written straight
    into `leg.imag`, widened exactly to float64, and float32 cos in place over
    the phase; each is then multiplied by the float64 amplitude.

    Accuracy contract: the whole turns of d are removed in float64, and the
    phasor is the float32 cos/sin of the remaining phase in [-pi, pi],
    stored in complex128. Each phasor is within about 2e-7 (relative) of
    exp(-j*2*pi*d) however long the ray; the amplitude is float64."""
    d = np.sqrt(work.squares[:rows], out=work.squares[:rows])
    leg = work.leg[:rows]
    # Reduce in float64: casting d (thousands of turns) to float32 first would
    # cost about 1e-4 turns of phase.
    turns = leg.view(np.float64).reshape(-1)[: d.size].reshape(d.shape)
    turns = np.subtract(d, np.rint(d, out=turns), out=turns)
    # The float64 product is rounded to float32 once, as it is stored.
    phase = np.multiply(turns, -2.0 * np.pi, out=work.phase[:rows])
    # d > 0 here, so a floor <= 0 leaves the amplitude at 1/d.
    amp = np.divide(1.0, np.maximum(d, floor, out=d), out=d)
    np.multiply(np.sin(phase, out=leg.imag, dtype=np.float32), amp, out=leg.imag)
    np.multiply(np.cos(phase, out=phase), amp, out=leg.real)
    return leg


def _kept(workspace, name: str, shape: tuple[int, int], make):
    """The buffer `workspace.<name>`, a `threading.local` attribute with a
    `shape`, or a new make(*shape) kept there when it is missing or has
    another shape. Without a `workspace`, a new make(*shape)."""
    held = getattr(workspace, name, None)
    if held is None or held.shape != shape:
        held = make(*shape)
        if workspace is not None:
            setattr(workspace, name, held)
    return held


def _ray_leg(origins: np.ndarray, scene: ScattererScene, floor: float, workspace=None, name: str = "leg") -> np.ndarray:
    """(rows, S) complex128 leg from each origin to each scatterer: the
    squared distances, then `_phasor_leg` in the rows x S workspace kept as
    `workspace.<name>` (`_kept`), or a new one. The axis squares are formed
    in the two halves of the leg's bytes, which `_phasor_leg` overwrites."""
    sx, sy = scene.scatterer_positions.T
    work = _kept(workspace, name, (origins.shape[0], sx.size), _LegWorkspace)
    x2, y2 = work.leg.view(np.float64).reshape(2, *work.shape)
    squares = np.add(
        _axis_squares(origins[:, 0], sx, out=x2),
        _axis_squares(origins[:, 1], sy, out=y2),
        out=work.squares,
    )
    if not squares.all():
        raise GeometryError(_ZERO_RAY)
    return _phasor_leg(work, origins.shape[0], floor)


def antenna_leg(scene: ScattererScene, min_amplitude_distance: float = 0.0, workspace=None) -> np.ndarray:
    """(M, S) ray leg from every antenna to every scatterer, the factor that
    `scatterer_channel_matrix` and the excitations of `scatterer_field` share.
    With a per-thread `workspace` (a `threading.local`), it is built in the
    buffers kept as `workspace.antenna` (`_kept`), as the same bytes, and is
    a view of them that the thread's next call overwrites."""
    return _ray_leg(scene.antenna_positions, scene, min_amplitude_distance, workspace, "antenna")


def scatterer_channel_matrix(
    scene: ScattererScene,
    points,
    min_amplitude_distance: float = 0.0,
    *,
    ant_leg: np.ndarray | None = None,
) -> np.ndarray:
    """Channels from every antenna to every evaluation point via single-bounce rays.

    Each path contributes exp(-j*2*pi*(d1+d2)) / (d1*d2) where d1 and d2 are
    the antenna-scatterer and scatterer-point legs, in wavelengths. The phase
    always uses the exact distances; `min_amplitude_distance` floors only the
    leg lengths in the amplitude denominator, which keeps field maps finite
    when an evaluation point falls next to a scatterer. Returns (P, M)
    complex128. `ant_leg`, if given, is this scene's `antenna_leg` at the
    same floor.

    Each leg's phasor is float32 cos/sin of its phase after the whole turns
    are removed in float64 (see `_phasor_leg`), so every ray is within about
    2e-7 of its amplitude of the exact value; the legs and the sum over
    scatterers are complex128. For the field at many points of a grid,
    `scatterer_field` gives the same rays without the P x M matrix.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if ant_leg is None:
        ant_leg = antenna_leg(scene, min_amplitude_distance)
    # The ray sum factorises over the shared scatterer index.
    return _ray_leg(pts, scene, min_amplitude_distance) @ ant_leg.T


def scatterer_field(
    scene: ScattererScene,
    grid_x,
    grid_y,
    excitations,
    min_amplitude_distance: float = 0.0,
    workspace=None,
) -> np.ndarray:
    """Field at every point of the grid `grid_x` x `grid_y` re-radiated by
    the scatterers, for each S-vector of scatterer `excitations`, as a
    (columns, P) complex128 array with points in row-major (y, x) order.

    For antenna weights w the excitation is v = antenna_leg(scene)^T @ w, and
    row j is `scatterer_channel_matrix(...) @ w_j` up to rounding: the sum is
    taken as point leg @ v, so the P x M ray matrix is never formed. Each
    point's leg is built once, in blocks of floor(`FIELD_BLOCK_ROWS` / nx)
    whole grid rows (at least one) in one workspace, and applied while the
    block is in cache. The squared distances come from the lattice: dx^2 and
    dy^2 are formed once per call, and one broadcast add dy^2[y0:y1, None] +
    dx^2 fills a block. One matrix-vector product per excitation and block
    keeps each column's bytes independent of the others, and of the block
    size: numpy hands a one-row product to a dot routine that rounds
    differently, so a one-point tail (nx = 1 only) is folded into the block
    before it. The rays obey the accuracy contract of `_phasor_leg`.

    A per-thread `workspace` (a `threading.local`) keeps the block workspace
    as `workspace.work` and the lattice's dx^2 and dy^2 as
    `workspace.lattice` (`_kept`) for the thread's later calls on a grid and
    scatterer count of the same shape. Reuse changes no byte of the field.
    """
    gx = np.asarray(grid_x, dtype=float).ravel()
    gy = np.asarray(grid_y, dtype=float).ravel()
    sx, sy = scene.scatterer_positions.T
    nx, ny = gx.size, gy.size
    lattice = _kept(workspace, "lattice", (nx + ny, sx.size), lambda *shape: np.empty(shape))
    dx2 = _axis_squares(gx, sx, out=lattice[:nx])
    dy2 = _axis_squares(gy, sy, out=lattice[nx:])
    # d = 0 exactly where both squares of one scatterer's column vanish.
    if np.any((dx2 == 0.0).any(axis=0) & (dy2 == 0.0).any(axis=0)):
        raise GeometryError(_ZERO_RAY)
    starts = list(range(0, ny, max(1, FIELD_BLOCK_ROWS // nx))) + [ny]
    if len(starts) > 2 and (ny - starts[-2]) * nx == 1:
        del starts[-2]
    blocks = list(zip(starts[:-1], starts[1:]))
    work = _kept(workspace, "work", (max(y1 - y0 for y0, y1 in blocks) * nx, sx.size), _LegWorkspace)
    field = np.empty((len(excitations), nx * ny), dtype=np.complex128)
    for y0, y1 in blocks:
        rows = (y1 - y0) * nx
        np.add(dy2[y0:y1, None], dx2, out=work.squares[:rows].reshape(y1 - y0, nx, sx.size))
        leg = _phasor_leg(work, rows, min_amplitude_distance)
        for row, v in zip(field, excitations):
            row[y0 * nx : y1 * nx] = leg @ v
    return field


def make_focusing_scene(
    seed: Seed,
    *,
    m_antennas: int = 64,
    n_scatterers: int = 400,
    region_side_lambda: float = 800.0,
    bs_distance_lambda: float = 1600.0,
    antenna_spacing_lambda: float = 4.0,
    other_user_offset_lambda: float = 40.0,
) -> ScattererScene:
    """Scene with the terminals at FOCUSING_OFFSETS times
    `other_user_offset_lambda` (the target, terminal 0, at the region
    centre) and a linear array placed `bs_distance_lambda` to the left.

    The default antenna spacing is several wavelengths so that the array
    aperture resolves the scatterer cloud; with half-wavelength spacing the
    channel would offer far fewer effective dimensions than antennas.
    """
    if other_user_offset_lambda <= 0.0:
        raise GeometryError("other users need a positive offset from the target")
    half = region_side_lambda / 2.0
    scatterers = draw_scatterers(seed, n_scatterers, region_side_lambda)
    array_y = (np.arange(m_antennas) - (m_antennas - 1) / 2.0) * antenna_spacing_lambda
    antennas = np.column_stack([np.full(m_antennas, -half - bs_distance_lambda), array_y])
    return ScattererScene(
        region=(region_side_lambda, region_side_lambda),
        antenna_positions=antennas,
        scatterer_positions=scatterers,
        terminal_positions=np.array(FOCUSING_OFFSETS, dtype=float) * other_user_offset_lambda,
    )


def draw_scatterers(seed: Seed, n_scatterers: int, region_side_lambda: float) -> np.ndarray:
    """Uniform scatterer placement over the square region centred at the origin."""
    if n_scatterers < 1:
        raise GeometryError("need at least one scatterer")
    half = region_side_lambda / 2.0
    rng = seed.generator()
    return rng.uniform(-half, half, size=(n_scatterers, 2))


def redraw_scatterers(scene: ScattererScene, seed: Seed) -> ScattererScene:
    """Same geometry with a fresh scatterer placement (one Monte Carlo trial)."""
    scatterers = draw_scatterers(seed, scene.scatterer_positions.shape[0], scene.region[0])
    return dataclasses.replace(scene, scatterer_positions=scatterers)


# ---------------------------------------------------------------------------
# Measured-channel files (CFCSV v1)
# ---------------------------------------------------------------------------
#
# Line 1: "M,K,F" in ASCII decimal. Then F blocks of M lines; each line holds
# 2K comma-separated finite floats, re/im interleaved per terminal (k = 1..K).
# LF line endings, UTF-8/ASCII.


def load_measured_channels(path) -> np.ndarray:
    """Parse a CFCSV v1 file into its (F, M, K) complex channel matrices,
    measured at F narrowband frequency points; errors carry the offending
    line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        # One read decodes the whole file, so exc.object holds every byte before the bad one.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", line=line) from None
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if len(header) != 3:
        raise ParseError(f"header must be 'M,K,F', got {lines[0]!r}", line=1)
    try:
        m, k, f = (int(tok.strip()) for tok in header)
    except ValueError:
        raise ParseError(f"non-integer header field in {lines[0]!r}", line=1) from None
    if m < 1 or k < 1 or f < 1:
        raise ParseError("header dimensions must all be >= 1", line=1)
    expected = 1 + m * f
    if len(lines) != expected:
        raise ParseError(
            f"expected {expected} lines for M={m}, F={f}, found {len(lines)}",
            line=len(lines),
        )
    values = np.empty((f * m, 2 * k))
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != 2 * k:
            raise ParseError(f"expected {2 * k} values (re,im per terminal), found {len(tokens)}", line=lineno)
        try:
            row = [float(tok) for tok in tokens]
        except ValueError:
            raise ParseError(f"non-numeric token in {line!r}", line=lineno) from None
        bad = [tok for tok, value in zip(tokens, row) if not math.isfinite(value)]
        if bad:
            raise ParseError(f"non-finite value {bad[0].strip()!r}; values must be finite floats", line=lineno)
        values[lineno - 2] = row
    # The interleaved re/im pairs are complex128's own layout, so every bit, -0.0 too, is kept.
    return values.view(complex).reshape(f, m, k)


def save_measured_channels(matrices, path) -> None:
    """Write a CFCSV v1 file; shortest round-trip decimal formatting. Data
    that `load_measured_channels` would reject (an empty axis, a non-finite
    entry) raises before the file is opened."""
    arr = np.asarray(matrices, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or 0 in arr.shape:
        raise DimensionError(f"expected non-empty (F, M, K) or (M, K) channel data, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("channel data has non-finite entries; CFCSV holds finite floats only")
    f, m, k = arr.shape
    rows = np.ascontiguousarray(arr).view(float).reshape(f * m, 2 * k)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m},{k},{f}\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
