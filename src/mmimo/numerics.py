"""Seeded random generation, complex linear algebra, and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericError, RankError

# Relative singular-value floor below which a matrix counts as rank-deficient
# (double-precision conditioning floor).
RANK_TOLERANCE = 1e-12

# Complex entries per block of block-drawn Monte Carlo trials: a block of
# `bartlett_blocks` holds BLOCK_ENTRIES // K^2 trials by default. Part of the
# stream definition: changing it changes the outputs of svd-spread,
# mrt-sumrate and pilot-contamination. Longer blocks (the capacity
# validators' 250 draws) are drawn and reduced in pieces of that many trials,
# 20 at K = 40, which keeps their temporaries in cache and changes no draw.
BLOCK_ENTRIES = 2**15

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class Seed:
    """Hierarchical random seed.

    The same (master, path) pair always yields the same stream, and distinct
    paths yield streams with no shared state, so Monte Carlo trials can be
    evaluated in any order or in parallel with bit-identical results.

    Only focusing-map gives each trial its own path. The other random
    experiments give each block of trials one path. rural-broadband draws a
    block of drops from two generators, one for all its squared ground radii
    and one for all its shadow fading (`capacity.rural_broadband`).
    svd-spread, mrt-sumrate, pilot-contamination and the capacity
    validators depend on their i.i.d. channels only through the inner
    products, and draw the K x K sufficient statistics by the Bartlett
    decomposition, never an M x K channel (`bartlett_blocks`):
    Z^H Z = A A^H for an M x K i.i.d. CN(0, 1) Z, with A lower triangular
    (lower trapezoidal, K x M, when M < K), and Z^H Z_e distributed as A X
    for an independent Z_e. Block b draws from `seed.child(b)` of its
    group's seed: the diagonal from its child 0, and the CN(0, 1) entries
    from float64 uniforms on its child 1, one pair of 64-bit words per
    entry, by Box-Muller (`_box_muller`).
    """

    master: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= int(self.master) < 2**64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")
        path = tuple(int(i) for i in self.path)
        if any(i < 0 for i in path):
            raise ValueError("stream path entries must be non-negative")
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "Seed":
        """Derive the sub-stream seed at the given path indices."""
        return Seed(self.master, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """PCG64 generator keyed through `SeedSequence` on (master, path)."""
        sequence = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(sequence))


def draw_complex_gaussian(
    source: Seed | np.random.Generator, rows: int, cols: int, batch: int | None = None
) -> np.ndarray:
    """Draw an i.i.d. circularly-symmetric complex Gaussian matrix, or with
    `batch` a (batch, rows, cols) stack of them.

    Entries have zero mean and unit variance (real and imaginary parts each
    carry variance 1/2). `source` is a `Seed`, or a generator to continue.
    One `standard_normal` call fills the parts trial-major: matrix 0's real
    parts, its imaginary parts, then matrix 1's, and so on. So a stack equals
    consecutive smaller stacks drawn from the same generator, concatenated,
    and a stack's first matrices do not depend on its length. A single
    matrix is bit-identical to (re + 1j*im)/sqrt(2) of two (rows, cols) draws.
    """
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if batch is not None and batch < 1:
        raise DimensionError(f"stack size must be >= 1, got {batch}")
    rng = source.generator() if isinstance(source, Seed) else source
    lead = () if batch is None else (batch,)
    parts = rng.standard_normal((*lead, 2, rows, cols))
    out = np.empty((*lead, rows, cols), dtype=complex)
    np.multiply(parts[..., 0, :, :], _INV_SQRT2, out=out.real)
    np.multiply(parts[..., 1, :, :], _INV_SQRT2, out=out.imag)
    return out


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Turn a (n, 2, w) stack of uniforms on [0, 1) in place into the real
    (u[:, 0]) and imaginary (u[:, 1]) parts of n x w CN(0, 1) entries
    z = sqrt(-log1p(-u0)) * exp(j*2*pi*u1), and return it: |z|^2 is Exp(1)
    and the phase is uniform (Box & Muller, 1958).

    Accuracy contract, as in `channel._phasor_leg`: the whole turn of u1 is
    removed in float64, and the phasor is the float32 cos/sin of the
    remaining phase in [-pi, pi], rounded to float32 once. Each entry is
    within 3e-7 (relative) of its float64 value; the modulus is float64."""
    modulus, turns = u[:, 0], u[:, 1]
    np.log1p(np.negative(modulus, out=modulus), out=modulus)
    np.sqrt(np.negative(modulus, out=modulus), out=modulus)
    turns -= np.rint(turns)
    phase = np.multiply(turns, 2.0 * np.pi, out=np.empty(turns.shape, dtype=np.float32))
    trig = np.sin(phase)
    np.multiply(trig, modulus, out=turns)
    np.multiply(np.cos(phase, out=trig), modulus, out=modulus)
    return u


@lru_cache(maxsize=32)
def _below_diagonal(k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) of the entries below the diagonal of a K x r lower
    trapezoidal factor, `np.tril_indices(k, -1, r)`: built once per (k, r),
    read-only."""
    indices = np.tril_indices(k, -1, r)
    for index in indices:
        index.flags.writeable = False
    return indices


def bartlett_blocks(seed: Seed, m: int, k: int, trials: int, size: int | None = None, cross: bool = False):
    """Yield the Bartlett factors of `trials` complex Wishart(M, I_K)
    matrices, and with `cross` their cross terms, in trial order: (A, X)
    stacks of n trials, A of shape (n, K, r) and X of shape (n, r, K),
    r = min(M, K), such that for an M x K i.i.d. CN(0, 1) matrix Z and an
    independent copy Z_e,

        Z^H Z = A A^H  and  Z^H Z_e = A X  in distribution.

    This is the QR decomposition Z = Q R read backwards (A = R^H): |A_ii|^2 is
    Gamma(M - i, 1) for i < r (a chi-square with 2(M - i) degrees of freedom,
    halved), every entry below the diagonal is CN(0, 1), and Q^H Z_e is an
    r x K i.i.d. CN(0, 1) matrix X independent of A. When M < K, Z^H Z has
    rank M and A is K x M lower trapezoidal: rows M..K-1 are all CN(0, 1).
    No operand has an M-length axis. Without `cross`, X is None.

    The CN(0, 1) entries are Box-Muller transforms of uniforms with a float32
    phasor: each is within 3e-7 (relative) of the value the same uniforms
    give in float64, and its modulus is float64 (`_box_muller`).

    A block holds `size` trials, by default max(1, BLOCK_ENTRIES // K^2), and
    is yielded in pieces of at most that default: a block of the default size
    is a single piece. Block b draws the diagonal from one `standard_gamma`
    call on `seed.child(b, 0)`, and the below-diagonal entries and then X
    from one generator on `seed.child(b, 1)`, both trial-major: each piece
    draws its own (piece, 2, width) float64 uniforms, exactly 2 * width 64-bit
    words per trial, and `_box_muller` turns each pair into one CN(0, 1)
    entry, whose real and imaginary parts it writes into A and X. So the
    pieces do not depend on the piece size, and since the block size does not
    depend on `trials`, the draws of the first T trials are the same for every
    trial count of at least T.
    """
    if m < 1 or k < 1:
        raise DimensionError(f"Wishart dimensions must be >= 1, got M={m}, K={k}")
    if trials < 1:
        raise DimensionError(f"trial count must be >= 1, got {trials}")
    r = min(m, k)
    diag = np.arange(r)
    rows, cols = _below_diagonal(k, r)
    below = rows.size
    width = below + (r * k if cross else 0)
    piece = max(1, BLOCK_ENTRIES // (k * k))
    size = piece if size is None else size
    for index, first in enumerate(range(0, trials, size)):
        count = min(size, trials - first)
        chi = seed.child(index, 0).generator().standard_gamma(m - diag, size=(count, r))
        uniforms = seed.child(index, 1).generator()
        for start in range(0, count, piece):
            n = min(piece, count - start)
            a = np.zeros((n, k, r), dtype=complex)
            a[:, diag, diag] = np.sqrt(chi[start : start + n])
            x = None
            if width:  # K = 1 without cross terms has no normal entry
                parts = _box_muller(uniforms.random((n, 2, width)))
                a.real[:, rows, cols] = parts[:, 0, :below]
                a.imag[:, rows, cols] = parts[:, 1, :below]
                if cross:
                    x = np.empty((n, r, k), dtype=complex)
                    x.real = parts[:, 0, below:].reshape(n, r, k)
                    x.imag = parts[:, 1, below:].reshape(n, r, k)
            yield a, x


def _checked_matrix(h) -> np.ndarray:
    """`h` as a complex matrix, or a stack (..., rows, cols) of them, with
    finite entries."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or 0 in h.shape:
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {h.shape}")
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise NumericError("matrix contains non-finite entries")
    return h


def singular_values(h) -> np.ndarray:
    """Singular values of `h` in descending order, per matrix of a stack."""
    return np.linalg.svd(_checked_matrix(h), compute_uv=False)


def singular_value_spread_db(h):
    """Ratio of largest to smallest singular value, in dB (20 log10): a float
    for one matrix, an array for a stack. Raises `RankError` if any matrix is
    rank-deficient."""
    s = singular_values(h)
    top, bottom = s[..., 0], s[..., -1]
    if np.any((top == 0.0) | (bottom <= RANK_TOLERANCE * top)):
        raise RankError("singular value spread undefined for a rank-deficient matrix")
    spread = 20.0 * np.log10(top / bottom)
    return float(spread) if spread.ndim == 0 else spread


def pseudo_inverse(h) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a full-column-rank matrix."""
    h = _checked_matrix(h)
    if h.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {h.shape}")
    rows, cols = h.shape
    if cols > rows:
        raise RankError(f"matrix with {cols} columns and {rows} rows cannot have full column rank")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOLERANCE * s[0]:
        raise RankError("matrix is numerically rank-deficient")
    return (vh.conj().T * (1.0 / s)) @ u.conj().T


@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical distribution of real samples, kept as a sorted array."""

    sorted_values: np.ndarray

    @classmethod
    def from_samples(cls, values) -> "EmpiricalCdf":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise DimensionError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise NumericError("empirical CDF samples must be finite")
        return cls(sorted_values=arr)

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.sorted_values, q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)
