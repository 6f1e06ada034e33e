"""Seeded random generation, complex linear algebra, and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, RankError

# Relative singular-value floor below which a matrix counts as rank-deficient
# (double-precision conditioning floor).
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Seed:
    """Hierarchical random seed.

    The same (master, path) pair always yields the same stream, and distinct
    paths yield streams with no shared state, so Monte Carlo trials can be
    evaluated in any order or in parallel with bit-identical results.
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
        """Counter-style generator keyed on (master, path)."""
        sequence = np.random.SeedSequence(self.master, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(sequence))


def draw_complex_gaussian(seed: Seed, rows: int, cols: int) -> np.ndarray:
    """Draw an i.i.d. circularly-symmetric complex Gaussian matrix.

    Entries have zero mean and unit variance (real and imaginary parts each
    carry variance 1/2). Deterministic in `seed`.
    """
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    rng = seed.generator()
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def _checked_matrix(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
        raise DimensionError(f"expected a 2-D matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise NumericError("matrix contains non-finite entries")
    return h


def singular_values(h) -> np.ndarray:
    """Singular values of `h` in descending order."""
    return np.linalg.svd(_checked_matrix(h), compute_uv=False)


def singular_value_spread_db(h) -> float:
    """Ratio of largest to smallest singular value, in dB (20 log10)."""
    s = singular_values(h)
    if s[0] == 0.0 or s[-1] <= RANK_TOLERANCE * s[0]:
        raise RankError("singular value spread undefined for a rank-deficient matrix")
    return float(20.0 * np.log10(s[0] / s[-1]))


def pseudo_inverse(h) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a full-column-rank matrix."""
    h = _checked_matrix(h)
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
    unit: str = ""

    @classmethod
    def from_samples(cls, values, unit: str = "") -> "EmpiricalCdf":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise DimensionError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise NumericError("empirical CDF samples must be finite")
        return cls(sorted_values=arr, unit=unit)

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.sorted_values, q))

    @property
    def median(self) -> float:
        return self.quantile(0.5)
