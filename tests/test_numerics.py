import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo.errors import DimensionError, NumericError, RankError
from mmimo.numerics import (
    EmpiricalCdf,
    Seed,
    draw_complex_gaussian,
    pseudo_inverse,
    singular_value_spread_db,
    singular_values,
)


class TestSeed:
    def test_same_seed_same_stream(self):
        a = draw_complex_gaussian(Seed(42), 8, 3)
        b = draw_complex_gaussian(Seed(42), 8, 3)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = draw_complex_gaussian(Seed(42).child(0), 8, 3)
        b = draw_complex_gaussian(Seed(42).child(1), 8, 3)
        assert np.any(a != b)

    def test_child_is_not_parent(self):
        a = draw_complex_gaussian(Seed(42), 4, 4)
        b = draw_complex_gaussian(Seed(42).child(0), 4, 4)
        assert np.any(a != b)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(3).child(-2)


class TestDrawComplexGaussian:
    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            draw_complex_gaussian(Seed(0), 0, 4)
        with pytest.raises(DimensionError):
            draw_complex_gaussian(Seed(0), 4, 0)

    def test_unit_average_power(self):
        # Law of large numbers at 10^6 entries.
        h = draw_complex_gaussian(Seed(1), 1000, 1000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_real_imag_split(self):
        h = draw_complex_gaussian(Seed(2), 500, 500)
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_matches_gram_eigenvalues(self):
        # Independent oracle: eigenvalues of H^H H.
        h = draw_complex_gaussian(Seed(3), 6, 3)
        s = singular_values(h)
        gram_eigs = np.linalg.eigvalsh(h.conj().T @ h)
        oracle = np.sqrt(np.sort(gram_eigs)[::-1])
        assert np.allclose(s, oracle, rtol=1e-9)

    def test_frobenius_identity(self):
        h = draw_complex_gaussian(Seed(4), 5, 4)
        s = singular_values(h)
        assert np.sum(s**2) == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(NumericError):
            singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestSingularValueSpread:
    def test_identity_is_zero_db(self):
        assert singular_value_spread_db(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_diag_10_1_is_20_db(self):
        assert singular_value_spread_db(np.diag([10.0, 1.0])) == pytest.approx(20.0, rel=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            singular_value_spread_db(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_iid_4x4_median(self):
        # Ensemble check against the published value for a 4-element array.
        seed = Seed(5)
        spreads = [
            singular_value_spread_db(draw_complex_gaussian(seed.child(t), 4, 4))
            for t in range(10_000)
        ]
        assert 20.0 <= float(np.median(spreads)) <= 26.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
        ),
    )
    def test_scale_invariance(self, master, scale):
        h = draw_complex_gaussian(Seed(master), 5, 3)
        assert singular_value_spread_db(scale * h) == pytest.approx(
            singular_value_spread_db(h), abs=1e-10
        )


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_tall_ones_column(self):
        assert np.allclose(pseudo_inverse(np.array([[1.0], [1.0]])), [[0.5, 0.5]])

    def test_left_inverse_residual(self):
        h = draw_complex_gaussian(Seed(6), 8, 3)
        residual = pseudo_inverse(h) @ h - np.eye(3)
        assert np.linalg.norm(residual, "fro") < 1e-9

    def test_rank_deficient_rejected(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankError):
            pseudo_inverse(h)

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankError):
            pseudo_inverse(np.ones((2, 4)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_svd_consistency_property(self, master):
        h = draw_complex_gaussian(Seed(master), 6, 4)
        s = singular_values(h)
        assert np.sum(s**2) == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-9)


class TestEmpiricalCdf:
    def test_median_is_quantile_half(self):
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0], unit="dB")
        assert cdf.median == pytest.approx(2.0)
        assert cdf.quantile(0.5) == pytest.approx(np.median([1.0, 2.0, 3.0]))

    def test_sorted_and_fraction(self):
        cdf = EmpiricalCdf.from_samples([5.0, -1.0, 2.5, 2.5])
        assert np.all(np.diff(cdf.sorted_values) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            EmpiricalCdf.from_samples([])
