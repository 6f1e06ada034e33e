import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo.errors import DimensionError, NumericError, RankError
from mmimo.numerics import (
    BLOCK_ENTRIES,
    EmpiricalCdf,
    Seed,
    bartlett_blocks,
    draw_bartlett,
    draw_complex_gaussian,
    pseudo_inverse,
    singular_value_spread_db,
    singular_values,
)

from mc_compare import assert_same_means


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

    @pytest.mark.parametrize("rows, cols", [(1, 1), (4, 4), (7, 3), (128, 4), (100, 400)])
    def test_matrix_bit_identical_to_two_draw_formula(self, rows, cols):
        # The formula of the per-matrix streams that capacity and the
        # validators draw from: two (rows, cols) draws, then (re + 1j*im)/sqrt(2).
        rng = Seed(31).child(rows, cols).generator()
        re = rng.standard_normal((rows, cols))
        im = rng.standard_normal((rows, cols))
        reference = (re + 1j * im) / np.sqrt(2.0)
        drawn = draw_complex_gaussian(Seed(31).child(rows, cols), rows, cols)
        assert drawn.shape == (rows, cols)
        assert np.array_equal(drawn.view(np.uint64), reference.view(np.uint64))

    def test_stack_equals_consecutive_draws(self):
        whole = draw_complex_gaussian(Seed(32).generator(), 5, 3, 10)
        rng = Seed(32).generator()
        parts = [draw_complex_gaussian(rng, 5, 3, n) for n in (3, 1, 6)]
        assert whole.shape == (10, 5, 3)
        assert np.array_equal(whole, np.concatenate(parts))

    def test_one_matrix_stack_is_the_matrix(self):
        assert np.array_equal(draw_complex_gaussian(Seed(33), 6, 2, 1)[0], draw_complex_gaussian(Seed(33), 6, 2))

    def test_empty_stack_rejected(self):
        with pytest.raises(DimensionError):
            draw_complex_gaussian(Seed(0), 4, 4, 0)


def box_muller_reference(u):
    """The complex entries sqrt(-log1p(-u0)) * exp(j*2*pi*u1) of a (n, 2, w)
    stack of uniforms, as the library evaluates them: the whole turn of u1
    removed in float64, the phase rounded once to float32, float32 cos/sin."""
    modulus = np.sqrt(-np.log1p(-u[:, 0]))
    phase = (2.0 * np.pi * (u[:, 1] - np.rint(u[:, 1]))).astype(np.float32)
    z = np.empty(modulus.shape, dtype=complex)
    z.real = np.cos(phase) * modulus
    z.imag = np.sin(phase) * modulus
    return z


def one_shot_bartlett(seed, m, k, count, cross):
    """Reference for the stream of `draw_bartlett`: the diagonal from one
    `standard_gamma` call on seed.child(0), then the below-diagonal entries
    and X from one (count, 2, width) `random` call on seed.child(1),
    trial-major, each pair of uniforms one complex normal."""
    r = min(m, k)
    diag = np.arange(r)
    rows, cols = np.tril_indices(k, -1, r)
    a = np.zeros((count, k, r), dtype=complex)
    a[:, diag, diag] = np.sqrt(seed.child(0).generator().standard_gamma(m - diag, size=(count, r)))
    width = rows.size + (r * k if cross else 0)
    z = box_muller_reference(seed.child(1).generator().random((count, 2, width)))
    a[:, rows, cols] = z[:, : rows.size]
    return a, (z[:, rows.size :].reshape(count, r, k) if cross else None)


def bartlett_entries(a, x):
    """The drawn complex normals of a (count, K, r) stack A and its X, in
    stream order: A's below-diagonal entries, then X, trial by trial."""
    rows, cols = np.tril_indices(a.shape[1], -1, a.shape[2])
    return np.concatenate([a[:, rows, cols], x.reshape(x.shape[0], -1)], axis=1)


def dkw_distance(samples, cdf) -> float:
    """Kolmogorov distance between the empirical CDF of `samples` and `cdf`."""
    x = np.sort(samples)
    f = cdf(x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


class TestBoxMullerDraw:
    # M = 100, K = 40 with cross terms: 780 + 1,600 normals per trial.
    M, K, TRIALS = 100, 40, 100

    def draw(self, seed):
        return draw_bartlett(seed, self.M, self.K, self.TRIALS, cross=True)

    def test_entries_follow_complex_normal_law(self):
        # Dvoretzky-Kiefer-Wolfowitz: the empirical CDF of n samples leaves a
        # band of sqrt(log(2 / alpha) / (2 n)) around the true CDF with
        # probability at most alpha.
        z = bartlett_entries(*self.draw(Seed(60))).ravel()
        assert z.size >= 200_000
        band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * z.size))
        erf = np.frompyfunc(math.erf, 1, 1)

        def normal_half_cdf(v):  # N(0, 1/2)
            return 0.5 * (1.0 + erf(v).astype(float))

        assert dkw_distance(z.real, normal_half_cdf) < band
        assert dkw_distance(z.imag, normal_half_cdf) < band
        assert dkw_distance(np.abs(z) ** 2, lambda v: -np.expm1(-v)) < band  # Exp(1)

    def test_entries_within_float32_phase_accuracy(self):
        seed = Seed(61)
        z = bartlett_entries(*self.draw(seed))
        u = seed.child(1).generator().random(z.shape[:1] + (2,) + z.shape[1:])
        exact = np.sqrt(-np.log1p(-u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
        assert np.all(np.abs(z - exact) <= 3e-7 * np.abs(exact))

    def test_block_takes_two_words_per_entry(self, monkeypatch):
        # Every normal costs one (u0, u1) pair of 64-bit words, so the
        # normals generator ends exactly 2 * width * trials steps on.
        made = {}
        generator = Seed.generator

        def recording(seed):
            made[seed.path] = generator(seed)
            return made[seed.path]

        monkeypatch.setattr(Seed, "generator", recording)
        seed = Seed(62)
        a, x = self.draw(seed)
        width = bartlett_entries(a, x).shape[1]
        fresh = generator(seed.child(1)).bit_generator
        fresh.advance(2 * width * self.TRIALS)
        assert made[(1,)].bit_generator.state == fresh.state


class TestBartlettBlocks:
    def test_block_size_follows_terminal_count(self):
        per_block = BLOCK_ENTRIES // (5 * 5)
        sizes = [a.shape[0] for a, _ in bartlett_blocks(Seed(50), 1000, 5, per_block + 4)]
        assert sizes == [per_block, 4]
        sizes = [a.shape[0] for a, _ in bartlett_blocks(Seed(50), 8, 3, 25, size=10)]
        assert sizes == [10, 10, 5]

    def test_block_b_draws_from_child_b(self):
        for cross in (False, True):
            blocks = list(bartlett_blocks(Seed(51), 6, 4, 7, size=3, cross=cross))
            assert len(blocks) == 3
            for index, (a, x) in enumerate(blocks):
                expected_a, expected_x = draw_bartlett(Seed(51).child(index), 6, 4, a.shape[0], cross)
                assert np.array_equal(a, expected_a)
                assert (x is None) if not cross else np.array_equal(x, expected_x)

    def test_prefix_stable_across_trial_counts(self):
        short = BLOCK_ENTRIES // 16 + 3  # crosses a block boundary at K = 4
        first = [np.concatenate(p) for p in zip(*bartlett_blocks(Seed(52), 10, 4, short, cross=True))]
        longer = [np.concatenate(p) for p in zip(*bartlett_blocks(Seed(52), 10, 4, 3 * short, cross=True))]
        for a, b in zip(first, longer):
            assert np.array_equal(a, b[:short])

    @pytest.mark.parametrize(
        "m, k, trials, size, cross",
        [
            (100, 40, 260, 250, True),
            (100, 40, 260, 250, False),
            (1, 40, 70, 45, False),  # M = 1
            (3, 40, 50, 50, True),  # M < K
            (60, 50, 40, 33, True),  # pieces of 13: 33 = 13 + 13 + 7
        ],
    )
    def test_pieces_concatenate_to_one_shot_blocks(self, m, k, trials, size, cross):
        # Blocks longer than max(1, BLOCK_ENTRIES // K^2) trials come in pieces
        # of that many (the last shorter), and the pieces of block b are byte
        # for byte the block drawn in one shot from seed.child(b): one gamma
        # call and one complex normal call for the whole block.
        piece = max(1, BLOCK_ENTRIES // (k * k))
        pieces = list(bartlett_blocks(Seed(57), m, k, trials, size=size, cross=cross))
        blocks = [min(size, trials - start) for start in range(0, trials, size)]
        assert [a.shape[0] for a, _ in pieces] == [
            min(piece, n - start) for n in blocks for start in range(0, n, piece)
        ]
        a = np.concatenate([a for a, _ in pieces])
        x = np.concatenate([x for _, x in pieces]) if cross else None
        start = 0
        for index, n in enumerate(blocks):
            expected_a, expected_x = one_shot_bartlett(Seed(57).child(index), m, k, n, cross)
            assert a[start : start + n].tobytes() == expected_a.tobytes()
            assert (x is None) if not cross else x[start : start + n].tobytes() == expected_x.tobytes()
            drawn_a, drawn_x = draw_bartlett(Seed(57).child(index), m, k, n, cross)
            assert drawn_a.tobytes() == expected_a.tobytes()
            assert (drawn_x is None) if not cross else drawn_x.tobytes() == expected_x.tobytes()
            start += n

    def test_terminal_count_of_a_thousand_draws_one_trial_per_piece(self):
        a, x = next(bartlett_blocks(Seed(58), 1000, 1000, 250, 250))
        assert a.shape == (1, 1000, 1000) and x is None

    def test_single_terminal_without_cross_terms(self):
        # K = 1 has no entry below the diagonal: A is sqrt(Gamma(M, 1)) alone.
        a, x = draw_bartlett(Seed(59), 4, 1, 3)
        expected = np.sqrt(Seed(59).child(0).generator().standard_gamma(4.0, size=3))
        assert x is None and a.shape == (3, 1, 1)
        assert np.array_equal(a[:, 0, 0], expected)

    @pytest.mark.parametrize("m, k", [(7, 3), (3, 3), (2, 5), (1, 4)])
    def test_factor_shape_and_structure(self, m, k):
        a, x = draw_bartlett(Seed(53), m, k, 4, cross=True)
        r = min(m, k)
        assert a.shape == (4, k, r) and x.shape == (4, r, k)
        # Lower triangular (trapezoidal when M < K) with a positive real diagonal.
        above = np.triu(np.ones((k, r), dtype=bool), 1)
        assert np.all(a[:, above] == 0) and np.all(a[:, ~above] != 0)
        diag = np.diagonal(a, axis1=1, axis2=2)
        assert np.all(diag.imag == 0) and np.all(diag.real > 0)

    def test_rejects_empty_dimensions(self):
        with pytest.raises(DimensionError):
            draw_bartlett(Seed(0), 0, 3, 2)
        with pytest.raises(DimensionError):
            draw_bartlett(Seed(0), 3, 3, 0)

    @pytest.mark.parametrize("m, k", [(1, 1), (1, 4), (2, 5), (3, 3), (6, 2), (40, 4)])
    def test_moments_match_direct_draw(self, m, k):
        # A A^H against Z^H Z, and A X against Z^H Z_e, for M x K i.i.d.
        # CN(0, 1) draws Z and Z_e: entrywise means of the real and imaginary
        # parts and of |.|^2, and the mean of W_ii |Y_ij|^2 (E = M^2 + M).
        draws = 6000
        a, x = draw_bartlett(Seed(54), m, k, draws, cross=True)
        z = draw_complex_gaussian(Seed(55), m, k, draws)
        z_e = draw_complex_gaussian(Seed(56), m, k, draws)
        engine = (a @ a.conj().transpose(0, 2, 1), a @ x)
        direct = (z.conj().transpose(0, 2, 1) @ z, z.conj().transpose(0, 2, 1) @ z_e)
        for label, e, d in zip(("W", "Y"), engine, direct):
            assert_same_means(
                *(np.concatenate([v.real, v.imag, np.abs(v) ** 2], axis=1).reshape(draws, -1) for v in (e, d)),
                f"{label} M={m} K={k}",
            )
        assert_same_means(
            *(np.diagonal(w, axis1=1, axis2=2).real[:, :, None] * np.abs(y) ** 2 for w, y in (engine, direct)),
            f"W_ii |Y_ij|^2 M={m} K={k}",
        )


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

    def test_stack_matches_per_matrix(self):
        stack = draw_complex_gaussian(Seed(44), 6, 3, 50)
        assert np.array_equal(singular_values(stack), np.stack([singular_values(h) for h in stack]))

    def test_stack_with_nonfinite_entry_rejected(self):
        stack = draw_complex_gaussian(Seed(45), 4, 4, 3)
        stack[2, 1, 1] = np.nan
        with pytest.raises(NumericError):
            singular_values(stack)

    @pytest.mark.parametrize("shape", [(4,), (0, 4, 4), (3, 0, 4)])
    def test_not_a_matrix_rejected(self, shape):
        with pytest.raises(DimensionError):
            singular_values(np.ones(shape))


class TestSingularValueSpread:
    def test_identity_is_zero_db(self):
        assert singular_value_spread_db(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_diag_10_1_is_20_db(self):
        assert singular_value_spread_db(np.diag([10.0, 1.0])) == pytest.approx(20.0, rel=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            singular_value_spread_db(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("m", [4, 32, 128])
    def test_stack_matches_per_matrix(self, m):
        stack = draw_complex_gaussian(Seed(46).child(m), m, 4, 200)
        spreads = singular_value_spread_db(stack)
        assert spreads.shape == (200,)
        assert np.array_equal(spreads, [singular_value_spread_db(h) for h in stack])

    def test_stack_with_rank_deficient_matrix_rejected(self):
        stack = draw_complex_gaussian(Seed(47), 4, 2, 5)
        stack[3] = 1.0
        with pytest.raises(RankError):
            singular_value_spread_db(stack)

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
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        assert cdf.median == pytest.approx(2.0)
        assert cdf.quantile(0.5) == pytest.approx(np.median([1.0, 2.0, 3.0]))

    def test_sorted_and_fraction(self):
        cdf = EmpiricalCdf.from_samples([5.0, -1.0, 2.5, 2.5])
        assert np.all(np.diff(cdf.sorted_values) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            EmpiricalCdf.from_samples([])
