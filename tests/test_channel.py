import dataclasses
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo import channel
from mmimo.channel import (
    ScattererScene,
    antenna_leg,
    build_large_scale_profile,
    draw_shadow_db,
    load_measured_channels,
    make_focusing_scene,
    path_loss_db,
    place_terminals,
    redraw_scatterers,
    save_measured_channels,
    scatterer_channel_matrix,
    scatterer_field,
    squared_ground_radii,
    terminal_distance_km,
)
from mmimo.errors import DimensionError, DomainError, GeometryError, NumericError, ParseError
from mmimo.numerics import Seed, draw_complex_gaussian, singular_value_spread_db


class TestIidChannel:
    def test_deterministic(self):
        assert np.array_equal(draw_complex_gaussian(Seed(0), 4, 4), draw_complex_gaussian(Seed(0), 4, 4))

    def test_single_entry(self):
        h = draw_complex_gaussian(Seed(1), 1, 1)
        assert h.shape == (1, 1)
        assert np.iscomplexobj(h)

    def test_inter_column_correlation(self):
        # |h_i . h_j| / (|h_i||h_j|) for independent columns concentrates at
        # sqrt(pi/4)/sqrt(M); Monte Carlo against the Rayleigh inner-product value.
        m, k = 128, 4
        seed = Seed(2)
        cors = []
        draws = 10_000 // (k * (k - 1) // 2) + 1
        for t in range(draws):
            h = draw_complex_gaussian(seed.child(t), m, k)
            for i in range(k):
                for j in range(i + 1, k):
                    num = abs(np.vdot(h[:, i], h[:, j]))
                    cors.append(num / (np.linalg.norm(h[:, i]) * np.linalg.norm(h[:, j])))
        expected = np.sqrt(np.pi / 4.0) / np.sqrt(m)
        assert np.mean(cors) == pytest.approx(expected, rel=0.10)

    def test_favorable_propagation_trend(self):
        # Median spread strictly decreasing in M for fixed K.
        seed = Seed(3)
        medians = []
        for mi, m in enumerate((4, 32, 128)):
            spreads = [
                singular_value_spread_db(draw_complex_gaussian(seed.child(mi, t), m, 4))
                for t in range(800)
            ]
            medians.append(np.median(spreads))
        assert medians[0] > medians[1] > medians[2]


class TestPathLoss:
    def test_anchor_at_1km(self):
        assert path_loss_db(1.0) == pytest.approx(127.0)

    def test_at_6km(self):
        assert path_loss_db(6.0) == pytest.approx(154.39, abs=0.005)

    def test_at_100m(self):
        assert path_loss_db(0.1) == pytest.approx(91.8, abs=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            path_loss_db(0.0)
        with pytest.raises(DomainError):
            path_loss_db(np.array([1.0, -2.0]))


class TestShadowFading:
    def test_zero_sigma(self):
        assert np.all(draw_shadow_db(Seed(0), 0.0, 3) == 0.0)

    def test_sample_std(self):
        draws = draw_shadow_db(Seed(1), 8.0, n=100_000)
        assert np.std(draws) == pytest.approx(8.0, abs=0.1)

    def test_sample_median(self):
        draws = draw_shadow_db(Seed(2), 8.0, n=100_000)
        assert np.median(draws) == pytest.approx(0.0, abs=0.1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            draw_shadow_db(Seed(0), -1.0, 1)

    def test_block_rows_continue_one_draw(self):
        # A (rows, n) block is one row-major draw: its first row is the n draws of the same seed.
        block = draw_shadow_db(Seed(4), 8.0, (3, 50))
        assert block.shape == (3, 50)
        assert np.array_equal(block.ravel(), draw_shadow_db(Seed(4), 8.0, 150))
        assert np.array_equal(block[0], draw_shadow_db(Seed(4), 8.0, 50))


class TestPlaceTerminals:
    def test_empty(self):
        assert place_terminals(Seed(0), 0, 6.0).shape == (0,)

    def test_uniform_area(self):
        # P(R <= r) = r^2 / R^2 over the disk.
        r = place_terminals(Seed(1), 100_000, 6.0)
        assert np.mean(r <= 3.0) == pytest.approx(0.25, abs=0.01)

    def test_support_bounds(self):
        r = place_terminals(Seed(2), 5000, 6.0, exclusion_km=0.5)
        assert np.all(r <= 6.0)
        assert np.all(r >= 0.5)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            place_terminals(Seed(0), -1, 6.0)
        with pytest.raises(DomainError, match="terminal count"):
            squared_ground_radii(Seed(0), (2, -1), 6.0)
        with pytest.raises(DomainError):
            place_terminals(Seed(0), 5, 6.0, exclusion_km=6.0)

    def test_radii_are_the_root_of_the_first_uniform_draw(self):
        # No azimuth is drawn: the squared radii are the seed's first draw.
        squared = Seed(3).generator().uniform(0.5**2, 6.0**2, size=50)
        assert np.array_equal(squared_ground_radii(Seed(3), 50, 6.0, exclusion_km=0.5), squared)
        assert np.array_equal(place_terminals(Seed(3), 50, 6.0, exclusion_km=0.5), np.sqrt(squared))
        # A (rows, n) block is the same draw, row-major.
        block = squared_ground_radii(Seed(3), (5, 10), 6.0, exclusion_km=0.5)
        assert np.array_equal(block, squared.reshape(5, 10))

    def test_heights_enter_distance(self):
        d = terminal_distance_km(np.array([0.03**2]))
        assert d[0] == pytest.approx(np.sqrt(0.03**2 + 0.025**2))


class TestLargeScaleProfile:
    # The array is 30 m and each terminal 5 m above ground: 25 m of height.
    DZ_KM = 0.025

    def _flat_profile(self, radii, **kw):
        kw.setdefault("shadow_sigma_db", 0.0)
        kw.setdefault("terminal_gain_db", 0.0)
        kw.setdefault("base_gain_db", 0.0)
        return build_large_scale_profile(radii, Seed(0), **kw)

    def test_beta_at_1km_anchor(self):
        beta = self._flat_profile(np.array([1.0]))
        # 127 dB at 1 km, 35.2 dB per decade of the 3-D distance.
        expected = 10 ** (-(127.0 + 35.2 * np.log10(np.hypot(1.0, self.DZ_KM))) / 10.0)
        assert beta[0] == pytest.approx(expected, rel=1e-9)

    def test_shadow_shift_scales_beta(self):
        base = self._flat_profile(np.array([2.0]))
        shifted_beta = base[0] * 10**0.8
        # +8 dB of shadow multiplies beta by exactly 10^0.8.
        manual = 10 ** ((-path_loss_db(np.hypot(2.0, self.DZ_KM)) + 8.0) / 10.0)
        assert manual == pytest.approx(shifted_beta, rel=1e-12)

    def test_monotone_in_distance(self):
        assert np.all(np.diff(self._flat_profile(np.linspace(0.5, 6.0, 30))) < 0)

    def test_gains_raise_beta(self):
        plain = self._flat_profile(np.array([1.0]))
        gained = self._flat_profile(np.array([1.0]), terminal_gain_db=8.0)
        assert gained[0] == pytest.approx(plain[0] * 10**0.8, rel=1e-12)


class TestScattererChannel:
    def _unit_scene(self):
        return ScattererScene(
            region=(4.0, 4.0),
            antenna_positions=[(-1.0, 0.0)],
            scatterer_positions=[(0.0, 0.0)],
            terminal_positions=[(1.0, 0.0)],
        )

    def test_unit_distances(self):
        # d1 = d2 = 1 wavelength: entry = exp(-j 4 pi) / 1 = 1 + 0j.
        h = scatterer_channel_matrix(self._unit_scene(), [(1.0, 0.0)])[0]
        assert h[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_path_scaling(self):
        scene = self._unit_scene()
        near = scatterer_channel_matrix(scene, [(1.0, 0.0)])[0][0]
        far_scene = ScattererScene(
            region=(8.0, 8.0),
            antenna_positions=[(-2.0, 0.0)],
            scatterer_positions=[(0.0, 0.0)],
            terminal_positions=[(2.0, 0.0)],
        )
        far = scatterer_channel_matrix(far_scene, [(2.0, 0.0)])[0][0]
        # Doubling both legs quarters the magnitude and advances the phase by
        # 2 pi (d1 + d2).
        assert abs(far) == pytest.approx(abs(near) / 4.0, rel=1e-12)
        assert np.angle(far / near) == pytest.approx(-2.0 * np.pi * 2.0 % (2 * np.pi), abs=1e-9)

    def test_coincident_point_rejected(self):
        with pytest.raises(GeometryError):
            scatterer_channel_matrix(self._unit_scene(), [(0.0, 0.0)])[0]

    def test_reciprocity(self):
        seed = Seed(4)
        scene = make_focusing_scene(seed, m_antennas=8, n_scatterers=50)
        target = (3.0, -7.0)
        forward = scatterer_channel_matrix(scene, [target])[0]
        swapped = ScattererScene(
            region=scene.region,
            antenna_positions=[target],
            scatterer_positions=scene.scatterer_positions,
            terminal_positions=scene.terminal_positions,
        )
        backward = np.array(
            [scatterer_channel_matrix(swapped, [tuple(p)])[0][0] for p in scene.antenna_positions]
        )
        # The ray sum is algebraically symmetric; matmul kernel order costs one ulp.
        assert np.allclose(forward, backward, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("floor", [0.0, 2.0])
    def test_matrix_bounded_against_pairwise_reference(self, floor):
        scene = make_focusing_scene(Seed(7), m_antennas=6, n_scatterers=30)
        # Grid points plus points within the floor of a scatterer, where it binds.
        pts = np.vstack([np.linspace(-300.0, 300.0, 14).reshape(7, 2), scene.scatterer_positions[:5] + (0.4, -0.3)])

        def reference_parts(a):
            diff = a[:, None, :] - scene.scatterer_positions[None, :, :]
            d = np.sqrt(np.sum(diff**2, axis=2))
            return d, 1.0 / (d if floor <= 0.0 else np.maximum(d, floor))

        def reference_leg(a):
            d, amp = reference_parts(a)
            return amp * np.exp(-2j * np.pi * d)

        expected = reference_leg(pts) @ reference_leg(scene.antenna_positions).T
        got = scatterer_channel_matrix(scene, pts, floor)
        assert got.dtype == np.complex128
        # Float32 phasors: each ray's error is at most 1e-6 of its amplitude.
        scale = reference_parts(pts)[1] @ reference_parts(scene.antenna_positions)[1].T
        assert np.all(np.abs(got - expected) <= 1e-6 * scale)

    def test_phase_reduced_in_float64(self):
        # float32(10000.3) is 2e-4 turns off, so reducing in float32 misses.
        scene = ScattererScene(
            region=(4.0, 4.0),
            antenna_positions=[(-10_000.3, 0.0)],
            scatterer_positions=[(0.0, 0.0)],
            terminal_positions=[(1.0, 0.0)],
        )
        h = scatterer_channel_matrix(scene, [(1.0, 0.0)])[0][0]
        assert np.angle(h) == pytest.approx(np.angle(np.exp(-2j * np.pi * 0.3)), abs=1e-6)

    def test_zero_length_leg_rejected_with_floor(self):
        scene = self._unit_scene()
        with pytest.raises(GeometryError):
            scatterer_channel_matrix(scene, [(1.0, 0.0), (0.0, 0.0)], min_amplitude_distance=2.0)
        on_scatterer = dataclasses.replace(scene, antenna_positions=np.array([(-1.0, 0.0), (0.0, 0.0)]))
        with pytest.raises(GeometryError):
            scatterer_channel_matrix(on_scatterer, [(1.0, 0.0)], min_amplitude_distance=2.0)

    def test_amplitude_floor_only_caps_amplitude(self):
        scene = self._unit_scene()
        h_plain = scatterer_channel_matrix(scene, [(0.25, 0.0)])[0][0]
        h_floored = scatterer_channel_matrix(scene, [(0.25, 0.0)], min_amplitude_distance=0.5)[0][0]
        # Same phase, smaller magnitude once the floor binds: 1/0.25 -> 1/0.5.
        assert np.angle(h_floored) == pytest.approx(np.angle(h_plain), abs=1e-12)
        assert abs(h_floored) == pytest.approx(abs(h_plain) * 0.5, rel=1e-12)

    def test_rich_scattering_is_conditionally_gaussian(self):
        # Normalising each draw by its scene-conditional standard deviation
        # isolates the phase randomness; the kurtosis of the real part should
        # match a Gaussian's.
        seed = Seed(6)
        scene = make_focusing_scene(seed, m_antennas=1, n_scatterers=400)
        samples = []
        for t in range(10_000):
            trial = redraw_scatterers(scene, seed.child(t))
            d1 = np.linalg.norm(trial.scatterer_positions - trial.antenna_positions[0], axis=1)
            d2 = np.linalg.norm(trial.scatterer_positions, axis=1)
            amp = 1.0 / (np.maximum(d1, 0.5) * np.maximum(d2, 0.5))
            sigma = np.sqrt(np.sum(amp**2) / 2.0)
            h = scatterer_channel_matrix(trial, [(0.0, 0.0)], min_amplitude_distance=0.5)[0][0]
            samples.append(h.real / sigma)
        x = np.asarray(samples)
        kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
        assert kurtosis == pytest.approx(3.0, abs=0.2)


class TestScattererField:
    def _scene(self):
        return make_focusing_scene(Seed(8), m_antennas=6, n_scatterers=30)

    def _excitations(self, scene, columns=2):
        w = draw_complex_gaussian(Seed(9), scene.antenna_positions.shape[0], columns)
        return [antenna_leg(scene, 2.0).T @ np.ascontiguousarray(w[:, j]) for j in range(columns)]

    @pytest.mark.parametrize("rows", [2, 7, 40, 41, 42, 128])
    @pytest.mark.parametrize(
        "nx, ny",
        # A block is floor(rows / nx) whole grid rows, at least one. (1, 13) at
        # 2 rows is the one-point-tail case: 13 = 6 * 2 + 1 points, the last
        # folded into the block before it. With nx > 1 no tail is one point.
        [(9, 7), (1, 13), (13, 1), (55, 3)],
    )
    def test_lattice_bit_identical_to_point_leg(self, monkeypatch, rows, nx, ny):
        scene = self._scene()
        gx = np.linspace(-300.0, 250.0, nx)
        gy = np.linspace(-120.0, 330.0, ny)
        xs, ys = np.meshgrid(gx, gy)
        points = np.column_stack([xs.ravel(), ys.ravel()])
        excitations = self._excitations(scene)
        point_leg = channel._ray_leg(points, scene, 2.0)
        monkeypatch.setattr(channel, "FIELD_BLOCK_ROWS", rows)
        field = scatterer_field(scene, gx, gy, excitations, 2.0)
        assert field.shape == (2, nx * ny)
        for row, v in zip(field, excitations):
            assert np.array_equal(row, point_leg @ v)

    def test_kept_buffers_reused_bit_identical(self):
        # A reused per-thread workspace gives the bytes of a fresh one.
        workspace = threading.local()
        kept = None
        for index, n_scatterers in enumerate((30, 30, 31)):
            scene = make_focusing_scene(Seed(10).child(index), m_antennas=6, n_scatterers=n_scatterers)
            gx, gy = np.linspace(-300.0, 250.0, 9), np.linspace(-120.0, 330.0, 7)
            leg = antenna_leg(scene, 2.0, workspace)
            assert np.shares_memory(leg, workspace.antenna.leg)
            assert leg.tobytes() == antenna_leg(scene, 2.0).tobytes()
            excitations = self._excitations(scene)
            field = scatterer_field(scene, gx, gy, excitations, 2.0, workspace)
            assert field.tobytes() == scatterer_field(scene, gx, gy, excitations, 2.0).tobytes()
            buffers = (workspace.antenna, workspace.work, workspace.lattice)
            # Kept while the shapes hold; a new scatterer count makes new ones.
            if kept is not None:
                assert [a is b for a, b in zip(buffers, kept)] == [n_scatterers == 30] * 3
            kept = buffers

    def test_scatterer_on_grid_point_rejected(self):
        scene = self._scene()
        gx = np.linspace(-300.0, 300.0, 5)
        gy = np.linspace(-200.0, 200.0, 4)
        scatterers = scene.scatterer_positions.copy()
        scatterers[3] = (gx[2], gy[1])
        on_grid = dataclasses.replace(scene, scatterer_positions=scatterers)
        with pytest.raises(GeometryError, match="zero-length ray"):
            scatterer_field(on_grid, gx, gy, self._excitations(on_grid), 2.0)
        # The same scatterer on a grid line but off the lattice is fine.
        scatterers[3] = (gx[2], 0.5 * (gy[1] + gy[2]))
        off_grid = dataclasses.replace(scene, scatterer_positions=scatterers)
        assert np.all(np.isfinite(scatterer_field(off_grid, gx, gy, self._excitations(off_grid), 2.0)))

    def test_shared_antenna_leg_bit_identical(self):
        scene = self._scene()
        pts = scene.terminal_positions
        shared = scatterer_channel_matrix(scene, pts, 2.0, ant_leg=antenna_leg(scene, 2.0))
        assert np.array_equal(shared, scatterer_channel_matrix(scene, pts, 2.0))

    @pytest.mark.parametrize("floor", [0.0, 2.0])
    def test_field_bounded_against_pairwise_reference(self, floor):
        scene = self._scene()
        # A lattice plus points within the floor of two scatterers, where it binds.
        gx = np.concatenate([np.linspace(-300.0, 300.0, 7), scene.scatterer_positions[:2, 0] + 0.4])
        gy = np.concatenate([np.linspace(-300.0, 300.0, 5), scene.scatterer_positions[:2, 1] - 0.3])
        xs, ys = np.meshgrid(gx, gy)
        points = np.column_stack([xs.ravel(), ys.ravel()])
        w = draw_complex_gaussian(Seed(10), scene.antenna_positions.shape[0], 1)[:, 0]

        def reference_parts(a):
            diff = a[:, None, :] - scene.scatterer_positions[None, :, :]
            d = np.sqrt(np.sum(diff**2, axis=2))
            return d, 1.0 / (d if floor <= 0.0 else np.maximum(d, floor))

        def reference_leg(a):
            d, amp = reference_parts(a)
            return amp * np.exp(-2j * np.pi * d)

        expected = reference_leg(points) @ (reference_leg(scene.antenna_positions).T @ w)
        (got,) = scatterer_field(scene, gx, gy, [antenna_leg(scene, floor).T @ w], floor)
        # Float32 phasors: each ray's error is at most 1e-6 of its amplitude.
        scale = reference_parts(points)[1] @ (reference_parts(scene.antenna_positions)[1].T @ np.abs(w))
        assert np.all(np.abs(got - expected) <= 1e-6 * scale)


class TestMeasuredChannels:
    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "set.cfcsv"
        path.write_text("2,1,1\n1.0,0.5\n-0.25,2.0\n")
        loaded = load_measured_channels(path)
        assert loaded.shape == (1, 2, 1)
        assert loaded[0, 0, 0] == 1.0 + 0.5j
        assert loaded[0, 1, 0] == -0.25 + 2.0j

    def test_round_trip_bit_exact(self, tmp_path):
        h = draw_complex_gaussian(Seed(7), 4, 3)
        stack = np.stack([h, 2.0 * h])
        path = tmp_path / "round.cfcsv"
        save_measured_channels(stack, path)
        loaded = load_measured_channels(path)
        assert np.array_equal(loaded, stack)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        # Re/im pairs with every sign of zero; re + 1j * im turned each -0.0 into 0.0.
        parts = np.array([[-0.0, -0.0, 0.0, -0.0, -0.0, 0.0], [1.5, -0.0, -0.0, -2.5, 0.0, 0.0]])
        stack = np.stack([parts, -parts]).view(complex)
        path = tmp_path / "zeros.cfcsv"
        save_measured_channels(stack, path)
        loaded = load_measured_channels(path)
        assert loaded.shape == (2, 2, 3)
        assert loaded.tobytes() == stack.tobytes()

    @pytest.mark.parametrize("value", [complex(np.nan, 1.0), complex(1.0, np.inf), complex(-np.inf, 0.0)])
    def test_save_rejects_non_finite_without_a_file(self, tmp_path, value):
        # The loader rejects non-finite values, so the writer must not write them.
        path = tmp_path / "nonfinite.cfcsv"
        with pytest.raises(NumericError, match="non-finite"):
            save_measured_channels(np.array([[value, 1.0]]), path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 3)])
    def test_save_rejects_empty_axis_without_a_file(self, tmp_path, shape):
        path = tmp_path / "empty.cfcsv"
        with pytest.raises(DimensionError, match="non-empty"):
            save_measured_channels(np.zeros(shape, dtype=complex), path)
        assert not path.exists()

    def test_missing_row_names_counts(self, tmp_path):
        path = tmp_path / "short.cfcsv"
        path.write_text("2,1,1\n1.0,0.0\n")
        with pytest.raises(ParseError, match="expected 3 lines .* found 2"):
            load_measured_channels(path)

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "tok.cfcsv"
        path.write_text("1,2,1\n1.0,0.0,2.0\n")
        with pytest.raises(ParseError, match="line 2.*expected 4 values.*found 3"):
            load_measured_channels(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.cfcsv"
        path.write_text("1,1,1\n1.0,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_measured_channels(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = tmp_path / "nonfinite.cfcsv"
        path.write_text(f"2,1,1\n1.0,0.0\n2.0,{token}\n")
        with pytest.raises(ParseError, match=f"line 3: non-finite value '{token}'"):
            load_measured_channels(path)

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "enc.cfcsv"
        path.write_bytes(b"2,1,1\n1.0,0.0\n2.0,\xff0.0\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8"):
            load_measured_channels(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.cfcsv"
        path.write_text("2,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_measured_channels(path)


# Any CFCSV field: a finite float, any float, a token the reader must reject
# or may accept (signs, exponents, underscores, padding), or any text.
_CFCSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_CFCSV_TOKENS = st.one_of(
    _CFCSV_FLOATS,
    st.floats().map(repr),
    st.sampled_from(["", " 1 ", "-0", "1e999", "1_0", "0x10", "--1", "nan", "+inf", "\r", "\xe9"]),
    st.text(max_size=3),
)


@st.composite
def _cfcsv_files(draw):
    """A CFCSV file as bytes: a well-formed header and block of lines with
    any tokens, then perhaps one line dropped, doubled or replaced, another
    ending, or a few bytes spliced in or out."""
    m, k, f = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    # Half the files hold only finite floats, so that many of them load.
    token = _CFCSV_FLOATS if draw(st.booleans()) else _CFCSV_TOKENS
    tokens = draw(st.lists(token, min_size=2 * k * m * f, max_size=2 * k * m * f))
    lines = [f"{m},{k},{f}"] + [",".join(tokens[i : i + 2 * k]) for i in range(0, len(tokens), 2 * k)]
    at = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "none", "drop", "double", "replace", "splice"]))
    if edit == "drop":
        del lines[at]
    elif edit == "double":
        lines.insert(at, lines[at])
    elif edit == "replace":
        lines[at] = draw(st.text(max_size=6))
    data = ("\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\r\n"]))).encode("utf-8")
    if edit == "splice":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(max_size=2)) + data[cut + draw(st.integers(0, 2)) :]
    return data


class TestMeasuredChannelsFuzz:
    # 150 derandomized examples, about 0.35 s; 40 of them load.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=_cfcsv_files())
    def test_loads_finite_set_or_raises_parse_error_with_line(self, data):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "set.cfcsv")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                loaded = load_measured_channels(path)
            except ParseError as exc:
                assert isinstance(exc.line, int) and exc.line >= 1
                return
        m, k, f = (int(tok) for tok in data.decode("utf-8").split("\n")[0].split(","))
        assert loaded.shape == (f, m, k) and loaded.dtype == np.complex128
        assert np.all(np.isfinite(loaded))
