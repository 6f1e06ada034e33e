import itertools
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmimo import channel, transceiver
from mmimo.channel import make_focusing_scene, scatterer_channel_matrix
from mmimo.errors import (
    DegenerateChannelError,
    DimensionError,
    DomainError,
    RankError,
)
from mmimo.numerics import Seed, draw_complex_gaussian
from mmimo.transceiver import (
    Precoder,
    budget_for_mean_desired_snr,
    evaluate_downlink,
    field_map,
    mrt_precoder,
    zf_precoder,
)


class TestMrtPrecoder:
    def test_single_antenna_conjugate_phase(self):
        h = np.array([[2.0j]])
        precoder = mrt_precoder(h, 1.0)
        assert precoder.w[0, 0] == pytest.approx(-1.0j, rel=1e-12)

    def test_orthogonal_columns_diagonalize(self):
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = 1.0 + 1.0j
        h[2, 1] = 2.0 - 0.5j
        precoder = mrt_precoder(h, 1.0)
        effective = h.T @ precoder.w
        off = effective - np.diag(np.diag(effective))
        assert np.max(np.abs(off)) < 1e-12

    def test_power_budget_split(self):
        h = draw_complex_gaussian(Seed(0), 16, 3)
        precoder = mrt_precoder(h, 4.0)
        per_stream = np.sum(np.abs(precoder.w) ** 2, axis=0)
        assert np.allclose(per_stream, 4.0 / 3.0, rtol=1e-12)

    def test_zero_column_rejected(self):
        h = np.zeros((4, 2), dtype=complex)
        h[:, 0] = 1.0
        with pytest.raises(DegenerateChannelError):
            mrt_precoder(h, 1.0)

    def test_all_zero_channel_has_no_budget(self):
        with pytest.raises(DegenerateChannelError):
            budget_for_mean_desired_snr(np.zeros((4, 2), dtype=complex), 10.0, 1.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(DomainError):
            mrt_precoder(draw_complex_gaussian(Seed(27), 4, 2), 0.0)

    def test_budget_mismatch_rejected(self):
        w = mrt_precoder(draw_complex_gaussian(Seed(28), 4, 2), 1.0).w
        with pytest.raises(DomainError, match="radiates"):
            Precoder(w=w, power_budget=2.0)

    def test_mean_sum_rate_near_ceiling(self):
        # Many antennas, few users: Monte Carlo sum rate approaches the
        # interference-free ceiling K log2(1 + snr) at a 10 dB target.
        seed = Seed(2)
        rates = []
        for t in range(300):
            h = draw_complex_gaussian(seed.child(t), 128, 4)
            budget = budget_for_mean_desired_snr(h, 10.0, 1.0)
            report = evaluate_downlink(h, mrt_precoder(h, budget), 1.0)
            rates.append(report.sum_rate)
        assert np.mean(rates) >= 12.0


class TestZfPrecoder:
    def test_identity_channel(self):
        precoder = zf_precoder(np.eye(3, dtype=complex), 1.0)
        assert np.allclose(precoder.w, np.eye(3) / np.sqrt(3.0), rtol=1e-12)

    def test_zero_interference(self):
        h = draw_complex_gaussian(Seed(3), 8, 3)
        precoder = zf_precoder(h, 2.0)
        effective = h.T @ precoder.w
        off = effective - np.diag(np.diag(effective))
        assert np.max(np.abs(off)) < 1e-9

    def test_wide_channel_rejected(self):
        with pytest.raises(RankError):
            zf_precoder(draw_complex_gaussian(Seed(4), 3, 5), 1.0)

    def test_rank_deficient_rejected(self):
        h = np.ones((6, 2), dtype=complex)
        with pytest.raises(RankError):
            zf_precoder(h, 1.0)

    def test_collinear_power_penalty(self):
        # Nearly collinear users: ZF pays a large received-power price that
        # MRT does not, at equal radiated budget.
        seed = Seed(5)
        h1 = draw_complex_gaussian(seed.child(0), 16, 1)[:, 0]
        ortho = draw_complex_gaussian(seed.child(1), 16, 1)[:, 0]
        ortho -= h1 * np.vdot(h1, ortho) / np.linalg.norm(h1) ** 2
        ortho *= np.linalg.norm(h1) / np.linalg.norm(ortho)
        rho = 0.999
        h2 = rho * h1 + np.sqrt(1 - rho**2) * ortho
        h = np.column_stack([h1, h2])
        sig_mrt = evaluate_downlink(h, mrt_precoder(h, 1.0), 1.0).signal_power
        sig_zf = evaluate_downlink(h, zf_precoder(h, 1.0), 1.0).signal_power
        drop_db = 10 * np.log10(sig_mrt / sig_zf)
        assert np.all(drop_db > 10.0)


class TestEvaluateDownlink:
    def test_zf_interference_free(self):
        h = draw_complex_gaussian(Seed(9), 8, 3)
        report = evaluate_downlink(h, zf_precoder(h, 1.0), 0.1)
        assert np.all(report.interference_power < 1e-15)

    def test_single_user_mrt_sinr(self):
        h = draw_complex_gaussian(Seed(10), 8, 1)
        budget, noise = 2.0, 0.25
        report = evaluate_downlink(h, mrt_precoder(h, budget), noise)
        expected = budget * np.linalg.norm(h) ** 2 / noise
        assert report.sinr[0] == pytest.approx(expected, rel=1e-12)

    def test_negative_noise_rejected(self):
        h = draw_complex_gaussian(Seed(11), 4, 2)
        with pytest.raises(DomainError):
            evaluate_downlink(h, mrt_precoder(h, 1.0), -1.0)

    def test_shape_mismatch_rejected(self):
        h = draw_complex_gaussian(Seed(29), 4, 2)
        with pytest.raises(DimensionError):
            evaluate_downlink(h[:3], mrt_precoder(h, 1.0), 1.0)

    def test_small_array_below_large_and_ceiling(self):
        seed = Seed(12)
        sums = {}
        for m in (4, 128):
            rates = []
            for t in range(400):
                h = draw_complex_gaussian(seed.child(m, t), m, 4)
                budget = budget_for_mean_desired_snr(h, 10.0, 1.0)
                rates.append(evaluate_downlink(h, mrt_precoder(h, budget), 1.0).sum_rate)
            sums[m] = float(np.mean(rates))
        assert sums[4] < sums[128] < 4 * np.log2(11.0)

    def test_scale_covariance(self):
        h = draw_complex_gaussian(Seed(13), 8, 3)
        precoder = mrt_precoder(h, 1.0)
        c = 3.0
        base = evaluate_downlink(h, precoder, 0.5)
        scaled = evaluate_downlink(c * h, precoder, 0.5 * c**2)
        assert np.allclose(scaled.signal_power, c**2 * base.signal_power, rtol=1e-12)
        assert np.allclose(scaled.interference_power, c**2 * base.interference_power, rtol=1e-12)
        assert np.allclose(scaled.sinr, base.sinr, rtol=1e-12)


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_power_conservation(self, master, budget):
        h = draw_complex_gaussian(Seed(master), 6, 3)
        for precoder in (mrt_precoder(h, budget), zf_precoder(h, budget)):
            radiated = np.sum(np.abs(precoder.w) ** 2)
            assert radiated == pytest.approx(budget, rel=1e-9)

    def test_uplink_downlink_symmetry(self):
        # Single user, equal power and noise: MRC uplink SNR == MRT downlink SNR.
        h = draw_complex_gaussian(Seed(14), 32, 1)
        rho, noise = 1.7, 0.3
        downlink = evaluate_downlink(h, mrt_precoder(h, rho), noise)
        uplink_snr = rho * np.linalg.norm(h) ** 2 / noise
        assert downlink.sinr[0] == pytest.approx(uplink_snr, rel=1e-9)


@pytest.mark.slow
class TestFieldMap:
    def test_single_antenna_map_is_flat(self):
        seed = Seed(15)
        scene = make_focusing_scene(seed.child(0), m_antennas=1)
        grid = np.linspace(-150.0, 150.0, 21)
        (result,) = field_map(scene, ("mrt",), grid, grid, 1000, seed.child(1))
        assert abs(result.target_gain_db) < 3.0

    def test_mrt_focusing_gain(self):
        seed = Seed(16)
        scene = make_focusing_scene(seed.child(0))
        grid = np.linspace(-400.0, 400.0, 41)
        (result,) = field_map(scene, ("mrt",), grid, grid, 100, seed.child(1))
        assert result.target_gain_db == pytest.approx(10 * np.log10(64.0), abs=3.0)

    def test_zf_nulls_other_users(self):
        seed = Seed(17)
        scene = make_focusing_scene(seed.child(0))
        grid = np.linspace(-400.0, 400.0, 41)
        (result,) = field_map(scene, ("zf",), grid, grid, 25, seed.child(1))
        others = result.terminal_power_db[1:]
        assert np.all(result.target_gain_db - others >= 20.0)

    def test_worker_count_does_not_change_map(self):
        seed = Seed(18)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=50)
        grid = np.linspace(-50.0, 50.0, 11)
        (serial,) = field_map(scene, ("mrt",), grid, grid, 8, seed.child(1), workers=1)
        (threaded,) = field_map(scene, ("mrt",), grid, grid, 8, seed.child(1), workers=4)
        assert np.array_equal(serial.power_db, threaded.power_db)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_ray_sum_bit_identical_to_single_scheme_maps(self, workers):
        seed = Seed(20)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=50)
        grid = np.linspace(-50.0, 50.0, 11)
        both = field_map(scene, ("mrt", "zf"), grid, grid, 6, seed.child(1), workers=workers)
        assert [fmap.scheme for fmap in both] == ["mrt", "zf"]
        for shared, scheme in zip(both, ("mrt", "zf")):
            (alone,) = field_map(scene, (scheme,), grid, grid, 6, seed.child(1), workers=workers)
            assert np.array_equal(shared.power_db, alone.power_db)
            assert np.array_equal(shared.terminal_power_db, alone.terminal_power_db)

    def test_one_ray_sum_per_trial_for_both_schemes(self, monkeypatch):
        calls = []
        leg_rows = Counter()
        phasor_leg = channel._phasor_leg

        def counting(*args, **kwargs):
            calls.append(1)
            return scatterer_channel_matrix(*args, **kwargs)

        def counting_leg(work, rows, floor):
            # Each leg row is keyed by its squared distances to the scatterers.
            leg_rows.update(row.tobytes() for row in work.squares[:rows])
            return phasor_leg(work, rows, floor)

        monkeypatch.setattr(transceiver, "scatterer_channel_matrix", counting)
        monkeypatch.setattr(channel, "_phasor_leg", counting_leg)
        seed = Seed(21)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=20)
        grid = np.linspace(-50.0, 50.0, 3)
        terminals = set(map(tuple, scene.terminal_positions.tolist()))
        grid_only = [p for p in itertools.product(grid.tolist(), repeat=2) if p not in terminals]
        assert grid_only

        def squares_row(trial, point):
            diff = np.asarray(point) - trial.scatterer_positions
            return (diff[:, 0] ** 2 + diff[:, 1] ** 2).tobytes()

        for schemes in (("mrt",), ("mrt", "zf")):
            calls.clear()
            leg_rows.clear()
            field_map(scene, schemes, grid, grid, 5, seed.child(1), workers=2)
            assert len(calls) == 5
            # Each grid point's leg is built once per trial, whatever the schemes.
            trials = [channel.redraw_scatterers(scene, seed.child(1).child(t)) for t in range(5)]
            assert [sum(leg_rows[squares_row(trial, p)] for trial in trials) for p in grid_only] == [5] * len(grid_only)
            # The antenna leg too: one row per antenna and trial.
            assert [sum(leg_rows[squares_row(trial, p)] for trial in trials) for p in scene.antenna_positions] == [5] * 8

    def test_phasor_accuracy_contract(self, monkeypatch):
        seed = Seed(24)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=50)
        grid = np.linspace(-50.0, 50.0, 11)
        got = field_map(scene, ("mrt", "zf"), grid, grid, 6, seed.child(1))

        built = []

        def complex128_leg(work, rows, floor):
            built.append(rows)
            d = np.sqrt(work.squares[:rows])
            return np.exp(-2j * np.pi * d) / np.maximum(d, floor)

        monkeypatch.setattr(channel, "_phasor_leg", complex128_leg)
        expected = field_map(scene, ("mrt", "zf"), grid, grid, 6, seed.child(1))
        # Every leg, the antennas', the terminals' and each grid point's, came from the reference.
        assert sum(built) == 6 * (8 + len(scene.terminal_positions) + grid.size**2)
        for fmap, ref in zip(got, expected):
            for cells, ref_cells in ((fmap.power_db, ref.power_db), (fmap.terminal_power_db, ref.terminal_power_db)):
                loud = ref_cells > -60.0
                assert np.all(np.abs(cells[loud] - ref_cells[loud]) <= 1e-4)
                assert np.all(cells[~loud] <= -60.0)
        assert np.all(got[1].terminal_power_db[1:] <= -60.0)  # the ZF nulls

    def test_field_block_size_does_not_change_bytes(self, monkeypatch):
        seed = Seed(25)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=50)
        # 41 x 41 points: one grid row a block at 2, 7 and 40 rows, blocks of 3 grid
        # rows (the last of 2) at 128, the whole grid at 1,681. No tail is one point.
        grid = np.linspace(-50.0, 50.0, 41)
        maps = []
        for rows in (2, 7, 40, 128, grid.size**2):
            monkeypatch.setattr(channel, "FIELD_BLOCK_ROWS", rows)
            maps.append(field_map(scene, ("mrt", "zf"), grid, grid, 2, seed.child(1)))
        for other in maps[1:]:
            for fmap, ref in zip(other, maps[0]):
                assert np.array_equal(fmap.power_db, ref.power_db)
                assert np.array_equal(fmap.terminal_power_db, ref.terminal_power_db)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_grid_workspace_per_worker_thread(self, monkeypatch, workers):
        built = []

        class CountingWorkspace(channel._LegWorkspace):
            def __init__(self, rows, s):
                built.append((threading.get_ident(), rows))
                super().__init__(rows, s)

        monkeypatch.setattr(channel, "_LegWorkspace", CountingWorkspace)
        seed = Seed(26)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=30)
        grid = np.linspace(-50.0, 50.0, 11)  # 121 points, one block; the legs have 8 and 5 rows
        field_map(scene, ("mrt", "zf"), grid, grid, 6, seed.child(1), workers=workers)
        # Each trial builds its terminal leg in a workspace of its own.
        assert Counter(rows for _, rows in built if rows == 5) == {5: 6}
        # Each worker thread builds one antenna-leg and one block workspace for the whole call.
        per_thread = Counter((thread, rows) for thread, rows in built if rows != 5)
        threads = {thread for thread, _ in per_thread}
        assert 1 <= len(threads) <= workers
        assert set(per_thread) == {(thread, rows) for thread in threads for rows in (8, grid.size**2)}
        assert set(per_thread.values()) == {1}

    @pytest.mark.parametrize("schemes", [(), ("mrt", "mrt"), ("mrt", "foo")])
    def test_bad_schemes_rejected(self, schemes):
        seed = Seed(22)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=20)
        grid = np.linspace(-50.0, 50.0, 3)
        with pytest.raises(DomainError):
            field_map(scene, schemes, grid, grid, 1, seed.child(1))

    def test_empty_grid_rejected(self):
        seed = Seed(19)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=50)
        grid = np.linspace(-50.0, 50.0, 3)
        for gx, gy in ((grid, []), ([], grid)):
            with pytest.raises(DomainError):
                field_map(scene, ("mrt",), gx, gy, 1, seed.child(1))

    def test_no_trials_rejected(self):
        seed = Seed(23)
        scene = make_focusing_scene(seed.child(0), m_antennas=8, n_scatterers=20)
        grid = np.linspace(-50.0, 50.0, 3)
        with pytest.raises(DomainError):
            field_map(scene, ("mrt",), grid, grid, 0, seed.child(1))
