import numpy as np
import pytest

import dense_oracles
from dense_oracles import sample_small_scale
from uccfsim import channel
from uccfsim.channel import (DoubleSlope, LargeScaleModel, TripleSlope,
                             pathloss_double_slope, pathloss_triple_slope,
                             pdp_profile, realize_channels, sample_large_scale,
                             subcarrier_gains, triple_slope_offset_db)
from uccfsim.topology import generate_topology

# frozen independent evaluations (computed by hand / high-precision arithmetic)
DOUBLE_SLOPE_100 = -46.020599913279625          # d=100, a=2, b=2, d_break=100
OFFSET_1900_15_165 = 140.6609842694927          # f=1900 MHz, h_ap=15, h_ue=1.65


class TestDoubleSlope:
    def test_unit_distance_large_break(self):
        assert pathloss_double_slope(1.0, a=2.0, b=2.0, d_break=1e9) == pytest.approx(0.0, abs=1e-8)

    def test_b_zero_single_slope(self):
        assert pathloss_double_slope(10.0, a=2.0, b=0.0, d_break=50.0) == pytest.approx(-20.0)

    def test_frozen_reference_value(self):
        got = pathloss_double_slope(100.0, a=2.0, b=2.0, d_break=100.0)
        assert got == pytest.approx(DOUBLE_SLOPE_100, rel=1e-12)

    def test_monotone_nonincreasing(self):
        d = np.linspace(1.0, 2000.0, 400)
        mu = pathloss_double_slope(d, a=2.0, b=3.0, d_break=80.0)
        assert np.all(np.diff(mu) <= 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="nonpositive distance"):
            pathloss_double_slope(0.0)


class TestTripleSlope:
    def test_continuity_at_breakpoints(self):
        d0, d1 = 10.0, 50.0
        args = dict(d0=d0, d1=d1, f_mhz=1900.0, h_ap=15.0, h_ue=1.65)
        eps = 1e-9
        at_d1 = pathloss_triple_slope(d1, **args)
        above_d1 = pathloss_triple_slope(d1 + eps, **args)
        assert at_d1 == pytest.approx(above_d1, abs=1e-6)
        at_d0 = pathloss_triple_slope(d0, **args)
        above_d0 = pathloss_triple_slope(d0 + eps, **args)
        assert at_d0 == pytest.approx(above_d0, abs=1e-6)

    def test_constant_below_d0(self):
        args = dict(d0=10.0, d1=50.0, f_mhz=1900.0, h_ap=15.0, h_ue=1.65)
        v = pathloss_triple_slope(np.array([1.0, 5.0, 10.0]), **args)
        assert np.ptp(v) == 0.0

    def test_frozen_offset_value(self):
        got = triple_slope_offset_db(1900.0, 15.0, 1.65)
        assert got == pytest.approx(OFFSET_1900_15_165, rel=1e-12)

    def test_distances_are_meters_and_the_formula_km(self):
        # 100 m lies beyond d1 = 50 m: -L - 35 log10(0.1 km)
        got = pathloss_triple_slope(100.0, d0=10.0, d1=50.0, f_mhz=1900.0,
                                    h_ap=15.0, h_ue=1.65)
        assert got == pytest.approx(-OFFSET_1900_15_165 + 35.0, rel=1e-12)

    def test_bad_breakpoints(self):
        with pytest.raises(ValueError):
            pathloss_triple_slope(20.0, d0=50.0, d1=10.0, f_mhz=1900.0,
                                  h_ap=15.0, h_ue=1.65)


class TestShadowing:
    def test_zero_std_is_deterministic(self):
        model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=0.0)
        g = sample_large_scale(100.0, model, rng=1)
        assert g == pytest.approx(10 ** (DOUBLE_SLOPE_100 / 10), rel=1e-12)

    def test_db_statistics_recovered(self):
        std = 6.0
        model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=std)
        rng = np.random.default_rng(5)
        n = 10**5
        g = sample_large_scale(np.full(n, 50.0), model, rng)
        db = 10 * np.log10(g)
        mu = pathloss_double_slope(50.0, 2.0, 2.0, 100.0)
        assert abs(db.mean() - mu) < 3 * std / np.sqrt(n)
        assert abs(db.std(ddof=1) - std) < 0.02 * std


class TestSmallScale:
    def test_unit_mean_power(self):
        rng = np.random.default_rng(9)
        draws = np.array([np.sum(np.abs(sample_small_scale(4, rng)) ** 2)
                          for _ in range(10**5)])
        assert 0.99 <= draws.mean() <= 1.01

    def test_single_tap_exponential_power(self):
        rng = np.random.default_rng(2)
        p = np.abs(np.array([sample_small_scale(1, rng)[0] for _ in range(10**5)])) ** 2
        assert p.mean() == pytest.approx(1.0, abs=0.02)
        # exponential: std equals mean
        assert p.std(ddof=1) == pytest.approx(1.0, abs=0.03)

    def test_flat_profile_when_no_decay(self):
        assert np.allclose(pdp_profile(5, decay=0.0), 0.2)

    def test_decaying_profile_sums_to_one(self):
        p = pdp_profile(6, decay=0.7)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            sample_small_scale(0, rng=0)


class TestSubcarrierGains:
    def test_delta_gives_flat_response(self):
        hf = subcarrier_gains(np.array([1.0 + 0j]), 1.0, 8)
        assert np.allclose(hf, 1.0)

    def test_hand_computed_four_point_dft(self):
        taps = np.array([1.0, 1.0]) / np.sqrt(2)
        hf = subcarrier_gains(taps, 1.0, 4)
        s = 1 / np.sqrt(2)
        expected = np.array([np.sqrt(2), s - 1j * s, 0.0, s + 1j * s])
        assert np.allclose(hf, expected, atol=1e-12)

    def test_parseval_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            L, N = int(rng.integers(1, 6)), int(rng.integers(6, 17))
            taps = sample_small_scale(L, rng)
            g = float(rng.uniform(0.1, 2.0))
            hf = subcarrier_gains(taps, g, N)
            assert np.sum(np.abs(hf) ** 2) == pytest.approx(
                N * g * np.sum(np.abs(taps) ** 2), rel=1e-10)

    def test_cir_longer_than_symbol(self):
        with pytest.raises(ValueError, match="CIR longer than symbol"):
            subcarrier_gains(np.ones(9), 1.0, 8)


class TestRealization:
    def test_seed_gives_bit_identical_draws(self):
        topo = generate_topology(4, 3, rng=0)
        model = LargeScaleModel(TripleSlope(), shadowing_std_db=3.0)
        c1 = realize_channels(topo, model, num_subcarriers=8, num_taps=2, rng=77)
        c2 = realize_channels(topo, model, num_subcarriers=8, num_taps=2, rng=77)
        assert np.array_equal(c1.gains, c2.gains)
        assert np.array_equal(c1.taps, c2.taps)
        assert np.array_equal(c1.freq, c2.freq)

    def test_freq_consistent_with_taps(self):
        topo = generate_topology(3, 2, rng=2)
        model = LargeScaleModel(DoubleSlope(), shadowing_std_db=2.0)
        real = realize_channels(topo, model, num_subcarriers=16, num_taps=4, rng=3)
        m, k = 1, 0
        expect = np.fft.fft(np.sqrt(real.gains[m, k]) * real.taps[m, k], n=16)
        assert np.allclose(real.freq[m, k], expect)

    def test_one_draw_matches_per_link_draws(self, monkeypatch):
        topo = generate_topology(2, 3, rng=6)
        model = LargeScaleModel(TripleSlope(), shadowing_std_db=3.0)
        rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
        want = dense_oracles.realize_channels(topo, model, 8, 3, oracle_rng,
                                              decay=0.4)
        profiles = []
        real_profile = channel.pdp_profile

        def spy(L, decay=0.0):
            profiles.append(L)
            return real_profile(L, decay)

        monkeypatch.setattr(channel, "pdp_profile", spy)
        got = realize_channels(topo, model, 8, 3, rng, decay=0.4)
        assert profiles == [3]
        for field in ("gains", "taps", "freq"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            DoubleSlope(a=4.0)
        with pytest.raises(ValueError):
            DoubleSlope(b=1.0)
        with pytest.raises(ValueError):
            LargeScaleModel(DoubleSlope(), shadowing_std_db=-1.0)
