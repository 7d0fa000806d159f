import numpy as np
import pytest

from uccfsim.modulation import (CONSTELLATIONS, constellation,
                                nearest_point, random_symbol_indices, sum_rate,
                                symbol_error_rate, ue_rates)


class TestConstellations:
    def test_unit_average_power(self):
        for name, pts in CONSTELLATIONS.items():
            assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0)

    def test_lookup_by_name(self):
        assert np.array_equal(constellation("bpsk"), CONSTELLATIONS["bpsk"])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown constellation"):
            constellation("16qam")


class TestDecisions:
    def test_nearest_point_basic(self):
        pts = CONSTELLATIONS["bpsk"]
        got = nearest_point(np.array([0.9, -1.4, 0.2]), pts)
        assert got.tolist() == [0, 1, 0]

    def test_ties_take_first_index(self):
        pts = CONSTELLATIONS["bpsk"]
        assert nearest_point(np.array([0.0 + 0j]), pts)[0] == 0

    def test_symbol_error_rate(self):
        assert symbol_error_rate([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
        assert symbol_error_rate([], []) == 0.0

    def test_random_indices_reproducible(self):
        pts = CONSTELLATIONS["qpsk"]
        a = random_symbol_indices(pts, (3, 4), np.random.default_rng(2))
        b = random_symbol_indices(pts, (3, 4), np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert a.max() < 4 and a.min() >= 0


class TestRates:
    def test_valid_sinrs_give_the_log2_sum_per_ue(self):
        rng = np.random.default_rng(3)
        sinrs = [rng.uniform(0, 50, size=n) for n in (3, 1, 0)]
        rates = ue_rates(sinrs)
        for rate, g in zip(rates, sinrs):
            assert rate == np.sum(np.log2(1.0 + g))
        assert rates[2] == 0.0
        assert sum_rate(sinrs) == pytest.approx(rates.sum())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [-0.5, -4.0, np.inf, np.nan])
    def test_a_negative_or_nonfinite_sinr_gives_nan_quietly(self, bad):
        rates = ue_rates([np.array([1.0, bad]), np.array([3.0])])
        assert np.isnan(rates[0])
        assert rates[1] == 2.0
