import itertools
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccfsim import alloc, downlink
from uccfsim.alloc import (AllocationPlan, allocate_power_waterfill,
                           allocate_subcarriers_greedy, audit_plan,
                           maxmin_power_control, subcarrier_metric,
                           successive_optimize, ul_rates)
from uccfsim.engine import merge_scenario, run_trial
from uccfsim.modulation import ue_rates
from uccfsim.topology import AssociationMap, build_factor_graph
from uccfsim.uplink import (UplinkScene, solo_unit_sinrs,
                            subcarrier_covariances, uplink_sinr_all)

import dense_oracles as oracle


class TestGreedySubcarriers:
    def test_single_ue_takes_everything(self):
        metric = np.array([[3.0, 1.0, 2.0, 0.5]])
        subs = allocate_subcarriers_greedy(metric, demands=4)
        assert np.array_equal(subs[0], np.arange(4))

    def test_disjoint_strong_bands_match_exhaustive_optimum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            # UE 0 strong on {0,1}, UE 1 strong on {2,3}
            metric = np.array([[9.0, 8.0, 0.1, 0.2],
                               [0.2, 0.1, 8.0, 9.0]]) * rng.uniform(0.9, 1.1)
            subs = allocate_subcarriers_greedy(metric, demands=2)
            got = sum(metric[k, subs[k]].sum() for k in range(2))
            best = max(sum(metric[0, list(a)].sum() + metric[1, list(b)].sum()
                           for _ in [0])
                       for a in itertools.combinations(range(4), 2)
                       for b in [tuple(set(range(4)) - set(a))])
            assert got == pytest.approx(best)

    def test_tie_break_lowest_indices(self):
        metric = np.ones((2, 4))
        subs = allocate_subcarriers_greedy(metric, demands=2)
        assert np.array_equal(subs[0], [0, 1])
        assert np.array_equal(subs[1], [2, 3])

    def test_weakest_first_ordering(self):
        metric = np.array([[5.0, 1.0], [4.0, 3.9]])
        subs = allocate_subcarriers_greedy(metric, demands=1)
        # UE 1 has the weaker best subcarrier and picks first
        assert np.array_equal(subs[1], [0])
        assert np.array_equal(subs[0], [1])

    def test_exclusive_infeasible_lists_shortfall(self):
        with pytest.raises(ValueError, match="1 short"):
            allocate_subcarriers_greedy(np.ones((3, 2)), demands=1)

    def test_shared_mode_reuses_across_components(self):
        assoc = AssociationMap.from_ap_sets([[0], [1]], num_aps=2)
        metric = np.ones((2, 2))
        subs = allocate_subcarriers_greedy(metric, demands=2,
                                           ue_groups=component_groups(assoc))
        assert np.array_equal(subs[0], [0, 1])
        assert np.array_equal(subs[1], [0, 1])


class TestWaterfilling:
    def test_equal_gains_split_evenly(self):
        p = allocate_power_waterfill(np.full(4, 2.0), budget=1.0)
        assert np.allclose(p, 0.25)

    def test_tiny_budget_goes_to_strong_channel(self):
        p = allocate_power_waterfill(np.array([1e6, 1e-6]), budget=1e-3)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(1e-3)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.uniform(0.2, 8.0, size=3)
            budget = 1.0
            p = allocate_power_waterfill(s, budget)
            rate = np.sum(np.log2(1 + p * s))
            grid = np.linspace(0, budget, 201)
            best = 0.0
            for p0 in grid:
                for p1 in np.linspace(0, budget - p0, 201):
                    p2 = budget - p0 - p1
                    best = max(best, np.log2(1 + p0 * s[0])
                               + np.log2(1 + p1 * s[1])
                               + np.log2(1 + p2 * s[2]))
            assert rate >= best - 1e-3

    def test_kkt_conditions(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = rng.uniform(0.05, 10.0, size=6)
            p = allocate_power_waterfill(s, budget=2.0)
            assert p.sum() == pytest.approx(2.0, rel=1e-9)
            active = p > 1e-12
            levels = p[active] + 1.0 / s[active]
            assert np.ptp(levels) < 1e-6
            if np.any(~active):
                water = levels.mean()
                assert np.all(1.0 / s[~active] >= water - 1e-9)

    def test_a_level_rounded_past_an_equal_one_over_s_is_not_taken(self):
        # the budget rounds away against 1 / s for four equal subcarriers
        # (two more overflow), but the level of three of them rounds above
        # it: equal subcarriers get equal power
        a = 10.0 ** -292.75
        p = allocate_power_waterfill(np.array([a, a, 5e-324, 5e-324, a, a]),
                                     1.0)
        assert np.array_equal(p, [0.25, 0.25, 0.0, 0.0, 0.25, 0.25])

    @settings(max_examples=300, deadline=None)
    @given(gains=st.lists(st.one_of(
               st.floats(1e-6, 1e20), st.sampled_from([0.0, -1.0, 1.0, 2.0])),
               min_size=1, max_size=12),
           budget=st.floats(1e-3, 4.0))
    def test_bit_identical_to_the_gathering_oracle(self, gains, budget):
        # zero, negative and tied gains included
        s = np.array(gains)
        assert np.array_equal(allocate_power_waterfill(s, budget),
                              oracle.allocate_power_waterfill(s, budget))

    @pytest.mark.parametrize("gains,want", [
        ([1.708e-21] * 4, [0.25] * 4),
        ([1e-21, 1e-300], [1.0, 0.0])])
    def test_a_budget_that_rounds_away_against_one_over_s_is_spent(
            self, gains, want):
        # the water level 1 / s + budget / n rounds to 1 / s itself
        p = allocate_power_waterfill(np.array(gains), 1.0)
        assert np.array_equal(p, want)

    def test_a_sum_of_one_over_s_past_the_largest_double_is_skipped(self):
        # the three weak subcarriers' 1 / s_n sum past the largest double,
        # without a warning; the level that spends the budget leaves them out
        p = allocate_power_waterfill(np.array([1.0, 1e-308, 1e-308, 1e-308]),
                                     1.0)
        assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("gains,want", [
        ([1e-320, 1e-320], [0.5, 0.5]),
        ([5e-309, 1.0], [0.0, 1.0]),
        ([1e-310], [1.0]),
        ([1e-320, 2e-320], [0.0, 1.0])])
    def test_a_one_over_s_past_the_largest_double_is_never_reached(
            self, gains, want):
        # 1 / s_n overflows for subnormal s_n: such a subcarrier stays dry
        # unless every one overflows, and no warning escapes
        p = allocate_power_waterfill(np.array(gains), 1.0)
        assert np.array_equal(p, want)

    @settings(max_examples=300, deadline=None)
    @given(gains=st.lists(st.one_of(
               st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
               # subnormals, down to the smallest positive double
               st.floats(5e-324, 2.3e-308)), min_size=1, max_size=12),
           budget=st.floats(1e-3, 4.0))
    def test_every_positive_input_spends_the_budget(self, gains, budget):
        s = np.array(gains)
        p = allocate_power_waterfill(s, budget)
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert p.sum() == pytest.approx(budget, rel=1e-12)
        # a stronger subcarrier never gets less power
        ranked = p[np.argsort(-s, kind="stable")]
        assert np.all(np.diff(ranked) <= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            allocate_power_waterfill(np.array([1.0]), budget=0.0)
        with pytest.raises(ValueError):
            allocate_power_waterfill(np.array([]), budget=1.0)


class TestMaxMin:
    @staticmethod
    def scalar_evaluator(gains, noise):
        g = np.asarray(gains, dtype=float)

        def evaluator(p):
            p = np.asarray(p, dtype=float)
            rx = g * p
            total = rx.sum()
            return rx / (total - rx + noise)
        return evaluator

    def test_symmetric_ues_get_equal_everything(self):
        ev = self.scalar_evaluator([1.0, 1.0], noise=0.5)
        res = maxmin_power_control(ev, budgets=np.ones(2), tol=1e-4)
        assert res.powers[0] == pytest.approx(res.powers[1], rel=1e-3)
        assert res.achieved[0] == pytest.approx(res.achieved[1], rel=1e-3)

    def test_single_ue_gets_full_budget(self):
        ev = self.scalar_evaluator([2.0], noise=0.4)
        res = maxmin_power_control(ev, budgets=np.ones(1), tol=1e-5)
        assert res.powers[0] == pytest.approx(1.0, rel=1e-6)
        assert res.target == pytest.approx(2.0 / 0.4, rel=1e-3)
        assert res.noise_limited

    def test_matches_grid_search_on_three_ues(self):
        rng = np.random.default_rng(3)
        gains = rng.uniform(0.5, 2.0, size=3)
        noise = 0.7
        ev = self.scalar_evaluator(gains, noise)
        res = maxmin_power_control(ev, budgets=np.ones(3), tol=1e-3)
        # vectorized box grid at resolution 1e-2
        axis = np.linspace(0.0, 1.0, 101)
        P = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        rx = P * gains
        total = rx.sum(axis=-1, keepdims=True)
        sinr = rx / (total - rx + noise)
        best = float(sinr.min(axis=-1).max())
        assert res.target >= best - 1e-3
        assert res.target <= best + 0.05 * best + 1e-3

    @pytest.mark.parametrize("bad", [-1.2e16, 0.0, np.nan])
    def test_a_bound_that_is_not_positive_returns_the_full_budgets(self, bad):
        # a UE's SINR alone at full power is the bound on every target; a
        # fixed point towards a negative one would ask for negative powers
        ev = self.scalar_evaluator([1.0, 2.0], noise=0.5)

        def failing(p):
            g = ev(p)
            g[1] = bad
            return g

        budgets = np.array([1.0, 0.5])
        res = maxmin_power_control(failing, budgets)
        assert np.array_equal(res.powers, budgets)
        assert np.array_equal(res.achieved, failing(budgets), equal_nan=True)
        assert not res.noise_limited

    def test_equalizes_sinrs_when_binding(self):
        ev = self.scalar_evaluator([1.0, 3.0, 0.7], noise=1.0)
        res = maxmin_power_control(ev, budgets=np.ones(3), tol=1e-4)
        if not res.noise_limited:
            assert np.ptp(res.achieved) < 0.05 * res.target

    @pytest.mark.parametrize("gains,noise,tol", [
        ([1.0, 1.0], 0.5, 1e-4), ([2.0], 0.4, 1e-5),
        (np.random.default_rng(3).uniform(0.5, 2.0, size=3), 0.7, 1e-3),
        ([1.0, 3.0, 0.7], 1.0, 1e-4), ([1.0, 3.0, 0.7], 0.01, 1e-3)])
    def test_equals_the_oracle_and_never_repeats_an_evaluation(self, gains,
                                                                noise, tol):
        ev = self.scalar_evaluator(gains, noise)

        def recording(calls):
            def evaluator(p):
                calls.append(np.array(p))
                return ev(p)
            return evaluator

        new_calls, old_calls = [], []
        new = maxmin_power_control(recording(new_calls), np.ones(len(gains)),
                                   tol=tol)
        old = oracle.maxmin_power_control(recording(old_calls),
                                          np.ones(len(gains)), tol=tol)
        assert np.array_equal(new.powers, old.powers)
        assert new.target == old.target
        assert np.array_equal(new.achieved, old.achieved)
        assert new.noise_limited == old.noise_limited
        assert not any(np.array_equal(a, b)
                       for a, b in zip(new_calls, new_calls[1:]))
        assert len(new_calls) < len(old_calls)


    @pytest.mark.parametrize("gains,noise,tol", [
        ([1.0, 1.0], 0.5, 1e-4), ([2.0], 0.4, 1e-5),
        (np.random.default_rng(3).uniform(0.5, 2.0, size=3), 0.7, 1e-3),
        ([1.0, 3.0, 0.7], 1.0, 1e-4), ([1.0, 3.0, 0.7, 0.2], 0.01, 1e-3)])
    def test_separable_bound_is_one_evaluation_bit_for_bit(self, gains,
                                                           noise, tol):
        # every UE's SINR depends on its own power only, so after the one
        # evaluation of the bound each UE scales its budget to the weakest
        # bound and a second evaluation, unless every UE keeps its budget,
        # confirms it
        g = np.asarray(gains, dtype=float)
        K = g.size

        def run(control, **kwargs):
            calls = []

            def evaluator(p):
                calls.append(np.array(p))
                return g * p / noise
            return control(evaluator, np.ones(K), tol=tol, **kwargs), calls

        new, new_calls = run(maxmin_power_control, separable=True)
        solo, solo_calls = run(maxmin_power_control)
        old, _ = run(oracle.maxmin_power_control)
        alone = g * np.ones(K) / noise
        hi = alone.min()
        closed = np.ones(K) * np.minimum(hi / alone, 1)
        assert same_arrays(new_calls, [np.ones(K)] + [closed] * (
            not np.array_equal(closed, np.ones(K))))
        assert same_arrays(solo_calls[:K], list(np.eye(K)))
        for res in (solo, old):
            assert new.target == res.target
            assert new.noise_limited == res.noise_limited
            np.testing.assert_allclose(new.powers, res.powers, rtol=1e-12)
        assert new.target == hi and new.noise_limited
        assert np.array_equal(new.powers, closed)
        assert np.array_equal(new.achieved, g * closed / noise)

    def test_a_separable_evaluator_off_the_closed_form_falls_through(self):
        # g = a p^2 is separable and increasing in a UE's own power, but the
        # budgets scaled by bound / alone miss the bound, so the fixed point
        # and the bisection run as without ``separable``
        a = np.array([1.0, 3.0, 0.7])
        K = a.size

        def run(control, **kwargs):
            calls = []

            def evaluator(p):
                calls.append(np.array(p))
                return a * p ** 2
            return control(evaluator, np.ones(K), **kwargs), calls

        new, new_calls = run(maxmin_power_control, separable=True)
        solo, solo_calls = run(maxmin_power_control)
        old, _ = run(oracle.maxmin_power_control)
        hi = a.min()
        assert same_arrays(new_calls[:2], [np.ones(K), hi / a])
        assert same_arrays(new_calls[2:], solo_calls[K:])
        for res in (solo, old):
            assert np.array_equal(new.powers, res.powers)
            assert new.target == res.target
            assert np.array_equal(new.achieved, res.achieved)
            assert new.noise_limited == res.noise_limited

    @pytest.mark.parametrize("live", [[True, False, True], [False] * 3])
    def test_infinite_separable_bounds_warn_nothing(self, live):
        # a UE without symbols has bound inf: it keeps no power unless
        # every bound is inf, when every UE keeps its budget
        live = np.array(live)
        g = np.array([1.0, 2.0, 4.0])

        def evaluator(p):
            return np.where(live, g * p, np.inf)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = maxmin_power_control(evaluator, np.ones(3), separable=True)
        assert res.noise_limited
        if live.any():
            assert res.target == 1.0
            assert np.array_equal(res.powers, [1.0, 0.0, 0.25])
        else:
            assert res.target == np.inf
            assert np.array_equal(res.powers, np.ones(3))


class TestFeasibility:
    def test_disconnected_ue_rate_zero(self):
        rng = np.random.default_rng(4)
        freq = (rng.standard_normal((2, 2, 2))
                + 1j * rng.standard_normal((2, 2, 2)))
        assoc = AssociationMap.from_ap_sets([[0, 1], []], num_aps=2)
        plan = successive_optimize(freq, assoc, demands=1, gamma_u=10.0)
        assert len(plan.subcarriers[1]) == 0
        rates = ue_rates(plan.ul_sinrs)
        assert rates[0] > 0 and rates[1] == 0
        assert plan.audit["pass"]


class TestPipeline:
    def test_single_ue_gets_all_resources(self):
        rng = np.random.default_rng(5)
        freq = (rng.standard_normal((2, 1, 4))
                + 1j * rng.standard_normal((2, 1, 4)))
        assoc = AssociationMap.from_ap_sets([[0, 1]], num_aps=2)
        plan = successive_optimize(freq, assoc, demands=4, gamma_u=10.0)
        assert np.array_equal(plan.subcarriers[0], np.arange(4))
        assert plan.ul_power[0].sum() == pytest.approx(1.0)
        assert plan.audit["pass"]

    def test_within_twenty_percent_of_joint_optimum(self):
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(100):
            freq = (rng.standard_normal((2, 2, 2))
                    + 1j * rng.standard_normal((2, 2, 2))) / np.sqrt(2)
            gamma_u = 10.0
            best = 0.0
            # exhaustive: subcarrier picks x power grid, full association
            # as in the pipeline
            for n0 in range(2):
                for n1 in range(2):
                    if n0 == n1:
                        continue
                    subs = [np.array([n0]), np.array([n1])]
                    for e0 in np.linspace(0.25, 1.0, 4):
                        for e1 in np.linspace(0.25, 1.0, 4):
                            rates, _ = ul_rates(
                                freq, gamma_u, subs,
                                [np.array([e0]), np.array([e1])])
                            best = max(best, float(rates.sum()))
            assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], 2)
            plan = successive_optimize(freq, assoc, demands=1,
                                       gamma_u=gamma_u)
            ratios.append(plan.objective / best)
        assert np.mean(ratios) >= 0.8
        assert np.min(ratios) > 0.45

    def test_maxmin_pipeline_equalizes(self):
        rng = np.random.default_rng(8)
        freq = (rng.standard_normal((2, 2, 2))
                + 1j * rng.standard_normal((2, 2, 2)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        plan = successive_optimize(freq, assoc, demands=1, gamma_u=10.0,
                                   objective="max_min")
        assert plan.audit["pass"]
        assert plan.objective > 0

    def test_dl_pipeline_constraints_hold(self):
        rng = np.random.default_rng(9)
        freq = (rng.standard_normal((3, 2, 4))
                + 1j * rng.standard_normal((3, 2, 4)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2]], num_aps=3)
        plan = successive_optimize(freq, assoc, demands=2, direction="dl",
                                   noise_var=0.1, p_max=1.0)
        assert plan.audit["pass"]
        assert plan.dl_power.sum() <= 1.0 + 1e-9
        assert plan.a0 > 0
        # every AP's expected power within cap
        from uccfsim.downlink import (expected_ap_element_powers,
                                      tmmse_central_ofdm)
        P = tmmse_central_ofdm(freq, plan.subcarriers, 0.1, plan.dl_power,
                               assoc=assoc)
        elem = expected_ap_element_powers(P)
        assert np.all(plan.a0**2 * elem.sum(axis=1) <= 1.0 + 1e-9)

    @pytest.mark.parametrize("objective,element_max", [
        ("sum_rate", None), ("sum_rate", 0.2), ("max_min", None)])
    def test_dl_plan_keeps_the_sinrs_of_its_final_precoders(self, objective,
                                                            element_max):
        from uccfsim.downlink import dl_sinr_ofdm, tmmse_central_ofdm
        rng = np.random.default_rng(12)
        freq = (rng.standard_normal((3, 3, 6))
                + 1j * rng.standard_normal((3, 3, 6)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2], [0, 2]],
                                            num_aps=3)
        plan = successive_optimize(freq, assoc, demands=2, direction="dl",
                                   noise_var=0.1, objective=objective,
                                   p_max_element=element_max)
        P = tmmse_central_ofdm(freq, plan.subcarriers, 0.1, plan.dl_power,
                               assoc=assoc)
        fresh = dl_sinr_ofdm(freq, P, plan.subcarriers, plan.a0, 0.1)
        assert len(plan.dl_sinrs) == len(fresh) == 3
        for kept, again in zip(plan.dl_sinrs, fresh):
            np.testing.assert_array_equal(kept, again)

    @pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
    def test_dl_plan_for_disconnected_ues_sends_nothing_and_passes(
            self, objective):
        rng = np.random.default_rng(13)
        freq = (rng.standard_normal((2, 2, 4))
                + 1j * rng.standard_normal((2, 2, 4)))
        assoc = AssociationMap.from_ap_sets([[], []], num_aps=2)
        plan = successive_optimize(freq, assoc, demands=2, direction="dl",
                                   noise_var=0.1, objective=objective)
        assert plan.a0 is None
        assert "a0_positive" not in plan.audit
        assert plan.audit["pass"]

    def test_dl_maxmin_runs_and_audits(self):
        rng = np.random.default_rng(10)
        freq = (rng.standard_normal((2, 2, 2))
                + 1j * rng.standard_normal((2, 2, 2)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], num_aps=2)
        plan = successive_optimize(freq, assoc, demands=1, direction="dl",
                                   noise_var=0.2, objective="max_min")
        assert plan.audit["pass"]
        assert plan.objective > 0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        freq = (rng.standard_normal((2, 2, 4))
                + 1j * rng.standard_normal((2, 2, 4)))
        assoc = AssociationMap.from_ap_sets([[0], [1]], num_aps=2)
        p1 = successive_optimize(freq, assoc, demands=2, gamma_u=5.0)
        p2 = successive_optimize(freq, assoc, demands=2, gamma_u=5.0)
        assert all(np.array_equal(a, b)
                   for a, b in zip(p1.subcarriers, p2.subcarriers))
        assert all(np.array_equal(a, b)
                   for a, b in zip(p1.ul_power, p2.ul_power))
        assert p1.objective == p2.objective


class TestPlanScenes:
    """Power-independent work is done once per plan."""

    def test_maxmin_builds_a_scene_only_for_cochannel_plans(
            self, monkeypatch):
        """A separable max-min plan builds no scene and calls no kernel;
        any other builds one scene and never evaluates the same powers
        twice in a row."""
        built, evaluated = [], []
        kernel, build = alloc.uplink_sinr_all, alloc.equal_power_scene

        def building(*args):
            built.append(build(*args))
            return built[-1]

        def recording(scene, eta):
            evaluated.append(np.array(eta))
            return kernel(scene, eta)

        monkeypatch.setattr(alloc, "equal_power_scene", building)
        monkeypatch.setattr(alloc, "uplink_sinr_all", recording)
        rng = np.random.default_rng(16)
        kinds = set()
        for _ in range(20):
            freq, assoc, kwargs = random_allocation_scene(rng)
            built.clear()
            evaluated.clear()
            plan = successive_optimize(freq, assoc, objective="max_min",
                                       **kwargs)
            kinds.add(separable(plan))
            if separable(plan):
                assert not built and not evaluated
                continue
            assert len(built) == 1
            assert evaluated
            assert not any(np.array_equal(a, b)
                           for a, b in zip(evaluated, evaluated[1:]))
            # the plan keeps the powers of the last evaluation
            assert np.array_equal(np.concatenate(plan.ul_power),
                                  evaluated[-1])
        assert kinds == {True, False}

    @pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
    def test_dl_plan_solves_the_precoder_bracket_once(self, objective,
                                                      monkeypatch):
        solves = []
        real = downlink.tmmse_bracket_solve

        def recording(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(downlink, "tmmse_bracket_solve", recording)
        rng = np.random.default_rng(17)
        freq = (rng.standard_normal((3, 3, 6))
                + 1j * rng.standard_normal((3, 3, 6)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2], [0, 2]],
                                            num_aps=3)
        successive_optimize(freq, assoc, demands=2, direction="dl",
                            noise_var=0.1, objective=objective,
                            refine_iterations=3)
        assert len(solves) == 1


def component_groups(assoc):
    """The UE sets of shared mode: each factor-graph component's UEs."""
    return [sorted(ues) for _, ues in build_factor_graph(assoc).components]


def random_allocation_scene(rng):
    """A small random scene and the keyword arguments of one optimizer call:
    some UEs disconnected, exclusive or shared mode, 1 to 3 refinement
    passes, with or without an element power cap.  Most shared scenes
    split the APs and UEs into two or more disjoint blocks, each UE served
    inside its own block; every block's UEs demand more than half the band
    together, so the blocks' components reuse subcarriers and carry
    co-channel symbols."""
    M, K, N = rng.integers(1, 5), rng.integers(1, 4), rng.integers(2, 7)
    mode = "shared" if rng.random() < 0.5 else "exclusive"
    blocks = mode == "shared" and rng.random() < 0.7
    if blocks:
        M, K = max(M, 2), max(K, 2)
    freq = (rng.standard_normal((M, K, N))
            + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    if blocks:
        B = rng.integers(2, min(M, K) + 1)
        ap_block = rng.permutation(np.arange(M) % B)
        ue_block = rng.permutation(np.arange(K) % B)
        ap_sets = []
        for b in ue_block:
            aps = np.flatnonzero(ap_block == b)
            ap_sets.append(sorted(rng.choice(aps, size=rng.integers(
                1, len(aps) + 1), replace=False).tolist()))
        demands = N // np.bincount(ue_block)[ue_block]
    else:
        ap_sets = [sorted(rng.choice(M, size=rng.integers(
            0 if rng.random() < 0.15 else 1, M + 1), replace=False).tolist())
            for _ in range(K)]
        demands = rng.integers(0, N // K + 1, size=K)
    assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=M)
    kwargs = dict(
        demands=demands,
        ue_groups=component_groups(assoc) if mode == "shared" else None,
        refine_iterations=int(rng.integers(1, 4)),
        p_max_element=None if rng.random() < 0.5 else rng.uniform(0.05, 1.0),
        gamma_u=10 ** rng.uniform(0, 2), noise_var=10 ** rng.uniform(-2, 0))
    return freq, assoc, kwargs


def test_random_scenes_reach_the_coupled_maxmin_path():
    """At least a quarter of the random scenes give an uplink max-min plan
    whose UEs couple through co-channel symbols."""
    real, separable = alloc.maxmin_power_control, []

    def recording(evaluator, budgets, **kwargs):
        separable.append(kwargs["separable"])
        return real(evaluator, budgets, **kwargs)

    with mock.patch.object(alloc, "maxmin_power_control", recording):
        for seed in range(400):
            freq, assoc, kwargs = random_allocation_scene(
                np.random.default_rng(seed))
            successive_optimize(freq, assoc, objective="max_min",
                                direction="ul", **kwargs)
    assert separable.count(False) >= 100


def test_maxmin_bisection_ends_between_adjacent_doubles():
    """At noise 1e-18 trial 12 of this scenario has a max-min bound of
    2.9e13, where adjacent doubles lie 0.0039 apart, farther than the
    bisection's tolerance: the bisection must stop once its midpoint
    rounds to an end instead of spinning.  A cap on the evaluations turns
    a regression into a failure rather than a hang."""
    real, calls = alloc.maxmin_power_control, []

    def capped(evaluator, budgets, **kwargs):
        def counted(p):
            calls.append(None)
            if len(calls) > 10_000:
                raise RuntimeError("max-min bisection does not end")
            return evaluator(p)
        return real(counted, budgets, **kwargs)

    scenario = merge_scenario({"seed": 18,
                               "topology": {"noise_variance": 1e-18},
                               "allocation": {"objective": "max_min"}})
    with mock.patch.object(alloc, "maxmin_power_control", capped):
        records = run_trial(scenario, 12)
    assert 0 < len(calls) <= 10_000
    assert all(np.isfinite(r["rate"]) for r in records)


def same_arrays(a, b):
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def separable(plan):
    """Whether the plan's symbols, at least one, sit on distinct
    subcarriers, so that each is alone on its subcarrier."""
    ns = np.concatenate(plan.subcarriers)
    return 0 < ns.size == len(set(ns.tolist()))


@pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
def test_plan_ul_sinrs_are_the_closed_form_at_its_powers(objective):
    """``plan.ul_sinrs`` are the SINRs of the plan's powers, so a consumer
    need not evaluate them again.  On a separable max-min plan they are
    each power times ``solo_unit_sinrs``, bit for bit, and
    ``uplink_sinr_all``, which cancels, agrees within 1e-13 relative (at
    most 1.4e-14 on these 150 scenes, whose SINRs stay below 530);
    on every other plan they are ``uplink_sinr_all``'s, bit for bit."""
    rng = np.random.default_rng(2025)
    empty = solo = 0
    for _ in range(150):
        freq, assoc, kwargs = random_allocation_scene(rng)
        plan = successive_optimize(freq, assoc, objective=objective,
                                   direction="ul", **kwargs)
        scene = UplinkScene(freq=freq, subcarriers=plan.subcarriers,
                            power=plan.ul_power, gamma_u=kwargs["gamma_u"])
        eta = np.concatenate(scene.power)
        kernel = uplink_sinr_all(scene, eta)
        if objective == "max_min" and separable(plan):
            closed = eta * solo_unit_sinrs(scene.freq, scene.ue, scene.sub,
                                           scene.gamma_u)
            assert np.array_equal(np.concatenate(plan.ul_sinrs), closed)
            np.testing.assert_allclose(kernel, closed, rtol=1e-13, atol=0)
            solo += 1
        else:
            assert same_arrays(plan.ul_sinrs, scene.split(kernel))
        empty += sum(not len(s) for s in plan.subcarriers)
    assert empty          # UEs without subcarriers were covered
    assert solo or objective == "sum_rate"


def test_ul_rates_rejects_powers_that_do_not_match_the_assignment():
    freq = np.ones((1, 2, 2), dtype=complex)
    subs = [np.array([0]), np.array([1])]
    rates, _ = ul_rates(freq, 10.0, subs, [np.array([1.0]), np.array([1.0])])
    assert np.all(rates > 0)
    # as many powers as symbols, but not per UE
    with pytest.raises(ValueError, match="does not match subcarriers"):
        ul_rates(freq, 10.0, subs, [np.array([0.5, 0.5]), np.array([])])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       objective=st.sampled_from(["sum_rate", "max_min"]),
       refine=st.integers(0, 3))
def test_uplink_plan_on_one_scene_is_the_oracle_bit_for_bit(seed,
                                                            objective,
                                                            refine):
    """An uplink plan builds one scene and calls ``uplink_sinr_all`` once
    per distinct evaluation of the oracle, which evaluates every candidate
    on a fresh scene, and its powers, SINRs, objective and audit are the
    oracle's, bit for bit.  A max-min plan whose symbols sit on distinct
    subcarriers instead builds no scene and calls no kernel: its SINRs are
    its powers times the channel energies, the oracle's solo evaluations
    of each UE are its energies at the full budget within 1e-12, and its
    powers, SINRs and objective are the oracle's within 1e-12.  The plan's
    audit is the oracle's plus ``ul_covariance_resolved``, which holds at
    these SNRs.  The scenes cover exclusive and shared mode, zero
    demands and disconnected UEs."""
    freq, assoc, kwargs = random_allocation_scene(np.random.default_rng(seed))
    kwargs["refine_iterations"] = refine
    evaluations = []
    oracle_rates = oracle.ul_rates

    def record(*args):
        rates, sinrs = oracle_rates(*args)
        evaluations.append((np.concatenate(args[3]), np.concatenate(sinrs)))
        return rates, sinrs

    with mock.patch.object(oracle, "ul_rates", record):
        old = oracle.successive_optimize(freq, assoc, objective=objective,
                                         min_refine=0, **kwargs)
    built, calls = [], []
    kernel, build = alloc.uplink_sinr_all, alloc.equal_power_scene

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def recording(scene, eta):
        calls.append((np.array(eta), kernel(scene, eta)))
        return calls[-1][1]

    with mock.patch.object(alloc, "equal_power_scene", building), \
            mock.patch.object(alloc, "uplink_sinr_all", recording):
        new = successive_optimize(freq, assoc, objective=objective, **kwargs)
    K = len(old.subcarriers)
    ue = np.repeat(np.arange(K), [len(s) for s in old.subcarriers])
    # the oracle's last evaluation is at the powers it emits
    sinrs = evaluations[-1][1]
    assert same_arrays(new.subcarriers, old.subcarriers)
    audit = dict(new.audit)
    assert audit.pop("ul_covariance_resolved") is True
    assert audit == old.audit
    if objective == "max_min" and separable(new):
        assert not built and not calls
        x = np.concatenate(new.ul_power)
        energy = solo_unit_sinrs(freq, ue, np.concatenate(new.subcarriers),
                                 kwargs["gamma_u"])
        assert np.array_equal(np.concatenate(new.ul_sinrs), x * energy)
        # the oracle's K solo evaluations of the max-min bound: each UE's
        # full budget spread over its symbols, times their energies
        full = np.concatenate(
            [np.full(len(s), 1.0 / max(len(s), 1)) for s in old.subcarriers])
        for k, (_, alone) in enumerate(evaluations[:K]):
            np.testing.assert_allclose(alone[ue == k],
                                       (full * energy)[ue == k], rtol=1e-12)
        np.testing.assert_allclose(x, np.concatenate(old.ul_power),
                                   rtol=1e-12)
        np.testing.assert_allclose(np.concatenate(new.ul_sinrs), sinrs,
                                   rtol=1e-12)
        assert new.objective == pytest.approx(sinrs.min(), rel=1e-12)
        return
    assert len(built) == 1
    # the oracle's evaluations with repeats in a row dropped
    distinct = [e for i, e in enumerate(evaluations)
                if not i or not np.array_equal(e[0], evaluations[i - 1][0])]
    assert len(calls) == len(distinct)
    assert all(map(np.array_equal, (eta for eta, _ in calls),
                   (eta for eta, _ in distinct)))
    assert same_arrays(new.ul_power, old.ul_power)
    assert np.array_equal(np.concatenate(new.ul_sinrs), sinrs)
    if objective == "sum_rate":
        assert new.objective == old.objective
    else:
        assert new.objective == (sinrs.min() if sinrs.size else 0.0)


@pytest.mark.parametrize("direction,mode", [("ul", "shared"),
                                            ("dl", "shared")])
def test_coupled_maxmin_plans_keep_the_oracle_call_sequence(direction, mode):
    """Where UEs couple through co-channel symbols, in either direction,
    max-min evaluates each UE alone for its bound: the power control sees
    the oracle's calls, less the repeats the library reuses, and returns
    the oracle's result bit for bit."""
    rng = np.random.default_rng(31)
    freq = (rng.standard_normal((3, 3, 6))
            + 1j * rng.standard_normal((3, 3, 6))) / np.sqrt(2)
    freq[:, :, :2] *= 10        # every UE's best subcarriers are 0 and 1
    assoc = AssociationMap.from_ap_sets([[0], [1], [1, 2]], num_aps=3)
    real, runs = alloc.maxmin_power_control, []

    def compared(evaluator, budgets, **kwargs):
        def recording(calls):
            def record(p):
                calls.append(np.array(p))
                return evaluator(p)
            return record

        old_calls, new_calls = [], []
        old = oracle.maxmin_power_control(recording(old_calls), budgets)
        new = real(recording(new_calls), budgets, **kwargs)
        runs.append((kwargs, old, new, old_calls, new_calls))
        return new

    with mock.patch.object(alloc, "maxmin_power_control", compared):
        plan = successive_optimize(
            freq, assoc, demands=2, objective="max_min", direction=direction,
            gamma_u=10.0, noise_var=0.1,
            ue_groups=component_groups(assoc) if mode == "shared" else None)
    ns = np.concatenate(plan.subcarriers)
    assert (len(set(ns.tolist())) < ns.size) == (mode == "shared")
    (kwargs, old, new, old_calls, new_calls), = runs
    assert not kwargs["separable"]
    assert same_arrays(new_calls[:3], list(np.eye(3)))
    # the oracle evaluates the powers a bisection returns once more
    if not old.noise_limited and old.powers.any():
        old_calls = old_calls[:-1]
    distinct = [p for i, p in enumerate(old_calls)
                if not i or not np.array_equal(p, old_calls[i - 1])]
    assert same_arrays(new_calls, distinct)
    assert np.array_equal(new.powers, old.powers)
    assert new.target == old.target
    assert np.array_equal(new.achieved, old.achieved)
    assert new.noise_limited == old.noise_limited


def test_separable_dl_maxmin_plans_take_the_closed_form():
    """A downlink max-min plan whose symbols sit on distinct subcarriers
    couples its UEs only through A0, which scales every SINR by one
    factor: the closed form makes at most 2 ``dl_sinr_ofdm`` calls, passes
    its audit exactly when the bisection's plan does and reaches at least
    the bisection's objective.  The bisection is the library's own, on the
    same evaluator, with ``separable`` forced off."""
    real, calls = alloc.maxmin_power_control, []
    sinr = downlink.dl_sinr_ofdm

    def bisection(evaluator, budgets, **kwargs):
        return real(evaluator, budgets, **{**kwargs, "separable": False})

    def counting(*args):
        calls.append(None)
        return sinr(*args)

    rng = np.random.default_rng(34)
    seen = set()
    for _ in range(20):
        freq, assoc, kwargs = random_allocation_scene(rng)
        for precoder in ("tmmse_ofdm", "dist_mf", "dist_tzf", "dist_regmmse"):
            calls.clear()
            with mock.patch.object(downlink, "dl_sinr_ofdm", counting):
                plan = successive_optimize(freq, assoc, objective="max_min",
                                           direction="dl", precoder=precoder,
                                           **kwargs)
            if not separable(plan):
                continue
            seen.add(kwargs["ue_groups"] is None)
            assert len(calls) <= 2
            with mock.patch.object(alloc, "maxmin_power_control", bisection):
                old = successive_optimize(freq, assoc, objective="max_min",
                                          direction="dl", precoder=precoder,
                                          **kwargs)
            assert same_arrays(plan.subcarriers, old.subcarriers)
            assert plan.audit["pass"] == old.audit["pass"]
            assert plan.objective >= old.objective * (1 - 1e-12)
    assert seen == {True, False}      # exclusive and shared plans


class TestSinglePowerStage:
    """The one power stage against the two-branch oracle it replaced."""

    @pytest.mark.parametrize("direction,objective", [
        ("ul", "sum_rate"), ("ul", "max_min"), ("dl", "sum_rate")])
    def test_matches_the_two_branch_oracle_bit_for_bit(self, direction,
                                                       objective):
        rng = np.random.default_rng(2024)
        kernel, calls = alloc.uplink_sinr_all, []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        for _ in range(200):
            freq, assoc, kwargs = random_allocation_scene(rng)
            calls.clear()
            with mock.patch.object(alloc, "uplink_sinr_all", counting):
                new = successive_optimize(freq, assoc, objective=objective,
                                          direction=direction, **kwargs)
            old = oracle.successive_optimize(freq, assoc, objective=objective,
                                             direction=direction, **kwargs)
            assert same_arrays(new.subcarriers, old.subcarriers)
            audit = dict(new.audit)
            assert audit.pop({"ul": "ul_covariance_resolved",
                              "dl": "dl_bracket_resolved"}[direction]) is True
            assert audit == old.audit
            if (direction, objective) == ("ul", "max_min") and \
                    separable(new):
                # a separable max-min plan takes its SINRs from the channel
                # energies and calls no kernel
                assert not calls
                _, sinrs = oracle.ul_rates(freq, kwargs["gamma_u"],
                                           old.subcarriers, old.ul_power)
                np.testing.assert_allclose(np.concatenate(new.ul_power),
                                           np.concatenate(old.ul_power),
                                           rtol=1e-12)
                np.testing.assert_allclose(np.concatenate(new.ul_sinrs),
                                           np.concatenate(sinrs), rtol=1e-12)
                assert new.objective == pytest.approx(
                    np.concatenate(sinrs).min(), rel=1e-12)
            elif direction == "ul":
                assert same_arrays(new.ul_power, old.ul_power)
            else:
                assert np.array_equal(new.dl_power, old.dl_power)
                assert new.a0 == old.a0
                assert same_arrays(new.dl_sinrs, old.dl_sinrs)
            if objective == "sum_rate":
                assert new.objective == old.objective

    def test_dl_maxmin_spread_differs_from_the_oracle_only_in_rounding(self):
        # the spread is p_k * (1 / N_k) as on the uplink, where the oracle
        # divides p_k / N_k, and the budget is checked on the sum of the UE
        # powers instead of the sum of the spread symbol powers.  A plan
        # whose symbols sit on distinct subcarriers takes the closed form
        # instead: the oracle's fixed point starts from 1e-6 of the budget
        # and, as A0 makes every SINR scale-invariant, never grows from
        # there, so only the SINRs compare
        rng = np.random.default_rng(2025)
        closed = 0
        for _ in range(40):
            freq, assoc, kwargs = random_allocation_scene(rng)
            new = successive_optimize(freq, assoc, objective="max_min",
                                      direction="dl", **kwargs)
            old = oracle.successive_optimize(freq, assoc, objective="max_min",
                                             direction="dl", **kwargs)
            assert same_arrays(new.subcarriers, old.subcarriers)
            audit = dict(new.audit)
            assert audit.pop("dl_bracket_resolved") is True
            assert audit == old.audit
            if separable(new):
                closed += 1
                # not below the oracle's but for rounding: its SINRs come
                # through another precoder path (3.1 eps below at most on
                # these 40 scenes)
                assert new.objective >= old.objective * (
                    1 - 8 * np.finfo(float).eps)
                assert new.objective == pytest.approx(old.objective,
                                                      rel=1e-12)
                # the closed form equalizes every UE's smallest SINR
                for g in new.dl_sinrs:
                    if len(g):
                        assert g.min() == pytest.approx(new.objective,
                                                        rel=1e-12)
                continue
            np.testing.assert_allclose(new.dl_power, old.dl_power,
                                       rtol=1e-12, atol=1e-15)
            assert new.objective == pytest.approx(old.objective, rel=1e-9)
        assert 0 < closed < 40

    def test_zero_refinement_keeps_the_equal_split_in_both_directions(self):
        rng = np.random.default_rng(14)
        freq = (rng.standard_normal((3, 2, 6))
                + 1j * rng.standard_normal((3, 2, 6)))
        assoc = AssociationMap.from_ap_sets([[0, 1], [1, 2]], num_aps=3)
        ul = successive_optimize(freq, assoc, demands=[2, 3], gamma_u=10.0,
                                 refine_iterations=0)
        assert same_arrays(ul.ul_power, [np.full(2, 1 / 2), np.full(3, 1 / 3)])
        dl = successive_optimize(freq, assoc, demands=[2, 3], direction="dl",
                                 noise_var=0.1, refine_iterations=0)
        grid = np.zeros((2, 6))
        for k, s in enumerate(dl.subcarriers):
            grid[k, s] = 1 / 5
        assert np.array_equal(dl.dl_power, grid)
        # the oracle's uplink water-filled once anyway
        old = oracle.successive_optimize(freq, assoc, demands=[2, 3],
                                         gamma_u=10.0, refine_iterations=0)
        once = successive_optimize(freq, assoc, demands=[2, 3], gamma_u=10.0,
                                   refine_iterations=1)
        assert same_arrays(old.ul_power, once.ul_power)
        assert not same_arrays(old.ul_power, ul.ul_power)

    def test_maxmin_objective_is_the_smallest_achieved_symbol_sinr(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            freq, assoc, kwargs = random_allocation_scene(rng)
            ul = successive_optimize(freq, assoc, objective="max_min",
                                     **kwargs)
            achieved = np.concatenate(ul.ul_sinrs)
            assert ul.objective == (achieved.min() if achieved.size else 0.0)
            # the kernel's SINRs at the plan's powers, up to its rounding
            _, sinrs = ul_rates(freq, kwargs["gamma_u"], ul.subcarriers,
                                ul.ul_power)
            np.testing.assert_allclose(achieved, np.concatenate(sinrs),
                                       rtol=1e-12, atol=0)
            # the oracle reported the bisection's target, which every UE
            # meets up to the feasibility test's 1e-6
            old = oracle.successive_optimize(freq, assoc, objective="max_min",
                                             **kwargs)
            assert ul.objective >= old.objective * (1 - 1e-6)
            dl = successive_optimize(freq, assoc, objective="max_min",
                                     direction="dl", **kwargs)
            achieved = np.concatenate(dl.dl_sinrs)
            assert dl.objective == (achieved.min() if achieved.size else 0.0)


class TestAudit:
    def test_duplicate_subcarriers_fail_exclusive_audit(self):
        plan = AllocationPlan(subcarriers=[np.array([0]), np.array([0])],
                              ul_power=[np.array([1.0]), np.array([1.0])])
        rep = audit_plan(plan, num_subcarriers=2)
        assert not rep["pass"]
        assert not rep["no_subcarrier_reuse"]

    def test_over_budget_power_fails(self):
        plan = AllocationPlan(subcarriers=[np.array([0, 1])],
                              ul_power=[np.array([0.8, 0.8])])
        rep = audit_plan(plan, num_subcarriers=2)
        assert not rep["ul_budgets_ok"]
        assert not rep["pass"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_budgets_pass_the_audit_exactly_when_the_scene_accepts_them(
            self, data):
        # one rule in both: sums within a few ulps of 1 + 1e-9 included,
        # where the order of summation over 8 or more powers decides
        power = []
        for _ in range(data.draw(st.integers(1, 4))):
            p = np.array(data.draw(st.lists(st.one_of(
                st.floats(0.0, 1.0), st.sampled_from([0.0, -1e-300, -0.1])),
                max_size=12)))
            if p.sum() > 1e-3 and data.draw(st.booleans()):
                p *= (1.0 + 1e-9 + data.draw(st.integers(-4, 4))
                      * np.spacing(1.0)) / p.sum()
            power.append(p)
        cuts = np.cumsum([0] + [len(p) for p in power])
        subs = [np.arange(a, b) for a, b in zip(cuts, cuts[1:])]
        plan = AllocationPlan(subcarriers=subs, ul_power=power)
        try:
            UplinkScene(freq=np.ones((1, len(power), cuts[-1])),
                        subcarriers=subs, power=power, gamma_u=10.0)
            accepted = True
        except ValueError:
            accepted = False
        assert audit_plan(plan, cuts[-1])["ul_budgets_ok"] == accepted

    @pytest.mark.parametrize("objective", ["sum_rate"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonpositive_uplink_sinr_fails_the_audit(self, objective):
        # one AP, one UE: the exact SINR of a symbol at power eta is
        # eta * gamma_u * |h|^2 > 0, but at gamma_u = 1e23 the evaluated
        # SINR loses every digit and comes out zero or negative
        freq = np.full((1, 1, 2), -0.019 + 0.549j)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        healthy = successive_optimize(freq, assoc, 2, objective,
                                      gamma_u=1e3)
        assert healthy.audit["ul_sinrs_positive"] and healthy.audit["pass"]
        collapsed = successive_optimize(freq, assoc, 2, objective,
                                        gamma_u=1e23)
        assert not collapsed.audit["ul_sinrs_positive"]
        assert not collapsed.audit["pass"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_maxmin_sinrs_at_gamma_1e23_are_exact_but_unresolved(self):
        """The probe above on a max-min plan: each symbol is alone on its
        subcarrier, so its SINR is exactly gamma_u eta |h|^2 (3.0e22 at
        power 1) and positive.  But 1 + 1.5e22, R_n's load at the plan's
        power 1/2, is past 1 / eps = 4.5e15: at M = 1, where
        ``matrix_rank`` never flags the positive scalar R_n, that is where
        the kernel's R_n - eta |h|^2 loses the noise floor 1 / gamma_u (the
        kernel gave -4 here), so the plan fails its audit."""
        h = -0.019 + 0.549j
        freq = np.full((1, 1, 2), h)
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        healthy = successive_optimize(freq, assoc, 2, "max_min", gamma_u=1e3)
        assert healthy.audit["ul_sinrs_positive"]
        assert healthy.audit["ul_covariance_resolved"]
        assert healthy.audit["pass"]
        plan = successive_optimize(freq, assoc, 2, "max_min", gamma_u=1e23)
        eta = np.concatenate(plan.ul_power)
        assert np.array_equal(eta, [0.5, 0.5])
        exact = [float(Fraction(1e23) * Fraction(e) * (
            Fraction(h.real) ** 2 + Fraction(h.imag) ** 2)) for e in eta]
        assert exact[0] == pytest.approx(1.5e22, rel=1e-2)
        np.testing.assert_allclose(np.concatenate(plan.ul_sinrs), exact,
                                   rtol=1e-15, atol=0)
        assert plan.objective == min(np.concatenate(plan.ul_sinrs))
        assert plan.audit["ul_sinrs_positive"]
        assert not plan.audit["ul_covariance_resolved"]
        assert not plan.audit["pass"]

    @pytest.mark.parametrize("mode", ["exclusive", "shared"])
    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_covariance_resolved_flags_exactly_past_the_rank_threshold(
            self, M, mode):
        """``ul_covariance_resolved`` is False exactly where some R_n at the
        plan's powers has 1 + sum over its symbols of gamma_u eta ||h||^2
        at or past 1 / (M eps): numpy's ``matrix_rank`` rule for M > 1,
        and for M = 1 the point where the kernel's cancellation loses the
        noise floor.  On a separable plan that left side is
        cond(gamma_u R_n); for M > 1,
        100 times below the threshold ``matrix_rank`` finds R_n full, and
        100 times past it R_n's noise directions are lost.  A co-channel
        plan runs the kernel's fixed point, which near the threshold
        overflows its power update or meets a singular solve; that failure
        is not this test's subject, so those plans are skipped and the
        update's overflow is ignored."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(M)
        K, N = 2, 4
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
        aps = [list(range(M))] * K if mode == "exclusive" else [[0], [M - 1]]
        assoc = AssociationMap.from_ap_sets(aps, num_aps=M)
        ue_groups = component_groups(assoc) if mode == "shared" else None
        flags = set()
        steps = 29 if mode == "exclusive" else 8
        for gamma_u in 10.0 ** np.linspace(12, 19, steps):
            try:
                with np.errstate(over="ignore"):
                    plan = successive_optimize(freq, assoc, 2, "max_min",
                                               gamma_u=gamma_u,
                                               ue_groups=ue_groups)
            except np.linalg.LinAlgError:
                assert mode == "shared"
                continue
            ue = np.repeat(np.arange(K), [len(s) for s in plan.subcarriers])
            sub = np.concatenate(plan.subcarriers)
            load = np.bincount(sub, np.concatenate(plan.ul_power)
                               * solo_unit_sinrs(freq, ue, sub, gamma_u), N)
            resolved = plan.audit["ul_covariance_resolved"]
            assert resolved == bool(np.all(1 + load < 1 / (M * eps)))
            flags.add(resolved)
            if M == 1 or not separable(plan):
                continue
            R = subcarrier_covariances(UplinkScene(
                freq=freq, subcarriers=plan.subcarriers,
                power=plan.ul_power, gamma_u=gamma_u))
            for n in set(sub.tolist()):
                if 1 + load[n] < 1e8:
                    assert np.linalg.cond(gamma_u * R[n]) == pytest.approx(
                        1 + load[n], rel=1e-6)
                if 100 * (1 + load[n]) < 1 / (M * eps):
                    assert np.linalg.matrix_rank(R[n]) == M
                elif 1 + load[n] > 100 / (M * eps):
                    assert np.linalg.matrix_rank(R[n]) < M
        # a co-channel plan past the threshold need not complete
        assert True in flags and (False in flags or mode == "shared")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_rate_plan_at_noise_1e22_fails_on_its_covariance(
            self, monkeypatch):
        """Trial 0 of the M2 K2 scenario at noise 1e-22: every symbol is
        alone on its subcarrier, so gamma_u eta ||h||^2 is its exact SINR.
        The kernel's SINRs are positive and finite, so
        ``ul_sinrs_positive`` holds, but they are up to 18% off the exact
        ones, because R_n's load is past 1 / (M eps).  The sum-rate plan
        fails its audit on ``ul_covariance_resolved``; the trial's rates
        stay finite."""
        plans = []
        optimize = alloc.successive_optimize

        def spy(*args, **kwargs):
            plans.append((args[0], kwargs["gamma_u"], optimize(*args,
                                                               **kwargs)))
            return plans[-1][2]

        monkeypatch.setattr(alloc, "successive_optimize", spy)
        records = run_trial(merge_scenario(
            {"topology": {"num_aps": 2, "noise_variance": 1e-22}}), 0)
        (freq, gamma_u, plan), = plans
        ue = np.repeat(np.arange(2), [len(s) for s in plan.subcarriers])
        exact = np.concatenate(plan.ul_power) * solo_unit_sinrs(
            freq, ue, np.concatenate(plan.subcarriers), gamma_u)
        assert np.max(np.abs(np.concatenate(plan.ul_sinrs) / exact - 1)) > 0.1
        assert plan.audit["ul_sinrs_positive"]
        assert not plan.audit["ul_covariance_resolved"]
        assert not plan.audit["pass"]
        assert all(np.isfinite(r["rate"]) and not r["audit_pass"]
                   for r in records)

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_bracket_resolved_flags_exactly_past_the_condition_bound(self, M):
        """``dl_bracket_resolved`` is False exactly where some used
        subcarrier n has 1 + sum over its UEs of ||zeta_l o h_ln||^2 /
        noise_var at or past 1 / (M eps).  That bounds the condition number
        of the bracket noise_var I + sum h_ln^* h_ln^T the ``tmmse_ofdm``
        plan solves: below 1e6 the bound holds, and the distributed
        precoders, which solve no bracket, get no such key."""
        eps = np.finfo(float).eps
        rng = np.random.default_rng(M)
        K, N = 2, 4
        freq = (rng.standard_normal((M, K, N))
                + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
        assoc = AssociationMap.from_ap_sets([[0], list(range(M))], num_aps=M)
        flags = set()
        for noise_var in 10.0 ** -np.linspace(0, 20, 21):
            plan = successive_optimize(freq, assoc, 1, direction="dl",
                                       noise_var=noise_var)
            seen = freq * assoc.zeta()[:, :, None]
            load = np.zeros(N)
            for k, sub in enumerate(plan.subcarriers):
                load[sub] += np.sum(np.abs(seen[:, k, sub]) ** 2, axis=0)
            resolved = plan.audit["dl_bracket_resolved"]
            assert resolved == bool(np.all(
                1 + load / noise_var < 1 / (M * eps)))
            flags.add(resolved)
            for n in np.flatnonzero(load):
                bound = 1 + load[n] / noise_var
                if bound < 1e6:
                    on = [k for k, sub in enumerate(plan.subcarriers)
                          if n in sub]
                    H = seen[:, on, n]
                    bracket = noise_var * np.eye(M) + H.conj() @ H.T
                    assert np.linalg.cond(bracket) <= bound * (1 + 1e-9)
        assert flags == {True, False}
        plan = successive_optimize(freq, assoc, 1, direction="dl",
                                   noise_var=1e-20, precoder="dist_mf")
        assert "dl_bracket_resolved" not in plan.audit

    def test_metric_counts_only_associated_aps(self):
        freq = np.ones((2, 1, 3), dtype=complex)
        assoc = AssociationMap.from_ap_sets([[1]], num_aps=2)
        metric = subcarrier_metric(freq, assoc)
        assert np.allclose(metric, 1.0)
