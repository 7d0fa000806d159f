import itertools

import numpy as np
import pytest

from uccfsim.alloc import (AllocationPlan, allocate_power_waterfill,
                           allocate_subcarriers_greedy, audit_plan,
                           check_feasibility, maxmin_power_control,
                           subcarrier_metric, successive_optimize, ul_rates)
from uccfsim.topology import AssociationMap, build_factor_graph


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
        graph = build_factor_graph(assoc)
        metric = np.ones((2, 2))
        subs = allocate_subcarriers_greedy(metric, demands=2, mode="shared",
                                           components=graph.components)
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

    def test_equalizes_sinrs_when_binding(self):
        ev = self.scalar_evaluator([1.0, 3.0, 0.7], noise=1.0)
        res = maxmin_power_control(ev, budgets=np.ones(3), tol=1e-4)
        if not res.noise_limited:
            assert np.ptp(res.achieved) < 0.05 * res.target


class TestFeasibility:
    def test_zero_minimum_always_ok(self):
        rep = check_feasibility([0.0, 1.0], 0.0)
        assert rep["feasible"]

    def test_violations_reported(self):
        rep = check_feasibility([0.5, 2.0], [1.0, 1.0])
        assert not rep["feasible"]
        assert rep["violations"] == [0]

    def test_disconnected_ue_rate_zero(self):
        rng = np.random.default_rng(4)
        freq = (rng.standard_normal((2, 2, 2))
                + 1j * rng.standard_normal((2, 2, 2)))
        assoc = AssociationMap.from_ap_sets([[0, 1], []], num_aps=2,
                                            disconnected=[1])
        plan = successive_optimize(freq, assoc, demands=1, gamma_u=10.0,
                                   min_rates=[0.0, 0.1])
        assert len(plan.subcarriers[1]) == 0
        assert not plan.feasibility["feasible"]
        assert plan.feasibility["violations"] == [1]


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
            # exhaustive: associations x subcarrier picks x power grid
            ap_choices = [(0,), (1,), (0, 1)]
            for a0 in ap_choices:
                for a1 in ap_choices:
                    assoc = AssociationMap.from_ap_sets([list(a0), list(a1)], 2)
                    for n0 in range(2):
                        for n1 in range(2):
                            if n0 == n1:
                                continue
                            subs = [np.array([n0]), np.array([n1])]
                            for e0 in np.linspace(0.25, 1.0, 4):
                                for e1 in np.linspace(0.25, 1.0, 4):
                                    rates, _ = ul_rates(
                                        freq, gamma_u, assoc, subs,
                                        [np.array([e0]), np.array([e1])],
                                        detector="reduced")
                                    best = max(best, float(rates.sum()))
            assoc = AssociationMap.from_ap_sets([[0, 1], [0, 1]], 2)
            plan = successive_optimize(freq, assoc, demands=1,
                                       gamma_u=gamma_u, detector="reduced")
            ratios.append(plan.objective / best)
        assert np.mean(ratios) >= 0.8
        assert np.min(ratios) > 0.45

    def test_infeasible_min_rate_reported_not_raised(self):
        rng = np.random.default_rng(7)
        freq = 1e-3 * (rng.standard_normal((1, 1, 2))
                       + 1j * rng.standard_normal((1, 1, 2)))
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        plan = successive_optimize(freq, assoc, demands=2, gamma_u=1.0,
                                   min_rates=50.0)
        assert not plan.feasibility["feasible"]
        assert plan.audit["pass"]

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


class TestAudit:
    def test_duplicate_subcarriers_fail_exclusive_audit(self):
        assoc = AssociationMap.from_ap_sets([[0], [0]], num_aps=1)
        plan = AllocationPlan(assoc=assoc,
                              subcarriers=[np.array([0]), np.array([0])],
                              ul_power=[np.array([1.0]), np.array([1.0])])
        rep = audit_plan(plan, num_subcarriers=2)
        assert not rep["pass"]
        assert not rep["no_subcarrier_reuse"]

    def test_over_budget_power_fails(self):
        assoc = AssociationMap.from_ap_sets([[0]], num_aps=1)
        plan = AllocationPlan(assoc=assoc, subcarriers=[np.array([0, 1])],
                              ul_power=[np.array([0.8, 0.8])])
        rep = audit_plan(plan, num_subcarriers=2)
        assert not rep["ul_budgets_ok"]
        assert not rep["pass"]

    def test_metric_counts_only_associated_aps(self):
        freq = np.ones((2, 1, 3), dtype=complex)
        assoc = AssociationMap.from_ap_sets([[1]], num_aps=2)
        metric = subcarrier_metric(freq, assoc)
        assert np.allclose(metric, 1.0)
