import itertools

import numpy as np
import pytest

from uccfsim import alloc, downlink
from uccfsim.alloc import (AllocationPlan, allocate_power_waterfill,
                           allocate_subcarriers_greedy, audit_plan,
                           maxmin_power_control, subcarrier_metric,
                           successive_optimize, ul_rates)
from uccfsim.modulation import ue_rates
from uccfsim.topology import AssociationMap, build_factor_graph
from uccfsim.uplink import UplinkScene, uplink_sinr_all

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


class TestPlanSkeletons:
    """Power-independent work is done once per plan."""

    def test_maxmin_builds_one_skeleton_and_repeats_no_evaluation(
            self, monkeypatch):
        built, evaluated = [], []

        class Recording(alloc.SinrSkeleton):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def sinrs(self, eta):
                evaluated.append(np.array(eta))
                return super().sinrs(eta)

        monkeypatch.setattr(alloc, "SinrSkeleton", Recording)
        rng = np.random.default_rng(16)
        for _ in range(20):
            freq, assoc, kwargs = random_allocation_scene(rng)
            built.clear()
            evaluated.clear()
            plan = successive_optimize(freq, assoc, objective="max_min",
                                       **kwargs)
            assert len(built) == 1
            assert evaluated
            assert not any(np.array_equal(a, b)
                           for a, b in zip(evaluated, evaluated[1:]))
            # the plan keeps the powers of the last evaluation
            assert np.array_equal(np.concatenate(plan.ul_power),
                                  evaluated[-1])

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


def random_allocation_scene(rng):
    """A small random scene and the keyword arguments of one optimizer call:
    some UEs disconnected, exclusive or shared mode, 1 to 3 refinement
    passes, with or without an element power cap."""
    M, K, N = rng.integers(1, 5), rng.integers(1, 4), rng.integers(2, 7)
    freq = (rng.standard_normal((M, K, N))
            + 1j * rng.standard_normal((M, K, N))) / np.sqrt(2)
    ap_sets = [sorted(rng.choice(M, size=rng.integers(
        0 if rng.random() < 0.15 else 1, M + 1), replace=False).tolist())
        for _ in range(K)]
    assoc = AssociationMap.from_ap_sets(ap_sets, num_aps=M)
    mode = "shared" if rng.random() < 0.5 else "exclusive"
    kwargs = dict(
        demands=rng.integers(0, N // K + 1, size=K), mode=mode,
        components=(build_factor_graph(assoc).components
                    if mode == "shared" else None),
        refine_iterations=int(rng.integers(1, 4)),
        p_max_element=None if rng.random() < 0.5 else rng.uniform(0.05, 1.0),
        gamma_u=10 ** rng.uniform(0, 2), noise_var=10 ** rng.uniform(-2, 0))
    return freq, assoc, kwargs


def same_arrays(a, b):
    return len(a) == len(b) and all(map(np.array_equal, a, b))


@pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
def test_plan_ul_sinrs_are_the_closed_form_at_its_powers(objective):
    """``plan.ul_sinrs`` is what ``uplink_sinr_all`` gives on the plan's
    scene, bit for bit, so a consumer need not evaluate it again."""
    rng = np.random.default_rng(2025)
    empty = 0
    for _ in range(150):
        freq, assoc, kwargs = random_allocation_scene(rng)
        plan = successive_optimize(freq, assoc, objective=objective,
                                   direction="ul", **kwargs)
        scene = UplinkScene(freq=freq, subcarriers=plan.subcarriers,
                            power=plan.ul_power, gamma_u=kwargs["gamma_u"])
        assert same_arrays(plan.ul_sinrs, uplink_sinr_all(scene))
        empty += sum(not len(s) for s in plan.subcarriers)
    assert empty          # UEs without subcarriers were covered


class TestSinglePowerStage:
    """The one power stage against the two-branch oracle it replaced."""

    @pytest.mark.parametrize("direction,objective", [
        ("ul", "sum_rate"), ("ul", "max_min"), ("dl", "sum_rate")])
    def test_matches_the_two_branch_oracle_bit_for_bit(self, direction,
                                                       objective):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            freq, assoc, kwargs = random_allocation_scene(rng)
            new = successive_optimize(freq, assoc, objective=objective,
                                      direction=direction, **kwargs)
            old = oracle.successive_optimize(freq, assoc, objective=objective,
                                             direction=direction, **kwargs)
            assert same_arrays(new.subcarriers, old.subcarriers)
            assert new.audit == old.audit
            if direction == "ul":
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
        # powers instead of the sum of the spread symbol powers
        rng = np.random.default_rng(2025)
        for _ in range(40):
            freq, assoc, kwargs = random_allocation_scene(rng)
            new = successive_optimize(freq, assoc, objective="max_min",
                                      direction="dl", **kwargs)
            old = oracle.successive_optimize(freq, assoc, objective="max_min",
                                             direction="dl", **kwargs)
            assert same_arrays(new.subcarriers, old.subcarriers)
            assert new.audit == old.audit
            np.testing.assert_allclose(new.dl_power, old.dl_power,
                                       rtol=1e-12, atol=1e-15)
            assert new.objective == pytest.approx(old.objective, rel=1e-9)

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
            _, sinrs = ul_rates(freq, kwargs["gamma_u"], assoc,
                                ul.subcarriers, ul.ul_power)
            achieved = np.concatenate(sinrs)
            assert ul.objective == (achieved.min() if achieved.size else 0.0)
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

    @pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
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

    def test_metric_counts_only_associated_aps(self):
        freq = np.ones((2, 1, 3), dtype=complex)
        assoc = AssociationMap.from_ap_sets([[1]], num_aps=2)
        metric = subcarrier_metric(freq, assoc)
        assert np.allclose(metric, 1.0)
