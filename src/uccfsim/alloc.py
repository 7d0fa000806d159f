"""Successive resource allocation: association, subcarriers, then power.

The joint problem is combinatorial, so the pipeline optimizes the three
stages in order and treats interference as fixed inside the power stage.

One power stage serves both directions on the flat list of transmitted
symbols; a direction supplies its budget groups (one per UE on the uplink,
one shared on the downlink) and its evaluator from flat symbol powers to
flat symbol SINRs.  Each group starts from an equal split.  Sum-rate
then runs ``refine_iterations`` water-filling passes (0 keeps equal
power); max-min bisects a common SINR target, and its objective is the
smallest symbol SINR the plan achieves.  Per-UE rates are computed once,
for the emitted powers, and the plan keeps the symbol SINRs behind them
(``ul_sinrs`` or ``dl_sinrs``), so a consumer such as the APMP rate proxy
need not evaluate them again.  Every emitted plan carries a constraint
audit so downstream consumers can verify the power budgets and the binary
assignments directly.

Within a plan the channels and the subcarrier assignment are fixed, so
the evaluators keep what depends on them alone: the downlink computes
its unscaled precoders (MMSE bracket solve or distributed directions)
once per plan and rescales them per evaluation under one A0, and an
uplink plan plans on the global MMSE SINRs.  A sum-rate plan, or a
max-min plan with co-channel symbols, builds one
:func:`~uccfsim.uplink.equal_power_scene`, its starting power split, and
evaluates every power vector on that scene through
:func:`~uccfsim.uplink.uplink_sinr_all`.
Max-min power control runs Yates' fixed-point iteration inside the
bisection and never evaluates the same powers twice in a row; the closing
evaluation of the chosen powers reuses the last one when they match.  Its
bound on the common target is each UE's SINR alone at its full budget.
A max-min plan whose symbols all sit on distinct subcarriers takes its
closed form from two evaluations; on the uplink it builds no scene, as
its exact SINRs are its powers times
:func:`~uccfsim.uplink.solo_unit_sinrs` (gamma_u ||h_kn||^2), and it sets
``ul_sinrs_exact``, so the engine reports them for global MMSE.  Plans
with co-channel symbols, in either direction, evaluate each UE alone for
the bound and run the fixed point and the bisection.  Exact SINRs cannot
fail where the kernel's cancellation would, and kernel SINRs can be
finite and positive where R_n has lost its noise floor, so every uplink
plan's audit checks that every R_n at its powers is resolved
(``ul_covariance_resolved``).
A centralized MMSE downlink plan checks the same of every bracket it
solves (``dl_bracket_resolved``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modulation import ue_rates
from .uplink import (UplinkScene, equal_power_scene, power_breaches,
                     solo_unit_sinrs, uplink_sinr_all)

# fixed-point power updates per max-min feasibility test
MAX_FIXED_POINT = 60


def subcarrier_metric(freq, assoc) -> np.ndarray:
    """Aggregate associated-AP channel power per UE and subcarrier, (K, N)."""
    freq = np.asarray(freq)
    M, K, N = freq.shape
    out = np.zeros((K, N))
    for k in range(K):
        for m in assoc.ap_sets[k]:
            out[k] += np.abs(freq[m, k]) ** 2
    return out


def allocate_subcarriers_greedy(metric, demands, ue_groups=None):
    """Greedy subcarrier assignment, weakest UE first.

    ``ue_groups`` lists the UE sets whose members may not share a
    subcarrier (None: one set of every UE); each set claims the band on
    its own, so separate sets reuse it, and a UE in no set gets nothing.
    Within a set, UEs are served in ascending order of their best
    subcarrier metric (ties to the lower UE index); each takes its
    ``demands[k]`` best unclaimed subcarriers.  Returns one sorted index
    array per UE.
    """
    metric = np.asarray(metric, dtype=float)
    K, N = metric.shape
    demands = np.broadcast_to(np.asarray(demands, dtype=int), (K,))
    chosen = [np.array([], dtype=int) for _ in range(K)]
    for members in [range(K)] if ue_groups is None else ue_groups:
        need = int(sum(demands[k] for k in members))
        if need > N:
            raise ValueError(
                f"infeasible demands: group needs {need} of {N} subcarriers "
                f"({need - N} short)")
        claimed = np.zeros(N, dtype=bool)
        # weakest first: ascending best-gain, stable on ties
        order = sorted(members, key=lambda k: (metric[k].max(), k))
        for k in order:
            free = np.flatnonzero(~claimed)
            # strongest free subcarriers; ties to the lower subcarrier index
            ranked = free[np.lexsort((free, -metric[k, free]))]
            take = ranked[:demands[k]]
            claimed[take] = True
            chosen[k] = np.sort(take)
    return chosen


def allocate_power_waterfill(snr_per_unit, budget) -> np.ndarray:
    """Water-filling over one UE's subcarriers.

    ``snr_per_unit[n]`` is the SINR the n-th subcarrier would reach at unit
    power with interference held fixed; maximizes sum log2(1 + p_n s_n)
    subject to sum p_n = budget, p >= 0; every positive budget is spent.
    """
    if budget <= 0:
        raise ValueError("power budget must be positive")
    s = np.asarray(snr_per_unit, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one assigned subcarrier")
    if (s <= 0).any():
        usable = s > 0
        out = np.zeros_like(s)
        if not usable.any():
            return out
        out[usable] = allocate_power_waterfill(s[usable], budget)
        return out
    # a 1 / s_n, or a sum of them, past the largest double is never reached
    with np.errstate(over="ignore"):
        inv = 1.0 / s
        for _ in range(2):
            order = np.argsort(inv)
            ranked = inv[order]
            powers = np.zeros_like(s)
            # a budget that rounds away against every 1 / s_n leaves the
            # levels to rounding, which can split equal subcarriers
            swamped = budget + ranked[0] == ranked[0]
            for active in range(0 if swamped else len(s), 0, -1):
                level = (budget + ranked[:active].sum()) / active
                if ranked[active - 1] < level < np.inf:
                    powers[order[:active]] = level - ranked[:active]
                    break
            if 0 < (total := powers.sum()) < np.inf:
                break
            # the budget rounded away against 1 / s_n, or every 1 / s_n
            # overflowed: measure the level from the strongest one instead
            inv = (s.max() / s - 1.0) / s.max()
    # exact budget despite float accumulation
    powers *= budget / total
    return powers


@dataclass
class MaxMinResult:
    powers: np.ndarray
    # achieved common SINR floor; on a downlink closed form the weakest
    # SINR at full budgets, below the achieved floor (``plan.objective``)
    target: float
    achieved: np.ndarray          # per-UE SINRs at the returned powers
    noise_limited: bool           # the floor binds at a UE's zero-interference bound


def maxmin_power_control(evaluator, budgets, tol=1e-3,
                         separable=False) -> MaxMinResult:
    """Bisection on a common SINR target with per-UE power budgets.

    ``evaluator(powers) -> per-UE SINR array``; it must be monotone
    increasing in a UE's own power and decreasing in the others', which
    holds for the MMSE SINRs of both directions used here.  It must also be
    deterministic: the SINRs of powers already evaluated are reused, and
    the same powers are never evaluated twice in a row.  A UE's SINR alone
    at its full budget bounds every common target.  ``separable`` declares
    that each UE's SINR is its own power times a constant over one common
    factor that does not fall when a power rises (1 on the uplink,
    noise_var / A0^2 on the downlink): budgets scaled to the weakest SINR
    at full budgets, the returned ``target``, meet it and equalize every
    UE, which one more evaluation confirms.  Otherwise the fixed point
    runs.
    When the bound is not positive, no target is, and the full budgets are
    returned; a negative or NaN bound is a numerical failure of the
    evaluator, which the caller's checks flag.
    """
    budgets = np.asarray(budgets, dtype=float)
    K = budgets.size

    def feasible(target):
        """Yates' fixed point towards ``target``: (met, powers, SINRs)."""
        p = budgets * 1e-6
        for _ in range(MAX_FIXED_POINT):
            g = evaluator(p)
            # an update past the largest double overflows to inf, which
            # the budget caps as it caps any update above it
            with np.errstate(over="ignore"):
                p, p_last = np.minimum(p * target / np.maximum(g, 1e-300),
                                       budgets), p
            # np.allclose(p, p_last, rtol=1e-9, atol=1e-15) for finite budgets
            if np.all(np.abs(p - p_last) <= 1e-15 + 1e-9 * np.abs(p_last)):
                break
        if not np.array_equal(p, p_last):
            g = evaluator(p)
        return np.all(g >= target * (1 - 1e-6)), p, g

    # each UE alone at its full budget caps any common target
    alone = evaluator(budgets) if separable else np.array(
        [evaluator(solo)[k] for k, solo in enumerate(np.diag(budgets))])
    hi = float(alone.min())
    if not hi > 0:
        return MaxMinResult(powers=budgets, target=hi,
                            achieved=evaluator(budgets), noise_limited=False)
    if separable:
        # each UE scales its budget to the weakest bound (a UE at its
        # bound, inf too, keeps it); the common factor cannot rise
        p = budgets * np.divide(hi, alone, out=np.ones(K), where=alone > hi)
        g = alone if np.array_equal(p, budgets) else evaluator(p)
        if np.all(g >= hi * (1 - 1e-6)):
            return MaxMinResult(powers=p, target=hi, achieved=g,
                                noise_limited=True)
    ok_hi, p_hi, g_hi = feasible(hi)
    if ok_hi:
        return MaxMinResult(powers=p_hi, target=hi, achieved=g_hi,
                            noise_limited=True)
    lo, p_best, g_best = 0.0, np.zeros(K), None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break       # lo and hi are adjacent doubles: nothing can move
        ok, p, g = feasible(mid)
        if ok:
            lo, p_best, g_best = mid, p, g
        else:
            hi = mid
    return MaxMinResult(powers=p_best, target=lo,
                        achieved=g_best if p_best.any() else np.zeros(K),
                        noise_limited=False)


@dataclass
class AllocationPlan:
    """Subcarrier and power decisions plus their audit."""

    subcarriers: list                       # per-UE index arrays
    ul_power: list = None                   # per-UE eta_kn arrays
    ul_sinrs: list = None                   # per-UE symbol SINRs at ul_power
    ul_sinrs_exact: bool = False            # ul_sinrs are gamma_u eta ||h||^2
    dl_power: np.ndarray = None             # per-(UE, subcarrier) Delta
    a0: float = None
    dl_sinrs: list = None                   # per-UE symbol SINRs at dl_power
    objective: float = 0.0
    audit: dict = field(default_factory=dict)


def audit_plan(plan: AllocationPlan, num_subcarriers: int,
               ue_groups=None, checks=None) -> dict:
    """Constraint audit: budgets, assignment (no subcarrier twice in one of
    ``ue_groups``; None: every UE) and the named ``checks``."""
    seen = np.concatenate([np.asarray(s) for s in plan.subcarriers]) \
        if plan.subcarriers else np.array([])
    report = {"subcarriers_in_range":
              bool(((seen >= 0) & (seen < num_subcarriers)).all())}
    groups = [range(len(plan.subcarriers))] if ue_groups is None else ue_groups
    used = [[n for k in g for n in plan.subcarriers[k]] for g in groups]
    report["no_subcarrier_reuse"] = all(len(u) == len(set(u)) for u in used)
    if plan.ul_power is not None:
        fits, over, negative = power_breaches(
            map(len, plan.subcarriers), np.concatenate([[], *plan.ul_power]),
            map(len, plan.ul_power))
        report["ul_budgets_ok"] = not (over.any() or negative.any())
        report["ul_power_matches_assignment"] = fits
    if plan.dl_power is not None:
        report["dl_budget_ok"] = bool(np.sum(plan.dl_power) <= 1.0 + 1e-9
                                      and np.all(np.asarray(plan.dl_power) >= 0))
    if plan.a0 is not None:
        report["a0_positive"] = bool(plan.a0 > 0)
    report.update(checks or {})
    report["pass"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def ul_rates(freq, gamma_u, subcarriers, powers):
    """Rates and closed-form global MMSE symbol SINRs, per UE, of a
    candidate uplink plan."""
    scene = UplinkScene(freq=freq, subcarriers=subcarriers, power=powers,
                        gamma_u=gamma_u)
    sinrs = scene.split(uplink_sinr_all(scene, np.concatenate(scene.power)))
    return ue_rates(sinrs), sinrs


def _all_positive(g) -> bool:
    """Whether every entry of the array ``g`` is positive and finite."""
    return bool(not g.size or 0 < g.min() <= g.max() < np.inf)


def successive_optimize(freq, assoc, demands, objective="sum_rate",
                        direction="ul", gamma_u=None, noise_var=None,
                        p_max=1.0, p_max_element=None, precoder="tmmse_ofdm",
                        reg=None, ue_groups=None,
                        refine_iterations=1) -> AllocationPlan:
    """Association -> greedy subcarriers -> power, stage by stage.

    The association is taken as given (computed by the topology module);
    a UE without an AP receives no resources and gets rate 0.
    ``ue_groups`` is as in :func:`allocate_subcarriers_greedy`.
    ``dist_regmmse``'s ``reg`` defaults to ``noise_var``.  A max-min plan
    on which no subcarrier carries two symbols is separable; on the uplink
    it takes every SINR from the channel energies.  Every uplink plan's
    audit adds ``ul_covariance_resolved``: 1 + sum over each used subcarrier's
    symbols of gamma_u eta ||h||^2 < 1 / (M eps) at the emitted powers.
    For M > 1 that is numpy's ``matrix_rank`` rule on R_n; for M = 1,
    where ``matrix_rank`` never flags a positive scalar, it is the point
    where the kernel's cancellation loses the noise floor.  A
    ``tmmse_ofdm`` downlink plan's audit adds ``dl_bracket_resolved``:
    1 + sum over the UEs on each used subcarrier n of
    ||zeta_l o h_ln||^2 / noise_var < 1 / (M eps), a bound on the
    condition number of the bracket it solves; the distributed precoders
    keep their own rank checks.
    """
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    demands = np.broadcast_to(np.asarray(demands, dtype=int), (K,)).copy()
    demands[[not assoc.ap_sets[k] for k in range(K)]] = 0
    metric = subcarrier_metric(freq, assoc)
    subs = allocate_subcarriers_greedy(metric, demands, ue_groups)
    # every transmitted symbol as a (UE, subcarrier) index pair
    counts = np.array([len(s) for s in subs])
    ks, ns = np.repeat(np.arange(K), counts), np.concatenate(subs)
    cuts = np.cumsum(counts)[:-1]
    # a max-min plan whose symbols all sit on distinct subcarriers: each
    # UE's SINRs are its own power times constants over a common factor
    separable = (objective == "max_min"
                 and 0 < len(ns) == len(set(ns.tolist())))
    # an evaluation maps flat symbol powers to flat symbol SINRs; a
    # downlink one also records its plan fields, and the plan keeps the last
    fields, checks = {}, {}

    if direction == "ul":
        if gamma_u is None:
            raise ValueError("uplink allocation needs gamma_u")
        if not gamma_u > 0:
            raise ValueError("gamma_u must be positive")
        budget_of = np.arange(K)
        groups = np.split(np.arange(len(ns)), cuts)
        energy = solo_unit_sinrs(freq, ks, ns, gamma_u)
        if separable:
            # each symbol alone on its subcarrier: its SINR is exact and
            # linear in its own power (the spread below sets x)
            def sinrs_at(x):
                return x * energy
            fields["ul_sinrs_exact"] = True
        else:
            # every evaluation sees the same channels and assignment, and
            # the powers x start from the scene's equal split
            scene = equal_power_scene(freq, subs, gamma_u)
            x = np.concatenate(scene.power)

            def sinrs_at(x):
                return uplink_sinr_all(scene, x)
        checks["ul_sinrs_positive"], seen = True, None

        def evaluate_direction(x):
            # in exact arithmetic a symbol's SINR is positive, or 0 when it
            # has no power or a zero channel at every AP
            nonlocal seen
            g = sinrs_at(x)
            if checks["ul_sinrs_positive"] and not _all_positive(g):
                if seen is None:
                    seen = np.any(freq[:, ks, ns] != 0, axis=0)
                checks["ul_sinrs_positive"] = _all_positive(g[seen & (x > 0)])
            return g

    elif direction == "dl":
        from .downlink import (compute_a0, distributed_ofdm_directions,
                               dl_sinr_ofdm, expected_ap_element_powers,
                               tmmse_bracket_solve, tmmse_scale)
        if noise_var is None:
            raise ValueError("downlink allocation needs noise_var")
        budget_of = np.zeros(K, dtype=int)
        groups = [np.arange(len(ns))]
        x = np.full(len(ns), 1.0 / max(len(ns), 1))
        # the unscaled precoders depend on the assignment only
        if precoder == "tmmse_ofdm":
            unscaled = tmmse_bracket_solve(freq, subs, noise_var, assoc=assoc)
            # cond(bracket_n) <= 1 + sum over the UEs on n of
            # ||zeta_l o h_ln||^2 / noise_var, here times noise_var
            seen = freq[:, ks, ns] * assoc.zeta()[:, ks]
            load = np.bincount(ns, np.sum(seen.real ** 2 + seen.imag ** 2,
                                          axis=0), N)
            checks["dl_bracket_resolved"] = bool(np.all(
                noise_var + load < noise_var / (M * np.finfo(float).eps)))
        elif precoder in ("dist_mf", "dist_tzf", "dist_regmmse"):
            unscaled = distributed_ofdm_directions(
                freq, subs, assoc, precoder.removeprefix("dist_"),
                noise_var if reg is None else reg)
        else:
            raise ValueError(f"unknown precoder {precoder!r}")

        def evaluate_direction(x):
            fields["dl_power"] = delta = np.zeros((K, N))
            delta[ks, ns] = x
            precoders = tmmse_scale(*unscaled, delta)
            elem = expected_ap_element_powers(precoders)
            fields["a0"] = None if elem.sum() == 0 else compute_a0(
                elem.sum(axis=1), p_max,
                element_powers=elem if p_max_element is not None else None,
                element_max=p_max_element)
            fields["dl_sinrs"] = (
                [np.zeros(len(s)) for s in subs] if fields["a0"] is None else
                dl_sinr_ofdm(freq, precoders, subs, fields["a0"], noise_var))
            return np.concatenate(fields["dl_sinrs"])

    else:
        raise ValueError(f"unknown direction {direction!r}")

    last = None

    def evaluate(x):
        """Symbol SINRs at powers ``x``; equal powers in a row reuse the
        previous evaluation."""
        nonlocal last
        if last is None or not np.array_equal(x, last[0]):
            last = x, evaluate_direction(x)
        return last[1]

    # every budget group (its symbols' flat indices) has a budget of 1
    if objective == "sum_rate":
        achieved = evaluate(x)
        for _ in range(refine_iterations):
            unit = achieved / np.maximum(x, 1e-300)
            x = x.copy()
            for g in groups:
                if len(g):
                    x[g] = allocate_power_waterfill(unit[g], 1.0)
            achieved = evaluate(x)
    elif objective == "max_min":
        share = 1.0 / counts[ks]

        def spread(p):
            """UE powers split evenly over their symbols, each budget
            group scaled back onto its budget if over it."""
            total = np.bincount(budget_of, weights=p * (counts > 0))
            return p[ks] * share / np.maximum(total, 1.0)[budget_of[ks]]

        live = counts > 0
        starts = np.r_[0, cuts][live]

        def evaluator(p):
            """Each UE's smallest symbol SINR; inf for a UE without any."""
            mins = np.full(K, np.inf)
            mins[live] = np.minimum.reduceat(evaluate(spread(p)), starts)
            return mins

        if len(ns):
            x = spread(maxmin_power_control(evaluator, np.ones(K),
                                            separable=separable).powers)
        achieved = evaluate(x)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if direction == "ul":
        # for M > 1 numpy's matrix_rank rule on each R_n at the emitted
        # powers (1 + load is cond(gamma_u R_n) on a separable plan and
        # bounds it otherwise); for M = 1, where matrix_rank never flags,
        # the point where the kernel's cancellation loses the noise floor
        load = np.bincount(ns, x * energy, N)
        checks["ul_covariance_resolved"] = bool(
            np.all(1.0 + load < 1.0 / (M * np.finfo(float).eps)))

    sinrs = np.split(achieved, cuts)
    if direction == "ul":
        fields["ul_power"] = [x[g] for g in groups]
        fields["ul_sinrs"] = sinrs
    plan = AllocationPlan(
        subcarriers=subs, **fields,
        objective=float(ue_rates(sinrs).sum() if objective == "sum_rate"
                        else achieved.min() if achieved.size else 0.0))
    plan.audit = audit_plan(plan, N, ue_groups, checks)
    return plan
