"""Successive resource allocation: association, subcarriers, then power.

The joint problem is combinatorial, so the pipeline optimizes the three
stages in order and treats interference as fixed inside the power stage.

One power stage serves both directions on the flat list of transmitted
symbols; a direction supplies its budget groups (one per UE on the uplink,
one shared on the downlink) and its evaluator from symbol powers to per-UE
rates and symbol SINRs.  Each group starts from an equal split.  Sum-rate
then runs ``refine_iterations`` water-filling passes (0 keeps equal
power); max-min bisects a common SINR target, and its objective is the
smallest symbol SINR the plan achieves.  Every emitted plan carries a
constraint audit so downstream consumers can verify the power budgets,
binary assignments, and minimum rates directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modulation import ue_rates

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


def allocate_subcarriers_greedy(metric, demands, mode="exclusive",
                                components=None):
    """Greedy subcarrier assignment, weakest UE first.

    UEs are served in ascending order of their best subcarrier metric (ties
    to the lower UE index); each takes its ``demands[k]`` best unclaimed
    subcarriers.  ``exclusive`` mode claims globally; ``shared`` mode claims
    per factor-graph component so separated components reuse the band.
    Returns one sorted index array per UE.
    """
    metric = np.asarray(metric, dtype=float)
    K, N = metric.shape
    demands = np.broadcast_to(np.asarray(demands, dtype=int), (K,))
    if mode == "exclusive":
        groups = {0: list(range(K))}
    elif mode == "shared":
        if components is None:
            raise ValueError("shared mode needs factor-graph components")
        groups = {i: sorted(c[1]) for i, c in enumerate(components)}
    else:
        raise ValueError(f"unknown mode {mode!r}")

    chosen = [np.array([], dtype=int) for _ in range(K)]
    for gid, members in groups.items():
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
    subject to sum p_n = budget, p >= 0.
    """
    if budget <= 0:
        raise ValueError("power budget must be positive")
    s = np.asarray(snr_per_unit, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one assigned subcarrier")
    if np.any(s <= 0):
        usable = s > 0
        out = np.zeros_like(s)
        if not np.any(usable):
            return out
        out[usable] = allocate_power_waterfill(s[usable], budget)
        return out
    inv = 1.0 / s
    order = np.argsort(inv)
    level = 0.0
    active = len(s)
    for drop in range(len(s)):
        active = len(s) - drop
        keep = order[:active]
        level = (budget + inv[keep].sum()) / active
        if level > inv[order[active - 1]]:
            break
    powers = np.maximum(level - inv, 0.0)
    powers[order[active:]] = 0.0
    # exact budget despite float accumulation
    powers *= budget / powers.sum()
    return powers


@dataclass
class MaxMinResult:
    powers: np.ndarray
    target: float                 # achieved common SINR floor
    achieved: np.ndarray          # per-UE SINRs at the returned powers
    noise_limited: bool           # the floor binds at a UE's zero-interference bound


def maxmin_power_control(evaluator, budgets, tol=1e-3) -> MaxMinResult:
    """Bisection on a common SINR target with per-UE power budgets.

    ``evaluator(powers) -> per-UE SINR array``; it must be monotone
    increasing in a UE's own power and decreasing in the others', which
    holds for the MMSE detectors and precoders used here.
    """
    budgets = np.asarray(budgets, dtype=float)
    K = budgets.size

    def feasible(target):
        p = budgets * 1e-6
        for _ in range(MAX_FIXED_POINT):
            g = np.maximum(evaluator(p), 1e-300)
            p, p_last = np.minimum(p * target / g, budgets), p
            if np.allclose(p, p_last, rtol=1e-9, atol=1e-15):
                break
        g = evaluator(p)
        return np.all(g >= target * (1 - 1e-6)), p

    # interference-free upper bound per UE caps any common target
    alone = np.empty(K)
    for k in range(K):
        solo = np.zeros(K)
        solo[k] = budgets[k]
        alone[k] = evaluator(solo)[k]
    hi = float(alone.min())
    ok_hi, p_hi = feasible(hi)
    if ok_hi:
        g = evaluator(p_hi)
        return MaxMinResult(powers=p_hi, target=hi, achieved=g,
                            noise_limited=True)
    lo, p_best = 0.0, np.zeros(K)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, p = feasible(mid)
        if ok:
            lo, p_best = mid, p
        else:
            hi = mid
    g = evaluator(p_best) if p_best.any() else np.zeros(K)
    return MaxMinResult(powers=p_best, target=lo, achieved=g,
                        noise_limited=False)


def check_feasibility(rates, min_rates) -> dict:
    """Per-UE minimum-rate check; reports violations, never raises."""
    rates = np.asarray(rates, dtype=float)
    min_rates = np.broadcast_to(np.asarray(min_rates, dtype=float), rates.shape)
    ok = rates >= min_rates - 1e-12
    return {"per_ue_ok": ok, "feasible": bool(np.all(ok)),
            "violations": [int(k) for k in np.flatnonzero(~ok)]}


@dataclass
class AllocationPlan:
    """Association, subcarrier, and power decisions plus their audit."""

    assoc: object
    subcarriers: list                       # per-UE index arrays
    ul_power: list = None                   # per-UE eta_kn arrays
    dl_power: np.ndarray = None             # per-(UE, subcarrier) Delta
    a0: float = None
    dl_sinrs: list = None                   # per-UE symbol SINRs at dl_power
    objective: float = 0.0
    min_rates: np.ndarray = None
    feasibility: dict = field(default_factory=dict)
    audit: dict = field(default_factory=dict)


def audit_plan(plan: AllocationPlan, num_subcarriers: int,
               mode="exclusive", components=None, checks=None) -> dict:
    """Constraint audit: budgets, assignment, rate floors, named ``checks``."""
    report = {}
    K = len(plan.subcarriers)
    in_range = all(np.all((s >= 0) & (s < num_subcarriers))
                   for s in plan.subcarriers)
    report["subcarriers_in_range"] = bool(in_range)
    if mode == "exclusive":
        seen = np.concatenate([np.asarray(s) for s in plan.subcarriers]) \
            if K else np.array([])
        report["no_subcarrier_reuse"] = bool(len(seen) == len(set(seen.tolist())))
    else:
        ok = True
        for comp in components or []:
            seen = [n for k in comp[1] for n in plan.subcarriers[k]]
            ok &= len(seen) == len(set(seen))
        report["no_subcarrier_reuse"] = bool(ok)
    if plan.ul_power is not None:
        report["ul_budgets_ok"] = bool(all(
            p.sum() <= 1.0 + 1e-9 and np.all(p >= 0) for p in plan.ul_power))
        report["ul_power_matches_assignment"] = bool(all(
            len(p) == len(s) for p, s in zip(plan.ul_power, plan.subcarriers)))
    if plan.dl_power is not None:
        report["dl_budget_ok"] = bool(np.sum(plan.dl_power) <= 1.0 + 1e-9
                                      and np.all(np.asarray(plan.dl_power) >= 0))
    if plan.a0 is not None:
        report["a0_positive"] = bool(plan.a0 > 0)
    if plan.min_rates is not None and plan.feasibility:
        report["min_rates_reported"] = True
    report.update(checks or {})
    report["pass"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def ul_rates(freq, gamma_u, assoc, subcarriers, powers, detector="gmmse"):
    """Per-UE rates and symbol SINRs for a candidate UL plan.

    ``detector`` picks the SINR model: the closed-form global MMSE or the
    reduced local MMSE tied to the association.
    """
    from .uplink import (UplinkScene, lmmse_reduced, uplink_sinr_all,
                         weight_output_sinr)
    scene = UplinkScene(freq=freq, subcarriers=subcarriers, power=powers,
                        gamma_u=gamma_u)
    K = scene.num_ues
    if detector == "gmmse":
        sinrs = uplink_sinr_all(scene)
    elif detector == "reduced":
        sinrs = []
        for k in range(K):
            if assoc.ap_sets[k] and len(subcarriers[k]):
                W = lmmse_reduced(scene, assoc, k)
                sinrs.append(weight_output_sinr(scene, k, W))
            else:
                sinrs.append(np.zeros(len(subcarriers[k])))
    else:
        raise ValueError(f"unknown detector {detector!r}")
    return ue_rates(sinrs), sinrs


def _all_positive(g) -> bool:
    """Whether every entry of the array ``g`` is positive and finite."""
    return bool(not g.size or 0 < g.min() <= g.max() < np.inf)


def successive_optimize(freq, assoc, demands, objective="sum_rate",
                        direction="ul", gamma_u=None, noise_var=None,
                        p_max=1.0, p_max_element=None, detector="gmmse",
                        min_rates=0.0, mode="exclusive", components=None,
                        refine_iterations=1) -> AllocationPlan:
    """Association -> greedy subcarriers -> power, stage by stage.

    The association is taken as given (computed by the topology module);
    disconnected UEs receive no resources and surface through the
    feasibility report rather than as errors.
    """
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    demands = np.broadcast_to(np.asarray(demands, dtype=int), (K,)).copy()
    demands[[not assoc.ap_sets[k] for k in range(K)]] = 0
    metric = subcarrier_metric(freq, assoc)
    subs = allocate_subcarriers_greedy(metric, demands, mode, components)
    min_rates = np.broadcast_to(np.asarray(min_rates, dtype=float), (K,))
    # every transmitted symbol as a (UE, subcarrier) index pair
    counts = np.array([len(s) for s in subs])
    ks, ns = np.repeat(np.arange(K), counts), np.concatenate(subs)
    # each evaluation records its plan fields; the plan keeps the last
    fields, checks = {}, {}

    if direction == "ul":
        if gamma_u is None:
            raise ValueError("uplink allocation needs gamma_u")
        budget_of = np.arange(K)
        checks["ul_sinrs_positive"], seen = True, None

        def evaluate(x):
            # in exact arithmetic a symbol's SINR is positive, or 0 when it
            # has no power or a channel that the detector does not see
            # (through every AP for gmmse, the associated ones otherwise)
            nonlocal seen
            fields["ul_power"] = [x[g] for g in groups]
            rates, sinrs = ul_rates(freq, gamma_u, assoc, subs,
                                    fields["ul_power"], detector)
            g = np.concatenate(sinrs)
            if checks["ul_sinrs_positive"] and not _all_positive(g):
                if seen is None:
                    seen = np.any((freq[:, ks, ns] != 0) & (
                        detector == "gmmse" or assoc.zeta()[:, ks] > 0), axis=0)
                checks["ul_sinrs_positive"] = _all_positive(g[seen & (x > 0)])
            return rates, sinrs

    elif direction == "dl":
        from .downlink import (compute_a0, dl_sinr_ofdm,
                               expected_ap_element_powers, tmmse_central_ofdm)
        if noise_var is None:
            raise ValueError("downlink allocation needs noise_var")
        budget_of = np.zeros(K, dtype=int)

        def evaluate(x):
            fields["dl_power"] = delta = np.zeros((K, N))
            delta[ks, ns] = x
            precoders = tmmse_central_ofdm(freq, subs, noise_var, delta,
                                           assoc=assoc)
            elem = expected_ap_element_powers(precoders)
            fields["a0"] = None if elem.sum() == 0 else compute_a0(
                elem.sum(axis=1), p_max,
                element_powers=elem if p_max_element is not None else None,
                element_max=p_max_element)
            fields["dl_sinrs"] = (
                [np.zeros(len(s)) for s in subs] if fields["a0"] is None else
                dl_sinr_ofdm(freq, precoders, subs, fields["a0"], noise_var))
            return ue_rates(fields["dl_sinrs"]), fields["dl_sinrs"]

    else:
        raise ValueError(f"unknown direction {direction!r}")

    # each budget group's symbols; every group has a budget of 1
    groups = [np.flatnonzero(budget_of[ks] == b)
              for b in range(budget_of.max() + 1)]
    x = np.empty(len(ns))
    for g in groups:
        x[g] = 1.0 / max(len(g), 1)
    if objective == "sum_rate":
        rates, sinrs = evaluate(x)
        for _ in range(refine_iterations):
            unit = np.concatenate(sinrs) / np.maximum(x, 1e-300)
            x = x.copy()
            for g in groups:
                if len(g):
                    x[g] = allocate_power_waterfill(unit[g], 1.0)
            rates, sinrs = evaluate(x)
    elif objective == "max_min":
        share = 1.0 / counts[ks]

        def spread(p):
            """UE powers split evenly over their symbols, each budget
            group scaled back onto its budget if over it."""
            total = np.bincount(budget_of, weights=p * (counts > 0))
            return p[ks] * share / np.maximum(total, 1.0)[budget_of[ks]]

        def evaluator(p):
            return np.array([np.min(g) if len(g) else np.inf
                             for g in evaluate(spread(p))[1]])

        if len(ns):
            x = spread(maxmin_power_control(evaluator, np.ones(K)).powers)
        rates, sinrs = evaluate(x)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    achieved = np.concatenate(sinrs)
    plan = AllocationPlan(
        assoc=assoc, subcarriers=subs, min_rates=min_rates, **fields,
        objective=float(rates.sum() if objective == "sum_rate"
                        else achieved.min() if achieved.size else 0.0))
    plan.feasibility = check_feasibility(rates, min_rates)
    plan.audit = audit_plan(plan, N, mode, components, checks)
    return plan
