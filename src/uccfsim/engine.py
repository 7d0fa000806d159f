"""Scenario configuration, Monte-Carlo orchestration, and result export.

A scenario is a plain nested dict (JSON on disk).  Every trial draws its
own RNG stream from (master seed, trial index), so a trial's draws depend
only on (seed, trial), never on which other trials run.  Trials run in one
loop in trial order.  Each trial produces one record per UE with analytic
and measured link metrics plus a constraint audit of the emitted
allocation plan.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import alloc, apmp, channel, downlink, topology, training, uplink
from .modulation import (CONSTELLATIONS, nearest_point, symbol_error_rate,
                         ue_rates)

DEFAULT_SCENARIO = {
    "name": "scenario",
    "seed": 0,
    "trials": 10,
    "topology": {
        "num_aps": 4, "num_ues": 2, "area_size": 250.0, "layout": "uniform",
        "ap_height": 15.0, "ue_height": 1.65, "carrier_freq_mhz": 1900.0,
        "max_ue_power": 0.1, "max_ap_power": 1.0, "noise_variance": 1e-12,
    },
    "channel": {
        "pathloss": "double_slope", "a": 2.0, "b": 2.0, "d_break": 100.0,
        "d0": 10.0, "d1": 50.0, "shadowing_std_db": 4.0,
        "num_taps": 2, "pdp_decay": 0.0,
    },
    "ofdm": {"num_subcarriers": 8},
    "association": {"method": "distance", "radius": 150.0, "max_aps": 2,
                    "min_gain": None},
    "training": {"enabled": False, "num_symbols": 2, "pilot_power": 1.0,
                 "mui_suppression": True, "coherence_symbols": 0},
    "allocation": {"objective": "sum_rate", "demands": 2, "min_rates": 0.0,
                   "mode": "exclusive", "refine_iterations": 1},
    "uplink": {"detector": "gmmse", "symbol_draws": 0,
               "constellation": "qpsk",
               "apmp": {"max_iterations": 8, "damping": 0.0, "tol": 1e-4,
                        "llr_clamp": 50.0}},
    "downlink": {"enabled": False, "p_max": 1.0, "p_max_element": None,
                 "precoder": "tmmse_ofdm", "reg": None, "ap_antennas": 1,
                 "secrecy_rho": None},
}

DETECTORS = ("gmmse", "gmmse_per_subcarrier", "lmmse_sliced", "lmmse_reduced",
             "local_equal", "local_mrc", "local_ls_linear", "local_ls_sqrt",
             "apmp", "none")


@dataclass(frozen=True)
class Rule:
    """The valid values of one scenario leaf: a finite int or float of
    ``kind`` (an int for int, never a bool) from ``lo`` to ``hi``, with the
    interval's ``ends`` open or closed; a bool; or a str, one of ``names``
    if given. ``null`` admits None too, ``per_ue`` a list of numbers."""
    kind: type
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"
    null: bool = False
    per_ue: bool = False
    names: tuple = ()

    def _scalar(self, v) -> bool:
        if self.kind in (bool, str):
            return type(v) is self.kind and v in (self.names or (v,))
        return (type(v) in (int, self.kind) and abs(v) <= sys.float_info.max
                and (self.lo < v if self.ends[0] == "(" else self.lo <= v)
                and (v < self.hi if self.ends[1] == ")" else v <= self.hi))

    def accepts(self, v) -> bool:
        return ((self.null and v is None) or self._scalar(v)
                or (self.per_ue and isinstance(v, list)
                    and all(map(self._scalar, v))))

    @property
    def spec(self) -> str:
        """The end of the diagnostic '<path> must be <spec>'."""
        if self.kind in (bool, str):
            return ("a boolean" if self.kind is bool else "a string") + (
                f" and must be one of {self.names}" if self.names else "")
        kinds = ("a number" + " or null" * self.null
                 + " or a list of numbers" * self.per_ue)
        bound = (f"in {self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"
                 if self.hi < math.inf else
                 f"{'>' if self.ends[0] == '(' else '>='} {self.lo:g}")
        return f"{kinds} (integer {bound})" if self.kind is int \
            else f"{kinds} {bound}"


# every leaf of DEFAULT_SCENARIO by dotted path, with the bounds that the
# model constructors enforce (DoubleSlope, TripleSlope, pdp_profile,
# NetworkTopology, ApmpConfig, compute_a0, dist_regmmse_precode)
RULES = {
    "name": Rule(str),
    **dict.fromkeys(("seed", "training.coherence_symbols",
                     "uplink.symbol_draws", "uplink.apmp.max_iterations"),
                    Rule(int, 0)),
    **dict.fromkeys(("trials", "topology.num_aps", "topology.num_ues",
                     "channel.num_taps", "ofdm.num_subcarriers",
                     "training.num_symbols", "downlink.ap_antennas"),
                    Rule(int, 1)),
    **dict.fromkeys(("topology.area_size", "topology.ap_height",
                     "topology.ue_height", "topology.carrier_freq_mhz",
                     "topology.max_ue_power", "topology.max_ap_power",
                     "topology.noise_variance", "channel.d_break",
                     "channel.d0", "channel.d1", "association.radius",
                     "training.pilot_power", "uplink.apmp.llr_clamp",
                     "downlink.p_max"), Rule(float, 0, ends="(]")),
    **dict.fromkeys(("channel.shadowing_std_db", "channel.pdp_decay",
                     "uplink.apmp.tol"), Rule(float, 0)),
    **dict.fromkeys(("training.enabled", "training.mui_suppression",
                     "downlink.enabled"), Rule(bool)),
    "topology.layout": Rule(str, names=("uniform", "grid")),
    "channel.pathloss": Rule(str, names=("double_slope", "triple_slope")),
    "channel.a": Rule(float, 1.5, 3.0), "channel.b": Rule(float, 2.0, 6.0),
    "association.method": Rule(str, names=("distance", "large_scale")),
    "association.max_aps": Rule(int, 1, null=True),
    "association.min_gain": Rule(float, 0, null=True),
    "allocation.objective": Rule(str, names=("sum_rate", "max_min")),
    "allocation.demands": Rule(int, 0, per_ue=True),
    "allocation.min_rates": Rule(float, 0, per_ue=True),
    "allocation.mode": Rule(str, names=("exclusive", "shared")),
    "allocation.refine_iterations": Rule(int, 0, 10),
    "uplink.detector": Rule(str, names=DETECTORS),
    "uplink.constellation": Rule(str, names=tuple(CONSTELLATIONS)),
    "uplink.apmp.damping": Rule(float, 0.0, 1.0, ends="[)"),
    "downlink.p_max_element": Rule(float, 0, ends="(]", null=True),
    "downlink.precoder": Rule(str, names=("tmmse_ofdm", "dist_mf",
                                          "dist_tzf", "dist_regmmse")),
    "downlink.reg": Rule(float, 0, null=True),
    "downlink.secrecy_rho": Rule(float, 0.0, 1.0, null=True),
}


# wall_time stays in the records but out of the CSV: the export must be
# bit-identical for identical (scenario, seed)
CSV_COLUMNS = ["scenario", "hash", "seed", "trial", "ue", "detector",
               "precoder", "rate", "effective_rate", "sinr_analytic",
               "sinr_empirical", "ser", "nmse", "sum_rate", "dl_rate",
               "dl_sinr", "secrecy_leakage", "apmp_iterations", "audit_pass"]


def merge_scenario(overrides=None) -> dict:
    """Defaults overlaid with a (possibly partial) scenario dict."""
    def merge(base, over):
        out = dict(base)
        for key, val in (over or {}).items():
            if isinstance(val, dict) and isinstance(base.get(key), dict):
                out[key] = merge(base[key], val)
            else:
                out[key] = val
        return out
    # JSON round trip decouples the result from the shared defaults
    return json.loads(json.dumps(merge(DEFAULT_SCENARIO, overrides)))


def scenario_hash(scenario) -> str:
    blob = json.dumps(scenario, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _walk(node, defaults, prefix, errors):
    """Report unknown keys, non-object sections and leaves outside their
    rule, each under its dotted path."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            import difflib
            close = difflib.get_close_matches(str(key), list(defaults), n=1)
            hint = f"; did you mean {prefix}{close[0]}?" if close else ""
            errors.append(f"{path} is not a known key{hint}")
        elif not isinstance(defaults[key], dict):
            if not RULES[path].accepts(value):
                errors.append(f"{path} must be {RULES[path].spec}, "
                              f"not {value!r}")
        elif isinstance(value, dict):
            _walk(value, defaults[key], path + ".", errors)
        else:
            errors.append(f"{path} must be an object, not {value!r}")


def validate_scenario(scenario) -> list:
    """Structured list of config problems; empty means runnable.

    Every leaf is checked against its rule, in disabled sections too, and
    every message starts with the dotted path of the offending field.
    """
    errors = []
    _walk(scenario, DEFAULT_SCENARIO, "", errors)
    if errors:
        # the checks below span fields, each of which must be of its kind
        return errors
    sc = merge_scenario(scenario)
    K, N = sc["topology"]["num_ues"], sc["ofdm"]["num_subcarriers"]
    ch, cfg, dl = sc["channel"], sc["allocation"], sc["downlink"]
    assoc = sc["association"]
    per_ue = [key for key in ("demands", "min_rates")
              if isinstance(cfg[key], list)]
    zero_forcing = dl["precoder"] == "dist_tzf" or (
        dl["precoder"] == "dist_regmmse" and dl["reg"] == 0)
    checks = {
        "channel.num_taps must not exceed N": ch["num_taps"] <= N,
        "channel.d0 must be below channel.d1 for triple_slope":
            ch["pathloss"] != "triple_slope" or ch["d0"] < ch["d1"],
        **{f"allocation.{key} must list one value for each of the {K} UEs":
           len(cfg[key]) == K for key in per_ue},
        # checked in both modes: one shared component may hold every UE
        "allocation.demands exceed the subcarriers":
            (sum(cfg["demands"]) if "demands" in per_ue
             else cfg["demands"] * K) <= N,
        "association needs max_aps and/or min_gain":
            assoc["method"] == "distance" or assoc["max_aps"] is not None
            or assoc["min_gain"] is not None,
        # an AP may serve every UE, and zero forcing needs an antenna each
        "downlink.ap_antennas must be at least topology.num_ues for zero "
        "forcing": not zero_forcing or dl["ap_antennas"] >= K,
    }
    return [message for message, ok in checks.items() if not ok]


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-split stream: a trial's draws depend only on (seed, trial)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,)))


def _build_channel_model(cfg) -> channel.LargeScaleModel:
    if cfg["pathloss"] == "double_slope":
        variant = channel.DoubleSlope(cfg["a"], cfg["b"], cfg["d_break"])
    else:
        variant = channel.TripleSlope(cfg["d0"], cfg["d1"])
    return channel.LargeScaleModel(variant, cfg["shadowing_std_db"])


def _associate(scenario, topo, gains):
    cfg = scenario["association"]
    if cfg["method"] == "distance":
        return topology.associate_distance(topo, cfg["radius"])
    return topology.associate_large_scale(gains, cfg.get("max_aps"),
                                          cfg.get("min_gain"))


def _estimate_channels(scenario, real, assoc, rng):
    cfg = scenario["training"]
    N = real.num_subcarriers
    taps = int(np.max(real.num_taps))
    plan = training.make_pilot_plan(
        real.gains.shape[1], N, cfg["num_symbols"], taps,
        pilot_power=cfg["pilot_power"])
    noise_var = scenario["topology"]["noise_variance"]
    obs = training.simulate_pilot_rx(plan, real, assoc, noise_var, rng)
    mode = "mui_suppress" if cfg["mui_suppression"] else "single"
    estimates = training.estimate_all(obs, plan, assoc, real, mode=mode,
                                      decay=scenario["channel"]["pdp_decay"])
    hf = training.estimated_subcarrier_gains(estimates, real, assoc)
    err = num = 0.0
    for (m, k), est in estimates.items():
        truth = np.sqrt(real.gains[m, k]) * real.taps[m, k, :len(est)]
        err += float(np.sum(np.abs(est - truth) ** 2))
        num += float(np.sum(np.abs(truth) ** 2))
    nmse = err / num if num > 0 else np.nan
    return hf, nmse


def _detect_uplink(scenario, scene, assoc, gains, rng):
    """Analytic/empirical SINR, per-UE rates, and SER for the configured
    detector; rates always come from the analytic symbol SINRs."""
    cfg = scenario["uplink"]
    name = cfg["detector"]
    K = scene.num_ues
    draws = int(cfg["symbol_draws"])
    points_name = cfg["constellation"]
    pts = CONSTELLATIONS[points_name]
    out = {"analytic": [np.empty(0)] * K,
           "empirical": [np.nan] * K, "ser": [np.nan] * K,
           "apmp_iterations": np.nan}

    if name == "none":
        out["rates"] = np.zeros(K)
        return out

    weights = None
    if name in ("gmmse", "gmmse_per_subcarrier", "lmmse_sliced",
                "lmmse_reduced"):
        if name == "gmmse":
            weights = uplink.gmmse_weights(scene)
        elif name == "gmmse_per_subcarrier":
            weights = uplink.gmmse_per_subcarrier(scene)
        elif name == "lmmse_sliced":
            weights = uplink.lmmse_column_sliced(scene, assoc)
        else:
            weights = [uplink.lmmse_reduced(scene, assoc, k)
                       if assoc.ap_sets[k] else None for k in range(K)]
        weights = [W if W is not None and len(scene.subcarriers[k])
                   and np.any(W) else None for k, W in enumerate(weights)]
        for k, W in enumerate(weights):
            if W is not None:
                out["analytic"][k] = uplink.weight_output_sinr(scene, k, W)

    elif name.startswith("local_"):
        mode = {"local_equal": "equal", "local_mrc": "mrc",
                "local_ls_linear": "large_scale_linear",
                "local_ls_sqrt": "large_scale_sqrt"}[name]
        weights = [None] * K
        for k in range(K):
            if not assoc.ap_sets[k] or not len(scene.subcarriers[k]):
                continue
            lambdas = uplink.combining_lambdas(scene, assoc, k, mode,
                                               gains=gains[:, k])
            weights[k] = uplink.combined_weights(scene, k, lambdas)
            out["analytic"][k] = uplink.combined_sinr(scene, assoc, k, lambdas)

    elif name == "apmp":
        acfg = cfg["apmp"]
        config = apmp.ApmpConfig(max_iterations=acfg["max_iterations"],
                                 tol=acfg["tol"], damping=acfg["damping"],
                                 points=points_name,
                                 llr_clamp=acfg["llr_clamp"])
        ser_counts = np.zeros(K)
        ser_draws = max(draws, 1)
        M, N = scene.num_aps, scene.num_subcarriers
        indices, ys = uplink.simulate_uplink(scene, ser_draws, rng, points_name)
        index = apmp.EdgeIndex(scene, assoc, points_name)
        results = [apmp.apmp_detect(scene, assoc, y.reshape(M, N), config,
                                    index) for y in ys]
        for k in range(K):
            if results[0].decisions[k] is None:
                continue
            wrong = np.array([r.decisions[k] for r in results]) != indices[k]
            # per-draw SERs summed in draw order: the CSV pins this rounding
            ser_counts[k] = sum(np.mean(wrong, axis=1))
        out["ser"] = list(ser_counts / ser_draws)
        out["apmp_iterations"] = float(np.mean([r.iterations
                                                for r in results]))
        # analytic MMSE SINR reported as the rate proxy for APMP trials
        sinrs = uplink.uplink_sinr_all(scene)
        for k in range(K):
            if len(scene.subcarriers[k]):
                out["analytic"][k] = np.asarray(sinrs[k])
    else:
        raise ValueError(f"unknown detector {name!r}")

    if weights is not None and draws > 0:
        indices, y = uplink.simulate_uplink(scene, draws, rng, points_name)
        for k, W in enumerate(weights):
            if W is None:
                continue
            z = y @ W.conj()
            x = pts[indices[k]]
            measured = name.startswith("local_")
            if measured:
                # the CPU of a local detector measures its output amplitude;
                # from one draw that fits the draw exactly and leaves no
                # error to measure, so the empirical SINR stays NaN
                amp = np.mean(z * x.conj(), axis=0)
            else:
                amp = np.sqrt(scene.power[k]) * np.einsum(
                    "ni,ni->i", W.conj(), uplink.stacked_channel(scene, k))
            # a symbol sent with zero power has empirical SINR 0, not 0/0
            signal = np.abs(amp) ** 2
            if draws > 1 or not measured:
                emp = np.divide(signal, np.mean(np.abs(z - x * amp) ** 2,
                                                axis=0),
                                out=np.zeros_like(signal), where=signal > 0)
                out["empirical"][k] = float(np.mean(emp))
            decided = nearest_point(z / np.where(np.abs(amp) > 0, amp, 1.0),
                                    pts)
            out["ser"][k] = symbol_error_rate(decided, indices[k])

    out["rates"] = ue_rates(out["analytic"])
    return out


def _run_downlink(scenario, real, assoc, components, rng):
    cfg = scenario["downlink"]
    noise_var = scenario["topology"]["noise_variance"]
    K = real.gains.shape[1]
    result = {"dl_rate": np.full(K, np.nan), "dl_sinr": np.full(K, np.nan),
              "leakage": np.nan}
    if cfg["precoder"] == "tmmse_ofdm":
        dl_plan = alloc.successive_optimize(
            real.freq, assoc, scenario["allocation"]["demands"],
            objective=scenario["allocation"]["objective"], direction="dl",
            noise_var=noise_var, p_max=cfg["p_max"],
            p_max_element=cfg["p_max_element"],
            min_rates=scenario["allocation"]["min_rates"],
            mode=scenario["allocation"]["mode"], components=components,
            refine_iterations=scenario["allocation"]["refine_iterations"])
        sinrs = dl_plan.dl_sinrs
        result["dl_sinr"] = np.array([np.mean(s) if len(s) else 0.0
                                      for s in sinrs])
        result["dl_rate"] = ue_rates(sinrs)
        result["plan"] = dl_plan
        rho = cfg["secrecy_rho"]
        if rho is not None:
            h0 = real.freq[:, :, 0]
            M = h0.shape[0]
            if M > K:
                p_i = downlink.artificial_noise_direction(h0, rng)
                result["leakage"] = float(np.max(np.abs(h0.T @ p_i)))
        return result
    # distributed precoding: subcarrier-0 snapshot, equal per-AP power split
    h0 = real.freq[:, :, 0]
    U = int(cfg["ap_antennas"])
    if U > 1:
        h = (rng.standard_normal((h0.shape[0], U, K))
             + 1j * rng.standard_normal((h0.shape[0], U, K))) / np.sqrt(2)
        h *= np.sqrt(real.gains)[:, None, :]
    else:
        h = h0[:, None, :]
    method = {"dist_mf": "mf", "dist_tzf": "tzf",
              "dist_regmmse": "regmmse"}[cfg["precoder"]]
    reg = cfg["reg"] if cfg["reg"] is not None else noise_var
    dirs = downlink.distributed_directions(h, assoc, method=method, reg=reg)
    powers = np.zeros((h.shape[0], K))
    for m in range(h.shape[0]):
        served = assoc.ue_sets[m]
        if served:
            powers[m, list(served)] = cfg["p_max"] / len(served)
    for k in range(K):
        split = downlink.received_power_split(h, assoc, dirs, powers, k)
        denom = split["co_associated"] + split["cross_ap"] + noise_var
        result["dl_sinr"][k] = split["desired"] / denom
        result["dl_rate"][k] = float(np.log2(1 + result["dl_sinr"][k]))
    return result


def run_trial(scenario, trial: int) -> list:
    """One full pipeline pass; returns one record dict per UE."""
    rng = trial_rng(scenario["seed"], trial)
    t0 = time.perf_counter()
    topo_cfg = scenario["topology"]
    topo = topology.generate_topology(
        topo_cfg["num_aps"], topo_cfg["num_ues"], topo_cfg["area_size"],
        topo_cfg["layout"], rng,
        ap_height=topo_cfg["ap_height"], ue_height=topo_cfg["ue_height"],
        carrier_freq_mhz=topo_cfg["carrier_freq_mhz"],
        max_ue_power=topo_cfg["max_ue_power"],
        max_ap_power=topo_cfg["max_ap_power"],
        noise_variance=topo_cfg["noise_variance"])
    model = _build_channel_model(scenario["channel"])
    N = scenario["ofdm"]["num_subcarriers"]
    real = channel.realize_channels(topo, model, N,
                                    scenario["channel"]["num_taps"], rng,
                                    scenario["channel"]["pdp_decay"])
    assoc = _associate(scenario, topo, real.gains)

    nmse = np.nan
    hf = real.freq
    if scenario["training"]["enabled"]:
        hf, nmse = _estimate_channels(scenario, real, assoc, rng)

    components = (topology.build_factor_graph(assoc).components
                  if scenario["allocation"]["mode"] == "shared" else None)

    # plan with the global evaluator regardless of detector, so that
    # detector comparisons on a shared seed run identical allocations
    gamma_u = topo.max_ue_power / topo.noise_variance
    plan = alloc.successive_optimize(
        hf, assoc, scenario["allocation"]["demands"],
        objective=scenario["allocation"]["objective"], direction="ul",
        gamma_u=gamma_u, detector="gmmse",
        min_rates=scenario["allocation"]["min_rates"],
        mode=scenario["allocation"]["mode"], components=components,
        refine_iterations=scenario["allocation"]["refine_iterations"])

    scene = uplink.UplinkScene(freq=hf, subcarriers=plan.subcarriers,
                               power=plan.ul_power, gamma_u=gamma_u)
    det = _detect_uplink(scenario, scene, assoc, real.gains, rng)

    dl = {"dl_rate": np.full(topo.num_ues, np.nan),
          "dl_sinr": np.full(topo.num_ues, np.nan), "leakage": np.nan}
    audit_pass = (plan.audit.get("pass", False)
                  and bool(np.all(np.isfinite(det["rates"]))))
    if scenario["downlink"]["enabled"]:
        dl = _run_downlink(scenario, real, assoc, components, rng)
        if "plan" in dl:
            audit_pass = audit_pass and dl["plan"].audit.get("pass", False)

    overhead = 0.0
    tr = scenario["training"]
    if tr["enabled"] and tr["coherence_symbols"]:
        overhead = min(tr["num_symbols"] / tr["coherence_symbols"], 1.0)

    wall = time.perf_counter() - t0
    sum_rate = float(np.sum(det["rates"]))
    digest = scenario_hash(scenario)
    records = []
    for k in range(topo.num_ues):
        analytic = det["analytic"][k]
        records.append({
            "scenario": scenario["name"],
            "hash": digest,
            "seed": scenario["seed"],
            "trial": trial,
            "ue": k,
            "detector": scenario["uplink"]["detector"],
            "precoder": (scenario["downlink"]["precoder"]
                         if scenario["downlink"]["enabled"] else "none"),
            "rate": float(det["rates"][k]),
            "effective_rate": float(det["rates"][k] * (1.0 - overhead)),
            "sinr_analytic": (float(np.mean(analytic))
                              if np.size(analytic) and np.all(np.isfinite(analytic))
                              else np.nan),
            "sinr_empirical": float(det["empirical"][k]),
            "ser": float(det["ser"][k]),
            "nmse": float(nmse),
            "sum_rate": sum_rate,
            "dl_rate": float(dl["dl_rate"][k]),
            "dl_sinr": float(dl["dl_sinr"][k]),
            "secrecy_leakage": float(dl["leakage"]),
            "apmp_iterations": float(det["apmp_iterations"]),
            "audit_pass": bool(audit_pass),
            "wall_time": wall,
        })
    return records


def run_scenario(scenario=None, workers: int = 1) -> dict:
    """Run all trials in trial order and aggregate; raises ValueError on
    invalid config. ``workers`` has no effect: it stays only for callers
    that still pass a worker count positionally."""
    scenario = merge_scenario(scenario)
    errors = validate_scenario(scenario)
    if errors:
        raise ValueError("invalid scenario: " + "; ".join(errors))
    records = [rec for t in range(scenario["trials"])
               for rec in run_trial(scenario, t)]
    return {"scenario": scenario, "records": records,
            "aggregate": aggregate(records)}


def aggregate(records) -> dict:
    """Mean and 95% confidence interval of the headline metrics."""
    out = {}
    per_trial_sum = {}
    for r in records:
        per_trial_sum.setdefault(r["trial"], r["sum_rate"])
    out["sum_rate"] = _mean_ci([per_trial_sum[t] for t in sorted(per_trial_sum)])
    for key in ("rate", "ser", "sinr_analytic", "sinr_empirical", "nmse",
                "dl_rate"):
        vals = [r[key] for r in records if np.isfinite(r[key])]
        if vals:
            out[key] = _mean_ci(vals)
    out["audit_pass_fraction"] = float(np.mean([r["audit_pass"]
                                                for r in records]))
    return out


def _mean_ci(values) -> dict:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size > 1:
        half = float(1.96 * values.std(ddof=1) / np.sqrt(values.size))
    else:
        half = 0.0
    return {"mean": mean, "ci_lo": mean - half, "ci_hi": mean + half,
            "count": int(values.size)}


def set_by_path(scenario: dict, path: str, value):
    """Set the scenario leaf addressed by a dotted path, a key of RULES."""
    if path not in RULES:
        raise ValueError(f"bad parameter path {path!r}; valid leaves: "
                         + ", ".join(RULES))
    *sections, key = path.split(".")
    node = scenario
    for section in sections:
        node = node[section]
    node[key] = value


def sweep(scenario, path: str, values, common_random: bool = True) -> list:
    """Independent runs per parameter value.

    With ``common_random`` every point reuses the master seed (paired
    comparisons); otherwise each point derives its own seed.
    """
    scenario = merge_scenario(scenario)
    out = []
    for i, value in enumerate(values):
        point = json.loads(json.dumps(scenario))
        set_by_path(point, path, value)
        if not common_random:
            point["seed"] = int(scenario["seed"]) + 7919 * (i + 1)
        out.append({"value": value, "result": run_scenario(point)})
    return out


# ---------------------------------------------------------------------------
# export

def results_to_csv(result) -> str:
    """Fixed-schema CSV; floats carry 9 significant digits."""
    records = result["records"]
    if not records:
        raise ValueError("no records to export")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        row = []
        for col in CSV_COLUMNS:
            val = rec[col]
            if isinstance(val, float):
                row.append(f"{val:.9g}")
            else:
                row.append(val)
        writer.writerow(row)
    return buf.getvalue()


def results_to_table(result) -> str:
    """Human-readable aggregate summary."""
    agg = result["aggregate"]
    lines = [f"scenario: {result['scenario']['name']} "
             f"(hash {scenario_hash(result['scenario'])}, "
             f"seed {result['scenario']['seed']}, "
             f"trials {result['scenario']['trials']})"]
    for key, stat in agg.items():
        if isinstance(stat, dict):
            lines.append(f"  {key:16s} mean {stat['mean']:.6g}   "
                         f"95% CI [{stat['ci_lo']:.6g}, {stat['ci_hi']:.6g}]"
                         f"   n={stat['count']}")
        else:
            lines.append(f"  {key:16s} {stat:.6g}")
    return "\n".join(lines)


def sweep_to_plot_data(sweep_result, metric: str = "sum_rate") -> list:
    """(x, mean, ci_lo, ci_hi) rows for a swept metric."""
    if not sweep_result:
        raise ValueError("empty sweep")
    rows = []
    for point in sweep_result:
        stat = point["result"]["aggregate"][metric]
        rows.append((point["value"], stat["mean"], stat["ci_lo"],
                     stat["ci_hi"]))
    return rows
