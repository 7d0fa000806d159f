"""Scenario configuration, Monte-Carlo orchestration, and result export.

A scenario is a plain nested dict (JSON on disk).  Every trial draws its
own RNG stream from (master seed, trial index), so results are bit-identical
no matter how many workers run the trials.  Each trial produces one record
per UE with analytic and measured link metrics plus a constraint audit of
the emitted allocation plan.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import alloc, apmp, channel, downlink, topology, training, uplink
from .modulation import CONSTELLATIONS, nearest_point, symbol_error_rate

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
PRECODERS = ("tmmse_ofdm", "dist_mf", "dist_tzf", "dist_regmmse")

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


# the fields that name one of a fixed set of choices
CHOICES = {"topology.layout": ("uniform", "grid"),
           "channel.pathloss": ("double_slope", "triple_slope"),
           "association.method": ("distance", "large_scale"),
           "allocation.objective": ("sum_rate", "max_min"),
           "allocation.mode": ("exclusive", "shared"),
           "uplink.detector": DETECTORS,
           "uplink.constellation": tuple(CONSTELLATIONS)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


# leaves checked by more than the default's type: a choice against its
# names, a count as a nonnegative integer; demands and min_rates may be
# per-UE lists, and max_aps may be null (min_gain alone stops association)
OWN_CHECKS = (*CHOICES, "trials", "seed", "uplink.symbol_draws",
              "uplink.apmp.max_iterations", "allocation.demands",
              "allocation.min_rates", "association.max_aps")


def _check_schema(node, defaults, prefix, errors) -> bool:
    """Report unknown keys, non-object sections and leaves not of their
    default's type (number, bool or string) under their dotted paths; True
    when every section is an object and every leaf of its type."""
    typed = True
    for key, value in node.items():
        path = f"{prefix}{key}"
        default = defaults.get(key)
        if key not in defaults:
            import difflib
            close = difflib.get_close_matches(str(key), list(defaults), n=1)
            hint = f"; did you mean {prefix}{close[0]}?" if close else ""
            errors.append(f"{path} is not a known key{hint}")
        elif isinstance(default, dict):
            if isinstance(value, dict):
                typed &= _check_schema(value, default, path + ".", errors)
            else:
                errors.append(f"{path} must be an object, not {value!r}")
                typed = False
        elif default is None or path in OWN_CHECKS:
            continue
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                errors.append(f"{path} must be a boolean, not {value!r}")
                typed = False
        elif isinstance(default, str):
            if not isinstance(value, str):
                errors.append(f"{path} must be a string, not {value!r}")
                typed = False
        elif not _is_number(value):
            errors.append(f"{path} must be a number, not {value!r}")
            typed = False
    return typed


def validate_scenario(scenario) -> list:
    """Structured list of config problems; empty means runnable.

    Every message starts with the dotted path of the offending field.
    """
    errors = []
    sc = scenario

    def need(cond, msg):
        if not cond:
            errors.append(msg)

    if not _check_schema(sc, DEFAULT_SCENARIO, "", errors):
        # the checks below read fields inside every section and compare
        # numbers against bounds
        return errors
    need(isinstance(sc.get("trials"), int) and sc["trials"] >= 1,
         "trials must be an integer >= 1")
    need(_is_count(sc.get("seed", 0)), "seed must be an integer >= 0")
    need(_is_count(sc.get("uplink", {}).get("symbol_draws", 0)),
         "uplink.symbol_draws must be an integer >= 0")
    for path, names in CHOICES.items():
        section, key = path.split(".")
        if sc.get(section, {}).get(key) not in names:
            errors.append(f"{path} must be one of {names}")
    demands = sc.get("allocation", {}).get("demands", 0)
    if not isinstance(demands, int) and not (
            isinstance(demands, list)
            and all(isinstance(d, int) for d in demands)):
        errors.append(
            "allocation.demands must be an integer or a list of integers")
        # the demand total below cannot be formed
        return errors
    min_rates = sc.get("allocation", {}).get("min_rates", 0.0)
    need(_is_number(min_rates) or (isinstance(min_rates, list)
                                   and all(map(_is_number, min_rates))),
         "allocation.min_rates must be a number or a list of numbers")
    max_aps = sc.get("association", {}).get("max_aps")
    need(max_aps is None or _is_number(max_aps),
         "association.max_aps must be a number or null")
    acfg = sc.get("uplink", {}).get("apmp", {})
    need(_is_count(acfg.get("max_iterations", 0)),
         "uplink.apmp.max_iterations must be an integer >= 0")
    need(0.0 <= acfg.get("damping", 0.0) < 1.0,
         "uplink.apmp.damping must be a number in [0, 1)")
    need(acfg.get("tol", 0.0) >= 0.0, "uplink.apmp.tol must be a number >= 0")
    need(acfg.get("llr_clamp", 1.0) > 0.0,
         "uplink.apmp.llr_clamp must be a number > 0")
    topo = sc.get("topology", {})
    need(topo.get("num_aps", 0) >= 1, "topology.num_aps must be >= 1")
    need(topo.get("num_ues", 0) >= 1, "topology.num_ues must be >= 1")
    for key in ("max_ue_power", "max_ap_power", "noise_variance"):
        need(topo.get(key, 0) > 0, f"topology.{key} must be positive")
    ch = sc.get("channel", {})
    need(ch.get("shadowing_std_db", 0) >= 0,
         "channel.shadowing_std_db must be nonnegative")
    N = sc.get("ofdm", {}).get("num_subcarriers", 0)
    need(N >= 1, "ofdm.num_subcarriers must be >= 1")
    need(ch.get("num_taps", 1) <= N, "channel.num_taps must not exceed N")
    assoc = sc.get("association", {})
    if assoc.get("method") == "distance":
        need(assoc.get("radius", 0) > 0, "association.radius must be positive")
    else:
        need(assoc.get("max_aps") or assoc.get("min_gain") is not None,
             "association needs max_aps and/or min_gain")
    demands = sc.get("allocation", {}).get("demands", 0)
    if isinstance(demands, int):
        total = demands * topo.get("num_ues", 0)
    else:
        total = sum(demands)
    # checked in both modes: one shared component may hold every UE
    need(total <= N, "allocation.demands exceed the subcarriers")
    dl = sc.get("downlink", {})
    if dl.get("enabled"):
        need(dl.get("precoder") in PRECODERS,
             f"downlink.precoder must be one of {PRECODERS}")
        need(dl.get("p_max", 0) > 0, "downlink.p_max must be positive")
        rho = dl.get("secrecy_rho")
        if rho is not None:
            need(_is_number(rho) and 0.0 <= rho <= 1.0,
                 "downlink.secrecy_rho must be a number in [0, 1]")
    tr = sc.get("training", {})
    if tr.get("enabled"):
        need(tr.get("num_symbols", 0) >= 1,
             "training.num_symbols must be >= 1")
        need(tr.get("pilot_power", 0) > 0,
             "training.pilot_power must be positive")
    return errors


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-split stream: worker layout can never change the draws."""
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
            if name.startswith("local_"):
                # the CPU of a local detector measures its output amplitude
                amp = np.mean(z * x.conj(), axis=0)
            else:
                amp = np.sqrt(scene.power[k]) * np.einsum(
                    "ni,ni->i", W.conj(), uplink.stacked_channel(scene, k))
            err = z - x * amp
            emp = np.abs(amp) ** 2 / np.mean(np.abs(err) ** 2, axis=0)
            out["empirical"][k] = float(np.mean(emp))
            decided = nearest_point(z / np.where(np.abs(amp) > 0, amp, 1.0),
                                    pts)
            out["ser"][k] = symbol_error_rate(decided, indices[k])

    out["rates"] = np.array([
        float(np.sum(np.log2(1.0 + s))) if np.all(np.isfinite(s)) else np.nan
        for s in out["analytic"]])
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
            mode=scenario["allocation"]["mode"], components=components)
        sinrs = dl_plan.dl_sinrs
        for k in range(K):
            result["dl_sinr"][k] = (float(np.mean(sinrs[k]))
                                    if len(sinrs[k]) else 0.0)
            result["dl_rate"][k] = float(np.sum(np.log2(1 + np.asarray(sinrs[k]))))
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
    """Run all trials and aggregate; raises ValueError on invalid config."""
    scenario = merge_scenario(scenario)
    errors = validate_scenario(scenario)
    if errors:
        raise ValueError("invalid scenario: " + "; ".join(errors))
    trials = range(scenario["trials"])
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(lambda t: run_trial(scenario, t), trials))
    else:
        per_trial = [run_trial(scenario, t) for t in trials]
    records = [rec for block in per_trial for rec in block]
    records.sort(key=lambda r: (r["trial"], r["ue"]))
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
    """Set a nested scenario field addressed as 'section.key'."""
    keys = path.split(".")
    node = scenario
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"bad parameter path {path!r}; sections: "
                             + ", ".join(sorted(scenario)))
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        valid = sorted(node) if isinstance(node, dict) else []
        raise ValueError(f"bad parameter path {path!r}; valid leaves: "
                         + ", ".join(valid))
    node[keys[-1]] = value


def sweep(scenario, path: str, values, workers: int = 1,
          common_random: bool = True) -> list:
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
        out.append({"value": value, "result": run_scenario(point, workers)})
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
