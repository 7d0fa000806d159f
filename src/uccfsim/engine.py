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
from functools import lru_cache

import numpy as np

from . import alloc, apmp, channel, topology, training, uplink
from .modulation import CONSTELLATIONS, symbol_error_rate, ue_rates

DEFAULT_SCENARIO = {
    "name": "scenario",
    "seed": 0,
    "trials": 10,
    "topology": {
        "num_aps": 4, "num_ues": 2, "area_size": 250.0, "layout": "uniform",
        "ap_height": 15.0, "ue_height": 1.65, "carrier_freq_mhz": 1900.0,
        "max_ue_power": 0.1, "noise_variance": 1e-12,
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
                 "coherence_symbols": 0},
    "allocation": {"objective": "sum_rate", "demands": 2,
                   "mode": "exclusive", "refine_iterations": 1},
    "uplink": {"detector": "gmmse", "symbol_draws": 0,
               "constellation": "qpsk",
               "apmp": {"max_iterations": 8, "tol": 1e-4, "llr_clamp": 50.0}},
    "downlink": {"enabled": False, "p_max": 1.0, "p_max_element": None,
                 "precoder": "tmmse_ofdm", "reg": None},
}

DETECTORS = ("gmmse", "gmmse_per_subcarrier", "lmmse_sliced", "lmmse_reduced",
             "local_equal", "local_mrc", "local_ls_linear", "local_ls_sqrt",
             "apmp", "none")


@dataclass(frozen=True)
class Rule:
    """The valid values of one scenario leaf: a finite int or float of
    ``kind`` (an int for int, never a bool) from ``lo`` to ``hi``, the
    interval closed (``ends`` "[]") or open at ``lo`` ("(]"); a bool; or a
    str, one of ``names`` if given. ``null`` admits None too, ``per_ue`` a
    list of numbers."""
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
                and v <= self.hi)

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
        bound = (f"in {self.ends[0]}{self.lo:g}, {self.hi:g}]"
                 if self.hi < math.inf else
                 f"{'>' if self.ends[0] == '(' else '>='} {self.lo:g}")
        return f"{kinds} (integer {bound})" if self.kind is int \
            else f"{kinds} {bound}"


# every leaf of DEFAULT_SCENARIO by dotted path, with the bounds that the
# model constructors enforce (DoubleSlope, TripleSlope, pdp_profile,
# NetworkTopology, ApmpConfig, compute_a0, distributed_directions)
RULES = {
    "name": Rule(str),
    **dict.fromkeys(("seed", "training.coherence_symbols",
                     "uplink.symbol_draws", "uplink.apmp.max_iterations"),
                    Rule(int, 0)),
    **dict.fromkeys(("trials", "topology.num_aps", "topology.num_ues",
                     "channel.num_taps", "ofdm.num_subcarriers",
                     "training.num_symbols"),
                    Rule(int, 1)),
    **dict.fromkeys(("topology.area_size", "topology.ap_height",
                     "topology.ue_height", "topology.carrier_freq_mhz",
                     "topology.max_ue_power", "topology.noise_variance",
                     "channel.d_break", "channel.d0", "channel.d1",
                     "association.radius", "training.pilot_power",
                     "uplink.apmp.llr_clamp", "downlink.p_max"),
                    Rule(float, 0, ends="(]")),
    **dict.fromkeys(("channel.shadowing_std_db", "channel.pdp_decay",
                     "uplink.apmp.tol"), Rule(float, 0)),
    **dict.fromkeys(("training.enabled", "downlink.enabled"), Rule(bool)),
    "topology.layout": Rule(str, names=("uniform", "grid")),
    "channel.pathloss": Rule(str, names=("double_slope", "triple_slope")),
    "channel.a": Rule(float, 1.5, 3.0), "channel.b": Rule(float, 2.0, 6.0),
    "association.method": Rule(str, names=("distance", "large_scale")),
    "association.max_aps": Rule(int, 1, null=True),
    "association.min_gain": Rule(float, 0, null=True),
    "allocation.objective": Rule(str, names=("sum_rate", "max_min")),
    "allocation.demands": Rule(int, 0, per_ue=True),
    "allocation.mode": Rule(str, names=("exclusive", "shared")),
    "allocation.refine_iterations": Rule(int, 0, 10),
    "uplink.detector": Rule(str, names=DETECTORS),
    "uplink.constellation": Rule(str, names=tuple(CONSTELLATIONS)),
    "downlink.p_max_element": Rule(float, 0, ends="(]", null=True),
    "downlink.precoder": Rule(str, names=("tmmse_ofdm", "dist_mf",
                                          "dist_tzf", "dist_regmmse")),
    "downlink.reg": Rule(float, 0, null=True),
}


# wall_time stays in the records but out of the CSV: the export must be
# bit-identical for identical (scenario, seed)
CSV_COLUMNS = ["scenario", "hash", "seed", "trial", "ue", "detector",
               "precoder", "rate", "effective_rate", "sinr_analytic",
               "sinr_empirical", "ser", "nmse", "sum_rate", "dl_rate",
               "dl_sinr", "apmp_iterations", "audit_pass"]


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
    ch, cfg = sc["channel"], sc["allocation"]
    assoc, demands = sc["association"], cfg["demands"]
    per_ue = isinstance(demands, list)
    checks = {
        "channel.num_taps must not exceed N": ch["num_taps"] <= N,
        "channel.d0 must be below channel.d1 for triple_slope":
            ch["pathloss"] != "triple_slope" or ch["d0"] < ch["d1"],
        f"allocation.demands must list one value for each of the {K} UEs":
            not per_ue or len(demands) == K,
        # checked in both modes: one shared component may hold every UE
        "allocation.demands exceed the subcarriers":
            (sum(demands) if per_ue else demands * K) <= N,
        "association needs max_aps and/or min_gain":
            assoc["method"] == "distance" or assoc["max_aps"] is not None
            or assoc["min_gain"] is not None,
    }
    return [message for message, ok in checks.items() if not ok]


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-split stream: a trial's draws depend only on (seed, trial)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,)))


def _build_channel_model(scenario) -> channel.LargeScaleModel:
    cfg, topo = scenario["channel"], scenario["topology"]
    if cfg["pathloss"] == "double_slope":
        variant = channel.DoubleSlope(cfg["a"], cfg["b"], cfg["d_break"])
    else:
        variant = channel.TripleSlope(cfg["d0"], cfg["d1"],
                                      topo["carrier_freq_mhz"],
                                      topo["ap_height"], topo["ue_height"])
    return channel.LargeScaleModel(variant, cfg["shadowing_std_db"])


def _associate(scenario, topo, gains):
    cfg = scenario["association"]
    if cfg["method"] == "distance":
        return topology.associate_distance(topo, cfg["radius"])
    return topology.associate_large_scale(gains, cfg.get("max_aps"),
                                          cfg.get("min_gain"))


@lru_cache(maxsize=8)
def _pilot_plan(num_ues, num_subcarriers, num_symbols, num_taps, pilot_power):
    """The pilot plan of a scenario, built once: every trial reuses its
    observation matrices and matched filter."""
    return training.make_pilot_plan(num_ues, num_subcarriers, num_symbols,
                                    num_taps, pilot_power=pilot_power)


def _estimate_channels(scenario, real, assoc, rng):
    cfg = scenario["training"]
    N = real.num_subcarriers
    plan = _pilot_plan(real.gains.shape[1], N, cfg["num_symbols"],
                       scenario["channel"]["num_taps"], cfg["pilot_power"])
    Y, _ = training.simulate_pilot_rx(
        plan, real, assoc, scenario["topology"]["noise_variance"], rng)
    estimates = training.estimate_all(Y, plan, assoc)
    # the estimated taps already carry sqrt(g)
    return (channel.subcarrier_gains(estimates, 1.0, N),
            training.nmse(estimates, real, assoc))


def _detect_uplink(scenario, scene, assoc, gains, plan_sinrs, rng):
    """Analytic/empirical SINR, per-UE rates, and SER for the configured
    detector; rates always come from the analytic symbol SINRs.

    A linear detector gives per-AP weights V (M, S) on the scene's flat
    symbol layout (local detection its CPU-fused weights), evaluated in one
    call (``uplink.weight_output_sinr``, or ``uplink.combined_sinr`` for
    the local family) and, with symbol draws, measured in one
    ``uplink.measure_output`` call; ``scene.split`` reads each UE's part.
    A UE whose signal is zero reports SINR 0, not NaN; one without symbols
    keeps empirical SINR and SER NaN.  APMP reports ``plan_sinrs``, the
    allocation's closed-form MMSE symbol SINRs, as its rate proxy."""
    cfg = scenario["uplink"]
    name = cfg["detector"]
    K = scene.num_ues
    draws = int(cfg["symbol_draws"])
    points_name = cfg["constellation"]
    out = {"analytic": [np.empty(0)] * K,
           "empirical": [np.nan] * K, "ser": [np.nan] * K,
           "apmp_iterations": np.nan}

    if name == "apmp":
        config = apmp.ApmpConfig(**cfg["apmp"], points=points_name)
        ser_draws = max(draws, 1)
        indices, y = uplink.simulate_uplink(scene, ser_draws, rng, points_name)
        res = apmp.apmp_detect(scene, assoc, y, config)
        # per-draw SERs summed in draw order: the CSV pins this rounding;
        # a UE with no detected symbol keeps SER NaN
        out["ser"] = [np.nan if d is None else
                      sum(np.mean(d != indices[k], axis=1)) / ser_draws
                      for k, d in enumerate(res.decisions)]
        out["apmp_iterations"] = float(np.mean(res.draw_iterations))
        # the plan's analytic MMSE SINRs are the rate proxy for APMP trials
        out["analytic"] = plan_sinrs
    elif name != "none":
        local = name.startswith("local_")
        try:
            if name == "gmmse":
                V = uplink.gmmse_weights(scene)
            elif name == "gmmse_per_subcarrier":
                V = uplink.gmmse_per_subcarrier(scene)
            elif name == "lmmse_sliced":
                V = uplink.lmmse_column_sliced(scene, assoc)
            elif name == "lmmse_reduced":
                V = uplink.lmmse_reduced(scene, assoc)
            else:   # local_ls_sqrt combines in mode large_scale_sqrt
                mode = name.removeprefix("local_").replace("ls", "large_scale")
                V = uplink.combined_weights(scene, uplink.combining_lambdas(
                    scene, assoc, mode, gains))
            analytic = (uplink.combined_sinr if local
                        else uplink.weight_output_sinr)(scene, V)
            out["analytic"] = scene.split(analytic)
            if draws > 0:
                indices, y = uplink.simulate_uplink(scene, draws, rng,
                                                    points_name)
                sinrs, decided = uplink.measure_output(
                    scene, V, y, np.concatenate(indices, axis=1),
                    points_name, measured=local)
                out["empirical"] = [np.mean(s) if s.size else np.nan
                                    for s in scene.split(sinrs)]
                out["ser"] = [symbol_error_rate(d, i) if i.size else np.nan
                              for d, i in zip(scene.split(decided, axis=1),
                                              indices)]
        except np.linalg.LinAlgError:
            # a numerically singular covariance: every SINR is unknown
            out["analytic"] = scene.split(np.full(len(scene.sub), np.nan))

    out["rates"] = ue_rates(out["analytic"])
    return out


def _run_downlink(scenario, real, assoc, ue_groups):
    """The per-UE rates and mean symbol SINRs of the configured precoder's
    downlink plan, and whether that plan passes its audit."""
    cfg, alloc_cfg = scenario["downlink"], scenario["allocation"]
    K = real.freq.shape[1]
    try:
        plan = alloc.successive_optimize(
            real.freq, assoc, alloc_cfg["demands"],
            objective=alloc_cfg["objective"], direction="dl",
            noise_var=scenario["topology"]["noise_variance"],
            p_max=cfg["p_max"], p_max_element=cfg["p_max_element"],
            precoder=cfg["precoder"], reg=cfg["reg"], ue_groups=ue_groups,
            refine_iterations=alloc_cfg["refine_iterations"])
    except np.linalg.LinAlgError:
        # a numerically singular precoder bracket: every SINR is unknown
        return {"dl_rate": np.full(K, np.nan), "dl_sinr": np.full(K, np.nan),
                "audit_pass": False}
    return {"dl_rate": ue_rates(plan.dl_sinrs),
            "dl_sinr": np.array([np.mean(s) if len(s) else 0.0
                                 for s in plan.dl_sinrs]),
            "audit_pass": plan.audit.get("pass", False)}


def run_trial(scenario, trial: int, digest=None) -> list:
    """One full pipeline pass; returns one record dict per UE.  ``digest``
    is the scenario's hash when the caller already has it."""
    rng = trial_rng(scenario["seed"], trial)
    t0 = time.perf_counter()
    topo_cfg = scenario["topology"]
    topo = topology.generate_topology(
        topo_cfg["num_aps"], topo_cfg["num_ues"], topo_cfg["area_size"],
        topo_cfg["layout"], rng, max_ue_power=topo_cfg["max_ue_power"],
        noise_variance=topo_cfg["noise_variance"])
    model = _build_channel_model(scenario)
    N = scenario["ofdm"]["num_subcarriers"]
    real = channel.realize_channels(topo, model, N,
                                    scenario["channel"]["num_taps"], rng,
                                    scenario["channel"]["pdp_decay"])
    assoc = _associate(scenario, topo, real.gains)

    nmse = np.nan
    hf = real.freq
    if scenario["training"]["enabled"]:
        hf, nmse = _estimate_channels(scenario, real, assoc, rng)

    ue_groups = ([sorted(ues) for _, ues
                  in topology.build_factor_graph(assoc).components]
                 if scenario["allocation"]["mode"] == "shared" else None)

    # plan with the global evaluator regardless of detector, so that
    # detector comparisons on a shared seed run identical allocations
    gamma_u = topo.max_ue_power / topo.noise_variance
    K = topo.num_ues
    try:
        plan = alloc.successive_optimize(
            hf, assoc, scenario["allocation"]["demands"],
            objective=scenario["allocation"]["objective"], direction="ul",
            gamma_u=gamma_u, ue_groups=ue_groups,
            refine_iterations=scenario["allocation"]["refine_iterations"])
    except np.linalg.LinAlgError:
        # a numerically singular covariance while planning: every uplink
        # SINR and rate is unknown, and the trial fails its audit
        plan = None
        det = {"analytic": [np.empty(0)] * K, "empirical": [np.nan] * K,
               "ser": [np.nan] * K, "apmp_iterations": np.nan,
               "rates": np.full(K, np.nan)}
    else:
        scene = uplink.UplinkScene(freq=hf, subcarriers=plan.subcarriers,
                                   power=plan.ul_power, gamma_u=gamma_u)
        det = _detect_uplink(scenario, scene, assoc, real.gains,
                             plan.ul_sinrs, rng)

    dl = {"dl_rate": np.full(K, np.nan), "dl_sinr": np.full(K, np.nan)}
    audit_pass = (plan is not None and plan.audit.get("pass", False)
                  and bool(np.all(np.isfinite(det["rates"]))))
    if scenario["downlink"]["enabled"]:
        dl = _run_downlink(scenario, real, assoc, ue_groups)
        audit_pass = audit_pass and dl["audit_pass"]

    overhead = 0.0
    tr = scenario["training"]
    if tr["enabled"] and tr["coherence_symbols"]:
        overhead = min(tr["num_symbols"] / tr["coherence_symbols"], 1.0)

    wall = time.perf_counter() - t0
    sum_rate = float(np.sum(det["rates"]))
    digest = digest or scenario_hash(scenario)
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
            # a NaN rate marks SINRs that are unknown or negative
            "sinr_analytic": (float(np.mean(analytic)) if np.size(analytic)
                              and np.isfinite(det["rates"][k]) else np.nan),
            "sinr_empirical": float(det["empirical"][k]),
            "ser": float(det["ser"][k]),
            "nmse": float(nmse),
            "sum_rate": sum_rate,
            "dl_rate": float(dl["dl_rate"][k]),
            "dl_sinr": float(dl["dl_sinr"][k]),
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
    digest = scenario_hash(scenario)
    records = [rec for t in range(scenario["trials"])
               for rec in run_trial(scenario, t, digest)]
    return {"scenario": scenario, "records": records,
            "aggregate": aggregate(records)}


def aggregate(records) -> dict:
    """Mean and 95% confidence interval of the headline metrics, by trial.

    The UEs of one trial share its topology and allocation, so they are
    not independent draws.  A per-UE metric is first averaged over each
    trial's finite values; its mean and CI are those of these per-trial
    means (batch means), and its ``count`` is the number of trials with a
    finite value.  ``sum_rate`` is one value per trial already.
    """
    # each record's trial as an index into the sorted distinct trials
    _, first, trial = np.unique([r["trial"] for r in records],
                                return_index=True, return_inverse=True)
    out = {"sum_rate": _mean_ci([records[i]["sum_rate"] for i in first])}
    for key in ("rate", "ser", "sinr_analytic", "sinr_empirical", "nmse",
                "dl_rate"):
        vals = np.array([r[key] for r in records], dtype=float)
        finite = np.isfinite(vals)
        counts = np.bincount(trial, finite, len(first))
        if counts.any():
            sums = np.bincount(trial, np.where(finite, vals, 0.0), len(first))
            out[key] = _mean_ci(sums[counts > 0] / counts[counts > 0])
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
    comparisons); otherwise each point derives its own unless seed is swept.
    """
    scenario = merge_scenario(scenario)
    out = []
    for i, value in enumerate(values):
        point = json.loads(json.dumps(scenario))
        set_by_path(point, path, value)
        if not common_random and path != "seed":
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
