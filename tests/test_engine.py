import itertools
import warnings

import numpy as np
import pytest

import dense_oracles
from uccfsim import alloc, apmp, engine, uplink
from uccfsim.engine import (DETECTORS, merge_scenario, results_to_csv,
                            results_to_table, run_scenario, run_trial,
                            scenario_hash, set_by_path, sweep,
                            sweep_to_plot_data, trial_rng, validate_scenario)
from uccfsim.modulation import ue_rates

SMALL = {
    "name": "small", "trials": 2, "seed": 5,
    "topology": {"num_aps": 4, "num_ues": 2},
    "ofdm": {"num_subcarriers": 4},
    "allocation": {"demands": 2},
    "uplink": {"detector": "gmmse", "symbol_draws": 0},
}


class TestValidation:
    def test_default_scenario_is_valid(self):
        assert validate_scenario(merge_scenario()) == []

    def test_structured_errors_before_any_trial(self):
        bad = merge_scenario({"trials": 0,
                              "uplink": {"detector": "bogus"},
                              "ofdm": {"num_subcarriers": 0}})
        errors = validate_scenario(bad)
        assert len(errors) >= 3
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(bad)

    def test_demand_overflow_caught(self):
        bad = merge_scenario({**SMALL, "allocation": {"demands": 3}})
        assert any("demands" in e for e in validate_scenario(bad))

    @pytest.mark.parametrize("overrides,field", [
        ({"topology": {"num_aps": "4"}}, "topology.num_aps"),
        ({"ofdm": {"num_subcarriers": None}}, "ofdm.num_subcarriers"),
        ({"topology": {"noise_variance": True}}, "topology.noise_variance"),
        ({"allocation": {"demands": ["2", 2]}}, "allocation.demands"),
        ({"downlink": {"enabled": "0.5"}}, "downlink.enabled"),
    ])
    def test_non_numeric_value_is_a_diagnostic(self, overrides, field):
        errors = validate_scenario(merge_scenario(overrides))
        assert any(e.startswith(field) for e in errors)
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(overrides)

    @pytest.mark.parametrize("overrides,field,hint", [
        ({"topology": "x"}, "topology", "must be an object"),
        ({"uplink": {"apmp": 3}}, "uplink.apmp", "must be an object"),
        ({"topologyy": {"num_aps": 4}}, "topologyy", "did you mean topology?"),
        ({"uplink": {"detectr": "gmmse"}}, "uplink.detectr",
         "did you mean uplink.detector?"),
        ({"uplink": {"apmp": {"llr_clmp": 0.1}}}, "uplink.apmp.llr_clmp",
         "did you mean uplink.apmp.llr_clamp?"),
        ({"uplink": {"constellation": "bogus"}}, "uplink.constellation",
         "must be one of"),
        ({"uplink": {"symbol_draws": "abc"}}, "uplink.symbol_draws",
         "integer >= 0"),
        ({"uplink": {"symbol_draws": -1}}, "uplink.symbol_draws",
         "integer >= 0"),
        ({"seed": -3}, "seed", "integer >= 0"),
        ({"seed": 1.5}, "seed", "integer >= 0"),
        ({"topology": {"layout": "hex"}}, "topology.layout", "must be one of"),
        ({"allocation": {"mode": "both"}}, "allocation.mode",
         "must be one of"),
        ({"uplink": {"constellation": ["qpsk"]}}, "uplink.constellation",
         "must be one of"),
        ({"allocation": {"mode": "shared", "demands": 5}},
         "allocation.demands", "exceed"),
        ({"uplink": {"apmp": {"max_iterations": 2.5}}},
         "uplink.apmp.max_iterations", "integer >= 0"),
        ({"uplink": {"apmp": {"llr_clamp": "x"}}}, "uplink.apmp.llr_clamp",
         "must be a number"),
        ({"uplink": {"apmp": {"tol": "x"}}}, "uplink.apmp.tol",
         "must be a number"),
        ({"uplink": {"apmp": {"llr_clamp": -1}}}, "uplink.apmp.llr_clamp",
         "> 0"),
        ({"channel": {"a": "x"}}, "channel.a", "must be a number"),
        ({"training": {"enabled": 1}}, "training.enabled",
         "must be a boolean"),
        ({"downlink": {"precoder": 3}}, "downlink.precoder",
         "must be a string"),
        ({"allocation": {"min_rates": 0.0}}, "allocation.min_rates",
         "is not a known key"),
        ({"uplink": {"apmp": {"damping": 0.1}}}, "uplink.apmp.damping",
         "is not a known key"),
        ({"association": {"max_aps": "2"}}, "association.max_aps",
         "must be a number or null"),
        ({"training": {"num_symbol": 2}},
         "training.num_symbol", "did you mean training.num_symbols?"),
        ({"training": {"mui_suppression": True}}, "training.mui_suppression",
         "is not a known key"),
    ])
    def test_malformed_scenario_is_a_diagnostic(self, overrides, field, hint,
                                                monkeypatch):
        errors = validate_scenario(merge_scenario(overrides))
        assert any(e.startswith(field) and hint in e for e in errors), errors

        def no_trial(*args):
            raise AssertionError("a trial ran on an invalid scenario")

        monkeypatch.setattr(engine, "run_trial", no_trial)
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(overrides)

    @pytest.mark.parametrize("overrides", [
        {"allocation": {"demands": [0, 3]}},
        {"association": {"method": "large_scale", "max_aps": None,
                         "min_gain": 1e-12}},
    ])
    def test_list_and_null_leaves_stay_valid(self, overrides):
        assert validate_scenario(merge_scenario(overrides)) == []

    def test_downlink_enabled_is_a_boolean(self):
        for value in (0.5, 1, None, "true"):
            bad = merge_scenario({**SMALL, "downlink": {"enabled": value}})
            assert validate_scenario(bad) == [
                f"downlink.enabled must be a boolean, not {value!r}"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_snr_sinr_collapse_fails_the_audit():
    """One AP 5 m from one UE at noise 1e-24: the evaluated uplink SINRs
    lose every digit, water-filling drops the symbols and the UE reports
    rate 0. No such record may pass the audit."""
    res = run_scenario({"seed": 0, "trials": 20,
                        "topology": {"num_aps": 1, "num_ues": 1,
                                     "area_size": 5, "noise_variance": 1e-24},
                        "channel": {"shadowing_std_db": 0},
                        "allocation": {"demands": 2},
                        "uplink": {"detector": "gmmse"}})
    zero = [r for r in res["records"] if r["rate"] == 0]
    assert zero
    assert not any(r["audit_pass"] for r in zero)


@pytest.mark.parametrize("noise_variance", [1e-24, 1e-22])
@pytest.mark.parametrize("downlink", [False, True])
@pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
@pytest.mark.parametrize("detector", DETECTORS)
def test_extreme_snr_trials_finish_and_fail_the_audit(detector, objective,
                                                      downlink,
                                                      noise_variance):
    """At these noise levels the uplink and downlink covariances are
    singular to working precision (a LinAlgError in their solves), and the
    max-min bound comes out negative. Every trial still finishes, no record
    passes its audit, and a rate whose SINRs are unknown or negative is
    NaN, never negative or infinite."""
    res = run_scenario({"trials": 3,
                        "topology": {"noise_variance": noise_variance},
                        "allocation": {"objective": objective},
                        "uplink": {"detector": detector, "symbol_draws": 3},
                        "downlink": {"enabled": downlink}})
    results_to_csv(res)
    for rec in res["records"]:
        assert not rec["audit_pass"]
        assert np.isnan(rec["rate"]) or 0 <= rec["rate"] < np.inf
        if downlink:
            assert np.isnan(rec["dl_rate"]) or 0 <= rec["dl_rate"] < np.inf


# small networks at noise where the uplink planner's covariances are
# singular to working precision, in both modes and for both objectives;
# the detector rotates over DETECTORS and odd seeds run the downlink
EXTREME_SNR_GRID = {
    f"{noise:g}-M{M}K{K}-{mode}-{objective}-seed{seed}": {
        "seed": seed, "trials": 2,
        "topology": {"num_aps": M, "num_ues": K, "noise_variance": noise},
        "association": {"radius": 60.0 if K == 4 else 150.0},
        "allocation": {"objective": objective, "demands": 1, "mode": mode},
        "uplink": {"detector": DETECTORS[i % len(DETECTORS)],
                   "symbol_draws": 2},
        "downlink": {"enabled": seed % 2 == 1}}
    for i, (noise, (M, K), mode, objective, seed) in enumerate(
        itertools.product((1e-22, 1e-24),
                          ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4)),
                          ("exclusive", "shared"), ("sum_rate", "max_min"),
                          (0, 1)))}
# a singular covariance inside the uplink planner (LinAlgError)
EXTREME_SNR_GRID["planner-singular"] = {
    "topology": {"num_aps": 2, "noise_variance": 1e-22}, "trials": 2}
# a shared max-min fixed-point update past the largest double
EXTREME_SNR_GRID["maxmin-overflow"] = {
    "topology": {"num_aps": 4, "num_ues": 4, "noise_variance": 1e-21},
    "association": {"radius": 60.0},
    "allocation": {"objective": "max_min", "demands": 1, "mode": "shared"},
    "trials": 2, "seed": 9}


@pytest.mark.parametrize("scenario", EXTREME_SNR_GRID.values(),
                         ids=EXTREME_SNR_GRID.keys())
def test_extreme_snr_scenarios_return_and_flag_unknown_rates(scenario):
    """A valid scenario returns under warnings as errors, whatever its
    numerics, and a record whose rate is unknown fails its audit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_scenario(scenario)["records"]
    assert records
    assert not any(r["audit_pass"] for r in records
                   if not np.isfinite(r["rate"]))


def test_planner_failure_flags_only_its_trial(monkeypatch):
    """A LinAlgError in the uplink planner makes its trial's uplink rates
    and SINRs NaN and fails the trial's audit; the other trial is not
    touched, and the downlink, which does not use the uplink plan, is
    still planned."""
    directions = []
    optimize = alloc.successive_optimize

    def spy(*args, direction, **kwargs):
        directions.append(direction)
        return optimize(*args, direction=direction, **kwargs)

    monkeypatch.setattr(alloc, "successive_optimize", spy)
    records = run_scenario({**EXTREME_SNR_GRID["planner-singular"],
                            "downlink": {"enabled": True}})["records"]
    assert directions == ["ul", "dl", "ul", "dl"]
    fine, flagged = records[:2], records[2:]
    assert [r["trial"] for r in flagged] == [1, 1]
    assert all(np.isfinite(r["rate"]) for r in fine)
    for r in flagged:
        assert not r["audit_pass"]
        for key in ("rate", "effective_rate", "sinr_analytic",
                    "sinr_empirical", "ser", "sum_rate"):
            assert np.isnan(r[key])


@pytest.mark.parametrize("seed", [1, 97])
@pytest.mark.parametrize("overrides", [
    {},
    {"topology": {"num_aps": 8, "num_ues": 4, "area_size": 300.0},
     "ofdm": {"num_subcarriers": 8}, "channel": {"num_taps": 4},
     "association": {"radius": 200.0}, "allocation": {"demands": 2}}],
    ids=["M4", "M8"])
def test_default_noise_maxmin_plans_resolve_their_covariances(
        overrides, seed, monkeypatch):
    """At the default noise no max-min plan of the default (M4 K2 N8) or
    the M8 K4 N8 scenario comes near numpy's rank threshold, so
    ``ul_covariance_resolved`` never fails a record there."""
    optimize, audits = alloc.successive_optimize, []

    def spy_optimize(*args, **kwargs):
        plan = optimize(*args, **kwargs)
        audits.append(plan.audit)
        return plan

    monkeypatch.setattr(alloc, "successive_optimize", spy_optimize)
    scenario = {**overrides, "seed": seed, "trials": 250,
                "allocation": {**overrides.get("allocation", {}),
                               "objective": "max_min"}}
    run_scenario(scenario)
    assert len(audits) == 250
    assert all(audit["ul_covariance_resolved"] for audit in audits)


def test_a_nan_rate_exports_a_nan_analytic_sinr():
    """At noise 1e-22 some of the plan's closed-form SINRs, which ``apmp``
    reports, come out negative, so their UE's rate is NaN.  Their mean is
    no SINR either: it is exported as NaN, not as a number."""
    res = run_scenario({"trials": 3, "topology": {"noise_variance": 1e-22},
                        "uplink": {"detector": "apmp", "symbol_draws": 3}})
    nan_rate = [r for r in res["records"] if np.isnan(r["rate"])]
    assert nan_rate
    assert all(np.isnan(r["sinr_analytic"]) for r in nan_rate)
    assert not any(r["sinr_analytic"] < 0 for r in res["records"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("detector", [d for d in DETECTORS if d != "none"])
def test_zero_power_ue_reports_zero_sinr_in_every_family(detector):
    """The probe above with symbol draws: water-filling leaves the UE its
    subcarriers at zero power.  Every detector reports SINR 0 (not NaN)
    and still measures its decisions; the audit fails."""
    res = run_scenario({"seed": 0, "trials": 5,
                        "topology": {"num_aps": 1, "num_ues": 1,
                                     "area_size": 5, "noise_variance": 1e-24},
                        "channel": {"shadowing_std_db": 0},
                        "allocation": {"demands": 2},
                        "uplink": {"detector": detector, "symbol_draws": 5}})
    zero = [r for r in res["records"] if r["rate"] == 0]
    assert zero
    for r in zero:
        assert r["sinr_analytic"] == 0.0
        # APMP measures no output SINR; the linear detectors measure 0
        if detector != "apmp":
            assert r["sinr_empirical"] == 0.0
        assert 0.0 <= r["ser"] <= 1.0
        assert not r["audit_pass"]


def test_downlink_plan_that_sends_nothing_passes_the_audit():
    """No UE demands a subcarrier, so the downlink transmits nothing and
    has no power gain a0 to check; no constraint is violated."""
    res = run_scenario({"trials": 3, "allocation": {"demands": 0},
                        "downlink": {"enabled": True}})
    assert res["records"]
    assert all(r["audit_pass"] for r in res["records"])


@pytest.mark.parametrize("downlink", [{"p_max": 1e-30},
                                      {"p_max_element": 1e-25}])
def test_a_tiny_downlink_budget_keeps_every_downlink_metric_finite(downlink):
    """The water level would round the whole budget away against such
    small SINRs per unit power; the powers still spend it."""
    res = run_scenario({"downlink": {"enabled": True, **downlink}})
    for r in res["records"]:
        assert np.isfinite(r["dl_rate"]) and np.isfinite(r["dl_sinr"])


def test_triple_slope_default_scenario_has_usable_rates():
    """Distances in meters reach the triple-slope formula in km; in meters
    they added 105 dB of loss and every rate was below 1e-7."""
    res = run_scenario({"channel": {"pathloss": "triple_slope"}})
    assert all(r["rate"] > 1.0 for r in res["records"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_power_symbols_have_empirical_sinr_zero_not_nan():
    """Water-filling gives some of UE 1's symbols zero power (3 of 4 on
    every trial at this noise level); their measured amplitude and error
    are both 0, so the SINR is 0, not 0/0."""
    res = run_scenario({"trials": 5, "seed": 0,
                        "topology": {"noise_variance": 10**-1.5},
                        "uplink": {"detector": "local_equal",
                                   "symbol_draws": 2},
                        "allocation": {"demands": [0, 4]},
                        "channel": {"pathloss": "triple_slope"}})
    ue1 = [r for r in res["records"] if r["ue"] == 1]
    assert len(ue1) == 5
    assert all(np.isfinite(r["sinr_analytic"]) for r in ue1)
    assert all(np.isfinite(r["sinr_empirical"]) and r["sinr_empirical"] >= 0
               for r in ue1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("detector", ["local_equal", "local_mrc"])
def test_one_draw_leaves_local_detectors_without_empirical_sinr(detector):
    """A local detector measures its amplitude from the draws; from one draw
    that amplitude fits the draw exactly and leaves no error to measure, so
    the empirical SINR is NaN, not inf or ~1e31."""
    res = run_scenario({"trials": 3, "topology": {"num_aps": 1, "num_ues": 1},
                        "ofdm": {"num_subcarriers": 1},
                        "channel": {"num_taps": 1},
                        "allocation": {"demands": 1},
                        "uplink": {"detector": detector, "symbol_draws": 1,
                                   "constellation": "bpsk"}})
    assert len(res["records"]) == 3
    for rec in res["records"]:
        assert np.isnan(rec["sinr_empirical"])
        assert np.isfinite(rec["sinr_analytic"]) and np.isfinite(rec["ser"])
        assert rec["audit_pass"]


class TestDeterminism:
    def test_same_seed_bit_identical_csv(self):
        a = results_to_csv(run_scenario(SMALL))
        b = results_to_csv(run_scenario(SMALL))
        assert a == b

    def test_each_trial_alone_matches_its_records_in_the_batch(self):
        # a trial's draws depend only on (seed, trial), never on the batch;
        # running the trials alone in reverse order catches a stream that
        # carries state from one trial to the next
        def fields(records):
            return [{k: v for k, v in r.items() if k != "wall_time"}
                    for r in records]

        result = run_scenario({**SMALL, "trials": 4,
                               "uplink": {"symbol_draws": 3}})
        for t in reversed(range(4)):
            batch = [r for r in result["records"] if r["trial"] == t]
            assert len(batch) == 2
            np.testing.assert_equal(fields(batch),
                                    fields(run_trial(result["scenario"], t)))

    def test_scenario_is_hashed_once_per_run(self, monkeypatch):
        calls = []
        real = engine.scenario_hash

        def spy(scenario):
            calls.append(scenario["seed"])
            return real(scenario)

        monkeypatch.setattr(engine, "scenario_hash", spy)
        result = run_scenario({**SMALL, "trials": 3})
        assert calls == [SMALL["seed"]]
        assert {r["hash"] for r in result["records"]} == {
            real(result["scenario"])}

    def test_pilot_plan_is_built_once_per_scenario(self, monkeypatch):
        calls = []
        real = engine.training.make_pilot_plan

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine.training, "make_pilot_plan", spy)
        engine._pilot_plan.cache_clear()
        trained = {**SMALL, "trials": 3, "training": {"enabled": True}}
        for pilot_power in (1.0, 1.0, 2.0):
            trained["training"]["pilot_power"] = pilot_power
            run_scenario(trained)
        assert len(calls) == 2

    def test_different_seeds_differ(self):
        a = run_scenario(SMALL)
        b = run_scenario({**SMALL, "seed": 6})
        assert (a["aggregate"]["sum_rate"]["mean"]
                != b["aggregate"]["sum_rate"]["mean"])

    def test_trial_rng_streams_are_stable(self):
        x = trial_rng(3, 7).standard_normal(4)
        y = trial_rng(3, 7).standard_normal(4)
        z = trial_rng(3, 8).standard_normal(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


class TestPipelineOutputs:
    def test_record_fields_complete(self):
        res = run_scenario(SMALL)
        assert len(res["records"]) == 2 * 2   # trials x UEs
        rec = res["records"][0]
        from uccfsim.engine import CSV_COLUMNS
        assert set(CSV_COLUMNS) <= set(rec)
        assert "wall_time" in rec
        assert rec["audit_pass"]

    def test_estimated_csi_approaches_genie_with_pilot_power(self):
        # full association: every AP estimates every UE, so no pilot
        # contamination from unmodeled users and the error truly vanishes
        base = {**SMALL, "trials": 3,
                "association": {"method": "distance", "radius": 1e6},
                "channel": {"shadowing_std_db": 2.0, "num_taps": 2}}
        genie = run_scenario(base)
        strong = run_scenario({**base,
                               "training": {"enabled": True,
                                            "num_symbols": 2,
                                            "pilot_power": 1e8}})
        g = genie["aggregate"]["sum_rate"]["mean"]
        e = strong["aggregate"]["sum_rate"]["mean"]
        assert abs(e - g) / g < 0.01
        assert strong["aggregate"]["nmse"]["mean"] < 1e-6

    def test_weak_pilots_degrade_nmse(self):
        base = {**SMALL, "trials": 3}
        weak = run_scenario({**base,
                             "training": {"enabled": True, "num_symbols": 2,
                                          "pilot_power": 1e2}})
        strong = run_scenario({**base,
                               "training": {"enabled": True, "num_symbols": 2,
                                            "pilot_power": 1e8}})
        assert (weak["aggregate"]["nmse"]["mean"]
                > strong["aggregate"]["nmse"]["mean"])

    def test_gmmse_dominates_reduced_on_shared_seed(self):
        cfg = {**SMALL, "trials": 100,
               "association": {"method": "large_scale", "max_aps": 2}}
        full = run_scenario({**cfg, "uplink": {"detector": "gmmse"}})
        reduced = run_scenario({**cfg, "uplink": {"detector": "lmmse_reduced"}})
        g = np.array([r["sum_rate"] for r in full["records"] if r["ue"] == 0])
        r = np.array([r["sum_rate"] for r in reduced["records"] if r["ue"] == 0])
        assert g.mean() >= r.mean()
        assert np.mean(g >= r - 1e-9) > 0.95

    def test_training_overhead_discounts_rate(self):
        cfg = {**SMALL,
               "training": {"enabled": True, "num_symbols": 2,
                            "pilot_power": 1e6, "coherence_symbols": 8}}
        res = run_scenario(cfg)
        for rec in res["records"]:
            assert rec["effective_rate"] == pytest.approx(0.75 * rec["rate"])

    def test_downlink_records_populated(self):
        cfg = {**SMALL, "downlink": {"enabled": True, "p_max": 1.0}}
        res = run_scenario(cfg)
        for rec in res["records"]:
            assert np.isfinite(rec["dl_rate"])
            assert rec["audit_pass"]

    def test_distributed_precoders_run(self):
        for precoder in ("dist_mf", "dist_tzf", "dist_regmmse"):
            cfg = {**SMALL, "trials": 1,
                   "downlink": {"enabled": True, "precoder": precoder}}
            res = run_scenario(cfg)
            assert all(np.isfinite(rec["dl_sinr"]) for rec in res["records"])

    @pytest.mark.parametrize("objective", ["sum_rate", "max_min"])
    @pytest.mark.parametrize("precoder", ["dist_mf", "dist_tzf",
                                          "dist_regmmse"])
    def test_distributed_precoders_report_their_downlink_plan(
            self, precoder, objective, monkeypatch):
        plans = []
        optimize = alloc.successive_optimize

        def spy(*args, **kwargs):
            plan = optimize(*args, **kwargs)
            if kwargs["direction"] == "dl":
                assert kwargs["precoder"] == precoder
                plans.append(plan)
            return plan

        monkeypatch.setattr(alloc, "successive_optimize", spy)
        res = run_scenario({**SMALL, "trials": 3,
                            "topology": {"num_aps": 8, "num_ues": 4},
                            "ofdm": {"num_subcarriers": 8},
                            "allocation": {"objective": objective},
                            "downlink": {"enabled": True,
                                         "precoder": precoder}})
        assert len(plans) == 3
        for t, plan in enumerate(plans):
            recs = [r for r in res["records"] if r["trial"] == t]
            assert plan.audit["pass"] and plan.a0 > 0
            assert [r["dl_rate"] for r in recs] == \
                ue_rates(plan.dl_sinrs).tolist()
            assert all(r["audit_pass"] for r in recs)

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_every_detector_gives_finite_rates_and_measured_sinr(self,
                                                                 detector):
        draws = 20 if detector == "apmp" else 2000
        res = run_scenario({**SMALL, "trials": 3,
                            "association": {"method": "large_scale",
                                            "max_aps": 2},
                            "uplink": {"detector": detector,
                                       "symbol_draws": draws}})
        for rec in res["records"]:
            assert np.isfinite(rec["rate"])
            assert rec["audit_pass"]
            if detector in ("apmp", "none"):
                continue
            # the residual power is a mean of `draws` samples of |e|^2, whose
            # relative spread is at most 1/sqrt(draws) (the complex Gaussian
            # value; constant-modulus interference spreads less), so the
            # measured SINR stays within five standard deviations
            assert np.isfinite(rec["sinr_analytic"])
            assert rec["sinr_empirical"] == pytest.approx(
                rec["sinr_analytic"], rel=5 / np.sqrt(draws))

    def test_shared_mode_runs_and_plans_per_component(self, monkeypatch):
        seen = []
        optimize = alloc.successive_optimize

        def spy(*args, **kwargs):
            seen.append((kwargs.get("direction"), kwargs["components"]))
            return optimize(*args, **kwargs)

        monkeypatch.setattr(alloc, "successive_optimize", spy)
        res = run_scenario({**SMALL, "trials": 4,
                            "allocation": {"mode": "shared", "demands": 2},
                            "downlink": {"enabled": True}})
        assert [d for d, _ in seen] == ["ul", "dl"] * 4
        assert all(c for _, c in seen)
        for rec in res["records"]:
            assert rec["audit_pass"]
            assert np.isfinite(rec["rate"]) and np.isfinite(rec["dl_rate"])

    def test_refine_iterations_reach_both_directions(self, monkeypatch):
        seen = []
        optimize = alloc.successive_optimize

        def spy(*args, **kwargs):
            seen.append((kwargs["direction"], kwargs["refine_iterations"]))
            return optimize(*args, **kwargs)

        monkeypatch.setattr(alloc, "successive_optimize", spy)
        run_scenario({**SMALL, "trials": 2,
                      "allocation": {"demands": 2, "refine_iterations": 3},
                      "downlink": {"enabled": True}})
        assert seen == [("ul", 3), ("dl", 3)] * 2

    def test_zero_power_symbols_add_no_rate(self, monkeypatch):
        # at this SNR water-filling leaves some symbols at power 0; their
        # SINR is 0, so they add nothing to the rate (0/0 once read as inf
        # and added about 1024 bits/s/Hz)
        seen = []
        evaluate = uplink.weight_output_sinr

        def spy(*args):
            seen.append(evaluate(*args))
            return seen[-1]

        monkeypatch.setattr(uplink, "weight_output_sinr", spy)
        res = run_scenario({"topology": {"noise_variance": 1e-8,
                                         "area_size": 1000.0},
                            "association": {"radius": 2000.0},
                            "allocation": {"demands": 4},
                            "seed": 2, "trials": 40})
        assert any(np.any(sinrs == 0) for sinrs in seen)
        for rec in res["records"]:
            assert 0 <= rec["rate"] < 100
            assert np.isfinite(rec["sinr_analytic"])
            assert rec["audit_pass"]

    def test_non_finite_sinr_gives_nan_rate_and_fails_audit(self,
                                                             monkeypatch):
        evaluate = uplink.weight_output_sinr

        def broken(scene, V):
            sinrs = evaluate(scene, V)
            sinrs[0] = np.inf            # UE 0's first symbol
            return sinrs

        monkeypatch.setattr(uplink, "weight_output_sinr", broken)
        res = run_scenario({**SMALL, "trials": 1})
        rates = {rec["ue"]: rec["rate"] for rec in res["records"]}
        assert np.isnan(rates[0]) and np.isfinite(rates[1])
        assert not any(rec["audit_pass"] for rec in res["records"])

    def test_apmp_detector_records_iterations(self):
        cfg = {**SMALL, "trials": 1,
               "uplink": {"detector": "apmp", "symbol_draws": 10,
                          "constellation": "bpsk"}}
        res = run_scenario(cfg)
        assert np.isfinite(res["records"][0]["apmp_iterations"])
        assert np.isfinite(res["records"][0]["ser"])

    @pytest.mark.parametrize("max_iterations", [0, 8])
    def test_apmp_trial_equals_one_detection_per_draw(self, monkeypatch,
                                                      max_iterations):
        """A trial detects its draws in one batched ``apmp_detect`` call;
        its SER and mean iteration count equal a loop of one call per
        draw."""
        calls, drawn = [], []
        detect, simulate = apmp.apmp_detect, uplink.simulate_uplink

        def spy_detect(*args):
            calls.append(args)
            return detect(*args)

        def spy_simulate(*args):
            drawn.append(simulate(*args))
            return drawn[-1]

        monkeypatch.setattr(apmp, "apmp_detect", spy_detect)
        monkeypatch.setattr(uplink, "simulate_uplink", spy_simulate)
        scenario = merge_scenario({
            **SMALL, "topology": {"num_aps": 4, "num_ues": 3},
            "ofdm": {"num_subcarriers": 8},
            "uplink": {"detector": "apmp", "symbol_draws": 12,
                       "apmp": {"max_iterations": max_iterations}}})
        trials = [run_trial(scenario, t) for t in range(6)]
        monkeypatch.undo()
        assert len(calls) == len(drawn) == len(trials)
        for records, (scene, assoc, ys, config), (indices, y) \
                in zip(trials, calls, drawn):
            assert ys.shape == (12, scene.num_aps, scene.num_subcarriers)
            ser, iterations = dense_oracles.apmp_draw_loop(
                scene, assoc, y, indices, config)
            np.testing.assert_array_equal([r["ser"] for r in records], ser)
            assert all(r["apmp_iterations"] == iterations for r in records)

    def test_apmp_rate_proxy_comes_from_the_plan(self, monkeypatch):
        """An APMP trial evaluates the closed-form SINRs only inside the
        allocation (twice at ``refine_iterations`` 1), and its analytic
        SINRs are those of the last evaluation, at the emitted powers."""
        calls, planning = [], []
        sinr_all, optimize = uplink.uplink_sinr_all, alloc.successive_optimize

        def spy_sinrs(scene, eta):
            assert planning, "uplink_sinr_all called outside the allocation"
            calls.append((scene, eta))
            return sinr_all(scene, eta)

        def spy_optimize(*args, **kwargs):
            planning.append(True)
            try:
                return optimize(*args, **kwargs)
            finally:
                planning.pop()

        for module in (uplink, alloc):
            monkeypatch.setattr(module, "uplink_sinr_all", spy_sinrs)
        monkeypatch.setattr(alloc, "successive_optimize", spy_optimize)
        scenario = merge_scenario({
            **SMALL, "uplink": {"detector": "apmp", "symbol_draws": 4},
            "allocation": {"demands": [2, 0], "refine_iterations": 1}})
        for trial in range(4):
            calls.clear()
            records = run_trial(scenario, trial)
            assert len(calls) == 2
            scene, eta = calls[-1]
            want = scene.split(sinr_all(scene, eta))
            assert records[0]["sinr_analytic"] == np.mean(want[0])
            assert records[0]["rate"] == ue_rates(want)[0]
            assert np.isnan(records[1]["sinr_analytic"])
            assert records[1]["rate"] == 0.0

    def test_noise_limited_maxmin_trial_never_calls_the_kernel(
            self, monkeypatch):
        """On exclusive max-min plans (M8 K4 N8) every symbol is alone on
        its subcarrier, so its SINR is its power times the channel energy:
        the allocation builds no scene and makes no ``uplink_sinr_all``
        call, and every power control ends noise-limited."""
        calls, built, results = [], [], []
        control = alloc.maxmin_power_control

        def spy_sinrs(scene, eta):
            calls.append(eta)
            raise AssertionError("uplink_sinr_all called")

        def spy_build(*args):
            built.append(args)
            raise AssertionError("equal_power_scene called")

        def spy_control(*args, **kwargs):
            results.append(control(*args, **kwargs))
            return results[-1]

        for module in (uplink, alloc):
            monkeypatch.setattr(module, "uplink_sinr_all", spy_sinrs)
        monkeypatch.setattr(alloc, "equal_power_scene", spy_build)
        monkeypatch.setattr(alloc, "maxmin_power_control", spy_control)
        scenario = merge_scenario({
            "seed": 1, "topology": {"num_aps": 8, "num_ues": 4,
                                    "area_size": 300.0},
            "ofdm": {"num_subcarriers": 8}, "channel": {"num_taps": 4},
            "association": {"radius": 200.0},
            "allocation": {"objective": "max_min", "demands": 2}})
        for trial in range(4):
            run_trial(scenario, trial)
        assert not calls and not built
        assert len(results) == 4
        assert all(r.noise_limited for r in results)

    @pytest.mark.parametrize("detector", DETECTORS)
    @pytest.mark.parametrize("overrides", [
        {"allocation": {"demands": [2, 0]}},
        {"association": {"method": "large_scale", "min_gain": 1e9}},
        {"allocation": {"demands": 0}}])
    def test_apmp_leaves_ser_nan_without_detected_symbols(self, overrides,
                                                          detector):
        """A UE with no subcarriers or no association has no SER under
        ``apmp``, as under every other detector, and ``none`` detects no
        symbol at all; a plan without any symbol runs too."""
        def ser(detector):
            res = run_scenario({**overrides, "trials": 2,
                                "uplink": {"detector": detector,
                                           "symbol_draws": 5}})
            return np.isnan([r["ser"] for r in res["records"]])

        assert ser("apmp").any()
        np.testing.assert_array_equal(
            ser(detector), True if detector == "none" else ser("apmp"))


class TestExport:
    def test_csv_schema_and_precision(self):
        res = run_scenario(SMALL)
        text = results_to_csv(res)
        lines = text.splitlines()
        from uccfsim.engine import CSV_COLUMNS
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(res["records"])
        rate_col = CSV_COLUMNS.index("rate")
        value = lines[1].split(",")[rate_col]
        assert len(value.replace(".", "").replace("-", "")
                   .replace("e", "").replace("+", "").lstrip("0")) <= 10

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            results_to_csv({"records": []})

    def test_single_record_single_row(self):
        cfg = {**SMALL, "trials": 1,
               "topology": {"num_aps": 2, "num_ues": 1}}
        text = results_to_csv(run_scenario(cfg))
        assert len(text.splitlines()) == 2

    def test_table_mentions_hash_and_ci(self):
        res = run_scenario(SMALL)
        table = results_to_table(res)
        assert scenario_hash(res["scenario"]) in table
        assert "95% CI" in table


class TestSweep:
    def test_bad_path_lists_valid_leaves(self):
        with pytest.raises(ValueError, match="bad parameter path"):
            set_by_path(merge_scenario(), "topology.bogus_field", 3)

    def test_association_radius_sweep_runs_and_sets_grow(self):
        cfg = {**SMALL, "trials": 3}
        points = sweep(cfg, "association.radius", [80.0, 160.0, 320.0])
        assert [p["value"] for p in points] == [80.0, 160.0, 320.0]
        # with common random numbers the trial-0 topology is shared, so the
        # association sets must grow with the radius
        from uccfsim import topology as topo_mod
        rng = trial_rng(cfg["seed"], 0)
        topo = topo_mod.generate_topology(4, 2, 250.0, "uniform", rng)
        small_set = topo_mod.associate_distance(topo, 80.0)
        large_set = topo_mod.associate_distance(topo, 320.0)
        for k in range(2):
            assert set(small_set.ap_sets[k]) <= set(large_set.ap_sets[k])

    def test_snr_sweep_monotone_for_single_ue(self):
        cfg = {**SMALL, "trials": 2,
               "topology": {"num_aps": 3, "num_ues": 1}}
        noise = [1e-10, 1e-11, 1e-12, 1e-13]
        points = sweep(cfg, "topology.noise_variance", noise)
        rows = sweep_to_plot_data(points, "sum_rate")
        means = [row[1] for row in rows]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_common_random_numbers_pair_runs(self):
        cfg = {**SMALL, "trials": 2}
        paired = sweep(cfg, "uplink.symbol_draws", [0, 0], common_random=True)
        a = results_to_csv(paired[0]["result"])
        b = results_to_csv(paired[1]["result"])
        assert a == b
        unpaired = sweep(cfg, "uplink.symbol_draws", [0, 0],
                         common_random=False)
        assert (unpaired[0]["result"]["aggregate"]["sum_rate"]["mean"]
                != unpaired[1]["result"]["aggregate"]["sum_rate"]["mean"])

    def test_independent_seeds_keep_a_swept_seed(self):
        points = sweep({"trials": 2}, "seed", [3, 4], common_random=False)
        for point, seed in zip(points, [3, 4]):
            assert point["value"] == seed
            assert point["result"]["scenario"]["seed"] == seed
            assert results_to_csv(point["result"]) == results_to_csv(
                run_scenario({"trials": 2, "seed": seed}))

    def test_plot_data_shape(self):
        cfg = {**SMALL, "trials": 2}
        points = sweep(cfg, "topology.noise_variance", [1e-12, 1e-11])
        rows = sweep_to_plot_data(points)
        assert len(rows) == 2
        for value, mean, lo, hi in rows:
            assert lo <= mean <= hi

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            sweep_to_plot_data([])


class TestAggregation:
    def test_ci_shrinks_with_trials(self):
        cfg = {**SMALL, "topology": {"num_aps": 2, "num_ues": 1},
               "ofdm": {"num_subcarriers": 2}, "allocation": {"demands": 2}}
        small = run_scenario({**cfg, "trials": 100})
        large = run_scenario({**cfg, "trials": 1000})
        def half_width(res):
            s = res["aggregate"]["sum_rate"]
            return s["ci_hi"] - s["ci_lo"]
        ratio = half_width(small) / half_width(large)
        # sqrt(10) ~ 3.2 expected; allow generous sampling slack
        assert 1.8 < ratio < 6.0

    def test_aggregate_holds_builtin_numbers(self):
        res = run_scenario({**SMALL, "trials": 3})
        for stat in res["aggregate"].values():
            values = stat.values() if isinstance(stat, dict) else [stat]
            assert all(type(v) in (float, int) for v in values)

    def test_audit_fraction_is_one(self):
        res = run_scenario({**SMALL, "trials": 5})
        assert res["aggregate"]["audit_pass_fraction"] == 1.0
