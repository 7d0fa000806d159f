"""Tests of the benchmark's own machinery: tracer, gate and workloads."""

import math
import sys
import textwrap
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
from run import (CALIBRATION_SHARE, at_reference_speed,  # noqa: E402
                 calibrate_after, import_engine, trimmed_mean)
from tracer import (Span, Target, Tracer, layer_metrics, self_times,  # noqa: E402
                    tail_percentile, uccfsim_modules, uccfsim_targets)
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402

engine = import_engine()


def fake_module():
    mod = types.ModuleType("fake")
    exec(textwrap.dedent("""
        def inner():
            return 1

        def outer():
            return inner() + inner()
    """), mod.__dict__)
    return mod


def test_self_time_of_nested_call():
    mod = fake_module()
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]).__next__
    targets = [Target("fake.outer", mod, "outer"),
               Target("fake.inner", mod, "inner")]
    with Tracer(targets, [mod], clock=clock) as tracer:
        assert mod.outer() == 2
    selfs = self_times(tracer.spans)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(selfs[span.id])
    assert by_name == {"fake.outer": [7.0], "fake.inner": [2.0, 1.0]}
    outer = next(s for s in tracer.spans if s.name == "fake.outer")
    assert all(s.parent == outer.id for s in tracer.spans
               if s.name == "fake.inner")


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", None, 0, 0.0, 10.0),
             Span(1, "c", 0, 0, 1.0, 4.0), Span(2, "c", 0, 0, 3.0, 6.0),
             Span(3, "c", 0, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_are_per_trial():
    spans = [Span(0, "engine.run_trial", None, 0, 0.0, 0.004),
             Span(1, "uplink.uplink_sinr_all", 0, 0, 0.001, 0.002),
             Span(2, "engine.run_trial", None, 1, 0.004, 0.006)]
    metrics = layer_metrics(spans, ["engine.run_trial",
                                    "uplink.uplink_sinr_all"], trials=2)
    assert metrics["uplink.uplink_sinr_all.calls"] == (0.5, "calls/trial")
    assert metrics["engine.run_trial.self_ms"][0] == pytest.approx(2.5)
    assert metrics["engine.run_trial.ms_p50"][0] == pytest.approx(3.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(10_000) == 99.9


def test_missing_function_is_absent_not_zero():
    mod = fake_module()
    targets = [Target("fake.outer", mod, "outer"),
               Target("fake.gone", mod, "gone")]
    with Tracer(targets, [mod]) as tracer:
        mod.outer()
    assert tracer.absent == ["fake.gone"]
    metrics = layer_metrics(tracer.spans, tracer.present, trials=1)
    assert "fake.outer.calls" in metrics
    assert not any(key.startswith("fake.gone") for key in metrics)


def test_every_binding_is_wrapped_and_then_restored():
    modules = uccfsim_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    from uccfsim import cli
    original = engine.results_to_csv
    scenario = WORKLOADS["many_small"].scenario(1, trials=2)
    with Tracer(uccfsim_targets(), modules) as tracer:
        # cli imported results_to_csv by name: that binding is traced too
        assert cli.results_to_csv is engine.results_to_csv
        assert engine.results_to_csv is not original
        engine.results_to_csv(engine.run_scenario(scenario))
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span.name for span in tracer.spans}
    assert {"engine.run_trial", "engine.results_to_csv",
            "uplink.uplink_sinr_all"} <= names
    assert {span.trial for span in tracer.spans
            if span.name == "channel.realize_channels"} == {0, 1}


@pytest.mark.parametrize("name", ["many_small", "apmp_draws"])
def test_tracing_changes_no_result(name):
    workload = WORKLOADS[name]
    scenario = workload.scenario(1, trials=2)
    plain = engine.run_scenario(scenario, workload.workers)
    with Tracer(uccfsim_targets(), uccfsim_modules()) as tracer:
        traced = engine.run_scenario(scenario, workload.workers)
    assert tracer.spans
    assert gate.same_records(plain["records"], traced["records"])
    assert engine.results_to_csv(plain) == engine.results_to_csv(traced)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_scenarios_are_valid(name):
    for seed in REFERENCE_SEEDS:
        scenario = engine.merge_scenario(WORKLOADS[name].scenario(seed))
        assert engine.validate_scenario(scenario) == []


def test_gate_flags_out_of_tolerance_and_grid_changes():
    result = engine.run_scenario(WORKLOADS["many_small"].scenario(1, trials=3))
    records = result["records"]
    entry = gate.reference_entry(result, engine.results_to_csv(result))
    assert gate.reference_failures(records, entry) == (set(), True)
    assert gate.invariant_failures(records, 3, 2) == set()

    nudged = [dict(r) for r in records]
    nudged[2]["rate"] *= 1 + gate.RTOL / 10
    assert gate.reference_failures(nudged, entry) == (set(), True)
    nudged[2]["rate"] *= 1 + gate.RTOL * 10
    assert gate.reference_failures(nudged, entry) == ({nudged[2]["trial"]}, True)

    broken = [dict(r) for r in records]
    broken[0]["rate"] = math.nan
    broken[-1]["audit_pass"] = False
    assert gate.invariant_failures(broken, 3, 2) == {0, 2}
    assert gate.reference_failures(records[:-1], entry) == ({0, 1, 2}, False)


def test_committed_reference_matches_workloads():
    for name, workload in WORKLOADS.items():
        refs = gate.load_reference(name)
        assert sorted(refs) == sorted(REFERENCE_SEEDS)
        assert all(e["trials"] == workload.batch_trials for e in refs.values())


def test_trimmed_mean_drops_one_tenth_each_side():
    assert trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert trimmed_mean([100.0, 1.0, 2.0, 3.0, -50.0]) == 2.0
    assert trimmed_mean(list(range(20))) == pytest.approx(9.5)
    assert trimmed_mean([0.0] * 2 + [5.0] * 16 + [1e9] * 2) == 5.0


def test_reference_speed_scales_by_calibration():
    # on a host half as fast as the reference, work and calibration both
    # take twice as long, and the scaled time is what the reference sees
    assert at_reference_speed(3.0, 0.020) == pytest.approx(1.5)


def test_calibration_lasts_a_share_of_the_work():
    samples = calibrate_after(0.2)
    assert samples and all(s > 0 for s in samples)
    assert sum(samples) >= CALIBRATION_SHARE * 0.2
    assert len(calibrate_after(0.0)) == 1
