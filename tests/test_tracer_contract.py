"""The benchmark tracer's contract with the package: every function that
``bench/tracer.py`` traces exists, and a traced run of each benchmark
workload gives every per-layer metric that ``BENCHMARK.json`` lists, but
``trace.overhead_frac``, which ``bench/run.py`` adds itself.  A renamed
or deleted traced function would otherwise drop its metrics from a
benchmark run that still reports itself correct."""

import json
import math
import sys
from pathlib import Path

import pytest

from uccfsim import engine

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from tracer import (Tracer, layer_metrics, uccfsim_modules,  # noqa: E402
                    uccfsim_targets)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PER_LAYER = [metric["name"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if metric["name"] != "trace.overhead_frac"]
TRIALS = 2


def test_every_traced_function_exists():
    with Tracer(uccfsim_targets(), uccfsim_modules()) as tracer:
        pass
    assert tracer.absent == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_workload_run_gives_every_per_layer_metric(name):
    workload = WORKLOADS[name]
    tracer = Tracer(uccfsim_targets(), uccfsim_modules())
    with tracer:
        # one batch as the benchmark runs it: the trials, then the CSV
        result = engine.run_scenario(
            workload.scenario(DEFAULT_SEED, trials=TRIALS), workload.workers)
        engine.results_to_csv(result)
    metrics = layer_metrics(tracer.spans, tracer.present, TRIALS)
    assert [m for m in PER_LAYER if m not in metrics] == []
    assert all(math.isfinite(value) for value, _ in metrics.values())
