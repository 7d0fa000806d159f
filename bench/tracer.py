"""Outside-in span tracer for uccfsim's public functions.

The tracer never edits ``src/``.  While installed it replaces every binding
of each traced function object, in every loaded ``uccfsim`` module, with a
timing wrapper, and on exit it puts the originals back.  Spans are kept in
memory; each records its name, start, end, parent span and the trial index
inherited from the enclosing ``engine.run_trial`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# module -> traced public functions; modulation and cli are left out
# (negligible on every workload, and not on the trial path)
TRACED = {
    "engine": ("run_trial", "aggregate", "scenario_hash", "results_to_csv"),
    "topology": ("generate_topology", "associate_distance"),
    "channel": ("realize_channels",),
    "training": ("simulate_pilot_rx", "estimate_all"),
    "alloc": ("successive_optimize", "ul_rates", "maxmin_power_control",
              "allocate_subcarriers_greedy", "allocate_power_waterfill"),
    "uplink": ("uplink_sinr_all", "scene_covariance", "gmmse_weights",
               "weight_output_sinr", "simulate_uplink"),
    "apmp": ("apmp_detect", "message_round"),
    "downlink": ("tmmse_central_ofdm", "dl_sinr_ofdm"),
}

# per-call values read from a traced function's result, reported as their
# mean over calls: name -> {metric suffix: reader}
OBSERVED = {
    "alloc.maxmin_power_control": {
        "noise_limited_frac": lambda r: float(r.noise_limited)},
    "apmp.apmp_detect": {
        "iterations_mean": lambda r: float(r.iterations),
        "converged_frac": lambda r: float(r.converged)},
}

TRIAL_SPAN = "engine.run_trial"
# (percentile, 1 in how many samples lie beyond it)
TAIL_PERCENTILES = ((99.9, 1000), (99.0, 100), (90.0, 10), (50.0, 2))
MIN_BEYOND_TAIL = 10


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    name: str           # "<module>.<function>"
    module: object
    attr: str


def uccfsim_modules() -> list:
    """Every submodule of the uccfsim package, imported."""
    import uccfsim
    for info in pkgutil.iter_modules(uccfsim.__path__):
        importlib.import_module(f"uccfsim.{info.name}")
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "uccfsim" or key.startswith("uccfsim.")]


def uccfsim_targets() -> list:
    return [Target(f"{mod}.{fn}", importlib.import_module(f"uccfsim.{mod}"), fn)
            for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Context manager that wraps the targets for the duration of a block.

    A target whose function no longer exists is listed in ``absent`` and
    produces no metrics.
    """

    def __init__(self, targets, scan_modules, clock=time.perf_counter):
        self.targets = list(targets)
        self.scan_modules = list(scan_modules)
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.present: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    def __enter__(self):
        self.absent, self.present = [], []
        wrapped = {}
        for target in self.targets:
            original = getattr(target.module, target.attr, None)
            if not callable(original):
                self.absent.append(target.name)
                continue
            self.present.append(target.name)
            if id(original) in wrapped:
                continue
            wrapper = self._wrap(target.name, original)
            wrapped[id(original)] = wrapper
            for module in self.scan_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        takes_trial = name == TRIAL_SPAN and "trial" in signature.parameters
        readers = OBSERVED.get(name, {})
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            trial = parent.trial if parent else None
            if takes_trial:
                trial = signature.bind(*args, **kwargs).arguments["trial"]
            span = Span(next(tracer._ids), name,
                        parent.id if parent else None, trial)
            stack.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
                tracer.spans.append(span)
            for key, read in readers.items():
                span.info[key] = read(result)
            return result

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def tail_percentile(count: int):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p, one_in in TAIL_PERCENTILES:
        if count >= MIN_BEYOND_TAIL * one_in:
            return p
    return None


def layer_metrics(spans, present, trials: int) -> dict:
    """Per-layer metrics, normalized per trial, for the present targets."""
    if trials < 1:
        raise ValueError("layer metrics need at least one trial")
    selfs = self_times(spans)
    by_name: dict = {name: [] for name in present}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics = {}
    for name in present:
        group = by_name[name]
        metrics[f"{name}.calls"] = (len(group) / trials, "calls/trial")
        metrics[f"{name}.self_ms"] = (
            1e3 * sum(selfs[s.id] for s in group) / trials, "ms/trial")
        for suffix in OBSERVED.get(name, {}):
            values = [s.info[suffix] for s in group]
            metrics[f"{name}.{suffix}"] = (
                float(np.mean(values)) if values else 0.0,
                "count" if suffix.endswith("_mean") else "fraction")
        if name == TRIAL_SPAN and group:
            ms = np.array([1e3 * (s.end - s.start) for s in group])
            p = tail_percentile(ms.size)
            metrics[f"{name}.ms_p50"] = (float(np.median(ms)), "ms")
            metrics[f"{name}.ms_tail"] = (
                float(np.percentile(ms, p) if p else ms.max()), "ms")
    return metrics
