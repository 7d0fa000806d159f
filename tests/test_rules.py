"""Property tests over the validator's rule table: every scenario drawn
inside the rows' ranges validates and runs a trial, and pushing any one
leaf outside its row gives a diagnostic under that leaf's path before any
trial runs.  Nothing is unreachable: every leaf moves the CSV by more
than round-off, the README's schema is the defaults and its CSV header
the columns, and every public function or class of the package has a
caller outside the unit tests, and every dataclass field a reader."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uccfsim
from uccfsim import engine
from uccfsim.engine import (DEFAULT_SCENARIO, RULES, merge_scenario,
                            results_to_csv, run_scenario, run_trial,
                            validate_scenario)

ROOT = Path(__file__).resolve().parents[1]


def leaf_paths(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def set_leaf(scenario, path, value):
    *sections, key = path.split(".")
    node = scenario
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value


def get_leaf(scenario, path):
    node = scenario
    for key in path.split("."):
        node = node[key]
    return node


# draws kept to small sizes and moderate magnitudes, all inside their rows;
# the sizes and the leaves tied by a cross-field check are drawn by
# `scenarios` itself
SIZES = {"topology.num_aps": (1, 4), "topology.num_ues": (1, 2),
         "ofdm.num_subcarriers": (1, 8), "trials": (1, 3),
         "seed": (0, 2**32), "training.num_symbols": (1, 3),
         "training.coherence_symbols": (0, 50),
         "uplink.symbol_draws": (0, 3), "uplink.apmp.max_iterations": (0, 8)}
SPREADS = {"channel.shadowing_std_db": 8.0, "channel.pdp_decay": 2.0,
           "uplink.apmp.tol": 1e-2, "association.min_gain": 1e-9,
           "downlink.reg": 1e-9}
TIED = {"channel.num_taps", "channel.d0", "channel.d1", "allocation.demands",
        "association.max_aps"}


def inside(path):
    """Values of one leaf inside its row."""
    rule, default = RULES[path], get_leaf(DEFAULT_SCENARIO, path)
    if rule.names:
        values = st.sampled_from(rule.names)
    elif rule.kind is bool:
        values = st.booleans()
    elif rule.kind is str:
        values = st.text(max_size=8)
    elif rule.kind is int:
        lo, hi = SIZES.get(path, (rule.lo, min(rule.hi, rule.lo + 10)))
        values = st.integers(lo, hi)
    elif math.isfinite(rule.hi):
        values = st.floats(rule.lo, rule.hi, exclude_min=rule.ends[0] == "(")
    elif path in SPREADS:
        values = st.floats(0.0, SPREADS[path],
                           exclude_min=rule.ends[0] == "(")
    else:
        # a positive quantity: within a decade either side of its default
        scale = 1.0 if default is None else default
        values = st.floats(-1.0, 1.0).map(lambda e: scale * 10.0**e)
    if rule.null:
        values = st.none() | values
    return values


@st.composite
def scenarios(draw):
    sc = {}
    for path in leaf_paths(DEFAULT_SCENARIO):
        if path not in TIED:
            set_leaf(sc, path, draw(inside(path)))
    K = sc["topology"]["num_ues"]
    N = sc["ofdm"]["num_subcarriers"]
    sc["channel"]["num_taps"] = draw(st.integers(1, N))
    d0 = draw(st.floats(1.0, 50.0))
    sc["channel"]["d0"] = d0
    sc["channel"]["d1"] = d0 * draw(st.floats(1.01, 10.0))
    if draw(st.booleans()):
        sc["allocation"]["demands"] = draw(st.integers(0, N // K))
    else:
        sc["allocation"]["demands"] = draw(
            st.lists(st.integers(0, N), min_size=K, max_size=K)
            .filter(lambda d: sum(d) <= N))
    # the large-scale method needs a stop rule
    needs_max = sc["association"]["min_gain"] is None
    sc["association"]["max_aps"] = draw(
        st.integers(1, 4) if needs_max else st.none() | st.integers(1, 4))
    return sc


def outside(rule, value):
    """Values that break ``rule``, near the drawn ``value``."""
    if rule.names:
        return ["bogus", 3]
    if rule.kind is bool:
        return [1, "yes"]
    if rule.kind is str:
        return [3]
    bad = ["x", True]
    if not rule.null:
        bad.append(None)
    low = rule.lo if rule.ends[0] == "(" else rule.lo - 1
    if math.isfinite(rule.lo):
        bad.append(low)
    if math.isfinite(rule.hi):
        bad.append(rule.hi + 1)
    bad.append(rule.lo + 0.5 if rule.kind is int else math.inf)
    if rule.per_ue and isinstance(value, list):
        bad.append([*value[:-1], low])
    return bad


def no_trial(*args):
    raise AssertionError("a trial ran on an invalid scenario")


def test_rules_cover_every_leaf():
    assert set(RULES) == set(leaf_paths(DEFAULT_SCENARIO))
    for path in RULES:
        assert RULES[path].accepts(get_leaf(DEFAULT_SCENARIO, path)), path
        assert RULES[path].ends in ("[]", "(]"), path


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=scenarios())
def test_scenarios_inside_the_rules_validate_and_run(sc):
    scenario = merge_scenario(sc)
    assert validate_scenario(scenario) == []
    records = run_trial(scenario, 0)
    assert len(records) == sc["topology"]["num_ues"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=scenarios(), path=st.sampled_from(sorted(RULES)), data=st.data())
def test_a_leaf_outside_its_rule_is_a_diagnostic(sc, path, data):
    value = get_leaf(sc, path)
    bad = data.draw(st.sampled_from(outside(RULES[path], value)))
    set_leaf(sc, path, bad)
    errors = validate_scenario(merge_scenario(sc))
    assert any(e.startswith(path + " ") for e in errors), (bad, errors)
    with mock.patch.object(engine, "run_trial", no_trial):
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(sc)


# Every leaf is live: each row names a small context scenario and an
# in-rule value, other than the context's, that changes the CSV outside
# its hash column by more than round-off.
TRIPLE = {"channel": {"pathloss": "triple_slope"}}
LARGE_SCALE = {"association": {"method": "large_scale", "max_aps": 4}}
TRAINING = {"training": {"enabled": True}}
# low enough an SNR for QPSK and BPSK decisions to err
NOISY = {"topology": {"noise_variance": 1e-5},
         "uplink": {"symbol_draws": 20}}
APMP = {"uplink": {"detector": "apmp", "symbol_draws": 20}}
DOWNLINK = {"downlink": {"enabled": True}}
SHARED = {"topology": {"num_aps": 16, "num_ues": 8, "area_size": 800.0},
          "ofdm": {"num_subcarriers": 16}, "association": {"radius": 150.0}}
LIVE = {
    "name": ({}, "other"), "seed": ({}, 1), "trials": ({}, 2),
    "topology.num_aps": ({}, 3), "topology.num_ues": ({}, 3),
    "topology.area_size": ({}, 400.0), "topology.layout": ({}, "grid"),
    "topology.ap_height": (TRIPLE, 30.0), "topology.ue_height": (TRIPLE, 3.0),
    "topology.carrier_freq_mhz": (TRIPLE, 2400.0),
    "topology.max_ue_power": ({}, 0.2),
    "topology.noise_variance": ({}, 1e-11),
    "channel.pathloss": ({}, "triple_slope"), "channel.a": ({}, 2.5),
    "channel.b": ({}, 3.0), "channel.d_break": ({}, 50.0),
    "channel.d0": ({**TRIPLE, "topology": {"area_size": 100.0}}, 30.0), "channel.d1": (TRIPLE, 80.0),
    "channel.shadowing_std_db": ({}, 8.0), "channel.num_taps": ({}, 3),
    "channel.pdp_decay": ({}, 1.0), "ofdm.num_subcarriers": ({}, 16),
    "association.method": ({}, "large_scale"),
    "association.radius": ({}, 60.0),
    "association.max_aps": (LARGE_SCALE, 1),
    "association.min_gain": (LARGE_SCALE, 1e-4),
    "training.enabled": ({}, True), "training.num_symbols": (TRAINING, 1),
    "training.pilot_power": (TRAINING, 0.01),
    "training.coherence_symbols": (TRAINING, 10),
    "allocation.objective": ({}, "max_min"), "allocation.demands": ({}, 1),
    "allocation.mode": (SHARED, "shared"),
    "allocation.refine_iterations": (NOISY, 0),
    "uplink.detector": ({}, "local_mrc"), "uplink.symbol_draws": ({}, 10),
    "uplink.constellation": (NOISY, "bpsk"),
    "uplink.apmp.max_iterations": (APMP, 0),
    "uplink.apmp.tol": (APMP, 0.0),
    "uplink.apmp.llr_clamp": ({"uplink": {**APMP["uplink"],
                                          "apmp": {"llr_clamp": 50.0}}}, 1e6),
    "downlink.enabled": ({}, True), "downlink.p_max": (DOWNLINK, 0.5),
    "downlink.p_max_element": (DOWNLINK, 0.01),
    "downlink.precoder": (DOWNLINK, "dist_mf"),
    "downlink.reg": ({"downlink": {"enabled": True,
                                   "precoder": "dist_regmmse"}}, 1e-9),
}
# a nullable number is read for its value, not only for being set: a
# context and two different non-null values of it that give different CSVs
NULLABLE = {
    "association.max_aps": ({"association": {"method": "large_scale"}}, 1, 2),
    "association.min_gain": (LARGE_SCALE, 1e-4, 1e-6),
    "downlink.p_max_element": (DOWNLINK, 0.01, 0.001),
    "downlink.reg": ({"downlink": {"enabled": True,
                                   "precoder": "dist_regmmse"}}, 1e-9, 1e-6),
}


def gate_module():
    """The benchmark's correctness gate, for its tolerances."""
    spec = importlib.util.spec_from_file_location("gate",
                                                  ROOT / "bench" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = gate_module()


def moved_beyond_round_off(first, second) -> bool:
    """Whether two runs differ in more than round-off: a float column by
    more than the benchmark gate's tolerance, or a non-float column other
    than the hash."""
    def moved(x, y):
        if isinstance(x, float):
            return not ((math.isnan(x) and math.isnan(y)) or math.isclose(
                x, y, rel_tol=GATE.RTOL, abs_tol=GATE.ATOL))
        return x != y

    a, b = (run_scenario(s)["records"] for s in (first, second))
    return len(a) != len(b) or any(
        moved(ra[col], rb[col]) for ra, rb in zip(a, b)
        for col in engine.CSV_COLUMNS if col != "hash")


def csv_without_hash(scenario):
    rows = [line.split(",") for line in results_to_csv(
        run_scenario(scenario)).splitlines()]
    col = rows[0].index("hash")
    return [row[:col] + row[col + 1:] for row in rows]


def test_live_and_dead_leaves_cover_the_rules():
    assert set(LIVE) == set(RULES)


@pytest.mark.parametrize("path", sorted(LIVE))
def test_every_live_leaf_moves_the_csv(path):
    context, value = LIVE[path]
    base = merge_scenario({"trials": 3, **context})
    assert get_leaf(base, path) != value
    other = merge_scenario(base)
    set_leaf(other, path, value)
    assert validate_scenario(other) == []
    assert moved_beyond_round_off(base, other)


@pytest.mark.parametrize("path", sorted(NULLABLE))
def test_two_values_of_a_nullable_number_give_different_csvs(path):
    assert set(NULLABLE) == {p for p, rule in RULES.items()
                             if rule.null and rule.kind in (int, float)}
    context, first, second = NULLABLE[path]
    runs = []
    for value in (first, second):
        scenario = merge_scenario({"trials": 3, **context})
        set_leaf(scenario, path, value)
        assert validate_scenario(scenario) == []
        runs.append(csv_without_hash(scenario))
    assert runs[0] != runs[1]


def test_readme_schema_is_the_default_scenario():
    readme = (ROOT / "README.md").read_text()
    schema = readme.split("## Scenario schema", 1)[1]
    block = schema.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert json.loads(re.sub(r"//.*", "", block)) == DEFAULT_SCENARIO


def test_readme_csv_header_is_the_csv_columns():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CSV schema", 1)[1].split("```\n", 1)[1]
    header = block.split("```", 1)[0].replace("\n", "")
    assert header.split(",") == engine.CSV_COLUMNS


def test_every_public_name_is_used_outside_the_unit_tests():
    """Each public function or class of every ``uccfsim`` module, and each
    public method or property of those classes, serves the package, a demo
    or an acceptance criterion; reference copies that only tests read
    belong in ``tests/dense_oracles.py`` or in their test.  Each field of
    those classes that are dataclasses is read there too, or by the
    benchmark's tracer."""
    files = (sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "demos").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    used, read = set(), set()
    for path in files + [ROOT / "bench" / "tracer.py"]:
        # names read, attributes and imports; a definition, a docstring or
        # a comment is not a use, and a field is read as an attribute only
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            if path not in files:
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    public, fields = [], []
    members = (property, functools.cached_property, classmethod, staticmethod)
    for info in pkgutil.iter_modules(uccfsim.__path__):
        module = importlib.import_module(f"uccfsim.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None)
                    != module.__name__):
                continue
            if inspect.isfunction(obj):
                public.append((info.name, name))
            elif inspect.isclass(obj):
                public.append((info.name, name))
                if dataclasses.is_dataclass(obj):
                    fields += [f"{info.name}.{name}.{f.name}"
                               for f in dataclasses.fields(obj)]
                public += [(f"{info.name}.{name}", attr)
                           for attr, member in vars(obj).items()
                           if not attr.startswith("_")
                           and (inspect.isfunction(member)
                                or isinstance(member, members))]
    assert ("uplink", "measure_output") in public
    assert ("uplink.UplinkScene", "split") in public
    assert ("topology.AssociationMap", "num_aps") in public
    assert [f"{m}.{name}" for m, name in public if name not in used] == []
    assert "alloc.MaxMinResult.noise_limited" in fields
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read] == []


@pytest.mark.parametrize("path", ["topology.ap_height", "topology.ue_height",
                                  "topology.carrier_freq_mhz"])
def test_radio_knobs_act_through_the_triple_slope_only(path):
    def rates(pathloss, value=None):
        scenario = merge_scenario({"trials": 3,
                                   "channel": {"pathloss": pathloss}})
        if value is not None:
            set_leaf(scenario, path, value)
        return [r["rate"] for r in run_scenario(scenario)["records"]]

    moved = 2 * get_leaf(DEFAULT_SCENARIO, path)
    assert rates("triple_slope", moved) != rates("triple_slope")
    assert rates("double_slope", moved) == rates("double_slope")
