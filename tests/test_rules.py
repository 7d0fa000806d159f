"""Property tests over the validator's rule table: every scenario drawn
inside the rows' ranges validates and runs a trial, and pushing any one
leaf outside its row gives a diagnostic under that leaf's path before any
trial runs."""

import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uccfsim import engine
from uccfsim.engine import (DEFAULT_SCENARIO, RULES, merge_scenario,
                            run_scenario, run_trial, validate_scenario)


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
         "uplink.symbol_draws": (0, 3), "uplink.apmp.max_iterations": (0, 8),
         "downlink.ap_antennas": (1, 3)}
SPREADS = {"channel.shadowing_std_db": 8.0, "channel.pdp_decay": 2.0,
           "uplink.apmp.tol": 1e-2, "allocation.min_rates": 5.0,
           "association.min_gain": 1e-9, "downlink.reg": 1e-9}
TIED = {"channel.num_taps", "channel.d0", "channel.d1", "allocation.demands",
        "association.max_aps"}       # and ap_antennas under zero forcing


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
        values = st.floats(rule.lo, rule.hi, exclude_min=rule.ends[0] == "(",
                           exclude_max=rule.ends[1] == ")")
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
    if draw(st.booleans()):
        sc["allocation"]["min_rates"] = draw(st.lists(
            st.floats(0.0, 5.0), min_size=K, max_size=K))
    # the large-scale method needs a stop rule
    needs_max = sc["association"]["min_gain"] is None
    sc["association"]["max_aps"] = draw(
        st.integers(1, 4) if needs_max else st.none() | st.integers(1, 4))
    dl = sc["downlink"]
    if dl["precoder"] == "dist_tzf" or (dl["precoder"] == "dist_regmmse"
                                        and dl["reg"] == 0):
        dl["ap_antennas"] = draw(st.integers(K, 3))
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
        bad.append(rule.hi if rule.ends[1] == ")" else rule.hi + 1)
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
