"""Every detector's and every downlink precoder's per-record output, pinned
on one scenario.

The pins cover paths that no benchmark workload runs: the local fusion
detectors, the column-sliced and reduced MMSE detectors,
``gmmse_per_subcarrier`` with symbol draws, and the centralized and
distributed downlink precoders.  Regenerate the JSON files with
``PYTHONPATH=src python tests/test_detector_pin.py`` only for a change
that is meant to alter results, and say which values moved.
"""

import json
import math
from pathlib import Path

import pytest

from uccfsim.engine import DETECTORS, RULES, run_scenario

PIN = Path(__file__).with_name("detector_pin.json")
PRECODER_PIN = Path(__file__).with_name("precoder_pin.json")
DRAWS = (0, 1, 3)
MODES = ("exclusive", "shared")
PRECODERS = RULES["downlink.precoder"].names
EXACT = ("trial", "ue", "detector", "audit_pass")
CLOSE = ("rate", "sinr_analytic", "sinr_empirical", "ser")
DL_EXACT = ("trial", "ue", "precoder", "audit_pass")
DL_CLOSE = ("dl_rate", "dl_sinr")


def pin_scenario(detector, draws, mode, precoder=None):
    scenario = {"name": "pin", "seed": 3, "trials": 2,
                "topology": {"num_aps": 8, "num_ues": 4},
                "association": {"method": "large_scale", "max_aps": 3},
                "allocation": {"mode": mode},
                "uplink": {"detector": detector, "symbol_draws": draws}}
    if precoder is not None:
        # sparser APs split the UEs into several components in trial 1, so
        # that shared mode reuses subcarriers there
        scenario["topology"].update(num_aps=12, area_size=600.0)
        scenario["downlink"] = {"enabled": True, "precoder": precoder}
    return scenario


def case_key(*case):
    return "/".join(map(str, case))


def columns(scenario, exact, close):
    """The compared fields as columns over the records, NaN as null."""
    records = run_scenario(scenario)["records"]
    out = {key: [r[key] for r in records] for key in exact}
    out.update({key: [None if math.isnan(r[key]) else r[key]
                      for r in records] for key in close})
    return out


def current(detector, draws, mode):
    return columns(pin_scenario(detector, draws, mode), EXACT, CLOSE)


def current_downlink(precoder, mode):
    return columns(pin_scenario("gmmse", 0, mode, precoder), DL_EXACT,
                   DL_CLOSE)


CASES = [(d, n, m) for d in DETECTORS for n in DRAWS for m in MODES]
PRECODER_CASES = [(p, m) for p in PRECODERS for m in MODES]


def assert_matches(got, want, exact, close):
    for key in exact:
        assert got[key] == want[key], key
    for key in close:
        assert len(got[key]) == len(want[key]), key
        for g, w in zip(got[key], want[key]):
            if w is None:
                assert g is None, key
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=0), key


@pytest.mark.parametrize("detector,draws,mode", CASES)
def test_detector_output_matches_the_pin(detector, draws, mode):
    want = json.loads(PIN.read_text())[case_key(detector, draws, mode)]
    assert_matches(current(detector, draws, mode), want, EXACT, CLOSE)


@pytest.mark.parametrize("precoder,mode", PRECODER_CASES)
def test_precoder_output_matches_the_pin(precoder, mode):
    want = json.loads(PRECODER_PIN.read_text())[case_key(precoder, mode)]
    got = current_downlink(precoder, mode)
    assert all(got["audit_pass"]) and all(map(math.isfinite,
                                              got["dl_rate"]))
    assert_matches(got, want, DL_EXACT, DL_CLOSE)


def write_pin(path, cases, measure):
    lines = [f"{json.dumps(case_key(*case))}: {json.dumps(measure(*case))}"
             for case in cases]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_pin(PIN, CASES, current)
    write_pin(PRECODER_PIN, PRECODER_CASES, current_downlink)
