"""Every detector's per-record output, pinned on one scenario.

The pin covers paths that no benchmark workload runs: the local fusion
detectors, the column-sliced and reduced MMSE detectors, and
``gmmse_per_subcarrier`` with symbol draws.  Regenerate the JSON with
``PYTHONPATH=src python tests/test_detector_pin.py`` only for a change
that is meant to alter results, and say which values moved.
"""

import json
import math
from pathlib import Path

import pytest

from uccfsim.engine import DETECTORS, run_scenario

PIN = Path(__file__).with_name("detector_pin.json")
DRAWS = (0, 1, 3)
MODES = ("exclusive", "shared")
EXACT = ("trial", "ue", "detector", "audit_pass")
CLOSE = ("rate", "sinr_analytic", "sinr_empirical", "ser")


def pin_scenario(detector, draws, mode):
    return {"name": "pin", "seed": 3, "trials": 2,
            "topology": {"num_aps": 8, "num_ues": 4},
            "association": {"method": "large_scale", "max_aps": 3},
            "allocation": {"mode": mode},
            "uplink": {"detector": detector, "symbol_draws": draws}}


def case_key(detector, draws, mode):
    return f"{detector}/{draws}/{mode}"


def current(detector, draws, mode):
    """The compared fields as columns over the records, NaN as null."""
    records = run_scenario(pin_scenario(detector, draws, mode))["records"]
    out = {key: [r[key] for r in records] for key in EXACT}
    out.update({key: [None if math.isnan(r[key]) else r[key]
                      for r in records] for key in CLOSE})
    return out


CASES = [(d, n, m) for d in DETECTORS for n in DRAWS for m in MODES]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("detector,draws,mode", CASES)
def test_detector_output_matches_the_pin(pinned, detector, draws, mode):
    want = pinned[case_key(detector, draws, mode)]
    got = current(detector, draws, mode)
    for key in EXACT:
        assert got[key] == want[key], key
    for key in CLOSE:
        assert len(got[key]) == len(want[key]), key
        for g, w in zip(got[key], want[key]):
            if w is None:
                assert g is None, key
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=0), key


if __name__ == "__main__":
    lines = [f"{json.dumps(case_key(*case))}: {json.dumps(current(*case))}"
             for case in CASES]
    PIN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
