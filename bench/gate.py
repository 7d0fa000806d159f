"""Correctness gate: per-trial invariants and the committed reference.

A trial fails if it raises, if a record has a non-finite ``rate`` or
``sum_rate``, if ``audit_pass`` is false, if ``sum_rate`` is not the sum of
the trial's rates, or if its records fall outside the tolerance of the
reference.  The (trial, UE) grid and ``audit_pass`` must match the
reference exactly.

Tolerance: at the default SNR cond(R) is about 1.4e8, so a solve in double
precision carries a relative error near cond(R) * eps = 3e-8, and dense and
batched solves of the same system already differ by about 1e-8.  Values
are compared with ``RTOL`` = 1e-6, 30x that error, and ``ATOL`` = 1e-9 for
values at or near zero.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

FIELDS = ("rate", "sum_rate", "sinr_analytic", "ser", "nmse", "dl_rate",
          "apmp_iterations")
RTOL = 1e-6
ATOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
STORED_DIGITS = 12     # far below RTOL, keeps the committed files small


def _by_trial(records) -> dict:
    out: dict = {}
    for rec in records:
        out.setdefault(rec["trial"], []).append(rec)
    return out


def invariant_failures(records, trials: int, num_ues: int) -> set:
    """Trial indices whose records break the per-trial invariants."""
    failed = set()
    by_trial = _by_trial(records)
    for t in range(trials):
        recs = by_trial.get(t, [])
        rates = [r["rate"] for r in recs]
        if ([r["ue"] for r in recs] != list(range(num_ues))
                or not all(math.isfinite(r["rate"])
                           and math.isfinite(r["sum_rate"])
                           and r["audit_pass"] is True for r in recs)
                or not math.isclose(recs[0]["sum_rate"], math.fsum(rates),
                                    rel_tol=1e-12, abs_tol=1e-12)):
            failed.add(t)
    failed.update(t for t in by_trial if not 0 <= t < trials)
    return failed


def same_records(a, b) -> bool:
    """Records equal field by field, NaN matching NaN; ``wall_time`` is a
    timing and is ignored."""
    def same(x, y):
        return x == y or (isinstance(x, float) and isinstance(y, float)
                          and math.isnan(x) and math.isnan(y))
    return len(a) == len(b) and all(
        ra.keys() == rb.keys() and all(same(ra[k], rb[k])
                                       for k in ra if k != "wall_time")
        for ra, rb in zip(a, b))


def csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


def reference_entry(result, csv_text: str) -> dict:
    """What is committed for one (workload, seed): columns of the records."""
    def stored(value):
        value = float(value)
        return float(f"{value:.{STORED_DIGITS}g}") if math.isfinite(value) \
            else None
    records = result["records"]
    entry = {"trials": result["scenario"]["trials"],
             "csv_sha256": csv_digest(csv_text),
             "trial": [r["trial"] for r in records],
             "ue": [r["ue"] for r in records],
             "audit_pass": [r["audit_pass"] for r in records]}
    for key in FIELDS:
        entry[key] = [stored(r[key]) for r in records]
    return entry


def _close(value, ref) -> bool:
    if ref is None:
        return not math.isfinite(value)
    return math.isclose(value, ref, rel_tol=RTOL, abs_tol=ATOL)


def reference_failures(records, entry) -> tuple[set, bool]:
    """(failed trial indices, grid matches) against one reference entry."""
    grid = [(r["trial"], r["ue"]) for r in records]
    if grid != list(zip(entry["trial"], entry["ue"])):
        return set(range(entry["trials"])), False
    failed = set()
    for i, rec in enumerate(records):
        if rec["audit_pass"] is not entry["audit_pass"][i] or not all(
                _close(rec[key], entry[key][i]) for key in FIELDS):
            failed.add(rec["trial"])
    return failed, True


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """Seed -> reference entry; empty when nothing is committed."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    return {int(seed): entry
            for seed, entry in json.loads(path.read_text()).items()}
