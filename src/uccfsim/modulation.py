"""Unit-power symbol constellations, hard-decision helpers and link rates."""

from __future__ import annotations

import numpy as np

_S = 1.0 / np.sqrt(2.0)

# Gray-labelled, unit average power
CONSTELLATIONS = {
    "bpsk": np.array([1.0 + 0j, -1.0 + 0j]),
    "qpsk": np.array([_S + 1j * _S, -_S + 1j * _S, _S - 1j * _S, -_S - 1j * _S]),
}


def constellation(name: str) -> np.ndarray:
    """The points of a named constellation, a key of ``CONSTELLATIONS``."""
    try:
        return CONSTELLATIONS[name]
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


def random_symbol_indices(points, size, rng):
    rng = np.random.default_rng(rng)
    return rng.integers(0, len(points), size=size)


def nearest_point(values, points) -> np.ndarray:
    """Indices of the closest constellation points (first index wins ties)."""
    values = np.asarray(values)
    d = np.abs(values[..., None] - points)
    return np.argmin(d, axis=-1)


def symbol_error_rate(decided_idx, true_idx) -> float:
    decided_idx = np.asarray(decided_idx)
    true_idx = np.asarray(true_idx)
    if decided_idx.size == 0:
        return 0.0
    return float(np.mean(decided_idx != true_idx))


def ue_rates(sinrs) -> np.ndarray:
    """Per-UE rates, the sum over a UE's symbols of log2(1 + SINR) in
    bits/s/Hz.  A negative or non-finite SINR is a numerical failure, not a
    rate, so its UE gets NaN."""
    rates = np.array([np.log2(1.0 + s).sum() if not s.size or s.min() >= 0
                      else np.nan for s in map(np.asarray, sinrs)])
    return np.where(np.isfinite(rates), rates, np.nan)


def sum_rate(sinrs) -> float:
    """Sum over UEs and symbols of log2(1 + SINR), bits/s/Hz."""
    return float(np.sum(ue_rates(sinrs)))
