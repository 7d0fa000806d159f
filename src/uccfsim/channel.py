"""Channel generation: pathloss, lognormal shadowing, multipath taps.

Large-scale link gains are lognormal around a distance-dependent mean given
by either a double-slope or a triple-slope pathloss model.  Small-scale
fading is a complex Gaussian tap vector with unit total mean power, mapped
to per-subcarrier gains through the non-normalized N-point DFT
(F_N F_N^H = N I, the numpy FFT convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def pathloss_double_slope(d, a=2.0, b=2.0, d_break=100.0):
    """Mean dB gain -10*log10(d^a * (1 + d/d_break)^b) at distance d meters."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("nonpositive distance")
    if d_break <= 0:
        raise ValueError("d_break must be positive")
    return -10.0 * np.log10(d**a * (1.0 + d / d_break) ** b)


def triple_slope_offset_db(f_mhz, h_ap, h_ue):
    """Fixed dB offset of the triple-slope model (carrier in MHz, heights in m)."""
    if f_mhz <= 0 or h_ap <= 0 or h_ue <= 0:
        raise ValueError("carrier frequency and antenna heights must be positive")
    lf = np.log10(f_mhz)
    return (46.3 + 33.9 * lf - 13.82 * np.log10(h_ap)
            - (1.11 * lf - 0.7) * h_ue + 1.56 * lf - 0.8)


def pathloss_triple_slope(d, d0, d1, f_mhz, h_ap, h_ue):
    """Three-branch mean dB gain: flat below d0, slope 20 to d1, slope 35 beyond."""
    if not 0 < d0 < d1:
        raise ValueError("breakpoints must satisfy 0 < d0 < d1")
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("nonpositive distance")
    d, d0, d1 = d / 1e3, d0 / 1e3, d1 / 1e3     # meters in, the formula's km
    lp = triple_slope_offset_db(f_mhz, h_ap, h_ue)
    far = -lp - 35.0 * np.log10(d)
    mid = -lp - 10.0 * np.log10(d1**1.5 * d**2)
    near = -lp - 10.0 * np.log10(d1**1.5 * d0**2)
    return np.where(d > d1, far, np.where(d > d0, mid, near))


@dataclass(frozen=True)
class DoubleSlope:
    a: float = 2.0
    b: float = 2.0
    d_break: float = 100.0

    def __post_init__(self):
        if not 1.5 <= self.a <= 3.0:
            raise ValueError("basic exponent a outside [1.5, 3]")
        if not 2.0 <= self.b <= 6.0:
            raise ValueError("additional exponent b outside [2, 6]")

    def mean_db(self, d):
        return pathloss_double_slope(d, self.a, self.b, self.d_break)


@dataclass(frozen=True)
class TripleSlope:
    d0: float = 10.0
    d1: float = 50.0
    f_mhz: float = 1900.0
    h_ap: float = 15.0
    h_ue: float = 1.65

    def __post_init__(self):
        if not 0 < self.d0 < self.d1:
            raise ValueError("breakpoints must satisfy 0 < d0 < d1")

    def mean_db(self, d):
        return pathloss_triple_slope(d, self.d0, self.d1,
                                     self.f_mhz, self.h_ap, self.h_ue)


@dataclass(frozen=True)
class LargeScaleModel:
    """Pathloss variant plus lognormal shadowing spread (dB)."""

    pathloss: object = DoubleSlope()
    shadowing_std_db: float = 4.0

    def __post_init__(self):
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing std must be nonnegative")


def sample_large_scale(d, model: LargeScaleModel, rng) -> np.ndarray:
    """Draw linear power gains: 10*log10(g) ~ Normal(mean_db(d), std^2)."""
    rng = np.random.default_rng(rng)
    mean = model.pathloss.mean_db(d)
    db = mean + model.shadowing_std_db * rng.standard_normal(np.shape(mean))
    return 10.0 ** (db / 10.0)


def pdp_profile(num_taps: int, decay: float = 0.0) -> np.ndarray:
    """Exponential power-delay profile normalized to unit total power."""
    if num_taps < 1:
        raise ValueError("need at least one tap")
    p = np.exp(-decay * np.arange(num_taps))
    return p / p.sum()


def subcarrier_gains(taps, gain, num_subcarriers: int) -> np.ndarray:
    """Frequency response on N subcarriers of sqrt(gain)-scaled taps.

    Uses the non-normalized DFT, so ||h_f||^2 = N * gain * ||taps||^2.
    """
    taps = np.asarray(taps)
    if taps.shape[-1] > num_subcarriers:
        raise ValueError("CIR longer than symbol")
    return np.fft.fft(np.sqrt(gain) * taps, n=num_subcarriers, axis=-1)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all AP-UE links.

    ``gains`` holds linear large-scale power gains (M, K); ``taps`` the
    small-scale CIRs (M, K, L), one length L for every link; and ``freq``
    the per-subcarrier complex gains sqrt(g) * FFT(taps), (M, K, N).
    """

    gains: np.ndarray
    taps: np.ndarray
    freq: np.ndarray

    @property
    def num_subcarriers(self) -> int:
        return self.freq.shape[-1]


def realize_channels(topology, model: LargeScaleModel, num_subcarriers: int,
                     num_taps=2, rng=None, decay: float = 0.0) -> ChannelRealization:
    """Draw a full (M, K) channel realization for one coherence block.

    Every link has ``num_taps`` taps, drawn in one call in the order that
    the link-by-link oracle ``realize_channels`` of
    ``tests/dense_oracles.py`` reads them, row-major in (m, k).
    """
    rng = np.random.default_rng(rng)
    d = topology.distances()
    M, K = d.shape
    if num_taps > num_subcarriers:
        raise ValueError("CIR longer than symbol")

    gains = sample_large_scale(d, model, rng)
    z = rng.standard_normal((M * K, 2, num_taps))
    taps = (np.sqrt(pdp_profile(num_taps, decay) / 2.0)
            * (z[:, 0] + 1j * z[:, 1])).reshape(M, K, num_taps)
    freq = subcarrier_gains(taps, gains[..., None], num_subcarriers)
    return ChannelRealization(gains=gains, taps=taps, freq=freq)
