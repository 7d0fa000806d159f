# Walk through the channel stack: pathloss curves, lognormal shadowing,
# multipath taps, and the tap-to-subcarrier map.
#
# Run: python demos/01_channel_models.py

import numpy as np

from uccfsim.channel import (DoubleSlope, LargeScaleModel,
                             pathloss_double_slope, pathloss_triple_slope,
                             pdp_profile, sample_large_scale,
                             subcarrier_gains)

print("=== pathloss models ===")
distances = np.array([10.0, 50.0, 100.0, 300.0, 1000.0])
double = pathloss_double_slope(distances, a=2.0, b=2.0, d_break=100.0)
triple = pathloss_triple_slope(distances, d0=10.0, d1=50.0, f_mhz=1900.0,
                               h_ap=15.0, h_ue=1.65)
print(f"{'d [m]':>8} {'double-slope [dB]':>18} {'triple-slope [dB]':>18}")
for d, mu2, mu3 in zip(distances, double, triple):
    print(f"{d:8.0f} {mu2:18.2f} {mu3:18.2f}")

print("\nthe double-slope curve steepens past the break distance;")
print("the triple-slope curve is flat below d0 and steepest past d1.")

print("\n=== lognormal shadowing ===")
model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=6.0)
rng = np.random.default_rng(1)
gains = sample_large_scale(np.full(100_000, 100.0), model, rng)
db = 10 * np.log10(gains)
print(f"mean dB gain {db.mean():8.3f}  (pathloss mean {model.pathloss.mean_db(100.0):8.3f})")
print(f"std dB gain  {db.std(ddof=1):8.3f}  (configured       {6.0:8.3f})")

print("\n=== small-scale taps and subcarrier gains ===")
# circularly-symmetric Gaussian taps under a unit-power delay profile
profile = pdp_profile(4, decay=0.5)
taps = np.sqrt(profile / 2) * (rng.standard_normal(4)
                               + 1j * rng.standard_normal(4))
hf = subcarrier_gains(taps, gain=1.0, num_subcarriers=8)
print("tap powers         :", np.round(np.abs(taps) ** 2, 4))
print("per-subcarrier |h|²:", np.round(np.abs(hf) ** 2, 4))
lhs = np.sum(np.abs(hf) ** 2)
rhs = 8 * np.sum(np.abs(taps) ** 2)
print(f"energy identity ||h_f||^2 = N g ||taps||^2: {lhs:.6f} = {rhs:.6f}")
