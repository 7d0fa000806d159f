# Pilot-based channel estimation: build pilot blocks, receive them at the
# APs and estimate every link.  On full-band pilots every two tap columns
# are orthogonal or identical, so one matched-filter product is the
# unbiased MMSE estimate with or without interference suppression; on
# partly overlapping bands the per-AP MMSE estimator is needed, and there
# suppression matters.
#
# Run: python demos/03_channel_estimation.py

import numpy as np

from uccfsim.channel import DoubleSlope, LargeScaleModel, realize_channels
from uccfsim.topology import associate_large_scale, generate_topology
from uccfsim.training import (estimate_all, make_pilot_plan, mmse_estimate,
                              nmse, simulate_pilot_rx, tap_prior)

topo = generate_topology(num_aps=3, num_ues=2, area_size=150.0, rng=3)
model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=3.0)
real = realize_channels(topo, model, num_subcarriers=8, num_taps=2, rng=3)
assoc = associate_large_scale(real.gains, max_count=3)
noise_var = 1e-9


def receive(roots, bands=None):
    plan = make_pilot_plan(2, 8, num_symbols=2, num_taps=2,
                           pilot_power=1.0, roots=roots,
                           subcarrier_sets=bands)
    Y, level = simulate_pilot_rx(plan, real, assoc, noise_var, rng=11,
                                 interference_var=0.0)
    return plan, Y, level


def per_ap_nmse(plan, Y, level, mode):
    est = np.zeros((len(Y), 2, 2), dtype=complex)
    for m, ues in enumerate(assoc.ue_sets):
        priors = {k: tap_prior(real.gains[m, k], 2) for k in ues}
        for k, taps in mmse_estimate(Y[m], level[m], plan, ues, priors,
                                     mode).items():
            est[m, k] = taps
    return nmse(est, real, assoc)


print("=== orthogonal-ish pilots (distinct roots) ===")
plan, Y, _ = receive([0, 3])
est = estimate_all(Y, plan, assoc)
print(f"  matched-filter NMSE      : {nmse(est, real, assoc):.3e}")

# same root, UE 0 on subcarriers 0-5 and UE 1 on 2-7: the observation
# matrices overlap without coinciding
overlap = [np.arange(0, 6), np.arange(2, 8)]
print("\n=== contaminated pilots (same root, bands overlap on 4 of 6) ===")
plan, Y, level = receive([0, 0], overlap)
print(f"  single-UE estimator NMSE : "
      f"{per_ap_nmse(plan, Y, level, 'single'):.3e}")
print(f"  MUI-suppressing NMSE     : "
      f"{per_ap_nmse(plan, Y, level, 'mui_suppress'):.3e}")
print("suppression matters once the observation matrices stop being orthogonal")
try:
    estimate_all(Y, plan, assoc)
except ValueError as err:
    print(f"  estimate_all refuses this plan: {err}")

# identical observation matrices: only the sum h_0 + h_1 is observable, so
# the estimate of each UE is that sum and the error is the other channel
print("\n=== fully contaminated pilots (same root on the same band) ===")
plan, Y, _ = receive([0, 0])
est = estimate_all(Y, plan, assoc)
print(f"  matched-filter NMSE      : {nmse(est, real, assoc):.3e}")
print("no estimator separates UEs whose observation matrices coincide")

print("\n=== pilot power sweep (distinct roots, joint estimator) ===")
for power in (1e-2, 1e0, 1e2, 1e4):
    plan_p = make_pilot_plan(2, 8, 2, 2, pilot_power=power, roots=[0, 3])
    Y, level = simulate_pilot_rx(plan_p, real, assoc, noise_var, rng=5,
                                 interference_var=0.0)
    priors = {k: tap_prior(real.gains[0, k], 2) for k in range(2)}
    est = mmse_estimate(Y[0], level[0], plan_p, [0, 1], priors,
                        mode="mui_suppress")[0]
    truth = np.sqrt(real.gains[0, 0]) * real.taps[0, 0]
    err = np.sum(np.abs(est - truth) ** 2) / np.sum(np.abs(truth) ** 2)
    print(f"  pilot power {power:8.2g}  ->  AP0/UE0 NMSE {err:.3e}")
