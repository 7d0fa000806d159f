# Pilot-based channel estimation: build pilot blocks, receive them at the
# APs, and compare the plain estimator against explicit interference
# suppression when two UEs are forced onto the same pilot root, first on
# partly overlapping bands and then on the same band.
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


def run(roots, mode, bands=None):
    plan = make_pilot_plan(2, 8, num_symbols=2, num_taps=2,
                           pilot_power=1.0, roots=roots,
                           subcarrier_sets=bands)
    Y, level = simulate_pilot_rx(plan, real, assoc, noise_var, rng=11,
                                 interference_var=0.0)
    est = estimate_all(Y, level, plan, assoc, real.gains, mode=mode)
    return nmse(est, real, assoc)


print("=== orthogonal-ish pilots (distinct roots) ===")
print(f"  single-UE estimator NMSE : {run([0, 3], 'single'):.3e}")
print(f"  MUI-suppressing NMSE     : {run([0, 3], 'mui_suppress'):.3e}")

# same root, UE 0 on subcarriers 0-5 and UE 1 on 2-7: the observation
# matrices overlap without coinciding
overlap = [np.arange(0, 6), np.arange(2, 8)]
print("\n=== contaminated pilots (same root, bands overlap on 4 of 6) ===")
print(f"  single-UE estimator NMSE : {run([0, 0], 'single', overlap):.3e}")
print(f"  MUI-suppressing NMSE     : "
      f"{run([0, 0], 'mui_suppress', overlap):.3e}")
print("suppression matters once the observation matrices stop being orthogonal")

# identical observation matrices: only the sum h_0 + h_1 is observable, so
# both estimators return it for each UE and the error is the other channel
print("\n=== fully contaminated pilots (same root on the same band) ===")
print(f"  single-UE estimator NMSE : {run([0, 0], 'single'):.3e}")
print(f"  MUI-suppressing NMSE     : {run([0, 0], 'mui_suppress'):.3e}")
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
