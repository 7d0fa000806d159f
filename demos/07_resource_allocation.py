# Successive resource allocation: greedy subcarriers, water-filling or
# max-min power, and the constraint audit every plan carries.
#
# Run: python demos/07_resource_allocation.py

from unittest import mock

import numpy as np

from uccfsim import downlink
from uccfsim.alloc import (allocate_power_waterfill, maxmin_power_control,
                           successive_optimize)
from uccfsim.channel import DoubleSlope, LargeScaleModel, realize_channels
from uccfsim.topology import associate_large_scale, generate_topology

topo = generate_topology(num_aps=4, num_ues=3, area_size=300.0, rng=13)
model = LargeScaleModel(DoubleSlope(2.0, 2.0, 100.0), shadowing_std_db=3.0)
real = realize_channels(topo, model, num_subcarriers=8, num_taps=2, rng=13)
assoc = associate_large_scale(real.gains, max_count=2)
gamma_u = topo.max_ue_power / topo.noise_variance

print("=== water-filling on one UE's subcarriers ===")
snrs = np.array([8.0, 2.0, 0.5, 0.05])
powers = allocate_power_waterfill(snrs, budget=1.0)
for s, p in zip(snrs, powers):
    bar = "#" * int(40 * p)
    print(f"  unit-power SINR {s:6.2f} -> power {p:6.3f} {bar}")
print("weak subcarriers fall below the water level and get nothing")

print("\n=== sum-rate pipeline (UL) ===")
plan = successive_optimize(real.freq, assoc, demands=2, gamma_u=gamma_u,
                           objective="sum_rate")
for k in range(3):
    print(f"  UE {k}: subcarriers {plan.subcarriers[k].tolist()} "
          f"powers {np.round(plan.ul_power[k], 3).tolist()}")
print(f"  sum-rate {plan.objective:.3f} bits/s/Hz; audit pass: "
      f"{plan.audit['pass']}")

print("\n=== max-min pipeline (UL) ===")
plan_mm = successive_optimize(real.freq, assoc, demands=2, gamma_u=gamma_u,
                              objective="max_min")
print(f"  achieved SINR floor (smallest symbol SINR) {plan_mm.objective:.3f}")
print(f"  per-UE budgets used: "
      f"{[round(float(p.sum()), 3) for p in plan_mm.ul_power]}")

print("\n=== max-min pipeline (DL) ===")
# no subcarrier carries two symbols, so the UEs couple only through A0,
# which scales every SINR alike: the closed form equalizes them
with mock.patch.object(downlink, "dl_sinr_ofdm",
                       wraps=downlink.dl_sinr_ofdm) as sinr_calls:
    plan_dl_mm = successive_optimize(real.freq, assoc, demands=2,
                                     direction="dl", objective="max_min",
                                     noise_var=topo.noise_variance)
print(f"  achieved SINR floor {plan_dl_mm.objective:.6g}")
print("  per-UE smallest SINR: "
      + ", ".join(f"{g.min():.6g}" for g in plan_dl_mm.dl_sinrs))
print(f"  {sinr_calls.call_count} SINR evaluations; audit pass: "
      f"{plan_dl_mm.audit['pass']}")

print("\n=== max-min power control against a toy evaluator ===")
gains = np.array([1.0, 2.5, 0.8])


def evaluator(p):
    rx = gains * p
    return rx / (rx.sum() - rx + 0.5)


res = maxmin_power_control(evaluator, budgets=np.ones(3), tol=1e-4)
print(f"  target {res.target:.4f}, achieved {np.round(res.achieved, 4)}")
print(f"  powers {np.round(res.powers, 4)} (weak UE gets the most)")

print("\n=== downlink pipeline with the amplification gain ===")
plan_dl = successive_optimize(real.freq, assoc, demands=2, direction="dl",
                              noise_var=topo.noise_variance,
                              p_max=1.0)
print(f"  sum Delta = {plan_dl.dl_power.sum():.4f} (budget 1), "
      f"A0 = {plan_dl.a0:.4g}, audit pass: {plan_dl.audit['pass']}")
