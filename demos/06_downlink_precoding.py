# Downlink transmission: centralized MMSE precoding with the common
# amplification gain, the distributed MF / zero-forcing / regularized
# family, and artificial-noise secrecy.
#
# Run: python demos/06_downlink_precoding.py

import numpy as np

from uccfsim.downlink import (artificial_noise_direction, compute_a0,
                              distributed_directions, dl_sinr_ofdm,
                              expected_ap_element_powers, receive_downlink,
                              secrecy_transmit, tmmse_central_ofdm)
from uccfsim.modulation import ue_rates
from uccfsim.topology import AssociationMap

rng = np.random.default_rng(9)
M, K = 5, 3
h = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / np.sqrt(2)
noise = 0.05

print("=== centralized MMSE precoding on one subcarrier (N = 1) ===")
delta = np.full((K, 1), 1.0 / K)
every_ue = [[0]] * K
P = tmmse_central_ofdm(h[:, :, None], every_ue, noise, delta)    # (1, M, K)
ap_powers = expected_ap_element_powers(P)[:, 0]
a0 = compute_a0(ap_powers, p_max=1.0)
sinr = np.concatenate(dl_sinr_ofdm(h[:, :, None], P, every_ue, a0, noise))
print(f"common amplification gain A0 = {a0:.4f} "
      "(largest gain meeting every AP power cap)")
print("per-UE SINR:", np.round(sinr, 3), " sum-rate",
      round(ue_rates([sinr]).sum(), 3), "bits/s/Hz")
scaled = a0**2 * ap_powers
print("per-AP expected power after amplification:", np.round(scaled, 4))

print("\n=== regularization continuum at one multi-antenna AP ===")
H = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
all_served = np.ones(3, dtype=bool)
mf = distributed_directions(H, all_served, method="mf")       # unit columns
for reg, label in ((0.0, "zero forcing"), (noise, "MMSE"),
                   (1e8 * np.linalg.norm(H) ** 2, "matched filter limit")):
    Pm = distributed_directions(H, all_served, method="regmmse", reg=reg)
    residual = np.linalg.norm(H.T @ Pm - np.eye(3))
    mf_align = np.abs(np.vdot(Pm[:, 0], mf[:, 0])) / np.linalg.norm(Pm[:, 0])
    print(f"  reg = {reg:10.3g} ({label:20s}): "
          f"||H^T P - I|| = {residual:8.2e}, MF alignment = {mf_align:.4f}")

print("\n=== distributed precoding: interference structure at UE 0 ===")
h3 = (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
assoc = AssociationMap.from_ap_sets([[0], [0], [1]], num_aps=2)
powers = np.full((2, 3), 0.3)
for method in ("mf", "tzf"):
    dirs = distributed_directions(h3, assoc.zeta() > 0, method=method)
    # stream l reaches UE 0 with sum_m sqrt(P_ml) h_m0^T dir_ml: UE 1
    # shares AP 0 with UE 0 (co-associated), UE 2 is served by AP 1 only
    received = np.abs(np.einsum("mu,mul,ml->l", h3[:, :, 0], dirs,
                                np.sqrt(powers))) ** 2
    print(f"  {method:4s}: desired {received[0]:8.3f}  "
          f"co-associated MUI {received[1]:10.3e}  "
          f"cross-AP MUI {received[2]:8.3f}")
print("zero forcing removes exactly the interference from shared APs")

print("\n=== artificial-noise secrecy ===")
p_i = artificial_noise_direction(h, rng)
print("max |h_k^T p_I| over UEs:", float(np.max(np.abs(h.T @ p_i))))
x = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / np.sqrt(2)
rho = 0.8
base = receive_downlink(h, (P[0] @ x)[:, None])
sec = receive_downlink(h, secrecy_transmit(P[0], p_i, rho, x,
                                           noise_symbol=0.9 + 0.2j))
print("UE reception equals sqrt(rho) x baseline:",
      bool(np.allclose(sec, np.sqrt(rho) * base)))
h_eve = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2)
print(f"eavesdropper artificial-noise pickup |h_e^T p_I|^2 = "
      f"{np.abs(h_eve @ p_i) ** 2:.4f}  (UEs pick up none)")
