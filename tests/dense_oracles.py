"""Dense stacked (M*N) x (M*N) reference forms of the per-subcarrier kernels.

The library solves every OFDM system per subcarrier.  These are the
straightforward stacked formulations it replaced, kept only as oracles:
they make no use of the block-diagonal structure, so agreement with them
checks the batched kernels independently.  The local-detection oracles
build each AP's model matrices and loop over symbols, interferers and
draws instead of using the diagonal closed forms.

The APMP oracle is the dict-keyed message passing the edge-index
implementation replaced: messages keyed by (ap, ue, slot), one factor and
one participant at a time, with ``itertools.product`` enumerations.
``apmp_draw_loop`` is the engine's APMP symbol error count as it was
before detection took every draw in one call: one single-observation
``apmp_detect`` per draw.  ``EdgeIndex`` builds the edge index with a
Python loop over APs, subcarriers and UEs, as the library did before it
read the graph off the incidence array.

The channel-estimation oracles solve the estimator in its bracket form,
Q A^H (A Q A^H + sigma^2 I)^-1, with an N tau_p-sized guarded inverse:
``mmse_estimate`` once per (AP, UE) link, building its own observation
matrices with the other UEs of the AP named in ``coestimated``, and
``bracket_mmse_estimate`` once per AP observation, as the library did
before it moved to the sum L-sized Gram form.  ``matched_filter_estimate``
gives one link's taps a^H y / ||a||^2 one tap column at a time, the
unbiased estimate ``estimate_all`` takes for every link in one product.
``simulate_pilot_rx`` receives the pilots one AP at a time, each AP
drawing its own noise, and ``nmse`` adds the estimation error one link at
a time, as the library did before both moved onto arrays.
``realize_channels`` draws the small-scale taps one link at a time.

Three oracles are not dense but pin bit-identical refactors:
``batched_uplink_sinr_all`` rebuilds every power-independent array of the
closed-form uplink SINR on each call, as the library did before it kept
them on the plan's scene, ``maxmin_power_control`` evaluates the
same powers again after its fixed point and before returning, and
``estimated_subcarrier_gains`` takes one FFT per estimated link.

``successive_optimize`` is the allocation as it was before one power
stage served both directions: an uplink and a downlink branch, the
uplink evaluating every candidate on a fresh scene through ``ul_rates``,
whose global MMSE SINRs come from ``batched_uplink_sinr_all``.  Its
``allocate_power_waterfill`` gathers the kept inverse gains through the
sort order on every pass, as the library did before it sorted them once.

The oracles take one UE at a time: UE k's per-AP weights (M, N_k) are
its columns of a detector's (M, S) weights, and ``stacked_weights`` puts
them in the stacked (M*N, N_k) layout the library used before, one
symbol at a time.  ``weight_output_sinr`` and ``measure_output`` are the
library's evaluators as they were on that layout: the analytic SINR on
the dense covariance, and the output y W^* with y flattened to
(draws, M*N).  ``stacked_output`` is that output of per-AP weights.

``stacked_covariance`` adds every UE's full (M*N) x (M*N) outer products,
zero rows included, as the library did before it built only each UE's
own rows.  ``dist_transmit`` forms the distributed downlink's per-AP
signals for given symbols, whose mean received powers
``received_power_split`` gives in closed form.

``exact_uplink_sinrs`` is the MMSE SINR of every uplink symbol, co-channel
ones included, in exact rational arithmetic: a float converts exactly to
a ``Fraction``, so it is the true SINR of the float inputs.

Reference copies that no trial runs live here too: ``map_oracle``, the
brute-force exact posterior marginals that message passing is checked
against (Kschischang, Frey & Loeliger, IEEE Trans. IT 2001);
``received_power_split``, the desired / co-associated / cross-AP split of
a distributed downlink's received power; and ``sample_small_scale``, one
link's taps, which the link-by-link ``realize_channels`` draws.

``distributed_directions`` solves the distributed precoders one stack
(one AP, or one AP on one subcarrier) at a time on the served columns
alone, with an SVD rank check of each local Gram matrix and a separate
column normalization for MF, as the library did before one masked
batched solve served every stack.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product

import numpy as np

from uccfsim import apmp, downlink
from uccfsim.alloc import (MAX_FIXED_POINT, AllocationPlan, MaxMinResult,
                           _all_positive, allocate_subcarriers_greedy,
                           audit_plan, subcarrier_metric)
from uccfsim.apmp import ApmpConfig, ApmpResult
from uccfsim.channel import (ChannelRealization, pdp_profile,
                             sample_large_scale, subcarrier_gains)
from uccfsim.modulation import constellation, nearest_point, ue_rates
from uccfsim.training import PilotPlan, _dft_columns, _guarded_inverse
from uccfsim.uplink import (UplinkScene, scene_covariance, stacked_channel,
                            subcarrier_covariances)


def uplink_sinr_all(scene: UplinkScene):
    """Per-UE closed-form MMSE symbol SINRs, one dense solve per symbol."""
    R = scene_covariance(scene)
    out = []
    for k in range(scene.num_ues):
        B = stacked_channel(scene)[k]
        sinrs = np.empty(B.shape[1])
        for i in range(B.shape[1]):
            b = B[:, i]
            eta = scene.power[k][i]
            Rki = R - eta * np.outer(b, b.conj())
            sinrs[i] = np.real(eta * b.conj() @ np.linalg.solve(Rki, b))
        out.append(sinrs)
    return out


def _quadratic_inverse(A, u) -> Fraction:
    """u^T A^-1 u for a symmetric positive definite A, exactly: forward
    elimination of [A | u] leaves A = L D L^T and c = L^-1 u, and the form
    is the sum of c_i^2 / d_i."""
    n = len(u)
    rows = [row[:] + [ui] for row, ui in zip(A, u)]
    total = Fraction(0)
    for i in range(n):
        pivot = rows[i][i]
        total += rows[i][n] ** 2 / pivot
        for r in range(i + 1, n):
            f = rows[r][i] / pivot
            if f:
                for c in range(i + 1, n + 1):
                    rows[r][c] -= f * rows[i][c]
    return total


def exact_uplink_sinrs(scene: UplinkScene, eta) -> list:
    """Flat MMSE symbol SINRs eta_s b_s^H A_s^-1 b_s as Fractions, where
    A_s = I / gamma_u + sum over the other symbols j on s's subcarrier of
    eta_j b_j b_j^H, in exact arithmetic over the float inputs.  Hermitian
    A_s is taken in its real form [[Re, -Im], [Im, Re]], in which b b^H is
    u u^T + w w^T for u = [Re b; Im b] and w = [-Im b; Re b], and
    b^H A^-1 b is u^T A^-1 u."""
    M = scene.num_aps
    noise = 1 / Fraction(scene.gamma_u)
    eta = [Fraction(e) for e in eta]
    u, w = [], []
    for k, n in zip(scene.ue, scene.sub):
        re = [Fraction(h.real) for h in scene.freq[:, k, n]]
        im = [Fraction(h.imag) for h in scene.freq[:, k, n]]
        u.append(re + im)
        w.append([-v for v in im] + re)
    out = []
    for s, n in enumerate(scene.sub):
        A = [[noise if i == j else Fraction(0) for j in range(2 * M)]
             for i in range(2 * M)]
        for j in np.flatnonzero(scene.sub == n):
            if j == s or not eta[j]:
                continue
            for i in range(2 * M):
                for c in range(2 * M):
                    A[i][c] += eta[j] * (u[j][i] * u[j][c] + w[j][i] * w[j][c])
        out.append(eta[s] * _quadratic_inverse(A, u[s]))
    return out


def batched_uplink_sinr_all(scene: UplinkScene):
    """Per-UE closed-form MMSE symbol SINRs in one (S, M, M) solve, every
    index and outer product rebuilt from the scene on each call."""
    ue = np.concatenate([np.full(len(s), k)
                         for k, s in enumerate(scene.subcarriers)])
    sub = np.concatenate(scene.subcarriers)
    eta = np.concatenate(scene.power)
    b = scene.freq[:, ue, sub].T                         # (S, M)
    own = eta[:, None, None] * (b[:, :, None] * b.conj()[:, None, :])
    x = np.linalg.solve(subcarrier_covariances(scene)[sub] - own,
                        b[:, :, None])[:, :, 0]
    sinrs = np.real(eta * np.einsum("sm,sm->s", b.conj(), x))
    return np.split(sinrs, np.cumsum([len(s) for s in scene.subcarriers])[:-1])


def stacked_dl_channel(freq, k) -> np.ndarray:
    """Stacked diagonal channel block of UE k, shape (M*N, N)."""
    M, _, N = freq.shape
    H = np.zeros((M * N, N), dtype=complex)
    for m in range(M):
        H[m * N + np.arange(N), np.arange(N)] = freq[m, k]
    return H


def stacked_precoders(precoders) -> list:
    """Per-subcarrier (N, M, K) precoders as one (M*N, N) matrix per UE.

    Column n of UE k's matrix carries its precoder on subcarrier n in the
    AP-major rows m*N + n; every other entry is zero.
    """
    P = np.asarray(precoders)
    N, M, K = P.shape
    out = []
    for k in range(K):
        S = np.zeros((M, N, N), dtype=complex)
        S[:, np.arange(N), np.arange(N)] = P[:, :, k].T
        out.append(S.reshape(M * N, N))
    return out


def tmmse_central_ofdm(freq, subcarrier_sets, noise_var, delta, assoc=None):
    """OFDM MMSE precoders, one (M*N, N) per UE, from the stacked bracket."""
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    if assoc is not None:
        freq = freq * assoc.zeta()[:, :, None]
    delta = np.asarray(delta, dtype=float)
    bracket = noise_var * np.eye(M * N, dtype=complex)
    blocks = []
    for l in range(K):
        H = stacked_dl_channel(freq, l)
        mask = np.zeros(N)
        mask[np.asarray(subcarrier_sets[l], dtype=int)] = 1.0
        blocks.append(H)
        bracket += (H.conj() * mask) @ H.T
    return [np.linalg.solve(bracket, blocks[k].conj()) * np.sqrt(delta[k])
            for k in range(K)]


def dl_sinr_ofdm(freq, precoders, subcarrier_sets, a0, noise_var):
    """Per-UE per-symbol downlink SINRs, one stacked row product per term."""
    freq = np.asarray(freq, dtype=complex)
    K = freq.shape[1]
    sets = [np.asarray(s, dtype=int) for s in subcarrier_sets]
    out = []
    for k in range(K):
        Hk = stacked_dl_channel(freq, k)
        sinrs = np.empty(len(sets[k]))
        for i, n in enumerate(sets[k]):
            row = Hk[:, n]                         # received row at subcarrier n
            desired = np.abs(row @ precoders[k][:, n]) ** 2
            interf = 0.0
            for j in sets[k]:
                if j != n:
                    interf += np.abs(row @ precoders[k][:, j]) ** 2
            for l in range(K):
                if l == k:
                    continue
                for j in sets[l]:
                    interf += np.abs(row @ precoders[l][:, j]) ** 2
            sinrs[i] = desired / (interf + noise_var / a0**2)
        out.append(sinrs)
    return out


def dist_tzf_precode(local_channels) -> np.ndarray:
    """Zero-forcing precoder of one AP: P = H* (H^T H*)^-1, (U, n) shape."""
    H = np.atleast_2d(np.asarray(local_channels, dtype=complex))
    U, n = H.shape
    if U < n:
        raise ValueError("TZF infeasible: fewer antennas than served UEs")
    G = H.T @ H.conj()
    if np.linalg.matrix_rank(G) < n:
        raise ValueError("TZF infeasible: rank-deficient local channels")
    return np.linalg.solve(G.T, H.conj().T).T


def dist_regmmse_precode(local_channels, reg) -> np.ndarray:
    """Regularized variant P = H* (H^T H* + reg I)^-1, (U, n) shape."""
    if reg < 0:
        raise ValueError("regulation parameter must be nonnegative")
    H = np.atleast_2d(np.asarray(local_channels, dtype=complex))
    n = H.shape[1]
    if reg == 0:
        return dist_tzf_precode(H)
    G = H.T @ H.conj() + reg * np.eye(n)
    return np.linalg.solve(G.T, H.conj().T).T


def normalize_columns(P) -> np.ndarray:
    """Scale precoder columns to unit norm; zero columns stay zero."""
    P = np.asarray(P, dtype=complex)
    norms = np.linalg.norm(P, axis=0)
    out = P.copy()
    nz = norms > 0
    out[:, nz] = P[:, nz] / norms[nz]
    return out


def distributed_directions(channels, served, method="mf", reg=None):
    """``downlink.distributed_directions`` one (U, K) stack at a time."""
    h = np.asarray(channels, dtype=complex)
    served = np.asarray(served, dtype=bool)
    dirs = np.zeros(h.shape, dtype=complex)
    for idx in np.ndindex(served.shape[:-1]):
        ues = list(np.flatnonzero(served[idx]))
        if not ues:
            continue
        H = h[idx][:, ues]
        if method == "mf":
            P = normalize_columns(H.conj())
            dead = np.linalg.norm(H, axis=0) == 0
            if np.any(dead):
                warnings.warn(f"stack {idx}: zero channel toward served "
                              f"UE(s) {[ues[i] for i in np.flatnonzero(dead)]}")
        elif method == "tzf":
            P = dist_tzf_precode(H)
        elif method == "regmmse":
            if reg is None:
                raise ValueError("regmmse needs a regulation parameter")
            P = dist_regmmse_precode(H, reg)
        else:
            raise ValueError(f"unknown distributed method {method!r}")
        dirs[idx][:, ues] = P
    return dirs


def dist_transmit(dirs, powers, symbols) -> np.ndarray:
    """Per-AP signals s_m = sum_k sqrt(P_mk) dir_mk x_k, shape (M, U), from
    (M, U, K) directions and (M, K) powers: what
    ``downlink.receive_downlink`` hears, sample by sample, and what
    ``received_power_split`` takes the expectation of."""
    dirs = np.asarray(dirs, dtype=complex)
    powers = np.asarray(powers, dtype=float)
    x = np.asarray(symbols, dtype=complex)
    return np.einsum("muk,mk,k->mu", dirs, np.sqrt(powers), x)


def received_power_split(channels, assoc, dirs, powers, k) -> dict:
    """Desired / co-associated / cross-AP mean received powers at UE k.

    ``powers`` is (M, K), the per-AP power of each stream.  Expectation
    over unit-power independent symbols.  Stream l reaches UE k with the
    coherent amplitude sum_m sqrt(P_ml) h_mk^T dir_ml over its serving APs,
    which is what ``downlink.receive_downlink`` adds up for the per-AP
    signals of :func:`dist_transmit` when, as
    ``downlink.distributed_directions`` makes them, the directions vanish
    off the association.  A stream l != k is co-associated when it shares
    an AP with UE k and cross-AP otherwise.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 2:
        h = h[:, None, :]
    amp = np.zeros(len(assoc.ap_sets), dtype=complex)
    for m, l in zip(*np.nonzero(assoc.zeta())):
        amp[l] += np.sqrt(powers[m, l]) * (h[m, :, k] @ dirs[m, :, l])
    power = np.abs(amp) ** 2
    others = np.arange(len(amp)) != k
    mine = set(assoc.ap_sets[k])
    co = others & [not mine.isdisjoint(aps) for aps in assoc.ap_sets]
    return {"desired_amplitude": amp[k], "desired": power[k],
            "co_associated": float(power[co].sum()),
            "cross_ap": float(power[others & ~co].sum())}


def stacked_weights(scene: UplinkScene, k: int, V) -> np.ndarray:
    """Per-AP weights V (M, N_k) of UE k in the stacked (M*N, N_k) layout:
    symbol i's column holds V[m, i] in row m*N + n on its subcarrier n."""
    M, N = scene.num_aps, scene.num_subcarriers
    W = np.zeros((M * N, len(scene.subcarriers[k])), dtype=complex)
    for i, n in enumerate(scene.subcarriers[k]):
        W[np.arange(M) * N + n, i] = V[:, i]
    return W


def weight_output_sinr(scene: UplinkScene, k: int, W: np.ndarray) -> np.ndarray:
    """Analytic output SINR of stacked weights W (M*N, N_k) for UE k; a
    symbol whose signal is zero (zero power or zero weights) has SINR 0."""
    R = scene_covariance(scene)
    B = stacked_channel(scene)[k]
    sinrs = np.empty(B.shape[1])
    for i in range(B.shape[1]):
        w = W[:, i]
        b = B[:, i]
        eta = scene.power[k][i]
        signal = eta * np.abs(w.conj() @ b) ** 2
        total = np.real(w.conj() @ R @ w)
        denom = total - signal
        sinrs[i] = signal / denom if denom > 0 else np.inf if signal else 0.0
    return sinrs


def stacked_output(scene: UplinkScene, k: int, V, y) -> np.ndarray:
    """UE k's outputs y W^* (draws, N_k) of per-AP weights V over per-AP
    draws y (draws, M, N), on the stacked layout."""
    return y.reshape(len(y), -1) @ stacked_weights(scene, k, V).conj()


def measure_output(scene: UplinkScene, k: int, W: np.ndarray, y: np.ndarray,
                   sent: np.ndarray, points="qpsk", measured: bool = False):
    """Empirical SINRs and decisions of the output z = y W^* of stacked
    weights W over flat draws y (draws, M*N), as ``uplink.measure_output``
    defines them."""
    pts = constellation(points)
    x = pts[sent]
    z = y @ W.conj()
    if measured:
        amp = np.mean(z * x.conj(), axis=0)
    else:
        amp = np.sqrt(scene.power[k]) * np.einsum(
            "ni,ni->i", W.conj(), stacked_channel(scene)[k])
    signal = np.abs(amp) ** 2
    if measured and len(y) == 1:
        sinrs = np.full(signal.shape, np.nan)
    else:
        sinrs = np.divide(signal, np.mean(np.abs(z - x * amp) ** 2, axis=0),
                          out=np.zeros_like(signal), where=signal > 0)
    decided = nearest_point(z / np.where(np.abs(amp) > 0, amp, 1.0), pts)
    return sinrs, decided


def _ap_rows(scene: UplinkScene, aps) -> np.ndarray:
    N = scene.num_subcarriers
    return (np.asarray(list(aps), dtype=int)[:, None] * N
            + np.arange(N)).ravel()


def stacked_covariance(scene: UplinkScene, aps) -> np.ndarray:
    """Autocorrelation of the stacked observation over the chosen APs."""
    rows = _ap_rows(scene, aps)
    R = (1.0 / scene.gamma_u) * np.eye(len(rows), dtype=complex)
    for l in range(scene.num_ues):
        B = stacked_channel(scene)[l][rows]
        R += (B * scene.power[l]) @ B.conj().T
    return R


def lmmse_column_sliced(scene: UplinkScene, assoc):
    """Column-sliced weights from the dense inverse of the covariance."""
    M, N = scene.num_aps, scene.num_subcarriers
    Rinv = np.linalg.inv(scene_covariance(scene))
    out = []
    for k in range(scene.num_ues):
        sub = scene.subcarriers[k]
        W = np.zeros((M * N, len(sub)), dtype=complex)
        for m in assoc.ap_sets[k]:
            local = np.zeros((N, len(sub)), dtype=complex)
            local[sub, np.arange(len(sub))] = (scene.freq[m, k, sub]
                                               * np.sqrt(scene.power[k]))
            W += Rinv[:, m * N:(m + 1) * N] @ local
        out.append(W)
    return out


def lmmse_reduced(scene: UplinkScene, assoc, k: int) -> np.ndarray:
    """Reduced MMSE weights from one dense solve over the associated APs."""
    rows = _ap_rows(scene, assoc.ap_sets[k])
    B = stacked_channel(scene)[k][rows]
    W = np.zeros((scene.num_aps * scene.num_subcarriers, B.shape[1]),
                 dtype=complex)
    W[rows] = np.linalg.solve(stacked_covariance(scene, assoc.ap_sets[k]),
                              B * np.sqrt(scene.power[k]))
    return W


def local_block(scene: UplinkScene, m: int, l: int) -> np.ndarray:
    """UE l's power-scaled channel at AP m, shape (N, N_l)."""
    N = scene.num_subcarriers
    sub = scene.subcarriers[l]
    B = np.zeros((N, len(sub)), dtype=complex)
    B[sub, np.arange(len(sub))] = scene.freq[m, l, sub] * np.sqrt(scene.power[l])
    return B


def local_ap_weights(scene: UplinkScene, m: int, k: int) -> np.ndarray:
    """AP m's MMSE weights (N, N_k) against its own diagonal covariance."""
    diag = np.full(scene.num_subcarriers, 1.0 / scene.gamma_u)
    for l in range(scene.num_ues):
        sub = scene.subcarriers[l]
        diag[sub] += np.abs(scene.freq[m, l, sub]) ** 2 * scene.power[l]
    return local_block(scene, m, k) / diag[:, None]


def local_combining_stats(scene: UplinkScene, assoc, k: int):
    """Per-AP (A, C) from the (N, N) local covariance matrices."""
    N = scene.num_subcarriers
    stats = {}
    for m in assoc.ap_sets[k]:
        W = local_ap_weights(scene, m, k)
        Bk = local_block(scene, m, k)
        Rm = (1.0 / scene.gamma_u) * np.eye(N, dtype=complex)
        for l in range(scene.num_ues):
            Bl = local_block(scene, m, l)
            Rm += Bl @ Bl.conj().T
        stats[m] = (W.conj().T @ Bk, W.conj().T @ (Rm - Bk @ Bk.conj().T) @ W)
    return stats


def mrc_lambdas(scene: UplinkScene, assoc, k: int) -> dict:
    """MRC fusion weights diag(C^-1 A^H) / |A_k| from the matrix statistics."""
    stats = local_combining_stats(scene, assoc, k)
    return {m: np.diag(np.linalg.solve(C, A.conj().T)) / len(stats)
            for m, (A, C) in stats.items()}


def combined_sinr(scene: UplinkScene, k: int, lambdas) -> np.ndarray:
    """Post-combining SINR of the per-AP fusion weights ``lambdas``
    (M, N_k), one interfering symbol at a time."""
    aps = range(scene.num_aps)
    weights = {m: local_ap_weights(scene, m, k) for m in aps}
    nk = len(scene.subcarriers[k])
    sinrs = np.empty(nk)
    for i in range(nk):
        amp = sum(lambdas[m][i] * (weights[m][:, i].conj()
                                   @ local_block(scene, m, k)[:, i])
                  for m in aps)
        var = 0.0
        for l in range(scene.num_ues):
            for j in range(len(scene.subcarriers[l])):
                if l == k and j == i:
                    continue
                coef = sum(lambdas[m][i] * (weights[m][:, i].conj()
                                            @ local_block(scene, m, l)[:, j])
                           for m in aps)
                var += np.abs(coef) ** 2
        var += sum(np.abs(lambdas[m][i]) ** 2
                   * np.linalg.norm(weights[m][:, i]) ** 2
                   for m in aps) / scene.gamma_u
        sinrs[i] = np.abs(amp) ** 2 / var
    return sinrs


def fused_estimates(scene: UplinkScene, k: int, lambdas,
                    y: np.ndarray) -> np.ndarray:
    """CPU fusion sum_m lambda_m (W_m^H y_m) of the local estimates with
    per-AP weights ``lambdas`` (M, N_k), draw by draw; y is (draws, M, N)."""
    z = np.zeros((y.shape[0], len(scene.subcarriers[k])), dtype=complex)
    for u in range(y.shape[0]):
        for m, lam in enumerate(lambdas):
            z[u] += lam * (local_ap_weights(scene, m, k).conj().T @ y[u, m])
    return z


class ApmpLayout:
    """Slot/participant bookkeeping of one scene for the APMP oracle."""

    def __init__(self, scene, assoc):
        self.scene = scene
        self.assoc = assoc
        M, N = scene.num_aps, scene.num_subcarriers
        self.slot_of = []
        for k in range(scene.num_ues):
            table = {int(n): i for i, n in enumerate(scene.subcarriers[k])}
            self.slot_of.append(table)
        self.participants = {}
        for m in range(M):
            for n in range(N):
                who = [k for k in assoc.ue_sets[m] if n in self.slot_of[k]]
                if who:
                    self.participants[(m, n)] = who

    def amplitude(self, m, k, n):
        i = self.slot_of[k][n]
        return np.sqrt(self.scene.power[k][i]) * self.scene.freq[m, k, n]


def _apmp_normalize(vec, clamp):
    v = vec - vec[0]
    return np.clip(v, -clamp, clamp)


def _logsumexp(a, axis=0):
    peak = np.max(a, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(a - peak), axis=axis,
                                 keepdims=True))).squeeze(axis)


def apmp_factor_messages(layout, m, n, y_mn, priors, pts, gamma_u, clamp):
    """Messages from AP m about every UE it monitors on subcarrier n;
    ``priors`` maps (ue, slot) -> the aggregated incoming log-prob vector."""
    who = layout.participants[(m, n)]
    Q = len(pts)
    coefs = np.array([layout.amplitude(m, k, n) for k in who])
    out = {}
    for pos, k in enumerate(who):
        others = [j for j in range(len(who)) if j != pos]
        msg = np.empty(Q)
        if not others:
            msg = -gamma_u * np.abs(y_mn - coefs[pos] * pts) ** 2
        else:
            combos = np.array(list(product(range(Q), repeat=len(others))))
            partial = (pts[combos] * coefs[others]).sum(axis=1)
            slots = [layout.slot_of[who[j]][n] for j in others]
            prior = np.zeros(len(combos))
            for col, j in enumerate(others):
                prior = prior + priors[(who[j], slots[col])][combos[:, col]]
            for q in range(Q):
                ll = -gamma_u * np.abs(y_mn - partial - coefs[pos] * pts[q]) ** 2
                msg[q] = _logsumexp(ll + prior)
        out[(k, layout.slot_of[k][n])] = _apmp_normalize(msg, clamp)
    return out


def apmp_message_round(scene, assoc, y, messages, config: ApmpConfig,
                       layout=None) -> dict:
    """One flooding round on dict messages keyed (ap, ue, slot); an empty
    dict yields the intrinsic messages."""
    layout = layout or ApmpLayout(scene, assoc)
    pts = constellation(config.points)
    Q = len(pts)
    zero = np.zeros(Q)
    new = {}
    for (m, n), who in layout.participants.items():
        priors = {}
        for k in who:
            i = layout.slot_of[k][n]
            agg = np.zeros(Q)
            for j in assoc.ap_sets[k]:
                if j != m:
                    agg = agg + messages.get((j, k, i), zero)
            priors[(k, i)] = agg
        local = apmp_factor_messages(layout, m, n, y[m, n], priors, pts,
                                     scene.gamma_u, config.llr_clamp)
        for (k, i), msg in local.items():
            if config.damping > 0 and (m, k, i) in messages:
                msg = ((1 - config.damping) * msg
                       + config.damping * messages[(m, k, i)])
            new[(m, k, i)] = _apmp_normalize(msg, config.llr_clamp)
    return new


def _apmp_beliefs(messages, Q):
    beliefs = {}
    for (m, k, i), msg in messages.items():
        key = (k, i)
        beliefs[key] = beliefs.get(key, np.zeros(Q)) + msg
    return beliefs


def apmp_detect(scene, assoc, y, config: ApmpConfig = ApmpConfig()) -> ApmpResult:
    """Flooding message passing and decisions on dict messages."""
    layout = ApmpLayout(scene, assoc)
    Q = len(constellation(config.points))
    undetected = frozenset(k for k in range(scene.num_ues)
                           if not assoc.ap_sets[k])

    messages = apmp_message_round(scene, assoc, y, {}, config, layout)
    trace = []
    iterations = 0
    converged = config.max_iterations == 0
    if config.max_iterations > 0:
        prev_belief = _apmp_beliefs(messages, Q)
        for it in range(1, config.max_iterations + 1):
            messages = apmp_message_round(scene, assoc, y, messages, config,
                                          layout)
            belief = _apmp_beliefs(messages, Q)
            delta = max((np.max(np.abs(belief[key] - prev_belief[key]))
                         for key in belief), default=0.0)
            trace.append(delta)
            iterations = it
            prev_belief = belief
            if delta < config.tol:
                converged = True
                break

    decisions, marginals = [], []
    for k in range(scene.num_ues):
        if k in undetected or not scene.subcarriers[k].size:
            decisions.append(None)
            marginals.append(None)
            continue
        designated = min(assoc.ap_sets[k])
        nk = len(scene.subcarriers[k])
        dec = np.empty(nk, dtype=int)
        marg = np.empty((nk, Q))
        for i in range(nk):
            total = messages[(designated, k, i)].copy()
            if config.max_iterations > 0:
                for j in assoc.ap_sets[k]:
                    if j != designated:
                        total = total + messages[(j, k, i)]
            p = np.exp(total - total.max())
            marg[i] = p / p.sum()
            dec[i] = int(np.argmax(total))
        decisions.append(dec)
        marginals.append(marg)
    return ApmpResult(decisions=decisions, marginals=marginals,
                      iterations=iterations, converged=converged,
                      trace=trace, undetected=undetected)


# largest joint enumeration allowed in the exact oracle
_ORACLE_GUARD = 2 ** 20


def map_oracle(scene, assoc, component, y, points="bpsk"):
    """Exact posterior marginals by joint enumeration inside one component.

    ``component`` is an (AP set, UE set) pair from the factor graph.  The
    joint likelihood factorizes over subcarriers, so each subcarrier's
    active UEs are enumerated separately; the guard caps that enumeration.
    Returns {(ue, slot): (Q,) posterior} for every symbol in the component.
    """
    aps, ues = component
    pts = constellation(points)
    Q = len(pts)
    slot_of = [{int(n): i for i, n in enumerate(s)} for s in scene.subcarriers]
    out = {}
    for n in range(scene.num_subcarriers):
        active = sorted(k for k in ues if n in slot_of[k])
        if not active:
            continue
        if Q ** len(active) > _ORACLE_GUARD:
            raise ValueError("oracle state space too large")
        combos = apmp._joint_table(Q, len(active))
        loglik = np.zeros(len(combos))
        for m in sorted(aps):
            who = [k for k in assoc.ue_sets[m] if n in slot_of[k]]
            if not who:
                continue
            amp = np.array([[np.sqrt(scene.power[k][slot_of[k][n]])
                             * scene.freq[m, k, n] for k in who]])
            cols = [active.index(k) for k in who]
            mean = apmp._joint_means(amp, pts, combos[:, cols])[0]
            loglik = loglik - scene.gamma_u * np.abs(y[m, n] - mean) ** 2
        joint = loglik.reshape((1,) + (Q,) * len(active))
        for col, k in enumerate(active):
            post = apmp._marginalize(joint, col, len(active))[0]
            p = np.exp(post - post.max())
            out[(k, slot_of[k][n])] = p / p.sum()
    return out


class EdgeIndex:
    """``apmp.EdgeIndex`` built as it was before it read the graph off the
    incidence array: an M x N x K Python loop, per-edge tuples, the
    (m, k, i) -> e dict and each edge's sibling list, all built eagerly."""

    def __init__(self, scene, assoc, points="bpsk"):
        self.pts = constellation(points)
        self.gamma_u = scene.gamma_u
        Q, K = len(self.pts), scene.num_ues
        slot_of = [{int(n): i for i, n in enumerate(s)}
                   for s in scene.subcarriers]
        edges, factors = [], []
        for m in range(scene.num_aps):
            for n in range(scene.num_subcarriers):
                who = [k for k in assoc.ue_sets[m] if n in slot_of[k]]
                if who:
                    factors.append((len(edges), len(who)))
                    edges += [(m, k, slot_of[k][n]) for k in who]
        E = len(edges)
        self.edge = {key: e for e, key in enumerate(edges)}
        self.slots = sorted({(k, i) for _, k, i in edges})
        row = {s: r for r, s in enumerate(self.slots)}
        self.slot = np.array([row[(k, i)] for _, k, i in edges], dtype=int)
        self.designated = np.unique(self.slot, return_index=True)[1]
        bounds = np.searchsorted([k for k, _ in self.slots], np.arange(K + 1))
        self.ue_rows = [slice(lo, hi) if hi > lo else None
                        for lo, hi in zip(bounds, bounds[1:])]
        self.undetected = frozenset(k for k in range(K) if not assoc.ap_sets[k])

        sibs = [[self.edge[(j, k, i)] for j in assoc.ap_sets[k] if j != m]
                for m, k, i in edges]
        width = max(map(len, sibs), default=0)
        self.siblings = np.array([s + [E] * (width - len(s)) for s in sibs],
                                 dtype=int).reshape(E, width)

        m_e, k_e, _ = np.array(edges, dtype=int).reshape(E, 3).T
        n_e = np.array([scene.subcarriers[k][i] for _, k, i in edges], dtype=int)
        power = np.array([scene.power[k][i] for _, k, i in edges], dtype=float)
        amp = np.sqrt(power) * scene.freq[m_e, k_e, n_e]
        self.groups = []
        for d in sorted({deg for _, deg in factors}):
            if Q ** d > apmp._LOCAL_GUARD:
                raise ValueError("local marginalization too large")
            first = np.array([e for e, deg in factors if deg == d])
            grp = first[:, None] + np.arange(d)
            table = apmp._joint_table(Q, d)
            self.groups.append((grp, (m_e[first], n_e[first]),
                                apmp._joint_means(amp[grp], self.pts, table),
                                table))

def observation_matrix(plan: PilotPlan, ue: int) -> np.ndarray:
    """UE ``ue``'s (N * tau_p, L) observation matrix, one symbol block at
    a time."""
    N, tau_p, L = plan.num_subcarriers, plan.num_symbols, plan.num_taps
    sub = plan.subcarrier_sets[ue]
    F_L = _dft_columns(N, L)
    A = np.zeros((N * tau_p, L), dtype=complex)
    for i in range(tau_p):
        scattered = np.zeros(N, dtype=complex)
        scattered[sub] = plan.pilot_blocks[ue][:, i]
        A[i * N:(i + 1) * N] = scattered[:, None] * F_L
    return np.sqrt(plan.pilot_power) * A


def simulate_pilot_rx(plan: PilotPlan, channels, assoc, noise_var, rng,
                      interference_var=None):
    """Received pilots ``(Y, level)`` built one AP at a time: the AP's
    served UEs added in ascending order, the default interference summed
    over the UEs it does not serve, and, when its level is positive, its
    own real then imaginary noise draw."""
    rng = np.random.default_rng(rng)
    N, tau_p = plan.num_subcarriers, plan.num_symbols
    M = channels.gains.shape[0]
    Y, level = np.zeros((M, N * tau_p), dtype=complex), np.zeros(M)
    for m in range(M):
        if interference_var is None:
            sj2 = 0.0
            for k in range(plan.num_ues):
                if m not in assoc.ap_sets[k]:
                    sj2 += (plan.pilot_power * channels.gains[m, k]
                            * len(plan.subcarrier_sets[k]) / N)
        else:
            sj2 = float(np.broadcast_to(interference_var, (M,))[m])
        rx = np.zeros((N, tau_p), dtype=complex)
        for k in assoc.ue_sets[m]:
            scattered = np.zeros((N, tau_p), dtype=complex)
            scattered[plan.subcarrier_sets[k]] = plan.pilot_blocks[k]
            rx += (np.sqrt(plan.pilot_power)
                   * channels.freq[m, k][:, None] * scattered)
        level[m] = noise_var + sj2
        if level[m] > 0:
            rx += np.sqrt(level[m] / 2.0) * (
                rng.standard_normal((N, tau_p))
                + 1j * rng.standard_normal((N, tau_p)))
        Y[m] = rx.reshape(-1, order="F")
    return Y, level


def mmse_estimate(y, level, plan: PilotPlan, ue: int, priors,
                  mode="single", coestimated=()):
    """Unbiased MMSE estimate of UE ``ue``'s taps, rebuilding the bracket
    and its inverse for this one link."""
    A = observation_matrix(plan, ue)
    Q = np.asarray(priors[ue], dtype=complex)
    n = A.shape[0]

    if mode == "single":
        bracket = A @ Q @ A.conj().T + level * np.eye(n)
    elif mode == "mui_suppress":
        others = set(coestimated) | {ue}
        bracket = level * np.eye(n).astype(complex)
        for l in sorted(others):
            Al = observation_matrix(plan, l)
            bracket += Al @ np.asarray(priors[l], dtype=complex) @ Al.conj().T
    else:
        raise ValueError(f"unknown mode {mode!r}")

    G = Q.conj().T @ A.conj().T @ _guarded_inverse(bracket)
    c = np.diag(G @ A)
    if np.any(np.abs(c) < 1e-300):
        raise ValueError("ill-conditioned training: degenerate prior")
    return (G @ y) / c


def matched_filter_estimate(y, plan: PilotPlan, ue: int) -> np.ndarray:
    """UE ``ue``'s taps from one AP observation, each tap its column's
    a^H y / ||a||^2 on the oracle's own observation matrix."""
    A = observation_matrix(plan, ue)
    return np.array([np.vdot(a, y) / np.vdot(a, a).real for a in A.T])


def bracket_mmse_estimate(y, level, plan: PilotPlan, ues, priors,
                          mode="single") -> dict:
    """Unbiased MMSE estimates {k: taps} of UEs ``ues`` from one AP
    observation, through the N tau_p-sized bracket: one bracket and one
    guarded inverse per estimation group."""
    if mode not in ("single", "mui_suppress"):
        raise ValueError(f"unknown mode {mode!r}")
    A = {k: observation_matrix(plan, k) for k in ues}
    Q = {k: np.asarray(priors[k], dtype=complex) for k in ues}
    joint = mode == "mui_suppress"
    out = {}
    for group in [sorted(ues)] if joint and len(ues) else [[k] for k in ues]:
        bracket = level * np.eye(len(y)).astype(complex)
        for l in group:
            bracket += A[l] @ Q[l] @ A[l].conj().T
        inverse = _guarded_inverse(bracket)
        for k in group:
            G = Q[k].conj().T @ A[k].conj().T @ inverse
            c = np.diag(G @ A[k])
            if np.any(np.abs(c) < 1e-300):
                raise ValueError("ill-conditioned training: degenerate prior")
            out[k] = (G @ y) / c
    return out


def sample_small_scale(num_taps: int, rng, decay: float = 0.0) -> np.ndarray:
    """I.i.d. circularly-symmetric Gaussian taps with E[sum |h|^2] = 1."""
    rng = np.random.default_rng(rng)
    p = pdp_profile(num_taps, decay)
    z = rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps)
    return np.sqrt(p / 2.0) * z


def realize_channels(topology, model, num_subcarriers: int, num_taps=2,
                     rng=None, decay: float = 0.0) -> ChannelRealization:
    """Channel realization drawing each link's taps in its own call, in
    row-major (AP, UE) order."""
    rng = np.random.default_rng(rng)
    d = topology.distances()
    M, K = d.shape
    if num_taps > num_subcarriers:
        raise ValueError("CIR longer than symbol")

    gains = sample_large_scale(d, model, rng)
    taps = np.zeros((M, K, num_taps), dtype=complex)
    for m in range(M):
        for k in range(K):
            taps[m, k] = sample_small_scale(num_taps, rng, decay)
    freq = subcarrier_gains(taps, gains[..., None], num_subcarriers)
    return ChannelRealization(gains=gains, taps=taps, freq=freq)


def estimated_subcarrier_gains(estimates, num_subcarriers) -> np.ndarray:
    """Per-subcarrier gains of estimated taps (M, K, L), one FFT per
    (AP, UE) link."""
    M, K, _ = estimates.shape
    hf = np.zeros((M, K, num_subcarriers), dtype=complex)
    for m, k in product(range(M), range(K)):
        hf[m, k] = subcarrier_gains(estimates[m, k], 1.0, num_subcarriers)
    return hf


def nmse(estimates, channels, assoc) -> float:
    """Estimation NMSE over the associated links, one link at a time in
    (AP, UE) order."""
    err = num = 0.0
    for m, ues in enumerate(assoc.ue_sets):
        for k in ues:
            est = estimates[m, k]
            truth = np.sqrt(channels.gains[m, k]) * channels.taps[m, k, :len(est)]
            err += float(np.sum(np.abs(est - truth) ** 2))
            num += float(np.sum(np.abs(truth) ** 2))
    return err / num if num > 0 else np.nan


# ---------------------------------------------------------------------------
# successive allocation, one power stage per direction

def maxmin_power_control(evaluator, budgets, tol=1e-3) -> MaxMinResult:
    """Max-min bisection that evaluates the fixed point's last powers once
    more, and the returned powers once more again."""
    budgets = np.asarray(budgets, dtype=float)
    K = budgets.size

    def feasible(target):
        p = budgets * 1e-6
        for _ in range(MAX_FIXED_POINT):
            g = np.maximum(evaluator(p), 1e-300)
            p, p_last = np.minimum(p * target / g, budgets), p
            if np.allclose(p, p_last, rtol=1e-9, atol=1e-15):
                break
        g = evaluator(p)
        return np.all(g >= target * (1 - 1e-6)), p

    alone = np.empty(K)
    for k in range(K):
        solo = np.zeros(K)
        solo[k] = budgets[k]
        alone[k] = evaluator(solo)[k]
    hi = float(alone.min())
    ok_hi, p_hi = feasible(hi)
    if ok_hi:
        g = evaluator(p_hi)
        return MaxMinResult(powers=p_hi, target=hi, achieved=g,
                            noise_limited=True)
    lo, p_best = 0.0, np.zeros(K)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, p = feasible(mid)
        if ok:
            lo, p_best = mid, p
        else:
            hi = mid
    g = evaluator(p_best) if p_best.any() else np.zeros(K)
    return MaxMinResult(powers=p_best, target=lo, achieved=g,
                        noise_limited=False)


def allocate_power_waterfill(snr_per_unit, budget) -> np.ndarray:
    """Water-filling over one UE's subcarriers, the kept inverse gains
    gathered through the sort order on every pass."""
    if budget <= 0:
        raise ValueError("power budget must be positive")
    s = np.asarray(snr_per_unit, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one assigned subcarrier")
    if np.any(s <= 0):
        usable = s > 0
        out = np.zeros_like(s)
        if not np.any(usable):
            return out
        out[usable] = allocate_power_waterfill(s[usable], budget)
        return out
    inv = 1.0 / s
    order = np.argsort(inv)
    level = 0.0
    active = len(s)
    for drop in range(len(s)):
        active = len(s) - drop
        keep = order[:active]
        level = (budget + inv[keep].sum()) / active
        if level > inv[order[active - 1]]:
            break
    powers = np.maximum(level - inv, 0.0)
    powers[order[active:]] = 0.0
    powers *= budget / powers.sum()
    return powers


def ul_rates(freq, gamma_u, subcarriers, powers):
    """Per-UE rates and global MMSE symbol SINRs of a candidate uplink plan,
    from :func:`batched_uplink_sinr_all` on a fresh scene."""
    sinrs = batched_uplink_sinr_all(UplinkScene(
        freq=freq, subcarriers=subcarriers, power=powers, gamma_u=gamma_u))
    return ue_rates(sinrs), sinrs


def successive_optimize(freq, assoc, demands, objective="sum_rate",
                        direction="ul", gamma_u=None, noise_var=None,
                        p_max=1.0, p_max_element=None, mode="exclusive",
                        components=None, refine_iterations=1,
                        min_refine=1) -> AllocationPlan:
    """Association -> greedy subcarriers -> power, with separate uplink
    and downlink power stages.

    The uplink water-fills at least ``min_refine`` times, so by default
    once even at ``refine_iterations`` 0, and reports the bisection's
    target as its max-min objective; the downlink spreads max-min powers
    as p_k / N_k.
    """
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    demands = np.broadcast_to(np.asarray(demands, dtype=int), (K,)).copy()
    demands[[not assoc.ap_sets[k] for k in range(K)]] = 0
    metric = subcarrier_metric(freq, assoc)
    subs = allocate_subcarriers_greedy(metric, demands, mode, components)

    if direction == "ul":
        healthy, seen = True, None

        def evaluate(powers):
            nonlocal healthy, seen
            rates, sinrs = ul_rates(freq, gamma_u, subs, powers)
            g = np.concatenate(sinrs)
            if healthy and not _all_positive(g):
                if seen is None:
                    ue = np.repeat(np.arange(K), [len(s) for s in subs])
                    seen = np.any(freq[:, ue, np.concatenate(subs)] != 0,
                                  axis=0)
                healthy = _all_positive(g[seen & (np.concatenate(powers) > 0)])
            return rates, sinrs

        powers = [np.full(len(s), 1.0 / max(len(s), 1)) for s in subs]
        if objective == "sum_rate":
            for _ in range(max(refine_iterations, min_refine)):
                _, sinrs = evaluate(powers)
                powers = [allocate_power_waterfill(g / np.maximum(p, 1e-300),
                                                   1.0) if len(p) else p
                          for p, g in zip(powers, sinrs)]
            rates, sinrs = evaluate(powers)
            objective_value = float(rates.sum())
        else:
            splits = [np.full(len(s), 1.0 / max(len(s), 1)) for s in subs]

            def evaluator(p):
                _, sinrs = evaluate([p[k] * splits[k] for k in range(K)])
                return np.array([np.min(g) if len(g) else np.inf
                                 for g in sinrs])

            if any(map(len, subs)):
                result = maxmin_power_control(evaluator, np.ones(K))
                powers = [result.powers[k] * splits[k] for k in range(K)]
                objective_value = float(result.target)
            else:
                powers, objective_value = [np.zeros(0)] * K, 0.0
            evaluate(powers)        # the health check sees the final powers
        plan = AllocationPlan(subcarriers=subs, ul_power=powers,
                              objective=objective_value)
        plan.audit = audit_plan(plan, N, mode, components,
                                {"ul_sinrs_positive": healthy})
        return plan

    counts = np.array([len(s) for s in subs])
    ks, ns = np.repeat(np.arange(K), counts), np.concatenate(subs)
    delta = np.zeros((K, N))
    delta[ks, ns] = 1.0 / max(len(ns), 1)

    def build(delta_now):
        precoders = downlink.tmmse_central_ofdm(freq, subs, noise_var,
                                                delta_now, assoc=assoc)
        elem = downlink.expected_ap_element_powers(precoders)
        if elem.sum() == 0:
            return None, [np.zeros(len(s)) for s in subs]
        a0 = downlink.compute_a0(
            elem.sum(axis=1), p_max,
            element_powers=elem if p_max_element is not None else None,
            element_max=p_max_element)
        return a0, downlink.dl_sinr_ofdm(freq, precoders, subs, a0, noise_var)

    if objective == "sum_rate":
        a0, sinrs = build(delta)
        for _ in range(max(refine_iterations, 0)):
            if not len(ns):
                break
            flat_gain = (np.concatenate(sinrs)
                         / np.maximum(delta[ks, ns], 1e-300))
            delta = np.zeros((K, N))
            delta[ks, ns] = allocate_power_waterfill(flat_gain, 1.0)
            a0, sinrs = build(delta)
    else:
        def spread(p):
            d = np.zeros((K, N))
            d[ks, ns] = p[ks] / counts[ks]
            return d / d.sum() if d.sum() > 1.0 else d

        def evaluator(p):
            return np.array([np.min(g) if len(g) else np.inf
                             for g in build(spread(p))[1]])

        if any(map(len, subs)):
            result = maxmin_power_control(evaluator, np.ones(K))
            delta = spread(result.powers)
        a0, sinrs = build(delta)

    rates = np.array([np.sum(np.log2(1.0 + np.asarray(g))) for g in sinrs])
    plan = AllocationPlan(subcarriers=subs, dl_power=delta,
                          a0=a0, dl_sinrs=sinrs,
                          objective=float(rates.sum()))
    if objective == "max_min":
        plan.objective = float(min((np.min(g) for g in sinrs
                                    if len(g)), default=0.0))
    plan.audit = audit_plan(plan, N, mode, components)
    return plan


def apmp_draw_loop(scene, assoc, ys, indices, config: ApmpConfig):
    """Per-UE SER and mean iteration count over (D, M, N) draws ``ys``,
    detecting one draw per ``apmp_detect`` call; a UE with no detected
    symbol has SER NaN."""
    M, N = scene.num_aps, scene.num_subcarriers
    results = [apmp.apmp_detect(scene, assoc, y.reshape(M, N), config)
               for y in ys]
    ser = np.full(scene.num_ues, np.nan)
    for k in range(scene.num_ues):
        if results[0].decisions[k] is None:
            continue
        wrong = np.array([r.decisions[k] for r in results]) != indices[k]
        # per-draw SERs summed in draw order
        ser[k] = sum(np.mean(wrong, axis=1)) / len(ys)
    return list(ser), float(np.mean([r.iterations for r in results]))
