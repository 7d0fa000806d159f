"""Downlink precoding: centralized MMSE, distributed MF/ZF/regularized
MMSE, the common amplification gain, and artificial-noise secrecy.

Subcarrier-level functions work on an (M, K) channel matrix (one complex
gain per AP-UE pair).  Subcarriers do not couple, so an OFDM-level
precoder is one (N, M, K) array: slice n is the subcarrier-level precoder
of subcarrier n, solved for all N in one batch, and a UE's column is zero
on every subcarrier it does not transmit on.  Distributed precoders are
computed per AP from that AP's local channels only; multi-antenna APs
appear as an (M, U, K) channel tensor.
"""

from __future__ import annotations

import warnings

import numpy as np


# ---------------------------------------------------------------------------
# centralized precoding

def tmmse_central_subcarrier(channels, noise_var, delta, assoc=None):
    """Per-UE MMSE precoding vectors, shape (M, K).

    Column k solves (sum_l h_l* h_l^T + noise * I) p = sqrt(delta_k) h_k*.
    With ``assoc`` given, channel entries of non-associated APs are zeroed
    first (the CPU only knows the associated links).
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    h = np.array(channels, dtype=complex)
    M, K = h.shape
    if assoc is not None:
        h = h * assoc.zeta()
    R = h.conj() @ h.T + noise_var * np.eye(M)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (K,))
    return np.linalg.solve(R, h.conj()) * np.sqrt(delta)


def receive_mmse_weights(channels, noise_var):
    """Receive-side MMSE weights of the dual uplink, shape (M, K)."""
    h = np.asarray(channels, dtype=complex)
    R = h @ h.conj().T + noise_var * np.eye(h.shape[0])
    return np.linalg.solve(R, h)


def tmmse_central_ofdm(freq, subcarrier_sets, noise_var, delta, assoc=None):
    """OFDM-symbol-level MMSE precoders, shape (N, M, K).

    ``delta`` is (K, N).  Slice n holds every UE's precoder on subcarrier
    n; a UE's column is zero on subcarriers outside its set.  Collapses to
    the subcarrier-level precoder at N = 1.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    if assoc is not None:
        freq = freq * assoc.zeta()[:, :, None]
    delta = np.asarray(delta, dtype=float)
    mask = np.zeros((N, K))
    for l in range(K):
        mask[np.asarray(subcarrier_sets[l], dtype=int), l] = 1.0
    # per subcarrier: (noise * I + sum_{l on n} h_ln* h_ln^T) P_n = H_n*
    H = freq.transpose(2, 0, 1)                          # (N, M, K)
    bracket = ((H.conj() * mask[:, None, :]) @ H.transpose(0, 2, 1)
               + noise_var * np.eye(M))
    X = np.linalg.solve(bracket, H.conj())               # (N, M, K)
    return X * (mask * np.sqrt(delta).T)[:, None, :]


# ---------------------------------------------------------------------------
# common amplification gain

def expected_ap_powers_subcarrier(precoders) -> np.ndarray:
    """Expected unamplified transmit power per AP for unit-power symbols."""
    return np.sum(np.abs(np.asarray(precoders)) ** 2, axis=1)


def expected_ap_element_powers(precoders) -> np.ndarray:
    """Expected unamplified power of each OFDM output element, (M, N)."""
    powers = np.abs(np.asarray(precoders)) ** 2
    # row-major, so that per-AP totals over N reduce pairwise
    return np.ascontiguousarray(powers.sum(axis=2).T)


def compute_a0(total_powers, p_max, element_powers=None, element_max=None) -> float:
    """Largest common gain meeting every per-AP (and per-element) power cap.

    Powers are expected values for unit-power independent symbols; the
    returned gain satisfies every constraint, with at least one tight.
    """
    total_powers = np.asarray(total_powers, dtype=float)
    caps = np.broadcast_to(np.asarray(p_max, dtype=float), total_powers.shape)
    ratios = []
    live = total_powers > 0
    if np.any(live):
        ratios.append(np.min(caps[live] / total_powers[live]))
    if element_powers is not None:
        element_powers = np.asarray(element_powers, dtype=float)
        ecaps = np.broadcast_to(np.asarray(element_max, dtype=float),
                                element_powers.shape)
        live_e = element_powers > 0
        if np.any(live_e):
            ratios.append(np.min(ecaps[live_e] / element_powers[live_e]))
    if not ratios:
        raise ValueError("nothing to transmit")
    return float(np.sqrt(min(ratios)))


# ---------------------------------------------------------------------------
# downlink SINR and rate

def dl_sinr_subcarrier(channels, precoders, a0, noise_var) -> np.ndarray:
    """Per-UE SINR of the subcarrier-level transmission, true channels."""
    h = np.asarray(channels, dtype=complex)
    gains = np.abs(h.T @ precoders) ** 2          # (K receivers, K streams)
    desired = np.diag(gains)
    interference = gains.sum(axis=1) - desired
    return desired / (interference + noise_var / a0**2)


def dl_sinr_ofdm(freq, precoders, subcarrier_sets, a0, noise_var):
    """Per-UE arrays of per-symbol SINR for the OFDM-level transmission."""
    freq = np.asarray(freq, dtype=complex)
    K = freq.shape[1]
    # gain[n, k, l]: UE k hears stream l on subcarrier n through h_kn^T p_ln
    gain = np.abs(np.einsum("mkn,nml->nkl", freq, precoders)) ** 2
    desired = np.diagonal(gain, axis1=1, axis2=2).copy()
    gain[:, np.arange(K), np.arange(K)] = 0.0
    sinr = desired / (gain.sum(axis=2) + noise_var / a0**2)        # (N, K)
    return [sinr[np.asarray(s, dtype=int), k]
            for k, s in enumerate(subcarrier_sets)]


# ---------------------------------------------------------------------------
# distributed precoding (per-AP local channels, optionally multi-antenna)

def dist_tzf_precode(local_channels) -> np.ndarray:
    """Zero-forcing precoder of one AP: P = H* (H^T H*)^-1, (U, n) shape.

    Satisfies H^T P = I, so every served UE hears its own stream with unit
    gain and none of the co-served streams.
    """
    H = np.atleast_2d(np.asarray(local_channels, dtype=complex))
    U, n = H.shape
    if U < n:
        raise ValueError("TZF infeasible: fewer antennas than served UEs")
    G = H.T @ H.conj()
    if np.linalg.matrix_rank(G) < n:
        raise ValueError("TZF infeasible: rank-deficient local channels")
    return np.linalg.solve(G.T, H.conj().T).T


def dist_regmmse_precode(local_channels, reg) -> np.ndarray:
    """Regularized variant P = H* (H^T H* + reg I)^-1, (U, n) shape.

    reg = 0 recovers zero forcing, reg = noise variance the MMSE form,
    reg -> infinity the matched-filter directions.
    """
    if reg < 0:
        raise ValueError("regulation parameter must be nonnegative")
    H = np.atleast_2d(np.asarray(local_channels, dtype=complex))
    n = H.shape[1]
    if reg == 0:
        return dist_tzf_precode(H)
    G = H.T @ H.conj() + reg * np.eye(n)
    return np.linalg.solve(G.T, H.conj().T).T


def normalize_columns(P) -> np.ndarray:
    """Scale precoder columns to unit norm (unit per-stream transmit power)."""
    P = np.asarray(P, dtype=complex)
    norms = np.linalg.norm(P, axis=0)
    out = P.copy()
    nz = norms > 0
    out[:, nz] = P[:, nz] / norms[nz]
    return out


def distributed_directions(channels, assoc, method="mf", reg=None,
                           unit_norm=None) -> np.ndarray:
    """Per-AP transmit directions for every served UE, shape (M, U, K).

    ``channels`` is (M, U, K) (use U = 1 for single-antenna APs).  Methods:
    ``mf`` sends h*/|h| per link; ``tzf`` and ``regmmse`` use the local
    joint precoders, by default unnormalized so each served UE sees unit
    (tzf) or near-unit effective gain.  ``unit_norm=True`` rescales every
    column to unit transmit power instead.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 2:
        h = h[:, None, :]
    M, U, K = h.shape
    if unit_norm is None:
        unit_norm = method == "mf"
    dirs = np.zeros((M, U, K), dtype=complex)
    for m in range(M):
        served = list(assoc.ue_sets[m])
        if not served:
            continue
        H = h[m][:, served]
        if method == "mf":
            P = H.conj()
            dead = np.linalg.norm(H, axis=0) == 0
            if np.any(dead):
                warnings.warn(f"AP {m}: zero channel toward served UE(s) "
                              f"{[served[i] for i in np.flatnonzero(dead)]}; "
                              "skipping those links")
        elif method == "tzf":
            P = dist_tzf_precode(H)
        elif method == "regmmse":
            if reg is None:
                raise ValueError("regmmse needs a regulation parameter")
            P = dist_regmmse_precode(H, reg)
        else:
            raise ValueError(f"unknown distributed method {method!r}")
        if unit_norm:
            P = normalize_columns(P)
        dirs[m][:, served] = P
    return dirs


def dist_transmit(dirs, powers, symbols) -> np.ndarray:
    """Per-AP signals s_m = sum_k sqrt(P_mk) dir_mk x_k, shape (M, U).

    ``powers`` is (M, K); zero-direction links are skipped so unserved or
    dead links simply contribute nothing.
    """
    dirs = np.asarray(dirs, dtype=complex)
    M, U, K = dirs.shape
    powers = np.asarray(powers, dtype=float)
    x = np.asarray(symbols, dtype=complex)
    return np.einsum("muk,mk,k->mu", dirs, np.sqrt(powers), x)


def receive_downlink(channels, signals, noise_var=0.0, rng=None) -> np.ndarray:
    """Per-UE received samples y_k = sum_m h_mk^T s_m (+ noise), shape (K,)."""
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 2:
        h = h[:, None, :]
    signals = np.asarray(signals, dtype=complex)
    if signals.ndim == 1:
        signals = signals[:, None]
    y = np.einsum("muk,mu->k", h, signals)
    if noise_var > 0:
        rng = np.random.default_rng(rng)
        K = h.shape[2]
        y = y + np.sqrt(noise_var / 2) * (rng.standard_normal(K)
                                          + 1j * rng.standard_normal(K))
    return y


def received_power_split(channels, assoc, dirs, powers, k) -> dict:
    """Desired / co-associated / cross-AP mean received powers at UE k.

    Expectation over unit-power independent symbols; used to check the
    interference structure of the distributed precoders.
    """
    h = np.asarray(channels, dtype=complex)
    if h.ndim == 2:
        h = h[:, None, :]
    M, U, K = h.shape
    desired = 0.0 + 0j
    co, cross = 0.0, 0.0
    for m in range(M):
        for l in assoc.ue_sets[m]:
            amp = np.sqrt(powers[m, l]) * (h[m, :, k] @ dirs[m, :, l])
            if l == k:
                desired += amp
            elif m in assoc.ap_sets[k]:
                co += np.abs(amp) ** 2
            else:
                cross += np.abs(amp) ** 2
    return {"desired_amplitude": desired, "desired": np.abs(desired) ** 2,
            "co_associated": float(co), "cross_ap": float(cross)}


def apply_ap_impairments(signals, phase_std, gain_std, rng) -> np.ndarray:
    """Per-AP oscillator/amplifier errors: s_m -> e^(j theta_m) (1 + eps_m) s_m.

    Distributed APs run independent hardware, so centrally computed signals
    arrive at the UEs without perfect coherence; this models that loss.
    """
    rng = np.random.default_rng(rng)
    signals = np.asarray(signals, dtype=complex)
    M = signals.shape[0]
    theta = phase_std * rng.standard_normal(M)
    eps = gain_std * rng.standard_normal(M)
    factor = np.exp(1j * theta) * (1.0 + eps)
    return signals * factor.reshape((M,) + (1,) * (signals.ndim - 1))


# ---------------------------------------------------------------------------
# artificial-noise secrecy

def artificial_noise_direction(channels, rng=None) -> np.ndarray:
    """Unit vector orthogonal to every UE's channel row (h_k^T p = 0).

    Built by projecting a random vector onto the orthogonal complement of
    span{h_k*}; needs more APs than UEs.
    """
    h = np.asarray(channels, dtype=complex)
    M, K = h.shape
    if M <= K:
        raise ValueError("no artificial-noise null space: need M > K")
    rng = np.random.default_rng(rng)
    basis, _ = np.linalg.qr(h.conj())
    for _ in range(8):
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        v = v - basis @ (basis.conj().T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm
    raise ValueError("no artificial-noise null space: projection degenerate")


def secrecy_transmit(precoders, noise_dir, power_split, symbols,
                     noise_symbol, a0=1.0) -> np.ndarray:
    """Per-AP signals mixing data and null-space artificial noise.

    ``power_split`` in [0, 1] is the fraction of power on data; the
    remainder rides the artificial-noise direction.
    """
    if not 0.0 <= power_split <= 1.0:
        raise ValueError("power split must lie in [0, 1]")
    P = np.asarray(precoders, dtype=complex)
    x = np.asarray(symbols, dtype=complex)
    return a0 * (np.sqrt(power_split) * (P @ x)
                 + np.sqrt(1.0 - power_split) * np.asarray(noise_dir) * noise_symbol)
