"""Downlink precoding: centralized MMSE, distributed MF/ZF/regularized
MMSE, the common amplification gain, and artificial-noise secrecy.

Subcarrier-level functions work on an (M, K) channel matrix (one complex
gain per AP-UE pair).  Subcarriers do not couple, so an OFDM-level
precoder is one (N, M, K) array: slice n is the subcarrier-level precoder
of subcarrier n, solved for all N in one batch, and a UE's column is zero
on every subcarrier it does not transmit on.  The centralized MMSE bracket
depends on the assignment but not on the powers, so its solve
(:func:`tmmse_bracket_solve`) and the power scaling (:func:`tmmse_scale`)
are separate steps that a power loop can run once and many times.
Distributed precoders use each AP's local channels only (multi-antenna
APs as an (M, U, K) tensor); :func:`distributed_ofdm_directions` puts
them in the bracket solve's (X, mask) form, so all precoders share one
power scaling, amplification gain and SINR.
"""

from __future__ import annotations

import warnings

import numpy as np

from .topology import AssociationMap


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


def tmmse_central_ofdm(freq, subcarrier_sets, noise_var, delta, assoc=None):
    """OFDM-symbol-level MMSE precoders, shape (N, M, K).

    ``delta`` is (K, N).  Slice n holds every UE's precoder on subcarrier
    n; a UE's column is zero on subcarriers outside its set.  Collapses to
    the subcarrier-level precoder at N = 1.
    """
    return tmmse_scale(*tmmse_bracket_solve(freq, subcarrier_sets, noise_var,
                                            assoc), delta)


def tmmse_bracket_solve(freq, subcarrier_sets, noise_var, assoc=None):
    """The power-independent part of :func:`tmmse_central_ofdm`.

    Returns X = bracket_n^-1 H_n^* per subcarrier, (N, M, K), and the
    (N, K) assignment mask; the bracket depends on which UEs use a
    subcarrier, not on their powers.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    if assoc is not None:
        freq = freq * assoc.zeta()[:, :, None]
    mask = _assignment_mask(subcarrier_sets, N)
    # per subcarrier: (noise * I + sum_{l on n} h_ln* h_ln^T) P_n = H_n*
    H = freq.transpose(2, 0, 1)                          # (N, M, K)
    bracket = ((H.conj() * mask[:, None, :]) @ H.transpose(0, 2, 1)
               + noise_var * np.eye(M))
    return np.linalg.solve(bracket, H.conj()), mask


def _assignment_mask(subcarrier_sets, num_subcarriers) -> np.ndarray:
    """(N, K) mask: entry (n, k) is 1 where UE k transmits on subcarrier n."""
    mask = np.zeros((num_subcarriers, len(subcarrier_sets)))
    for k, s in enumerate(subcarrier_sets):
        mask[np.asarray(s, dtype=int), k] = 1.0
    return mask


def tmmse_scale(X, mask, delta):
    """Precoders from the (X, mask) of :func:`tmmse_bracket_solve` or
    :func:`distributed_ofdm_directions`: column k of slice n is X scaled
    by sqrt(delta_kn) on the UE's subcarriers."""
    delta = np.asarray(delta, dtype=float)
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


def distributed_ofdm_directions(freq, subcarrier_sets, assoc, method="mf",
                                reg=None):
    """Unscaled distributed precoders as :func:`tmmse_bracket_solve`'s
    (X, mask): X[n] is :func:`distributed_directions` on subcarrier n, each
    AP serving those of its UEs that transmit on n."""
    freq = np.asarray(freq, dtype=complex)
    M, K, N = freq.shape
    mask = _assignment_mask(subcarrier_sets, N)
    X = np.zeros((N, M, K), dtype=complex)
    for n in np.flatnonzero(mask.any(axis=1)):
        on_n = AssociationMap.from_ap_sets(
            [aps if mask[n, k] else () for k, aps in enumerate(assoc.ap_sets)],
            M)
        X[n] = distributed_directions(freq[:, :, n], on_n, method, reg)[:, 0]
    return X, mask


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

    ``powers`` is (M, K), the per-AP power of each stream.  Expectation
    over unit-power independent symbols.  Stream l reaches UE k with the
    coherent amplitude sum_m sqrt(P_ml) h_mk^T dir_ml over its serving APs,
    which is what :func:`receive_downlink` adds up for the per-AP signals
    s_m = sum_l sqrt(P_ml) dir_ml x_l when, as
    :func:`distributed_directions` makes them, the directions vanish off
    the association.  A stream l != k is co-associated when it shares an
    AP with UE k and cross-AP otherwise.  Used to check the interference
    structure of the distributed precoders.
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
