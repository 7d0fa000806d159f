"""Uplink multiuser detection: global MMSE and its local approximations.

A scene holds the per-subcarrier channel gains every detector works from,
the subcarrier assignment, and the per-symbol power coefficients.  Each
linear detector gives UE k per-AP coefficients V (M, N_k), column i its
combiner on its i-th symbol's subcarrier; local detectors leave the rows
of APs they do not use at zero, so every detector is evaluated against
the same physical scene (interference from unmodeled UEs stays present).

Each link has one complex gain per subcarrier and subcarriers do not
couple, so the stacked covariance is N independent M x M blocks R_n.  The
SINR evaluator and the per-subcarrier, column-sliced and reduced MMSE
detectors solve those blocks as (N, M, M) batches, the reduced one
restricted to the associated APs.  A local detector only sees the
diagonals [R_n]_mm, so local MMSE at each AP followed by CPU fusion is one
per-AP weight per UE: ``combining_lambdas`` gives the fusion weights of a
mode, ``combined_weights`` the fused weight, and ``combined_sinr`` the
closed-form SINR of any per-AP weight.

Symbol draws come from ``simulate_uplink`` as per-AP observations
(draws, M, N), and ``measure_output`` is the one path from any detector's
weights to its output amplitude, empirical SINR and hard decisions.

The closed-form MMSE SINR has one kernel, ``uplink_sinr_all``, from flat
symbol powers to flat symbol SINRs.  It evaluates on a
:class:`SinrSkeleton`, which keeps everything that does not depend on the
powers (symbol indices, channels, their outer products) for one plan, so
that a power-control loop pays per evaluation only for the power checks,
R_n, one (S, M, M) solve and the products.  A single scene is one plan:
``SinrSkeleton(scene.freq, scene.subcarriers, scene.gamma_u)`` evaluated at
``np.concatenate(scene.power)``.

The stacked (M*N, .) layout is left only at the dense edge whose bits the
benchmark's references pin: ``gmmse_weights`` solves the (M*N, M*N)
covariance, built once per scene, and reads V off it without loss;
``weight_output_sinr`` restacks V to evaluate w^H R w - eta |w^H b|^2 on
it, which cancels at high SINR; and ``simulate_uplink`` draws y with one
stacked product per UE.  R is built on each UE's own rows m*N + n, over
the full column range, which keeps the bits of the full stacked products;
restricting the columns as well rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modulation import constellation, nearest_point, random_symbol_indices


@dataclass(frozen=True)
class UplinkScene:
    """Channels, subcarrier assignment, powers, and the normalized SNR."""

    freq: np.ndarray        # (M, K, N) complex subcarrier gains
    subcarriers: tuple      # subcarriers[k]: sorted int array, N_k entries
    power: tuple            # power[k]: eta_kn array matching subcarriers[k]
    gamma_u: float          # P_u / sigma^2

    def __post_init__(self):
        object.__setattr__(self, "freq", np.asarray(self.freq, dtype=complex))
        subs = tuple(np.asarray(s, dtype=int) for s in self.subcarriers)
        pows = tuple(np.asarray(p, dtype=float) for p in self.power)
        object.__setattr__(self, "subcarriers", subs)
        object.__setattr__(self, "power", pows)
        if self.gamma_u <= 0:
            raise ValueError("gamma_u must be positive")
        for k, (s, p) in enumerate(zip(subs, pows)):
            if len(s) != len(p):
                raise ValueError(f"UE {k}: power vector does not match subcarriers")
            if p.sum() > 1.0 + 1e-9:
                raise ValueError(f"UE {k}: power budget exceeded")
            if np.any(p < 0):
                raise ValueError(f"UE {k}: negative power")

    @property
    def num_aps(self) -> int:
        return self.freq.shape[0]

    @property
    def num_ues(self) -> int:
        return self.freq.shape[1]

    @property
    def num_subcarriers(self) -> int:
        return self.freq.shape[2]

    @cached_property
    def _covariance(self) -> np.ndarray:
        # the scene is treated as immutable, so one build serves every caller.
        # UE l adds only its nonzero rows m*N + n; the columns stay full,
        # since a narrower product rounds differently (see module docstring)
        M, N = self.num_aps, self.num_subcarriers
        R = np.zeros((M * N, M * N), dtype=complex)
        np.fill_diagonal(R, 1.0 / self.gamma_u)
        for l, sub in enumerate(self.subcarriers):
            rows = (np.arange(M)[:, None] * N + sub).ravel()
            B = stacked_channel(self, l)
            R[rows] += (B[rows] * self.power[l]) @ B.conj().T
        R.setflags(write=False)
        return R


def equal_power_scene(freq, subcarriers, gamma_u) -> UplinkScene:
    """Scene with each UE's unit budget split evenly over its subcarriers."""
    power = tuple(np.full(len(s), 1.0 / max(len(s), 1)) for s in subcarriers)
    return UplinkScene(freq=freq, subcarriers=subcarriers, power=power,
                       gamma_u=gamma_u)


def _stacked(scene: UplinkScene, k: int, V) -> np.ndarray:
    """Per-AP coefficients V (M, N_k) of UE k's symbols in the stacked
    (M*N, N_k) layout: symbol i occupies its own subcarrier only."""
    M, N = scene.num_aps, scene.num_subcarriers
    sub = scene.subcarriers[k]
    W = np.zeros((M, N, len(sub)), dtype=complex)
    W[:, sub, np.arange(len(sub))] = V
    return W.reshape(M * N, len(sub))


def stacked_channel(scene: UplinkScene, k: int) -> np.ndarray:
    """Channel-times-mapping block H_k Phi_k, shape (M*N, N_k)."""
    return _stacked(scene, k, scene.freq[:, k, scene.subcarriers[k]])


def scene_covariance(scene: UplinkScene) -> np.ndarray:
    """Autocorrelation of the stacked observation, built once per scene
    and returned read-only."""
    return scene._covariance


def _power_grid(scene: UplinkScene) -> np.ndarray:
    """Power coefficients eta_kn as a (K, N) grid, zero where unassigned."""
    eta = np.zeros((scene.num_ues, scene.num_subcarriers))
    for k, (sub, p) in enumerate(zip(scene.subcarriers, scene.power)):
        eta[k, sub] = p
    return eta


def subcarrier_covariances(scene: UplinkScene) -> np.ndarray:
    """Per-subcarrier covariances R_n = I / gamma_u + sum_l eta_ln h_ln h_ln^H.

    Shape (N, M, M): the diagonal blocks of :func:`scene_covariance`.
    """
    H = scene.freq.transpose(2, 0, 1)                    # (N, M, K)
    R = (H * _power_grid(scene).T[:, None, :]) @ H.conj().transpose(0, 2, 1)
    return R + (1.0 / scene.gamma_u) * np.eye(scene.num_aps)


def gmmse_weights(scene: UplinkScene):
    """Global MMSE weights V (M, N_k) per UE, solved jointly on the
    (MN, MN) system with every UE's right-hand side in one factorization."""
    # Kept dense: weight_output_sinr's w^H R w - eta |w^H b|^2 cancels at
    # high SINR, so reported SINRs there depend on the last bits of W.
    R = scene_covariance(scene)
    rhs = [stacked_channel(scene, k) * np.sqrt(scene.power[k])
           for k in range(scene.num_ues)]
    X = np.linalg.solve(R, np.hstack(rhs))
    sub = np.concatenate(scene.subcarriers)
    V = X.reshape(scene.num_aps, scene.num_subcarriers, -1)[
        :, sub, np.arange(len(sub))]
    return np.split(V, np.cumsum([len(s) for s in scene.subcarriers])[:-1],
                    axis=1)


def _subcarrier_mmse(scene: UplinkScene, zeta=1.0):
    """Weights R_n^-1 (zeta_k * h_kn) sqrt(eta_kn) of every UE, in one
    (N, M, M) solve; an association ``zeta`` (M, K) restricts the
    right-hand sides to each UE's APs."""
    H = scene.freq.transpose(2, 0, 1)                    # (N, M, K)
    rhs = H * zeta * np.sqrt(_power_grid(scene).T)[:, None, :]
    X = np.linalg.solve(subcarrier_covariances(scene), rhs)
    return [X[sub, :, k].T for k, sub in enumerate(scene.subcarriers)]


def gmmse_per_subcarrier(scene: UplinkScene):
    """N parallel M-dimensional MMSE solves; equals the joint solution
    when subcarriers do not interfere (diagonal per-link channels)."""
    return _subcarrier_mmse(scene)


def solve_flop_estimate(num_aps: int, num_subcarriers: int, joint: bool) -> float:
    """Cubic-order flop count of the covariance solve(s)."""
    if joint:
        return float((num_aps * num_subcarriers) ** 3)
    return float(num_subcarriers * num_aps**3)


class SinrSkeleton:
    """The power-independent part of the closed-form MMSE SINRs of a plan.

    Built once from the channels, the subcarrier assignment and gamma_u,
    it holds the flat symbol indices, each symbol's channel b = h_kn and
    its outer product b b^H, and the per-subcarrier channel view, so that
    :func:`uplink_sinr_all` pays only the power-dependent work.
    """

    def __init__(self, freq, subcarriers, gamma_u):
        if gamma_u <= 0:
            raise ValueError("gamma_u must be positive")
        freq = np.asarray(freq, dtype=complex)
        subs = [np.asarray(s, dtype=int) for s in subcarriers]
        counts = [len(s) for s in subs]
        self.num_ues = len(subs)
        self.ue = np.repeat(np.arange(self.num_ues), counts)    # (S,)
        self.sub = np.concatenate(subs)                         # (S,)
        self.cuts = np.cumsum(counts)[:-1]
        self.b = freq[:, self.ue, self.sub].T                   # (S, M)
        self.b_conj = self.b.conj()
        self.outer = self.b[:, :, None] * self.b_conj[:, None, :]
        self.H = freq.transpose(2, 0, 1)                        # (N, M, K)
        self.H_herm = self.H.conj().transpose(0, 2, 1)
        self.noise = (1.0 / gamma_u) * np.eye(freq.shape[0])
        self.grid_shape = freq.shape[1:]

    def split(self, flat):
        """Per-UE arrays of a flat per-symbol array."""
        return np.split(flat, self.cuts)


def uplink_sinr_all(skeleton: SinrSkeleton, eta) -> np.ndarray:
    """Flat closed-form MMSE symbol SINRs at the flat symbol powers ``eta``.

    The powers must pass the checks of :class:`UplinkScene`: no negative
    power and every UE within its unit budget.  Symbol s of UE k on
    subcarrier n with power eta has SINR Re(eta b^H x), where
    (R_n - eta b b^H) x = b and b = h_kn; all symbols are solved in one
    (S, M, M) batch.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != skeleton.ue.shape:
        raise ValueError("power vector does not match subcarriers")
    K = skeleton.num_ues
    over = np.bincount(skeleton.ue, eta, K) > 1.0 + 1e-9
    if over.any() or (eta < 0).any():
        # the first offending UE, as the per-UE checks would find it
        k = int(np.argmax(over | (np.bincount(skeleton.ue, eta < 0, K) > 0)))
        raise ValueError(f"UE {k}: power budget exceeded" if over[k]
                         else f"UE {k}: negative power")
    grid = np.zeros(skeleton.grid_shape)
    grid[skeleton.ue, skeleton.sub] = eta
    R = (skeleton.H * grid.T[:, None, :]) @ skeleton.H_herm + skeleton.noise
    x = np.linalg.solve(R[skeleton.sub] - eta[:, None, None]
                        * skeleton.outer, skeleton.b[:, :, None])[:, :, 0]
    return np.real(eta * np.einsum("sm,sm->s", skeleton.b_conj, x))


def lmmse_column_sliced(scene: UplinkScene, assoc):
    """Approximate weights using only the R_y^-1 column blocks of the
    associated APs; with full association this reconstructs the GMMSE.

    Those column blocks applied to b are R_y^-1 P_A b, with P_A zeroing the
    entries of unassociated APs, so each UE is solved per subcarrier.
    """
    return _subcarrier_mmse(scene, assoc.zeta())


def lmmse_reduced(scene: UplinkScene, assoc, k: int) -> np.ndarray:
    """GMMSE restricted to the observations of UE k's associated APs.

    Each of UE k's subcarriers solves R_n restricted to those APs, all in
    one batch.  Returns (M, N_k) weights with zero rows at excluded APs.
    """
    aps = np.asarray(assoc.ap_sets[k], dtype=int)
    if not aps.size:
        raise ValueError("unassociated UE")
    sub = scene.subcarriers[k]
    R = subcarrier_covariances(scene)[np.ix_(sub, aps, aps)]
    b = scene.freq[aps][:, k, sub] * np.sqrt(scene.power[k])    # (|A|, N_k)
    V = np.zeros((scene.num_aps, len(sub)), dtype=complex)
    V[aps] = np.linalg.solve(R, b.T[:, :, None])[:, :, 0].T
    return V


def weight_output_sinr(scene: UplinkScene, k: int, V: np.ndarray) -> np.ndarray:
    """Analytic output SINR of arbitrary per-AP weights V (M, N_k) for UE k;
    a symbol whose signal is zero (zero power or zero weights) has SINR 0."""
    R = scene_covariance(scene)
    B = stacked_channel(scene, k)
    # UE k's columns of the joint (M*N, S) layout gmmse_weights solves in:
    # BLAS rounds a unit-stride column differently, so the pinned SINR bits
    # need the stride of that solve
    first, nk = sum(map(len, scene.subcarriers[:k])), B.shape[1]
    W = np.zeros((scene.num_aps, scene.num_subcarriers,
                  sum(map(len, scene.subcarriers))), dtype=complex)
    W[:, scene.subcarriers[k], first + np.arange(nk)] = V
    W = W.reshape(B.shape[0], -1)[:, first:first + nk]
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


def _local_terms(scene: UplinkScene, k: int):
    """AP-local model of UE k's symbols, each (M, N_k): the channel
    b = sqrt(eta) h, the diagonal d = [R_n]_mm an AP sees, and the
    interference-plus-noise r of d, summed without the own term."""
    sub = scene.subcarriers[k]
    load = np.abs(scene.freq[:, :, sub]) ** 2 * _power_grid(scene)[:, sub]
    d = load.sum(axis=1) + 1.0 / scene.gamma_u
    load[:, k] = 0.0
    r = load.sum(axis=1) + 1.0 / scene.gamma_u
    return scene.freq[:, k, sub] * np.sqrt(scene.power[k]), d, r


def combined_weights(scene: UplinkScene, k: int,
                     lambdas: np.ndarray) -> np.ndarray:
    """Per-AP weights V (M, N_k) of the CPU's fusion sum_m lambda_m z_mk of
    the local MMSE estimates z_mk = (b / d)^* y_m: conj(lambda) b / d."""
    b, d, _ = _local_terms(scene, k)
    return np.conj(lambdas) * b / d


def combined_sinr(scene: UplinkScene, k: int, V: np.ndarray) -> np.ndarray:
    """Analytic output SINR of per-AP weights V (M, N_k) for UE k, in closed
    form per subcarrier.

    Interference is correlated across APs (same transmitted symbols), which
    the variance below accounts for exactly: on symbol i's subcarrier n the
    weight v passes UE l with gain v^H h_ln sqrt(eta_ln).  A symbol whose
    signal is zero has SINR 0.
    """
    sub = scene.subcarriers[k]
    g = np.einsum("mi,mli->il", V.conj(),
                  scene.freq[:, :, sub] * np.sqrt(_power_grid(scene)[:, sub]))
    signal = np.abs(g[:, k]) ** 2
    g[:, k] = 0.0            # zeroed, not subtracted: nothing cancels
    noise = np.sum(np.abs(V) ** 2, axis=0) / scene.gamma_u
    return np.divide(signal, np.sum(np.abs(g) ** 2, axis=1) + noise,
                     out=np.zeros_like(signal), where=signal > 0)


def combining_lambdas(scene: UplinkScene, assoc, k: int, mode: str,
                      gains=None) -> np.ndarray:
    """Per-AP diagonal combining weights (M, N_k) of the CPU fusion modes,
    zero at the APs outside UE k's association; the large-scale modes need
    per-AP ``gains`` indexed by AP."""
    aps = list(assoc.ap_sets[k])
    lambdas = np.zeros_like(scene.freq[:, k, scene.subcarriers[k]])
    if mode == "equal":
        lambdas[aps] = 1.0
        lambdas[aps] /= len(aps)
    elif mode == "mrc":
        # conj(A_mk) / C_mk per symbol, with A = |b|^2 / d, C = |b|^2 r / d^2
        _, d, r = _local_terms(scene, k)
        lambdas[aps] = d[aps] / r[aps]
        lambdas[aps] /= len(aps)
    elif mode in ("large_scale_linear", "large_scale_sqrt"):
        # shares proportional to the gains, or to their square roots
        if gains is None:
            raise ValueError("large-scale combining needs per-AP gains")
        g = np.asarray(gains, dtype=float)[aps]
        if mode == "large_scale_sqrt":
            g = np.sqrt(g)
        lambdas[aps] = (g / g.sum())[:, None]
    else:
        raise ValueError(f"unknown combining mode {mode!r}")
    return lambdas


def simulate_uplink(scene: UplinkScene, num_draws: int, rng,
                    points="qpsk"):
    """Draw symbols and per-AP observations from the scene model.

    Returns (symbol index arrays per UE, y) with y of shape
    (num_draws, M, N).
    """
    rng = np.random.default_rng(rng)
    pts = constellation(points)
    M, N = scene.num_aps, scene.num_subcarriers
    y = np.sqrt(0.5 / scene.gamma_u) * (
        rng.standard_normal((num_draws, M * N))
        + 1j * rng.standard_normal((num_draws, M * N)))
    indices = []
    for k in range(scene.num_ues):
        idx = random_symbol_indices(pts, (num_draws, len(scene.subcarriers[k])), rng)
        indices.append(idx)
        y += (pts[idx] * np.sqrt(scene.power[k])) @ stacked_channel(scene, k).T
    return indices, y.reshape(num_draws, M, N)


def measure_output(scene: UplinkScene, k: int, V: np.ndarray, y: np.ndarray,
                   sent: np.ndarray, points="qpsk", measured: bool = False):
    """Empirical per-symbol SINRs and hard decisions of UE k's output
    z = sum_m V_m^* y_m over draws y (draws, M, N) that sent the point
    indices ``sent`` (draws, N_k).

    The output amplitude is v^H h sqrt(eta), or, when ``measured``, the
    one a local detector's CPU fits to the draws, mean(z x^*).  A symbol
    with amplitude zero has SINR 0, not 0/0, and is decided on z itself.
    A fitted amplitude matches a single draw exactly and leaves no error
    to measure, so from one draw the measured SINRs are NaN.  Returns
    (SINRs (N_k,), decided point indices (draws, N_k)).
    """
    pts = constellation(points)
    x = pts[sent]
    sub = scene.subcarriers[k]
    z = np.einsum("dmi,mi->di", y[:, :, sub], V.conj())
    if measured:
        amp = np.mean(z * x.conj(), axis=0)
    else:
        amp = np.sqrt(scene.power[k]) * np.einsum(
            "mi,mi->i", V.conj(), scene.freq[:, k, sub])
    signal = np.abs(amp) ** 2
    if measured and len(y) == 1:
        sinrs = np.full(signal.shape, np.nan)
    else:
        sinrs = np.divide(signal, np.mean(np.abs(z - x * amp) ** 2, axis=0),
                          out=np.zeros_like(signal), where=signal > 0)
    decided = nearest_point(z / np.where(np.abs(amp) > 0, amp, 1.0), pts)
    return sinrs, decided
