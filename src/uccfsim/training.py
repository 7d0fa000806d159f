"""Pilot training and MMSE channel estimation.

UEs send unit-modulus pilot blocks over their assigned subcarriers for
``num_symbols`` OFDM symbols.  Each AP sees the superposition of its
associated UEs through the frequency-domain observation model.  Estimation
runs per AP observation: one call estimates the time-domain CIR taps of
every UE the AP serves with an unbiased (diagonally renormalized) MMSE
estimator.  With multiuser-interference suppression all of them form one
estimation group; without it each UE is its own group.

A group's estimator is solved in its Gram form: with the stacked
observation matrix A (N tau_p x sum L) and the diagonal prior Q = diag(s^2),
Q A^H (A Q A^H + sigma^2 I)^-1 = diag(s) (B^H B + sigma^2 I)^-1 B^H with
B = A diag(s), so the inverse is sum L x sum L instead of N tau_p x N tau_p.
Both sides equal diag(s) B^+ in the noiseless, rank-deficient limit, which
eigenvalue truncation in the small system keeps exact.  When a group has
more taps than pilot observations (sum L > N tau_p) the bracket is the
smaller system, and the group solves it instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# relative eigenvalue floor: _guarded_inverse truncates below _JITTER*trace/n,
# with n = sum L for the Gram system (trace/n is its mean eigenvalue)
_JITTER = 1e-12


@dataclass(frozen=True)
class PilotPlan:
    """Per-UE pilot blocks, subcarrier maps, tap counts, and powers."""

    pilot_blocks: tuple          # pilot_blocks[k]: (N_k, tau_p) complex
    subcarrier_sets: tuple       # subcarrier_sets[k]: sorted int array (N_k,)
    num_taps: tuple              # modeled CIR length per UE
    pilot_power: tuple           # watts per active subcarrier, per UE
    num_subcarriers: int
    num_symbols: int             # tau_p

    def __post_init__(self):
        for k, (s, sub, L) in enumerate(zip(self.pilot_blocks,
                                            self.subcarrier_sets, self.num_taps)):
            nk = len(sub)
            if s.shape != (nk, self.num_symbols):
                raise ValueError(f"pilot block of UE {k} has wrong shape")
            if not L <= nk <= self.num_subcarriers:
                raise ValueError(f"UE {k} needs L <= N_k <= N")

    @property
    def num_ues(self) -> int:
        return len(self.pilot_blocks)

    @cached_property
    def observation_matrices(self) -> tuple:
        """Every UE's observation matrix, built once per plan, read-only."""
        mats = tuple(build_observation_matrix(self, k)
                     for k in range(self.num_ues))
        for A in mats:
            A.flags.writeable = False
        return mats


def make_pilot_plan(num_ues, num_subcarriers, num_symbols, num_taps,
                    pilot_power=1.0, subcarrier_sets=None, roots=None) -> PilotPlan:
    """Build a DFT-family pilot plan.

    UE k repeats the unit-modulus sequence exp(j 2 pi r_k t / (N_k tau_p))
    over its pilot resource grid; distinct roots make the observation
    matrices nearly orthogonal, repeated roots force pilot contamination.
    By default every UE pilots on all N subcarriers with root index k.
    """
    if subcarrier_sets is None:
        subcarrier_sets = [np.arange(num_subcarriers)] * num_ues
    subcarrier_sets = [np.sort(np.asarray(s, dtype=int)) for s in subcarrier_sets]
    num_taps = np.broadcast_to(np.asarray(num_taps, dtype=int), (num_ues,))
    if roots is None:
        # stagger the roots: a time offset inside tau_p plus hops of
        # tau_p * L keeps both the symbol dimension and the tap subspaces
        # of different UEs orthogonal (up to N * tau_p / L users)
        lmax = int(num_taps.max())
        roots = [(k % num_symbols) + num_symbols * lmax * (k // num_symbols)
                 for k in range(num_ues)]
    pilot_power = np.broadcast_to(np.asarray(pilot_power, dtype=float), (num_ues,))

    blocks = []
    for k in range(num_ues):
        nk = len(subcarrier_sets[k])
        t = np.arange(nk * num_symbols)
        seq = np.exp(2j * np.pi * roots[k] * t / (nk * num_symbols))
        blocks.append(seq.reshape(num_symbols, nk).T.copy())
    return PilotPlan(pilot_blocks=tuple(blocks),
                     subcarrier_sets=tuple(subcarrier_sets),
                     num_taps=tuple(int(x) for x in num_taps),
                     pilot_power=tuple(float(x) for x in pilot_power),
                     num_subcarriers=num_subcarriers,
                     num_symbols=num_symbols)


def _dft_columns(n, L):
    grid = np.arange(n)[:, None] * np.arange(L)[None, :]
    return np.exp(-2j * np.pi * grid / n)


def build_observation_matrix(plan: PilotPlan, ue: int) -> np.ndarray:
    """Observation matrix mapping UE ``ue``'s taps into the stacked pilot rx.

    Shape (N * tau_p, L_k): symbol block i equals
    sqrt(P_k) * diag(scattered pilot column i) * F[:, :L_k].
    """
    N, tau_p = plan.num_subcarriers, plan.num_symbols
    L = plan.num_taps[ue]
    scattered = np.zeros((tau_p, N, 1), dtype=complex)
    scattered[:, plan.subcarrier_sets[ue], 0] = plan.pilot_blocks[ue].T
    A = (scattered * _dft_columns(N, L)).reshape(N * tau_p, L)
    return np.sqrt(plan.pilot_power[ue]) * A


@dataclass(frozen=True)
class PilotObservation:
    """One AP's received pilot block and its noise/interference levels."""

    matrix: np.ndarray          # (N, tau_p)
    noise_var: float
    interference_var: float

    @property
    def vec(self) -> np.ndarray:
        """Column-stacked observation (N * tau_p,)."""
        return self.matrix.reshape(-1, order="F")


def default_interference_var(gains, plan: PilotPlan, assoc, ap: int) -> float:
    """Mean per-element rx power from UEs not associated with ``ap``."""
    N = plan.num_subcarriers
    total = 0.0
    for k in range(plan.num_ues):
        if ap in assoc.ap_sets[k]:
            continue
        total += plan.pilot_power[k] * gains[ap, k] * len(plan.subcarrier_sets[k]) / N
    return total


def simulate_pilot_rx(plan: PilotPlan, channels, assoc, noise_var, rng,
                      interference_var=None):
    """Received pilot blocks at every AP.

    ``interference_var`` may be a scalar, a per-AP sequence, or None to use
    the aggregate mean power of non-associated UEs at each AP.
    """
    rng = np.random.default_rng(rng)
    N, tau_p = plan.num_subcarriers, plan.num_symbols
    M = channels.gains.shape[0]
    out = []
    for m in range(M):
        if interference_var is None:
            sj2 = default_interference_var(channels.gains, plan, assoc, m)
        else:
            sj2 = float(np.broadcast_to(interference_var, (M,))[m])
        Y = np.zeros((N, tau_p), dtype=complex)
        for k in assoc.ue_sets[m]:
            sub = plan.subcarrier_sets[k]
            hf = channels.freq[m, k]          # sqrt(g) already applied
            scattered = np.zeros((N, tau_p), dtype=complex)
            scattered[sub] = plan.pilot_blocks[k]
            Y += np.sqrt(plan.pilot_power[k]) * hf[:, None] * scattered
        level = noise_var + sj2
        if level > 0:
            Y += np.sqrt(level / 2.0) * (rng.standard_normal((N, tau_p))
                                         + 1j * rng.standard_normal((N, tau_p)))
        out.append(PilotObservation(matrix=Y, noise_var=noise_var,
                                    interference_var=sj2))
    return out


def tap_prior(gain, num_taps, decay=0.0) -> np.ndarray:
    """Diagonal prior covariance: large-scale gain times the tap profile."""
    from .channel import pdp_profile
    return gain * np.diag(pdp_profile(num_taps, decay))


def _guarded_inverse(bracket):
    """Hermitian inverse with eigenvalues below 1e-12 * trace/n truncated.

    Truncation (rather than plain diagonal jitter) keeps the noiseless,
    rank-deficient case exact instead of amplifying rounding noise in the
    null directions.
    """
    n = bracket.shape[0]
    lam, V = np.linalg.eigh((bracket + bracket.conj().T) / 2.0)
    floor = _JITTER * np.trace(bracket).real / n
    keep = lam > floor
    if not np.any(keep):
        raise ValueError("ill-conditioned training")
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return (V * inv) @ V.conj().T


def _prior_diagonal(prior, ue, num_taps) -> np.ndarray:
    """The diagonal of UE ``ue``'s tap prior; anything else is refused."""
    Q = np.asarray(prior)
    if Q.shape == (num_taps, num_taps):
        d = np.diagonal(Q)
        if (np.count_nonzero(Q) == np.count_nonzero(d)
                and not np.any(d.imag) and d.real.min() >= 0):
            return d.real
    raise ValueError(f"prior of UE {ue} must be a nonnegative diagonal "
                     f"{num_taps}x{num_taps} matrix")


def mmse_estimate(obs: PilotObservation, plan: PilotPlan, ues, priors,
                  mode="single") -> dict:
    """Unbiased MMSE estimates {k: taps} of UEs ``ues`` from one AP observation.

    ``priors`` maps UE index -> diagonal tap covariance (a non-diagonal or
    negative one raises ValueError).  In ``single`` mode each UE is its own
    estimation group (near-orthogonal pilots); in ``mui_suppress`` mode all
    of ``ues`` form one group.  A group stacks its observation matrices
    into A and its prior standard deviations into s, sets B = A diag(s),
    and solves the sum L x sum L Gram system
    G = diag(s) (B^H B + level I)^+ B^H; each UE reads its own rows of G.
    A group with sum L > N tau_p solves the equal, smaller bracket form
    G = Q A^H (A Q A^H + level I)^+ instead.  A per-tap diagonal
    renormalization c = diag(G_k A_k) makes the estimator unbiased.
    """
    if mode not in ("single", "mui_suppress"):
        raise ValueError(f"unknown mode {mode!r}")
    q = {k: _prior_diagonal(priors[k], k, plan.num_taps[k]) for k in ues}
    level = obs.noise_var + obs.interference_var
    joint = mode == "mui_suppress"
    out = {}
    for group in [sorted(ues)] if joint and len(ues) else [[k] for k in ues]:
        A = np.hstack([plan.observation_matrices[k] for k in group])
        qg = np.concatenate([q[k] for k in group])
        if len(qg) > len(A):
            # more taps than pilot observations: the bracket is smaller
            bracket = (A * qg) @ A.conj().T + level * np.eye(len(A))
            G = qg[:, None] * (A.conj().T @ _guarded_inverse(bracket))
        else:
            s = np.sqrt(qg)
            B = A * s
            small = B.conj().T @ B + level * np.eye(len(s))
            G = s[:, None] * (_guarded_inverse(small) @ B.conj().T)
        c = np.einsum("ij,ji->i", G, A)
        if np.any(np.abs(c) < 1e-300):
            raise ValueError("ill-conditioned training: degenerate prior")
        est = (G @ obs.vec) / c
        offsets = np.cumsum([0] + [plan.num_taps[k] for k in group])
        for k, lo, hi in zip(group, offsets[:-1], offsets[1:]):
            out[k] = est[lo:hi]
    return {k: out[k] for k in ues}


def estimate_all(observations, plan: PilotPlan, assoc, channels,
                 mode="single", decay=0.0):
    """Estimate every associated link, one call per AP; returns dict
    (ap, ue) -> tap vector.

    The priors are the genie ones: the generator's true PDP scaled by the
    realized large-scale gain of each link.
    """
    unit = {L: tap_prior(1.0, L, decay) for L in set(plan.num_taps)}
    out = {}
    for m, obs in enumerate(observations):
        ues = assoc.ue_sets[m]
        priors = {k: channels.gains[m, k] * unit[plan.num_taps[k]]
                  for k in ues}
        for k, taps in mmse_estimate(obs, plan, ues, priors, mode).items():
            out[(m, k)] = taps
    return out


def estimated_subcarrier_gains(estimates, channels) -> np.ndarray:
    """Per-subcarrier gains from estimated taps; unestimated links are zero.

    Mirrors the tap-to-frequency map of the generator so that, in the
    noiseless limit, estimated and true subcarrier gains coincide on the
    associated links.  All links go through one FFT, their taps zero-padded
    to the longest estimate.
    """
    from .channel import subcarrier_gains as taps_to_freq
    M, K, N = channels.freq.shape
    hf = np.zeros((M, K, N), dtype=complex)
    if estimates:
        taps = np.zeros((len(estimates), max(map(len, estimates.values()))),
                        dtype=complex)
        for row, est in zip(taps, estimates.values()):
            row[:len(est)] = est
        m, k = np.array(list(estimates)).T
        hf[m, k] = taps_to_freq(taps, 1.0, N)   # estimates carry sqrt(g)
    return hf
