"""AP message-passing detection on the AP-UE factor graph.

Each AP holds a local Gaussian likelihood over the symbols of its associated
UEs, one factor per (AP, subcarrier): subcarriers do not couple.  Under a
flooding schedule, every round each factor re-marginalizes its likelihood
against the latest messages the other APs sent about its co-monitored
symbols, excluding its own AP's contribution (Kschischang, Frey & Loeliger,
IEEE Trans. IT 2001).  On cycle-free graphs the beliefs are the exact
posterior marginals.

The graph is an :class:`EdgeIndex`, built once per (scene, association,
constellation) by array operations: AP-major edges and the factors grouped
by degree d with their Q**d joint tables.  Messages are one (edges, Q)
array; a round is one log-sum-exp over the joint table per participant
position of each degree group, which for d > 1 reads the edges' siblings.

Observations may carry a leading draw axis: y of shape (D, M, N) runs D
independent detections in one loop, with (D, edges, Q) messages and
(D, symbols, Q) beliefs.  Each draw stops at its own convergence round;
converged draws are masked out of later rounds, so every draw gets the
decisions and iteration count of a single-observation call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .modulation import constellation

# largest local enumeration: |constellation| ** participants <= 2 ** 8
_LOCAL_GUARD = 256


@dataclass(frozen=True)
class ApmpConfig:
    max_iterations: int = 20
    tol: float = 1e-4            # stop when total LLRs move less than this
    damping: float = 0.0         # 0 = undamped flooding
    points: str = "bpsk"
    llr_clamp: float = 50.0

    def __post_init__(self):
        if (not isinstance(self.max_iterations, (int, np.integer))
                or self.max_iterations < 0):
            raise ValueError("max_iterations must be an integer >= 0")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")
        if not self.llr_clamp > 0.0:
            raise ValueError("llr_clamp must be > 0")


@dataclass
class ApmpResult:
    """A (D, M, N) stack of draws puts a leading draw axis on every
    per-symbol array; ``iterations`` and ``converged`` stay scalars."""
    decisions: list              # per UE: (N_k,) / (D, N_k) indices, or None
    marginals: list              # per UE: (N_k, Q) / (D, N_k, Q), or None
    iterations: int              # rounds run: the most any draw ran
    converged: bool              # True when every draw converged
    draw_iterations: np.ndarray = None  # (D,) rounds each draw ran (D = 1
    #                                     for one (M, N) observation)
    trace: list = field(default_factory=list)   # per-round max belief change
    #                                             over the draws still running
    undetected: frozenset = frozenset()


def _joint_table(Q, d) -> np.ndarray:
    """Every combination of d symbol indices, (Q**d, d), last one fastest."""
    return np.indices((Q,) * d).reshape(d, -1).T


def _joint_means(amp, pts, table) -> np.ndarray:
    """Noise-free receptions sum_j amp[:, j] * pts[table[:, j]], (F, C)."""
    mean = amp[:, :1] * pts[table[:, 0]]
    for j in range(1, table.shape[1]):
        mean = mean + amp[:, j:j + 1] * pts[table[:, j]]
    return mean


def _marginalize(joint, p, d):
    """Log-marginal (..., Q) of position p of a (..., Q, ..., Q) log table
    with d symbol axes."""
    a = np.moveaxis(joint, p - d, -d)
    a = a.reshape(a.shape[:a.ndim - d + 1] + (-1,))
    peak = a.max(axis=-1, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=-1, keepdims=True)))[..., 0]


def _normalize(v, clamp):
    return (v - v[..., :1]).clip(-clamp, clamp)


class EdgeIndex:
    """The factor graph of one (scene, association, constellation).

    Edge e joins factor (AP m, subcarrier n) to slot i of UE k; edges run
    AP-major, then by subcarrier, then by UE.  ``ap[e]`` is m, and
    ``slot[e]`` is the row of (k, i) in ``slots``, the symbols UE-major;
    ``siblings`` is built on first use.
    """

    def __init__(self, scene, assoc, points="bpsk"):
        self.pts, self.gamma_u = constellation(points), scene.gamma_u
        Q, (M, K, N) = len(self.pts), scene.freq.shape
        # the symbols that some AP receives, UE-major, are the rows of slots
        counts = [len(s) if aps else 0
                  for s, aps in zip(scene.subcarriers, assoc.ap_sets)]
        self.slots = [(k, i) for k, c in enumerate(counts) for i in range(c)]
        ue = np.repeat(np.arange(K), counts)
        sub = np.concatenate([s[:c] for s, c in zip(scene.subcarriers, counts)])
        row = np.full((K, N), -1)           # (K, N) symbol rows, -1 if none
        row[ue, sub] = np.arange(len(ue))
        incidence = (assoc.zeta() > 0)[:, None, :] & (row.T >= 0)  # (M, N, K)
        self.ap, n_e, k_e = np.nonzero(incidence)
        self.slot = row[k_e, n_e]
        # edges are AP-major, so a symbol's first edge is its lowest-index AP
        self.designated = np.unique(self.slot, return_index=True)[1]
        self.ue_rows = [slice(hi - c, hi) if c else None
                        for c, hi in zip(counts, np.cumsum(counts).tolist())]
        self.undetected = frozenset(k for k in range(K) if not assoc.ap_sets[k])
        power = np.concatenate([p[:c] for p, c in zip(scene.power, counts)])
        amp = np.sqrt(power[self.slot]) * scene.freq[self.ap, k_e, n_e]
        degree = incidence.sum(axis=2)                      # (M, N)
        first = (np.cumsum(degree) - degree.ravel()).reshape(M, N)
        self.groups = []
        for d in sorted(set(degree.ravel().tolist()) - {0}):
            if Q ** d > _LOCAL_GUARD:
                raise ValueError("local marginalization too large")
            m, n = np.nonzero(degree == d)
            grp = first[m, n][:, None] + np.arange(d)
            table = _joint_table(Q, d)
            # (F, d) participant edges, each factor's y entry, joint means
            self.groups.append((grp, (m, n),
                                _joint_means(amp[grp], self.pts, table), table))

    @cached_property
    def siblings(self) -> np.ndarray:
        # the other APs' edges of each edge's symbol, padded with E (a zero
        # row); edge numbers grow with the AP, so a sorted row is in AP order
        E = len(self.slot)
        at = np.full((len(self.slots), self.ap.max(initial=0) + 1), E)
        at[self.slot, self.ap] = np.arange(E)
        sibs = at[self.slot]
        sibs[np.arange(E), self.ap] = E
        sibs.sort(axis=1)
        return sibs[:, :np.bincount(self.slot).max(initial=1) - 1]


def message_round(index, y, messages, config: ApmpConfig) -> np.ndarray:
    """One flooding round: every factor's message along every edge.

    ``y`` is one (M, N) observation or a (D, M, N) stack of them, and the
    result is (E, Q) or (D, E, Q) to match.  ``messages`` is the previous
    round's array of that shape, or None for the intrinsic (uniform-prior)
    round.  A factor's message about a symbol never reads what its own AP
    received about that symbol, only the other APs' messages about the
    co-monitored symbols.
    """
    lead = y.shape[:-2]
    E, Q = len(index.slot), len(index.pts)
    out = np.empty(lead + (E, Q))
    prior = None
    for edges, (m, n), mean, table in index.groups:
        F, d = edges.shape
        ll = -index.gamma_u * np.abs(y[..., m, n, None] - mean) ** 2
        if d == 1:
            out[..., edges[:, 0], :] = _normalize(ll, config.llr_clamp)
            continue
        if prior is None:
            # row E, which the padding points at, stays zero
            prior = np.zeros(lead + (E + 1, Q))
            if messages is not None:
                prior[..., :E, :] = messages
                prior = prior[..., index.siblings, :].sum(axis=-2)
        for p in range(d):
            joint = ll + sum(prior[..., edges[:, j], :][..., table[:, j]]
                             for j in range(d) if j != p)
            out[..., edges[:, p], :] = _normalize(_marginalize(
                joint.reshape(lead + (F,) + (Q,) * d), p, d),
                config.llr_clamp)
    if messages is not None and config.damping > 0:
        out = _normalize((1 - config.damping) * out
                         + config.damping * messages, config.llr_clamp)
    return out


def _beliefs(index, messages):
    """Per symbol, the sum of every AP's message about it, in edge order:
    (D, E, Q) messages give (D, symbols, Q) beliefs."""
    belief = np.zeros((len(messages), len(index.slots), messages.shape[-1]))
    np.add.at(belief, (slice(None), index.slot), messages)
    return belief


def apmp_detect(scene, assoc, y, config: ApmpConfig = ApmpConfig()) -> ApmpResult:
    """Run flooding message passing and decide every UE's symbols.

    ``y`` is the (M, N) per-AP, per-subcarrier observation, or a (D, M, N)
    stack of D observations detected together on one :class:`EdgeIndex`
    of the scene for ``config.points``; each draw runs until it converges
    or ``config.max_iterations`` rounds have passed, exactly as it would
    alone.  Decisions for UE k are taken at its lowest-index associated AP;
    UEs with no association are reported in ``undetected``.
    """
    index = EdgeIndex(scene, assoc, config.points)
    y = np.asarray(y)
    single = y.ndim == 2
    ys = y[None] if single else y
    D = len(ys)

    def draws(a):
        """Drop the draw axis again for a single observation."""
        return a[0] if single else a

    messages = message_round(index, ys, None, config)
    belief = _beliefs(index, messages)
    trace = []
    rounds = np.zeros(D, dtype=int)
    converged = np.full(D, config.max_iterations == 0)
    active = np.arange(D)
    for it in range(1, config.max_iterations + 1):
        if not active.size:
            break
        new_messages = message_round(index, ys[active], messages[active],
                                     config)
        new = _beliefs(index, new_messages)
        delta = np.abs(new - belief[active]).max(axis=(1, 2), initial=0.0)
        trace.append(delta.max())
        messages[active] = new_messages
        belief[active] = new
        rounds[active] = it
        done = delta < config.tol
        converged[active[done]] = True
        active = active[~done]

    # without an exchange round, each UE is decided at its designated AP
    total = (belief if config.max_iterations > 0
             else messages[:, index.designated])
    decided = draws(np.argmax(total, axis=-1))
    p = np.exp(total - total.max(axis=-1, keepdims=True))
    marginals = draws(p / p.sum(axis=-1, keepdims=True))
    return ApmpResult(
        decisions=[None if r is None else decided[..., r]
                   for r in index.ue_rows],
        marginals=[None if r is None else marginals[..., r, :]
                   for r in index.ue_rows],
        iterations=int(rounds.max(initial=0)),
        converged=bool(converged.all()), draw_iterations=rounds,
        trace=trace, undetected=index.undetected)

