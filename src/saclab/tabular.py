"""Exact small-MDP machinery for verifying the multi-step trace operator.

Everything here works in expectation (operator) form over explicit policy
tables, so convergence checks are deterministic: no trajectories are
sampled.  Entropy terms are deliberately disabled (alpha_ent must be 0);
the soft variant is exercised separately through the function-approximation
agent's single-step reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .traces import TraceKind, TraceSpec, trace_coefficient

_ROW_SUM_TOL = 1e-12
_DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP with dense transition tensor P[s, a, s'] and rewards R[s, a]."""

    n_states: int
    n_actions: int
    P: np.ndarray
    R: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=np.float64)
        R = np.asarray(self.R, dtype=np.float64)
        if P.shape != (self.n_states, self.n_actions, self.n_states):
            raise ValueError(f"P must have shape (S, A, S), got {P.shape}")
        if R.shape != (self.n_states, self.n_actions):
            raise ValueError(f"R must have shape (S, A), got {R.shape}")
        if np.any(P < 0.0):
            raise ValueError("P entries must be >= 0")
        row_sums = P.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("every P[s, a, :] row must sum to 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class PolicyTable:
    """Explicit stochastic policy pi(a | s) as a row-stochastic table."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("policy table must be 2-D (states x actions)")
        if np.any(probs < 0.0):
            raise ValueError("policy probabilities must be >= 0")
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ValueError("every policy row must sum to 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass
class RetraceIterationResult:
    """Iterate sequence Q_0, Q_1, ... plus a divergence flag.

    When the max-norm of an iterate exceeds 1e6 the iteration stops and
    ``diverged`` is set instead of raising: non-conservative kinds are
    allowed to blow up and callers want to observe that.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    diverged: bool = False


def _check_compatible(mdp: TabularMDP, policy: PolicyTable) -> None:
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )


def _successor_matrix(mdp: TabularMDP, policy: PolicyTable) -> np.ndarray:
    """(SA x SA) matrix M[(s,a),(s',a')] = P(s'|s,a) * pi(a'|s')."""
    sa = mdp.n_states * mdp.n_actions
    flat_p = mdp.P.reshape(sa, mdp.n_states)
    return (flat_p[:, :, None] * policy.probs[None, :, :]).reshape(sa, sa)


def exact_q(mdp: TabularMDP, policy: PolicyTable) -> np.ndarray:
    """Policy evaluation Q^pi by direct linear solve: (I - gamma * P_pi) q = r."""
    _check_compatible(mdp, policy)
    sa = mdp.n_states * mdp.n_actions
    m = _successor_matrix(mdp, policy)
    q_flat = np.linalg.solve(np.eye(sa) - mdp.gamma * m, mdp.R.reshape(sa))
    return q_flat.reshape(mdp.n_states, mdp.n_actions)


def _bootstrap_policy(kind: TraceKind, behavior: PolicyTable, target: PolicyTable, lam: float) -> PolicyTable:
    """Policy whose expectation forms the one-step backup inside each TD term.

    The Peng-style trace bootstraps on the lam-mixture of target and
    behavior; every other kind bootstraps on the target policy itself.
    """
    if kind is TraceKind.PENG_Q:
        return PolicyTable(lam * target.probs + (1.0 - lam) * behavior.probs)
    return target


def tabular_retrace_iterate(
    mdp: TabularMDP,
    behavior: PolicyTable,
    target: PolicyTable,
    spec: TraceSpec,
    truncation_T: int = 50,
    iterations: int = 1000,
    q_init: np.ndarray | None = None,
) -> RetraceIterationResult:
    """Iterate the truncated multi-step trace operator in closed form.

    One application maps Q to Q + M_T (B Q - R ... ), concretely::

        Q' = Q + sum_{j=0}^{T} (gamma * lam)^j  (P_c)^j  delta(Q)

    where delta(Q) = R + gamma * P_boot Q - Q is the expected one-step
    backup residual under the kind's bootstrap policy, and P_c propagates
    one behavior-policy step weighted by the trace coefficient.  Returns
    the full iterate sequence starting from Q_0 (zeros by default).

    spec.n is ignored here: the horizon is the explicit ``truncation_T``.
    spec.gamma must match the MDP's discount and spec.alpha_ent must be 0.
    """
    _check_compatible(mdp, behavior)
    _check_compatible(mdp, target)
    if truncation_T < 1:
        raise ValueError("truncation_T must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if spec.alpha_ent != 0.0:
        raise ValueError("the tabular oracle runs with alpha_ent = 0 only")
    if spec.gamma != mdp.gamma:
        raise ValueError(f"spec.gamma {spec.gamma} must equal mdp.gamma {mdp.gamma}")

    sa = mdp.n_states * mdp.n_actions
    gamma, lam = mdp.gamma, spec.lam

    boot = _bootstrap_policy(spec.kind, behavior, target, lam)
    p_boot = _successor_matrix(mdp, boot)

    if np.any(behavior.probs <= 0.0):
        raise ValueError("behavior policy must have full support for trace ratios")
    c = trace_coefficient(spec.kind, target.probs, behavior.probs, lam)
    weighted = PolicyTable.__new__(PolicyTable)  # mu * c is sub-stochastic, skip row checks
    object.__setattr__(weighted, "probs", behavior.probs * c)
    p_c = _successor_matrix(mdp, weighted)

    # M_T = sum_{j=0}^{T} (gamma*lam)^j P_c^j, accumulated by Horner's rule.
    m_t = np.eye(sa)
    for _ in range(truncation_T):
        m_t = np.eye(sa) + (gamma * lam) * (p_c @ m_t)

    r_flat = mdp.R.reshape(sa)
    q = np.zeros(sa) if q_init is None else np.asarray(q_init, dtype=np.float64).reshape(sa).copy()

    result = RetraceIterationResult(iterates=[q.reshape(mdp.n_states, mdp.n_actions).copy()])
    for _ in range(iterations):
        delta = r_flat + gamma * (p_boot @ q) - q
        q = q + m_t @ delta
        result.iterates.append(q.reshape(mdp.n_states, mdp.n_actions).copy())
        if np.max(np.abs(q)) > _DIVERGENCE_NORM:
            result.diverged = True
            break
    return result


def random_mdp(n_states: int, n_actions: int, gamma: float, rng: np.random.Generator) -> TabularMDP:
    """Random dense MDP with Dirichlet transition rows and rewards in [0, 1]."""
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return TabularMDP(n_states=n_states, n_actions=n_actions, P=P, R=R, gamma=gamma)


def random_policy(n_states: int, n_actions: int, rng: np.random.Generator, min_prob: float = 0.0) -> PolicyTable:
    """Random row-stochastic policy table; min_prob > 0 forces full support."""
    probs = rng.dirichlet(np.ones(n_actions), size=n_states)
    if min_prob > 0.0:
        probs = probs + min_prob
        probs = probs / probs.sum(axis=1, keepdims=True)
    return PolicyTable(probs)
