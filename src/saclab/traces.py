"""Trace coefficients, soft TD errors, and multi-step off-policy value targets.

Conventions used throughout:

* Multi-step targets are batched: per-step quantities of B segments sit in
  (B, K) arrays, row b holding segment b oldest step first, and
  ``lengths[b]`` says how many leading entries of that row are real steps.
* All exponents on ``gamma`` and ``lam`` are relative to the segment start:
  the j-th correction term is weighted by ``(gamma * lam) ** j``.
* The coefficient product for term j runs over steps 1..j (the empty product
  for j = 0 is 1), so ``coeffs[:, 0]`` is never used.
* Densities are plain (not log) probability densities unless a function name
  says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class TraceKind(Enum):
    """Per-step trace coefficient family for multi-step off-policy corrections."""

    RETRACE = "retrace"
    IMPORTANCE_SAMPLING = "is"
    TREE_BACKUP = "tree_backup"
    PENG_Q = "peng_q"
    UNCORRECTED = "uncorrected"


#: Kinds whose coefficient is guaranteed to lie in [0, pi/mu] for
#: probability-like densities (pi, mu <= 1), which is what guarantees
#: evaluation convergence under arbitrary behavior policies.
CONSERVATIVE_KINDS = frozenset(
    {TraceKind.RETRACE, TraceKind.IMPORTANCE_SAMPLING, TraceKind.TREE_BACKUP}
)


@dataclass(frozen=True)
class TraceSpec:
    """Full parameterization of a multi-step target.

    kind      -- coefficient family
    lam       -- per-step decay in [0, 1]; lam = 0 collapses to the
                 single-step backup regardless of kind
    n         -- correction horizon >= 0 (number of steps past the segment
                 start that may contribute)
    gamma     -- discount in [0, 1)
    alpha_ent -- entropy weight >= 0 on the bootstrap log-density term
    """

    kind: TraceKind
    lam: float
    n: int
    gamma: float
    alpha_ent: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.alpha_ent < 0.0:
            raise ValueError(f"alpha_ent must be >= 0, got {self.alpha_ent}")


def trace_coefficient(kind: TraceKind, pi_density, mu_density, lam: float):
    """Per-step trace coefficient c for one (target, behavior) density pair.

    Accepts scalars or arrays.  ``lam`` is part of the spec surface but no
    kind folds it into c; the lam**j decay is applied separately by
    :func:`retrace_target`.
    """
    pi_density = np.asarray(pi_density, dtype=np.float64)
    mu_density = np.asarray(mu_density, dtype=np.float64)
    if np.any(pi_density < 0.0):
        raise ValueError("pi_density must be >= 0")
    if np.any(mu_density <= 0.0):
        raise ValueError("mu_density must be > 0: the behavior policy emitted the action")
    if kind is TraceKind.RETRACE:
        c = np.minimum(1.0, pi_density / mu_density)
    elif kind is TraceKind.IMPORTANCE_SAMPLING:
        c = pi_density / mu_density
    elif kind is TraceKind.TREE_BACKUP:
        # c = pi is only meaningful as a probability; clamp guards the
        # continuous-density case where pi may exceed 1.
        c = np.minimum(1.0, pi_density)
    elif kind in (TraceKind.PENG_Q, TraceKind.UNCORRECTED):
        c = np.ones_like(pi_density)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown trace kind {kind}")
    if c.ndim == 0:
        return float(c)
    return c


def trace_coefficient_from_log(kind: TraceKind, log_pi, log_mu, lam: float):
    """Log-density variant of :func:`trace_coefficient`.

    Works directly on the log ratio so extreme densities cannot overflow on
    exponentiation; agrees with the plain form wherever both are finite.
    """
    log_pi = np.asarray(log_pi, dtype=np.float64)
    log_mu = np.asarray(log_mu, dtype=np.float64)
    if kind is TraceKind.RETRACE:
        c = np.exp(np.minimum(0.0, log_pi - log_mu))
    elif kind is TraceKind.IMPORTANCE_SAMPLING:
        c = np.exp(log_pi - log_mu)
    elif kind is TraceKind.TREE_BACKUP:
        c = np.exp(np.minimum(0.0, log_pi))
    elif kind in (TraceKind.PENG_Q, TraceKind.UNCORRECTED):
        c = np.ones_like(log_pi)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown trace kind {kind}")
    if c.ndim == 0:
        return float(c)
    return c


def mixed_target_density(lam: float, pi_density, mu_density):
    """Mixture density lam * pi + (1 - lam) * mu used as the bootstrap policy
    for the Peng-style trace."""
    pi_density = np.asarray(pi_density, dtype=np.float64)
    mu_density = np.asarray(mu_density, dtype=np.float64)
    if np.any(pi_density < 0.0) or np.any(mu_density < 0.0):
        raise ValueError("densities must be >= 0")
    out = lam * pi_density + (1.0 - lam) * mu_density
    if out.ndim == 0:
        return float(out)
    return out


def soft_td_error(r, q_next, log_pi_next, q_current, gamma: float, alpha_ent: float):
    """Entropy-regularized one-step TD error.

    delta = r + gamma * (q_next - alpha_ent * log_pi_next) - q_current

    Callers drop the bootstrap at terminal steps by passing q_next = 0 and
    log_pi_next = 0.  alpha_ent = 1 recovers the unweighted soft backup;
    alpha_ent = 0 is the plain Bellman error.
    """
    r = np.asarray(r, dtype=np.float64)
    out = r + gamma * (np.asarray(q_next, np.float64) - alpha_ent * np.asarray(log_pi_next, np.float64))
    out = out - np.asarray(q_current, np.float64)
    if out.ndim == 0:
        return float(out)
    return out


def retrace_target(q_start, td_errors, coeffs, lengths, spec: TraceSpec) -> np.ndarray:
    """Multi-step corrected value targets, one per segment start: (B,).

    target_b = q_start_b + sum_{j=0}^{J_b} (prod_{u=1}^{j} c_bu) * gamma**j * lam**j * delta_bj

    with J_b = min(spec.n, lengths_b - 1).  Entries past J_b are selected
    away, never multiplied by zero, so whatever they hold cannot leak into
    the target.  The j = 0 term always contributes delta_b0 with unit
    weight, so lam = 0 or n = 0 reduce the target to q_start + delta_0.
    """
    delta = np.asarray(td_errors, dtype=np.float64)
    j = np.arange(delta.shape[1])
    live = (j < np.asarray(lengths)[:, None]) & (j <= spec.n)
    in_product = live & (j > 0)
    weights = np.cumprod(np.where(in_product, np.asarray(coeffs, dtype=np.float64), 1.0), axis=1)
    decay = (spec.gamma * spec.lam) ** j.astype(np.float64)
    terms = np.where(live, weights * decay * delta, 0.0)
    return np.asarray(q_start, dtype=np.float64) + np.sum(terms, axis=1)


def is_conservative(kind: TraceKind, pi_density, mu_density, lam: float):
    """Whether the coefficient lands in the safe interval [0, pi/mu] for this
    particular density pair.  A kind is conservative overall iff this holds
    for every pair it can encounter."""
    pi_density = np.asarray(pi_density, dtype=np.float64)
    mu_density = np.asarray(mu_density, dtype=np.float64)
    c = np.asarray(trace_coefficient(kind, pi_density, mu_density, lam))
    ok = (c >= 0.0) & (c <= pi_density / mu_density)
    if ok.ndim == 0:
        return bool(ok)
    return ok
