"""Output checks. Each check is a pure function that returns None when its
property holds and a one-line reason when it does not, so that the negative
controls can feed it perturbed inputs and see it fail.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

TELESCOPE_TOL = 1e-9
# Targets are float64 sums of float32 network outputs; the reference calls
# the same networks on other batch shapes, which may change float32 rounding.
# The negative control perturbs a target by 1e-3, a hundred times more.
TARGET_TOL = 1e-5
REPORT_TOL = 1e-9
MARKET_TOL = 1e-9
# saclab.env floors a ruined wealth at this value before taking the log.
RUIN_EPSILON = 1e-9
# Coefficient rules the reference implements; peng_q has no reference
# because the agent bootstraps it on pi alone (see CHANGES.md).
REFERENCE_KINDS = {
    "retrace": lambda lp, lm: min(1.0, math.exp(lp - lm)),
    "is": lambda lp, lm: math.exp(lp - lm),
    "tree_backup": lambda lp, lm: min(1.0, math.exp(lp)),
    "uncorrected": lambda lp, lm: 1.0,
}


def telescoping(rollouts) -> str | None:
    """Episode rewards sum to log(final wealth / initial balance)."""
    if not rollouts:
        return "no finished rollout"
    worst = 0.0
    for total, wealth, initial in rollouts:
        worst = max(worst, abs(total - math.log(max(wealth, RUIN_EPSILON) / initial)))
    if not worst <= TELESCOPE_TOL:
        return f"reward sum differs from log wealth ratio by {worst:.3e}"
    return None


def equal_counts(what: str, counted: int, reported: int) -> str | None:
    if counted != reported:
        return f"{what}: counted {counted}, program reports {reported}"
    return None


def segments(segs, n: int, newest) -> str | None:
    """Each segment is 1..n+1 consecutive steps of one episode; only its last
    step may be terminal, and it is short only at a terminal or at the
    newest transition in the buffer."""
    for i, seg in enumerate(segs):
        tr = seg.transitions
        if not 1 <= len(tr) <= n + 1:
            return f"segment {i}: length {len(tr)} outside 1..{n + 1}"
        if any(t.done for t in tr[:-1]):
            return f"segment {i}: terminal step before its end"
        # within one episode a step's next observation is the next step's observation
        if any(a.next_obs is not b.obs for a, b in zip(tr, tr[1:])):
            return f"segment {i}: steps are not consecutive steps of one episode"
        if len(tr) < n + 1 and not tr[-1].done and tr[-1] is not newest:
            return f"segment {i}: cut at length {len(tr)} without a terminal"
    return None


def _log_cosh(u: np.ndarray) -> np.ndarray:
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def reference_targets(agent, segs, rng) -> np.ndarray:
    """q0 + sum_j (gamma*lam)^j prod_{u=1..j} c_u delta_j in float64, from the
    public outputs of the actor and target critics, with its own
    squashed-Gaussian algebra and loops.  `rng` must be a copy of the
    generator handed to `segment_targets`."""
    spec = agent.config.trace
    kind = spec.kind.value
    h = agent.env_config.h_max
    obs = [o for seg in segs for o in seg.observations]
    windows, scalars = agent.featurizer.features(obs)
    mean, log_std, _ = agent.actor.forward(windows, scalars)
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.clip(np.asarray(log_std, dtype=np.float64), -20.0, 2.0)
    eps = rng.standard_normal(len(obs))
    u = mean + np.exp(log_std) * eps
    fresh = h * np.tanh(u)
    # density of a = h tanh(u): Gaussian in u over the Jacobian h (1 - tanh(u)^2)
    fresh_logp = (-0.5 * eps * eps - log_std - 0.5 * math.log(2.0 * math.pi)
                  - math.log(h) + 2.0 * _log_cosh(u))

    cur_rows, next_rows, stored = [], [], []
    start = 0
    for seg in segs:
        for j, t in enumerate(seg.transitions):
            cur_rows.append(start + j)
            next_rows.append(start + j + 1)
            stored.append(t.action)
        start += len(seg) + 1
    cur_rows = np.array(cur_rows)
    next_rows = np.array(next_rows)
    stored = np.array(stored, dtype=np.float64)

    def q_min(rows, actions):
        sf = np.concatenate([scalars[rows], (actions / h)[:, None]], axis=1)
        q1, _ = agent.target_critic_1.forward(windows[rows], sf)
        q2, _ = agent.target_critic_2.forward(windows[rows], sf)
        return np.minimum(np.asarray(q1, np.float64), np.asarray(q2, np.float64))

    q_cur = q_min(cur_rows, stored)
    q_next = q_min(next_rows, fresh[next_rows])
    y = np.clip(stored / h, -1.0 + 1e-9, 1.0 - 1e-9)
    z = (np.arctanh(y) - mean[cur_rows]) / np.exp(log_std[cur_rows])
    log_pi = (-0.5 * z * z - log_std[cur_rows] - 0.5 * math.log(2.0 * math.pi)
              - math.log(h) - np.log1p(-y * y))

    coefficient = REFERENCE_KINDS[kind]
    decay = spec.gamma * spec.lam
    out = np.empty(len(segs))
    flat = 0
    for i, seg in enumerate(segs):
        total = q_cur[flat]
        weight = 1.0
        for j, t in enumerate(seg.transitions):
            if j > spec.n:
                break
            r = flat + j
            if j > 0:
                weight *= decay * coefficient(log_pi[r], t.behavior_log_density)
            boot = 0.0 if t.done else q_next[r] - spec.alpha_ent * fresh_logp[next_rows[r]]
            total += weight * (t.reward + spec.gamma * boot - q_cur[r])
        out[i] = total
        flat += len(seg)
    return out


def targets(got: np.ndarray, want: np.ndarray) -> str | None:
    worst = float(np.max(np.abs(np.asarray(got) - want) / (1.0 + np.abs(want))))
    if not worst <= TARGET_TOL:
        return f"segment_targets differ from the float64 reference by {worst:.3e} (relative)"
    return None


def checkpoint(live_actions, restored_actions, live_updates: int, restored_updates: int,
               evaluated=None) -> str | None:
    """A restored checkpoint acts exactly as the live agent; `evaluated` pairs
    an evaluate_checkpoint return with the live final validation return."""
    if list(live_actions) != list(restored_actions):
        return "restored agent acts differently from the live agent"
    if live_updates != restored_updates:
        return f"restored update_count {restored_updates} != live {live_updates}"
    for got, want in evaluated or ():
        if got != want:
            return f"evaluate_checkpoint validation return {got!r} != live {want!r}"
    return None


def report(manifest: dict, results_csv: str) -> str | None:
    """results.csv means and sample stds match the manifest's final
    validation returns; its market rows match the manifest."""
    finals = {}
    for run in manifest["runs"]:
        finals.setdefault((run["trace_kind"], run["env_id"]), []).append(run["final_val_return_pct"])
    seen = set()
    for line in results_csv.strip().splitlines()[1:]:
        kind, env_id, mean, std, n_seeds = line.split(",")
        if kind == "market":
            want = manifest["market_val_return_pct"][env_id]
            if abs(float(mean) - want) > REPORT_TOL:
                return f"market row env {env_id}: {mean} != manifest {want!r}"
            continue
        vals = finals.get((kind, int(env_id)))
        if vals is None:
            return f"results row {kind} env {env_id} has no runs in the manifest"
        want_std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        if (abs(float(mean) - statistics.fmean(vals)) > REPORT_TOL
                or abs(float(std) - want_std) > REPORT_TOL or int(n_seeds) != len(vals)):
            return f"results row {kind} env {env_id} does not match the manifest"
        seen.add((kind, int(env_id)))
    if seen != set(finals):
        return f"results.csv covers {len(seen)} of {len(finals)} (kind, env) cells"
    return None


def market(manifest: dict, mids: np.ndarray, splits) -> str | None:
    """market_return_pct = 100 log(last mid / first mid) on each split."""
    for env_id, (_, val, test) in enumerate(splits):
        for key, rng in (("market_val_return_pct", val), ("market_test_return_pct", test)):
            want = 100.0 * math.log(mids[rng.stop - 1] / mids[rng.start])
            got = manifest[key][str(env_id)]
            if abs(got - want) > MARKET_TOL:
                return f"{key} env {env_id}: {got!r} != {want!r} from the data"
    return None


def same_bytes(files: dict, first: dict) -> str | None:
    """A rerun of the same config writes byte-identical metrics and report."""
    for name, data in files.items():
        if first.get(name) != data:
            return f"{name} differs from the first round's"
    return None
