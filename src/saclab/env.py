"""Deterministic market-replay MDP: windowed observations, unit-discretized
continuous actions, bid/ask-aware cash accounting, and log-wealth rewards.

Accounting model: wealth is marked to market, v = balance + holdings * mark,
with an explicit cash-flow rule per trade (buys execute at the ask, sells at
the bid, plus a proportional commission).  The per-step reward is
log(v' / v), so episode rewards telescope exactly to log(v_T / v_0).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .data import Dataset

#: Wealth floor used when an episode ruins (v' <= 0); keeps the final
#: reward finite while making ruin strongly negative.
RUIN_EPSILON = 1e-9

#: Absolute slack added before flooring |action| / unit, absorbing float
#: division error at exact grid multiples.
_UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class EnvConfig:
    """Execution and accounting parameters.

    mark_rule 'bid_for_long' marks long positions at the bid and short
    positions at the ask (conservative); 'mid' marks at the quote midpoint.
    """

    h_max: float = 0.1
    lookback: int = 3
    unit: float = 0.01
    commission: float = 0.0
    initial_balance: float = 10_000.0
    mark_rule: str = "bid_for_long"

    def __post_init__(self) -> None:
        if self.h_max <= 0.0:
            raise ValueError("h_max must be > 0")
        if not 0.0 < self.unit <= self.h_max:
            raise ValueError("unit must satisfy 0 < unit <= h_max")
        if self.lookback < 0:
            raise ValueError("lookback must be >= 0")
        if self.commission < 0.0:
            raise ValueError("commission must be >= 0")
        if self.initial_balance <= 0.0:
            raise ValueError("initial_balance must be > 0")
        if self.mark_rule not in ("bid_for_long", "mid"):
            raise ValueError(f"unknown mark_rule {self.mark_rule!r}")


@dataclass
class EnvState:
    """Mutable simulator state at bar t."""

    t: int
    balance: float
    holdings: float
    wealth: float


@dataclass(frozen=True)
class Observation:
    """Agent-visible state: account scalars plus the (l+1) x (F+2) window.

    Window rows are ordered oldest to newest; each row is the feature vector
    followed by bid and ask.  Rows before the episode start are back-filled
    with the first bar so the shape never changes.  The window is a
    read-only view of its environment's `TradingEnv.windows` tensor, not a
    copy.
    """

    balance: float
    holdings: float
    window: np.ndarray


@dataclass(frozen=True)
class StepResult:
    observation: Observation
    reward: float
    done: bool
    info: dict


class TradingEnv:
    """Single-asset replay environment over one contiguous index range.

    `windows` is one read-only (len(split), l+1, F+2) float64 tensor whose
    row i is the observation window at bar split.start + i; it is a sliding
    view over the split's rows after the back-fill, so the windows share one
    (len(split) + l, F+2) array and every `Observation.window` is a view.
    """

    def __init__(self, data: Dataset, split_range: range, config: EnvConfig = EnvConfig()):
        if split_range.step != 1:
            raise ValueError("split_range must have step 1")
        if split_range.start < 0 or split_range.stop > len(data):
            raise ValueError(f"split_range {split_range} out of bounds for dataset of length {len(data)}")
        if len(split_range) <= config.lookback + 1:
            raise ValueError(
                f"split_range length {len(split_range)} too short for lookback {config.lookback}"
            )
        self.data = data
        self.split_range = split_range
        self.config = config
        self.state: EnvState | None = None
        self._done = True
        l = config.lookback
        bars = slice(split_range.start, split_range.stop)
        rows = np.column_stack([data.features[bars], data.bids[bars], data.asks[bars]])
        # back-fill pre-history with the first bar
        rows = np.concatenate([np.repeat(rows[:1], l, axis=0), rows])
        rows.flags.writeable = False
        self.windows = np.lib.stride_tricks.sliding_window_view(rows, l + 1, axis=0).transpose(0, 2, 1)

    # -- observation assembly -------------------------------------------------

    def _window(self, t: int) -> np.ndarray:
        return self.windows[t - self.split_range.start]

    def _observe(self) -> Observation:
        assert self.state is not None
        return Observation(
            balance=self.state.balance,
            holdings=self.state.holdings,
            window=self._window(self.state.t),
        )

    def _mark_price(self, t: int, holdings: float) -> float:
        if self.config.mark_rule == "mid" or holdings == 0.0:
            return self.data.mid(t)
        return float(self.data.bids[t]) if holdings > 0.0 else float(self.data.asks[t])

    # -- MDP interface ---------------------------------------------------------

    def reset(self) -> Observation:
        self.state = EnvState(
            t=self.split_range.start,
            balance=self.config.initial_balance,
            holdings=0.0,
            wealth=self.config.initial_balance,
        )
        self._done = False
        return self._observe()

    def step(self, action: float) -> StepResult:
        if self._done or self.state is None:
            raise RuntimeError("step() called on a finished episode; call reset() first")
        s = self.state
        cfg = self.config

        clipped = abs(action) > cfg.h_max
        a = min(max(action, -cfg.h_max), cfg.h_max)
        delta_h = discretize_action(a, cfg.unit)

        price = 0.0
        fee = 0.0
        if delta_h > 0.0:
            price = float(self.data.asks[s.t])
        elif delta_h < 0.0:
            price = float(self.data.bids[s.t])
        if delta_h != 0.0:
            fee = cfg.commission * price * abs(delta_h)
            s.balance = s.balance - price * delta_h - fee
            s.holdings = s.holdings + delta_h

        t_next = s.t + 1
        mark = self._mark_price(t_next, s.holdings)
        v_prev = s.wealth
        v_next = s.balance + s.holdings * mark

        ruined = v_next <= 0.0
        reward = math.log(max(v_next, RUIN_EPSILON) / v_prev)
        done = ruined or (t_next == self.split_range.stop - 1)

        s.t = t_next
        s.wealth = v_next
        self._done = done
        return StepResult(
            observation=self._observe(),
            reward=reward,
            done=done,
            info={
                "executed": delta_h,
                "price": price,
                "fee": fee,
                "clipped": clipped,
                "ruined": ruined,
                "mark": mark,
            },
        )


def discretize_action(a: float, unit: float) -> float:
    """Number of shares actually traded: sign(a) * floor(|a| / unit) * unit.

    The floor acts on the magnitude with the sign reattached, so buys and
    sells of equal confidence trade equal size.
    """
    if unit <= 0.0:
        raise ValueError("unit must be > 0")
    if a == 0.0:
        return 0.0
    k = math.floor(abs(a) / unit + _UNIT_SLACK)
    return math.copysign(k * unit, a)


def cumulative_log_return(step_rewards) -> float:
    """Episode return in percent: 100 * sum of per-step log rewards, which
    telescopes to 100 * log(v_T / v_0)."""
    rewards = list(step_rewards)
    if not rewards:
        raise ValueError("cumulative_log_return requires a non-empty reward sequence")
    return 100.0 * float(np.sum(np.asarray(rewards, dtype=np.float64)))


TRACE_HEADER = ["t", "action", "executed", "price", "fee", "balance", "holdings", "wealth", "reward"]


@dataclass
class EpisodeRecord:
    """One full rollout: rewards plus per-step trace rows in TRACE_HEADER order."""

    rewards: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def return_pct(self) -> float:
        return cumulative_log_return(self.rewards)


def run_episode(env: TradingEnv, act: Callable[[Observation], float]) -> EpisodeRecord:
    """Roll one complete episode with the supplied policy function."""
    obs = env.reset()
    record = EpisodeRecord()
    done = False
    while not done:
        t = env.state.t
        action = float(act(obs))
        result = env.step(action)
        record.rewards.append(result.reward)
        record.rows.append(
            [
                t,
                action,
                result.info["executed"],
                result.info["price"],
                result.info["fee"],
                env.state.balance,
                env.state.holdings,
                env.state.wealth,
                result.reward,
            ]
        )
        obs = result.observation
        done = result.done
    return record


def write_episode_trace(record: EpisodeRecord, path: str | Path) -> None:
    """Export an episode as CSV with the canonical trace schema."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in record.rows:
            writer.writerow([row[0]] + [repr(float(x)) for x in row[1:]])
