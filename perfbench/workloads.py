"""Workload definitions and seeded input generation for the saclab benchmark.

A workload is one run-config document for `saclab.harness.run_training`
plus the deterministic evaluation rollouts and the report that follow it.
The market CSV is generated here from the workload seed, with this file's
own generator, so the program under test only ever sees the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALL_KINDS = ("retrace", "is", "tree_backup", "peng_q", "uncorrected")

# Feature layout of the generated CSV: N_LAGS lagged percent log-returns of
# the mid price, then its rolling deviation and rolling return volatility.
N_LAGS = 6
ROLL_WINDOW = 16
FIRST_TIMESTAMP = 28_000_000  # epoch-minutes


@dataclass(frozen=True)
class Workload:
    name: str
    market: str            # "sinusoid" or "random_walk"
    vol: float             # per-minute log-return std of the random walk
    half_spread: float
    n_envs: int
    train_days: int
    minutes_per_day: int
    env: dict
    kinds: tuple
    trace: dict
    agent: dict
    n_seeds: int
    eval_splits: tuple

    @property
    def n_bars(self) -> int:
        return self.n_envs * (self.train_days + 2) * self.minutes_per_day

    def agent_seeds(self, seed: int) -> list:
        return [seed + i for i in range(self.n_seeds)]

    def runs(self, seed: int) -> list:
        """(env_id, kind, agent seed) of every training run, in run order."""
        return [(e, k, s) for e in range(self.n_envs) for k in self.kinds
                for s in self.agent_seeds(seed)]

    def operations_per_round(self) -> int:
        """Training runs plus deterministic evaluation rollouts in one round."""
        return len(self.runs(0)) * (1 + len(self.eval_splits))

    def splits(self) -> list:
        """(train, validation, test) index ranges per environment."""
        day = self.minutes_per_day
        env_len = (self.train_days + 2) * day
        out = []
        for e in range(self.n_envs):
            base = e * env_len
            stop = base + self.train_days * day
            out.append((range(base, stop), range(stop, stop + day), range(stop + day, stop + 2 * day)))
        return out

    def config(self, seed: int, csv_path: str, out_dir: str) -> dict:
        return {
            "data": {"source": "csv", "path": csv_path, "n_envs": self.n_envs,
                     "train_days": self.train_days, "minutes_per_day": self.minutes_per_day},
            "env": dict(self.env),
            "agents": [dict(self.agent, trace=dict(self.trace, kind=k)) for k in self.kinds],
            "seeds": self.agent_seeds(seed),
            "out_dir": out_dir,
        }

    def mids(self, seed: int) -> np.ndarray:
        t = np.arange(self.n_bars, dtype=np.float64)
        if self.market == "sinusoid":
            # the acceptance-test market: period 120 minutes, amplitude 1% of base
            return 100.0 + 1.0 * np.sin(2.0 * np.pi * t / 120.0)
        steps = np.random.default_rng(seed).normal(0.0, self.vol, self.n_bars - 1)
        return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))

    def write_csv(self, seed: int, path) -> np.ndarray:
        """Write the workload's market CSV; returns the mid prices it encodes."""
        mid = self.mids(seed)
        bids = (mid - self.half_spread).tolist()
        asks = (mid + self.half_spread).tolist()
        feats = _features(mid).tolist()
        header = ",".join(["timestamp", "bid", "ask"] + [f"f{i}" for i in range(len(feats[0]))])
        lines = [header]
        for i in range(self.n_bars):
            lines.append(",".join([str(FIRST_TIMESTAMP + i), repr(bids[i]), repr(asks[i])]
                                  + [repr(x) for x in feats[i]]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0.5 * (np.array(bids) + np.array(asks))


def _trailing_mean(x: np.ndarray) -> np.ndarray:
    csum = np.concatenate([[0.0], np.cumsum(x)])
    hi = np.arange(1, len(x) + 1)
    lo = np.maximum(0, hi - ROLL_WINDOW)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _features(mid: np.ndarray) -> np.ndarray:
    n = len(mid)
    ret = np.zeros(n)
    ret[1:] = 100.0 * np.diff(np.log(mid))
    cols = []
    for lag in range(N_LAGS):
        col = np.zeros(n)
        col[lag:] = ret[: n - lag]
        cols.append(col)
    dev = 100.0 * (mid / _trailing_mean(mid) - 1.0)
    vol = np.sqrt(np.maximum(0.0, _trailing_mean(ret * ret) - _trailing_mean(ret) ** 2))
    return np.column_stack(cols + [dev, vol])


_SMALL_TRACE = {"lam": 0.9, "gamma": 0.97, "alpha_ent": 1e-4}

WORKLOADS = {
    # The acceptance config (criteria 6 and 8) for one seed, cut to 3
    # episodes: gradient steps dominate, segments are 4 steps long.
    "sinusoid_train": Workload(
        name="sinusoid_train", market="sinusoid", vol=0.0, half_spread=0.0,
        n_envs=1, train_days=3, minutes_per_day=120,
        env={"h_max": 1.0, "lookback": 3, "unit": 0.01, "commission": 0.0,
             "initial_balance": 10_000.0},
        kinds=("retrace",),
        trace=dict(_SMALL_TRACE, n=3),
        agent={"lr_actor": 3e-4, "lr_critic": 1e-3, "tau": 0.01, "batch": 24,
               "grad_steps_per_env_step": 1, "policy_delay": 2, "episodes": 3,
               "validate_every": 3, "lstm_hidden": 32, "head_hidden": 32,
               "buffer_capacity": 20000, "warmup": 500},
        n_seeds=1, eval_splits=("validation", "test"),
    ),
    # Every trace kind, 11-step segments, small networks, a ring that
    # evicts (118 pushes into 100 slots), two seeds per kind so the report
    # has a real standard deviation.
    "long_trace_kinds": Workload(
        name="long_trace_kinds", market="random_walk", vol=1e-3, half_spread=0.01,
        n_envs=1, train_days=1, minutes_per_day=60,
        env={"h_max": 1.0, "lookback": 3, "unit": 0.01, "commission": 5e-4,
             "initial_balance": 10_000.0},
        kinds=ALL_KINDS,
        trace=dict(_SMALL_TRACE, n=10),
        agent={"lr_actor": 3e-4, "lr_critic": 1e-3, "tau": 0.01, "batch": 16,
               "grad_steps_per_env_step": 1, "policy_delay": 2, "episodes": 2,
               "validate_every": 2, "lstm_hidden": 8, "head_hidden": 8,
               "buffer_capacity": 100, "warmup": 40},
        n_seeds=2, eval_splits=("test",),
    ),
    # Two 1,440-minute training days: the long warmup makes collection
    # (act at batch 1, env.step, replay.push) most of the training steps,
    # and the buffer keeps all 5,758 transitions.
    "minute_backtest": Workload(
        name="minute_backtest", market="random_walk", vol=5e-4, half_spread=0.01,
        n_envs=1, train_days=2, minutes_per_day=1440,
        env={"h_max": 1.0, "lookback": 3, "unit": 0.01, "commission": 5e-4,
             "initial_balance": 100_000.0},
        kinds=("retrace",),
        trace=dict(_SMALL_TRACE, n=3),
        agent={"lr_actor": 3e-4, "lr_critic": 1e-3, "tau": 0.01, "batch": 24,
               "grad_steps_per_env_step": 1, "policy_delay": 2, "episodes": 2,
               "validate_every": 2, "lstm_hidden": 32, "head_hidden": 32,
               "buffer_capacity": 20000, "warmup": 5500},
        n_seeds=1, eval_splits=("train", "validation", "test"),
    ),
}
