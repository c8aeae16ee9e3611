"""Shared builders for small deterministic test instances."""

from __future__ import annotations

import numpy as np

from saclab.agent import AgentConfig, TraceSacAgent
from saclab.data import synthesize_market
from saclab.env import EnvConfig, TradingEnv, run_episode
from saclab.replay import Transition
from saclab.traces import TraceKind, TraceSpec


def rough_market(length: int = 60, seed: int = 3):
    return synthesize_market("random_walk", length, {"vol": 2e-3, "half_spread": 0.05}, seed=seed)


def tiny_env(length: int = 60, seed: int = 3, **cfg_kwargs) -> TradingEnv:
    defaults = dict(h_max=1.0, lookback=2, unit=0.05, commission=0.001, initial_balance=1000.0)
    defaults.update(cfg_kwargs)
    data = rough_market(length, seed)
    return TradingEnv(data, range(0, length), EnvConfig(**defaults))


def tiny_agent(dtype=np.float64, seed: int = 21, trace_kwargs: dict | None = None,
               rollout_steps: int | None = None, **cfg_kwargs):
    """Small float64 agent with a filled buffer and one sampled batch."""
    env = tiny_env()
    tk = dict(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.05)
    tk.update(trace_kwargs or {})
    spec = TraceSpec(**tk)
    defaults = dict(trace=spec, batch=4, warmup=8, buffer_capacity=500,
                    lstm_hidden=5, head_hidden=6, episodes=1, seed=seed)
    defaults.update(cfg_kwargs)
    cfg = AgentConfig(**defaults)
    agent = TraceSacAgent(cfg, env.config, env.data.n_features, dtype=dtype)
    fill_buffer(agent, env, rollout_steps)
    segments = agent.buffer.sample_segments(cfg.batch, spec.n, agent.rng_sampler)
    return agent, segments, env


def fill_buffer(agent: TraceSacAgent, env: TradingEnv, max_steps: int | None = None) -> None:
    obs = env.reset()
    done = False
    steps = 0
    while not done and (max_steps is None or steps < max_steps):
        action, logp = agent.act(obs, stochastic=True)
        result = env.step(action)
        agent.buffer.push(
            Transition(obs, action, result.reward, result.observation, logp, result.done)
        )
        obs = result.observation
        done = result.done
        steps += 1


def clone_blocks(blocks) -> list:
    return [b.values.copy() for b in blocks]


def blocks_equal(blocks, snapshot) -> bool:
    return all(np.array_equal(b.values, s) for b, s in zip(blocks, snapshot))


def random_policy_return(env: TradingEnv, seed: int, episodes: int = 1) -> float:
    """Mean episode return of uniform random actions; training-free baseline."""
    rng = np.random.default_rng(seed)
    h_max = env.config.h_max
    total = 0.0
    for _ in range(episodes):
        record = run_episode(env, lambda obs: float(rng.uniform(-h_max, h_max)))
        total += record.return_pct
    return total / episodes
