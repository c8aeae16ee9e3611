"""Market-replay environment: execution, accounting, rewards, episode flow."""
from __future__ import annotations

import math

import numpy as np
import pytest

from saclab.data import Dataset, synthesize_market
from saclab.env import (
    EnvConfig,
    TRACE_HEADER,
    TradingEnv,
    cumulative_log_return,
    discretize_action,
    run_episode,
    write_episode_trace,
)

from helpers import rough_market, tiny_env


def quote_dataset(bids, asks) -> Dataset:
    bids = np.asarray(bids, dtype=np.float64)
    asks = np.asarray(asks, dtype=np.float64)
    n = len(bids)
    return Dataset(np.arange(n), bids, asks, np.zeros((n, 1)))


def test_discretize_action_frozen_values():
    assert discretize_action(0.037, 0.01) == pytest.approx(0.03, abs=0)
    assert discretize_action(-0.037, 0.01) == pytest.approx(-0.03, abs=0)
    assert discretize_action(0.03, 0.01) == pytest.approx(0.03, abs=0)  # exact multiple survives
    assert discretize_action(0.0099999, 0.01) == 0.0
    assert discretize_action(0.0, 0.01) == 0.0
    assert discretize_action(-0.25, 0.1) == pytest.approx(-0.2, abs=0)
    with pytest.raises(ValueError, match="unit"):
        discretize_action(0.1, 0.0)


def test_reset_state_and_observation_shape():
    env = tiny_env(lookback=2)
    obs = env.reset()
    assert env.state.t == 0
    assert env.state.balance == env.config.initial_balance
    assert env.state.holdings == 0.0
    assert env.state.wealth == env.config.initial_balance
    assert obs.window.shape == (3, env.data.n_features + 2)
    # pre-history rows back-fill with the first bar
    np.testing.assert_array_equal(obs.window[0], obs.window[1])
    np.testing.assert_array_equal(obs.window[1], obs.window[2])
    np.testing.assert_allclose(obs.window[2, -2], env.data.bids[0])
    np.testing.assert_allclose(obs.window[2, -1], env.data.asks[0])
    assert not obs.window.flags.writeable


def test_buy_accounting_worked_example():
    # buy 1 share at ask 10.1 from balance 1000, mark long at next bid 10.0:
    # v' = 989.9 + 10.0 = 999.9, reward = log(0.9999)
    data = quote_dataset([10.0, 10.0, 10.0], [10.1, 10.1, 10.1])
    cfg = EnvConfig(h_max=2.0, lookback=0, unit=1.0, commission=0.0, initial_balance=1000.0)
    env = TradingEnv(data, range(0, 3), cfg)
    env.reset()
    res = env.step(1.0)
    assert env.state.balance == pytest.approx(989.9, abs=1e-12)
    assert env.state.holdings == 1.0
    assert env.state.wealth == pytest.approx(999.9, abs=1e-12)
    assert res.reward == pytest.approx(math.log(0.9999), abs=1e-15)
    assert res.info == {
        "executed": 1.0, "price": 10.1, "fee": 0.0,
        "clipped": False, "ruined": False, "mark": 10.0,
    }


def test_commission_and_sell_at_bid():
    data = quote_dataset([10.0, 10.2, 10.1], [10.1, 10.3, 10.2])
    cfg = EnvConfig(h_max=5.0, lookback=0, unit=1.0, commission=0.001, initial_balance=1000.0)
    env = TradingEnv(data, range(0, 3), cfg)
    env.reset()
    r1 = env.step(2.0)  # buy 2 at ask 10.1, fee 0.0202
    assert env.state.balance == pytest.approx(979.7798, abs=1e-12)
    assert env.state.wealth == pytest.approx(1000.1798, abs=1e-12)  # marked at bid 10.2
    assert r1.reward == pytest.approx(0.00017978383791721818, abs=1e-15)
    r2 = env.step(-2.0)  # sell 2 at bid 10.2, fee 0.0204
    assert r2.info["price"] == 10.2
    assert env.state.balance == pytest.approx(1000.1594, abs=1e-12)
    assert env.state.holdings == 0.0
    assert r2.reward == pytest.approx(-2.0396540747337193e-05, abs=1e-15)


def test_zero_exposure_reward_is_exactly_zero():
    env = tiny_env()
    env.reset()
    res = env.step(0.0)
    assert res.reward == 0.0
    assert res.info["executed"] == 0.0
    assert res.info["price"] == 0.0
    assert env.state.wealth == env.config.initial_balance


def test_rewards_telescope_to_log_wealth_ratio():
    env = tiny_env(commission=0.002)
    rng = np.random.default_rng(7)
    obs = env.reset()
    rewards = []
    done = False
    while not done:
        res = env.step(float(rng.uniform(-1.0, 1.0)))
        rewards.append(res.reward)
        done = res.done
    total = sum(rewards)
    expected = math.log(env.state.wealth / env.config.initial_balance)
    assert total == pytest.approx(expected, abs=1e-12)
    # wealth always equals balance + holdings * mark, recomputable from state
    mark = env._mark_price(env.state.t, env.state.holdings)
    assert env.state.wealth == pytest.approx(env.state.balance + env.state.holdings * mark, abs=1e-9)


def test_round_trip_in_flat_frictionless_market_preserves_wealth():
    data = synthesize_market("flat", 10, {"base": 20.0})
    cfg = EnvConfig(h_max=1.0, lookback=1, unit=0.1, commission=0.0, initial_balance=500.0)
    env = TradingEnv(data, range(0, 10), cfg)
    env.reset()
    env.step(0.7)
    env.step(-0.7)
    assert env.state.holdings == pytest.approx(0.0, abs=1e-15)
    assert env.state.wealth == pytest.approx(500.0, abs=1e-12)


def test_higher_commission_never_helps():
    wealths = []
    for c in (0.0, 0.001, 0.01):
        env = tiny_env(commission=c)
        rng = np.random.default_rng(3)
        env.reset()
        done = False
        while not done:
            done = env.step(float(rng.uniform(-1.0, 1.0))).done
        wealths.append(env.state.wealth)
    assert wealths[0] > wealths[1] > wealths[2]


def test_action_clipping_reported():
    env = tiny_env(h_max=0.5, unit=0.1)
    env.reset()
    res = env.step(3.0)
    assert res.info["clipped"] is True
    assert res.info["executed"] == pytest.approx(0.5, abs=1e-15)
    res = env.step(0.3)
    assert res.info["clipped"] is False


def test_ruin_guard_terminates_with_floored_reward():
    # short 5 into a doubling market from a tiny balance: wealth goes negative
    data = quote_dataset([10.0, 30.0, 30.0], [10.0, 30.0, 30.0])
    cfg = EnvConfig(h_max=5.0, lookback=0, unit=1.0, commission=0.0, initial_balance=50.0)
    env = TradingEnv(data, range(0, 3), cfg)
    env.reset()
    res = env.step(-5.0)  # balance 100, holdings -5, mark ask 30 -> v = -50
    assert res.done
    assert res.info["ruined"] is True
    assert res.reward == pytest.approx(math.log(1e-9 / 50.0), abs=1e-9)
    assert math.isfinite(res.reward)
    with pytest.raises(RuntimeError, match="reset"):
        env.step(0.0)


def test_episode_ends_at_split_boundary():
    env = tiny_env(length=20, lookback=1)
    env.reset()
    steps = 0
    done = False
    while not done:
        done = env.step(0.0).done
        steps += 1
    assert steps == 19  # len(range) - 1 transitions
    assert env.state.t == 19
    with pytest.raises(RuntimeError):
        env.step(0.0)


def test_mark_rule_sides():
    data = quote_dataset([10.0, 9.8, 9.8], [10.0, 10.2, 10.2])
    cfg = EnvConfig(h_max=2.0, lookback=0, unit=1.0, initial_balance=1000.0)
    env = TradingEnv(data, range(0, 3), cfg)
    env.reset()
    assert env.step(1.0).info["mark"] == 9.8  # long marks at bid
    env.reset()
    assert env.step(-1.0).info["mark"] == 10.2  # short marks at ask
    cfg_mid = EnvConfig(h_max=2.0, lookback=0, unit=1.0, initial_balance=1000.0, mark_rule="mid")
    env_mid = TradingEnv(data, range(0, 3), cfg_mid)
    env_mid.reset()
    assert env_mid.step(1.0).info["mark"] == pytest.approx(10.0, abs=1e-15)


def test_cumulative_log_return_frozen_value():
    # wealth 100 -> 101 in one step is +0.995033 percent
    assert cumulative_log_return([math.log(101.0 / 100.0)]) == pytest.approx(
        0.9950330853168092, abs=1e-12
    )
    with pytest.raises(ValueError, match="non-empty"):
        cumulative_log_return([])


def test_run_episode_records_and_trace_export(tmp_path):
    env = tiny_env(length=12, lookback=1)
    record = run_episode(env, lambda obs: 0.2)
    assert len(record.rewards) == 11
    assert len(record.rows) == 11
    assert record.rows[0][0] == 0  # first decision at the range start
    assert record.return_pct == pytest.approx(100.0 * sum(record.rewards), abs=1e-12)
    path = tmp_path / "episode.csv"
    write_episode_trace(record, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.2


def test_env_config_validation():
    with pytest.raises(ValueError, match="h_max"):
        EnvConfig(h_max=0.0)
    with pytest.raises(ValueError, match="unit"):
        EnvConfig(h_max=0.1, unit=0.2)
    with pytest.raises(ValueError, match="unit"):
        EnvConfig(unit=0.0)
    with pytest.raises(ValueError, match="lookback"):
        EnvConfig(lookback=-1)
    with pytest.raises(ValueError, match="commission"):
        EnvConfig(commission=-0.1)
    with pytest.raises(ValueError, match="initial_balance"):
        EnvConfig(initial_balance=0.0)
    with pytest.raises(ValueError, match="mark_rule"):
        EnvConfig(mark_rule="last")


def test_env_split_validation():
    data = synthesize_market("flat", 10, {"base": 10.0})
    with pytest.raises(ValueError, match="step 1"):
        TradingEnv(data, range(0, 10, 2))
    with pytest.raises(ValueError, match="out of bounds"):
        TradingEnv(data, range(0, 11))
    with pytest.raises(ValueError, match="too short"):
        TradingEnv(data, range(0, 4), EnvConfig(lookback=3))


def _reference_window(data: Dataset, start: int, t: int, lookback: int) -> np.ndarray:
    rows = []
    for k in range(t - lookback, t + 1):
        i = max(k, start)
        rows.append(np.concatenate([data.features[i], [data.bids[i], data.asks[i]]]))
    return np.stack(rows)


@pytest.mark.parametrize("lookback", [0, 1, 3])
def test_window_tensor_matches_row_by_row_reference(lookback):
    data = rough_market(60)
    split = range(7, 31)
    env = TradingEnv(data, split, EnvConfig(h_max=1.0, lookback=lookback, unit=0.05))
    assert env.windows.shape == (len(split), lookback + 1, data.n_features + 2)
    assert env.windows.dtype == np.float64
    for i, t in enumerate(split):
        np.testing.assert_array_equal(env.windows[i], _reference_window(data, split.start, t, lookback))
    assert not env.windows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        env.windows[0, 0, 0] = 1.0

    rng = np.random.default_rng(2)
    obs = env.reset()
    done = False
    while True:
        i = env.state.t - split.start
        assert np.shares_memory(obs.window, env.windows)
        np.testing.assert_array_equal(obs.window, env.windows[i])
        assert not obs.window.flags.writeable
        if done:
            break
        result = env.step(float(rng.uniform(-1.0, 1.0)))
        obs, done = result.observation, result.done
    assert env.state.t == split.stop - 1


def test_observation_window_tracks_time():
    env = tiny_env(length=30, lookback=2)
    env.reset()
    res = env.step(0.0)
    w = res.observation.window
    # at t=1 the window holds bars [0, 0, 1] (one back-fill row remains)
    np.testing.assert_allclose(w[0, -2], env.data.bids[0])
    np.testing.assert_allclose(w[1, -2], env.data.bids[0])
    np.testing.assert_allclose(w[2, -2], env.data.bids[1])
    res = env.step(0.0)
    w = res.observation.window
    np.testing.assert_allclose(w[:, -2], env.data.bids[[0, 1, 2]])
