"""Agent-level checks: featurization, acting, targets, updates, training loop."""
from __future__ import annotations

import copy
import gc
import math
import weakref

import numpy as np
import pytest

from saclab import harness
from saclab.agent import (
    ENCODE_CHUNK,
    AgentConfig,
    METRICS_HEADER,
    MetricsRow,
    ObsFeaturizer,
    TraceSacAgent,
    TrainingMetrics,
    train_agent,
)
from saclab.env import EnvConfig, Observation
from saclab.nets import ParamBlock, adam_step, squashed_gaussian
from saclab.traces import TraceKind, TraceSpec

from helpers import blocks_equal, clone_blocks, random_policy_return, tiny_agent, tiny_env


def test_featurizer_window_and_scalars():
    cfg = EnvConfig(h_max=0.5, lookback=1, unit=0.1, initial_balance=200.0)
    feat = ObsFeaturizer(cfg)
    # two feature columns, then bid, ask; newest row last
    window = np.array([
        [0.1, -0.2, 99.0, 101.0],
        [0.3, 0.4, 100.0, 102.0],
    ])
    obs = Observation(balance=210.0, holdings=-3.0, window=window)
    windows, scalars = feat.features([obs])
    mid_now = 101.0
    np.testing.assert_allclose(windows[0, :, :2], window[:, :2])  # features pass through
    np.testing.assert_allclose(
        windows[0, :, 2], 100.0 * (np.log(window[:, 2]) - math.log(mid_now)), atol=1e-12
    )
    np.testing.assert_allclose(
        windows[0, :, 3], 100.0 * (np.log(window[:, 3]) - math.log(mid_now)), atol=1e-12
    )
    np.testing.assert_allclose(scalars[0], [210.0 / 200.0 - 1.0, -3.0 * 101.0 / 200.0], atol=1e-12)
    np.testing.assert_allclose(feat.action_feature([0.25, -0.5]), [0.5, -1.0], atol=1e-15)


def test_deterministic_act_is_squashed_mean_and_uses_no_rng():
    agent, _, env = tiny_agent()
    obs = env.reset()
    windows, scalars = agent.featurizer.features([obs])
    mean, _, _ = agent.actor.forward(windows, scalars)
    expected = env.config.h_max * math.tanh(float(mean[0]))
    before = agent.rng_collect.bit_generator.state
    action, logp = agent.act(obs, stochastic=False)
    assert action == pytest.approx(expected, abs=1e-12)
    assert math.isfinite(logp)
    assert agent.rng_collect.bit_generator.state == before
    # stochastic mode does consume the collection stream
    agent.act(obs, stochastic=True)
    assert agent.rng_collect.bit_generator.state != before


def test_frozen_policy_matches_per_step_act():
    agent, _, _ = tiny_agent()
    agent.actor_arena.values += np.random.default_rng(5).normal(0.0, 0.3, agent.actor_arena.values.shape)
    env = tiny_env(length=300)
    assert len(env.windows) > 2 * ENCODE_CHUNK  # the rollout crosses two chunk seams
    policy = agent.frozen_policy(env)
    twin = copy.deepcopy(agent.rng_collect)
    obs = env.reset()
    done = False
    steps = traded = 0
    while not done:
        deterministic = agent.act(obs, stochastic=False)
        stochastic = agent.act(obs, stochastic=True, rng=twin)
        np.testing.assert_allclose(policy(obs, False), deterministic, rtol=0, atol=1e-12)
        np.testing.assert_allclose(policy(obs, True), stochastic, rtol=0, atol=1e-12)
        result = env.step(stochastic[0])
        obs, done = result.observation, result.done
        steps += 1
        traded += result.info["executed"] != 0.0
    assert steps == 299 and traded > 0
    assert agent.rng_collect.bit_generator.state == twin.bit_generator.state


def test_warmup_draws_one_collect_normal_per_step():
    env = tiny_env(length=40, seed=6)
    val_env = tiny_env(length=40, seed=7)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.01)
    cfg = AgentConfig(trace=spec, batch=4, warmup=100, buffer_capacity=400, lstm_hidden=4,
                      head_hidden=4, episodes=2, validate_every=1, seed=3)
    agent = TraceSacAgent(cfg, env.config, env.data.n_features, dtype=np.float64)
    twin = copy.deepcopy(agent.rng_collect)
    replay_rng = copy.deepcopy(agent.rng_collect)
    metrics = agent.train(env, val_env)
    # two warmup episodes of 39 steps, each followed by a deterministic validation
    assert agent.update_count == 0 and agent.buffer.push_count == 78
    assert all(r.val_return_pct is not None for r in metrics.rows)
    for _ in range(78):
        twin.standard_normal()
    assert agent.rng_collect.bit_generator.state == twin.bit_generator.state
    # each stored behaviour step is what per-step acting would have drawn
    for i in range(78):
        tr = agent.buffer.segment_at(i, 0).transitions[0]
        np.testing.assert_allclose(
            agent.act(tr.obs, stochastic=True, rng=replay_rng),
            (tr.action, tr.behavior_log_density), rtol=0, atol=1e-12,
        )


def test_actions_always_within_bounds():
    agent, _, env = tiny_agent()
    obs = env.reset()
    for _ in range(50):
        a, _ = agent.act(obs, stochastic=True)
        assert abs(a) <= env.config.h_max


def test_same_seed_same_agent():
    a1, _, env = tiny_agent(seed=33)
    a2, _, _ = tiny_agent(seed=33)
    a3, _, _ = tiny_agent(seed=34)
    assert blocks_equal(a1.blocks, clone_blocks(a2.blocks))
    assert not blocks_equal(a1.blocks, clone_blocks(a3.blocks))
    obs = env.reset()
    assert a1.act(obs, stochastic=True) == a2.act(obs, stochastic=True)


def test_target_critics_start_as_copies():
    agent, _, _ = tiny_agent()
    assert blocks_equal(agent.target_critic_1.blocks, clone_blocks(agent.critic_1.blocks))
    assert blocks_equal(agent.target_critic_2.blocks, clone_blocks(agent.critic_2.blocks))
    assert not blocks_equal(agent.critic_1.blocks, clone_blocks(agent.critic_2.blocks))


def test_single_step_targets_equal_soft_bellman_backup():
    # lam = 0, n = 0 collapses the trace to the standard one-step soft target:
    # y = r + gamma * (1 - done) * (min_target_Q(s', a') - alpha * log pi(a'|s'))
    agent, segments, env = tiny_agent(trace_kwargs=dict(lam=0.0, n=0))
    spec = agent.config.trace
    h_max = env.config.h_max
    targets = agent.segment_targets(segments, np.random.default_rng(123))

    rng = np.random.default_rng(123)
    all_obs = []
    for seg in segments:
        all_obs.extend(seg.observations)
    windows, scalars = agent.featurizer.features(all_obs)
    mean, log_std, _ = agent.actor.forward(windows, scalars)
    eps = rng.standard_normal(len(all_obs))
    fresh_a, fresh_logp, _ = squashed_gaussian(
        np.asarray(mean, dtype=np.float64), np.asarray(log_std, dtype=np.float64), eps, h_max
    )
    expected = np.empty(len(segments))
    for i, seg in enumerate(segments):
        assert len(seg) == 1  # n = 0 segments hold one transition
        j = 2 * i + 1  # next-state row in the flattened observation list
        sf = np.concatenate([scalars[j:j + 1], [[fresh_a[j] / h_max]]], axis=1)
        enc1, _ = agent.target_critic_1.encode(windows[j:j + 1])
        enc2, _ = agent.target_critic_2.encode(windows[j:j + 1])
        q1, _ = agent.target_critic_1.head(enc1, sf)
        q2, _ = agent.target_critic_2.head(enc2, sf)
        q_min = min(float(q1[0]), float(q2[0]))
        t = seg.transitions[0]
        not_done = 0.0 if t.done else 1.0
        expected[i] = t.reward + spec.gamma * not_done * (
            q_min - spec.alpha_ent * float(fresh_logp[j])
        )
    np.testing.assert_allclose(targets, expected, rtol=0, atol=1e-10)


def test_targets_ignore_online_critics():
    agent, segments, _ = tiny_agent()
    base = agent.segment_targets(segments, np.random.default_rng(5))
    for block in agent.critic_1.blocks + agent.critic_2.blocks:
        block.values += 0.3
    unchanged = agent.segment_targets(segments, np.random.default_rng(5))
    np.testing.assert_array_equal(base, unchanged)
    # positive control: the target critics do matter
    for block in agent.target_critic_1.blocks:
        block.values += 0.3
    moved = agent.segment_targets(segments, np.random.default_rng(5))
    assert np.max(np.abs(moved - base)) > 1e-6


def test_non_finite_target_names_the_segment():
    agent, segments, _ = tiny_agent()
    agent.target_critic_1.out.b.values[:] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite retrace target for segment 0"):
        agent.segment_targets(segments, np.random.default_rng(5))


def test_targets_depend_on_trace_kind():
    # the buffer is filled by the initial policy, so the actor must move
    # before pi / mu ratios differ from 1 and the kinds can disagree
    kinds = [TraceKind.RETRACE, TraceKind.IMPORTANCE_SAMPLING, TraceKind.UNCORRECTED]
    outs = []
    for kind in kinds:
        agent, segments, _ = tiny_agent(trace_kwargs=dict(kind=kind))
        agent.actor.out.W.values += 0.05  # same seed, same shift: identical pi
        outs.append(agent.segment_targets(segments, np.random.default_rng(9)))
    assert np.max(np.abs(outs[0] - outs[2])) > 1e-9  # retrace clips, uncorrected does not
    assert np.max(np.abs(outs[1] - outs[2])) > 1e-9


def test_critic_loss_zero_at_exact_targets_and_params_stay_put():
    agent, segments, _ = tiny_agent()
    # make both critics identical so one prediction vector satisfies both
    agent._copy_blocks(agent.critic_1, agent.critic_2)
    windows, sf = agent._critic_inputs(segments)
    q, _ = agent.critic_1.forward(windows, sf)
    targets = np.asarray(q, dtype=np.float64)
    assert agent.critic_loss_value(segments, targets) == 0.0
    loss = agent.critic_loss_backward(segments, targets)
    assert loss == 0.0
    snap = clone_blocks(agent.critic_1.blocks)
    for block in agent.critic_1.blocks:
        from saclab.nets import adam_step

        adam_step(block, agent.config.lr_critic)
    assert blocks_equal(agent.critic_1.blocks, snap)


def test_critic_regression_reduces_loss_on_frozen_batch():
    agent, segments, _ = tiny_agent()
    targets = agent.segment_targets(segments, np.random.default_rng(17))
    initial = agent.critic_loss_value(segments, targets)
    from saclab.nets import adam_step

    for _ in range(200):
        agent.critic_loss_backward(segments, targets)
        for critic in (agent.critic_1, agent.critic_2):
            for block in critic.blocks:
                adam_step(block, 1e-2)
    final = agent.critic_loss_value(segments, targets)
    assert final < 0.5 * initial


def test_critic_update_advances_counter_and_changes_params():
    agent, segments, _ = tiny_agent()
    snap = clone_blocks(agent.critic_1.blocks)
    loss = agent.critic_update(segments)
    assert agent.update_count == 1
    assert math.isfinite(loss) and loss > 0.0
    assert not blocks_equal(agent.critic_1.blocks, snap)


def test_actor_gradient_vanishes_when_objective_is_flat():
    # alpha = 0 plus constant-zero critics: the objective cannot prefer any
    # action, so an actor update must leave the parameters bit-identical
    agent, segments, _ = tiny_agent(trace_kwargs=dict(alpha_ent=0.0))
    for critic in (agent.critic_1, agent.critic_2):
        critic.out.W.values[:] = 0.0
        critic.out.b.values[:] = 0.0
    snap = clone_blocks(agent.actor.blocks)
    loss = agent.actor_update(segments)
    assert loss == 0.0
    assert blocks_equal(agent.actor.blocks, snap)


def test_entropy_bonus_pushes_log_density_down():
    # with zeroed critics the actor loss is alpha * mean(log pi); updates
    # must increase entropy (decrease the evaluated log-density)
    agent, segments, _ = tiny_agent(trace_kwargs=dict(alpha_ent=0.5))
    for critic in (agent.critic_1, agent.critic_2):
        critic.out.W.values[:] = 0.0
        critic.out.b.values[:] = 0.0
    eps = np.random.default_rng(3).standard_normal(len(segments))
    before = agent.actor_loss_value(segments, eps)
    for _ in range(50):
        agent.actor_update(segments)
    after = agent.actor_loss_value(segments, eps)
    assert after < before


def test_polyak_target_update():
    agent, _, _ = tiny_agent()
    online0 = clone_blocks(agent.critic_1.blocks)
    for block in agent.critic_1.blocks:
        block.values[...] = 1.0
    for block in agent.target_critic_1.blocks:
        block.values[...] = 0.0
    agent.target_update(tau=0.5)
    agent.target_update(tau=0.5)
    for block in agent.target_critic_1.blocks:
        np.testing.assert_allclose(block.values, 0.75, rtol=0, atol=1e-7)
    agent.target_update(tau=1.0)
    assert blocks_equal(agent.target_critic_1.blocks, clone_blocks(agent.critic_1.blocks))
    with np.testing.assert_raises(AssertionError):
        np.testing.assert_array_equal(online0[0], agent.critic_1.blocks[0].values)


def test_train_produces_one_row_per_episode_with_periodic_validation():
    env = tiny_env(length=40, seed=6)
    val_env = tiny_env(length=40, seed=7)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.01)
    cfg = AgentConfig(
        trace=spec, batch=4, warmup=10, buffer_capacity=400, lstm_hidden=4,
        head_hidden=4, episodes=10, validate_every=5, seed=1,
        grad_steps_per_env_step=1,
    )
    agent, metrics = train_agent(env, val_env, cfg)
    assert len(metrics.rows) == 10
    assert [r.episode for r in metrics.rows] == list(range(1, 11))
    assert all(r.steps == 39 for r in metrics.rows)
    vals = [r.val_return_pct for r in metrics.rows]
    assert [v is not None for v in vals] == [e % 5 == 0 for e in range(1, 11)]
    assert len([v for v in vals if v is not None]) == 2
    assert metrics.final_validation_return() == vals[-1]
    assert all(r.trace_kind == "retrace" for r in metrics.rows)
    # updates happened once warmup passed
    assert agent.update_count > 0
    assert any(r.critic_loss is not None for r in metrics.rows)


def test_training_is_bit_reproducible():
    def run():
        env = tiny_env(length=40, seed=6)
        val_env = tiny_env(length=40, seed=7)
        spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.01)
        cfg = AgentConfig(
            trace=spec, batch=4, warmup=10, buffer_capacity=400, lstm_hidden=4,
            head_hidden=4, episodes=3, validate_every=3, seed=2,
            grad_steps_per_env_step=1,
        )
        return train_agent(env, val_env, cfg)

    a1, m1 = run()
    a2, m2 = run()
    for r1, r2 in zip(m1.rows, m2.rows):
        assert r1 == r2
    assert blocks_equal(a1.blocks, clone_blocks(a2.blocks))


def test_checkpoint_restores_policy_exactly(tmp_path):
    env = tiny_env(length=40, seed=6)
    val_env = tiny_env(length=40, seed=7)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.01)
    cfg = AgentConfig(
        trace=spec, batch=4, warmup=10, buffer_capacity=400, lstm_hidden=4,
        head_hidden=4, episodes=2, validate_every=2, seed=3, grad_steps_per_env_step=1,
    )
    agent, _ = train_agent(env, val_env, cfg)
    path = tmp_path / "agent.npz"
    agent.save_checkpoint(path)

    fresh = TraceSacAgent(cfg, env.config, env.data.n_features)
    obs = env.reset()
    assert fresh.act(obs, stochastic=False) != agent.act(obs, stochastic=False)
    fresh.restore_checkpoint(path)
    assert fresh.update_count == agent.update_count
    for o in (env.reset(), env.step(0.1).observation):
        assert fresh.act(o, stochastic=False) == agent.act(o, stochastic=False)


def _state(blocks) -> list:
    return [(b.values.copy(), b.adam_m.copy(), b.adam_v.copy(), b.step_count) for b in blocks]


def _same_state(a, b) -> bool:
    return all(
        all(np.array_equal(x, y) for x, y in zip(sa[:3], sb[:3])) and sa[3] == sb[3]
        for sa, sb in zip(a, b)
    )


def test_resumed_agent_takes_the_same_next_update(tmp_path):
    # the Adam step count lives on each arena; a restore that left it at 0
    # would change the bias correction of the next step
    agent, segments = harness._tiny_agent(np.float32)
    for _ in range(5):
        agent.critic_update(segments)
        agent.actor_update(segments)
        agent.target_update()
    path = tmp_path / "agent.npz"
    agent.save_checkpoint(path)
    fresh, _ = harness._tiny_agent(np.float32)
    fresh.restore_checkpoint(path)
    assert _same_state(_state(fresh.blocks), _state(agent.blocks))
    fresh.rng_update.bit_generator.state = agent.rng_update.bit_generator.state
    agent.critic_update(segments)
    fresh.critic_update(segments)
    assert _same_state(_state(fresh.blocks), _state(agent.blocks))
    assert all(b.step_count == 6 for b in agent.critic_1.blocks + agent.critic_2.blocks)


def test_arenas_hold_every_block_as_views():
    agent, _, _ = tiny_agent()
    groups = [
        (agent.actor_arena, agent.actor.blocks),
        (agent.critic_arena, agent.critic_1.blocks + agent.critic_2.blocks),
        (agent.target_arena, agent.target_critic_1.blocks + agent.target_critic_2.blocks),
    ]
    for arena, blocks in groups:
        assert arena.parts == blocks
        assert arena.values.size == sum(b.values.size for b in blocks)
        for b in blocks:
            for attr in ("values", "grad", "adam_m", "adam_v"):
                assert np.shares_memory(getattr(b, attr), getattr(arena, attr)), (b.name, attr)


def test_arena_adam_matches_per_block_adam():
    agent, _, _ = tiny_agent(np.float32)
    arena = agent.critic_arena
    clones = [ParamBlock(b.name, b.values.copy()) for b in arena.parts]
    rng = np.random.default_rng(4)
    for _ in range(10):
        for b, c in zip(arena.parts, clones):
            b.grad[...] = rng.normal(size=b.values.shape)
            c.grad[...] = b.grad
            adam_step(c, 1e-2)
        adam_step(arena, 1e-2)
    for b, c in zip(arena.parts, clones):
        for attr in ("values", "adam_m", "adam_v", "grad"):
            np.testing.assert_array_equal(getattr(b, attr), getattr(c, attr))
        assert b.step_count == c.step_count == 10


def test_non_finite_gradient_in_arena_names_the_block():
    agent, _, _ = tiny_agent()
    agent.critic_2.h1.W.grad[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"'critic_2\.h1\.W'"):
        adam_step(agent.critic_arena, 1e-3)


def test_agent_is_freed_without_the_cycle_collector():
    # the benchmark builds an agent per run; parameters held in a cycle
    # stayed resident until a full collection and peak memory grew per run
    agent, _, _ = tiny_agent(np.float32)
    held = [agent, agent.actor_arena, agent.critic_arena, agent.target_arena] + agent.blocks
    refs = [weakref.ref(x) for x in held]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del agent, held
        assert all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


def test_metrics_csv_format(tmp_path):
    metrics = TrainingMetrics(rows=[
        MetricsRow(1, 39, None, None, 0.5, None, 7, 0, "retrace"),
        MetricsRow(2, 39, 0.25, -0.125, -1.5, 2.75, 7, 0, "retrace"),
    ])
    path = tmp_path / "metrics.csv"
    metrics.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == METRICS_HEADER
    assert lines[1] == "1,39,,,0.5,,7,0,retrace"
    assert lines[2] == "2,39,0.25,-0.125,-1.5,2.75,7,0,retrace"


def test_random_policy_baseline_deterministic():
    env = tiny_env(length=40, seed=6)
    a = random_policy_return(env, seed=11, episodes=3)
    b = random_policy_return(env, seed=11, episodes=3)
    c = random_policy_return(env, seed=12, episodes=3)
    assert a == b
    assert a != c
    assert math.isfinite(a)


def test_agent_config_validation():
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95)
    with pytest.raises(ValueError, match="tau"):
        AgentConfig(trace=spec, tau=0.0)
    with pytest.raises(ValueError, match="learning rates"):
        AgentConfig(trace=spec, lr_actor=0.0)
    with pytest.raises(ValueError, match="batch"):
        AgentConfig(trace=spec, batch=0)
    with pytest.raises(ValueError, match="validate_every"):
        AgentConfig(trace=spec, validate_every=0)
