"""Replay ring buffer: eviction order and segment truncation."""
from __future__ import annotations

import numpy as np
import pytest

from saclab.env import Observation
from saclab.replay import NotReadyError, ReplayBuffer, Segment, Transition


def make_transition(i: int, done: bool = False) -> Transition:
    window = np.full((2, 3), float(i))
    obs = Observation(balance=100.0 + i, holdings=0.1 * i, window=window)
    next_obs = Observation(balance=101.0 + i, holdings=0.1 * i, window=window + 0.5)
    return Transition(
        obs=obs,
        action=0.01 * i,
        reward=0.001 * i,
        next_obs=next_obs,
        behavior_log_density=-1.0 - i,
        done=done,
    )


def fill(buf: ReplayBuffer, count: int, done_at=()) -> None:
    for i in range(count):
        buf.push(make_transition(i, done=i in done_at))


def test_ring_eviction_keeps_newest():
    buf = ReplayBuffer(capacity=5, warmup=1)
    fill(buf, 7)
    assert len(buf) == 5
    assert buf.push_count == 7
    # logical order is oldest-to-newest of the survivors: transitions 2..6
    got = [buf.segment_at(i, 0).transitions[0].action for i in range(5)]
    np.testing.assert_allclose(got, [0.02, 0.03, 0.04, 0.05, 0.06])


def test_segment_stops_at_episode_boundary():
    buf = ReplayBuffer(capacity=20, warmup=1)
    fill(buf, 10, done_at={4})  # transitions 0..4 episode 0, 5..9 episode 1
    seg = buf.segment_at(3, 3)
    assert len(seg) == 2  # 3 and terminal 4 only
    assert seg.transitions[-1].done
    np.testing.assert_allclose(seg.actions, [0.03, 0.04])
    seg2 = buf.segment_at(5, 3)
    assert len(seg2) == 4  # fresh episode, full n+1 run
    np.testing.assert_allclose(seg2.actions, [0.05, 0.06, 0.07, 0.08])


def test_segment_truncates_at_buffer_end():
    buf = ReplayBuffer(capacity=20, warmup=1)
    fill(buf, 6)
    seg = buf.segment_at(4, 5)
    assert len(seg) == 2  # only indices 4, 5 exist


def test_segment_never_spans_eviction_seam():
    # capacity 5, push 7 with terminal at 4: survivors are 2,3,4 | 5,6;
    # a segment starting inside episode 0 must stop at the terminal even
    # though episode 1 sits right after it in ring order
    buf = ReplayBuffer(capacity=5, warmup=1)
    fill(buf, 7, done_at={4})
    seg = buf.segment_at(0, 4)
    np.testing.assert_allclose(seg.actions, [0.02, 0.03, 0.04])
    assert seg.transitions[-1].done
    seg2 = buf.segment_at(3, 4)
    np.testing.assert_allclose(seg2.actions, [0.05, 0.06])


def test_single_step_segments_via_n_zero():
    buf = ReplayBuffer(capacity=10, warmup=1)
    fill(buf, 4)
    seg = buf.segment_at(2, 0)
    assert len(seg) == 1
    assert seg.transitions[0].action == pytest.approx(0.02)
    # observations exposes s_0, s_1 for a single transition
    obs = seg.observations
    assert len(obs) == 2
    assert obs[1].balance == pytest.approx(103.0)


def test_sampling_respects_warmup():
    buf = ReplayBuffer(capacity=50, warmup=5)
    fill(buf, 4)
    assert not buf.ready
    with pytest.raises(NotReadyError, match="warmup"):
        buf.sample_segments(2, 1, np.random.default_rng(0))
    buf.push(make_transition(4))
    assert buf.ready
    segs = buf.sample_segments(3, 1, np.random.default_rng(0))
    assert len(segs) == 3


def test_sampling_is_rng_deterministic():
    buf = ReplayBuffer(capacity=50, warmup=1)
    fill(buf, 30, done_at={9, 19})
    a = buf.sample_segments(8, 3, np.random.default_rng(42))
    b = buf.sample_segments(8, 3, np.random.default_rng(42))
    assert [s.actions.tolist() for s in a] == [s.actions.tolist() for s in b]
    c = buf.sample_segments(8, 3, np.random.default_rng(43))
    assert [s.actions.tolist() for s in a] != [s.actions.tolist() for s in c]


def test_segment_arrays_and_validation():
    t0 = make_transition(0)
    t1 = make_transition(1, done=True)
    seg = Segment((t0, t1))
    np.testing.assert_allclose(seg.rewards, [0.0, 0.001])
    np.testing.assert_allclose(seg.behavior_log_densities, [-1.0, -2.0])
    np.testing.assert_array_equal(seg.dones, [False, True])
    assert len(seg.observations) == 3
    with pytest.raises(ValueError, match="at least one"):
        Segment(())
    with pytest.raises(ValueError, match="last transition"):
        Segment((t1, t0))


def test_transition_rejects_non_finite_fields():
    good = make_transition(0)
    with pytest.raises(ValueError, match="behavior_log_density"):
        Transition(good.obs, 0.0, 0.0, good.next_obs, float("-inf"), False)
    with pytest.raises(ValueError, match="reward"):
        Transition(good.obs, 0.0, float("nan"), good.next_obs, -1.0, False)


def test_constructor_validation():
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer(capacity=0)
    with pytest.raises(ValueError, match="warmup"):
        ReplayBuffer(capacity=5, warmup=6)
    with pytest.raises(ValueError, match="warmup"):
        ReplayBuffer(capacity=5, warmup=0)
    buf = ReplayBuffer(capacity=5, warmup=1)
    fill(buf, 2)
    with pytest.raises(IndexError):
        buf.segment_at(2, 0)
    with pytest.raises(ValueError, match="n must be"):
        buf.segment_at(0, -1)
    with pytest.raises(ValueError, match="batch"):
        buf.sample_segments(0, 1, np.random.default_rng(0))
