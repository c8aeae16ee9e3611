"""Ring-buffer transition storage and contiguous multi-step segment sampling.

Segments never cross episode boundaries: each sampled slice is truncated at
the first terminal transition, so shorter-than-n segments near episode ends
are returned as-is and the multi-step return sum simply has fewer terms.
Behavior-policy log-densities are stored at collection time because the
acting policy keeps changing while the data sits in the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Observation

DEFAULT_CAPACITY = 100_000
DEFAULT_WARMUP = 1_000


class NotReadyError(RuntimeError):
    """Raised when sampling is requested before the warmup threshold."""


@dataclass(frozen=True)
class Transition:
    obs: Observation
    action: float
    reward: float
    next_obs: Observation
    behavior_log_density: float
    done: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.behavior_log_density):
            raise ValueError("behavior_log_density must be finite")
        if not math.isfinite(self.reward):
            raise ValueError("reward must be finite")


@dataclass(frozen=True)
class Segment:
    """Contiguous transitions from a single episode, terminal-truncated."""

    transitions: tuple

    def __post_init__(self) -> None:
        if len(self.transitions) == 0:
            raise ValueError("segment must contain at least one transition")
        for t in self.transitions[:-1]:
            if t.done:
                raise ValueError("only the last transition of a segment may be terminal")

    def __len__(self) -> int:
        return len(self.transitions)

    @property
    def actions(self) -> np.ndarray:
        return np.array([t.action for t in self.transitions], dtype=np.float64)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([t.reward for t in self.transitions], dtype=np.float64)

    @property
    def behavior_log_densities(self) -> np.ndarray:
        return np.array([t.behavior_log_density for t in self.transitions], dtype=np.float64)

    @property
    def dones(self) -> np.ndarray:
        return np.array([t.done for t in self.transitions], dtype=bool)

    @property
    def observations(self) -> list:
        """States s_0 .. s_{J+1}: each transition's obs plus the final next_obs."""
        return [t.obs for t in self.transitions] + [self.transitions[-1].next_obs]


class ReplayBuffer:
    """Fixed-capacity ring of transitions tagged with episode ids.

    Logical order equals insertion (time) order; eviction drops the oldest
    transitions first, so surviving same-episode runs stay contiguous.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, warmup: int = DEFAULT_WARMUP):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if warmup < 1 or warmup > capacity:
            raise ValueError("warmup must be in [1, capacity]")
        self.capacity = capacity
        self.warmup = warmup
        self._store: list = [None] * capacity
        self._episode_ids = np.zeros(capacity, dtype=np.int64)
        self._pos = 0
        self._full = False
        self._current_episode = 0
        self.push_count = 0

    def __len__(self) -> int:
        return self.capacity if self._full else self._pos

    def _physical(self, logical: int) -> int:
        if self._full:
            return (self._pos + logical) % self.capacity
        return logical

    def push(self, transition: Transition) -> None:
        self._store[self._pos] = transition
        self._episode_ids[self._pos] = self._current_episode
        self._pos += 1
        if self._pos == self.capacity:
            self._pos = 0
            self._full = True
        self.push_count += 1
        if transition.done:
            self._current_episode += 1

    @property
    def ready(self) -> bool:
        return len(self) >= self.warmup

    def segment_at(self, start: int, n: int) -> Segment:
        """Segment of up to n+1 transitions beginning at logical index start."""
        if not 0 <= start < len(self):
            raise IndexError(f"start index {start} out of range for buffer of length {len(self)}")
        if n < 0:
            raise ValueError("n must be >= 0")
        first = self._physical(start)
        episode = self._episode_ids[first]
        picked = []
        for offset in range(n + 1):
            logical = start + offset
            if logical >= len(self):
                break
            phys = self._physical(logical)
            if self._episode_ids[phys] != episode:
                break
            t = self._store[phys]
            picked.append(t)
            if t.done:
                break
        return Segment(tuple(picked))

    def sample_segments(self, batch: int, n: int, rng: np.random.Generator) -> list:
        """batch segments with uniform random starts, each terminal-truncated."""
        if not self.ready:
            raise NotReadyError(
                f"buffer holds {len(self)} transitions, warmup threshold is {self.warmup}"
            )
        if batch < 1:
            raise ValueError("batch must be >= 1")
        starts = rng.integers(0, len(self), size=batch)
        return [self.segment_at(int(s), n) for s in starts]
