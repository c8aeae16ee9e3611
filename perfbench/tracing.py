"""Instrumentation the benchmark installs on saclab from outside.

`Probe` is installed for the whole run, traced or not. It wraps only
`TradingEnv.step` (a step counter and a running reward sum per episode) and
`TraceSacAgent.train` (one timer and one capture per training run), so its
cost per environment step is about a microsecond.

`Tracer` is installed only around traced rounds. It wraps the public
functions of every layer and aggregates, per name, the call count, the
total time and the self time (total minus the time of traced calls nested
inside it).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from saclab import agent as agent_mod
from saclab import env as env_mod
from saclab import harness, nets, replay


@dataclass
class Training:
    """One `TraceSacAgent.train` call seen by the probe."""

    agent: object
    train_env: object
    env_id: int
    metrics: object
    seconds: float
    collection_steps: int   # env.step calls on train_env during the call
    validation_steps: int   # env.step calls on val_env during the call


class Probe:
    def __init__(self):
        self._saved = []
        self.start_round()

    def start_round(self) -> None:
        self.first_step = None
        self.steps = 0
        self.env_steps = {}     # id(env) -> env.step calls this round
        self._episode_sum = {}  # id(env) -> reward sum of the running episode
        self.rollouts = []      # (reward sum, final wealth, initial balance) per finished episode
        self.trainings = []

    def install(self) -> None:
        probe = self
        step = env_mod.TradingEnv.step
        train = agent_mod.TraceSacAgent.train

        def counted_step(env, action):
            if probe.first_step is None:
                probe.first_step = perf_counter()
            state = env.state
            fresh = state is not None and state.t == env.split_range.start
            result = step(env, action)
            key = id(env)
            probe.steps += 1
            probe.env_steps[key] = probe.env_steps.get(key, 0) + 1
            total = (0.0 if fresh else probe._episode_sum.get(key, 0.0)) + result.reward
            if result.done:
                probe.rollouts.append((total, env.state.wealth, env.config.initial_balance))
                probe._episode_sum.pop(key, None)
            else:
                probe._episode_sum[key] = total
            return result

        def captured_train(agent, train_env, val_env, env_id=0):
            counts = probe.env_steps
            before = (counts.get(id(train_env), 0), counts.get(id(val_env), 0))
            t0 = perf_counter()
            metrics = train(agent, train_env, val_env, env_id=env_id)
            seconds = perf_counter() - t0
            probe.trainings.append(Training(
                agent, train_env, env_id, metrics, seconds,
                counts.get(id(train_env), 0) - before[0], counts.get(id(val_env), 0) - before[1]))
            return metrics

        self._saved = [(env_mod.TradingEnv, "step", step), (agent_mod.TraceSacAgent, "train", train)]
        env_mod.TradingEnv.step = counted_step
        agent_mod.TraceSacAgent.train = captured_train

    def uninstall(self) -> None:
        _restore(self._saved)


def _restore(saved: list) -> None:
    """Undo the patches listed as (owner, attribute, original), newest first."""
    while saved:
        owner, attr, original = saved.pop()
        setattr(owner, attr, original)


def _lstm_forward_name(args) -> str:
    return "nets.LSTM.forward.b1" if len(args[1]) == 1 else "nets.LSTM.forward.batch"


# (owner, attribute, span name).  Functions imported by name into another
# module are patched where the caller looks them up.
TRACED = [
    (nets.LSTM, "forward", _lstm_forward_name),
    (nets.LSTM, "backward", "nets.LSTM.backward"),
    (nets.Dense, "forward", "nets.Dense.forward"),
    (nets.Dense, "backward", "nets.Dense.backward"),
    (agent_mod, "adam_step", "nets.adam_step"),
    (nets, "save_checkpoint", "nets.save_checkpoint"),
    (nets, "load_checkpoint", "nets.load_checkpoint"),
    (agent_mod.ObsFeaturizer, "features", "agent.features"),
    (agent_mod.TraceSacAgent, "act", "agent.act"),
    (agent_mod.TraceSacAgent, "segment_targets", "agent.segment_targets"),
    (agent_mod.TraceSacAgent, "critic_update", "agent.critic_update"),
    (agent_mod.TraceSacAgent, "actor_update", "agent.actor_update"),
    (agent_mod.TraceSacAgent, "target_update", "agent.target_update"),
    (agent_mod, "retrace_target", "traces.retrace_target"),
    (agent_mod, "trace_coefficient_from_log", "traces.trace_coefficient_from_log"),
    (env_mod.TradingEnv, "step", "env.step"),
    (replay.ReplayBuffer, "push", "replay.push"),
    (replay.ReplayBuffer, "sample_segments", "replay.sample_segments"),
    (harness, "ingest_csv", "data.ingest_csv"),
    (harness, "standardize", "data.standardize"),
    (harness, "load_dataset", "harness.load_dataset"),
    (harness, "run_training", "harness.run_training"),
    (harness, "evaluate_checkpoint", "harness.evaluate_checkpoint"),
    (harness, "aggregate_report", "harness.aggregate_report"),
]


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self._stack = [0.0]  # child time accumulated by each open span
        self._saved = []

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        _restore(self._saved)

    def _wrap(self, original, name):
        stack = self._stack
        stats = self.stats
        named = callable(name)

        def traced(*args, **kwargs):
            key = name(args) if named else name
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, dur, dur - child]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur - child

        return traced

    @staticmethod
    def call_cost(n: int = 100_000) -> float:
        """Seconds one traced call adds to the call it wraps, measured on a
        no-op (best of three, to stay clear of other load on the machine)."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "noop")
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(n):
                noop()
            t1 = perf_counter()
            for _ in range(n):
                wrapped()
            best = min(best, (perf_counter() - t1) - (t1 - t0))
        return max(0.0, best / n)

    def calls(self, prefix: str) -> int:
        """Calls of `prefix` and of every span named `prefix.<split>`."""
        return sum(v[0] for k, v in self.stats.items() if k == prefix or k.startswith(prefix + "."))

    def per_call(self, name: str, column: int) -> float:
        entry = self.stats.get(name)
        return entry[column] / entry[0] if entry else 0.0
