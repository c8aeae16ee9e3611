"""Soft actor-critic laboratory: multi-step off-policy trace corrections on
deterministic market-replay environments, with tabular and finite-difference
oracles for every mathematical component."""

from .agent import AgentConfig, TraceSacAgent, TrainingMetrics, train_agent
from .data import Dataset, IngestError, ingest_csv, separate_environments, standardize, synthesize_market, write_csv
from .env import EnvConfig, Observation, StepResult, TradingEnv, cumulative_log_return, discretize_action, run_episode
from .replay import NotReadyError, ReplayBuffer, Segment, Transition
from .tabular import PolicyTable, TabularMDP, exact_q, tabular_retrace_iterate
from .traces import TraceKind, TraceSpec, is_conservative, mixed_target_density, retrace_target, soft_td_error, trace_coefficient

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "Dataset",
    "EnvConfig",
    "IngestError",
    "NotReadyError",
    "Observation",
    "PolicyTable",
    "ReplayBuffer",
    "Segment",
    "StepResult",
    "TabularMDP",
    "TraceKind",
    "TraceSacAgent",
    "TraceSpec",
    "TradingEnv",
    "TrainingMetrics",
    "Transition",
    "cumulative_log_return",
    "discretize_action",
    "exact_q",
    "ingest_csv",
    "is_conservative",
    "mixed_target_density",
    "retrace_target",
    "run_episode",
    "separate_environments",
    "soft_td_error",
    "standardize",
    "synthesize_market",
    "tabular_retrace_iterate",
    "trace_coefficient",
    "train_agent",
    "write_csv",
]
