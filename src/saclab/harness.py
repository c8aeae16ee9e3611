"""Run orchestration and self-checks: load or synthesize data, run the
independent per-environment training protocol, aggregate results in
mean +/- std table form, and exercise the mathematical components against
built-in fixtures (the `verify` subcommand).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import nets, tabular
from .agent import AgentConfig, TraceSacAgent, Transition, train_agent
from .config import ConfigError, RunConfig
from .data import Dataset, ingest_csv, separate_environments, standardize, synthesize_market
from .env import EnvConfig, TradingEnv, cumulative_log_return, run_episode
from .nets import LSTM, Dense, ParamBlock, gradient_check, squashed_gaussian, squashed_gaussian_grads, squashed_gaussian_log_density
from .traces import CONSERVATIVE_KINDS, TraceKind, TraceSpec, is_conservative, retrace_target, soft_td_error, trace_coefficient


@dataclass(frozen=True)
class ResultRow:
    """One aggregated cell: final validation return across seeds."""

    trace_kind: str
    env_id: int
    mean_return_pct: float
    std_return_pct: float
    n_seeds: int

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.std_return_pct < 0.0:
            raise ValueError("std must be >= 0")


def load_dataset(cfg: RunConfig) -> Dataset:
    d = cfg.data
    if d.source == "csv":
        path = Path(d.path)
        if not path.exists():
            raise ConfigError(f"config.data.path: file not found: {path}")
        return ingest_csv(path)
    return synthesize_market(d.synth.kind, d.synth.length, d.synth.params, d.synth.seed)


def market_return_pct(data: Dataset, split: range) -> float:
    """Buy-and-hold benchmark: 100 * log(mid_last / mid_first) on the slice."""
    return 100.0 * math.log(data.mid(split.stop - 1) / data.mid(split.start))


def _run_stem(env_id: int, kind: str, seed: int) -> str:
    return f"env{env_id}_{kind}_seed{seed}"


def run_training(cfg: RunConfig) -> Path:
    """Execute every (environment x trace kind x seed) run independently.

    All inputs are validated and the dataset fully loaded before the output
    directory is created, so a missing file leaves no partial outputs.
    Returns the run directory containing metrics CSVs, checkpoints, and a
    manifest embedding the exact config.
    """
    data = load_dataset(cfg)
    days_per_env = cfg.data.train_days + 2
    splits = separate_environments(
        data,
        n_envs=cfg.data.n_envs,
        days_per_env=days_per_env,
        train_days=cfg.data.train_days,
        minutes_per_day=cfg.data.minutes_per_day,
    )

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    market_val = {}
    market_test = {}
    for split in splits:
        std_data = standardize(data, split.train)
        market_val[str(split.env_id)] = market_return_pct(data, split.validation)
        market_test[str(split.env_id)] = market_return_pct(data, split.test)
        for agent_cfg in cfg.agents:
            for seed in cfg.seeds:
                seeded = replace(agent_cfg, seed=seed)
                train_env = TradingEnv(std_data, split.train, cfg.env)
                val_env = TradingEnv(std_data, split.validation, cfg.env)
                agent, metrics = train_agent(train_env, val_env, seeded, env_id=split.env_id)
                stem = _run_stem(split.env_id, seeded.trace.kind.value, seed)
                metrics_file = out / f"metrics_{stem}.csv"
                checkpoint_file = out / f"checkpoint_{stem}.npz"
                metrics.to_csv(metrics_file)
                agent.save_checkpoint(checkpoint_file)
                runs.append(
                    {
                        "env_id": split.env_id,
                        "trace_kind": seeded.trace.kind.value,
                        "seed": seed,
                        "metrics": metrics_file.name,
                        "checkpoint": checkpoint_file.name,
                        "final_val_return_pct": metrics.final_validation_return(),
                    }
                )
                print(f"run {stem}: final validation return {metrics.final_validation_return():+.4f}%")

    manifest = {
        "config": cfg.raw,
        "n_bars": len(data),
        "n_features": data.n_features,
        "market_val_return_pct": market_val,
        "market_test_return_pct": market_test,
        "runs": runs,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


# -- evaluation ------------------------------------------------------------------------


def evaluate_checkpoint(cfg: RunConfig, run_dir: Path, env_id: int, kind: str, seed: int,
                        split_name: str = "validation", trace_out: Path | None = None) -> float:
    """Deterministic episode return of a saved agent on a chosen split."""
    data = load_dataset(cfg)
    splits = separate_environments(
        data,
        n_envs=cfg.data.n_envs,
        days_per_env=cfg.data.train_days + 2,
        train_days=cfg.data.train_days,
        minutes_per_day=cfg.data.minutes_per_day,
    )
    matching = [s for s in splits if s.env_id == env_id]
    if not matching:
        raise ConfigError(f"config: env_id {env_id} not in 0..{len(splits) - 1}")
    split = matching[0]
    std_data = standardize(data, split.train)
    ranges = {"train": split.train, "validation": split.validation, "test": split.test}
    if split_name not in ranges:
        raise ConfigError(f"config: unknown split {split_name!r}")
    env = TradingEnv(std_data, ranges[split_name], cfg.env)

    agent_cfgs = [a for a in cfg.agents if a.trace.kind.value == kind]
    if not agent_cfgs:
        raise ConfigError(f"config: no agent with trace kind {kind!r}")
    agent_cfg = replace(agent_cfgs[0], seed=seed)
    agent = TraceSacAgent(agent_cfg, cfg.env, std_data.n_features)
    checkpoint = run_dir / f"checkpoint_{_run_stem(env_id, kind, seed)}.npz"
    if not checkpoint.exists():
        raise ConfigError(f"config: checkpoint not found: {checkpoint}")
    agent.restore_checkpoint(checkpoint)

    record = agent.rollout(env)
    if trace_out is not None:
        from .env import write_episode_trace

        write_episode_trace(record, trace_out)
    return record.return_pct


# -- reporting -------------------------------------------------------------------------


@dataclass
class Report:
    rows: list
    market_val: dict
    text: str


def aggregate_report(run_dir: str | Path) -> Report:
    """Aggregate final validation returns across seeds, Table-style.

    Pure function of the metrics CSVs plus the manifest's market returns;
    re-running it never changes numbers.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {run_dir}; not a run directory")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    metrics_files = sorted(run_dir.glob("metrics_*.csv"))
    if not metrics_files:
        raise FileNotFoundError(f"no metrics files in {run_dir}")

    finals = {}  # (kind, env_id) -> list of final validation returns
    for path in metrics_files:
        with path.open(encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            last_val = None
            kind = env_id = None
            for row in reader:
                kind = row["trace_kind"]
                env_id = int(row["env_id"])
                if row["val_return_pct"] != "":
                    last_val = float(row["val_return_pct"])
            if last_val is None:
                raise ValueError(f"{path.name}: no validation records")
        finals.setdefault((kind, env_id), []).append(last_val)

    rows = []
    for (kind, env_id), vals in sorted(finals.items()):
        arr = np.asarray(vals, dtype=np.float64)
        std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
        rows.append(
            ResultRow(
                trace_kind=kind,
                env_id=env_id,
                mean_return_pct=float(np.mean(arr)),
                std_return_pct=std,
                n_seeds=len(arr),
            )
        )

    env_ids = sorted({r.env_id for r in rows})
    kinds = sorted({r.trace_kind for r in rows})
    by_cell = {(r.trace_kind, r.env_id): r for r in rows}
    width = 20
    lines = [
        "final validation return, percent; mean +/- sample std (ddof=1) across seeds",
        "".join(["algorithm".ljust(14)] + [f"env{e}".ljust(width) for e in env_ids]),
    ]
    for kind in kinds:
        cells = []
        for e in env_ids:
            r = by_cell.get((kind, e))
            cells.append(("-" if r is None else f"{r.mean_return_pct:.4f} ± {r.std_return_pct:.4f}").ljust(width))
        lines.append("".join([kind.ljust(14)] + cells))
    market_val = manifest.get("market_val_return_pct", {})
    cells = [f"{market_val[str(e)]:.4f}".ljust(width) if str(e) in market_val else "-".ljust(width) for e in env_ids]
    lines.append("".join(["market".ljust(14)] + cells))
    return Report(rows=rows, market_val=market_val, text="\n".join(lines))


def write_report_csv(report: Report, path: str | Path) -> None:
    """results.csv: agent rows plus market rows (blank std / n_seeds)."""
    lines = ["trace_kind,env_id,mean_return_pct,std_return_pct,n_seeds"]
    for r in report.rows:
        lines.append(
            f"{r.trace_kind},{r.env_id},{repr(r.mean_return_pct)},{repr(r.std_return_pct)},{r.n_seeds}"
        )
    for env_id in sorted(report.market_val, key=int):
        lines.append(f"market,{env_id},{repr(float(report.market_val[env_id]))},,")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- verify suite ------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_tabular_convergence(mdps: int = 5, seed: int = 5) -> CheckResult:
    """Every conservative kind at lam = 1 converges to Q^pi on random MDPs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(mdps):
        mdp = tabular.random_mdp(5, 3, 0.9, rng)
        behavior = tabular.random_policy(5, 3, rng, min_prob=0.05)
        target = tabular.random_policy(5, 3, rng, min_prob=0.05)
        q_star = tabular.exact_q(mdp, target)
        for kind in CONSERVATIVE_KINDS:
            spec = TraceSpec(kind=kind, lam=1.0, n=0, gamma=0.9)
            result = tabular.tabular_retrace_iterate(mdp, behavior, target, spec,
                                                     truncation_T=50, iterations=1000)
            err = float(np.max(np.abs(result.iterates[-1] - q_star)))
            worst = max(worst, np.inf if result.diverged else err)
    return CheckResult("tabular_retrace_convergence", worst < 1e-6,
                       f"{mdps} MDPs x 3 conservative kinds, worst max-norm error {worst:.3e}")


def _check_single_step_reduction(segments: int = 200, seed: int = 6) -> CheckResult:
    """lam = 0 collapses every kind, horizon and length to the single-step
    soft backup q0 + delta_0 = r + gamma * (q_next - alpha * log pi_next)."""
    rng = np.random.default_rng(seed)
    gamma, alpha = 0.95, 0.1
    lengths = rng.integers(1, 6, segments)
    r, q_next, q0 = rng.normal(0.0, 1.0, (3, segments))
    logp_next = rng.normal(-1.0, 0.5, segments)
    delta = rng.normal(0.0, 1.0, (segments, 5))
    delta[:, 0] = soft_td_error(r, q_next, logp_next, q0, gamma, alpha)
    coeffs = rng.uniform(0.0, 2.0, (segments, 5))
    expected = r + gamma * (q_next - alpha * logp_next)
    worst = 0.0
    for kind in TraceKind:
        for n in range(5):
            spec = TraceSpec(kind=kind, lam=0.0, n=n, gamma=gamma, alpha_ent=alpha)
            got = retrace_target(q0, delta, coeffs, lengths, spec)
            worst = max(worst, float(np.max(np.abs(got - expected))),
                        float(np.max(np.abs(got - (q0 + delta[:, 0])))))
    return CheckResult("single_step_reduction", worst < 1e-12,
                       f"{segments} segments x 5 kinds, worst deviation {worst:.3e}")


def _check_trace_table(pairs: int = 2000, seed: int = 7) -> CheckResult:
    """Coefficients match their formulas exactly, and exactly the kinds in
    CONSERVATIVE_KINDS keep c within [0, pi/mu]."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(1e-6, 1.0, pairs)
    mu = rng.uniform(1e-6, 1.0, pairs)
    lam = 0.9
    expected = {
        TraceKind.RETRACE: np.minimum(1.0, pi / mu),
        TraceKind.IMPORTANCE_SAMPLING: pi / mu,
        TraceKind.TREE_BACKUP: np.minimum(1.0, pi),
        TraceKind.PENG_Q: np.ones_like(pi),
        TraceKind.UNCORRECTED: np.ones_like(pi),
    }
    exact = all(np.array_equal(trace_coefficient(k, pi, mu, lam), c) for k, c in expected.items())
    conservative_ok = all(
        bool(np.all(is_conservative(k, pi, mu, lam))) == (k in CONSERVATIVE_KINDS)
        for k in TraceKind
    )
    return CheckResult("trace_coefficient_table", exact and conservative_ok,
                       f"{pairs} density pairs, coefficients exact={exact}, "
                       f"conservative flags correct={conservative_ok}")


def _check_dense_gradient() -> CheckResult:
    rng = np.random.default_rng(8)
    layer = Dense("check.dense", 5, 4, "tanh", rng, dtype=np.float64)
    x = rng.normal(0.0, 1.0, (3, 5))
    v = rng.normal(0.0, 1.0, (3, 4))

    def loss() -> float:
        out, _ = layer.forward(x)
        return float(np.sum(out * v))

    nets.zero_grads(layer.blocks)
    out, cache = layer.forward(x)
    layer.backward(cache, v)
    report = gradient_check(loss, layer.blocks, rng)
    return CheckResult("dense_gradient", report.passed,
                       f"max relative error {report.max_rel_error:.3e}")


def _check_lstm_gradient() -> CheckResult:
    rng = np.random.default_rng(9)
    cell = LSTM("check.lstm", 3, 4, rng, dtype=np.float64)
    xs = rng.normal(0.0, 1.0, (2, 3, 3))
    v = rng.normal(0.0, 1.0, (2, 3, 4))

    def loss() -> float:
        hs, _ = cell.forward(xs)
        return float(np.sum(hs * v))

    nets.zero_grads(cell.blocks)
    hs, cache = cell.forward(xs)
    cell.backward(cache, v)
    report = gradient_check(loss, cell.blocks, rng)
    return CheckResult("lstm_gradient", report.passed,
                       f"max relative error {report.max_rel_error:.3e}")


def _check_squashed_gaussian() -> CheckResult:
    rng = np.random.default_rng(10)
    h_max = 0.1
    mean = ParamBlock("check.mean", rng.normal(0.0, 0.5, 5))
    log_std = ParamBlock("check.log_std", rng.uniform(-1.5, 0.5, 5))
    eps = rng.normal(0.0, 1.0, 5)
    w_a = rng.normal(0.0, 1.0, 5)
    w_p = rng.normal(0.0, 1.0, 5)

    def loss() -> float:
        action, logp, _ = squashed_gaussian(mean.values, log_std.values, eps, h_max)
        return float(np.sum(w_a * action + w_p * logp))

    action, logp, cache = squashed_gaussian(mean.values, log_std.values, eps, h_max)
    da_dm, da_dls, dlp_dm, dlp_dls = squashed_gaussian_grads(cache, h_max)
    mean.grad = w_a * da_dm + w_p * dlp_dm
    log_std.grad = w_a * da_dls + w_p * dlp_dls
    report = gradient_check(loss, [mean, log_std], rng)
    if not report.passed:
        return CheckResult("squashed_gaussian_gradient", False,
                           f"max relative error {report.max_rel_error:.3e}")

    # density normalization: exp(log density) integrates to 1 over the support
    grid = np.linspace(-h_max + 1e-6, h_max - 1e-6, 20001)
    for m, ls in ((0.0, -1.0), (0.5, 0.0), (-1.0, -2.0)):
        dens = np.exp(squashed_gaussian_log_density(grid, m, ls, h_max))
        total = float(np.trapezoid(dens, grid))
        if abs(total - 1.0) > 1e-3:
            return CheckResult("squashed_gaussian_gradient", False,
                               f"density integrates to {total:.5f} at mean={m}, log_std={ls}")
    return CheckResult("squashed_gaussian_gradient", True,
                       f"max relative error {report.max_rel_error:.3e}; density normalized")


def _tiny_agent(dtype=np.float64) -> tuple:
    data = synthesize_market("random_walk", 60, {"vol": 2e-3, "half_spread": 0.05}, seed=3)
    env_cfg = EnvConfig(h_max=1.0, lookback=2, unit=0.05, commission=0.001,
                        initial_balance=1000.0)
    env = TradingEnv(data, range(0, 60), env_cfg)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=2, gamma=0.95, alpha_ent=0.05)
    cfg = AgentConfig(trace=spec, batch=4, warmup=8, buffer_capacity=500,
                      lstm_hidden=5, head_hidden=6, episodes=1, seed=21)
    agent = TraceSacAgent(cfg, env_cfg, data.n_features, dtype=dtype)
    obs = env.reset()
    done = False
    while not done:
        action, logp = agent.act(obs, stochastic=True)
        result = env.step(action)
        agent.buffer.push(Transition(obs, action, result.reward, result.observation, logp, result.done))
        obs = result.observation
        done = result.done
    segments = agent.buffer.sample_segments(cfg.batch, spec.n, agent.rng_sampler)
    return agent, segments


def _check_critic_gradient() -> CheckResult:
    agent, segments = _tiny_agent()
    targets = agent.segment_targets(segments, np.random.default_rng(11))
    blocks = agent.critic_1.blocks + agent.critic_2.blocks
    nets.zero_grads(blocks)
    agent.critic_loss_backward(segments, targets)
    report = gradient_check(
        lambda: agent.critic_loss_value(segments, targets), blocks, np.random.default_rng(12)
    )
    return CheckResult("critic_loss_gradient", report.passed,
                       f"max relative error {report.max_rel_error:.3e}")


def _check_actor_gradient() -> CheckResult:
    agent, segments = _tiny_agent()
    eps = np.random.default_rng(13).standard_normal(len(segments))
    nets.zero_grads(agent.actor.blocks)
    agent.actor_loss_backward(segments, eps)
    report = gradient_check(
        lambda: agent.actor_loss_value(segments, eps), agent.actor.blocks,
        np.random.default_rng(14)
    )
    return CheckResult("actor_loss_gradient", report.passed,
                       f"max relative error {report.max_rel_error:.3e}")


def _check_env_accounting() -> CheckResult:
    rng = np.random.default_rng(15)
    data = synthesize_market("random_walk", 50, {"vol": 2e-3, "half_spread": 0.02}, seed=4)
    cfg = EnvConfig(h_max=1.0, lookback=1, unit=0.1, commission=0.002, initial_balance=500.0)
    worst = 0.0
    for _ in range(10):
        env = TradingEnv(data, range(0, 50), cfg)
        record = run_episode(env, lambda obs: float(rng.uniform(-1.0, 1.0)))
        total = sum(record.rewards)
        direct = math.log(env.state.wealth / cfg.initial_balance)
        worst = max(worst, abs(total - direct))
    if worst > 1e-9:
        return CheckResult("env_accounting", False, f"telescoping residual {worst:.3e}")

    env = TradingEnv(data, range(0, 50), cfg)
    record = run_episode(env, lambda obs: 0.0)
    if any(r != 0.0 for r in record.rewards):
        return CheckResult("env_accounting", False, "zero-exposure episode produced nonzero reward")

    flat = synthesize_market("flat", 10, {"base": 100.0}, seed=0)
    env = TradingEnv(flat, range(0, 10), EnvConfig(h_max=1.0, lookback=1, unit=1.0,
                                                   commission=0.0, initial_balance=1000.0))
    actions = iter([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    record = run_episode(env, lambda obs: next(actions))
    round_trip = abs(cumulative_log_return(record.rewards))
    ok = round_trip < 1e-12
    detail = f"telescoping {worst:.3e}; round-trip residual {round_trip:.3e}"
    return CheckResult("env_accounting", ok, detail)


def verify_all(inject_fault: str | None = None) -> list:
    """Run every named self-check; returns CheckResults in execution order."""
    if inject_fault is not None:
        valid = {"lstm-backward"}
        if inject_fault not in valid:
            raise ConfigError(f"config: unknown fault {inject_fault!r}; valid: {sorted(valid)}")
        nets.inject_fault(inject_fault)
    try:
        return [
            _check_trace_table(),
            _check_single_step_reduction(),
            _check_tabular_convergence(),
            _check_dense_gradient(),
            _check_lstm_gradient(),
            _check_squashed_gaussian(),
            _check_critic_gradient(),
            _check_actor_gradient(),
            _check_env_accounting(),
        ]
    finally:
        nets.clear_faults()
