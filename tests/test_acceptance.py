"""Release gate: one test per advertised guarantee, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines as they
complete.  Criteria 6 and 8 share a 5-seed training workload (roughly ten
minutes total); everything else finishes in well under a minute.
"""
from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from saclab import harness
from saclab.agent import AgentConfig, train_agent
from saclab.cli import main
from saclab.data import separate_environments, synthesize_market
from saclab.env import EnvConfig, TradingEnv
from saclab.traces import TraceKind, TraceSpec

from helpers import random_policy_return

def _line(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")


# -- 1: tabular multi-step convergence ---------------------------------------------------


def test_criterion_1_tabular_convergence():
    t0 = time.perf_counter()
    result = harness._check_tabular_convergence(mdps=20, seed=11)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 5.0
    _line(1, "tabular convergence", ok, f"{result.detail} in {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 5.0


# -- 2: lambda = 0 collapses to the single-step soft backup ------------------------------


def test_criterion_2_single_step_reduction():
    t0 = time.perf_counter()
    result = harness._check_single_step_reduction(segments=1000, seed=22)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 1.0
    _line(2, "single-step reduction", ok, f"{result.detail} in {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 1.0


# -- 3: coefficient table and conservativeness -------------------------------------------


def test_criterion_3_trace_coefficient_table():
    t0 = time.perf_counter()
    result = harness._check_trace_table(pairs=10_000, seed=33)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 1.0
    _line(3, "trace coefficient table", ok, f"{result.detail}, {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 1.0


# -- 4: analytic gradients against central finite differences ----------------------------


def test_criterion_4_gradient_fidelity():
    t0 = time.perf_counter()
    results = [
        harness._check_dense_gradient(),
        harness._check_lstm_gradient(),
        harness._check_squashed_gaussian(),
        harness._check_critic_gradient(),
        harness._check_actor_gradient(),
    ]
    elapsed = time.perf_counter() - t0
    errors = [float(m.group()) for r in results
              for m in [re.search(r"\d\.\d+e[+-]\d+", r.detail)] if m]
    worst = max(errors) if errors else float("nan")
    all_passed = all(r.passed for r in results)
    ok = all_passed and elapsed < 30.0
    _line(4, "gradient fidelity", ok,
          f"{sum(r.passed for r in results)}/5 checks passed, "
          f"worst relative error {worst:.3e} in {elapsed:.2f}s")
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert elapsed < 30.0


# -- 5: environment accounting ------------------------------------------------------------


def test_criterion_5_environment_accounting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)

    # (a) rewards telescope to log(wealth_T / wealth_0) under random actions and fees
    worst = 0.0
    for ep in range(100):
        data = synthesize_market("random_walk", 40, {"vol": 5e-3, "half_spread": 0.02},
                                 seed=100 + ep)
        cfg = EnvConfig(h_max=1.0, lookback=2, unit=0.05, commission=0.0015,
                        initial_balance=1000.0)
        env = TradingEnv(data, range(0, 40), cfg)
        env.reset()
        total = 0.0
        done = False
        while not done:
            res = env.step(float(rng.uniform(-1.0, 1.0)))
            total += res.reward
            done = res.done
        worst = max(worst, abs(total - np.log(env.state.wealth / cfg.initial_balance)))

    # (b) staying flat earns exactly zero
    data = synthesize_market("random_walk", 30, {"vol": 5e-3, "half_spread": 0.02}, seed=9)
    env = TradingEnv(data, range(0, 30), EnvConfig(h_max=1.0, lookback=2, unit=0.05,
                                                   commission=0.002, initial_balance=1000.0))
    env.reset()
    flat_total = 0.0
    done = False
    while not done:
        res = env.step(0.0)
        flat_total += res.reward
        done = res.done
    flat_exact = flat_total == 0.0

    # (c) frictionless round trip returns wealth to the starting balance
    data = synthesize_market("flat", 10, {"base": 20.0})
    env = TradingEnv(data, range(0, 10), EnvConfig(h_max=1.0, lookback=1, unit=0.1,
                                                   commission=0.0, initial_balance=500.0))
    env.reset()
    env.step(0.7)
    env.step(-0.7)
    round_trip = abs(env.state.wealth - 500.0)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and flat_exact and round_trip < 1e-12 and elapsed < 5.0
    _line(5, "environment accounting", ok,
          f"telescoping {worst:.3e} over 100 episodes, flat reward exact={flat_exact}, "
          f"round-trip residual {round_trip:.3e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert flat_exact
    assert round_trip < 1e-12
    assert elapsed < 5.0


# -- 6 and 8: sinusoid learning workload --------------------------------------------------

WORKLOAD_SEEDS = (0, 1, 2, 3, 4)


def _workload_envs() -> tuple:
    # period 120 minutes, amplitude 1% of base, zero spread, zero commission
    data = synthesize_market("sinusoid", 480,
                             {"base": 100.0, "amplitude": 1.0, "period": 120.0}, seed=7)
    env_cfg = EnvConfig(h_max=1.0, lookback=3, unit=0.01, commission=0.0,
                        initial_balance=100.0)
    return TradingEnv(data, range(0, 360), env_cfg), TradingEnv(data, range(360, 480), env_cfg)


def _workload_agent_config(seed: int) -> AgentConfig:
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.9, n=3, gamma=0.97, alpha_ent=1e-4)
    return AgentConfig(trace=spec, lr_actor=3e-4, lr_critic=1e-3, tau=0.01, batch=24,
                       grad_steps_per_env_step=1, policy_delay=2, episodes=30,
                       validate_every=5, seed=seed, lstm_hidden=32, head_hidden=32,
                       buffer_capacity=20000, warmup=500)


def _run_workload(out_dir: Path) -> tuple:
    finals, baselines = [], []
    t0 = time.perf_counter()
    for seed in WORKLOAD_SEEDS:
        train_env, val_env = _workload_envs()
        _, metrics = train_agent(train_env, val_env, _workload_agent_config(seed))
        metrics.to_csv(out_dir / f"metrics_seed{seed}.csv")
        finals.append(metrics.final_validation_return())
        baselines.append(random_policy_return(val_env, seed=seed + 1000, episodes=5))
    return finals, baselines, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sinusoid_workload(tmp_path_factory):
    out = tmp_path_factory.mktemp("sinusoid_run")
    finals, baselines, elapsed = _run_workload(out)
    return out, finals, baselines, elapsed


def test_criterion_6_learning_smoke(sinusoid_workload):
    _, finals, baselines, elapsed = sinusoid_workload
    mean_final = float(np.mean(finals))
    mean_base = float(np.mean(baselines))
    ok = mean_final > 0.0 and mean_final > mean_base and elapsed < 900.0
    _line(6, "learning smoke", ok,
          f"5 seeds x 30 episodes, mean deterministic validation return {mean_final:+.4f}% "
          f"vs random baseline {mean_base:+.4f}%, {elapsed:.0f}s")
    assert mean_final > 0.0
    assert mean_final > mean_base
    assert elapsed < 900.0


# -- 7: training and reporting protocol ---------------------------------------------------


def _protocol_config(out_dir: str) -> dict:
    # 4 envs x (3 train + 1 validation + 1 test days) x 120 minutes = 2400 bars
    return {
        "data": {
            "source": "synth",
            "n_envs": 4,
            "train_days": 3,
            "minutes_per_day": 120,
            "synth": {
                "kind": "sinusoid",
                "length": 2400,
                "seed": 7,
                "params": {"base": 100.0, "amplitude": 1.0, "period": 120.0},
            },
        },
        "env": {"h_max": 1.0, "lookback": 3, "unit": 0.01, "commission": 0.0,
                "initial_balance": 100.0},
        "agents": [
            {
                "trace": {"kind": "retrace", "lam": 0.9, "n": 2, "gamma": 0.97,
                          "alpha_ent": 1e-4},
                "batch": 8,
                "warmup": 300,
                "buffer_capacity": 5000,
                "lstm_hidden": 16,
                "head_hidden": 16,
                "episodes": 5,
                "validate_every": 5,
                "grad_steps_per_env_step": 1,
            }
        ],
        "seeds": [0],
        "out_dir": out_dir,
    }


def test_criterion_7_protocol_fidelity(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "protocol_run"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_protocol_config(str(out))), encoding="utf-8")

    assert main(["train", "--config", str(cfg_path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    runs = manifest["runs"]
    run_count_ok = len(runs) == 4 and sorted(r["env_id"] for r in runs) == [0, 1, 2, 3]

    # split geometry: 3/1/1 days per environment on the shared minute grid
    data = synthesize_market("sinusoid", 2400,
                             {"base": 100.0, "amplitude": 1.0, "period": 120.0}, seed=7)
    splits = separate_environments(data, n_envs=4, days_per_env=5, train_days=3,
                                   minutes_per_day=120)
    splits_ok = all(
        len(s.train) == 360 and len(s.validation) == 120 and len(s.test) == 120
        and s.train.start == e * 600 and s.test.stop == (e + 1) * 600
        for e, s in enumerate(splits)
    )

    # every run validates exactly at episode 5; training episodes span the whole
    # 360-bar train day block unless the wealth floor ends one early
    val_episodes_ok = True
    for r in runs:
        lines = (out / r["metrics"]).read_text(encoding="utf-8").strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        val_episodes = [int(row[0]) for row in rows if row[5] != ""]
        val_episodes_ok = val_episodes_ok and val_episodes == [5]
        val_episodes_ok = val_episodes_ok and all(1 <= int(row[1]) <= 359 for row in rows)

    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    report_text = capsys.readouterr().out
    report_ok = ("±" in report_text
                 and any(line.startswith("market") for line in report_text.splitlines())
                 and (out / "results.csv").exists())

    elapsed = time.perf_counter() - t0
    ok = run_count_ok and splits_ok and val_episodes_ok and report_ok and elapsed < 120.0
    _line(7, "protocol fidelity", ok,
          f"4 runs={run_count_ok}, 3/1/1-day splits={splits_ok}, "
          f"validation every 5 episodes={val_episodes_ok}, report={report_ok}, {elapsed:.0f}s")
    assert run_count_ok
    assert splits_ok
    assert val_episodes_ok
    assert report_ok
    assert elapsed < 120.0


# -- 8: bit-identical reruns ---------------------------------------------------------------


def test_criterion_8_determinism(sinusoid_workload, tmp_path):
    first_dir, _, _, _ = sinusoid_workload
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    _run_workload(rerun)
    same = [
        (first_dir / f"metrics_seed{s}.csv").read_bytes()
        == (rerun / f"metrics_seed{s}.csv").read_bytes()
        for s in WORKLOAD_SEEDS
    ]
    ok = all(same)
    _line(8, "determinism", ok,
          f"{sum(same)}/{len(same)} metrics CSVs byte-identical across reruns")
    assert ok
