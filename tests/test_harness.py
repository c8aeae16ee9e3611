"""Config parsing, CLI subcommands, run orchestration, reporting, self-checks."""
from __future__ import annotations

import copy
import json
import math

import pytest

from saclab.cli import main
from saclab.config import ConfigError, load_run_config, parse_run_config
from saclab.data import synthesize_market
from saclab.harness import (
    ResultRow,
    aggregate_report,
    evaluate_checkpoint,
    market_return_pct,
    verify_all,
    write_report_csv,
)

MINI_SYNTH = {
    "kind": "sinusoid",
    "length": 120,
    "seed": 7,
    "params": {"base": 100.0, "amplitude": 1.0, "period": 24.0},
}


def mini_config_doc(out_dir: str, seeds=(0, 1)) -> dict:
    # 2 envs x (1 train + 1 val + 1 test day) x 20 minutes = 120 bars
    return {
        "data": {
            "source": "synth",
            "n_envs": 2,
            "train_days": 1,
            "minutes_per_day": 20,
            "synth": copy.deepcopy(MINI_SYNTH),
        },
        "env": {
            "h_max": 1.0,
            "lookback": 2,
            "unit": 0.1,
            "commission": 0.0,
            "initial_balance": 100.0,
        },
        "agents": [
            {
                "trace": {"kind": "retrace", "lam": 0.9, "n": 2, "gamma": 0.95, "alpha_ent": 0.01},
                "batch": 4,
                "warmup": 10,
                "buffer_capacity": 300,
                "lstm_hidden": 4,
                "head_hidden": 4,
                "episodes": 2,
                "validate_every": 2,
                "grad_steps_per_env_step": 1,
            }
        ],
        "seeds": list(seeds),
        "out_dir": out_dir,
    }


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("mini_run")
    out = base / "out"
    cfg_path = write_config(base, mini_config_doc(str(out)))
    assert main(["train", "--config", cfg_path]) == 0
    return cfg_path, out


def test_config_round_trip_and_defaults(tmp_path):
    cfg = load_run_config(write_config(tmp_path, mini_config_doc(str(tmp_path / "o"))))
    assert cfg.data.source == "synth"
    assert cfg.data.synth.kind == "sinusoid"
    assert cfg.data.n_envs == 2
    assert cfg.env.h_max == 1.0
    assert cfg.env.lookback == 2
    assert len(cfg.agents) == 1
    assert cfg.agents[0].trace.lam == 0.9
    assert cfg.agents[0].trace.n == 2
    assert cfg.agents[0].lr_actor == 3e-4  # default filled in
    assert cfg.seeds == (0, 1)


def test_config_error_messages_carry_field_paths(tmp_path):
    def load(mutate):
        doc = mini_config_doc(str(tmp_path / "o"))
        mutate(doc)
        return load_run_config(write_config(tmp_path, doc))

    with pytest.raises(ConfigError, match=r"config\.bogus: unknown key"):
        load(lambda d: d.update(bogus=1))
    with pytest.raises(ConfigError, match=r"config\.agents\[0\]\.trace\.kind"):
        load(lambda d: d["agents"][0]["trace"].update(kind="qlambda"))
    with pytest.raises(ConfigError, match=r"config\.agents\[0\]\.seed"):
        load(lambda d: d["agents"][0].update(seed=3))
    with pytest.raises(ConfigError, match=r"config\.data\.synth"):
        load(lambda d: d["data"]["synth"]["params"].update(vol=0.1))
    with pytest.raises(ConfigError, match=r"config\.data\.minutes_per_day: expected an integer"):
        load(lambda d: d["data"].update(minutes_per_day=7.5))
    with pytest.raises(ConfigError, match=r"config\.env\.h_max: expected a number"):
        load(lambda d: d["env"].update(h_max=True))
    with pytest.raises(ConfigError, match="distinct"):
        load(lambda d: d.update(agents=[d["agents"][0], d["agents"][0]]))
    with pytest.raises(ConfigError, match=r"config\.seeds"):
        load(lambda d: d.update(seeds=[1, 1]))
    with pytest.raises(ConfigError, match=r"config\.seeds"):
        load(lambda d: d.update(seeds=[]))
    with pytest.raises(ConfigError, match=r"config\.data\.path: not allowed"):
        load(lambda d: d["data"].update(path="x.csv"))
    with pytest.raises(ConfigError, match=r"config\.out_dir: missing"):
        load(lambda d: d.pop("out_dir"))
    with pytest.raises(ConfigError, match="file not found"):
        load_run_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(bad)
    with pytest.raises(ConfigError, match="top level"):
        parse_run_config_list = load_run_config  # same loader
        bad.write_text("[1, 2]")
        parse_run_config_list(bad)


def test_config_rejects_out_of_range_values(tmp_path):
    def load(mutate):
        doc = mini_config_doc(str(tmp_path / "o"))
        mutate(doc)
        return load_run_config(write_config(tmp_path, doc))

    with pytest.raises(ConfigError, match=r"config\.agents\[0\]: .*tau"):
        load(lambda d: d["agents"][0].update(tau=2.0))
    with pytest.raises(ConfigError, match=r"config\.agents\[0\]\.trace: .*lam"):
        load(lambda d: d["agents"][0]["trace"].update(lam=1.5))
    with pytest.raises(ConfigError, match=r"config\.env: .*unit"):
        load(lambda d: d["env"].update(unit=5.0))


def test_cli_train_writes_all_outputs(trained_run):
    _, out = trained_run
    metrics = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert metrics == [
        "metrics_env0_retrace_seed0.csv",
        "metrics_env0_retrace_seed1.csv",
        "metrics_env1_retrace_seed0.csv",
        "metrics_env1_retrace_seed1.csv",
    ]
    checkpoints = sorted(p.name for p in out.glob("checkpoint_*.npz"))
    assert len(checkpoints) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_bars"] == 120
    assert manifest["n_features"] == 8
    assert set(manifest["market_val_return_pct"]) == {"0", "1"}
    assert len(manifest["runs"]) == 4
    for run in manifest["runs"]:
        assert math.isfinite(run["final_val_return_pct"])
    # per-file content: 2 episode rows, validation only on episode 2
    lines = (out / "metrics_env0_retrace_seed0.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    row1 = dict(zip(header, lines[1].split(",")))
    row2 = dict(zip(header, lines[2].split(",")))
    assert (row1["episode"], row1["val_return_pct"]) == ("1", "")
    assert row2["episode"] == "2" and row2["val_return_pct"] != ""
    assert row1["steps"] == "19"
    assert row1["trace_kind"] == "retrace"


def test_cli_train_is_rerun_identical(trained_run, tmp_path):
    cfg_path, out = trained_run
    out2 = tmp_path / "rerun"
    assert main(["train", "--config", cfg_path, "--out", str(out2)]) == 0
    for p in sorted(out.glob("metrics_*.csv")):
        assert (out2 / p.name).read_bytes() == p.read_bytes()


def test_cli_train_seed_override(trained_run, tmp_path):
    cfg_path, _ = trained_run
    out = tmp_path / "single_seed"
    assert main(["train", "--config", cfg_path, "--out", str(out), "--seed", "5"]) == 0
    metrics = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert metrics == ["metrics_env0_retrace_seed5.csv", "metrics_env1_retrace_seed5.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [5]


def test_cli_train_missing_csv_leaves_no_outputs(tmp_path, capsys):
    out = tmp_path / "never_created"
    doc = mini_config_doc(str(out))
    doc["data"] = {"source": "csv", "path": str(tmp_path / "absent.csv"),
                   "n_envs": 2, "train_days": 1, "minutes_per_day": 20}
    code = main(["train", "--config", write_config(tmp_path, doc)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_length_mismatch_leaves_no_outputs(tmp_path, capsys):
    out = tmp_path / "never_created"
    doc = mini_config_doc(str(out))
    doc["data"]["synth"]["length"] = 100  # != 2 * 3 * 20
    code = main(["train", "--config", write_config(tmp_path, doc)])
    assert code == 1
    assert "dataset length" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eval_matches_manifest_and_writes_trace(trained_run, tmp_path, capsys):
    cfg_path, out = trained_run
    manifest = json.loads((out / "manifest.json").read_text())
    run = next(r for r in manifest["runs"] if r["env_id"] == 0 and r["seed"] == 0)
    trace_path = tmp_path / "episode.csv"
    code = main([
        "eval", "--config", cfg_path, "--env-id", "0", "--kind", "retrace",
        "--seed", "0", "--split", "validation", "--trace", str(trace_path),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    # the restored policy reproduces the training-time validation number
    reported = float(stdout.split("return:")[1].split("%")[0])
    assert reported == pytest.approx(run["final_val_return_pct"], abs=5e-5)
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "t,action,executed,price,fee,balance,holdings,wealth,reward"
    assert len(lines) == 20  # 19 steps + header


def test_evaluate_checkpoint_reproduces_final_validation_return_exactly(trained_run):
    cfg_path, out = trained_run
    cfg = load_run_config(cfg_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 4
    for run in manifest["runs"]:
        got = evaluate_checkpoint(cfg, out, run["env_id"], run["trace_kind"], run["seed"], "validation")
        assert got == run["final_val_return_pct"]


def test_cli_eval_missing_checkpoint(trained_run, capsys):
    cfg_path, _ = trained_run
    code = main(["eval", "--config", cfg_path, "--env-id", "0", "--kind", "retrace",
                 "--seed", "77"])
    assert code == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_report_aggregates_mean_and_sample_std(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps(
        {"market_val_return_pct": {"0": 0.5, "1": -0.25}}
    ))
    header = "episode,steps,critic_loss,actor_loss,train_return_pct,val_return_pct,seed,env_id,trace_kind"

    def write_metrics(name, env_id, final_val):
        rows = [header, f"1,19,0.1,0.1,0.0,,0,{env_id},retrace",
                f"2,19,0.1,0.1,0.0,{final_val},0,{env_id},retrace"]
        (run_dir / name).write_text("\n".join(rows) + "\n")

    write_metrics("metrics_env0_retrace_seed0.csv", 0, 0.0)
    write_metrics("metrics_env0_retrace_seed1.csv", 0, 2.0)
    write_metrics("metrics_env1_retrace_seed0.csv", 1, 1.0)
    write_metrics("metrics_env1_retrace_seed1.csv", 1, 1.0)
    write_metrics("metrics_env1_retrace_seed2.csv", 1, 1.0)

    report = aggregate_report(run_dir)
    by_env = {r.env_id: r for r in report.rows}
    assert by_env[0].mean_return_pct == pytest.approx(1.0)
    assert by_env[0].std_return_pct == pytest.approx(math.sqrt(2.0), abs=1e-12)  # ddof=1
    assert by_env[0].n_seeds == 2
    assert by_env[1].mean_return_pct == pytest.approx(1.0)
    assert by_env[1].std_return_pct == 0.0
    assert by_env[1].n_seeds == 3
    assert "1.0000 ± 1.4142" in report.text
    assert "1.0000 ± 0.0000" in report.text
    assert "market" in report.text
    assert "0.5000" in report.text

    csv_path = run_dir / "results.csv"
    write_report_csv(report, csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "trace_kind,env_id,mean_return_pct,std_return_pct,n_seeds"
    assert "retrace,0,1.0,1.4142135623730951,2" in lines
    assert "market,0,0.5,," in lines


def test_report_single_seed_has_zero_std(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps({"market_val_return_pct": {"0": 0.1}}))
    header = "episode,steps,critic_loss,actor_loss,train_return_pct,val_return_pct,seed,env_id,trace_kind"
    (run_dir / "metrics_env0_is_seed0.csv").write_text(
        header + "\n1,19,0.1,0.1,0.0,3.5,0,0,is\n"
    )
    report = aggregate_report(run_dir)
    assert report.rows[0].std_return_pct == 0.0
    assert report.rows[0].n_seeds == 1
    assert report.rows[0].trace_kind == "is"


def test_report_cli_on_real_run(trained_run, capsys):
    _, out = trained_run
    assert main(["report", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "±" in stdout
    assert "market" in stdout
    assert (out / "results.csv").exists()


def test_report_requires_manifest(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert "manifest" in capsys.readouterr().err


def test_cli_synth_ingest_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "bars.csv"
    assert main(["synth", "--kind", "sinusoid", "--length", "30", "--out", str(out_csv),
                 "--param", "base=50", "--param", "period=10"]) == 0
    assert out_csv.exists()
    assert main(["ingest", "--data", str(out_csv)]) == 0
    stdout = capsys.readouterr().out
    assert "30 bars" in stdout
    assert "spanning 29 minutes" in stdout
    copy = tmp_path / "copy.csv"
    assert main(["ingest", "--data", str(out_csv), "--out", str(copy)]) == 0
    assert copy.read_bytes() == out_csv.read_bytes()


def test_cli_synth_and_ingest_errors(tmp_path, capsys):
    assert main(["synth", "--kind", "flat", "--length", "10",
                 "--out", str(tmp_path / "x.csv"), "--param", "vol=1"]) == 1
    assert "unknown params" in capsys.readouterr().err
    assert main(["synth", "--kind", "flat", "--length", "10",
                 "--out", str(tmp_path / "x.csv"), "--param", "base"]) == 1
    assert main(["ingest", "--data", str(tmp_path / "absent.csv")]) == 1


def test_market_return_pct_is_buy_and_hold_log_return():
    data = synthesize_market("sinusoid", 40, {"base": 100.0, "amplitude": 2.0, "period": 16.0})
    split = range(5, 25)
    expected = 100.0 * math.log(data.mid(24) / data.mid(5))
    assert market_return_pct(data, split) == pytest.approx(expected, abs=1e-12)


def test_verify_all_checks_pass():
    results = verify_all()
    assert len(results) == 9
    names = [r.name for r in results]
    assert names == [
        "trace_coefficient_table",
        "single_step_reduction",
        "tabular_retrace_convergence",
        "dense_gradient",
        "lstm_gradient",
        "squashed_gaussian_gradient",
        "critic_loss_gradient",
        "actor_loss_gradient",
        "env_accounting",
    ]
    for r in results:
        assert r.passed, (r.name, r.detail)


def test_verify_fault_injection_is_detected(capsys):
    results = verify_all(inject_fault="lstm-backward")
    failed = {r.name for r in results if not r.passed}
    assert "lstm_gradient" in failed
    # downstream losses run through the same backward pass
    assert "critic_loss_gradient" in failed or "actor_loss_gradient" in failed
    # the fault does not leak into later clean runs
    assert all(r.passed for r in verify_all())
    assert main(["verify", "--inject-fault", "lstm-backward"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] lstm_gradient" in out
    with pytest.raises(ConfigError, match="unknown fault"):
        verify_all(inject_fault="bogus")
    assert main(["verify", "--inject-fault", "bogus"]) == 1


def test_cli_verify_green(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "all 9 checks passed" in out


def test_result_row_validation():
    with pytest.raises(ValueError, match="n_seeds"):
        ResultRow("retrace", 0, 1.0, 0.5, 0)
    with pytest.raises(ValueError, match="std"):
        ResultRow("retrace", 0, 1.0, -0.5, 2)
