"""saclab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sinusoid_train --seed 0 --seconds 20 --trace 0

Generates the workload's market CSV from the seed, then runs rounds of
`harness.run_training`, `harness.evaluate_checkpoint` on the workload's
splits, `harness.aggregate_report` and `harness.write_report_csv` until
`--seconds` have passed since the first environment step; every round is
the same config. After each round, outside the timed phase, the outputs are
checked (see checks.py). With `--trace 1`, rounds alternate untraced and
traced, and the result holds the per-layer metrics of the traced rounds.
The last line printed is the result as one JSON object. See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS/OpenMP thread: the GEMMs are tiny, and extra threads on a shared
# 2-core machine make the timings depend on the machine's load.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before NumPy is imported anywhere in this process

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SAMPLE_BATCHES = 4
CHECK_SEED = 20220612

# (stat name, statistic) of each per-layer metric; the metric is named
# "<stat name>.<statistic>".
PER_LAYER = [
    ("nets.LSTM.forward.batch", "us_per_call"),
    ("nets.LSTM.backward", "us_per_call"),
    ("nets.Dense.forward", "us_per_call"),
    ("nets.Dense.backward", "us_per_call"),
    ("nets.adam_step", "us_per_call"),
    ("nets.LSTM.forward.b1", "us_per_call"),
    ("agent.act", "us_per_call"),
    ("agent.features", "us_per_call"),
    ("env.step", "us_per_call"),
    ("agent.segment_targets", "self_us_per_call"),
    ("traces.retrace_target", "us_per_call"),
    ("traces.trace_coefficient_from_log", "us_per_call"),
    ("replay.sample_segments", "us_per_call"),
    ("agent.segment_targets", "us_per_call"),
    ("agent.critic_update", "self_us_per_call"),
    ("agent.actor_update", "us_per_call"),
    ("agent.target_update", "us_per_call"),
    ("replay.push", "us_per_call"),
    ("data.ingest_csv", "s"),
    ("data.standardize", "s"),
    ("harness.load_dataset", "calls"),
    ("harness.run_training", "s"),
    ("harness.evaluate_checkpoint", "s"),
    ("harness.aggregate_report", "s"),
    ("nets.save_checkpoint", "us_per_call"),
    ("nets.load_checkpoint", "us_per_call"),
    ("nets.LSTM.forward", "calls"),
    ("traces.retrace_target", "calls"),
    ("nets.adam_step", "calls"),
]
UNITS = {"us_per_call": "us", "self_us_per_call": "us", "s": "s", "calls": "count"}


@dataclass
class Round:
    traced: bool
    out: Path
    wall_s: float          # first env.step of the round to results.csv written
    env_steps: int
    updates: int
    train_s: float         # time inside TraceSacAgent.train
    trainings: list
    rollouts: list
    evals: list            # (env_id, kind, seed, split, return_pct, trace csv)
    traced_critic_updates: int = 0
    traced_env_steps: int = 0


class CheckLog:
    def __init__(self):
        self.passed = Counter()
        self.failures = []
        self.controls = Counter()
        self.control_misses = []

    def add(self, name: str, error) -> None:
        if error:
            self.failures.append(f"{name}: {error}")
        else:
            self.passed[name] += 1

    def control(self, name: str, error) -> None:
        """A negative control: `error` came from a check fed a perturbed input."""
        if error:
            self.controls[name] += 1
        else:
            self.control_misses.append(name)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.control_misses


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(wl, seed, doc, out: Path, probe, tracer) -> Round:
    from saclab import harness
    from saclab.config import parse_run_config

    probe.start_round()
    cfg = parse_run_config(dict(doc, out_dir=str(out)))
    traced_before = (tracer.calls("agent.critic_update"), tracer.calls("env.step")) if tracer else None
    if tracer:
        tracer.install()
    try:
        run_dir = harness.run_training(cfg)
        evals = []
        for env_id, kind, agent_seed in wl.runs(seed):
            for split in wl.eval_splits:
                trace_csv = run_dir / f"episode_env{env_id}_{kind}_seed{agent_seed}_{split}.csv"
                ret = harness.evaluate_checkpoint(cfg, run_dir, env_id, kind, agent_seed, split,
                                                  trace_out=trace_csv)
                evals.append((env_id, kind, agent_seed, split, ret, trace_csv))
        report = harness.aggregate_report(run_dir)
        harness.write_report_csv(report, run_dir / "results.csv")
        end = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    rd = Round(
        traced=tracer is not None, out=run_dir, wall_s=end - probe.first_step,
        env_steps=probe.steps,
        updates=sum(t.agent.update_count for t in probe.trainings),
        train_s=sum(t.seconds for t in probe.trainings),
        trainings=probe.trainings, rollouts=probe.rollouts, evals=evals,
    )
    if tracer:
        rd.traced_critic_updates = tracer.calls("agent.critic_update") - traced_before[0]
        rd.traced_env_steps = tracer.calls("env.step") - traced_before[1]
    return rd


def output_files(run_dir: Path) -> dict:
    names = sorted(p.name for p in run_dir.glob("metrics_*.csv")) + ["results.csv"]
    return {name: (run_dir / name).read_bytes() for name in names}


def check_round(rd: Round, wl, seed: int, mids, first_files: dict, log: CheckLog,
                controls: bool) -> None:
    import numpy as np

    import checks
    from saclab.agent import TraceSacAgent
    from saclab.replay import Segment

    log.add("telescoping", checks.telescoping(rd.rollouts))
    if controls:
        total, wealth, initial = rd.rollouts[0]
        log.control("telescoping", checks.telescoping([(total, wealth * (1.0 + 1e-6), initial)]))

    manifest = json.loads((rd.out / "manifest.json").read_text(encoding="utf-8"))
    results_csv = (rd.out / "results.csv").read_text(encoding="utf-8")
    runs = {(r["env_id"], r["trace_kind"], r["seed"]): r for r in manifest["runs"]}
    rng = np.random.default_rng([CHECK_SEED, seed])
    for tr in rd.trainings:
        agent, cfg = tr.agent, tr.agent.config
        kind, n = cfg.trace.kind.value, cfg.trace.n
        buf = agent.buffer
        log.add("push_count", checks.equal_counts("collection steps", tr.collection_steps, buf.push_count))
        if controls:
            log.control("push_count", checks.equal_counts("collection steps", tr.collection_steps + 1,
                                                          buf.push_count))

        newest = buf.segment_at(len(buf) - 1, 0).transitions[0]
        batches = [buf.sample_segments(cfg.batch, n, rng) for _ in range(SAMPLE_BATCHES)]
        segs = [s for b in batches for s in b]
        log.add("segments", checks.segments(segs, n, newest))
        if controls:
            seg = next(s for s in segs if len(s) > 1 and not s.transitions[-1].done)
            log.control("segments", checks.segments([Segment(seg.transitions[::-1])], n, newest))

        if kind in checks.REFERENCE_KINDS:
            gen = np.random.default_rng([CHECK_SEED, seed, 1])
            twin = copy.deepcopy(gen)
            got = agent.segment_targets(batches[0], gen)
            want = checks.reference_targets(agent, batches[0], twin)
            log.add("targets", checks.targets(got, want))
            if controls:
                bad = got.copy()
                bad[0] += 1e-3 * (1.0 + abs(bad[0]))
                log.control("targets", checks.targets(bad, want))

        run = runs[(tr.env_id, kind, cfg.seed)]
        restored = TraceSacAgent(cfg, agent.env_config, tr.train_env.data.n_features)
        restored.restore_checkpoint(rd.out / run["checkpoint"])
        obs = [s.transitions[0].obs for s in batches[0]]
        live = [agent.act(o, stochastic=False) for o in obs]
        back = [restored.act(o, stochastic=False) for o in obs]
        last_val = tr.metrics.rows[-1].val_return_pct
        evaluated = [(e[4], last_val) for e in rd.evals
                     if e[:3] == (tr.env_id, kind, cfg.seed) and e[3] == "validation"
                     and last_val is not None]
        log.add("checkpoint", checks.checkpoint(live, back, agent.update_count,
                                                restored.update_count, evaluated))
        if controls:
            restored.actor.out.b.values += 1e-3
            moved = [restored.act(o, stochastic=False) for o in obs]
            log.control("checkpoint", checks.checkpoint(live, moved, agent.update_count,
                                                        restored.update_count))

    log.add("report", checks.report(manifest, results_csv))
    log.add("market", checks.market(manifest, mids, wl.splits()))
    files = output_files(rd.out)
    if first_files:
        log.add("rerun", checks.same_bytes(files, first_files))
    if controls:
        bent = json.loads(json.dumps(manifest))
        bent["runs"][0]["final_val_return_pct"] += 1e-6
        log.control("report", checks.report(bent, results_csv))
        shifted = mids.copy()
        shifted[wl.splits()[0][1].start] *= 1.0 + 1e-6
        log.control("market", checks.market(manifest, shifted, wl.splits()))
        name = next(iter(files))
        log.control("rerun", checks.same_bytes({name: files[name] + b"\n"}, files))

    if rd.traced:
        updates = sum(t.agent.update_count for t in rd.trainings)
        eval_steps = sum(len(e[5].read_text(encoding="utf-8").splitlines()) - 1 for e in rd.evals)
        expected_steps = (sum(t.agent.buffer.push_count for t in rd.trainings)
                          + sum(t.validation_steps for t in rd.trainings) + eval_steps)
        log.add("traced_critic_updates",
                checks.equal_counts("agent.critic_update", rd.traced_critic_updates, updates))
        log.add("traced_env_steps", checks.equal_counts("env.step", rd.traced_env_steps, expected_steps))
        if controls:
            log.control("traced_critic_updates",
                        checks.equal_counts("agent.critic_update", rd.traced_critic_updates, updates + 1))
            log.control("traced_env_steps",
                        checks.equal_counts("env.step", rd.traced_env_steps, expected_steps + 1))


def per_layer_metrics(tracer, traced: list, untraced: list) -> dict:
    n_rounds = len(traced)
    out = {}
    for stat, statistic in PER_LAYER:
        if statistic == "us_per_call":
            value = 1e6 * tracer.per_call(stat, 1)
        elif statistic == "self_us_per_call":
            value = 1e6 * tracer.per_call(stat, 2)
        elif statistic == "s":
            value = tracer.per_call(stat, 1)
        else:
            value = tracer.calls(stat) / n_rounds
        out[f"{stat}.{statistic}"] = {"value": value, "unit": UNITS[statistic]}
    # Round-to-round machine noise is larger than the tracing cost, so the
    # metric is the counted traced calls times the measured cost of one
    # wrapper, as a share of the untraced part of a traced round; the raw
    # ratio of traced to untraced round walls is printed alongside.
    traced_wall = statistics.median(r.wall_s for r in traced)
    cost = sum(v[0] for v in tracer.stats.values()) * tracer.call_cost() / n_rounds
    out["trace.overhead_pct"] = {"value": 100.0 * cost / (traced_wall - cost), "unit": "%"}
    ratio = traced_wall / statistics.median(r.wall_s for r in untraced)
    print(f"traced/untraced median round wall: {100.0 * (ratio - 1.0):+.1f}% "
          f"({len(traced)} traced, {len(untraced)} untraced rounds)")
    return out


def end_to_end_metrics(rounds: list, setup_s: float) -> dict:
    # Every round does the same work, and other load on the machine only ever
    # adds time, so the best round is the one it disturbed least. On the
    # shared 2-core machine the median round drifted by up to 22% between
    # runs; the best round by under 8% (README.md, Noise).
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": min(r.wall_s for r in rounds), "unit": "s"},
        "env_steps_per_s": {"value": max(r.env_steps / r.wall_s for r in rounds), "unit": "steps/s"},
        "updates_per_s": {"value": max(r.updates / r.train_s for r in rounds), "unit": "updates/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def bench(args, wl, run_dir: Path) -> int:
    t_input = time.perf_counter()
    csv_path = run_dir / "market.csv"
    mids = wl.write_csv(args.seed, csv_path)
    input_s = time.perf_counter() - t_input

    sys.path.insert(0, str(SRC))
    import numpy as np

    import saclab
    if Path(saclab.__file__).resolve().parent != (SRC / "saclab").resolve():
        print(f"perfbench: imported saclab from {saclab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing

    threads = " ".join(f"{k}={v}" for k, v in THREADS.items())
    print(f"perfbench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"perfbench: {threads} numpy={np.__version__} blas={blas_build(np)} "
          f"cpus={os.cpu_count()} loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    sys.stdout.flush()

    probe = tracing.Probe()
    probe.install()
    tracer = tracing.Tracer() if args.trace else None
    doc = wl.config(args.seed, str(csv_path), "")
    ops = wl.operations_per_round()
    log = CheckLog()
    rounds, attempted, failed = [], 0, 0
    first_files = None
    started = None
    try:
        while True:
            odd = len(rounds) % 2 == 1
            attempted += ops
            try:
                rd = run_round(wl, args.seed, doc, run_dir / f"round{attempted // ops}", probe,
                               tracer if odd else None)
            except Exception:  # one failed round must not hide the others' results
                traceback.print_exc()
                failed += ops
                rd = None
            if started is None:
                started = probe.first_step if probe.first_step is not None else time.perf_counter()
            if rd is not None:
                first_traced = rd.traced and not any(r.traced for r in rounds)
                check_round(rd, wl, args.seed, mids, first_files, log,
                            controls=first_files is None or first_traced)
                first_files = first_files or output_files(rd.out)
                rd.trainings = rd.rollouts = None  # release the captured agents
                rounds.append(rd)
                print(f"round {len(rounds)}{' traced' if rd.traced else ''}: wall {rd.wall_s:.3f} s, "
                      f"{rd.env_steps} env steps, {rd.updates} updates, "
                      f"{rd.train_s:.3f} s in training calls")
                sys.stdout.flush()
                shutil.rmtree(rd.out, ignore_errors=True)
            elapsed = time.perf_counter() - started
            enough = len(rounds) >= 2 if tracer else len(rounds) >= 1
            if elapsed >= args.seconds and (enough or failed >= attempted):
                break
    finally:
        probe.uninstall()

    for failure in log.failures:
        print(f"CHECK FAILED {failure}")
    for name in log.control_misses:
        print(f"NEGATIVE CONTROL MISSED {name}: the check passed on a perturbed input")
    print("checks passed: " + ", ".join(f"{k} x{v}" for k, v in sorted(log.passed.items())))
    print("negative controls failed as intended: "
          + ", ".join(f"{k} x{v}" for k, v in sorted(log.controls.items())))

    metrics = {}
    if rounds:
        untraced = [r for r in rounds if not r.traced]
        if tracer:
            traced = [r for r in rounds if r.traced]
            warm = untraced[1:] or untraced
            metrics = per_layer_metrics(tracer, traced, warm)
        else:
            metrics = end_to_end_metrics(rounds, started - T0 - input_s)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: attempted {attempted}, failed {failed}; "
          f"loadavg at end {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    result = {"correct": log.correct and bool(rounds), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "saclab" / "__init__.py").is_file():
        print(f"perfbench: no saclab sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return bench(args, wl, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
