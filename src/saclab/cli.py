"""Command-line entry point.

Subcommands: ingest, synth, train, eval, report, verify.
Exit codes: 0 success, 1 configuration or input error, 2 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, load_run_config
from .data import IngestError, ingest_csv, synthesize_market, write_csv
from .harness import aggregate_report, evaluate_checkpoint, run_training, verify_all, write_report_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2


def _cmd_ingest(args) -> int:
    try:
        data = ingest_csv(args.data)
    except (IngestError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    span_min = int(data.timestamps[-1]) - int(data.timestamps[0])
    print(f"{args.data}: {len(data)} bars, {data.n_features} features, spanning {span_min} minutes")
    if args.out:
        write_csv(data, args.out)
        print(f"wrote validated copy to {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"error: --param expects key=value, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        key, value = item.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            print(f"error: --param {key}: {value!r} is not a number", file=sys.stderr)
            return EXIT_CONFIG
    try:
        data = synthesize_market(args.kind, args.length, params, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    write_csv(data, args.out)
    print(f"wrote {len(data)} bars ({data.n_features} features) to {args.out}")
    return EXIT_OK


def _load_config(args):
    cfg = load_run_config(args.config)
    if args.out is not None:
        raw = dict(cfg.raw)
        raw["out_dir"] = args.out
        cfg = replace(cfg, out_dir=args.out, raw=raw)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["seeds"] = [args.seed]
        cfg = replace(cfg, seeds=(args.seed,), raw=raw)
    return cfg


def _cmd_train(args) -> int:
    try:
        cfg = _load_config(args)
        out = run_training(cfg)
    except (ValueError, OSError) as e:  # ConfigError and IngestError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"run complete; outputs in {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        cfg = _load_config(args)
        run_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        ret = evaluate_checkpoint(
            cfg,
            run_dir,
            env_id=args.env_id,
            kind=args.kind,
            seed=args.seed if args.seed is not None else cfg.seeds[0],
            split_name=args.split,
            trace_out=Path(args.trace) if args.trace else None,
        )
    except (ValueError, OSError) as e:  # ConfigError, IngestError, missing files
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"deterministic {args.split} return: {ret:+.4f}%")
    if args.trace:
        print(f"episode trace written to {args.trace}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        report = aggregate_report(args.out)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.text)
    csv_path = Path(args.out) / "results.csv"
    write_report_csv(report, csv_path)
    print(f"\nwrote {csv_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = verify_all(inject_fault=args.inject_fault)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    if failures:
        print(f"\n{failures} of {len(results)} checks failed")
        return EXIT_CHECK
    print(f"\nall {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saclab",
        description="Soft actor-critic with multi-step trace corrections on market-replay environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a minute-bar CSV and print a summary")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--out", default=None, help="optional path for a validated copy")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic market CSV")
    p.add_argument("--kind", required=True, choices=["flat", "random_walk", "sinusoid"])
    p.add_argument("--length", required=True, type=int, help="number of minute bars")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="generator parameter, repeatable (e.g. --param period=120)")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="run the full multi-environment training protocol")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.add_argument("--seed", type=int, default=None, help="run a single seed instead of the config list")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="deterministic evaluation of a saved checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="run directory (default: config out_dir)")
    p.add_argument("--env-id", type=int, default=0)
    p.add_argument("--kind", default="retrace", help="trace kind of the trained agent")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split", choices=["train", "validation", "test"], default="validation")
    p.add_argument("--trace", default=None, help="optional episode trace CSV output path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("report", help="aggregate a run directory into a results table")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("verify", help="run built-in oracle and accounting self-checks")
    p.add_argument("--inject-fault", default=None, metavar="NAME",
                   help="deliberately corrupt a component (negative control)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
