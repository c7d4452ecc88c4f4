"""Command-line entry points: gen-system, run, plot."""

from __future__ import annotations

import argparse
import sys

from .bench import UsageError, load_spec, run_benchmark
from .lifted import save_system
from .plotting import plot_traces
from .sysgen import generate_system


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgilc",
        description="Experiment-efficient learning control benchmarks on lifted MIMO systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-system", help="generate a random stable system file")
    gen.add_argument("--states", type=int, required=True)
    gen.add_argument("--inputs", type=int, required=True)
    gen.add_argument("--outputs", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trial-length", type=int, default=100,
                     help="samples per trial, stored with the system as N (default 100)")
    gen.add_argument("--feedthrough-gain", type=float, default=0.0,
                     help="add gain*I to D to keep the lifted operator well conditioned")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run a benchmark spec")
    run.add_argument("--spec", required=True)
    run.add_argument("--out-dir", required=True)

    plot = sub.add_parser("plot", help="render trace CSVs as an SVG")
    plot.add_argument("--out", required=True)
    plot.add_argument("--normalize", action="store_true",
                      help="divide each curve by its initial cost")
    plot.add_argument("traces", nargs="+")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-system":
            try:
                ss = generate_system(args.states, args.inputs, args.outputs, args.seed,
                                     feedthrough_gain=args.feedthrough_gain)
                save_system(args.out, ss, args.trial_length)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc}") from exc
            print(f"wrote {args.out}")
            return 0
        if args.command == "run":
            spec = load_spec(args.spec)
            result = run_benchmark(spec, args.out_dir)
            n_err = sum(1 for s in result.summaries if s.status != "ok")
            print(f"{len(result.summaries)} runs ({n_err} failed); "
                  f"summary at {result.summary_path}")
            return 0
        if args.command == "plot":
            try:
                warnings = plot_traces(args.traces, args.out, normalize=args.normalize)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            except OSError as exc:  # the traces' read errors are warnings
                raise UsageError(f"cannot write {args.out}: {exc}") from exc
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            print(f"wrote {args.out}")
            return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
