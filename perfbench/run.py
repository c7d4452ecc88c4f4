"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig3-stoch --seed 0 --seconds 45 --trace 0

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  Every metric is printed as ``metric <name> <value>
<unit>`` before the last line, which is the JSON result.  With ``--trace 0``
the result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Trace CSVs, the summary, the SVG, the manifest and
the spans go to ``.perfbench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(report) -> dict:
    """Print the report, write it beside the run's outputs, and return the result."""
    print("manifest " + json.dumps(report.manifest, sort_keys=True))
    for name, (value, unit, note) in report.metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    for line in report.lines:
        print(line)
    for problem in report.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.metrics.items()},
    }
    with open(os.path.join(report.out_dir, "result.json"), "w") as fh:
        json.dump({**result, "notes": {name: note for name, (_, _, note) in report.metrics.items()},
                   "lines": report.lines, "problems": report.problems,
                   "manifest": report.manifest}, fh, indent=1)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    # Set before numpy loads.  One BLAS thread: timings spread less than with
    # one per core (see README.md), and a fixed count keeps experiment counts
    # repeatable for a seed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    if not os.path.isfile(os.path.join(root, "src", "cgilc", "__init__.py")):
        print(f"no cgilc package under {root}/src", file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    report = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  os.path.join(os.getcwd(), ".perfbench_out"))
    print(json.dumps(emit(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
