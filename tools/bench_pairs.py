"""Paired perfbench runs of a git ref against the working tree, with verdicts.

    python3 tools/bench_pairs.py REF --runs sweep-small:10-19 --runs fig3-stoch:0-2 \
        --out BENCH_<n>.json --what "what the change does"

Run from the repository root.  REF is exported with ``git archive`` into a
temporary directory, removed at the end.  For each workload seed the two
trees run ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
back to back, one process at a time: the ref first on even seeds, the
working tree first on odd ones.  T is ``run_seconds`` from BENCHMARK.json.
The JSON file is rewritten after every pair, so an interrupted session keeps
the pairs it finished; ``--report FILE`` prints the verdicts of such a file
again without running anything.  Either way the exit status is 1 when a run
failed (one ``FAILED <workload> seed <s> <side>`` line each) or a metric
reads ``regression``, else 0.

Each metric is judged over the seeds on which both trees report it, and the
report says how many pairs that is.

For each workload and end-to-end metric the report gives both medians and
quartiles, the pairs the change won and two verdicts:

- claim: ``met`` when the change wins at least 9 in 10 pairs (ties count for
  neither side) and its median is better than the ref's by more than the
  ref's interquartile range;
- regression: ``regression`` when the change's median is worse than the
  ref's by more than the metric's ``bound`` (a share of the ref's median,
  from BENCHMARK.json); otherwise ``unresolved`` when either side's
  interquartile range exceeds that bound, unless every change run beats
  every ref run; otherwise ``none``.

Quartiles are ``statistics.quantiles(xs, n=4)``: the exclusive method.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def quartiles(xs: list[float]) -> list[float]:
    """First and third quartile of at least two values."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [q1, q3]


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def _share(x: float, base: float) -> float:
    """x as a share of |base|; 0 for x = 0, infinite for a nonzero x over a zero base."""
    if x == 0:
        return 0.0
    return x / abs(base) if base else (math.inf if x > 0 else -math.inf)


def claim_verdict(parent: list[float], change: list[float], better: str) -> str:
    """``met`` or ``not met``, by the 9-in-10 wins and median-gap-over-IQR rule."""
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    gap = statistics.median(parent) - statistics.median(change)
    if better != "lower":
        gap = -gap
    q1, q3 = quartiles(parent)
    return "met" if wins >= 0.9 * len(parent) and gap > q3 - q1 else "not met"


def regression_verdict(parent: list[float], change: list[float], better: str,
                       bound: float) -> str:
    """``regression``, ``unresolved`` or ``none`` for a metric with relative ``bound``."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = _share(c_med - p_med if better == "lower" else p_med - c_med, p_med)
    if worse > bound:
        return "regression"
    spread = max(_share(quartiles(xs)[1] - quartiles(xs)[0], statistics.median(xs))
                 for xs in (parent, change))
    if spread > bound and not all(_beats(c, p, better) for p in parent for c in change):
        return "unresolved"
    return "none"


def _failed(result: dict) -> bool:
    return not result.get("correct") or result.get("failed", 0) > 0


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """The summary block of every workload in ``runs`` ({workload: {side: {seed: result}}})."""
    summary = {}
    for workload, sides in runs.items():
        seeds = sorted(set(sides["parent"]) & set(sides["change"]), key=int)
        block = {}
        for m in metrics:
            pairs = [s for s in seeds
                     if all(m["name"] in sides[side][s].get("metrics", {}) for side in SIDES)]
            if len(pairs) < 2:
                continue
            parent, change = ([sides[side][s]["metrics"][m["name"]]["value"] for s in pairs]
                              for side in SIDES)
            block[m["name"]] = {
                "pairs": len(pairs), "parent": parent, "change": change,
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_quartiles": quartiles(parent),
                "change_quartiles": quartiles(change),
                "change_better_pairs": sum(_beats(c, p, m["better"])
                                           for p, c in zip(parent, change)),
                "claim": claim_verdict(parent, change, m["better"]),
                "regression": regression_verdict(parent, change, m["better"], m["bound"]),
                "bound": m["bound"],
            }
        block["seeds"] = [int(s) for s in seeds]
        block["failed_runs"] = {side: sorted(int(s) for s, r in sides[side].items() if _failed(r))
                                for side in SIDES}
        summary[workload] = block
    return summary


def failing(summary: dict) -> bool:
    """Whether any run failed or any metric reads ``regression``."""
    return any(any(block["failed_runs"].values())
               or any(isinstance(s, dict) and s.get("regression") == "regression"
                      for s in block.values())
               for block in summary.values())


def report(summary: dict) -> str:
    lines = []
    for workload, block in summary.items():
        seeds = block["seeds"]
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {seeds}")
        lines.extend(f"FAILED {workload} seed {seed} {side}"
                     for side in SIDES for seed in block["failed_runs"][side])
        lines.append(f"  {'metric':<20}{'parent median [q1, q3]':<36}"
                     f"{'change median [q1, q3]':<36}{'wins':<8}{'claim':<9}regression")
        for name, s in block.items():
            if not isinstance(s, dict) or "claim" not in s:
                continue
            side = {k: f"{s[k + '_median']:.6g} [{s[k + '_quartiles'][0]:.6g}, "
                       f"{s[k + '_quartiles'][1]:.6g}]" for k in SIDES}
            lines.append(f"  {name:<20}{side['parent']:<36}{side['change']:<36}"
                         f"{s['change_better_pairs']}/{s['pairs']:<6}{s['claim']:<9}"
                         f"{s['regression']} (bound {s['bound']})")
    return "\n".join(lines)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``; its result.json, less the per-run seed and plant lists."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    path = os.path.join(tree, ".perfbench_out", f"{workload}-s{seed}", "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return {"correct": False, "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)  # a later failed run must not read this one
    for key in ("run_seeds", "plants"):
        result.get("manifest", {}).pop(key, None)
    return result


def _plan(specs: list[str]) -> list[tuple[str, list[int]]]:
    plan = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        first, _, last = seeds.partition("-")
        plan.append((workload, list(range(int(first), int(last or first) + 1))))
    return plan


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="git ref of the parent tree")
    parser.add_argument("--runs", action="append", default=[], metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--report", metavar="FILE", help="print the verdicts of FILE and exit")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.report:
        with open(args.report) as fh:
            summary = summarize(json.load(fh)["runs"], bench["end_to_end"])
        print(report(summary))
        return int(failing(summary))
    if not (args.ref and args.runs and args.out):
        parser.error("REF, --runs and --out are required unless --report is given")

    seconds = bench["run_seconds"]
    parent_sha, change_sha = _git("rev-parse", "--short", args.ref), _git("describe", "--always",
                                                                          "--dirty")
    plan = _plan(args.runs)
    doc = {"what": args.what,
           "command": f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                      f"--seconds {seconds:g} --trace 0",
           "trees": {"parent": f"{args.ref} ({parent_sha}), from git archive",
                     "change": f"working tree at {change_sha}"},
           "machine": "",
           "order": "One run at a time; for each seed the two trees ran back to back, the "
                    "parent first on even seeds and the change first on odd seeds. Plan: "
                    + ", ".join(args.runs) + ".",
           "note": "runs holds each run's result.json as perfbench wrote it, less the "
                   "manifest's run_seeds and plants lists (they follow from the workload "
                   "seed). Quartiles are statistics.quantiles(xs, n=4), the exclusive method.",
           "summary": {},
           "runs": {w: {side: {} for side in SIDES} for w, _ in plan}}
    archive = subprocess.run(["git", "archive", args.ref], capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_tree, filter="data")
        trees = {"parent": parent_tree, "change": os.getcwd()}
        for workload, seeds in plan:
            for seed in seeds:
                for side in (SIDES if seed % 2 == 0 else SIDES[::-1]):
                    result = _run(trees[side], workload, seed, seconds)
                    doc["runs"][workload][side][str(seed)] = result
                    print(f"{workload} seed {seed} {side}: correct={result.get('correct')}",
                          flush=True)
                    manifest = result.get("manifest")
                    if manifest and not doc["machine"]:
                        doc["machine"] = (f"{manifest['nproc']}-vCPU {manifest['platform']}, "
                                          f"Python {manifest['python']}, numpy "
                                          f"{manifest['numpy']}, {manifest['blas']['name']} "
                                          f"with {manifest['blas']['threads']} BLAS thread(s)")
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    print(report(doc["summary"]))
    return int(failing(doc["summary"]))


if __name__ == "__main__":
    sys.exit(main())
