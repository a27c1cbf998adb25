#!/usr/bin/env python3
"""Compare two sets of free-gap-gate result files.

    python3 benchmark/compare.py BASE... --against NEW...

Each argument is a result file the benchmark wrote (benchmark/results/*.json,
one per workload, seed and trace setting; copy the directory aside between
the two sides) or a directory of them. Results are grouped by workload; for every end-to-end
metric of BENCHMARK.json the script prints each side's median and quartiles
and the change of the medians as a share of the base median, and flags a
change worse than the metric's bound. Traced results (per-layer metrics) are
listed without a verdict, since per-layer metrics carry no bound.

Exit status: 0 when nothing regressed beyond its bound, 1 when something did,
2 when the comparison is refused: results taken at different core counts
(`available_parallelism`) are not comparable, nor are runs of different
lengths.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    results = []
    for path in paths:
        files = (
            [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
            if os.path.isdir(path)
            else [path]
        )
        for f in files:
            with open(f) as fh:
                results.append(json.load(fh))
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if "--against" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--against")
    base, new = load(argv[:split]), load(argv[split + 1 :])
    if not base or not new:
        print("no result files on one side", file=sys.stderr)
        return 2
    cores = {r["stamp"]["available_parallelism"] for r in base + new}
    if len(cores) > 1:
        print(f"refusing to compare results taken at different core counts: {sorted(cores)}", file=sys.stderr)
        return 2
    lengths = {r["seconds"] for r in base + new}
    if len(lengths) > 1:
        print(f"refusing to compare runs of different lengths: {sorted(lengths)} s", file=sys.stderr)
        return 2
    core_count = next(iter(cores))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not b or not n:
                continue
            print(f"== {workload} (trace {trace}): {len(b)} base vs {len(n)} new runs, {core_count} cores")
            names = list(b[0]["result"]["metrics"])
            for name in names:
                bv = [r["result"]["metrics"][name]["value"] for r in b]
                nv = [r["result"]["metrics"][name]["value"] for r in n if name in r["result"]["metrics"]]
                if not nv:
                    continue
                unit = b[0]["result"]["metrics"][name]["unit"]
                bq, nq = quartiles(bv), quartiles(nv)
                verdict = ""
                if trace == 0 and name in bounds and bq[1]:
                    spec_m = bounds[name]
                    change = (nq[1] - bq[1]) / bq[1]
                    worse = change if spec_m["better"] == "lower" else -change
                    verdict = f"{change:+.1%}"
                    if worse > spec_m["bound"]:
                        verdict += f"  WORSE beyond bound {spec_m['bound']:.0%}"
                        regressed = True
                print(f"  {name:48s} {unit:6s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                      f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {verdict}")
            failed = sum(r["result"]["failed"] for r in n)
            if failed:
                print(f"  new runs report {failed} failed operations")
                regressed = True
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
