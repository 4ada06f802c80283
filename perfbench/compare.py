#!/usr/bin/env python3
"""Compare two sets of benchmark records, before and after a change.

Usage: python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the JSON records that run.py writes to
.perfbench_out/records/ (copy that directory aside after each side's
runs). For every workload and end-to-end metric this prints both
medians, the change (positive means worse) and the verdict against the
bound in BENCHMARK.json: "unresolved" when the before side's own
quartile spread exceeds the bound. It also lists the seeds whose
runs.csv hashes differ. The comparison is invalid, and the exit code 1,
when the two sides ran different rowcolproj backends.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(argv[0]), load(argv[1])
    backends = ({r["backend"] for r in before}, {r["backend"] for r in after})
    if backends[0] != backends[1] or len(backends[0]) != 1:
        print(f"INVALID comparison: backends differ (before {sorted(backends[0])}, "
              f"after {sorted(backends[1])})")
        return 1

    for workload in (w["name"] for w in declared["workloads"]):
        sides = [[r for r in side if r["workload"] == workload and r["trace"] == 0]
                 for side in (before, after)]
        if not all(sides):
            print(f"{workload}: no end-to-end records on both sides")
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            b, a = ([r["metrics"][name]["value"] for r in side] for side in sides)
            mb, ma = statistics.median(b), statistics.median(a)
            worse = ma / mb - 1 if metric["better"] == "lower" else 1 - ma / mb
            if spread(b) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "regression" if worse > metric["bound"] else "ok"
            print(f"{workload:22s} {name:16s} before {mb:.6g} after {ma:.6g} {metric['unit']:4s} "
                  f"worse {worse:+.3f} bound {metric['bound']} n={len(b)}/{len(a)} {verdict}")
        hashes = [{r["seed"]: r["runs_csv_sha256"] for r in side} for side in sides]
        differ = sorted(s for s in hashes[0].keys() & hashes[1].keys()
                        if hashes[0][s] != hashes[1][s])
        print(f"{workload:22s} runs.csv differs for seeds {differ or 'none'} "
              f"of {len(hashes[0].keys() & hashes[1].keys())} compared")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
