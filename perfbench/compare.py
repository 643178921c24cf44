#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records appended by `run.py --out FILE`. The
comparison is refused (exit 2) unless every record of both sets carries
the same host fingerprint: CPU model, nproc, compiler, compiler flags
and build type. The code identity (git SHA or source-tree digest) is
what is being compared, so it may differ.

For every workload and end-to-end metric it prints each side's median
and quartiles over its untraced runs, the change of the medians as a
share of the base median, and a verdict against the metric's bound in
BENCHMARK.json: "worse" beyond the bound, "unresolved" when the base's
own spread (quartile distance over median) exceeds the bound, "better,
every run" when every new run beats every base run, and "ok"
otherwise. Report only: the exit status is 0 whenever the sets
are comparable.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: a result set is empty", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True)
             for r in base + new}
    if len(hosts) != 1:
        print("compare: refused, the result sets come from different "
              "hosts or builds:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side, recs in (("base", base), ("new", new)):
        codes = sorted({json.dumps(r["fingerprint"]["code"], sort_keys=True)
                        for r in recs})
        print(f"{side}: {len(recs)} records, code {', '.join(codes)}")
    print(f"{'workload':12} {'metric':18} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'change':>8}  verdict")
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            sides = []
            for recs in (base, new):
                sides.append([r["result"]["metrics"][m["name"]]["value"]
                              for r in recs
                              if r["workload"] == w and r["trace"] == 0])
            if not sides[0] or not sides[1]:
                continue
            (b1, bm, b3), (n1, nm, n3) = map(quartiles, sides)
            change = (nm - bm) / bm
            worse = change if m["better"] == "lower" else -change
            spread = (b3 - b1) / bm
            sign = 1 if m["better"] == "lower" else -1
            all_better = (max(v * sign for v in sides[1])
                          < min(v * sign for v in sides[0]))
            verdict = ("better, every run" if all_better else
                       "unresolved" if spread > m["bound"] else
                       "worse" if worse > m["bound"] else "ok")
            print(f"{w:12} {m['name']:18} {b1:9.4g} {bm:9.4g} {b3:9.4g}  "
                  f"{n1:9.4g} {nm:9.4g} {n3:9.4g}  {change:+7.1%}  "
                  f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
