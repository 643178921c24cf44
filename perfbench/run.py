#!/usr/bin/env python3
"""Reproduction benchmark of the half-price architecture simulator.

    python3 perfbench/run.py --workload repro-grid|steady-long|func-live \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (the hpa
libraries plus the hpa_perfbench driver) into .bench_build/, runs the
workload in its own single-threaded process, checks its outputs and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics
from a separate traced run. The lines before it carry the host
fingerprint and the noise sentinel. See perfbench/README.md.

Extra options: --out FILE appends the full result record (fingerprint,
sentinel, metrics, every check) as one JSON line, for compare.py;
--write-expected records this commit's outputs as the expected results.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "hpa_perfbench"
GOLDEN = ROOT / "tools" / "golden_sweep_ipc.json"
EXPECTED = HERE / "expected.json"
PAPER = HERE / "paper_ref.json"


# Exact-IPC tolerance of the golden gate (six printed decimals).
GOLDEN_TOL = 5e-7
# A run measures for --seconds plus a few seconds of set-up and probes;
# a child that takes this long has hung.
CHILD_TIMEOUT_S = 170


def declared():
    """BENCHMARK.json: the workload names, and each metric section as
    {name: unit}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {sec: {m["name"]: m["unit"] for m in spec[sec]}
               for sec in ("end_to_end", "per_layer")}
    return [w["name"] for w in spec["workloads"]], metrics


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build hpa_perfbench; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "hpa_perfbench", "-j", jobs])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise RuntimeError(f"build failed: see {logf}")


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def steal_ticks():
    """(steal, total) jiffies from the aggregate /proc/stat cpu line."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields[:8])
    except (OSError, ValueError):
        return 0, 0


def tree_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def fingerprint(raw):
    """Host and build identity. compare.py refuses to compare result
    sets whose host fields differ; the code identity is what is
    compared."""
    return {
        "host": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "compiler": raw["compiler"],
            "cxx_flags": raw["cxx_flags"].strip(),
            "build_type": raw["build_type"],
        },
        "code": {"git_sha": git_sha(), "tree_sha256": tree_digest()},
    }


def geomean_delta_pp(pairs):
    """Geometric-mean IPC change, in percent, over (ipc, base) pairs."""
    logs = [math.log(ipc / base) for ipc, base in pairs]
    return (math.exp(sum(logs) / len(logs)) - 1.0) * 100.0


def paper_gap(workload, raw):
    """Mean |measured - published| geomean IPC delta versus the
    same-width base machine, in percentage points."""
    ref = json.loads(PAPER.read_text())
    ipc = {(c["machine"], c["kernel"]): c["ipc"] for c in raw["cells"]}
    for c in raw["live_checks"]:
        ipc[("4-wide", c["kernel"])] = c["replay_ipc"]
        ipc[("4-wide/seq-wakeup/seq-rf", c["kernel"])] = c["combined_ipc"]
    kernels = sorted({c["kernel"] for c in raw["cells"]})
    gaps = []
    for machine in ref["comparisons"][workload]:
        base = machine.split("/")[0]
        pairs = [(ipc.get((machine, k), 0.0), ipc.get((base, k), 0.0))
                 for k in kernels]
        if any(a <= 0 or b <= 0 for a, b in pairs):
            continue  # a failed cell; the checks already count it
        gaps.append(abs(geomean_delta_pp(pairs)
                        - ref["paper_mean_pp"][machine]))
    # With no comparable pair left the run has failed checks anyway.
    return sum(gaps) / len(gaps) if gaps else 100.0


def check(workload, raw, golden_path=GOLDEN, expected_path=EXPECTED):
    """Every output check; @return a list of (item, problem or None)."""
    items = [(f"probe|{m}", f"probe failed: {e}")
             for m, e in raw["probe_errors"].items()]
    budget = raw["budget"]
    path = pathlib.Path(expected_path)
    exp = json.loads(path.read_text()).get(workload) if path.is_file() else None
    if exp is None or exp.get("budget") != budget:
        exp = {"cells": {}, "mix": {}}
    for k, m in raw["mix"].items():
        got = {f: v for f, v in m.items() if f != "stable"}
        want = exp["mix"].get(k)
        err = ("unstable across passes" if not m["stable"] else
               None if want == got else f"mix {got} != expected {want}")
        items.append((f"mix|{k}", err))
    items += [(f"mix|{k}", "expected mix not counted")
              for k in exp["mix"] if k not in raw["mix"]]
    if workload == "repro-grid":
        golden = json.loads(pathlib.Path(golden_path).read_text())
        comparable = golden.get("insts_per_run") == budget
        seen = set()
        for c in raw["cells"]:
            key = f"{c['machine']}|{c['kernel']}"
            seen.add(key)
            g = golden.get(key)
            if not c["ok"]:
                err = f"failed or unstable across passes: {c['error']}"
            elif not comparable:
                err = f"golden recorded at {golden.get('insts_per_run')}"
            elif not isinstance(g, (int, float)):
                err = "no golden value"
            elif abs(c["ipc"] - g) > GOLDEN_TOL:
                err = f"ipc {c['ipc']:.6f} != golden {g:.6f}"
            else:
                err = None
            items.append((key, err))
        for key in golden:
            if "|" in key and key not in seen:
                items.append((key, "golden cell not simulated"))
        return items

    seen = set()
    for c in raw["cells"]:
        key = f"{c['machine']}|{c['kernel']}"
        seen.add(key)
        want = exp["cells"].get(key)
        got = {k: c[k] for k in ("digest", "cycles", "committed")}
        if not c["ok"]:
            err = f"failed or unstable across passes: {c['error']}"
        elif want != got:
            err = f"stats {got} != expected {want}"
        else:
            err = None
        items.append((key, err))
    items += [(key, "expected cell not simulated")
              for key in exp["cells"] if key not in seen]
    checked = set()
    for c in raw["live_checks"]:
        checked.add(c["kernel"])
        same = (c["live_cycles"] == c["replay_cycles"]
                and c["live_committed"] == c["replay_committed"])
        items.append((f"live|{c['kernel']}",
                      f"live check failed: {c['error']}" if c["error"] else
                      None if same else
                      f"live {c['live_cycles']} cycles / "
                      f"{c['live_committed']} insts != replay "
                      f"{c['replay_cycles']} / {c['replay_committed']}"))
    if workload == "func-live":
        items += [(f"live|{k}", "no live check")
                  for k in exp["mix"] if k not in checked]
    return items


def write_expected(workload, raw, path):
    """Record this run's outputs; repro-grid's cells are checked against
    the golden IPC file instead, so only its mix is recorded."""
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[workload] = {
        "budget": raw["budget"],
        "cells": {} if workload == "repro-grid" else
                 {f"{c['machine']}|{c['kernel']}":
                  {k: c[k] for k in ("digest", "cycles", "committed")}
                  for c in raw["cells"]},
        "mix": {k: {f: v for f, v in m.items() if f != "stable"}
                for k, m in raw["mix"].items()},
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    log(f"wrote expected results of {workload} to {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads, metrics = declared()
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", help="append the full result record here")
    ap.add_argument("--write-expected", action="store_true")
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 2

    cmd = [str(BINARY), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 2
    steal1 = steal_ticks()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"hpa_perfbench exited with {proc.returncode}")
        return 2
    raw = json.loads(proc.stdout)

    try:
        items = check(a.workload, raw)
    except (OSError, ValueError) as e:
        log(f"cannot check outputs: {e}")
        return 2
    problems = [(k, e) for k, e in items if e]
    for k, e in problems[:20]:
        log(f"check failed: {k}: {e}")
    attempted, failed = len(items), len(problems)

    if a.trace:
        values = {k.replace("/", "."): v
                  for k, v in raw["per_layer"].items()}
        values["fail_ratio"] = failed / attempted
        units = metrics["per_layer"]
    else:
        values = dict(raw["end_to_end"])
        values["paper_gap_pp"] = paper_gap(a.workload, raw)
        units = metrics["end_to_end"]
    if set(values) != set(units):
        log(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
        return 2
    printed = {k: {"value": values[k], "unit": units[k]}
               for k in sorted(units)}

    if a.write_expected:
        if any(k.startswith("live|") or "unstable" in e or "failed" in e
               or (a.workload == "repro-grid" and not k.startswith("mix|"))
               for k, e in problems):
            log("refusing to record expected results from a failing run")
            return 2
        write_expected(a.workload, raw, EXPECTED)

    d_steal, d_total = (steal1[0] - steal0[0], steal1[1] - steal0[1])
    sentinel = {"host_calib_ns_before": raw["host_calib_ns"][0],
                "host_calib_ns_after": raw["host_calib_ns"][1],
                "steal_ticks": d_steal,
                "steal_pct": 100.0 * d_steal / d_total if d_total else 0.0,
                "setups": raw["setups"], "passes": raw["passes"],
                "traced_passes": raw["traced_passes"]}
    fp = fingerprint(raw)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": printed}
    if a.out:
        record = {"schema": "hpa.perfbench-result.v1",
                  "workload": a.workload, "seed": a.seed,
                  "seconds": a.seconds, "trace": a.trace,
                  "fingerprint": fp, "sentinel": sentinel,
                  "result": result, "checks": items,
                  "cells": raw["cells"], "mix": raw["mix"],
                  "samples": raw["samples"]}
        with open(a.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print("perfbench: fingerprint " + json.dumps(fp, sort_keys=True))
    print("perfbench: sentinel " + json.dumps(sentinel, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
