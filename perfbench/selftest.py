#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute. Checks
that:
  - the metrics run.py prints are the ones BENCHMARK.json declares,
    with their units, for untraced and traced runs;
  - two seeds give identical per-cell IPC and statistics digests and
    identical instruction mixes;
  - a tampered golden IPC or expected digest, and a missing cell, mix
    or live check, are each reported as one failed check, not a crash;
  - compare.py refuses result sets with different host fingerprints;
  - without the simulator sources the benchmark fails without
    printing a result.
Scratch files go to .bench_build/selftest/. Exit status 0 = all pass.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".bench_build" / "selftest"
sys.path.insert(0, str(HERE))
import run  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(workload, seed, trace=0, cwd=ROOT):
    """Run run.py once (one-second run); @return (exit, stdout lines,
    full record or None)."""
    out = TMP / f"{workload}-{seed}-{trace}.jsonl"
    out.unlink(missing_ok=True)
    p = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    rec = json.loads(out.read_text()) if out.is_file() else None
    return p.returncode, lines, rec


def raw_output(workload, seed):
    """The driver's raw JSON of one one-second untraced run."""
    p = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(p.stdout)


def failures_of(items):
    return [k for k, e in items if e]


def printed(lines):
    return {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}


def cells(rec):
    return sorted((c["machine"], c["kernel"], c["ipc"], c["digest"])
                  for c in rec["cells"])


def main():
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)

    workloads, declared = run.declared()
    runs = {}
    for w in workloads:
        for seed in (1, 2):
            runs[w, seed] = bench(w, seed)
            code, lines, rec = runs[w, seed]
            expect(code == 0 and json.loads(lines[-1])["correct"],
                   f"{w} seed {seed} runs and passes its checks")
            expect(printed(lines) == declared["end_to_end"],
                   f"{w} prints exactly the end-to-end metrics and units")
        a, b = runs[w, 1][2], runs[w, 2][2]
        expect(cells(a) == cells(b) and a["mix"] == b["mix"],
               f"{w}: seeds 1 and 2 give identical IPC, digests and mix")

    code, lines, _ = bench("func-live", 1, 1)
    expect(code == 0 and printed(lines) == declared["per_layer"],
           "traced func-live prints exactly the per-layer metrics")

    raw = raw_output("repro-grid", 3)
    expect(not failures_of(run.check("repro-grid", raw)),
           "repro-grid seed 3 matches the golden IPC")
    golden = json.loads(run.GOLDEN.read_text())
    golden["4-wide|mcf"] += 0.01
    tampered = TMP / "golden.json"
    tampered.write_text(json.dumps(golden))
    expect(failures_of(run.check("repro-grid", raw, golden_path=tampered))
           == ["4-wide|mcf"],
           "a tampered golden IPC is one failed cell, not a crash")

    raw = raw_output("func-live", 3)
    expect(not failures_of(run.check("func-live", raw)),
           "func-live seed 3 matches the expected results")
    exp = json.loads(run.EXPECTED.read_text())
    key, cell = next(iter(exp["func-live"]["cells"].items()))
    cell["digest"] = "0" * 16
    tampered = TMP / "expected.json"
    tampered.write_text(json.dumps(exp))
    expect(failures_of(run.check("func-live", raw, expected_path=tampered))
           == [key],
           "a tampered expected digest is one failed cell, not a crash")

    for part in ("cells", "mix", "live_checks"):
        cut = json.loads(json.dumps(raw))
        if isinstance(cut[part], dict):
            cut[part].pop(next(iter(cut[part])))
        else:
            cut[part].pop()
        expect(len(failures_of(run.check("func-live", cut))) == 1,
               f"an entry missing from the {part} output is one failure")

    rec = runs["func-live", 1][2]
    same, other = TMP / "same.jsonl", TMP / "other.jsonl"
    same.write_text(json.dumps(rec) + "\n")
    rec["fingerprint"]["host"]["cpu_model"] += " (other)"
    other.write_text(json.dumps(rec) + "\n")
    compare = [sys.executable, str(HERE / "compare.py")]
    expect(subprocess.run(compare + [str(same), str(same)],
                          capture_output=True).returncode == 0,
           "compare.py compares results from one host")
    expect(subprocess.run(compare + [str(same), str(other)],
                          capture_output=True).returncode == 2,
           "compare.py refuses results from different hosts")

    bare = TMP / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _ = bench("repro-grid", 1, 0, cwd=bare)
    expect(code != 0 and not any(l.startswith("{") for l in lines),
           "without the simulator sources it fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
