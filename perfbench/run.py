#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form measures one workload: end-to-end metrics with --trace 0,
the traced per-layer run with --trace 1 (its spans go to
perfbench/out/spans-NAME.jsonl).  The second runs every workload of
BENCHMARK.json, untraced and then traced.

The benchmark is built from the checkout's sources with dune.  The last line
of standard output is the measured program's JSON result; it is checked
against the metric names and units declared in BENCHMARK.json.  Exit status
is non-zero when the build fails, a run fails or its outputs are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "main.exe"
OUT = ROOT / "perfbench" / "out"
RUN_TIMEOUT_S = 175

# Every DSM holds a 16 MB memory object per host.  By default glibc moves
# its mmap threshold as blocks are freed, so from one run to the next a new
# memory object either reuses freed heap pages or faults in fresh ones, and
# mc-racer's schedule time moved by 30% between runs.  Pinning the
# threshold at its 32 MB maximum and never trimming makes every run reuse
# freed memory, as a long exploration does.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967295"


def build():
    r = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--display", "quiet", "--cache", "disabled",
         "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return r.returncode == 0 and EXE.is_file()


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    """Return the problems with one result line, or [] when it conforms."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not result["correct"]:
        problems.append("outputs not correct")
    want = declared(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
                        f"{sorted(want.items())}")
    return problems


def run_one(workload, seed, seconds, trace):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                           env=dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES))
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return False
    lines = r.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result (exit {r.returncode})", file=sys.stderr)
        return False
    problems = check(result, trace)
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    print(lines[-1], flush=True)
    return r.returncode == 0 and not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    args = ap.parse_args()
    if not (ROOT / "dune-project").is_file() or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload:
        ok = run_one(args.workload, args.seed, args.seconds, args.trace or 0)
        return 0 if ok else 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace in ([args.trace] if args.trace is not None else [0, 1]):
        for w in spec["workloads"]:
            ok = run_one(w["name"], args.seed, args.seconds, trace) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
