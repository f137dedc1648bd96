#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig5_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds `perfbench/` (a Cargo
package of its own, depending on the simulator crates under `crates/`) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the
workload in a process of its own, and prints the result as the last line
of standard output: one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones (see BENCHMARK.json and
perfbench/NOTES.md). Scratch files go to `.bench_work/`.

`--self-test` runs every workload at a tiny size, checks that each prints
every metric named in BENCHMARK.json with its unit, and checks that a
tampered outcome digest is reported as a failed operation.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5_cold", "mlog_ring_1e5", "fault_campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def bench_env():
    """The caller's environment without FTMPI_* toggles: they select legacy
    paths or switch the result cache off, and the benchmark measures the
    defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTMPI_")}
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    return env


def build(env):
    if not (ROOT / "crates").is_dir():
        fail(f"no simulator crates at {ROOT / 'crates'}: run from a repository checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail("build failed")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def run(binary, env, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns its result line and the parsed object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(ROOT / ".bench_work" / workload),
           "--outcomes", str(HERE / "outcomes.txt"), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    return lines[-1], result


def self_test(binary, env):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run(binary, env, workload, 1, 0.5, trace, ["--tiny"])
            got = result["metrics"]
            for m in wanted[trace]:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} [{m['unit']}] "
                                    f"missing or mis-united: {entry}")
            if len(got) != len(wanted[trace]):
                problems.append(f"{workload} trace={trace}: {len(got)} metrics, "
                                f"expected {len(wanted[trace])}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: failed {result['failed']} "
                                f"of {result['attempted']}")
        _, tampered = run(binary, env, workload, 1, 0.5, 1, ["--tiny", "--tamper"])
        if not tampered["metrics"]["ops_failed_frac"]["value"] > 0:
            problems.append(f"{workload}: a tampered outcome digest went unnoticed")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    env = bench_env()
    binary = build(env)
    if args.self_test:
        sys.exit(self_test(binary, env))
    line, _ = run(binary, env, args.workload, args.seed, args.seconds, args.trace)
    print(line)


if __name__ == "__main__":
    main()
