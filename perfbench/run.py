#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Builds the library and the `perfbench` harness from source (Release) into
$CARGO_TARGET_DIR, default `.bench_build`, under the checkout root, then
runs one workload and relays its output; the last line of standard output
is the harness's JSON result.  `--workload all` runs every workload in turn
and prints each one's end-to-end metrics.  The exit code is non-zero when
the build fails, an argument is malformed, or any job fails its check.
`sweep_arith` and `sweep_random` run only when named; `all` leaves them
out.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# The workloads of BENCHMARK.json, which `--workload all` runs in turn.
WORKLOADS = ["sim_epfl", "sweep_sharded"]
# Runnable by name only: left out of BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["sweep_arith", "sweep_random"]
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def non_negative_int(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--seconds", type=non_negative_int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be within 1..3600")
    if args.seed >= 2**64:
        parser.error("--seed must be below 2^64")
    return args


def build():
    """Configures and builds into the build directory; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {BENCH_DIR.name}/; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed", 1)
    return build_dir / "perfbench", build_dir


def run_one(binary, build_dir, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{workload}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc


def main():
    args = parse_args()
    binary, build_dir = build()
    if args.workload != "all":
        sys.exit(run_one(binary, build_dir, args.workload, args).returncode)
    status = 0
    summary = []
    for workload in WORKLOADS:
        proc = run_one(binary, build_dir, workload, args)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        summary.append((workload, result))
    print("\nsummary")
    for workload, result in summary:
        if result is None:
            print(f"  {workload}: no result")
            continue
        print(f"  {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"    {name:28s} {m['value']:.6g} {m['unit']}")
    sys.exit(status)


if __name__ == "__main__":
    main()
