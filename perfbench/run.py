#!/usr/bin/env python3
"""Builds and runs one workload of the sIOPMP benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. This script builds
it (into $CARGO_TARGET_DIR, default `.bench_build`), prints a ledger
header (host, toolchain, source revision, seed), runs the workload in a
process of its own and passes its output through. The last line of
standard output is the JSON result. Any build or run failure, or a
result line that does not match `BENCHMARK.json`, exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["check_stream", "check_churn", "daemon_wire", "dma_sim"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over every source file the benchmark builds or reads."""
    digest = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ["crates", "corpus", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for name in sorted(filenames):
                files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(files):
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path) and not rel.endswith("perfbench/Cargo.lock"):
            digest.update(rel.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or not isinstance(result["correct"], bool):
        fail("failed must be a whole number and correct a boolean")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail(f"metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(expected)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["Cargo.toml", "crates", "corpus"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    git = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    print(f"# ledger workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# ledger nproc={os.cpu_count()} cpu={cpu_model()}")
    print(f"# ledger rustc={command_output(['rustc', '-V']) or 'unknown'}")
    print(f"# ledger git_commit={git or 'none (not a git checkout)'} source_sha256={source_digest()}")
    sys.stdout.flush()

    binary = os.path.join(target, "release", "siopmp-perfbench")
    run = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", os.path.join(ROOT, "corpus")]
    try:
        done = subprocess.run(run, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args.workload} did not finish: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
