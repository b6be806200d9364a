#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `csd-serve` daemon from the
repository's workspace and the `csd-perfbench` binary from `perfbench/`, both
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it. Its
standard output is passed through: one `name = value unit` line per metric,
then, as the last line, the JSON result. Exits with its code; exits 2
without a result when the repository's sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-cycle", "attack-functional", "serve-mix", "cluster-grid")
# A run measures for --seconds, plus set-up and verification.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    # Cargo's own output goes to stderr, so the result stays the last
    # line of standard output.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("Cargo.toml", "crates/serve/Cargo.toml", "BENCH_suite.json"):
        if not (ROOT / need).is_file():
            fail(f"{need} is missing: run from a full checkout of the repository")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo_build(["-p", "csd-serve", "--bin", "csd-serve"], env)
    cargo_build(["--manifest-path", str(HERE / "Cargo.toml")], env)

    cmd = [
        str(target / "release" / "csd-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--root", str(ROOT),
        "--serve-bin", str(target / "release" / "csd-serve"),
        "--out-dir", str(ROOT / ".bench_out"),
    ]
    # Its own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
