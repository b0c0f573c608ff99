#!/usr/bin/env python3
"""Entry point of the HATT benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the release `hattd` daemon (from the workspace) and the
`perfbench` runner (the package next to this file) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the runner. The
runner prints one JSON result line as the last line of stdout and exits
non-zero when any output or counter check fails. Every process the run
starts is stopped before this script returns.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("compile_molecules", "construct_scale", "serve_warm", "serve_evolve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, env):
    """Builds hattd and the runner; cargo's output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "Cargo.toml"), "-p", "hatt-service", "--bin", "hattd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def group_alive(pgid):
    """Whether any process of the process group still exists."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if os.getpgid(int(entry.name)) == pgid:
                return True
        except (ProcessLookupError, PermissionError):
            continue
    return False


def stop_group(pgid):
    """Kills the runner's process group (it and its daemons) and waits."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "service").is_dir():
        log("run from the root of a HATT checkout (workspace sources not found)")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if not build(root, env):
        return 2

    work = root / ".bench_work" / str(os.getpid())
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--hattd", str(target / "release" / "hattd"),
        "--work", str(work),
    ]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    finally:
        stop_group(proc.pid)
        for leftover in (work, work.parent):
            try:
                leftover.rmdir()
            except OSError:
                pass
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
