#!/usr/bin/env python3
"""Builds the scheduler-query benchmark from source and runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cold_predict --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/README.md).
Build output goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
The last line of standard output is the result object.
"""

import ctypes
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself finishes well inside this; a hung run is killed.
RUN_TIMEOUT_S = 170
# How long orphaned socket workers get to exit on their own.
REAP_TIMEOUT_S = 5
PR_SET_CHILD_SUBREAPER = 36


def build(env):
    """Builds the repository's cluster_worker and the benchmark binary."""
    steps = [
        # The socket transport spawns this binary; it lands next to the
        # benchmark in the shared target directory.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "predict_cluster", "--bin", "cluster_worker"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def children():
    """Pids of this process's live children."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if fields[1] == me:
                pids.append(int(entry))
    return pids


def reap_descendants():
    """Waits for every descendant, killing those still alive after
    REAP_TIMEOUT_S. The socket transport's worker processes live in a
    process-wide pool and exit when the benchmark's sockets close; as a
    subreaper, this process inherits them and can wait for them."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child in children():
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.02)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    env["PREDICT_CLUSTER_WORKER"] = os.path.join(release, "cluster_worker")
    binary = os.path.join(release, "predict_perfbench")
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    try:
        code = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = f"perfbench: run exceeded {RUN_TIMEOUT_S} s"
    reap_descendants()
    sys.exit(code)


if __name__ == "__main__":
    main()
