#!/usr/bin/env python3
"""Benchmark entry point: build the engine from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/tpbench.exe and
bin/tpdb_server.exe with dune, then runs the workload in a fresh process
with the engine's environment knobs pinned. The last line of standard
output is the result object; it is only printed when the build and the
run succeed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("adhoc", "composed", "spill")
WORK = ".perfbench"  # inputs, sockets, spill files and build caches
RUN_TIMEOUT_S = 170


def pinned_env(root):
    env = dict(os.environ)
    # An inherited knob must not change what is measured.
    for knob in ("TPDB_SANITIZE", "TPDB_MEM_BUDGET", "TPDB_SLOW_MS"):
        env.pop(knob, None)
    env["OCAMLRUNPARAM"] = "v=0"
    # Keep every file the build and the run write inside the checkout.
    tmp = os.path.join(root, WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, WORK, "xdg-cache")
    return env


def build(env):
    cmd = ["dune", "build", "--root", ".", "./perfbench/tpbench.exe",
           "./bin/tpdb_server.exe"]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def kill_group(pgid):
    """Kill the workload and the server it started; wait until both end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "lib")):
        print("run.py: run from the root of a tpdb checkout", file=sys.stderr)
        return 2
    env = pinned_env(root)
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join("_build", "default", "perfbench", "tpbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--server", os.path.join("_build", "default", "bin",
                                    "tpdb_server.exe")]
    # Its own process group, so a timeout also stops tpdb_server.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("run.py: workload failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
