#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload suite|counted|serve-mix \
        --seed N --seconds S --trace 0|1

The Go toolchain builds perfbench/ into .bench_build/, with its build
cache and every other file the toolchain writes kept there too. Set-up
time (process start until the workload is ready to time) is taken in
SETUP_RUNS fresh processes, the last of which is the measured run, and
reported as their median, setup_s. The last line of standard output is
the result JSON; a build or run failure exits non-zero without one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("suite", "counted", "serve-mix")
SETUP_RUNS = 9
DEADLINE_S = 170  # whole run, build included; the limit is 180

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    """The environment for the go command: every path it writes to lies
    under .bench_build, and it neither downloads nor reads user config."""
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def build(deadline):
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
        timeout=max(1, deadline - time.monotonic()),
        check=False,
    )
    return proc.returncode == 0


def spawn(args, deadline):
    """Run the binary; return (exit code, seconds until it printed
    "ready", the other stdout lines). A run past the deadline is killed."""
    t0 = time.monotonic()
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1, deadline - t0), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.monotonic() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
    return code, ready, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not build(deadline):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds), "-trace", str(a.trace)]

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_RUNS - 1):
            code, ready, _ = spawn(args + ["-setup-only"], deadline)
            if code != 0 or ready is None:
                print("perfbench: set-up failed", file=sys.stderr)
                return 1
            setups.append(ready)
    code, ready, lines = spawn(args, deadline)
    if code != 0 or ready is None or not lines:
        print(f"perfbench: run failed (exit {code})", file=sys.stderr)
        return 1
    setups.append(ready)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    if a.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    sys.stdout.write("".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
