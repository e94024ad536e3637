#!/usr/bin/env python3
"""Build the fedco benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package and the
`fedco-serve` binary in release mode (offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), prints a `# meta {...}` line (nproc, rustc
version, commit, source digest, seed), then runs the workload. The last
line of standard output is the workload's JSON result; the exit code is the
workload's (non-zero when a correctness check failed).

`served-churn` runs pinned to one CPU, server and clients alike: every
request wakes a thread on the other side of a loopback socket, and wake-ups
across the cores of a shared virtual machine made its request rate swing
twofold from one half hour to the next.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("crates", "src", os.path.join("perfbench", "src"))
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml"))
PINNED = {"served-churn"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the program and benchmark sources, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(base, f) for f in files]
    for path in sorted(p for p in paths if os.path.isfile(p)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates", os.path.join("crates", "server")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"not a fedco checkout: {needed} is missing under {ROOT}")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    cargo_build(["--manifest-path", MANIFEST], env)
    cargo_build(["-p", "fedco-server", "--bin", "fedco-serve"], env)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": os.cpu_count(),
        "pinned": args.workload in PINNED,
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }
    print("# meta " + json.dumps(meta), flush=True)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target, "release", "fedco-serve"),
    ]
    # A process group of its own, so a timeout also takes down any server
    # child the workload started.
    pin = pin_to_one_cpu if args.workload in PINNED else None
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, preexec_fn=pin)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
