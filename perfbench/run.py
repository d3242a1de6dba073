#!/usr/bin/env python3
"""Builds blobseer-server and the perfbench load generator, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|update|read_mix> --seed <n> \
        --seconds <s> --trace <0|1>

Cargo output goes to stderr; the load generator's last stdout line is the
result object. Builds land in $CARGO_TARGET_DIR (default: .bench_build under
the repository root); daemon state lives under .bench_work and is removed
at exit. Exits non-zero, printing no result, when anything fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Each run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 165


def build(env):
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "blobseer-server",
         "--bin", "blobseer-server"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--server", os.path.join(target, "release", "blobseer-server"),
        "--work", work,
    ]
    # A session of its own, so a timeout can kill the generator and every
    # daemon it started in one signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    if proc.returncode != 0:
        sys.exit(f"perfbench: load generator exited with {proc.returncode}")
    sys.stdout.write(out.decode())


if __name__ == "__main__":
    main()
