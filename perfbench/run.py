#!/usr/bin/env python3
"""Build fsmd and the perfbench program from source, then run one benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload dense-disk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is the result object printed by the
perfbench program; build output goes to standard error.  Builds land in
$CARGO_TARGET_DIR (default .bench_build); run state (server directories,
temporary files, span dumps) lands in .bench_work.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

REQUIRED = ["Cargo.toml", "crates/fsmd/Cargo.toml", "perfbench/Cargo.toml"]
WORKLOADS = ["dense-disk", "durable-fleet"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    result = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed: {' '.join(command)}")


def source_digest():
    """Identifies the code under test: the git commit when there is one,
    otherwise a digest of every source file (a plain checkout has no .git)."""
    if os.path.isdir(".git"):
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "src", "crates", "perfbench"]:
        paths = [top] if os.path.isfile(top) else []
        for directory, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target",))
            paths += [os.path.join(directory, f) for f in sorted(files)]
        for path in paths:
            if path.endswith((".rs", ".toml", ".py")):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload or --self-test is required")

    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["-p", "fsm-fsmd", "--bin", "fsmd"], target_dir)
    cargo_build(["--manifest-path", "perfbench/Cargo.toml"], target_dir)

    work = os.path.abspath(".bench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(target_dir, "release", "perfbench"),
        "--fsmd", os.path.join(target_dir, "release", "fsmd"),
        "--work", work,
    ]
    if args.self_test:
        command.append("--self-test")
    else:
        command += [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--commit", source_digest(),
        ]
    sys.stdout.flush()
    # The perfbench program and the fsmd servers it spawns form their own
    # process group, killed when this script exits or is terminated, so that
    # none of them outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = subprocess.Popen(
        command, env=dict(os.environ, TMPDIR=work), start_new_session=True
    )
    try:
        returncode = bench.wait()
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        bench.wait()
    sys.exit(returncode)


if __name__ == "__main__":
    main()
