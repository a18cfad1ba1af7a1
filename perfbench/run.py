#!/usr/bin/env python3
"""Build the programs under test and the benchmark driver, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository's binaries (the repro tables/figures, `wl` and wl-serve) and the
`perfbench` driver are built in release mode into $CARGO_TARGET_DIR
(default: target/). Build output goes to stderr; the driver prints its
report and, as the last line of stdout, one JSON object with the result.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo build {' '.join(args)} failed")


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    cargo_build(["-p", "wl-repro", "-p", "wl-cli", "-p", "wl-serve", "--bins"], target_dir)
    cargo_build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], target_dir)
    bin_dir = os.path.join(target_dir, "release")
    driver = os.path.join(bin_dir, "perfbench")
    argv = [driver] + sys.argv[1:] + ["--root", ROOT, "--bin-dir", bin_dir]
    sys.stdout.flush()
    # A child process of its own, not exec: the driver reads the peak memory
    # of the processes it reaps, which must not include the builds above.
    sys.exit(subprocess.run(argv).returncode)


if __name__ == "__main__":
    main()
