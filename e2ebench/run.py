#!/usr/bin/env python3
"""Build the e2ebench binary from source and run one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench (a package of its own that depends on the repository's
crates by path) with a plain `cargo build --release` into
$CARGO_TARGET_DIR (default: .bench_build), then runs it with the given
arguments. The binary's standard output is passed through unchanged; its
last line is the result object. Cargo's output goes to standard error.
Run records and span files are written to e2ebench/out/.

Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    env["E2EBENCH_GIT_REV"] = git_rev()
    run = subprocess.run(
        [str(target / "release" / "e2ebench"), *sys.argv[1:], "--out", str(HERE / "out")],
        env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
