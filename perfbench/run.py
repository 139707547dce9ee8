#!/usr/bin/env python3
"""Run the repository benchmark (the program is perfbench/bench.ml).

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe and the bussyn_cli daemon with dune from the
repository root, then runs the benchmark program with the same
arguments plus --rev (the git revision, or a hash of the sources when
the tree is not a git checkout).  Exits non-zero without printing a
result when the build fails, e.g. when the repository sources are
missing.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TARGETS = ["./perfbench/bench.exe", "./bin/bussyn_cli.exe"]
SOURCES = ("dune-project", "lib", "bin", "perfbench")
WORKLOADS = ("paper_repro", "explore_grid", "serve_mixed")


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(top)
            for f in files
        )
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def dune():
    if shutil.which("dune"):
        return ["dune"]
    return ["opam", "exec", "--", "dune"]


def main():
    os.chdir(ROOT)
    # Build output goes to stderr: the last line of stdout is the result.
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--rev", revision()]
    # "--workload all" runs every workload in turn, each printing its
    # own lines and result.
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        codes = [
            subprocess.run([EXE] + args[:at] + [w] + args[at + 1:]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
