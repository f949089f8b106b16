#!/usr/bin/env python3
"""Builds and runs the nfvpr end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload serve-steady-1k --seed 1 \\
        --seconds 20 --trace 0

Configures and builds perfbench/ (which builds the repository's libraries
from source) into .bench_build/perfbench on first use, then runs
nfv_perfbench from the repository root.  Build output goes to stderr; the
benchmark's own stdout passes through unchanged, so its last line is the
JSON result.  --seconds defaults to BENCHMARK.json's run_seconds, the
run length the bounds were set on.  Exits 2 without building when the
repository's sources are not next to this directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-steady-1k", "serve-faults-ckpt", "solve-paper")
DEFAULT_SEED = 1


def run_seconds(root: Path) -> float:
    with open(root / "BENCHMARK.json", encoding="utf-8") as spec:
        return float(json.load(spec)["run_seconds"])


def build(root: Path, build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "nfv_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "nfv_perfbench"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds(root)

    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no nfvpr sources under {root}", file=sys.stderr)
        return 2
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", str(
            build_dir / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
