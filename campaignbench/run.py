#!/usr/bin/env python3
"""Builds the campaign benchmark (Release) from source and runs one workload.

Run from the repository root:

    python3 campaignbench/run.py --workload table1_campaign --seed 1 \
        --seconds 20 --trace 0
    python3 campaignbench/run.py --self-test

The build tree lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root; scratch files and traces go to .bench_out. Build output goes
to stderr, so the benchmark's own report (ending in one JSON line) is all
that reaches stdout. Exits non-zero without a report when the sources are
missing, the build fails, or the build is not a Release build.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"campaignbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_tree():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "campaignbench"


def build(tree):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no swarmfuzz sources under {ROOT / 'src'}")
    cache = tree / "CMakeCache.txt"
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 1),
         "--target", "campaignbench"],
        check=True, stdout=sys.stderr)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        fail(f"refusing to measure a non-Release build ({build_type or 'unset'})")
    return tree / "campaignbench"


def commit_id():
    """The checked-out commit, or a digest of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha1()
        for path in sorted((ROOT / "src").rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
        return "src-" + digest.hexdigest()[:12]


def main():
    try:
        binary = build(build_tree())
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    args = [str(binary), *sys.argv[1:], "--commit", commit_id(),
            "--out", str(ROOT / ".bench_out")]
    spawn_ns = time.monotonic_ns()
    result = subprocess.run(args + ["--spawn-ns", str(spawn_ns)], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
