#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the libraries plus the benchmark binary (Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. The binary's last line of standard output is the JSON result;
build logs go to standard error. Exits non-zero when the build fails,
when an output or conservation check fails, or when the sources are not
there.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE):
        files += [p for p in tree.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable"
    result = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False)
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                       stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve").is_dir():
        print(f"perfbench: no library sources next to {HERE.name}/ "
              "(run from a full source checkout)", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    work_dir = target / "perfbench-work"
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(work_dir),
               "--source-digest", source_digest(), "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
