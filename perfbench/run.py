#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <hit|miss> \
        --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. It builds `perfbench/` (its own Cargo
package, compiled with the shipped release profile) into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints one line of build
facts, then runs the benchmark binary, whose last output line is the
result object. It exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A run must finish within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170
# Inputs that decide the measured program, for the source digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git"}


def source_digest():
    """SHA-256 over every source file's path and bytes, in path order."""
    h = hashlib.sha256()
    files = []
    for name in SOURCES:
        p = ROOT / name
        if p.is_file():
            files.append(p)
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(Path(dirpath) / f for f in filenames)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    with open(BENCH_DIR / "Cargo.toml", "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    print(json.dumps({
        "schema": "vpir-perfbench-build-v1",
        "rustc": command_output(["rustc", "--version"]),
        "profile": dict(profile, name="release"),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }), flush=True)

    binary = target / "release" / "vpir-perfbench"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(target / "perfbench")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
