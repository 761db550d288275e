#!/usr/bin/env python3
"""Builds and runs the Querc service benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --rates paper_mix=1000/2500,... \\
        --workload paper_mix --seed 1 --seconds 24 --trace 0

The first run configures and builds the benchmark package (the repo's
libraries from src/ plus the benchmark program) under
$CARGO_TARGET_DIR/perfbench/<checkout key>, or .bench_build/perfbench/<key>
when that is unset; later runs only check that the build is up to date. The
key is a hash of the checkout's path, so two checkouts sharing one
CARGO_TARGET_DIR never build or run each other's sources. Build output goes to
stderr, so the last line of stdout is the benchmark's result object. Every
run writes per-phase JSON under <build dir>/results/; traced runs (--trace
1) add per-layer and span JSON.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own self-tests instead.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    # A CMake build tree is tied to the source tree it was configured
    # from, so each checkout gets its own.
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:16]
    return target / "perfbench" / key


def run_logged(cmd, timeout, cwd=None):
    """Runs `cmd` with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=cwd).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(map(str, cmd))}",
              file=sys.stderr)
        return 1


def build(target: str) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no Querc sources under {ROOT / 'src'}; run from "
                 "the root of a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                      BUILD_TIMEOUT_S) != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(out), "--target", target,
                   "-j", jobs], BUILD_TIMEOUT_S) != 0:
        sys.exit("run.py: build failed")
    return out


def main(argv):
    if argv == ["--selftest"]:
        out = build("perfbench_selftest")
        # The self-tests write their run files to the working directory.
        return run_logged([str(out / "perfbench_selftest")], RUN_TIMEOUT_S,
                          cwd=out)
    out = build("querc_perfbench")
    results = out / "results"
    results.mkdir(exist_ok=True)
    cmd = [str(out / "querc_perfbench"), *argv, "--out-dir", str(results)]
    try:
        # stdout passes through: its last line is the result object.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
