#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload archive_query --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It configures and builds the harness with
CMake under $CARGO_TARGET_DIR (default .bench_build), then runs the
workload in its own process.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines before it
are the run's fingerprint and its context numbers.  See e2ebench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive_query", "swe_rk2", "roi_rw")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally; return the binary's path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log in %s)" % log_path)
    return os.path.join(build_dir, "e2ebench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the library sources and build file, so a result names
    the code it measured even where git is unavailable."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources (src/, CMakeLists.txt) are not next to "
             "e2ebench/; run from a full checkout")

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "e2ebench")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--src-digest", src_digest(),
               "--cpu-model", cpu_model()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, "spans_%s.csv" % args.workload)]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
