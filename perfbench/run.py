#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a CMake package compiled against ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
checkout root, then runs the benchmark binary. Build output goes to stderr;
stdout carries only the benchmark's report, whose last line is the result
object. Per-run records and traced spans are written under
<build root>/results/. Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper30-optimize", "isp300-sweep", "isp300-optimize")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir):
    cached = cached_source_dir(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)  # a cache from another checkout cannot be reused
        cached = None
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    benchmarked sources (src/ and perfbench/) that works without one."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in filenames]
        for path in sorted(paths):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ident = "tree:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
            ident = f"git:{sha} {ident}"
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the dtr sources (src/) are not in this checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id(),
           "--out-dir", os.path.join(build_root(), "results")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd).returncode
    except OSError as e:
        fail(f"cannot run {binary}: {e}")


if __name__ == "__main__":
    sys.exit(main())
