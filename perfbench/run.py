#!/usr/bin/env python3
"""Run one workload of the PDT benchmark from the root of a source tree.

    python3 perfbench/run.py --workload compile|query \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test        # the benchmark's own tests

The first run configures and builds perfbench/ (an optimized build of the
toolchain's libraries, the pdbd daemon and the benchmark driver) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
The last line of stdout is the result object; the line before it is the
fingerprint of the build and host the result was measured on.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

WORKLOADS = ("compile", "query")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(root, build_dir, target):
    """Configures (once) and builds `target`; returns the cache entries."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        rc = run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if rc != 0:
            fail("configure failed, see " + log)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                 log, BUILD_TIMEOUT_S) != 0:
        fail("build failed, see " + log)
    entries = {}
    with open(cache) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                entries[m.group(1)] = m.group(2)
    return entries


def fingerprint(root, cache):
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


def check_reportable(cache):
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") not in OPTIMIZED_BUILD_TYPES or "-fsanitize" in flags:
        fail("refusing to report from an unoptimized or sanitized build "
             "(CMAKE_BUILD_TYPE=%s)" % cache.get("CMAKE_BUILD_TYPE"), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    for needed in ("src", "inputs", "runtime", "cmake/pdt_paths.h.in", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a PDT source tree (missing %s)" % needed, 2)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.relpath(os.path.join(root, build_dir), root)

    if args.test:
        build(root, build_dir, "perfbench_test")
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)

    cache = build(root, build_dir, "pdt_perfbench")
    check_reportable(cache)
    fp = fingerprint(root, cache)
    work = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "pdt_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    # Its own session, so a timeout can stop the benchmark binary and every
    # process it started (the pdbd daemon, instrumented runs) together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    fp["loadavg_after"] = list(os.getloadavg())
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    with open(os.path.join(build_dir, "results.jsonl"), "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "fingerprint": fp,
                              "result": result}) + "\n")
    print(lines[-1])
    sys.exit(0)


if __name__ == "__main__":
    main()
