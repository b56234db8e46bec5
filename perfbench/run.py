#!/usr/bin/env python3
"""Builds the HEALER benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-burst --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare A.json B.json

The first call configures and builds perfbench/CMakeLists.txt (which
compiles ../src) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Full records, with host conditions, are written
to .bench_build/perfbench-out/.

--selftest runs every workload of BENCHMARK.json at tiny size, traced and
untraced, and checks that every named metric is printed with its unit and
every correctness check passes.

--compare reads two full records of the same workload and seed and prints
each metric's change, or reports the comparison invalid when the records
come from different hosts, build types or compilers.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no HEALER sources at %s/src" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                           "-j", jobs], stdout=sys.stderr)
    if step.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def run(workload, seed, seconds, trace, tiny=False):
    """Runs the binary; returns (exit code, stdout text)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run(workload["name"], 7, 2, trace, tiny=True)
            result = result_line(stdout)
            where = "%s --trace %d" % (workload["name"], trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness checks failed" % where)
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s: %s missing or wrong unit" %
                                    (where, metric["name"]))
                elif ("metric %s " % metric["name"]) not in stdout:
                    problems.append("%s: %s not printed" % (where, metric["name"]))
            print("selftest %s: %d metrics, correct=%s" %
                  (where, len(result["metrics"]), result["correct"]))
    for problem in problems:
        print("selftest FAILED: " + problem)
    print("selftest %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    # Simulated counts depend on the coverage site ids. They are comparable
    # across checkouts only because the build maps the source root away;
    # a record without that mapping is comparable only at the same root.
    for key in ("nproc", "build_type", "compiler", "cov_site_ids"):
        if a["host"].get(key) != b["host"].get(key):
            print("comparison invalid: %s differs (%s vs %s)" %
                  (key, a["host"].get(key), b["host"].get(key)))
            return 1
    if a["host"].get("cov_site_ids") != "root-relative" and \
            a["host"]["source_root"] != b["host"]["source_root"]:
        print("comparison invalid: source roots differ and coverage site ids "
              "hash the absolute path")
        return 1
    if (a["workload"], a["seed"], a["seconds"], a["trace"]) != \
            (b["workload"], b["seed"], b["seconds"], b["trace"]):
        print("comparison invalid: different workload, seed, seconds or trace")
        return 1
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        change = (vb - va) / abs(va) if va else float("nan")
        print("%-36s %14.6g %14.6g %+8.2f%% %s" %
              (name, va, vb, 100 * change, a["metrics"][name]["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    build()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    code, stdout = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(stdout)
    if code != 0 or result_line(stdout) is None:
        fail("%s exited with %d" % (args.workload, code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
