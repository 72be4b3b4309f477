#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; all run files stay there too.
Every stdout line but the last is human-readable. The last line is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The exit status is non-zero when the build fails, when the
correctness gate fails, or when the emitted metrics do not match
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once and builds perfbench plus mmrfd-node. Build output
    goes to stderr so the last stdout line stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no library sources in %s; nothing to build" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench"), os.path.join(out, "mmrfd", "src",
                                                         "live", "mmrfd-node")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(binary, node, workload, seed, seconds, trace, quick=False):
    """Runs one invocation; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--node-bin", node,
           "--work-dir", work]
    if quick:
        cmd += ["--quick", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode, done.stdout.splitlines()


def check_result(lines, trace, spec):
    """Parses the last line and checks it against the metric contract.
    Returns (result, list of problems)."""
    if not lines:
        return None, ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(wanted):
        problems.append("missing %s, unexpected %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))))
    for name, unit in wanted.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            problems.append("metric %s: %s" % (name, m))
    return result, problems


def self_test(binary, node, spec):
    """Short-horizon pass of every workload, traced and untraced: each named
    metric must be emitted with its unit and the correctness gate must pass."""
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            code, lines = run(binary, node, w["name"], 1, 1, trace, quick=True)
            result, problems = check_result(lines, trace, spec)
            if code != 0:
                problems.append("exit status %d" % code)
            if result is not None and (not result["correct"] or result["failed"]):
                problems.append("correctness gate failed")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %s trace=%d: %s" % (w["name"], trace, status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    binary, node = build()
    spec = contract()
    if args.self_test:
        return self_test(binary, node, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload in turn; each prints its own result line.
        codes = [run_one(binary, node, spec, w, args) for w in names]
        return max(codes)
    if args.workload not in names:
        ap.error("--workload must be all or one of %s" % ", ".join(names))
    return run_one(binary, node, spec, args.workload, args)


def run_one(binary, node, spec, workload, args):
    code, lines = run(binary, node, workload, args.seed, args.seconds,
                      args.trace == 1)
    _, problems = check_result(lines, args.trace == 1, spec)
    if problems:
        print("\n".join(lines[:-1]))
        sys.stderr.write("perfbench: %s\n" % "; ".join(problems))
        return code or 4
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
