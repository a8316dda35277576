#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and the benchmark binary are
built with CMake (Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; build output goes to stderr, so the last line of
standard output is the binary's result JSON. A traced run (--trace 1) also
writes its spans to <build dir>/traces/<workload>-seed<n>.json, which
Perfetto opens (see perfbench/README.md).

--self-test runs every workload of BENCHMARK.json at tiny sizes, in both
modes, and checks that each prints exactly the metrics BENCHMARK.json names,
with their units, and passes its correctness gate; it also checks the
inline protocol replay against the simulator.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture):
    """Run the binary to completion (killed after RUN_TIMEOUT_S)."""
    proc = subprocess.Popen([binary] + args,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, (stdout or b"").decode()


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, text = run_binary(binary, ["--self-test"], capture=True)
    print(text, end="")
    if code != 0:
        return False
    ok = True
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            code, text = run_binary(binary, args, capture=True)
            lines = text.strip().splitlines()
            problem = None
            if code != 0 or not lines:
                problem = "exit code %d" % code
            else:
                result = json.loads(lines[-1])
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problem = "result keys %s" % sorted(result)
                elif not result["correct"] or result["failed"] != 0:
                    problem = "correctness gate failed"
                elif got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    wrong = sorted(k for k in want if k in got and got[k] != want[k])
                    problem = "metrics missing %s, extra %s, wrong unit %s" % (
                        missing, extra, wrong)
            print("%-20s trace=%s %s" % (w["name"], trace,
                                         "ok" if problem is None else "FAIL: " + problem))
            ok = ok and problem is None
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if a.self_test:
        return 0 if self_test(binary) else 1

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    code, _ = run_binary(binary, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
