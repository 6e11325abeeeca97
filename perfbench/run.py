#!/usr/bin/env python3
"""perfq end-to-end benchmark runner.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload caida_serial --seed 1 --seconds 10 --trace 0

The first call builds perfbench (perfq's library sources plus the benchmark
main) in Release mode under $CARGO_TARGET_DIR (default .bench_build); later
calls reuse the build. The benchmark's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer ledger.

Other modes:

    python3 perfbench/run.py --smoke     # every workload at tiny scale, both
                                         # trace modes, checked against
                                         # BENCHMARK.json; the benchmark's test
    python3 perfbench/run.py --heldout   # every workload on the default and a
                                         # held-out seed, side by side
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["caida_serial", "service_sharded", "fabric_federated"]
DEFAULT_SEED = 1
HELDOUT_SEED = 20161109
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine_api.hpp")):
        log("perfbench: perfq sources (src/) not found next to perfbench/")
        sys.exit(1)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, scale=1.0, echo=True):
    """Run one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale),
           "--trace-dir", os.path.relpath(os.path.join(build_dir(), "traces"), ROOT)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = stdout.splitlines()
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            log("perfbench: last output line is not JSON")
            return 1, lines, None
    return proc.returncode, lines, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary):
    """Every workload, both trace modes, tiny inputs: outputs must check out
    and the metric names must match BENCHMARK.json."""
    s = spec()
    want = {0: [m["name"] for m in s["end_to_end"]],
            1: [m["name"] for m in s["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_once(binary, workload, 7, 0.3, trace,
                                       scale=0.05, echo=False)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}, no result")
            else:
                if not result["correct"]:
                    problems.append("output check failed")
                if result["failed"] != 0:
                    problems.append(f"{result['failed']} operations failed")
                if sorted(result["metrics"]) != sorted(want[trace]):
                    problems.append("metric names differ from BENCHMARK.json")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def heldout(binary, seconds):
    """Each workload on the default and the held-out seed, side by side."""
    names = [m["name"] for m in spec()["end_to_end"]]
    ok = True
    for workload in WORKLOADS:
        rows = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            code, lines, result = run_once(binary, workload, seed, seconds, 0,
                                           echo=False)
            if code != 0 or result is None:
                print(f"{workload} seed {seed}: failed (exit {code})")
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            rows[seed] = result
            for line in lines:
                if line.startswith("# context: records") or \
                        line.startswith("# context: switches"):
                    print(f"{workload} seed {seed} {line[2:]}")
        print(f"{workload}: correct/failed = " + ", ".join(
            f"seed {s}: {r['correct']}/{r['failed']}" for s, r in rows.items()))
        for name in names:
            cells = [f"{rows[s]['metrics'][name]['value']:.6g}"
                     if s in rows else "-" for s in (DEFAULT_SEED, HELDOUT_SEED)]
            unit = next(iter(rows.values()))["metrics"][name]["unit"] if rows else ""
            print(f"  {name:16s} {cells[0]:>14s} {cells[1]:>14s}  {unit}")
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--heldout", action="store_true")
    args = p.parse_args()
    if not (args.smoke or args.heldout or args.workload):
        p.error("--workload, --smoke or --heldout is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    if args.smoke:
        return smoke(binary)
    if args.heldout:
        return heldout(binary, args.seconds)
    code, _, result = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
