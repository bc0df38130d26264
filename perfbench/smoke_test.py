#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/smoke_test.py

Checks, for every workload in BENCHMARK.json:
  * untraced and traced runs pass their output checks and print every
    end-to-end / per-layer metric named in BENCHMARK.json, with its unit,
    plus the workload's own metric lines;
  * the virtual-time results repeat exactly for one seed, and a second,
    held-out seed changes rpc_reliable's drops and payloads while still
    passing every check;
  * a deliberately wrong expected value (--break-oracle) makes the run
    report a failure and exit non-zero.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Lines each workload prints above its result line.
WORKLOAD_LINES = {
    "rpc_small": ["calls_per_s", "call_us_p50", "call_us_p99", "wire_bytes_per_call",
                  "virtual_latency_p50_us", "virtual_latency_p99_us", "failed_call_ratio"],
    "rpc_reliable": ["calls_per_s", "call_us_p50", "call_us_p99", "wire_bytes_per_call",
                     "virtual_makespan_us", "virtual_latency_p50_us",
                     "virtual_latency_p99_us", "failed_call_ratio"],
    "fleet": ["tasks_per_s", "wire_bytes_per_call", "virtual_makespan_us",
              "virtual_latency_p50_us", "virtual_latency_p99_us", "failed_call_ratio"],
    "transform_jdk": ["transform_ms", "failed_call_ratio"],
}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)
    return ok


def run(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    printed = {}
    virtual = None
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) == 5:
            printed[parts[1]] = parts[4]
        elif parts and parts[0] == "virtual_results":
            virtual = line
    return p.returncode, result, printed, virtual, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads:
        for trace, declared in ((0, e2e), (1, layers)):
            code, result, printed, virtual, err = run(w, trace=trace)
            label = f"{w} trace={trace}"
            if not check(code == 0 and result is not None, f"{label}: exit {code}: {err[-400:]}"):
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: output checks failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared, f"{label}: metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(got.items()) ^ set(declared.items()))}")
            for name in WORKLOAD_LINES[w]:
                check(bool(printed.get(name)), f"{label}: no '{name}' line with a unit")
            check(virtual is not None, f"{label}: no virtual_results line")

        _, _, _, first, _ = run(w, seed=7)
        _, _, _, again, _ = run(w, seed=7)
        check(first is not None and first == again,
              f"{w}: virtual results differ between two runs of seed 7")

        code, result, _, _, _ = run(w, extra=["--break-oracle"])
        check(code != 0 and result is not None and not result["correct"] and result["failed"] >= 1,
              f"{w}: a wrong expected value did not trip the oracle (exit {code})")

    # The held-out seed changes the drop pattern and payload mix.
    code_a, _, _, virt_a, _ = run("rpc_reliable", seed=1)
    code_b, result_b, _, virt_b, _ = run("rpc_reliable", seed=1009)
    check(code_a == 0 and code_b == 0 and result_b is not None and result_b["correct"],
          "rpc_reliable: held-out seed 1009 fails its output checks")
    check(virt_a != virt_b, "rpc_reliable: seed 1009 gives the same virtual results as seed 1")

    print("smoke test:", "FAILED" if failures else "ok", f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
