#!/usr/bin/env python3
"""Build and run the host-performance benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's src/ libraries into
its own tree) under .bench_build/ -- or $CARGO_TARGET_DIR when set -- then
runs the benchmark binary with the same arguments.  The binary prints its
metrics and, as the last line, one JSON result object; this script adds
nothing to standard output.  A traced run (--trace 1) also writes its
spans to <build>/traces/<workload>.json, replacing the previous run's.  The exit code is the binary's: 0 when every
output check passed.  Build failures exit non-zero without a result.
"""
import os
import shutil
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


def build(out):
    """Configures once, then builds incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def main(argv):
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    args = list(argv)
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload', 'run')}.json"
        args += ["--trace-out", os.path.join(traces, name)]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
