#!/bin/sh
# Line and function coverage of src/ by the test suite and the experiment
# runner.  Non-gating: it reports, it never fails on a low figure.
#
#   tools/coverage.sh [build-dir]     # default: build-coverage
#
# Configures an unoptimised build with --coverage in <build-dir>, runs
# ctest and then `experiments` (all of E1-E15, E13 at check.sh's
# 10^4-client smoke size), and reads every .gcda the runs left through
# `gcov --json-format`.  A line or function defined under src/ counts as
# executed when any translation unit that compiled it ran it, so a header
# function inlined into a test still counts.  Prints the executed share
# of src/'s executable lines and lists every src/ function that never ran
# (file:line and demangled name) — the census of code nothing exercises.
# Needs gcc's gcov and python3; a failing test or experiment is reported
# as a warning and the census still runs.
set -eu

cd "$(dirname "$0")/.."
repo=$(pwd)
bdir=${1:-build-coverage}
jobs=$(nproc 2>/dev/null || echo 4)

echo "== building $bdir with --coverage =="
cmake -B "$bdir" -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$bdir" -j "$jobs" >"$bdir/coverage-build.log" 2>&1 || {
    tail -20 "$bdir/coverage-build.log"
    exit 2
}
find "$bdir" -name '*.gcda' -delete

echo "== ctest =="
(cd "$bdir" && ctest -j "$jobs") >"$bdir/coverage-ctest.log" 2>&1 ||
    echo "WARN: ctest failed (see $bdir/coverage-ctest.log)"
echo "== experiments =="
mkdir -p "$bdir/coverage-experiments"
(cd "$bdir/coverage-experiments" && RAFDA_SCALE_CLIENTS=10000 ../bench/experiments) \
    >"$bdir/coverage-experiments.log" 2>&1 ||
    echo "WARN: experiments exited non-zero (see $bdir/coverage-experiments.log)"

echo "== gcov census of src/ =="
python3 - "$repo" "$bdir" <<'EOF'
import json, os, subprocess, sys

repo, bdir = sys.argv[1], os.path.abspath(sys.argv[2])
src = os.path.join(repo, "src") + os.sep
gcdas = sorted(os.path.join(d, f) for d, _, fs in os.walk(bdir) for f in fs
               if f.endswith(".gcda"))
lines = {}  # (file, line) -> executed
funcs = {}  # (file, line, name) -> executed
for k in range(0, len(gcdas), 64):
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcdas[k:k + 64]],
                         cwd=bdir, capture_output=True, text=True, check=True).stdout
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(bdir, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, repo)
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0
            for fn in f["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                funcs[key] = funcs.get(key, False) or fn["execution_count"] > 0

if not lines:
    sys.exit("no src/ coverage data: did the build run?")
ran = sum(lines.values())
print(f"src/ lines: {ran}/{len(lines)} executed ({100.0 * ran / len(lines):.1f} %)")
never = sorted(k for k, v in funcs.items() if not v)
print(f"src/ functions: {len(funcs) - len(never)}/{len(funcs)} ran; never ran: {len(never)}")
for rel, line, name in never:
    print(f"  {rel}:{line}  {name}")
EOF
