#!/bin/sh
# Byte-compare every BENCH_E*.json sidecar of the working tree against the
# same sidecar built from another revision.
#
#   tools/sidecar_diff.sh <base-rev>
#
# <base-rev> is exported with `git archive` into a throwaway directory
# (under $TMPDIR, removed on exit) and its experiment runner is built
# there; the working tree's runner is built in build/ as the tier-1
# command does.  Both sides then run `experiments` (all of E1-E15, E13 at
# check.sh's 10^4-client smoke size) from their own output directory, and
# every BENCH_E*.json is compared byte for byte.  Sidecars hold no host
# timings, so nothing is masked.  A sidecar that differs is printed field
# by field: one line per JSON path (dotted, as tools/doc_check.py tags
# name them) with its before -> after value, or as a plain diff when
# python3 is missing.  <base-rev> must already have the runner
# (bench/experiments.cpp); older revisions are refused.
#
# Exits non-zero on any difference or on a sidecar present on one side
# only.  Not part of check.sh's default path: it builds twice.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 1
fi
base_rev=$1
cd "$(dirname "$0")/.."
repo=$(pwd)
jobs=$(nproc 2>/dev/null || echo 4)

if ! git cat-file -e "$base_rev:bench/experiments.cpp" 2>/dev/null; then
    echo "$0: $base_rev has no bench/experiments.cpp; it predates the" \
         "experiment runner, so its sidecars cannot be produced the same way" >&2
    exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

build_side() {  # <source dir> <build dir> <log>
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build "$2" -j "$jobs" --target experiments >"$3" 2>&1 || {
        tail -20 "$3"
        exit 2
    }
}

echo "== building $base_rev (throwaway checkout) =="
mkdir -p "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"
build_side "$work/base" "$work/base/build" "$work/base-build.log"
echo "== building the working tree =="
build_side . build "$work/head-build.log"

run_side() {  # <build dir> <output dir>
    mkdir -p "$2"
    (cd "$2" && RAFDA_SCALE_CLIENTS=10000 "$1/bench/experiments") >"$2/run.log" 2>&1 ||
        echo "WARN: experiments exited non-zero in $2 (see run.log)"
}

echo "== running experiments: $base_rev =="
run_side "$work/base/build" "$work/out-base"
echo "== running experiments: working tree =="
run_side "$repo/build" "$work/out-head"

field_diff() {  # <before.json> <after.json>
    command -v python3 >/dev/null 2>&1 && python3 - "$1" "$2" <<'EOF' && return
import json
import sys


def flatten(value, path, out):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        out[path] = json.dumps(value)
        return out
    for key, item in items:
        flatten(item, f"{path}.{key}" if path else str(key), out)
    return out


with open(sys.argv[1]) as f:
    before = flatten(json.load(f), "", {})
with open(sys.argv[2]) as f:
    after = flatten(json.load(f), "", {})
for path in list(before) + [p for p in after if p not in before]:
    old, new = before.get(path, "(absent)"), after.get(path, "(absent)")
    if old != new:
        print(f"  {path}: {old} -> {new}")
EOF
    diff "$1" "$2" || true
}

echo "== comparing sidecars =="
status=0
for f in $( (cd "$work/out-base" && ls BENCH_E*.json; cd "$work/out-head" && ls BENCH_E*.json) |
            sort -uV); do
    if [ ! -f "$work/out-base/$f" ] || [ ! -f "$work/out-head/$f" ]; then
        echo "MISSING $f (present on one side only)"
        status=1
    elif cmp -s "$work/out-base/$f" "$work/out-head/$f"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        field_diff "$work/out-base/$f" "$work/out-head/$f"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "sidecar diff OK: every BENCH_E* sidecar byte-identical to $base_rev"
else
    echo "sidecar diff FAILED against $base_rev"
fi
exit "$status"
