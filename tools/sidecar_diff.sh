#!/bin/sh
# Byte-compare every BENCH_E*.json sidecar of the working tree against the
# same sidecar built from another revision.
#
#   tools/sidecar_diff.sh <base-rev>
#
# <base-rev> is exported with `git archive` into a throwaway directory
# (under $TMPDIR, removed on exit) and its benches are built there; the
# working tree's benches are built in build/ as the tier-1 command does.
# Both sides then run every bench_* binary with check.sh's short settings
# (--benchmark_min_time=0.05s; bench_scale at the 10k-client smoke size)
# from their own output directory, and every BENCH_E*.json is compared
# byte for byte with only the host-timing fields masked:
#
#   E3   analyze_us_serial, analyze_us_pooled
#   E11  host_overhead_pct
#   E13  peak_rss_kb
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

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

benches() {
    for src in "$1"/bench/bench_*.cpp; do
        basename "$src" .cpp
    done
}

echo "== building $base_rev (throwaway checkout) =="
mkdir -p "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"
cmake -B "$work/base/build" -S "$work/base" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/dev/null
# shellcheck disable=SC2046
cmake --build "$work/base/build" -j "$jobs" --target $(benches "$work/base") \
    >"$work/base-build.log" 2>&1 || {
    tail -20 "$work/base-build.log"
    exit 2
}

echo "== building the working tree =="
cmake -B build -S . >/dev/null
# shellcheck disable=SC2046
cmake --build build -j "$jobs" --target $(benches .) >"$work/head-build.log" 2>&1 || {
    tail -20 "$work/head-build.log"
    exit 2
}

run_side() {  # <tree> <build dir> <output dir>
    mkdir -p "$3"
    for bench in $(benches "$1"); do
        [ -x "$2/bench/$bench" ] || continue
        if [ "$bench" = bench_scale ]; then
            (cd "$3" && RAFDA_SCALE_CLIENTS=10000 \
                "$2/bench/$bench" --benchmark_min_time=0.01s) >"$3/$bench.log" 2>&1
        else
            (cd "$3" && "$2/bench/$bench" --benchmark_min_time=0.05s) \
                >"$3/$bench.log" 2>&1
        fi || echo "WARN: $bench exited non-zero (see its log)"
    done
}

mask() {  # <sidecar>: prints it with the host-timing fields masked
    case $(basename "$1") in
    BENCH_E3.json) fields='analyze_us_serial|analyze_us_pooled' ;;
    BENCH_E11.json) fields='host_overhead_pct' ;;
    BENCH_E13.json) fields='peak_rss_kb' ;;
    *) cat "$1"; return ;;
    esac
    sed -E "s/\"($fields)\":[-+.0-9eE]+/\"\\1\":\"masked\"/g" "$1"
}

echo "== running benches: $base_rev =="
run_side "$work/base" "$work/base/build" "$work/out-base"
echo "== running benches: working tree =="
run_side "$repo" "$repo/build" "$work/out-head"

echo "== comparing sidecars =="
status=0
for f in $( (cd "$work/out-base" && ls BENCH_E*.json; cd "$work/out-head" && ls BENCH_E*.json) |
            sort -uV); do
    if [ ! -f "$work/out-base/$f" ] || [ ! -f "$work/out-head/$f" ]; then
        echo "MISSING $f (present on one side only)"
        status=1
    elif mask "$work/out-base/$f" >"$work/base.masked" &&
         mask "$work/out-head/$f" >"$work/head.masked" &&
         cmp -s "$work/base.masked" "$work/head.masked"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        diff "$work/base.masked" "$work/head.masked" || true
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "sidecar diff OK: every BENCH_E* sidecar byte-identical to $base_rev"
else
    echo "sidecar diff FAILED against $base_rev"
fi
exit "$status"
