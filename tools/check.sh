#!/bin/sh
# Configure, build and run the full test suite for the default build and
# the ASan+UBSan build.  This is the pre-merge gate: both must be green.
#
#   tools/check.sh            # both presets
#   tools/check.sh sanitize   # just one
#
# The sanitize pass also builds the default preset's experiment runner (if
# needed) and byte-compares the two builds' 15 BENCH_E*.json sidecars.
#
# Not run here, because it builds twice: tools/sidecar_diff.sh <base-rev>
# builds <base-rev> from a throwaway checkout and byte-compares every
# BENCH_E*.json sidecar against the working tree's.  CI runs it on every
# pull request against the PR's base (the `sidecars` job in ci.yml).
set -eu

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
presets=${1:-"default sanitize"}

# The VM guards guest recursion at ~2000 frames, which fits comfortably in
# a default 8 MiB stack — but ASan multiplies native frame sizes, so the
# sanitizer build needs more headroom to reach the guest guard first.
ulimit -s 262144 2>/dev/null || ulimit -s unlimited 2>/dev/null || true

for preset in $presets; do
    echo "== preset: $preset =="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$jobs"
    ctest --preset "$preset" -j "$jobs"
done

case " $presets " in
*" default "*)
    # One meaning of now (gating): SimNetwork::now_us() is only the
    # network's horizon, for utilization denominators and reports.  No
    # runtime decision reads it: the driver and the controller run on the
    # event heap's clock, and each node's clock stamps its own work
    # (DESIGN.md §13).
    echo "== no runtime reads of the network horizon =="
    if grep -rn 'now_us()' src/runtime; then
        echo "FAIL: src/runtime reads SimNetwork::now_us()" >&2
        exit 1
    fi
    echo "horizon guard OK: src/runtime never calls now_us()"

    # One owner per placement fact (gating): only the Locator asks the
    # policy for a placement or touches the directory, and only a Node
    # touches its singleton registry (DESIGN.md §18).
    echo "== placement has one owner =="
    if grep -rlE 'directory_\.|(singleton|instance)_placement\(' src/runtime |
        grep -vE '/(locator|policy|directory)\.[hc]pp$'; then
        echo "FAIL: placement decided outside runtime/locator" >&2
        exit 1
    fi
    if grep -rl 'singletons_' src | grep -vE '/runtime/node\.[hc]pp$'; then
        echo "FAIL: a singleton registry written outside runtime/node" >&2
        exit 1
    fi
    echo "placement guard OK: the Locator places, each Node owns its registry"

    # Thread-pool stress (gating): the pool, the verifier's allocation
    # bound and pipeline determinism rerun up to 20 times under parallel
    # load, so a scheduling-dependent failure fails the gate instead of
    # passing most runs.
    echo "== thread-pool stress: 20 repeats under parallel load =="
    ctest --preset default -R 'ThreadPool\.|VerifierAlloc\.|PipelineDeterminism\.' \
        -j "$jobs" --repeat until-fail:20

    # Experiment determinism guard (gating): build/bench/experiments runs
    # E1-E15 (E13 at the 10^4-client smoke size) and writes one
    # BENCH_E<n>.json sidecar each.  Every sidecar value comes from the
    # seeded simulation or exact VM counters — host wall times are only
    # printed — so a second run must reproduce all 15 byte for byte.  This
    # also keeps the event heap, the pooled-buffer encode and the
    # batching, adaptation and durability off-states provably inert.  The
    # second run writes into the repo root (gitignored), where CI uploads
    # the sidecars as artifacts.
    echo "== experiments: two runs, 15 sidecars byte-identical =="
    det_dir=$(mktemp -d /tmp/rafda_det_XXXXXX)
    trap 'rm -rf "$det_dir"' EXIT INT TERM
    runner="$(pwd)/build/bench/experiments"
    (cd "$det_dir" && RAFDA_SCALE_CLIENTS=10000 "$runner") >"$det_dir/first.log"
    rm -f BENCH_E*.json
    RAFDA_SCALE_CLIENTS=10000 "$runner" >"$det_dir/second.log"
    [ "$(ls "$det_dir"/BENCH_E*.json | wc -l)" -eq 15 ]
    for f in "$det_dir"/BENCH_E*.json; do
        cmp "$f" "$(basename "$f")"
    done
    echo "experiment determinism OK: all 15 sidecars byte-identical across runs"

    # Doc numbers (gating): every number EXPERIMENTS.md tags with its
    # sidecar field (`<!-- E5.RMI_wire_bytes_per_call -->`) must equal
    # that field of the sidecars this run just wrote.
    echo "== EXPERIMENTS.md tagged numbers =="
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/doc_check.py --sidecars .
    else
        echo "WARN: python3 not found; doc_check skipped"
    fi

    # Durability invariants (gating): E15's own summary must assert
    # exactly-once across the crash (executions == tasks after WAL
    # replay) and a relocation identical to the uncrashed baseline.
    echo "== durability invariants (E15) =="
    grep -q '"exactly_once":1' BENCH_E15.json
    grep -q '"relocation_match":1' BENCH_E15.json
    echo "durability invariants OK: exactly_once + relocation_match"

    # Reliability, batching and adaptation invariants (gating): E10's
    # retries+dedup run must execute every task exactly once; E12's
    # batched run must return the unbatched run's results, stay
    # exactly-once under the E10 fault plan and replay bit for bit; and
    # E14's adapted run must return each client the same stream as the
    # unadapted run, beat it on makespan and wire bytes, and replay bit
    # for bit.
    echo "== reliability, batching and adaptation invariants (E10 E12 E14) =="
    grep -q '"exactly_once":1' BENCH_E10.json
    grep -q '"identical_results":1' BENCH_E12.json
    grep -q '"faulty_exactly_once":1' BENCH_E12.json
    grep -q '"deterministic":1' BENCH_E12.json
    grep -q '"identical_results":1' BENCH_E14.json
    grep -q '"adapted_wins":1' BENCH_E14.json
    grep -q '"deterministic":1' BENCH_E14.json
    echo "invariants OK: E10 exactly_once, E12 identical_results + faulty_exactly_once + deterministic, E14 identical_results + adapted_wins + deterministic"

    # Scheduler determinism contract (gating): the event-heap refactor's
    # headline claim — dispatch order is a pure function of workload and
    # seed — is recorded by E13's summary fields.  Promote them from
    # reviewed numbers to asserted invariants: the sidecar must say
    # deterministic:1 and carry the event-order digest it proved it with.
    # E14 makes the same claim for the closed-loop controller.
    echo "== determinism fields (E13 E14 E15) =="
    for id in E13 E14 E15; do
        grep -q '"deterministic":1' "BENCH_$id.json"
        grep -q '"event_order_digest":' "BENCH_$id.json"
    done
    echo "determinism fields OK: E13/E14/E15 assert deterministic:1 + digest"

    # BENCH sidecar schema sanity (gating): every BENCH_*.json the runner
    # produced must parse as a single JSON object whose experiment id
    # matches its filename, with numeric (not stringified) metric values.
    echo "== BENCH schema sanity =="
    if command -v python3 >/dev/null 2>&1; then
        python3 - BENCH_*.json <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert isinstance(doc, dict), f"{path}: not a JSON object"
    expect = path[len("BENCH_"):-len(".json")]
    assert doc.get("experiment") == expect, \
        f"{path}: experiment id {doc.get('experiment')!r} != {expect!r}"
    numeric = [k for k, v in doc.items() if isinstance(v, (int, float))]
    assert numeric, f"{path}: no numeric metrics"
print(f"BENCH schema OK: {len(sys.argv) - 1} sidecars")
PYEOF
    else
        # Fallback without python3: every sidecar names its experiment.
        for f in BENCH_*.json; do
            id=${f#BENCH_}; id=${id%.json}
            grep -q "\"experiment\":\"$id\"" "$f"
        done
        echo "BENCH schema OK (grep fallback)"
    fi

    # Chrome trace export contract (gating): `rafdac trace --chrome` must
    # emit trace-event JSON that parses and carries the ph/ts/pid fields
    # Perfetto's legacy ingest requires on every event.  The trap cleans
    # the temp file even when validation aborts mid-way (set -e).
    echo "== chrome trace validation =="
    trace_out=$(mktemp /tmp/rafda_trace_XXXXXX.json)
    trap 'rm -rf "$det_dir"; rm -f "$trace_out"' EXIT INT TERM
    build/tools/rafdac trace examples/fig1.rir examples/fig1.cfg Main 2 \
        --chrome "$trace_out" >/dev/null 2>&1
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$trace_out" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "empty traceEvents"
for e in events:
    for key in ("ph", "ts", "pid"):
        assert key in e, f"event missing {key}: {e}"
print(f"chrome trace OK: {len(events)} events")
PYEOF
    else
        # Fallback without python3: spot-check the required fields exist.
        grep -q '"traceEvents":\[{' "$trace_out"
        grep -q '"ph":"X"' "$trace_out"
        grep -q '"ts":' "$trace_out"
        grep -q '"pid":' "$trace_out"
        echo "chrome trace OK (grep fallback)"
    fi

    # Host-performance benchmark smoke (non-gating): perfbench/ builds its
    # own copy of src/ under .bench_build/ and runs every workload at tiny
    # sizes, checking metric names, same-seed repeatability and that a
    # broken oracle fails the run (perfbench/NOTES.md).
    echo "== perf smoke: perfbench =="
    if command -v python3 >/dev/null 2>&1; then
        python3 perfbench/smoke_test.py ||
            echo "WARN: perfbench smoke failed (non-gating)"
    else
        echo "WARN: python3 not found; perfbench smoke skipped (non-gating)"
    fi
    ;;
esac

# Fuzz smokes (gating when the sanitize preset ran).  WAL replay: the torn-tail
# sweeps (log and reply stream) and the bit-flip fuzz replay adversarial byte
# streams through the frame decoder — exactly the code that parses untrusted
# durable state on recovery — and the CRC sweep runs the slicing-by-8
# kernel's word loads over exactly-sized buffers, all under ASan+UBSan.
case " $presets " in
*" sanitize "*)
    echo "== WAL replay fuzz smoke (sanitize) =="
    build-sanitize/tests/runtime/wal_test \
        --gtest_filter='Wal.TornTail*:Wal.BitFlip*:Wal.Crc*'
    # RIRB/verifier fuzz smoke: seeded byte flips in a transformed pool's
    # .rirb bytes go through load_pool and verify_pool_collect (the path a
    # corrupt artefact takes), plus the hand-built negative branch/handler
    # targets and cyclic-hierarchy lookups, all under ASan+UBSan.
    echo "== RIRB/verifier fuzz smoke (sanitize) =="
    build-sanitize/tests/model/binio_test --gtest_filter='BinIoFuzz.*'
    build-sanitize/tests/model/verifier_test \
        --gtest_filter='Verifier.Negative*:Verifier.LookupsOnACyclicHierarchyEnd'
    # Codec fuzz smoke: every truncation and seeded bit flips of valid
    # RMIB, CORBX and SOAPX frames (the bytes a node takes off the
    # network) decode or throw CodecError, also when decoded into a
    # reused request that the next good frame must overwrite, plus the
    # SOAPX nesting bomb and the hex wire goldens, which pin the inline
    # fixed-width ByteWriter/ByteReader primitives byte for byte.
    echo "== codec fuzz smoke (sanitize) =="
    build-sanitize/tests/net/codecs_test \
        --gtest_filter='*CodecFuzz.*:*ReusedDecodeTarget*:WireGolden.*:Codecs.RmibBaseFrameLayout*:Codecs.SoapRejectsDeepNesting*:Codecs.BinaryCodecsReject*'

    # Cross-build check (gating): every sidecar value comes from the seeded
    # simulation or exact VM counters, so the Debug+ASan+UBSan runner must
    # write the same 15 sidecars as the default RelWithDebInfo runner.  A
    # number that depends on undefined behaviour or on the optimiser fails
    # here.  The default runner is (re)built first if it is missing or stale.
    echo "== cross-build: sanitize sidecars byte-identical to default =="
    [ -f build/CMakeCache.txt ] || cmake --preset default
    cmake --build build -j "$jobs" --target experiments
    xb_dir=$(mktemp -d /tmp/rafda_xbuild_XXXXXX)
    trap 'rm -rf "${det_dir:-}" "$xb_dir"; rm -f "${trace_out:-}"' EXIT INT TERM
    for side in build build-sanitize; do
        runner="$(pwd)/$side/bench/experiments"
        mkdir "$xb_dir/$side"
        (cd "$xb_dir/$side" && RAFDA_SCALE_CLIENTS=10000 "$runner") >"$xb_dir/$side.log"
    done
    [ "$(ls "$xb_dir"/build-sanitize/BENCH_E*.json | wc -l)" -eq 15 ]
    for f in "$xb_dir"/build/BENCH_E*.json; do
        cmp "$f" "$xb_dir/build-sanitize/$(basename "$f")"
    done
    echo "cross-build OK: all 15 sidecars identical between default and sanitize"
    ;;
esac
