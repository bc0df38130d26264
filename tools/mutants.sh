#!/bin/sh
# Mutant gate: every patch in tools/mutants/ re-introduces one bug this
# repository once had, and the tests named in its header must catch it.
#
#   tools/mutants.sh            # the working tree's tracked files
#
# A patch starts with free text, then two header lines, then the diff:
#
#   targets: <test executable> [...]   (built before running ctest)
#   ctest: <regex>                     (ctest -R; must match a test)
#
# The sources are exported with `git archive` into a throwaway directory
# under $TMPDIR (the working tree through `git stash create`, which
# records tracked changes without touching the tree) and built there
# once.  The named tests must pass on the unpatched copy first.  Then
# each patch is applied, its targets rebuilt and its tests run: at least
# one must fail.  The patch is reverted before the next one.  A patch
# that no longer applies, does not build, names no test, or survives
# fails the script; re-express it against today's code rather than
# deleting it.
set -eu

cd "$(dirname "$0")/.."
repo=$(pwd)
jobs=$(nproc 2>/dev/null || echo 4)
rev=$(git -c user.name=mutants -c user.email=mutants@localhost stash create)
rev=${rev:-HEAD}

start=$(date +%s)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
src="$work/src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"
git init -q "$src"  # so `git apply` resolves paths against the copy
cmake -B "$src/build" -S "$src" -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$work/configure.log"

header() {  # <patch> <key>
    sed -n "s/^$2: //p" "$1" | head -n 1
}

build_and_test() {  # <patch>; returns ctest's status
    # shellcheck disable=SC2046
    cmake --build "$src/build" -j "$jobs" --target $(header "$1" targets) \
        >"$work/build.log" 2>&1 || {
        tail -20 "$work/build.log"
        echo "FAIL: $(basename "$1"): build failed" >&2
        exit 1
    }
    (cd "$src/build" && ctest -R "$(header "$1" ctest)" --no-tests=error \
        -j "$jobs" >"$work/ctest.log" 2>&1)
}

killed=0
for patch in "$repo"/tools/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    if [ -z "$(header "$patch" targets)" ] || [ -z "$(header "$patch" ctest)" ]; then
        echo "FAIL: $name: no 'targets:' or 'ctest:' header" >&2
        exit 1
    fi
    if ! build_and_test "$patch"; then
        cat "$work/ctest.log"
        echo "FAIL: $name: its tests fail without the mutant" >&2
        exit 1
    fi
    (cd "$src" && git apply "$patch") || {
        echo "FAIL: $name: patch no longer applies; re-express it" >&2
        exit 1
    }
    if build_and_test "$patch"; then
        cat "$work/ctest.log"
        echo "FAIL: $name: mutant survived" >&2
        exit 1
    fi
    (cd "$src" && git apply -R "$patch")
    echo "killed: $name"
    killed=$((killed + 1))
done
echo "mutants OK: $killed killed in $(($(date +%s) - start)) s"
