#!/usr/bin/env sh
# Sanitizer gate: build the project three times, once per sanitizer,
# and run in each tree
#
#   * the tier-1 tests (ctest -j), and
#   * `crw-bench fig11 fig15 synth --no-cache --jobs N`, a parallel
#     sweep that exercises capture, flat predecode, lockstep batch
#     replay on the worker pool and the report layer.
#
# The trees are
#
#   <prefix>-undefined  -DCRW_SANITIZE=undefined, -fno-sanitize-recover=all
#   <prefix>-address    -DCRW_SANITIZE=address (LeakSanitizer included)
#   <prefix>-thread     -DCRW_SANITIZE=thread
#
# Every sanitizer halts on its first report, so a report fails the
# test or run that triggered it; the logs are also scanned for report
# banners. The script exits 1 if any build, test, run or report
# failed, and prints which. It is slow (three full builds) and is not
# part of tier-1.
#
# Usage: scripts/check_sanitizers.sh [build-prefix] [jobs]
#   build-prefix  path prefix of the three build trees
#                 (default: build-san, i.e. build-san-undefined, ...)
#   jobs          build/ctest parallelism and the crw-bench --jobs
#                 value (default: 4)
set -eu

prefix=${1:-build-san}
jobs=${2:-4}
src=$(cd "$(dirname "$0")/.." && pwd)

export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export ASAN_OPTIONS=halt_on_error=1:detect_leaks=1
export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1

reports='runtime error:|ERROR: AddressSanitizer|ERROR: LeakSanitizer|WARNING: ThreadSanitizer|ThreadSanitizer: reported'

status=0
fail() {
    echo "  FAIL $1"
    status=1
}

for san in undefined address thread; do
    tree="$prefix-$san"
    mkdir -p "$tree"
    tree=$(cd "$tree" && pwd)
    extra=""
    [ "$san" = undefined ] && extra="-fno-sanitize-recover=all"

    echo "== $san: build ($tree)"
    if ! { cmake -B "$tree" -S "$src" -DCRW_SANITIZE="$san" \
               -DCMAKE_CXX_FLAGS="$extra" &&
           cmake --build "$tree" -j "$jobs"; } > "$tree/build.log" 2>&1
    then
        fail "$san build (see $tree/build.log)"
        continue
    fi

    echo "== $san: tier-1 tests"
    if (cd "$tree" && ctest -j "$jobs" -L tier1 --output-on-failure) \
           > "$tree/ctest.log" 2>&1; then
        echo "  ok   $(grep 'tests passed' "$tree/ctest.log")"
    else
        fail "$san tier-1 tests (see $tree/ctest.log)"
    fi
    if grep -Eq "$reports" "$tree/ctest.log"; then
        fail "$san report in the tier-1 log (see $tree/ctest.log)"
    fi

    echo "== $san: crw-bench fig11 fig15 synth --no-cache --jobs $jobs"
    run="$tree/bench-run"
    rm -rf "$run"
    mkdir -p "$run"
    if (cd "$run" && "$tree/bench/crw-bench" fig11 fig15 synth \
            --no-cache --jobs "$jobs" > stdout.txt 2> stderr.txt); then
        echo "  ok   crw-bench exited 0"
    else
        fail "$san crw-bench run (see $run/stderr.txt)"
    fi
    if grep -Eq "$reports" "$run/stderr.txt"; then
        fail "$san report in the crw-bench run (see $run/stderr.txt)"
    fi
done

if [ "$status" -eq 0 ]; then
    echo "sanitizer check passed: UBSan, ASan and TSan report nothing" \
         "in the tier-1 tests or a --jobs $jobs crw-bench sweep"
else
    echo "sanitizer check FAILED" >&2
fi
exit "$status"
