#!/usr/bin/env sh
# Build and run the sweep worker-pool test surface under
# ThreadSanitizer, as a ctest entry (tsan_sweep_runner, label tsan).
#
# The simulator itself is single-threaded; the only host concurrency is
# the SweepRunner pool behind --jobs, where worker threads run separate
# chips and share the job queue, the outcome table, the journal, the
# process-wide debug defaults and the lazily built harness fault plan.
# TSan checks that sharing mechanically: it runs all of harness_test
# (the pool, retries, budgets, quarantine) and the observability tests
# that run multi-worker sweeps, and fails on any data race the
# happens-before graph does not cover.
#
# Uses its own nested build tree (like sanitize_tests.sh) so the TSan
# flags never leak into the primary build; the tree is reused
# incrementally across runs.
#
# Usage: tsan_tests.sh <source-root> <build-dir>
# Exit: 0 pass, 77 skipped (no TSan runtime), anything else fail.

set -u

src=${1:?usage: tsan_tests.sh <source-root> <build-dir>}
bld=${2:?usage: tsan_tests.sh <source-root> <build-dir>}

# Probe for a working TSan toolchain; skip (ctest SKIP_RETURN_CODE 77)
# rather than fail where the runtime library is not installed.
probe_dir=$(mktemp -d) || exit 1
trap 'rm -rf "$probe_dir"' EXIT
printf 'int main(){return 0;}\n' > "$probe_dir/probe.cc"
if ! c++ -fsanitize=thread "$probe_dir/probe.cc" \
        -o "$probe_dir/probe" 2> /dev/null || ! "$probe_dir/probe"; then
    echo "tsan_tests: no usable ThreadSanitizer toolchain; skipping" >&2
    exit 77
fi

cmake -S "$src" -B "$bld" \
      -DCBSIM_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      > "$bld.configure.log" 2>&1 || {
    echo "tsan_tests: configure failed; see $bld.configure.log" >&2
    exit 1
}
cmake --build "$bld" -j "$(nproc)" \
      --target obs_test harness_test \
      > "$bld.build.log" 2>&1 || {
    echo "tsan_tests: build failed; see $bld.build.log" >&2
    tail -n 40 "$bld.build.log" >&2
    exit 1
}

TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}
export TSAN_OPTIONS

status=0
echo "tsan_tests: running obs_test (multi-worker sweeps)"
"$bld/tests/obs_test" --gtest_filter='ObsInteraction.*:CausalDeterminism.*:GoldenTrace.*:AttributionDeterminism.*' || status=1
echo "tsan_tests: running harness_test (sweep worker pool)"
"$bld/tests/harness_test" || status=1
exit $status
