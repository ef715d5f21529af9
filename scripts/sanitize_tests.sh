#!/usr/bin/env sh
# Build and run the sim/noc/mem/protocol unit tests plus the
# robustness/soak tier under AddressSanitizer + UndefinedBehaviorSanitizer,
# as a ctest tier-2 entry (sanitize_sim_noc).
#
# The allocation-free event path (sim/event.hh) manages object lifetimes
# by hand (placement-new, manual relocation/destruction); this catches
# use-after-move, buffer overruns, and alignment bugs mechanically. The
# cache arrays (mem/cache_array.hh) keep raw, uninitialised line storage
# behind a validity bitmap; mem_test and protocol_test run that storage
# and the bitmap's shifts under both sanitizers. isa_test and
# sync_test run the assembler's label fixups (label ids indexed into
# the bound-position table at assemble time) and the layout's
# line-name table that the sync builders fill. The
# soak tier additionally drives the fault-injection recovery paths
# (forced callback-directory evictions, delayed messages) under the
# sanitizers, and the chaos tier (crash_safety_test) covers the
# crash-safe sweep layer's fork + pipe teardown and journal I/O —
# see docs/ROBUSTNESS.md. report_test drives the hand-written
# recursive-descent JSON parser and the paper views built on it;
# obs_test covers the observation layer (attribution shards, causal
# stitching, epochs, trace export).
#
# Uses a nested build tree so the sanitizer flags never leak into the
# primary build; the tree is reused incrementally across runs.
#
# Usage: sanitize_tests.sh <source-root> <build-dir>
# Exit: 0 pass, 77 skipped (no sanitizer runtime), anything else fail.

set -u

src=${1:?usage: sanitize_tests.sh <source-root> <build-dir>}
bld=${2:?usage: sanitize_tests.sh <source-root> <build-dir>}

# Probe for a working ASan+UBSan toolchain; skip (ctest SKIP_RETURN_CODE
# 77) rather than fail where the runtime libraries are not installed.
probe_dir=$(mktemp -d) || exit 1
trap 'rm -rf "$probe_dir"' EXIT
printf 'int main(){return 0;}\n' > "$probe_dir/probe.cc"
if ! c++ -fsanitize=address,undefined "$probe_dir/probe.cc" \
        -o "$probe_dir/probe" 2> /dev/null || ! "$probe_dir/probe"; then
    echo "sanitize_tests: no usable ASan+UBSan toolchain; skipping" >&2
    exit 77
fi

cmake -S "$src" -B "$bld" \
      -DCBSIM_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      > "$bld.configure.log" 2>&1 || {
    echo "sanitize_tests: configure failed; see $bld.configure.log" >&2
    exit 1
}
cmake --build "$bld" -j "$(nproc)" \
      --target sim_test noc_test mem_test protocol_test debug_test \
               soak_test harness_test crash_safety_test isa_test \
               sync_test report_test obs_test \
      > "$bld.build.log" 2>&1 || {
    echo "sanitize_tests: build failed; see $bld.build.log" >&2
    tail -n 40 "$bld.build.log" >&2
    exit 1
}

ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}
export ASAN_OPTIONS UBSAN_OPTIONS

status=0
for bin in "$bld/tests/sim_test" "$bld/tests/noc_test" \
           "$bld/tests/mem_test" "$bld/tests/protocol_test" \
           "$bld/tests/debug_test" "$bld/tests/soak_test" \
           "$bld/tests/harness_test" "$bld/tests/crash_safety_test" \
           "$bld/tests/isa_test" "$bld/tests/sync_test" \
           "$bld/tests/report_test" "$bld/tests/obs_test"; do
    echo "sanitize_tests: running $bin"
    "$bin" || status=1
done
exit $status
