#!/usr/bin/env sh
# Numeric flag validation for both bench drivers, run as a ctest entry
# (bench_flag_parsing).
#
# Every count flag (--jobs, --max-failures, --retries on bench_all;
# --repeat on bench_perf_kernel) goes through one range-checked parser,
# and bench_all's --job-timeout-s through a finite-decimal one.
# A malformed or out-of-range value must exit with status 2 and name
# the flag on stderr — not abort on an uncaught exception (134) and not
# wrap silently to a small count. The same holds for bench_all's
# numeric environment: a bad CBSIM_OBS_EPOCH exits 2 naming the
# variable, before any cell runs. A bench_all flag that takes a value
# also takes it as "--flag=VALUE", and given last with no value it
# exits 2 with "<flag>: missing value".
#
# Usage: check_bench_flags.sh <bench_all-binary> <bench_perf_kernel-binary>

set -u

bench_all=${1:?usage: check_bench_flags.sh <bench_all> <bench_perf_kernel>}
perf=${2:?usage: check_bench_flags.sh <bench_all> <bench_perf_kernel>}

status=0
log=$(mktemp) || exit 1
trap 'rm -f "$log"' EXIT

# expect_usage_error <flag-name> <binary> <args...>
expect_usage_error() {
    flag=$1
    shift
    "$@" > /dev/null 2> "$log"
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check_bench_flags: '$*' exited $rc, want 2" >&2
        status=1
    elif ! grep -q -- "^$flag: " "$log"; then
        echo "check_bench_flags: '$*' did not name $flag:" >&2
        cat "$log" >&2
        status=1
    fi
}

for bad in abc -1 +1 '' 1x 4294967296 4294967297 \
           99999999999999999999999; do
    expect_usage_error --jobs "$bench_all" --list --jobs "$bad"
    expect_usage_error --jobs "$bench_all" --list "--jobs=$bad"
    expect_usage_error --max-failures "$bench_all" --list \
        --max-failures "$bad"
    expect_usage_error --retries "$bench_all" --list --retries "$bad"
    expect_usage_error --repeat "$perf" --no-json --repeat "$bad"
done

# --job-timeout-s takes a finite, non-negative decimal number of
# seconds: strtod alone would also accept infinities, NaN and hex.
for bad in abc -1 '' 1x inf infinity -inf nan 1e999 0x10; do
    expect_usage_error --job-timeout-s "$bench_all" --list \
        --job-timeout-s "$bad"
    expect_usage_error --job-timeout-s "$bench_all" --list \
        "--job-timeout-s=$bad"
done
for good in 0 0.0005 2.5 1e6; do
    if ! "$bench_all" --list --job-timeout-s "$good" > /dev/null 2>&1; then
        echo "check_bench_flags: --job-timeout-s $good rejected" >&2
        status=1
    fi
done

# CBSIM_OBS_EPOCH is a plain decimal tick count; unset, empty or 0 = off.
for bad in -1 50k abc 99999999999999999999999 +1 ' 5'; do
    CBSIM_OBS_EPOCH=$bad "$bench_all" --list > /dev/null 2> "$log"
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check_bench_flags: CBSIM_OBS_EPOCH='$bad' exited $rc, want 2" >&2
        status=1
    elif ! grep -q -- "CBSIM_OBS_EPOCH: " "$log"; then
        echo "check_bench_flags: CBSIM_OBS_EPOCH='$bad' not named:" >&2
        cat "$log" >&2
        status=1
    fi
done
for good in '' 0 50000 18446744073709551615; do
    if ! CBSIM_OBS_EPOCH=$good "$bench_all" --list > /dev/null 2>&1; then
        echo "check_bench_flags: CBSIM_OBS_EPOCH='$good' rejected" >&2
        status=1
    fi
done

# A valued flag given last has no value: exit 2 naming the flag, not
# "unknown option".
for flag in --jobs --max-failures --retries --job-timeout-s; do
    expect_usage_error "$flag" "$bench_all" --list "$flag"
done

# --only takes the "=" form like every other valued flag.
if ! "$bench_all" --only=fig20_sync --list > "$log" 2>&1; then
    echo "check_bench_flags: --only=fig20_sync rejected:" >&2
    cat "$log" >&2
    status=1
elif [ "$(grep -c . "$log")" -ne 1 ] || ! grep -q '^fig20_sync ' "$log"; then
    echo "check_bench_flags: --only=fig20_sync --list printed:" >&2
    cat "$log" >&2
    status=1
fi

# The largest representable count is still accepted.
if ! "$bench_all" --list --jobs 4294967295 > /dev/null 2>&1; then
    echo "check_bench_flags: --jobs 4294967295 rejected" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_bench_flags: OK"
exit $status
