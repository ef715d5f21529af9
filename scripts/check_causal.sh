#!/usr/bin/env sh
# Causal-tracing golden smoke, run as a ctest entry (bench_causal_smoke,
# label tier2).
#
# Runs the bench_all --smoke sweep with CBSIM_OBS_CAUSAL=1 and checks
# the schema-v7 causal[] contract end-to-end
# (docs/OBSERVABILITY.md §Causal tracing):
#
#   1. Every artifact actually carries causal[] rows (the segment names
#      must appear — an empty observer would pass a pure byte-compare).
#   2. The artifacts are byte-identical across --jobs 1 and --jobs 4
#      (sweep-worker invariance).
#
# Usage: check_causal.sh <bench_all-binary> <scratch-dir>

set -u

bin=${1:?usage: check_causal.sh <bench_all> <scratch>}
scratch=${2:?usage: check_causal.sh <bench_all> <scratch>}

rm -rf "$scratch"
mkdir -p "$scratch"

run_sweep() {
    # run_sweep <out-subdir> <jobs>
    out="$scratch/$1"
    mkdir -p "$out"
    CBSIM_OBS_CAUSAL=1 \
        "$bin" --smoke --jobs "$2" --out-dir "$out" > "$out.log" 2>&1 || {
        echo "check_causal: sweep $1 failed:" >&2
        tail -n 20 "$out.log" >&2
        exit 1
    }
}

compare_dirs() {
    # compare_dirs <ref-subdir> <other-subdir>
    for ref in "$scratch/$1"/*.json; do
        name=$(basename "$ref")
        other="$scratch/$2/$name"
        if [ ! -f "$other" ]; then
            echo "check_causal: $name missing in $2" >&2
            status=1
            continue
        fi
        if ! cmp -s "$ref" "$other"; then
            echo "check_causal: $name differs between $1 and $2:" >&2
            diff -u "$ref" "$other" | head -n 40 >&2
            status=1
        fi
    done
}

run_sweep jobs1 1
run_sweep jobs4 4

status=0
artifacts=0
causal=0
for ref in "$scratch/jobs1"/*.json; do
    [ -f "$ref" ] || continue
    artifacts=$((artifacts + 1))
    if grep -q '"causal"' "$ref" && \
       grep -q '"segment": "dir_queue"' "$ref" && \
       grep -q '"segment": "spin_poll"' "$ref"; then
        causal=$((causal + 1))
    else
        echo "check_causal: $(basename "$ref") has no causal[] rows" >&2
        status=1
    fi
done
if [ "$artifacts" -eq 0 ]; then
    echo "check_causal: no artifacts produced" >&2
    status=1
fi

compare_dirs jobs1 jobs4

[ "$status" -eq 0 ] && echo "check_causal: OK ($artifacts artifacts" \
    "with causal[] rows; byte-identical across --jobs 1/4)"
exit $status
