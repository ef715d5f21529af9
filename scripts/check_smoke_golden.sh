#!/usr/bin/env sh
# Determinism regression, run as a ctest tier-2 entry (bench_smoke_golden).
#
# Runs bench_all --smoke and byte-compares every JSON artifact against
# the checked-in goldens under tests/golden/smoke/. The artifacts are a
# pure function of the job list and the simulator (docs/RESULTS.md), so
# ANY difference is a simulated-behaviour change — the test that proves
# a kernel rework preserved bit-exact determinism. The printed paper
# views (stdout from the first "===" line to the end) are compared
# against tables.txt the same way.
#
# Regenerate goldens after an *intentional* behaviour change with:
#   ./build/bench/bench_all --smoke --jobs 2 --out-dir tests/golden/smoke \
#       | sed -n '/^===/,$p' > tests/golden/smoke/tables.txt
#
# Usage: check_smoke_golden.sh <repo-root> <bench_all-binary> <scratch-dir>

set -u

root=${1:?usage: check_smoke_golden.sh <repo-root> <bench_all> <scratch>}
bin=${2:?usage: check_smoke_golden.sh <repo-root> <bench_all> <scratch>}
scratch=${3:?usage: check_smoke_golden.sh <repo-root> <bench_all> <scratch>}

golden_dir="$root/tests/golden/smoke"
[ -d "$golden_dir" ] || {
    echo "check_smoke_golden: missing $golden_dir" >&2
    exit 1
}

rm -rf "$scratch"
mkdir -p "$scratch"
"$bin" --smoke --jobs 2 --out-dir "$scratch" > "$scratch/stdout.log" \
    2> "$scratch/stderr.log" || {
    echo "check_smoke_golden: bench_all --smoke failed:" >&2
    tail -n 20 "$scratch/stdout.log" "$scratch/stderr.log" >&2
    exit 1
}

status=0
for golden in "$golden_dir"/*.json; do
    name=$(basename "$golden")
    if [ ! -f "$scratch/$name" ]; then
        echo "check_smoke_golden: artifact not produced: $name" >&2
        status=1
        continue
    fi
    if ! cmp -s "$golden" "$scratch/$name"; then
        echo "check_smoke_golden: $name differs from golden:" >&2
        diff -u "$golden" "$scratch/$name" | head -n 40 >&2
        status=1
    fi
done
# Artifacts produced but not golden-tracked are a wiring error too.
for produced in "$scratch"/*.json; do
    name=$(basename "$produced")
    if [ ! -f "$golden_dir/$name" ]; then
        echo "check_smoke_golden: untracked artifact: $name" \
             "(add a golden under tests/golden/smoke/)" >&2
        status=1
    fi
done

sed -n '/^===/,$p' "$scratch/stdout.log" > "$scratch/tables.txt"
if ! cmp -s "$golden_dir/tables.txt" "$scratch/tables.txt"; then
    echo "check_smoke_golden: printed tables differ from tables.txt:" >&2
    diff -u "$golden_dir/tables.txt" "$scratch/tables.txt" | head -n 40 >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_smoke_golden: OK (byte-identical)"
exit $status
