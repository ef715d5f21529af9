#!/usr/bin/env sh
# Reporting regression, run as a ctest tier-2 entry (report_smoke_golden).
#
# Drives cbsim-report end-to-end against the checked-in smoke goldens:
#  - every golden artifact must render (paper view + contention), and
#    its paper view must be that module's block of tables.txt verbatim:
#    the tables bench_all --smoke prints;
#  - an artifact whose bench has no paper view must fail (exit 1);
#  - the fig20 render must show all three technique families with
#    symbolic object names (the schema-v4 attribution contract);
#  - an artifact diffed against itself must be clean (exit 0);
#  - a doctored regression must fail the diff (exit 1);
#  - garbage input must exit 2 (usage/parse).
#
# Usage: check_report.sh <repo-root> <cbsim-report-binary>

set -u

root=${1:?usage: check_report.sh <repo-root> <cbsim-report>}
bin=${2:?usage: check_report.sh <repo-root> <cbsim-report>}

golden_dir="$root/tests/golden/smoke"
[ -d "$golden_dir" ] || {
    echo "check_report: missing $golden_dir" >&2
    exit 1
}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
status=0

for golden in "$golden_dir"/*.json; do
    name=$(basename "$golden")
    if ! "$bin" "$golden" > "$scratch/$name.out" 2>&1; then
        echo "check_report: render failed for $name:" >&2
        tail -n 10 "$scratch/$name.out" >&2
        status=1
    fi
done

# Each render's paper view is its module's block of tables.txt: from
# its "===" line up to the next module's.
for golden in "$golden_dir"/*.json; do
    name=$(basename "$golden")
    out="$scratch/$name.out"
    title=$(grep -m 1 '^===' "$out")
    awk -v t="$title" '$0 == t { on = 1; print; next } /^===/ { on = 0 } on' \
        "$golden_dir/tables.txt" > "$scratch/$name.want"
    lines=$(wc -l < "$scratch/$name.want")
    sed -n '/^===/,$p' "$out" | head -n "$lines" > "$scratch/$name.got"
    if [ -z "$title" ] || [ "$lines" -eq 0 ] ||
       ! cmp -s "$scratch/$name.want" "$scratch/$name.got"; then
        echo "check_report: $name view is not its tables.txt block:" >&2
        diff -u "$scratch/$name.want" "$scratch/$name.got" | head -n 20 >&2
        status=1
    fi
done

# A bench with no paper view is an error, not an empty render.
sed 's/"bench": "fig20_sync"/"bench": "no_such_bench"/' \
    "$golden_dir/fig20_sync.json" > "$scratch/noview.json"
"$bin" "$scratch/noview.json" > "$scratch/noview.out" 2>&1
rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "no paper view" "$scratch/noview.out"; then
    echo "check_report: viewless bench exited $rc, want 1 with" \
         "'no paper view'" >&2
    status=1
fi

# The sync-figure render must carry the per-technique contention
# breakdown with symbolic names, not hex.
out="$scratch/fig20_sync.json.out"
for want in "Invalidation" "BackOff" "CB-" "contention:" "lock0"; do
    if ! grep -q "$want" "$out"; then
        echo "check_report: fig20 render missing '$want'" >&2
        status=1
    fi
done

# Self-diff is clean.
if ! "$bin" --diff "$golden_dir/fig20_sync.json" \
        "$golden_dir/fig20_sync.json" > "$scratch/selfdiff.out" 2>&1; then
    echo "check_report: self-diff not clean:" >&2
    cat "$scratch/selfdiff.out" >&2
    status=1
fi

# A doctored +20% cycles regression must fail with exit 1.
sed 's/"cycles": \([0-9]*\)/"cycles": 9999999/' \
    "$golden_dir/fig20_sync.json" > "$scratch/worse.json"
"$bin" --diff "$golden_dir/fig20_sync.json" "$scratch/worse.json" \
    > "$scratch/worsediff.out" 2>&1
rc=$?
if [ "$rc" -ne 1 ]; then
    echo "check_report: doctored diff exited $rc, want 1" >&2
    status=1
fi
if ! grep -q "REGRESSION" "$scratch/worsediff.out"; then
    echo "check_report: doctored diff printed no REGRESSION line" >&2
    status=1
fi

# Partial-artifact golden (docs/ROBUSTNESS.md §Crash-safe sweeps): a
# checked-in artifact with one crashed + quarantined row, produced by a
# kill-child chaos run. The render must flag it, and diffing it against
# the fault-free smoke golden must report the quarantined cell as a
# regression (exit 1).
partial="$root/tests/golden/partial/fig01_motivation.json"
if [ ! -f "$partial" ]; then
    echo "check_report: missing partial golden $partial" >&2
    status=1
else
    "$bin" "$partial" > "$scratch/partial.out" 2>&1
    if ! grep -q "WARNING: partial artifact" "$scratch/partial.out"; then
        echo "check_report: partial render not flagged" >&2
        status=1
    fi
    if ! grep -q "quarantined" "$scratch/partial.out"; then
        echo "check_report: partial render does not count quarantined" >&2
        status=1
    fi
    "$bin" --diff "$golden_dir/fig01_motivation.json" "$partial" \
        > "$scratch/partialdiff.out" 2>&1
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "check_report: partial diff exited $rc, want 1" >&2
        status=1
    fi
    if ! grep -qi "quarantined" "$scratch/partialdiff.out"; then
        echo "check_report: partial diff does not name the quarantined" \
             "cell" >&2
        status=1
    fi
fi

# Garbage input: exit 2.
echo "not json" > "$scratch/garbage.json"
"$bin" "$scratch/garbage.json" > /dev/null 2>&1
rc=$?
if [ "$rc" -ne 2 ]; then
    echo "check_report: garbage input exited $rc, want 2" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_report: OK"
exit $status
