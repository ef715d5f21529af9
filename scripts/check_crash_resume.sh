#!/usr/bin/env sh
# Crash-safe sweep round trip, run as a ctest chaos/soak entry
# (bench_crash_resume). Proves the ISSUE's headline acceptance claims
# end-to-end on a real bench module (fig01_motivation, --smoke), with
# the protocol invariant checker on:
#
#  1. kill/resume byte-identity: a sweep SIGKILLed mid-run by the
#     sweep-kill chaos fault, then re-run with --resume, publishes an
#     artifact byte-identical to an uninterrupted run's;
#  2. crash containment: a kill-child chaos fault crashes exactly one
#     --isolate cell; the sweep completes, the row is crashed +
#     quarantined with a self-contained repro bundle, and every sibling
#     row still matches the fault-free artifact;
#  3. retry healing: with transient-once + --retries 1 every cell
#     recovers on its second attempt ("attempts": 2) and the sweep
#     exits clean;
#  4. shared runs survive kill/resume: fig01_motivation and fig20_sync
#     register ten identical cells, which run once each and are
#     journaled under fig01_motivation. A sweep of both modules,
#     SIGKILLed after journaling at least one shared run and then
#     resumed, publishes both artifacts byte-identical to an
#     uninterrupted run's.
#
# Usage: check_crash_resume.sh <repo-root> <bench_all-binary> <scratch-dir>

set -u

root=${1:?usage: check_crash_resume.sh <repo-root> <bench_all> <scratch>}
bin=${2:?usage: check_crash_resume.sh <repo-root> <bench_all> <scratch>}
scratch=${3:?usage: check_crash_resume.sh <repo-root> <bench_all> <scratch>}

CBSIM_CHECK_INVARIANTS=1
export CBSIM_CHECK_INVARIANTS

module=fig01_motivation
run="$bin --only $module --smoke --isolate --jobs 1"

rm -rf "$scratch"
mkdir -p "$scratch"
status=0

# --- 1. Uninterrupted baseline -------------------------------------------
if ! $run --out-dir "$scratch/base" > "$scratch/base.log" 2>&1; then
    echo "check_crash_resume: baseline sweep failed:" >&2
    tail -n 20 "$scratch/base.log" >&2
    exit 1
fi
base="$scratch/base/$module.json"
[ -f "$base" ] || {
    echo "check_crash_resume: baseline produced no artifact" >&2
    exit 1
}

# --- 2. SIGKILL mid-sweep, then --resume ---------------------------------
CBSIM_HARNESS_FAULTS="sweep-kill@2" \
    $run --out-dir "$scratch/resume" > "$scratch/killed.log" 2>&1
rc=$?
if [ "$rc" -eq 0 ]; then
    echo "check_crash_resume: sweep-kill@2 run exited 0 (fault not taken)" >&2
    status=1
fi
journal="$scratch/resume/$module.json.journal"
if [ ! -f "$journal" ]; then
    echo "check_crash_resume: killed sweep left no journal at $journal" >&2
    status=1
fi
if ! $run --resume --out-dir "$scratch/resume" \
        > "$scratch/resume.log" 2>&1; then
    echo "check_crash_resume: --resume run failed:" >&2
    tail -n 20 "$scratch/resume.log" >&2
    status=1
fi
if ! grep -q "replayed from journal" "$scratch/resume.log"; then
    echo "check_crash_resume: --resume replayed nothing" >&2
    status=1
fi
if ! cmp -s "$base" "$scratch/resume/$module.json"; then
    echo "check_crash_resume: resumed artifact differs from baseline:" >&2
    diff -u "$base" "$scratch/resume/$module.json" | head -n 40 >&2
    status=1
fi
if [ -f "$journal" ]; then
    echo "check_crash_resume: journal not removed after clean publish" >&2
    status=1
fi

# --- 3. Crashed cell: contained, quarantined, siblings intact ------------
CBSIM_HARNESS_FAULTS="kill-child@2" \
    $run --out-dir "$scratch/crash" \
         --quarantine-dir "$scratch/crash/quarantine" \
         > "$scratch/crash.log" 2>&1
if [ $? -eq 0 ]; then
    echo "check_crash_resume: crashed sweep exited 0" >&2
    status=1
fi
crash="$scratch/crash/$module.json"
[ -f "$crash" ] || {
    echo "check_crash_resume: crashed sweep published no artifact" >&2
    exit 1
}
crashed_rows=$(grep -c '"status": "crashed"' "$crash")
if [ "$crashed_rows" -ne 1 ]; then
    echo "check_crash_resume: want exactly 1 crashed row, got" \
         "$crashed_rows" >&2
    status=1
fi
if ! grep -q '"quarantined": true' "$crash"; then
    echo "check_crash_resume: crashed row not quarantined" >&2
    status=1
fi
bundles=$(find "$scratch/crash/quarantine" -name rerun.txt 2>/dev/null |
          wc -l)
if [ "$bundles" -ne 1 ]; then
    echo "check_crash_resume: want 1 quarantine bundle, got $bundles" >&2
    status=1
else
    bundle=$(dirname "$(find "$scratch/crash/quarantine" -name rerun.txt)")
    [ -f "$bundle/job.json" ] || {
        echo "check_crash_resume: bundle missing job.json" >&2
        status=1
    }
    if ! grep -q -- "--only-key" "$bundle/rerun.txt"; then
        echo "check_crash_resume: rerun.txt has no --only-key line" >&2
        status=1
    fi
fi
# Sibling integrity: drop each artifact's crashed/ok rows' attempt-free
# diff — every line unique to the crashed artifact must belong to the
# single crashed row (its error/status members), never to a sibling.
ok_base=$(grep -c '"status": "ok"' "$base")
ok_crash=$(grep -c '"status": "ok"' "$crash")
if [ "$ok_crash" -ne $((ok_base - 1)) ]; then
    echo "check_crash_resume: sibling rows damaged: baseline $ok_base ok," \
         "crashed sweep $ok_crash ok (want one fewer)" >&2
    status=1
fi

# --- 4. Transient fault healed by one retry ------------------------------
CBSIM_HARNESS_FAULTS="transient-once" \
    $run --retries 1 --out-dir "$scratch/retry" \
         > "$scratch/retry.log" 2>&1
if [ $? -ne 0 ]; then
    echo "check_crash_resume: transient-once + --retries 1 failed:" >&2
    tail -n 20 "$scratch/retry.log" >&2
    status=1
fi
if ! grep -q '"attempts": 2' "$scratch/retry/$module.json"; then
    echo "check_crash_resume: retried rows do not record attempts=2" >&2
    status=1
fi

# --- 5. Shared runs across two modules: kill, then --resume --------------
pair="$bin --only fig01_motivation --only fig20_sync --smoke --isolate --jobs 1"
if ! $pair --out-dir "$scratch/pair-base" > "$scratch/pair-base.log" 2>&1
then
    echo "check_crash_resume: two-module baseline sweep failed:" >&2
    tail -n 20 "$scratch/pair-base.log" >&2
    exit 1
fi
# "cbsim bench: <runs> simulations for <cells> cells on ..."
set -- $(head -n 1 "$scratch/pair-base.log")
if [ "${3:-0}" -ge "${6:-0}" ]; then
    echo "check_crash_resume: two-module sweep shares no run: $*" >&2
    status=1
fi
CBSIM_HARNESS_FAULTS="sweep-kill@3" \
    $pair --out-dir "$scratch/pair" > "$scratch/pair-killed.log" 2>&1
if [ $? -eq 0 ]; then
    echo "check_crash_resume: two-module sweep-kill@3 run exited 0" >&2
    status=1
fi
# A journaled fig01 run is shared when fig20 registered the same cell.
shared=0
pair_journal="$scratch/pair/fig01_motivation.json.journal"
for cell in $(sed -n 's|^{"cell": "[0-9a-f]*", "row": "{\\n  \\"key\\": \\"fig01/\([^\\]*\)\\".*$|\1|p' \
                  "$pair_journal" 2>/dev/null); do
    grep -q "\"key\": \"fig20/$cell\"" \
        "$scratch/pair-base/fig20_sync.json" && shared=$((shared + 1))
done
if [ "$shared" -lt 1 ]; then
    echo "check_crash_resume: killed two-module sweep journaled no" \
         "shared run" >&2
    status=1
fi
if ! $pair --resume --out-dir "$scratch/pair" \
        > "$scratch/pair-resume.log" 2>&1; then
    echo "check_crash_resume: two-module --resume run failed:" >&2
    tail -n 20 "$scratch/pair-resume.log" >&2
    status=1
fi
if ! grep -q "runs replayed from journal" "$scratch/pair-resume.log"; then
    echo "check_crash_resume: two-module --resume replayed nothing" >&2
    status=1
fi
for m in fig01_motivation fig20_sync; do
    if ! cmp -s "$scratch/pair-base/$m.json" "$scratch/pair/$m.json"; then
        echo "check_crash_resume: resumed $m differs from baseline:" >&2
        diff -u "$scratch/pair-base/$m.json" "$scratch/pair/$m.json" |
            head -n 40 >&2
        status=1
    fi
done

[ "$status" -eq 0 ] && echo "check_crash_resume: OK"
exit $status
