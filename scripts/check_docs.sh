#!/usr/bin/env sh
# Documentation coverage linter, run as a ctest entry.
#
# Checks, in order:
#   1. Every top-level src/ subsystem directory is mentioned in
#      DESIGN.md or somewhere under docs/.
#   2. docs/ISA.md covers 100% of the opcodes declared in the Opcode
#      enum of src/isa/instruction.hh.
#   3. docs/ROBUSTNESS.md covers every invariant name declared in
#      src/debug/invariant_checker.cc (invariantNames()).
#   4. Every relative markdown link in the tracked *.md files points at
#      a file (or file#anchor) that exists.
#   5. Stat-name coverage: every RunResult::scalarFields() name from
#      src/system/run_result.cc appears backticked in docs/RESULTS.md,
#      and every EpochSampler::kFieldNames entry from src/obs/epoch.cc
#      appears backticked in docs/OBSERVABILITY.md.
#   6. Crash-safe sweeps: every harness fault site declared in
#      src/harness/harness_faults.cc (kHarnessFaultSites) and every
#      crash-safety flag of the bench driver is documented in
#      docs/ROBUSTNESS.md.
#
# Usage: scripts/check_docs.sh [repo-root]   (default: script's parent)

set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root" || exit 2

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

# ---- 1. subsystem coverage --------------------------------------------------
for dir in src/*/; do
    sub=$(basename "$dir")
    if ! grep -q "src/$sub" DESIGN.md docs/*.md 2>/dev/null; then
        err "subsystem src/$sub is not mentioned in DESIGN.md or docs/"
    fi
done

# ---- 2. opcode coverage of docs/ISA.md -------------------------------------
if [ ! -f docs/ISA.md ]; then
    err "docs/ISA.md is missing"
else
    # Extract enumerator names from the Opcode enum body: identifiers at
    # the start of a line, up to the closing brace.
    opcodes=$(sed -n '/^enum class Opcode/,/^};/p' src/isa/instruction.hh \
        | sed -n 's/^ *\([A-Z][A-Za-z0-9]*\),.*/\1/p')
    [ -n "$opcodes" ] || err "could not parse Opcode enum from src/isa/instruction.hh"
    for op in $opcodes; do
        # Opcodes appear in ISA.md as `MovImm` (backticked table cells).
        if ! grep -q "\`$op\`" docs/ISA.md; then
            err "opcode $op is not documented in docs/ISA.md"
        fi
    done
fi

# ---- 3. invariant coverage of docs/ROBUSTNESS.md ---------------------------
if [ ! -f docs/ROBUSTNESS.md ]; then
    err "docs/ROBUSTNESS.md is missing"
else
    # Invariant names are the double-quoted kebab-case strings in the
    # invariantNames() initializer list.
    invariants=$(sed -n '/invariantNames()/,/^}/p' \
                     src/debug/invariant_checker.cc \
        | grep -o '"[a-z][a-z-]*"' | tr -d '"' | sort -u)
    [ -n "$invariants" ] || \
        err "could not parse invariantNames() from src/debug/invariant_checker.cc"
    for inv in $invariants; do
        # Invariants appear in ROBUSTNESS.md as backticked list items.
        if ! grep -q "\`$inv\`" docs/ROBUSTNESS.md; then
            err "invariant $inv is not documented in docs/ROBUSTNESS.md"
        fi
    done
fi

# ---- 4. relative markdown links resolve ------------------------------------
# Collect the markdown files we keep honest (tracked docs, not build/).
md_files=$(ls ./*.md docs/*.md 2>/dev/null)
for md in $md_files; do
    base=$(dirname "$md")
    # Pull out (text)(target) link targets; one per line. Skip absolute
    # URLs and pure in-page anchors.
    grep -o '](\([^)]*\))' "$md" | sed 's/^](\(.*\))$/\1/' \
    | while IFS= read -r target; do
        case $target in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        file=${target%%#*}
        [ -n "$file" ] || continue
        if [ ! -e "$base/$file" ] && [ ! -e "$file" ]; then
            echo "check_docs: broken link in $md -> $target" >&2
            echo broken > "${TMPDIR:-/tmp}/check_docs_broken.$$"
        fi
    done
done
if [ -f "${TMPDIR:-/tmp}/check_docs_broken.$$" ]; then
    rm -f "${TMPDIR:-/tmp}/check_docs_broken.$$"
    fail=1
fi

# ---- 5. stat-name coverage --------------------------------------------------
if [ ! -f docs/RESULTS.md ]; then
    err "docs/RESULTS.md is missing"
else
    # Metric names are the double-quoted strings in the scalarFields()
    # initializer list (one {"name", value} pair per line).
    fields=$(sed -n '/scalarFields() const/,/^}/p' \
                 src/system/run_result.cc \
        | grep -o '"[a-z][a-z0-9_]*"' | tr -d '"' | sort -u)
    [ -n "$fields" ] || \
        err "could not parse scalarFields() from src/system/run_result.cc"
    for f in $fields; do
        if ! grep -q "\`$f\`" docs/RESULTS.md; then
            err "metric $f is not documented in docs/RESULTS.md"
        fi
    done
fi
if [ ! -f docs/OBSERVABILITY.md ]; then
    err "docs/OBSERVABILITY.md is missing"
else
    # Epoch field names are declared one per line in the kFieldNames
    # initializer precisely so they can be extracted here.
    efields=$(sed -n '/kFieldNames = {/,/};/p' src/obs/epoch.cc \
        | grep -o '"[a-z][a-z0-9_]*"' | tr -d '"' | sort -u)
    [ -n "$efields" ] || \
        err "could not parse EpochSampler::kFieldNames from src/obs/epoch.cc"
    for f in $efields; do
        if ! grep -q "\`$f\`" docs/OBSERVABILITY.md; then
            err "epoch field $f is not documented in docs/OBSERVABILITY.md"
        fi
    done
fi
if [ -f docs/RESULTS.md ] && [ -f docs/OBSERVABILITY.md ]; then
    # Contention field names are declared one per line in the
    # kContentionFields initializer precisely so they can be extracted
    # here; every schema-v4 contention[] column must be documented in
    # both the schema reference and the attribution guide.
    cfields=$(sed -n '/kContentionFields = {/,/};/p' \
                  src/obs/attribution.cc \
        | grep -o '"[a-z][a-z0-9_]*"' | tr -d '"' | sort -u)
    [ -n "$cfields" ] || \
        err "could not parse kContentionFields from src/obs/attribution.cc"
    for f in $cfields; do
        if ! grep -q "\`$f\`" docs/RESULTS.md; then
            err "contention field $f is not documented in docs/RESULTS.md"
        fi
        if ! grep -q "\`$f\`" docs/OBSERVABILITY.md; then
            err "contention field $f is not documented in docs/OBSERVABILITY.md"
        fi
    done
    # Causal field names follow the same one-per-line convention in the
    # kCausalFields initializer; every schema-v7 causal[] column must be
    # documented in both the schema reference and the causal guide.
    kfields=$(sed -n '/kCausalFields = {/,/};/p' src/obs/causal.cc \
        | grep -o '"[a-z][a-z0-9_]*"' | tr -d '"' | sort -u)
    [ -n "$kfields" ] || \
        err "could not parse kCausalFields from src/obs/causal.cc"
    for f in $kfields; do
        if ! grep -q "\`$f\`" docs/RESULTS.md; then
            err "causal field $f is not documented in docs/RESULTS.md"
        fi
        if ! grep -q "\`$f\`" docs/OBSERVABILITY.md; then
            err "causal field $f is not documented in docs/OBSERVABILITY.md"
        fi
    done
    # The segment names themselves are part of the schema contract.
    segs=$(sed -n '/^causalSegmentName/,/^}/p' src/obs/causal.cc \
        | grep -o 'return "[a-z][a-z0-9_]*"' | sed 's/return "//;s/"//' \
        | sort -u)
    [ -n "$segs" ] || \
        err "could not parse causalSegmentName() from src/obs/causal.cc"
    for s in $segs; do
        if ! grep -q "\`$s\`" docs/RESULTS.md; then
            err "causal segment $s is not documented in docs/RESULTS.md"
        fi
        if ! grep -q "\`$s\`" docs/OBSERVABILITY.md; then
            err "causal segment $s is not documented in docs/OBSERVABILITY.md"
        fi
    done
fi

# ---- 6. crash-safe sweep coverage of docs/ROBUSTNESS.md --------------------
if [ -f docs/ROBUSTNESS.md ]; then
    # Fault sites are declared one per line in the kHarnessFaultSites
    # initializer precisely so they can be extracted here.
    sites=$(sed -n '/kHarnessFaultSites = {/,/};/p' \
                src/harness/harness_faults.cc \
        | grep -o '"[a-z][a-z-]*"' | tr -d '"' | sort -u)
    [ -n "$sites" ] || \
        err "could not parse kHarnessFaultSites from src/harness/harness_faults.cc"
    for s in $sites; do
        if ! grep -q "\`$s\`" docs/ROBUSTNESS.md; then
            err "harness fault site $s is not documented in docs/ROBUSTNESS.md"
        fi
    done
    # The crash-safe execution flags the bench driver grew must be
    # documented next to the machinery they drive.
    for flag in --isolate --resume --retries --quarantine-dir --only-key; do
        if ! grep -q -- "\`$flag" docs/ROBUSTNESS.md; then
            err "bench flag $flag is not documented in docs/ROBUSTNESS.md"
        fi
    done
fi

if [ "$fail" -eq 0 ]; then
    echo "check_docs: OK (subsystems, opcodes, invariants, links, stats," \
         "crash-safety)"
fi
exit $fail
