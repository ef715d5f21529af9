#!/usr/bin/env sh
# The README's debugging recipe, run as a ctest entry (trace_recipe).
#
# Runs `CBSIM_TRACE_DIR=<dir> quickstart` exactly as a user would, so
# the environment-parsing path of CBSIM_TRACE_DIR is covered end to end,
# and checks the Chrome trace it leaves behind:
#
#   1. <dir>/run.trace.json exists and parses as JSON.
#   2. It carries the cbsim-trace-v1 schema tag.
#   3. It holds at least one callback-directory `park` instant and one
#      `wake` instant (ph "i").
#   4. Its contended-line slices carry the layout's line names
#      (`lock0`, `barrier0.wake.3`), not only hex addresses.
#
# Usage: check_trace_recipe.sh <quickstart-binary> <scratch-dir>

set -u

bin=${1:?usage: check_trace_recipe.sh <quickstart> <scratch>}
scratch=${2:?usage: check_trace_recipe.sh <quickstart> <scratch>}

rm -rf "$scratch"
mkdir -p "$scratch"

CBSIM_TRACE_DIR="$scratch" "$bin" > "$scratch.log" 2>&1 || {
    echo "check_trace_recipe: quickstart failed:" >&2
    tail -n 20 "$scratch.log" >&2
    exit 1
}

trace="$scratch/run.trace.json"
if [ ! -f "$trace" ]; then
    echo "check_trace_recipe: $trace was not written" >&2
    exit 1
fi

python3 - "$trace" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
errors = []
schema = doc.get("otherData", {}).get("schema")
if schema != "cbsim-trace-v1":
    errors.append(f"schema is {schema!r}, expected 'cbsim-trace-v1'")
instants = [e.get("name") for e in doc.get("traceEvents", [])
            if e.get("ph") == "i"]
for name in ("park", "wake"):
    n = instants.count(name)
    if n < 1:
        errors.append(f"no '{name}' instant in the trace")
    else:
        print(f"check_trace_recipe: {n} '{name}' instants")
named = [e.get("name") for e in doc.get("traceEvents", [])
         if e.get("cat") == "contention"
         and not str(e.get("name", "")).startswith("0x")]
if not named:
    errors.append("no contended-line slice carries a line name")
else:
    print(f"check_trace_recipe: {len(named)} named contended-line events")
for e in errors:
    print(f"check_trace_recipe: {path}: {e}", file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
