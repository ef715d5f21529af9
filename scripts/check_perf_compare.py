#!/usr/bin/env python3
"""Exit-status contract of scripts/perf_compare.py, run as a ctest entry
(perf_compare_gate).

Starts from two hand-written host-perf artifacts
(tests/perf_compare/before.json and after.json: the same cells and
event counts, 1.25x faster after) and checks that perf_compare.py

  * exits 0 on identical per-cell event counts,
  * exits 0 when a --min-speedup floor is met,
  * exits 1 when a --min-speedup floor is not met,
  * exits 1 when one cell's event count drifted,
  * exits 1 when a cell exists on one side only.

The drifted and one-sided variants are derived from after.json into a
temporary directory.

Usage: check_perf_compare.py [repo-root]   (exit 0 = every case passed)
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent)
    tool = root / "scripts" / "perf_compare.py"
    data = root / "tests" / "perf_compare"
    before = data / "before.json"
    after = data / "after.json"
    base = json.loads(after.read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory() as tmp:
        drift = copy.deepcopy(base)
        drift["cells"][0]["events"] += 1
        drift_path = Path(tmp) / "drift.json"
        drift_path.write_text(json.dumps(drift), encoding="utf-8")

        one_sided = copy.deepcopy(base)
        one_sided["cells"].pop()
        one_sided_path = Path(tmp) / "one_sided.json"
        one_sided_path.write_text(json.dumps(one_sided), encoding="utf-8")

        cases = [
            ("identical counts", [before, after], 0),
            ("floor met", [before, after, "--min-speedup", "1.2"], 0),
            ("floor not met", [before, after, "--min-speedup", "1.3"], 1),
            ("event-count drift", [before, drift_path], 1),
            ("cell on one side only", [before, one_sided_path], 1),
        ]
        failures = 0
        for name, args, want in cases:
            proc = subprocess.run(
                [sys.executable, str(tool)] + [str(a) for a in args],
                capture_output=True, text=True)
            ok = proc.returncode == want
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit "
                  f"{proc.returncode} (want {want})")
            if not ok:
                failures += 1
                sys.stdout.write(proc.stdout + proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
