#!/usr/bin/env python3
"""Seconds-long self-check of the benchmark, on tiny cells.

    python3 perfbench/self_check.py

Runs both measurement pipelines at smoke size: the in-process runner on
bench_perf_kernel --smoke's cells, and the child sweep on
`bench_all --smoke`. It checks that

  * every metric BENCHMARK.json names is printed with its unit, untraced
    (end_to_end) and traced (per_layer), on both pipelines;
  * the runner's apps cells execute exactly bench_perf_kernel's events;
  * the runner's sync micro-programs reproduce bench_all's fig20_sync
    statistics cell by cell (the traced sweep's replay check);
  * the fingerprint gate fires when one simulated statistic is corrupted.

Exit status 0 when every check passes, 1 otherwise.
"""

import json
import re
import subprocess
import sys

import run

SWEEP_SMOKE = run.SweepSpec("--smoke", "sync_smoke", "fig20_sync")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(pipeline, metrics, report, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = run.result_line(metrics, report, trace)
    kind = "per-layer" if trace else "end-to-end"
    check(result["correct"], f"{pipeline} {kind} run is correct "
          f"{report['problems']}")
    printed = result["metrics"]
    missing = [m["name"] for m in wanted
               if printed.get(m["name"], {}).get("unit") != m["unit"]]
    check(not missing, f"{pipeline} prints every {kind} metric with its "
          f"unit (missing or wrong: {missing})")
    extra = sorted(set(printed) - {m["name"] for m in wanted})
    check(not extra, f"{pipeline} prints no unlisted {kind} metric {extra}")


def main():
    run.build()
    for trace in (False, True):
        report = run.new_report("apps_smoke")
        m = run.run_inprocess("apps_smoke", 0, 1, trace, report)
        check_metrics("in-process", m, report, trace)
        report = run.new_report("sweep_smoke")
        m = run.run_sweep(SWEEP_SMOKE, 1, trace, report)
        check_metrics("child sweep", m, report, trace)

    ref = subprocess.run(
        [str(run.BUILD / "bench_perf_kernel"), "--smoke", "--no-json"],
        capture_output=True, text=True, check=True).stdout
    ref_events = {k: int(v) for k, v in
                  re.findall(r"^\s+(\S+): (\d+) events", ref, re.M)}
    passes, _ = run.run_inproc("apps_smoke", 0, 0, False)
    events = {c["key"]: c["events"] for c in passes[0]["cells"]}
    check(events and events == ref_events,
          f"apps cells match bench_perf_kernel --smoke events "
          f"({len(ref_events)} cells)")

    passes, _ = run.run_inproc("apps_smoke", 0, 0, True)
    passes[1]["cells"][0]["stats"][0][1] += 1
    _, _, _, problems = run.check_passes(passes)
    check(any("fingerprint" in p for p in problems),
          "fingerprint gate fires on a corrupted statistic")

    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
