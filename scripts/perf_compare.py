#!/usr/bin/env python3
"""Compare two cbsim host-perf artifacts (schema: docs/PERF.md).

Prints a per-cell and total events/sec comparison between a BEFORE and
an AFTER artifact produced by bench_perf_kernel (or any tool emitting
the cbsim-host-perf schema), e.g.:

    ./build/bench/bench_perf_kernel --out /tmp/before.json   # old kernel
    # ... apply the change, rebuild ...
    ./build/bench/bench_perf_kernel --out /tmp/after.json
    scripts/perf_compare.py /tmp/before.json /tmp/after.json

Exit status: 0 when both artifacts ran the same cells with the same
per-cell event counts (and, with --min-speedup X, the total events/sec
ratio after/before is at least X); 1 otherwise.

Simulated-event counts are deterministic: if a cell's event count
changed between the two artifacts, or a cell exists on one side only,
the two runs simulated different things and the speed ratio compares
nothing. Both fail the comparison, whatever the speedup.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "cbsim-host-perf":
        if "runs" in doc and "schema_version" in doc:
            sys.exit(f"{path}: this is a results artifact (schema "
                     f"v{doc['schema_version']}, docs/RESULTS.md), not "
                     "a host-perf artifact; produce inputs with "
                     "bench_perf_kernel --out")
        sys.exit(f"{path}: not a cbsim-host-perf artifact "
                 f"(schema={doc.get('schema')!r})")
    return doc


def fmt_eps(eps):
    return f"{eps / 1e6:8.2f} Mev/s"


def main():
    ap = argparse.ArgumentParser(
        description="Compare two cbsim host-perf artifacts.")
    ap.add_argument("before", help="baseline artifact (old kernel)")
    ap.add_argument("after", help="comparison artifact (new kernel)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail (exit 1) if total events/sec ratio "
                         "after/before is below this")
    ap.add_argument("--cells", action="store_true",
                    help="print the per-cell table (default: totals "
                         "plus the extreme cells)")
    args = ap.parse_args()

    before = load(args.before)
    after = load(args.after)
    bv = before.get("schema_version")
    av = after.get("schema_version")
    if bv != av:
        if {bv, av} == {1, 2}:
            detail = ("events/sec denominators differ (v1 times the "
                      "full experiment, v2 the event loop) so ratios "
                      "are not comparable")
        elif {bv, av} <= {2, 3, 4}:
            detail = ("v3 added and v4 removed the sharded-kernel "
                      "fields (docs/PERF.md); events/sec denominators "
                      "are unchanged, so ratios stay comparable")
        else:
            detail = ("field meanings may differ between versions; "
                      "treat ratios with suspicion")
        print("warning: artifacts use different schema versions "
              f"({bv} vs {av}); {detail}", file=sys.stderr)

    b_cells = {c["key"]: c for c in before["cells"]}
    a_cells = {c["key"]: c for c in after["cells"]}
    common = [k for k in b_cells if k in a_cells]
    if not common:
        sys.exit("no common cells between the two artifacts")
    only_b = sorted(set(b_cells) - set(a_cells))
    only_a = sorted(set(a_cells) - set(b_cells))
    for k in only_b:
        print(f"CELL MISMATCH: only in before: {k}", file=sys.stderr)
    for k in only_a:
        print(f"CELL MISMATCH: only in after:  {k}", file=sys.stderr)

    drift = bool(only_b or only_a)
    rows = []
    for key in common:
        b, a = b_cells[key], a_cells[key]
        if b["events"] != a["events"]:
            drift = True
            print(f"EVENT-COUNT DRIFT in {key}: {b['events']} -> "
                  f"{a['events']} (simulated behaviour changed!)",
                  file=sys.stderr)
        ratio = (a["events_per_sec"] / b["events_per_sec"]
                 if b["events_per_sec"] else float("inf"))
        rows.append((key, b["events_per_sec"], a["events_per_sec"],
                     ratio))

    rows.sort(key=lambda r: r[3])
    width = max(len(r[0]) for r in rows)
    header = (f"{'cell':<{width}}  {'before':>14}  {'after':>14}  "
              f"{'speedup':>8}")
    if args.cells:
        print(header)
        for key, b_eps, a_eps, ratio in rows:
            print(f"{key:<{width}}  {fmt_eps(b_eps)}  {fmt_eps(a_eps)}  "
                  f"{ratio:7.2f}x")
    else:
        print(header)
        for key, b_eps, a_eps, ratio in (rows[0], rows[-1]):
            tag = "slowest" if (key, b_eps, a_eps, ratio) == rows[0] \
                else "fastest"
            print(f"{key:<{width}}  {fmt_eps(b_eps)}  {fmt_eps(a_eps)}  "
                  f"{ratio:7.2f}x  ({tag} cell)")

    tb, ta = before["totals"], after["totals"]
    total_ratio = (ta["events_per_sec"] / tb["events_per_sec"]
                   if tb["events_per_sec"] else float("inf"))
    print(f"{'TOTAL':<{width}}  {fmt_eps(tb['events_per_sec'])}  "
          f"{fmt_eps(ta['events_per_sec'])}  {total_ratio:7.2f}x")
    if "sim_ms" in tb and "sim_ms" in ta:
        print(f"event-loop: {tb['sim_ms']:.0f} ms -> "
              f"{ta['sim_ms']:.0f} ms")
    print(f"wall: {tb['wall_ms']:.0f} ms -> {ta['wall_ms']:.0f} ms")

    for label, doc in (("before", before), ("after", after)):
        threads = doc.get("config", {}).get("threads", 0)
        if threads:
            print(f"note: {label} is a v3 artifact from the deleted "
                  f"sharded kernel (--threads {threads}); its event "
                  "counts are not the single queue's",
                  file=sys.stderr)

    status = 0
    if drift:
        print("FAIL: the artifacts simulated different cells or event "
              "counts; speedup numbers compare different simulations",
              file=sys.stderr)
        status = 1
    if args.min_speedup is not None and total_ratio < args.min_speedup:
        print(f"FAIL: total speedup {total_ratio:.2f}x < floor "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
