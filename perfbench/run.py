#!/usr/bin/env python3
"""Host-performance benchmark of cbsim (see README.md in this directory).

    python3 perfbench/run.py --workload apps64 --seed 0 --seconds 45 --trace 0

Builds the simulator from source (into .bench_build/, idempotent), runs
one workload for --seconds of host time, checks the simulated outputs,
and prints the metrics; the last stdout line is one JSON object.

  --trace 0  end-to-end metrics (untraced)
  --trace 1  per-layer metrics from a traced run, which also writes its
             spans under .bench_build/perfbench-run/

Workloads (README.md says why each was chosen):
  apps64       4 quick-suite apps x 4 techniques, 64 cores, in process
  sync64       Fig. 20's 35 sync micro-benchmarks, 64 cores, in process
  sweep_quick  `bench_all --quick --jobs 2` as a child process (not in
               BENCHMARK.json: too unsteady on a shared host)

Exit status: 0 when every cell succeeded and every fingerprint matched;
1 on a failed cell, a fingerprint mismatch or a failed build; 2 on bad
arguments.
"""

import argparse
import collections
import json
import os
import pty
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"

SWEEP_JOBS = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_instr_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p98": "ms",
    "peak_rss_mb": "MB",
}

# RunResult::scalarFields() name behind each count metric.
COUNTS = {
    "core.instructions": "instructions",
    "core.stall_cycles": "stall_cycles",
    "coherence.l1_accesses": "l1_accesses",
    "coherence.llc_accesses": "llc_accesses",
    "coherence.llc_sync_accesses": "llc_sync_accesses",
    "coherence.cbdir_accesses": "cbdir_accesses",
    "coherence.invalidations": "invalidations_sent",
    "coherence.cb_wakeups": "cb_wakeups",
    "coherence.cbdir_evictions": "cbdir_evictions",
    "noc.packets": "packets",
    "noc.flit_hops": "flit_hops",
    "mem.reads": "mem_reads",
    "sim.cycles": "cycles",
}

PER_LAYER = {
    "sim.run_ms": "ms",
    "sim.loop_ms": "ms",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    **{name: "count" for name in COUNTS},
    "coherence.llc_sync_per_op": "ratio",
    "workload.build_ms": "ms",
    "workload.static_instructions": "count",
    "system.construct_ms": "ms",
    "system.load_ms": "ms",
    "system.extract_ms": "ms",
    "system.construct_rss_mb": "MB",
    "harness.finish_ms": "ms",
    "harness.serialize_ms": "ms",
    "harness.serialize_bytes": "bytes",
    "harness.registration_s": "s",
    "harness.sweep_s": "s",
    "harness.publish_s": "s",
    "harness.cells_simulated": "count",
    "harness.cell_wall_sum_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.profile_mevps": "Mev/s",
    "host.user_s": "s",
    "host.sys_s": "s",
    "host.minor_faults": "count",
    "host.invol_ctx_switches": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A failure that must not print a result (build, missing sources)."""


# ---------------------------------------------------------------- helpers


def fnv1a64(text, h=0xCBF29CE484222325):
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def cell_canon(key, stats):
    """Canonical text of one cell's simulated statistics."""
    return key + "".join(f"|{n}={v}" for n, v in stats)


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    """p-th percentile, linear between closest ranks (n >= 2)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def grouped_percentile(xs, p, width):
    """p-th percentile of values rounded to @width (bench_all prints cell
    times to 0.1 ms): interpolated within the rounding interval of the
    value it falls on, so it is not stuck on the rounding grid."""
    xs = sorted(xs)
    rank = p / 100 * len(xs)
    v = xs[min(len(xs) - 1, int(rank))]
    below = sum(1 for x in xs if x < v - width / 2)
    inside = sum(1 for x in xs if abs(x - v) <= width / 2)
    return v - width / 2 + (rank - below) / inside * width


def stop(proc):
    """Kill @proc if it still runs and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def wait_rusage(proc):
    """Reap @proc and return its resource usage (peak RSS, faults...)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru


def host_metrics(user_s, sys_s, minflt, nivcsw):
    return {"host.user_s": user_s, "host.sys_s": sys_s,
            "host.minor_faults": minflt,
            "host.invol_ctx_switches": nivcsw}


def self_times(spans):
    """Self time per span name: duration minus what children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0.0, s["start_us"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo = max(c["start_us"], end)
            hi = min(c["end_us"], s["end_us"])
            if hi > lo:
                covered += hi - lo
                end = hi
        dur = s["end_us"] - s["start_us"]
        out[s["name"]] = out.get(s["name"], 0.0) + (dur - covered) / 1e3
    return out


# ------------------------------------------------------------------ build


def build():
    """Configure once, then build the benchmark's targets (no-op if fresh)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"cbsim sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_inproc", "bench_all",
                  "bench_perf_kernel"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# ------------------------------------------------------ in-process runner


def run_inproc(workload, seed, seconds, trace, spans=None):
    """Run the in-process runner; returns (pass records, rusage). A traced
    run alternates untraced and traced passes, at least one of each."""
    cmd = [str(BUILD / "perfbench_inproc"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=WORK)
    try:
        out = proc.stdout.read()
        ru = wait_rusage(proc)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} runner exited {proc.returncode}")
    passes = [json.loads(l) for l in out.decode().splitlines() if l.strip()]
    if not passes:
        raise BenchError(f"{workload} runner produced no passes")
    return passes, ru


def pass_fingerprint(p):
    return fnv1a64("".join(cell_canon(c["key"], c["stats"]) +
                           f"|events={c['events']}\n" for c in p["cells"]))


def check_passes(passes):
    """Fingerprint gate: every pass (traced or not) must match pass 0."""
    fps = [pass_fingerprint(p) for p in passes]
    problems = [f"pass {i} fingerprint {fp:016x} != pass 0 {fps[0]:016x}"
                for i, fp in enumerate(fps) if fp != fps[0]]
    cells = [c for p in passes for c in p["cells"]]
    failed = [c for c in cells if not c["ok"]]
    problems += [f"cell {c['key']} failed: {c.get('error', '')}"
                 for c in failed[:5]]
    return fps[0], len(cells), len(failed), problems


def counts_of(cells):
    """Summed count metrics of one pass's cells (from scalarFields)."""
    tot = {}
    for c in cells:
        for n, v in c["stats"]:
            tot[n] = tot.get(n, 0) + v
    m = {name: tot[field] for name, field in COUNTS.items()}
    sync_ops = sum(c["sync_ops"] for c in cells)
    m["coherence.llc_sync_per_op"] = (tot["llc_sync_accesses"] / sync_ops
                                      if sync_ops else 0.0)
    return m


def inproc_layers(traced):
    """Per-layer metrics of the in-process layers, medians over passes."""
    def med(f):
        return median([f(p) for p in traced])

    def total(field):
        return med(lambda p: sum(c[field] for c in p["cells"]))

    events = sum(c["events"] for c in traced[0]["cells"])
    run_ms, loop_ms = total("run_ms"), total("loop_ms")
    return {
        "sim.run_ms": run_ms,
        "sim.loop_ms": loop_ms,
        "sim.events": events,
        "sim.ns_per_event": loop_ms * 1e6 / events if events else 0.0,
        "workload.build_ms": total("build_ms"),
        "workload.static_instructions":
            sum(c["static_instructions"] for c in traced[0]["cells"]),
        "system.construct_ms": total("construct_ms"),
        "system.load_ms": total("load_ms"),
        "system.extract_ms": run_ms - loop_ms,
        "system.construct_rss_mb":
            med(lambda p: max(c["construct_heap_mb"] for c in p["cells"])),
        "harness.finish_ms": total("finish_ms"),
        "harness.serialize_ms": total("serialize_ms"),
        "harness.serialize_bytes":
            sum(c["serialize_bytes"] for c in traced[0]["cells"]),
    }


def run_inprocess(workload, seed, seconds, trace, report):
    spans_path = WORK / f"spans-{workload}.json" if trace else None
    passes, ru = run_inproc(workload, seed, seconds, trace,
                            spans=spans_path)
    fp, attempted, failed, problems = check_passes(passes)
    report["fingerprint"] = f"{fp:016x}"
    report["problems"] += problems
    report["attempted"], report["failed"] = attempted, failed
    report["passes"] = len(passes)
    if failed:
        return {}

    # Each cell is timed as its fastest untraced pass. Other tenants of a
    # shared host slow stretches of a second or more by up to 60%; a
    # cell's minimum over the passes is the time it takes when none of
    # them interfere, while medians of whole passes move with the host.
    plain = [p for p in passes if not p["traced"]]
    by_cell = {}
    for p in plain:
        for c in p["cells"]:
            by_cell.setdefault(c["key"], []).append(c)
    cell_ms = [min(c["cell_ms"] for c in v) for v in by_cell.values()]
    report["cell_samples"] = (f"{len(cell_ms)} cells, each the fastest of "
                              f"{len(plain)} passes")
    if not trace:
        overhead_ms = median([p["wall_ms"] - sum(c["cell_ms"]
                                                 for c in p["cells"])
                              for p in plain])
        wall_s = (sum(cell_ms) + overhead_ms) / 1e3
        setup_s = sum(min(c["build_ms"] + c["construct_ms"] + c["load_ms"]
                          for c in v) for v in by_cell.values()) / 1e3
        instr = counts_of(passes[0]["cells"])["core.instructions"]
        return {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "sim_instr_per_s": instr / wall_s,
            "cell_ms_p50": percentile(cell_ms, 50),
            "cell_ms_p98": percentile(cell_ms, 98),
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
        }

    traced = [p for p in passes if p["traced"]]
    m = inproc_layers(traced)
    m.update(counts_of(traced[0]["cells"]))
    m.update(harness_layers_inproc(traced))
    m.update(host_metrics(*(median([p[k] for p in traced]) for k in
                            ("user_s", "sys_s", "minor_faults",
                             "invol_ctx_switches"))))
    m["trace.overhead_ratio"] = (median([p["wall_ms"] for p in traced]) /
                                 median([p["wall_ms"] for p in plain]))
    report["spans"] = str(spans_path.relative_to(ROOT))
    spans = json.loads(spans_path.read_text())["spans"]
    report["self_ms"] = {k: v / len(traced)
                         for k, v in self_times(spans).items()}
    return m


def harness_layers_inproc(traced):
    """The harness layer of an in-process pass: one worker, no child."""
    def med(f):
        return median([f(p) for p in traced])

    sweep_s = med(lambda p: p["sweep_ms"]) / 1e3
    cell_sum_s = med(lambda p: sum(c["cell_ms"] for c in p["cells"])) / 1e3
    events = sum(c["events"] for c in traced[0]["cells"])
    return {
        "harness.registration_s": med(lambda p: p["registration_ms"]) / 1e3,
        "harness.sweep_s": sweep_s,
        "harness.publish_s": med(lambda p: p["publish_ms"]) / 1e3,
        "harness.cells_simulated": len(traced[0]["cells"]),
        "harness.cell_wall_sum_s": cell_sum_s,
        "harness.parallel_efficiency": cell_sum_s / sweep_s,
        "harness.profile_mevps": events / cell_sum_s / 1e6,
    }


# ---------------------------------------------------------- child sweep


# A bench_all sweep plus the in-process workload that replays one of its
# modules in process; the replay supplies the in-process layers of the
# traced run and is checked against the child's artifact.
SweepSpec = collections.namedtuple(
    "SweepSpec", "size_flag replay_workload replay_module")


SWEEP_QUICK = SweepSpec("--quick", "quick21", "fig21_apps")


def run_child(spec, out_dir):
    """Run one bench_all sweep on a pty (so its stdout is line-buffered
    and each line can be timed on arrival); returns what it printed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [str(BUILD / "bench_all"), spec.size_flag, "--jobs",
           str(SWEEP_JOBS), "--profile", "--out-dir", str(out_dir),
           "--quarantine-dir", str(out_dir / "quarantine")]
    master, slave = pty.openpty()
    t0 = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=slave,
                                stderr=slave, cwd=WORK)
    finally:
        os.close(slave)
    lines, buf, timed_out = [], b"", False
    try:
        while True:
            left = t0 + CHILD_TIMEOUT_S - time.monotonic()
            if left <= 0:
                timed_out = True
                proc.send_signal(signal.SIGKILL)
                break
            ready, _, _ = select.select([master], [], [], left)
            if not ready:
                continue
            try:
                chunk = os.read(master, 1 << 16)
            except OSError:  # EIO: the child closed its end
                break
            if not chunk:
                break
            now = time.monotonic() - t0
            buf += chunk
            *done, buf = buf.split(b"\n")
            lines += [(now, l.decode(errors="replace").rstrip("\r"))
                      for l in done]
        ru = wait_rusage(proc)
    finally:
        os.close(master)
        stop(proc)
    wall = time.monotonic() - t0
    return parse_child(lines, wall, ru, proc.returncode, timed_out)


def parse_child(lines, wall, ru, returncode, timed_out):
    c = {"wall_s": wall, "ru": ru, "returncode": returncode,
         "timed_out": timed_out, "total": None, "setup_s": None,
         "sweep_end_s": None, "cells": [], "profile": {}}
    for t, line in lines:
        if line.startswith("cbsim bench: ") and c["total"] is None:
            c["total"] = int(line.split()[2])
            c["setup_s"] = t
        elif line.startswith("[") and "/" in line.split("]")[0]:
            head, _, rest = line.partition("] ")
            parts = rest.split()
            if len(parts) >= 3 and parts[2] == "ms":
                c["cells"].append({"i": int(head[1:].split("/")[0]),
                                   "key": parts[0], "ms": float(parts[1]),
                                   "ok": len(parts) == 3, "end_s": t})
        elif line.startswith("sweep finished in "):
            c["sweep_end_s"] = t
        elif line.startswith("[profile] ") and " events, " in line:
            name, _, rest = line[len("[profile] "):].partition(": ")
            parts = rest.replace(",", "").split()
            c["profile"][name] = {"events": int(parts[0]),
                                  "ms": float(parts[2])}
    return c


def artifact_summary(out_dir, profile):
    """Fingerprint, counts and per-key statistics of a sweep's artifacts."""
    text, rows = [], {}
    for path in sorted(out_dir.glob("*.json")):
        art = json.loads(path.read_text())
        module = path.stem
        for r in art["runs"]:
            stats = list(r.get("metrics", {}).items())
            rows[r["key"]] = {"stats": stats, "ok": r["ok"],
                              "sync_ops": sum(k["completions"]
                                              for k in r.get("sync", []))}
            text.append(cell_canon(r["key"], stats) + "\n")
        events = profile.get(module, {}).get("events", -1)
        text.append(f"module={module}|events={events}\n")
    return fnv1a64("".join(text)), rows


def check_child(c, out_dir, report):
    """Correctness of one child; returns (fingerprint, rows) or None."""
    total = c["total"] or 1
    ok_cells = sum(1 for x in c["cells"] if x["ok"])
    report["attempted"] += total
    report["failed"] += total - ok_cells
    if c["returncode"] != 0 or c["timed_out"] or ok_cells != total:
        report["problems"].append(
            f"bench_all exited {c['returncode']}"
            f"{' (timed out)' if c['timed_out'] else ''} after "
            f"{ok_cells}/{total} good cells")
        return None
    if c["sweep_end_s"] is None or "total" not in c["profile"]:
        report["problems"].append("bench_all output incomplete")
        return None
    return artifact_summary(out_dir, c["profile"])


def child_spans(c, pass_no, next_id):
    """Spans of one sweep child, derived from its timed output lines."""
    us = 1e6
    spans = []

    def add(name, parent, cell, start, end):
        spans.append({"id": next_id + len(spans), "parent": parent,
                      "name": name, "cell": cell, "pass": pass_no,
                      "start_us": start * us, "end_us": end * us})
        return spans[-1]["id"]

    root = add("child", 0, -1, 0.0, c["wall_s"])
    add("harness.registration", root, -1, 0.0, c["setup_s"])
    sweep = add("harness.sweep", root, -1, c["setup_s"], c["sweep_end_s"])
    for x in c["cells"]:
        add("cell", sweep, x["i"] - 1, x["end_s"] - x["ms"] / 1e3, x["end_s"])
    add("harness.publish", root, -1, c["sweep_end_s"], c["wall_s"])
    return spans


def run_sweep(spec, seconds, trace, report):
    out_dir = WORK / "sweep-out"
    children, fps, all_spans = [], set(), []
    start = time.monotonic()
    longest, rows = 0.0, None
    need = 2 if trace else 1
    while True:
        elapsed = time.monotonic() - start
        if len(children) >= need and elapsed + longest > seconds:
            break
        c = run_child(spec, out_dir)
        longest = max(longest, c["wall_s"])
        summary = check_child(c, out_dir, report)
        if summary is None:
            return {}
        fp, rows = summary
        fps.add(fp)
        c["traced"] = trace and len(children) % 2 == 1
        if c["traced"]:
            all_spans += child_spans(c, len(children), len(all_spans) + 1)
        children.append(c)
    report["passes"] = len(children)
    report["fingerprint"] = "/".join(f"{fp:016x}" for fp in sorted(fps))
    if len(fps) != 1:
        report["problems"].append("sweep fingerprints differ between runs")

    # As in process, each timing is the fastest of the run's children
    # (cell keys are unique within a sweep).
    plain = [c for c in children if not c["traced"]]
    by_cell = {}
    for c in plain:
        for x in c["cells"]:
            by_cell.setdefault(x["key"], []).append(x["ms"])
    cell_ms = [min(v) for v in by_cell.values()]
    report["cell_samples"] = (f"{len(cell_ms)} cells, each the fastest of "
                              f"{len(plain)} children")
    tot = {}
    for r in rows.values():
        for n, v in r["stats"]:
            tot[n] = tot.get(n, 0) + v
    counts = {name: tot[field] for name, field in COUNTS.items()}
    if not trace:
        wall_s = min(c["wall_s"] for c in plain)
        return {
            "wall_s": wall_s,
            "setup_s": min(c["setup_s"] for c in plain),
            "sim_instr_per_s": counts["core.instructions"] / wall_s,
            "cell_ms_p50": grouped_percentile(cell_ms, 50, 0.1),
            "cell_ms_p98": grouped_percentile(cell_ms, 98, 0.1),
            "peak_rss_mb": median([c["ru"].ru_maxrss for c in plain]) / 1024,
        }

    traced = [c for c in children if c["traced"]]

    def med(f):
        return median([f(c) for c in traced])

    sync_ops = sum(r["sync_ops"] for r in rows.values())
    m = dict(counts)
    m["coherence.llc_sync_per_op"] = (tot["llc_sync_accesses"] / sync_ops
                                      if sync_ops else 0.0)
    sweep_s = med(lambda c: c["sweep_end_s"] - c["setup_s"])
    cell_sum_s = med(lambda c: sum(x["ms"] for x in c["cells"]) / 1e3)
    prof = traced[0]["profile"]["total"]
    m.update({
        "harness.registration_s": med(lambda c: c["setup_s"]),
        "harness.sweep_s": sweep_s,
        "harness.publish_s": med(lambda c: c["wall_s"] - c["sweep_end_s"]),
        "harness.cells_simulated": traced[0]["total"],
        "harness.cell_wall_sum_s": cell_sum_s,
        "harness.parallel_efficiency": cell_sum_s / (sweep_s * SWEEP_JOBS),
        "harness.profile_mevps": med(
            lambda c: c["profile"]["total"]["events"] /
            c["profile"]["total"]["ms"] / 1e3),
        "sim.events": prof["events"],
    })
    m.update(host_metrics(
        med(lambda c: c["ru"].ru_utime), med(lambda c: c["ru"].ru_stime),
        med(lambda c: c["ru"].ru_minflt), med(lambda c: c["ru"].ru_nivcsw)))
    m["trace.overhead_ratio"] = (med(lambda c: c["wall_s"]) /
                                 median([c["wall_s"] for c in plain]))

    # In-process layers: replay one module's cells in process and
    # require its statistics to match the child's artifact row by row.
    passes, _ = run_inproc(spec.replay_workload, 0, 1, True)
    _, attempted, failed, problems = check_passes(passes)
    report["attempted"] += attempted
    report["failed"] += failed
    report["problems"] += problems
    replay = [p for p in passes if p["traced"]]
    differ = [c["key"] for c in replay[0]["cells"]
              if c["key"] not in rows or
              [list(s) for s in rows[c["key"]]["stats"]] != c["stats"]]
    if differ:
        report["problems"].append(
            f"{len(differ)} replayed cells differ from bench_all's "
            f"artifact, first {differ[0]}")
    replay_events = sum(c["events"] for c in replay[0]["cells"])
    child_events = traced[0]["profile"].get(spec.replay_module, {})
    if replay_events != child_events.get("events"):
        report["problems"].append(
            f"replayed {spec.replay_module} events differ from bench_all's")
    layers = inproc_layers(replay)
    layers["sim.ns_per_event"] = layers["sim.loop_ms"] * 1e6 / replay_events
    del layers["sim.events"]
    m.update(layers)

    spans_path = WORK / "spans-sweep.json"
    spans_path.write_text(json.dumps({"spans": all_spans}) + "\n")
    report["spans"] = str(spans_path.relative_to(ROOT))
    report["self_ms"] = {k: v / len(traced)
                         for k, v in self_times(all_spans).items()}
    return m


# ------------------------------------------------------------------ main


def new_report(workload):
    """What a run found besides its metrics: counts, problems, spans."""
    WORK.mkdir(parents=True, exist_ok=True)
    return {"workload": workload, "problems": [], "attempted": 0,
            "failed": 0}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (metrics, report)."""
    report = new_report(workload)
    if workload == "sweep_quick":
        m = run_sweep(SWEEP_QUICK, seconds, trace, report)
    else:
        m = run_inprocess(workload, seed, seconds, trace, report)
    return m, report


def result_line(metrics, report, trace):
    units = PER_LAYER if trace else END_TO_END
    correct = not report["problems"] and report["failed"] == 0
    return {
        "correct": correct,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items() if n in metrics},
    }


def print_report(metrics, report, trace):
    units = PER_LAYER if trace else END_TO_END
    print(f"workload {report['workload']}: {report.get('passes', 0)} "
          f"passes, fingerprint {report.get('fingerprint', '-')}")
    print(f"cells attempted {report['attempted']}, failed "
          f"{report['failed']}; cell_ms percentiles over "
          f"{report.get('cell_samples', 0)}")
    for n, u in units.items():
        if n in metrics:
            print(f"  {n:32s} {metrics[n]:>16.6g} {u}")
    if "self_ms" in report:
        print(f"self time per layer, ms per traced pass "
              f"(spans: {report['spans']}):")
        for n, v in sorted(report["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"  {n:32s} {v:>16.3f}")
    for p in report["problems"]:
        print(f"PROBLEM: {p}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["apps64", "sync64", "sweep_quick"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    seed = args.seed & 0xFFFFFFFFFFFFFFFF
    try:
        build()
        metrics, report = run_workload(args.workload, seed, args.seconds,
                                       bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result = result_line(metrics, report, args.trace)
    print_report(metrics, report, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
