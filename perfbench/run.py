"""Run one benchmark workload, or every workload, and print its metrics.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

A run sets the workload up three times (``setup_s`` is the median), warms
up, then cycles through the workload's operations, one at a time, until
their summed latency reaches ``--seconds``.  Every output is checked
against an expected answer outside the timed region.  Between operations
a fixed calibration slice is timed; end-to-end figures are scaled to a
reference host speed (see ``REFERENCE_SLICE_S``).  ``--trace 1``
runs each operation of half that time twice, untraced and with spans
around each module's calls, and reports per-layer metrics and the
tracing overhead instead of the end-to-end metrics.  The last line of
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOADS = ["prove", "verify", "semantics-sweep", "semantics-witness"]
# Not in BENCHMARK.json: every operation of it fails at this version.
EXTRA_WORKLOADS = ["verify-malformed"]
REJECT_REASONS = [
    "NotAnAxiomInstance", "BadMPReference", "MPShapeMismatch", "DefMismatch",
    "GoalMismatch", "BadLineIndex", "UnsupportedJustification",
]


# The host's speed drifts by up to a quarter over minutes on a shared
# machine, and a fixed slice of interpreter work drifts with it (measured:
# over eight runs of semantics-witness the spread of ops_per_s fell from
# 0.23 raw to 0.05 scaled).  End-to-end figures are therefore scaled to the
# speed at which one slice takes REFERENCE_SLICE_S; the raw figures and the
# scale are printed beside them.
REFERENCE_SLICE_S = 0.010
SLICE_EVERY_S = 0.2


class Calibrator:
    """Times the calibration slice between operations, outside timed regions."""

    def __init__(self):
        self.times: list[float] = []
        self.last = float("-inf")

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= SLICE_EVERY_S:
            self.times.append(calibration_slice())
            self.last = time.perf_counter()

    def speed(self) -> float:
        """This run's speed relative to the reference; above 1 is faster."""
        return REFERENCE_SLICE_S / statistics.mean(self.times)


def calibration_slice() -> float:
    """Time a fixed piece of work of the program's kind, made of tuples,
    dict lookups, strings and a sort, with the collector off so that the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(12000):
            key = (i % 977, str(i % 1013))
            table[key] = (table.get(key), i)
        ",".join(str(v[1]) for v in sorted(table.values(), key=lambda v: v[1])[:3000])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "plogic" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/plogic not found; run from the root of a plogic checkout")
    sys.path[:0] = [str(src), str(HERE)]


def execute(op, op_id: int, tracer=None, new_input: bool = False):
    """Run one operation, timed, then check its output untimed.

    Returns (latency, work units, error or None, output).
    """
    from workloads import Mismatch

    if tracer is not None:
        tracer.begin_op(op_id, op.kind)
    t0 = time.perf_counter()
    try:
        output, error = op.run(), None
    except Exception as exc:  # a crash is a failed operation, not a failed run
        output, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    work = 0
    if error is None:
        try:
            work = op.expect(output)
        except Mismatch as exc:
            error = f"wrong answer: {exc}"
        except Exception as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.settle(new_input)
    return latency, work, error, output


def run_for(schedule, seconds: float, first=(), calibrator=None) -> list[tuple]:
    """Run ``first`` once, then cycle through ``schedule`` until the summed
    latency of the cycled operations reaches ``seconds``.

    Returns one record (op, latency, work, error, proof bytes) per operation.
    """
    records, busy, i = [], 0.0, 0
    for op in first:
        records.append(_record(op, -1))
    while busy < seconds:
        if calibrator is not None:
            calibrator.maybe()
        records.append(_record(schedule[i % len(schedule)], i))
        busy += records[-1][1]
        i += 1
    return records


def _record(op, op_id: int) -> tuple:
    latency, work, error, output = execute(op, op_id)
    size = len(output[1].encode()) if op.kind == "prove" and error is None else 0
    return op, latency, work, error, size


def run_traced(wl, seconds: float, tracer) -> tuple[list, list]:
    """Like ``run_for``, but each operation runs twice, untraced and traced,
    in alternating order, so that drift and warm caches fall on both sides
    alike.  Returns the untraced and the traced records."""
    untraced, traced, seen = [], [], set()

    def pair(op, i):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(_record(op, i))
                continue
            tracer.install()
            try:
                latency, work, error, _ = execute(op, i, tracer, op.key not in seen)
            finally:
                tracer.uninstall()
            seen.add(op.key)
            traced.append((op, latency, work, error, 0))

    for i, op in enumerate(wl.first):
        pair(op, -1 - i)
    busy, i = 0.0, 0
    while busy < seconds:
        pair(wl.schedule[i % len(wl.schedule)], i)
        busy += untraced[-1][1]
        i += 1
    return untraced, traced


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, records, setup_times, speed: float) -> tuple[dict, list[str]]:
    """The listed metrics, times scaled by ``speed`` and rates divided by it."""
    latencies = [r[1] for r in records]
    busy = sum(latencies)
    work = sum(r[2] for r in records)
    raw = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "work_per_s": (work / busy, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
    }
    metrics = {
        k: (v * speed if unit == "s" else v / speed, unit) for k, (v, unit) in raw.items()
    }
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [
        f"host speed {speed:.4g} x reference; unscaled: "
        + ", ".join(f"{k} {v:.6g} {unit}" for k, (v, unit) in raw.items()),
        f"{wl.unit}_per_s = work_per_s: {work / busy / speed:.6g} {wl.unit}/s",
        f"latency samples: {len(records)}",
    ]
    if len(records) >= 100:
        notes.append(f"latency_p90_s: {_quantile(latencies, 90) * speed:.6g} s")
    else:
        notes.append("latency_p90_s: not reported, fewer than 100 operations")
    failed = sum(1 for r in records if r[3] is not None)
    notes.append(f"failed_ratio: {failed / len(records):.6g} ({failed}/{len(records)})")
    if wl.name == "prove":
        sizes = {r[0].key: (r[2], r[4]) for r in records if r[3] is None}
        notes.append(f"proof_lines: {sum(s[0] for s in sizes.values())} lines over {len(sizes)} distinct goals")
        notes.append(f"proof_bytes: {sum(s[1] for s in sizes.values())} B over {len(sizes)} distinct goals")
        mains = [str(sizes[k][0]) for k in sorted(sizes) if k.endswith(":main")]
        notes.append(f"main-result lines: {' / '.join(mains) or 'none reached'}")
    return metrics, notes


def per_layer(tracer, busy_untraced: float, busy_traced: float) -> dict:
    calls, busy, own = tracer.totals()
    c = tracer.counts

    def rate(n, t):
        return n / t if t > 0 else 0.0

    rows = c["rows.check"] + c["rows.precheck"] + c["rows.table"] + c["rows.relation"]
    semantic_busy = (
        busy["semantics.truth_table"] + busy["semantics.relation"]
        + busy["semantics.evaluate"] + busy["prover.precheck"]
    )
    m = {
        "formula.nodes": (c["formula.objects"], "count"),
        "formula.share_ratio": (rate(c["formula.objects"], c["formula.distinct"]), "ratio"),
        "parser.parse.calls": (calls["parser.parse"], "count"),
        "parser.parse.busy_s": (busy["parser.parse"], "s"),
        "parser.parse.chars_per_s": (rate(c["parse.chars"], busy["parser.parse"]), "chars/s"),
        "parser.render.calls": (calls["parser.render"], "count"),
        "parser.render.busy_s": (busy["parser.render"], "s"),
        "io.load.busy_s": (busy["io.load"], "s"),
        "io.load.self_s": (own["io.load"], "s"),
        "io.load.bytes_per_s": (rate(c["load.bytes"], busy["io.load"]), "B/s"),
        "io.dump.busy_s": (busy["io.dump"], "s"),
        "io.dump.bytes_per_s": (rate(c["dump.bytes"], busy["io.dump"]), "B/s"),
        "io.dump.bytes": (c["dump.bytes"], "B"),
        "checker.busy_s": (busy["checker.check"] + busy["checker.fresh"], "s"),
        "checker.lines_per_s": (rate(c["checker.check.lines"], busy["checker.check"]), "lines/s"),
        "checker.fresh_lines_per_s": (rate(c["checker.fresh.lines"], busy["checker.fresh"]), "lines/s"),
    }
    for reason in REJECT_REASONS:
        m[f"checker.rejects.{reason}"] = (c["rejects." + reason], "count")
    for layer, span in (("axioms.instance", "axioms.instance"), ("defs", "defs")):
        for caller in ("prover", "checker"):
            m[f"{layer}.{caller}.calls"] = (calls[f"{span}@{caller}"], "count")
            m[f"{layer}.{caller}.busy_s"] = (busy[f"{span}@{caller}"], "s")
    m.update({
        "prover.busy_s": (busy["prover.prove"], "s"),
        "prover.lines": (c["prover.lines"], "lines"),
        "prover.lines_per_s": (rate(c["prover.lines"], busy["prover.prove"]), "lines/s"),
        "prover.precheck.busy_s": (busy["prover.precheck"], "s"),
        "semantics.rows": (rows, "count"),
        "semantics.cells": (c["cells"] + c["rows.check"] + c["rows.precheck"], "count"),
        "semantics.truth_table.busy_s": (busy["semantics.truth_table"], "s"),
        "semantics.table_labels.busy_s": (busy["semantics.table_labels"], "s"),
        "semantics.relation.busy_s": (busy["semantics.relation"], "s"),
        "semantics.rows_per_s": (rate(rows, semantic_busy), "rows/s"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace.overhead_s": (busy_traced - busy_untraced, "s"),
        "trace.overhead_ratio": (rate(busy_traced - busy_untraced, busy_untraced), "ratio"),
    })
    return m


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    import workloads
    from spans import Tracer

    workdir = ROOT / ".perfbench-tmp" / f"{name}-{seed}-{os.getpid()}"
    calibrator = Calibrator()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            calibrator.maybe()
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            wl = workloads.build(name, seed, workdir, small)
            setup_times.append(time.perf_counter() - t0)
        gc.collect()
        for i, op in enumerate(wl.warmup):
            execute(op, -1 - i)
        if not trace:
            records = run_for(wl.schedule, seconds, wl.first, calibrator)
            calibrator.maybe()
            metrics, notes = end_to_end(wl, records, setup_times, calibrator.speed())
        else:
            tracer = Tracer()
            records, traced = run_traced(wl, seconds / 2, tracer)
            busy_a, busy_b = sum(r[1] for r in records), sum(r[1] for r in traced)
            metrics = per_layer(tracer, busy_a, busy_b)
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{name}-seed{seed}.csv"
            tracer.write(spans)
            notes = [
                f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}",
                f"tracing overhead: {busy_b - busy_a:.6g} s on {busy_a:.6g} s untraced",
            ]
            records = records + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r[0].key, r[3]) for r in records if r[3] is not None]
    print(f"workload {name}, seed {seed}, {len(records)} operations, {len(failures)} failed")
    for key, error in sorted(set(failures))[:20]:
        print(f"  failed {key}: {error[:300]}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:38s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> None:
    """Each workload in a fresh process; then one table of every metric."""
    results = {}
    for name in WORKLOADS + EXTRA_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':38s} {'unit':8s} " + " ".join(f"{n:>18s}" for n in results))
    for metric, first in next(iter(results.values()))["metrics"].items():
        cells = " ".join(f"{r['metrics'][metric]['value']:18.6g}" for r in results.values())
        print(f"{metric:38s} {first['unit']:8s} {cells}")
    cells = " ".join(f"{str(r['failed']) + '/' + str(r['attempted']):>18s}" for r in results.values())
    print(f"{'failed/attempted':38s} {'ops':8s} {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    _load_program()
    if args.all:
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
