#!/usr/bin/env python3
"""Benchmark zzkit end to end, from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process drives a closed loop with one client, one op at a time.  A run
repeats whole rounds of its workload's op mix; the number of rounds is fixed
by --seconds (one round per ``round_seconds`` of the reference machine), so
two commits always measure the same ops.  Every op's output is checked.  The
last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# Start no new round after this many seconds, so a run ends well within 180 s.
HARD_LIMIT_S = 110.0

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"), ("zz_per_target", "gates"), ("one_qubit_per_target", "gates"),
]
_LAYER_TIMES = [
    "cli.process_start_s", "cli.compile.self_s", "cli.verify.self_s", "cli.schedule.self_s",
    "diagonal.walsh.s", "diagonal.lower.s", "compilers.self_s", "gates.write.s",
    "gates.read.s", "simulator.unitary.s", "simulator.unitary.first_call_s",
    "simulator.statevector.s", "simulator.distance.s", "pauli.mul.s", "pauli.conjugate.s",
    "pauli.orders.s", "pulses.plan.s", "pulses.average.s", "pulses.write.s",
    "trace.unattributed_s",
]
_LAYER_COUNTS = [
    ("diagonal.walsh.terms", "count"), ("diagonal.lower.gates", "count"),
    ("gates.write.bytes", "B"), ("gates.read.gates", "count"),
    ("simulator.unitary.gate_amps", "count"), ("simulator.unitary.ns_per_gate_amp", "ns"),
    ("simulator.statevector.gate_amps", "count"),
    ("simulator.statevector.ns_per_gate_amp", "ns"),
    ("pauli.mul.term_pairs", "count"), ("pauli.mul.terms_out", "count"),
    ("pauli.conjugate.gate_terms", "count"), ("pulses.plan.segments", "count"),
    ("pulses.write.bytes", "B"), ("segments_per_schedule", "count"),
    ("pulses_per_schedule", "count"), ("trace.overhead", "1"),
]
PER_LAYER = [(m, "s") for m in _LAYER_TIMES] + _LAYER_COUNTS
# Self time of a layer is reported as "<layer>.s" unless named here.
_SELF_NAMES = {"cli.compile": "cli.compile.self_s", "cli.verify": "cli.verify.self_s",
               "cli.schedule": "cli.schedule.self_s", "compilers": "compilers.self_s"}


@dataclass
class Context:
    work: Path
    env: dict


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def rounds_for(cls, args) -> int:
    if args.scale == "smoke":
        return 1
    return max(1, round(args.seconds / (cls.round_seconds * (2 if args.trace else 1))))


def set_up(args, work: Path):
    """Imports, input generation and (in-process workloads) one warm-up op."""
    import numpy as np

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(Context(work, child_env()))
    rng = np.random.default_rng(args.seed)
    slots = cls.rounds[args.scale]
    ops = [wl.make_op(rng, *slot) for _ in range(rounds_for(cls, args)) for slot in slots]
    warm = [wl.make_op(np.random.default_rng([args.seed, 1]), *cls.warmup)] if cls.warmup else []
    wl.prepare(ops + warm)
    warm_error = None
    if warm:
        try:
            wl.check(warm[0], len(ops), wl.run(warm[0], len(ops), False))
        except Exception as exc:  # reported as a failed op, not a crash
            warm_error = repr(exc)
    return wl, ops, len(slots), warm_error


def tail(values) -> tuple[float, int]:
    """Value at the highest rank with at least ten samples beyond it (never
    below the median rank), and that 0-based rank."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[rank], rank


def run_loop(args, wl, ops, per_round):
    """Timed loop over whole rounds: (records, failures, tracer, loop seconds),
    one record per op run."""
    from tracing import Tracer

    tracer = Tracer() if args.trace and wl.in_process else None
    records, failures = [], {}
    t0 = time.perf_counter()
    for r in range(len(ops) // per_round):
        if r and time.perf_counter() - t0 > HARD_LIMIT_S:
            break
        for i in range(r * per_round, (r + 1) * per_round):
            variants = [False, True] if args.trace else [False]
            if (i % per_round + i // per_round) % 2:  # each slot alternates by round
                variants.reverse()
            for traced in variants:
                use_tracer = tracer if traced else None
                if use_tracer is not None:
                    use_tracer.op = i
                    use_tracer.install()
                start = time.perf_counter()
                try:
                    payload = wl.run(ops[i], i, traced)
                except Exception as exc:  # a failed op is counted, the run goes on
                    failures[i] = repr(exc)
                    continue
                finally:
                    wall = time.perf_counter() - start
                    if use_tracer is not None:
                        use_tracer.uninstall()
                rec = {"op": i, "traced": traced, "wall": wall, "counts": {}}
                try:
                    rec["counts"] = wl.check(ops[i], i, payload)
                    if traced and not wl.in_process:
                        rec["children"] = wl.child_traces(payload)
                except Exception as exc:
                    failures[i] = repr(exc)
                records.append(rec)
    return records, failures, tracer, time.perf_counter() - t0


def mean_counts(records, keys) -> dict:
    """Per-item means of output counts, over the ops that report them."""
    out = {}
    for key in keys:
        vals = [r["counts"][key] for r in records if key in r["counts"]]
        out[key] = sum(vals) / len(vals) if vals else 0.0
    return out


def end_to_end(args, records, setup_walls, peak_rss_kb) -> dict:
    walls = [r["wall"] for r in records]
    tail_value, _ = tail(walls)
    counts = mean_counts(records, ["zz", "one_qubit"])
    return {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": len(walls) / math.fsum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "zz_per_target": counts["zz"],
        "one_qubit_per_target": counts["one_qubit"],
    }


def per_layer(records, tracer) -> dict:
    from tracing import self_times

    traced = [r for r in records if r["traced"]]
    plain = {r["op"]: r["wall"] for r in records if not r["traced"]}
    processes = []  # (process wall, or None for this process; its spans)
    if tracer is not None:
        processes.append((None, tracer.spans))
    for r in traced:
        processes.extend(r.get("children", []))
    totals = defaultdict(float)
    first_calls = []
    attributed = 0.0
    for wall, spans in processes:
        root = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)
        attributed += root
        if wall is not None:
            totals["cli.process_start_s"] += wall - root
            attributed += wall - root
        first = True
        for layer, self_s, counts, outermost, _ in self_times(spans):
            totals[_SELF_NAMES.get(layer, f"{layer}.s")] += self_s
            if layer == "simulator.unitary" and first:
                first = False
                first_calls.append((counts.get("qubits", 0), self_s))
            if outermost:
                for key, val in counts.items():
                    if key != "qubits":
                        totals[f"{layer}.{key}"] += val
    n = max(1, len(traced))
    metrics = {name: totals[name] / n for name, _ in PER_LAYER}
    if first_calls:
        top = max(q for q, _ in first_calls)
        metrics["simulator.unitary.first_call_s"] = statistics.mean(
            s for q, s in first_calls if q == top)
    for layer in ("simulator.unitary", "simulator.statevector"):
        amps = totals[f"{layer}.gate_amps"]
        metrics[f"{layer}.ns_per_gate_amp"] = 1e9 * totals[f"{layer}.s"] / amps if amps else 0.0
    traced_wall = math.fsum(r["wall"] for r in traced)
    metrics["trace.unattributed_s"] = (traced_wall - attributed) / n
    paired = [r for r in traced if r["op"] in plain]
    base = math.fsum(plain[r["op"]] for r in paired)
    metrics["trace.overhead"] = math.fsum(r["wall"] for r in paired) / base if base else 0.0
    sched = mean_counts(traced, ["segments", "pulses"])
    metrics["segments_per_schedule"] = sched["segments"]
    metrics["pulses_per_schedule"] = sched["pulses"]
    return metrics


def setup_walls(args) -> list[float]:
    """Wall time of fresh processes that only set up: process start to the
    point where the first timed op would begin."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--scale", args.scale, "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS if args.scale == "full" else 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        walls.append(time.perf_counter() - start)
        if proc.returncode:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return walls


def measure(args) -> int:
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl, ops, per_round, warm_error = set_up(args, work)
        if args.setup_only:
            return 0
        records, failures, tracer, loop_s = run_loop(args, wl, ops, per_round)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_kb = resource.getrusage(who).ru_maxrss
        done = len({r["op"] for r in records} | set(failures))  # whole rounds, in order
        for i, msg in wl.finish(ops[:done]).items():
            failures.setdefault(i, msg)
        attempted = done + (1 if wl.warmup else 0)
        failed = len(failures) + (1 if warm_error else 0)
        for i, msg in sorted(failures.items()):
            print(f"FAILED op {i} ({ops[i].kind}, n={ops[i].n}): {msg}", file=sys.stderr)
        if warm_error:
            print(f"FAILED warm-up op: {warm_error}", file=sys.stderr)
        if args.trace:
            metrics, units = per_layer(records, tracer), dict(PER_LAYER)
        else:
            metrics = end_to_end(args, records, setup_walls(args), peak_rss_kb)
            units = dict(END_TO_END)
        report(args, records, loop_s, metrics, units, attempted, failed)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, records, loop_s, metrics, units, attempted, failed) -> None:
    import numpy

    walls = [r["wall"] for r in records if not r["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  ops {len(walls)}  loop {loop_s:.1f} s  "
          f"python {platform.python_version()}  "
          f"numpy {numpy.__version__}  cores {os.cpu_count()}  "
          f"blas_threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} 1  ({failed} of {attempted})")
    if not args.trace:
        _, rank = tail(walls)
        print(f"  op_tail_s is rank {rank + 1} of {len(walls)} "
              f"(p{100.0 * (rank + 1) / len(walls):.0f}, {len(walls) - rank - 1} beyond)")
        sched = mean_counts([r for r in records if not r["traced"]], ["segments", "pulses"])
        if sched["segments"]:
            print(f"  {'segments_per_schedule':40s} {sched['segments']:14.6g} 1")
            print(f"  {'pulses_per_schedule':40s} {sched['pulses']:14.6g} 1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload, check and trace")
    args = parser.parse_args(argv)
    if not (SRC / "zzkit" / "__init__.py").is_file():
        print(f"error: no zzkit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child
    sys.path.insert(0, str(SRC))
    if args.smoke:
        import smoke

        return smoke.main(HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
