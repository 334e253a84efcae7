"""Smoke run: every workload, check and the traced run, at small sizes.

    python3 perfbench/run.py --smoke

Runs each workload twice untraced and twice traced on one seed, requires
every run to be correct with every metric present, and requires the output
counts to repeat exactly.  Negative controls show that the referees reject
wrong answers, and a copy of the benchmark without the package must fail.
Exits nonzero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import referee

EXACT = {0: ["zz_per_target", "one_qubit_per_target"],
         1: ["segments_per_schedule", "pulses_per_schedule", "diagonal.lower.gates",
             "pauli.mul.terms_out", "pulses.plan.segments"]}


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _negative_controls() -> None:
    n, gates = referee.parse_sequence_text("QUBITS 2\nRX 1 0.5\nZZ 1 2 0.25\nPHASE 0.1\n")
    u = referee.dense_unitary(n, gates)
    bent = referee.dense_unitary(n, [gates[0], ("ZZ", (1, 2), 0.25 + 1e-8), gates[2]])
    assert referee.phase_distance(u, u * np.exp(0.3j)) < 1e-14, "global phase not ignored"
    assert referee.phase_distance(u, bent) > 1e-10, "referee missed a wrong angle"
    assert referee.phase_distance(referee.dense_unitary(1, [("RX", (1,), math.pi)]),
                                  referee.hadamard(1)) > 0.1, "referee missed a wrong gate"
    good = "SPINS 2\nSEGMENT 0.5\nPULSE180 1 2\nSEGMENT 0.5\nPULSE180 1 2\n"
    report = "  2 I1z I2z: 3.1415926535897931\n"
    assert referee.check_schedule(good, report, [10.0, 20.0], {(1, 2): 1.0}, (1, 2)) == (2, 2)
    for text, rep in ((good.replace("PULSE180 1 2\n", "PULSE180 1\n", 1), report),
                      (good, "  2 I1z I2z: 3.0\n"), (good, "")):
        try:
            referee.check_schedule(text, rep, [10.0, 20.0], {(1, 2): 1.0}, (1, 2))
        except ValueError:
            continue
        raise AssertionError("schedule referee accepted a wrong schedule")


def _bare_copy_fails(here: Path) -> None:
    bare = here / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(here, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "symbolic", 0)
        assert proc.returncode != 0, "benchmark ran without the package"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(here: Path) -> int:
    import run
    import tracing
    import workloads

    _negative_controls()
    import zzkit.cli

    before = zzkit.cli.read_sequence
    tracer = tracing.Tracer()
    tracer.install()
    assert zzkit.cli.read_sequence is not before, "tracer missed an import site"
    tracer.uninstall()
    assert zzkit.cli.read_sequence is before, "tracer left a wrapper installed"
    _bare_copy_fails(here)
    root = here.parent
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            units = dict(run.PER_LAYER if trace else run.END_TO_END)
            seen = []
            for _ in range(2):
                proc = _run(root, name, trace)
                if proc.returncode:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    raise SystemExit(f"smoke: {name} trace {trace} exited {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics = result["metrics"]
                assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr)
                assert set(metrics) == set(units), (name, trace, set(units) ^ set(metrics))
                assert all(math.isfinite(m["value"]) and m["unit"] == units[k]
                           for k, m in metrics.items()), (name, trace)
                seen.append({k: metrics[k]["value"] for k in EXACT[trace]})
            assert seen[0] == seen[1], f"{name} trace {trace}: counts differ {seen}"
            print(f"smoke ok: {name} trace {trace} ({result['attempted']} ops)")
    print("smoke ok")
    return 0
