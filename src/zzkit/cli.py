"""Command-line frontend: compile | verify | schedule | ion | classify.

Exit codes: 0 success / verification pass, 1 verification fail, 2 parse
error (also argparse usage errors), 3 semantic error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import compilers, diagonal, pulses, simulator
from .gates import ParseError, power_of_two_text, read_sequence, write_sequence
from .pauli import classify_subspace, coherence_orders, parse_operator

# A dense diagonal on n qubits lowers to 2^n - 2 ZZ gates; a Grover compile,
# run as `python -m zzkit.cli compile`, peaks at 48, 67 and 100 MB RSS at 14,
# 15 and 16 qubits (x86-64, Python 3.11, numpy 2.4).
MAX_COMPILE_QUBITS = 16


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zzkit",
        description="Compile diagonal unitaries and controlled gates to "
        "one-qubit rotations plus two-qubit ZZ gates, verify them against a "
        "dense simulator, and plan pulse-level realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a target to a gate-sequence file")
    _add_source_args(p_compile)
    p_compile.add_argument("--output", "-o", required=True, help="gate-sequence output path")
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser("verify", help="check a sequence file against its target")
    p_verify.add_argument("sequence", help="gate-sequence file to verify")
    _add_source_args(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.set_defaults(func=cmd_verify)

    p_sched = sub.add_parser("schedule", help="build a refocusing schedule for one coupling")
    p_sched.add_argument("graph", help="coupling-graph JSON file")
    p_sched.add_argument("--pair", nargs=2, type=int, required=True, metavar=("K", "L"))
    p_sched.add_argument("--tau", type=float, required=True,
                         help="seconds; sets the total duration 4^(levels-1)*tau")
    p_sched.add_argument("--output", "-o", required=True, help="schedule output path")
    p_sched.set_defaults(func=cmd_schedule)

    p_ion = sub.add_parser("ion", help="solve trapped-ion laser phases for a ZZ angle")
    p_ion.add_argument("angle", type=float, help="ZZ gate angle (radians)")
    p_ion.add_argument("--phi2", type=float, default=0.0, help="free phase phi2")
    p_ion.set_defaults(func=cmd_ion)

    p_classify = sub.add_parser("classify", help="coherence orders and subspace of an operator")
    p_classify.add_argument("operator", help='operator text, e.g. "0.5 I1x + 0.5 I1y"')
    p_classify.set_defaults(func=cmd_classify)

    return parser


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--phases", help="phase-vector JSON file")
    src.add_argument("--truth-table", help="truth-table JSON file")
    src.add_argument("--cu", help="2x2 unitary JSON file (controlled-u); needs --qubits")
    src.add_argument("--algorithm", choices=["grover", "walsh"], help="named builder")
    p.add_argument("--qubits", type=int, help="register size for --cu / --algorithm")
    p.add_argument("--marked", type=int, help="marked basis index for grover")


def _source(args):
    """(n, compile, target) for the chosen source.  The dense target is built
    by the referee, `zzkit.simulator`, unless the source is its own diagonal.

    The source's arguments are checked and its file is read here, once;
    nothing of size 2^n is built until one of the two builders is called.
    """
    if args.phases:
        pv = diagonal.load_phase_vector(args.phases)
        return (
            pv.n_qubits,
            lambda: diagonal.compile_phases(pv.n_qubits, pv.phases),
            lambda: np.diag(np.exp(-1j * pv.phases)),
        )
    if args.truth_table:
        tt = compilers.load_truth_table(args.truth_table)
        return (
            tt.n_inputs,
            lambda: compilers.compile_deutsch_jozsa(tt),
            lambda: np.diag(np.where(np.asarray(tt.values) == 1, -1.0 + 0.0j, 1.0 + 0.0j)),
        )
    n, marked = args.qubits, args.marked
    if args.cu:
        if n is None:
            raise ValueError("--cu requires --qubits")
        u = compilers.load_u2_matrix(args.cu)
        return (
            n,
            lambda: compilers.compile_controlled_u(u, n),
            lambda: simulator.universal_gate_matrix(u, n),
        )
    if args.algorithm == "grover":
        if n is None or marked is None:
            raise ValueError("--algorithm grover requires --qubits and --marked")
        return (
            n,
            lambda: compilers.build_grover_iteration(n, marked),
            lambda: simulator.grover_unitary(n, marked),
        )
    if args.algorithm == "walsh":
        if n is None:
            raise ValueError("--algorithm walsh requires --qubits")
        return n, lambda: compilers.build_walsh_hadamard(n), lambda: simulator.hadamard_unitary(n)
    raise ValueError("no source given")


def cmd_compile(args) -> int:
    n, compile_seq, _ = _source(args)
    if n > MAX_COMPILE_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the compile cap of {MAX_COMPILE_QUBITS}: a dense "
            f"diagonal on {n} qubits lowers to {power_of_two_text(n, 2)} ZZ gates"
        )
    seq = compile_seq()
    write_sequence(seq, args.output)
    counts = compilers.gate_counts(seq)
    print(
        f"wrote {args.output}: total={counts.total} zz={counts.zz} "
        f"one_qubit={counts.one_qubit} phase={counts.phase}"
    )
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    seq = read_sequence(args.sequence)
    simulator.check_dense_cap(seq.n_qubits)
    n, _, build_target = _source(args)
    simulator.check_dense_cap(n)
    if seq.n_qubits != n:
        raise ValueError(f"sequence has {seq.n_qubits} qubits, target has {n}")
    dist = simulator.distance_up_to_phase(simulator.sequence_unitary(seq), build_target())
    print(f"distance = {dist:.3e}")
    if dist < args.tol:
        print(f"PASS (tol = {args.tol:g})")
        return 0
    print(f"FAIL (tol = {args.tol:g})")
    return 1


def cmd_schedule(args) -> int:
    graph = pulses.load_coupling_graph(args.graph)
    k, l = args.pair
    sched = pulses.build_refocus_schedule(graph, k, l, args.tau)
    avg = pulses.average_hamiltonian(sched, graph)  # may refuse: write no file before it
    pulses.write_schedule(sched, args.output)
    print(f"wrote {args.output}: {len(sched.durations)} segments, "
          f"total duration {sched.total_duration:.17g} s")
    print("surviving average-Hamiltonian terms (radians):")
    if not avg.coeffs:
        print("  (none)")
    for subset, val in sorted(avg.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0])):
        label = " ".join(f"I{q}z" for q in subset)
        prefix = "2 " if len(subset) == 2 else ""
        print(f"  {prefix}{label}: {val:.17g}")
    return 0


def cmd_ion(args) -> int:
    p = pulses.ion_pulse_params(args.angle, args.phi2)
    for name in ("phi0", "phi1", "phi2", "phi3", "theta1", "theta2"):
        print(f"{name} = {getattr(p, name):.17g}")
    r_phase, r_theta = p.constraint_residuals()
    print(f"residual phi0-phi3 - (pi + 2(phi1-phi2)) mod 2pi = {r_phase:.17g}")
    print(f"residual theta1-theta2 - (pi + 4(phi1-phi2)) mod 2pi = {r_theta:.17g}")
    return 0


def cmd_classify(args) -> int:
    poly = parse_operator(args.operator)
    profile = coherence_orders(poly)
    label = classify_subspace(poly, profile)
    print(f"operator: {poly}")
    print("orders: " + (", ".join(f"{p:+d}" for p in sorted(profile.orders)) or "(none)"))
    for p in sorted(profile.component_weights):
        print(f"  weight p={p:+d}: {profile.component_weights[p]:.12g}")
    print(f"subspace: {label.value}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
