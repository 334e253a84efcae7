"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and timings.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import haar_u2, random_longitudinal_poly, random_order_poly, write_json
from zzkit.cli import main
from zzkit.compilers import (
    build_walsh_hadamard,
    compile_controlled_u,
    gate_counts,
    simulate_grover,
)
from zzkit.diagonal import PhaseVector, phases_to_zpoly, reduce_zstring, zpoly_to_phases, zpoly_to_sequence
from zzkit.gates import GateSequence
from zzkit.pauli import Subspace, classify_subspace, coherence_orders, to_matrix
from zzkit.pulses import CouplingGraph, average_hamiltonian, build_refocus_schedule, ion_pulse_params
from zzkit.simulator import distance_up_to_phase, sequence_unitary, universal_gate_matrix


def _report(num, text, elapsed, limit):
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"
    print(f"[PASS] criterion {num}: {text} ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_controlled_u_gate_count():
    start = time.perf_counter()
    u = haar_u2(np.random.default_rng(2024))
    seq = compile_controlled_u(u, 3)
    counts = gate_counts(seq)
    assert counts.zz == 6
    assert counts.one_qubit <= 13
    assert counts.phase == 1
    dist = distance_up_to_phase(sequence_unitary(seq), universal_gate_matrix(u, 3))
    assert dist < 1e-10
    _report(
        1,
        f"3-qubit controlled-u: 6 ZZ, {counts.one_qubit} one-qubit, 1 phase, dist {dist:.1e}",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_2_zstring_recursion():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for m in range(2, 7):
        subset = tuple(range(1, m + 1))
        for _ in range(20):
            lam = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            seq = reduce_zstring(subset, lam, m)
            counts = gate_counts(seq)
            assert counts.zz == 2 * m - 3
            assert counts.one_qubit == 6 * (m - 2)
            xs = np.arange(2**m)
            signs = np.ones(2**m)
            for q in subset:
                signs *= 1.0 - 2.0 * ((xs >> (m - q)) & 1)
            want = np.diag(np.exp(-1j * lam * 0.5 * signs))
            dist = float(np.max(np.abs(sequence_unitary(seq) - want)))
            assert dist < 1e-10
            worst = max(worst, dist)
    _report(
        2,
        f"z-string reduction m=2..6: exact 2m-3/6(m-2) counts, worst dist {worst:.1e}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_3_walsh_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_rt, worst_dist = 0.0, 0.0
    for n in range(2, 9):
        for _ in range(50):
            theta = rng.uniform(-math.pi, math.pi, size=2**n)
            zp = phases_to_zpoly(PhaseVector(n, theta))
            back = zpoly_to_phases(zp).phases
            rt = float(np.max(np.abs(back - theta)))
            assert rt < 1e-12
            worst_rt = max(worst_rt, rt)
            got = sequence_unitary(zpoly_to_sequence(zp))
            want = np.diag(np.exp(-1j * theta))
            plain = float(np.max(np.abs(got - want)))
            assert plain < 1e-10  # global phase reproduced exactly by PHASE
            assert distance_up_to_phase(got, want) < 1e-10
            worst_dist = max(worst_dist, plain)
    _report(
        3,
        f"Walsh pipeline n=2..8 x50: roundtrip {worst_rt:.1e}, unitary dist {worst_dist:.1e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_grover_dynamics():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for n in range(1, 7):
        theta = math.asin(2.0 ** (-n / 2.0))
        marked = int(rng.integers(0, 2**n))
        for k in range(0, 11):
            got = simulate_grover(n, marked, k)
            want = math.sin((2 * k + 1) * theta) ** 2
            err = abs(got - want)
            assert err < 1e-9
            worst = max(worst, err)
    special = simulate_grover(3, 5, 2)
    assert abs(special - 0.9453) < 1e-4
    _report(
        4,
        f"search dynamics n<=6, k<=10: worst formula error {worst:.1e}; n=3,k=2 -> {special:.4f}",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_5_walsh_hadamard_identity():
    start = time.perf_counter()
    w1 = sequence_unitary(build_walsh_hadamard(1))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    err = float(np.max(np.abs(w1 - h)))
    assert err < 1e-12
    for n in range(1, 7):
        seq = build_walsh_hadamard(n)
        twice = GateSequence(n, seq.gates + seq.gates)
        assert distance_up_to_phase(sequence_unitary(twice), np.eye(2**n, dtype=complex)) < 1e-10
    _report(
        5,
        f"Hadamard layer: W(1) off by {err:.1e}; involution holds for n<=6",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_6_coherence_closure_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2028)

    def check_product_dense(a, b, prod):
        dense = to_matrix(a) @ to_matrix(b)
        assert np.max(np.abs(to_matrix(prod) - dense)) < 1e-12

    for _ in range(200):  # product closure within zero-quantum / longitudinal
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            a, b = random_longitudinal_poly(rng, n), random_longitudinal_poly(rng, n)
            want = {Subspace.LONGITUDINAL}
        else:
            a, b = random_order_poly(rng, n, 0), random_order_poly(rng, n, 0)
            want = {Subspace.ZERO_QUANTUM, Subspace.LONGITUDINAL}
        prod = a * b
        assert classify_subspace(prod) in want
        check_product_dense(a, b, prod)

    for _ in range(200):  # even-order closure: orders add termwise
        n = 4
        p, q = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        a, b = random_order_poly(rng, n, 2 * p), random_order_poly(rng, n, 2 * q)
        prod = a * b
        assert coherence_orders(prod).orders <= {2 * (p + q)}
        check_product_dense(a, b, prod)

    done = 0
    while done < 200:  # zero-quantum sandwiches preserve the order
        n = 4
        p = int(rng.integers(-2, 3))
        q0, qp = random_order_poly(rng, n, 0), random_order_poly(rng, n, p)
        half = q0 * qp
        sandwich = half * q0
        if sandwich.is_zero:
            continue
        assert coherence_orders(sandwich).orders == {p}
        check_product_dense(half, q0, sandwich)
        done += 1

    _report(
        6,
        "coherence closure: 200 product, 200 even-order, 200 sandwich cases vs dense",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_7_refocusing_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2029)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        couplings = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.4:
                    couplings[(i, j)] = float(rng.uniform(0.5, 40.0) * rng.choice([-1, 1]))
        if not couplings:
            continue
        g = CouplingGraph(n, rng.uniform(-300.0, 300.0, size=n), couplings)
        pairs = sorted(couplings)
        k, l = pairs[int(rng.integers(0, len(pairs)))]
        sched = build_refocus_schedule(g, k, l, 1e-3)
        avg = average_hamiltonian(sched, g)
        assert set(avg.coeffs) == {(k, l)}, f"extra terms {avg.coeffs} for pair {(k, l)}"
        assert avg.constant == 0.0
        if g.coupling(k, l) > 0:
            assert avg.coeffs[(k, l)] > 0
        done += 1
    _report(
        7,
        "refocusing: 100 random graphs n<=8 leave exactly the requested ZZ term",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_8_ion_phase_constraints():
    start = time.perf_counter()
    rng = np.random.default_rng(2030)
    for _ in range(1000):
        lam = float(rng.uniform(-4 * math.pi, 4 * math.pi))
        p = ion_pulse_params(lam)
        assert p.constraint_residuals() == (0.0, 0.0)
    _report(
        8,
        "ion laser phases: both relations exact (residual 0.0) for 1000 angles",
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_9_cli_end_to_end(tmp_path):
    start = time.perf_counter()

    def compile_and_verify(source_args, name):
        out_a = str(tmp_path / f"{name}_a.txt")
        out_b = str(tmp_path / f"{name}_b.txt")
        assert main(["compile", *source_args, "-o", out_a]) == 0
        assert main(["compile", *source_args, "-o", out_b]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes(), "non-deterministic output"
        assert main(["verify", out_a, *source_args, "--tol", "1e-10"]) == 0

    compile_and_verify(["--algorithm", "grover", "--qubits", "3", "--marked", "5"], "grover")

    balanced = tmp_path / "balanced.json"
    balanced.write_text(json.dumps({"n": 3, "values": [0, 1, 1, 0, 1, 0, 0, 1]}))
    compile_and_verify(["--truth-table", str(balanced)], "dj_balanced")

    constant = tmp_path / "constant.json"
    constant.write_text(json.dumps({"n": 3, "values": [1] * 8}))
    compile_and_verify(["--truth-table", str(constant)], "dj_constant")

    rng = np.random.default_rng(2031)
    for n in (2, 3):
        u = haar_u2(rng)
        upath = write_json(tmp_path / f"u{n}.json", {"re": u.real.tolist(), "im": u.imag.tolist()})
        compile_and_verify(["--cu", upath, "--qubits", str(n)], f"cu{n}")

    _report(
        9,
        "CLI compile/verify roundtrips (grover, balanced+constant oracle, cu n=2,3), byte-stable",
        time.perf_counter() - start,
        30.0,
    )
