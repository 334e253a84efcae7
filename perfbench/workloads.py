"""The workloads: seeded inputs, one op, and the check of its output.

Every workload repeats a fixed round of (kind, size) slots; the seed changes
only the random content of each slot, so every run measures the same mix.
``run`` is the timed part of an op; ``check`` and ``finish`` are not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import referee

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
ONE_QUBIT = ("RX", "RY", "RZ")


@dataclass
class Op:
    kind: str
    n: int
    data: dict = field(default_factory=dict)


def gate_kind_counts(kinds) -> dict:
    kinds = list(kinds)
    return {"zz": kinds.count("ZZ"), "one_qubit": sum(kinds.count(k) for k in ONE_QUBIT)}


def balanced_values(rng, n: int) -> list[int]:
    values = np.zeros(2**n, dtype=int)
    values[rng.permutation(2**n)[: 2 ** (n - 1)]] = 1
    return values.tolist()


def haar_u2(rng) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def run_child(argv, env) -> tuple[int, str, float]:
    """Run one process to completion; (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    return proc.returncode, proc.stdout + proc.stderr, wall


class VerifyDense:
    """A shell user's compile -> verify, each a fresh CLI process."""

    name = "verify-dense"
    in_process = False
    # Seconds one full-scale round takes on the reference machine (see README).
    round_seconds = 11.5
    rounds = {
        "full": [("phases", 8), ("grover", 7), ("truth-balanced", 7), ("phases", 7), ("cu", 7),
                 ("cu", 6), ("phases", 6), ("grover", 6), ("truth-balanced", 5), ("cu", 5),
                 ("truth-constant", 8)],
        "smoke": [("phases", 4), ("truth-balanced", 3), ("cu", 3), ("grover", 3),
                  ("truth-constant", 4)],
    }
    warmup = None  # every op is a fresh process
    referee_max_qubits = 6

    def __init__(self, ctx):
        self.ctx = ctx

    def make_op(self, rng, kind, n) -> Op:
        if kind == "phases":
            return Op(kind, n, {"phases": rng.uniform(-math.pi, math.pi, 2**n).tolist()})
        if kind == "truth-balanced":
            return Op(kind, n, {"values": balanced_values(rng, n)})
        if kind == "truth-constant":
            return Op(kind, n, {"values": [int(rng.integers(2))] * 2**n})
        if kind == "cu":
            return Op(kind, n, {"u": haar_u2(rng)})
        return Op(kind, n, {"marked": int(rng.integers(2**n))})

    def prepare(self, ops) -> None:
        """Write each op's input file; its source arguments go in op.data."""
        for i, op in enumerate(ops):
            path = self.ctx.work / f"in{i}.json"
            if op.kind == "phases":
                doc, src = {"n": op.n, "phases": op.data["phases"]}, ["--phases", str(path)]
            elif op.kind.startswith("truth"):
                doc, src = {"n": op.n, "values": op.data["values"]}, ["--truth-table", str(path)]
            elif op.kind == "cu":
                u = op.data["u"]
                doc = {"re": u.real.tolist(), "im": u.imag.tolist()}
                src = ["--cu", str(path), "--qubits", str(op.n)]
            else:
                doc, src = None, ["--algorithm", "grover", "--qubits", str(op.n),
                                  "--marked", str(op.data["marked"])]
            if doc is not None:
                path.write_text(json.dumps(doc) + "\n")
            op.data["src"] = src

    def _cli(self, argvs, spans=None) -> tuple[int, str, float]:
        if spans is None and len(argvs) == 1:
            return run_child([sys.executable, "-m", "zzkit.cli", *argvs[0]], self.ctx.env)
        jobs = self.ctx.work / "jobs.json"
        jobs.write_text(json.dumps({"trace": spans and str(spans), "argvs": argvs}))
        return run_child([sys.executable, str(HERE / "cli_batch.py"), str(jobs)], self.ctx.env)

    def run(self, op, i, traced):
        seq = self.ctx.work / f"op{i}.seq"
        steps = [["compile", *op.data["src"], "-o", str(seq)],
                 ["verify", str(seq), *op.data["src"]]]
        out = []
        for j, argv in enumerate(steps):
            spans = self.ctx.work / f"op{i}.{j}.spans.json" if traced else None
            code, text, wall = self._cli([argv], spans)
            out.append((code, text, wall, spans))
            if code:
                break
        return out

    def child_traces(self, payload):
        """(process wall, spans) for each CLI process of a traced op."""
        return [(wall, json.loads(spans.read_text())) for _, _, wall, spans in payload]

    def check(self, op, i, payload) -> dict:
        for code, text, _, _ in payload:
            if code:
                raise AssertionError(f"CLI exit {code}: {text.strip()[-300:]}")
        m = re.search(r"distance = (\S+)", payload[1][1])
        if not m or not float(m.group(1)) < 1e-10:
            raise AssertionError(f"verify reported {payload[1][1].strip()!r}")
        n, gates = referee.parse_sequence_text((self.ctx.work / f"op{i}.seq").read_text())
        if n != op.n:
            raise AssertionError(f"sequence has {n} qubits, target {op.n}")
        return gate_kind_counts(g[0] for g in gates)

    def target(self, op) -> np.ndarray:
        if op.kind == "phases":
            return referee.target_phases(op.data["phases"])
        if op.kind.startswith("truth"):
            return referee.target_truth_table(op.data["values"])
        if op.kind == "cu":
            return referee.target_controlled_u(op.data["u"], op.n)
        return referee.target_grover(op.n, op.data["marked"])

    def finish(self, ops) -> dict[int, str]:
        """Takes the ops run so far, ops[i] being op i.  Recompile every target in one more process and require identical
        bytes; referee every emitted file with at most 6 qubits."""
        errors = {}
        again = [["compile", *op.data["src"], "-o", str(self.ctx.work / f"op{i}.again.seq")]
                 for i, op in enumerate(ops)]
        code, text, _ = self._cli(again)
        for i, op in enumerate(ops):
            first = self.ctx.work / f"op{i}.seq"
            second = self.ctx.work / f"op{i}.again.seq"
            if code or not (first.exists() and second.exists()) or (
                    first.read_bytes() != second.read_bytes()):
                errors[i] = f"recompile not byte-identical (exit {code})"
            elif op.n <= self.referee_max_qubits:
                n, gates = referee.parse_sequence_text(first.read_text())
                dist = referee.phase_distance(referee.dense_unitary(n, gates), self.target(op))
                if not dist < 1e-10:
                    errors[i] = f"referee distance {dist:.3e}"
        return errors


# Ladder factors over product-operator factors: I+ = Ix + i Iy, I- = Ix - i Iy.
_LADDER = {"+": (("X", 1.0), ("Y", 1j)), "-": (("X", 1.0), ("Y", -1j)),
           "Z": (("Z", 1.0),), "E": (("E", 1.0),)}


def fixed_order_terms(rng, n: int, order: int, min_terms: int) -> dict:
    """Random sum of ladder monomials of one coherence order, expanded into
    product-operator terms; each monomial has at most 3 transverse spins."""
    terms: dict[tuple[str, ...], complex] = {}
    while len(terms) < min_terms:
        syms = rng.choice(list("EZ+-"), size=n)
        up, down = int(np.sum(syms == "+")), int(np.sum(syms == "-"))
        if up - down != order or up + down > 3:
            continue
        coeff = complex(rng.normal(), rng.normal())
        parts = [((), coeff)]
        for s in syms:
            parts = [(f + (a,), c * w) for f, c in parts for a, w in _LADDER[str(s)]]
        for f, c in parts:
            terms[f] = terms.get(f, 0.0) + c
    return terms


class Symbolic:
    """Product-operator algebra, pulse planning and the structured check of a
    lowered diagonal; no dense unitary."""

    name = "symbolic"
    in_process = True
    round_seconds = 4.3
    rounds = {
        "full": [("product", 4, (1, -1), (64, 64)), ("diagonal", 5),
                 ("schedule", (4, 7), "random"), ("product", 5, (2, -1), (44, 40)),
                 ("diagonal", 6), ("schedule", 8, "complete"), ("product", 6, (0, 1), (40, 36)),
                 ("diagonal", 7), ("schedule", 9, "complete"), ("diagonal", 7),
                 ("schedule", 9, "complete")],
        "smoke": [("product", 3, (1, -1), (8, 8)), ("diagonal", 3), ("schedule", 4, "random"),
                  ("schedule", 4, "complete")],
    }
    warmup = ("product", 4, (1, -1), (8, 8))

    def __init__(self, ctx):
        import zzkit
        import zzkit.cli  # noqa: F401  (the schedule op calls the CLI in process)

        self.ctx = ctx
        self.zk = zzkit

    def make_op(self, rng, kind, n, *shape) -> Op:
        zk = self.zk
        if kind == "product":
            (p, q), (ta, tb) = shape
            a = fixed_order_terms(rng, n, p, ta)
            b = fixed_order_terms(rng, n, q, tb)
            return Op(kind, n, {"orders": (p, q), "a_terms": a, "b_terms": b,
                                "a": zk.PauliPolynomial(n, a), "b": zk.PauliPolynomial(n, b)})
        if kind == "diagonal":
            return Op(kind, n, {"phases": rng.uniform(-math.pi, math.pi, 2**n)})
        if isinstance(n, tuple):  # a random graph's size is drawn from the range
            n = int(rng.integers(n[0], n[1] + 1))
        complete = shape[0] == "complete"
        k, l = (int(s) for s in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        couplings = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if complete or (i, j) == (min(k, l), max(k, l)) or rng.random() < 0.5:
                    couplings[(i, j)] = float(rng.uniform(5.0, 200.0))
        return Op(kind, n, {"shifts": rng.uniform(-3000.0, 3000.0, n).tolist(),
                            "couplings": couplings, "pair": (min(k, l), max(k, l)),
                            "tau": float(rng.uniform(1e-4, 1e-2))})

    def prepare(self, ops) -> None:
        for i, op in enumerate(ops):
            if op.kind == "schedule":
                doc = {"n": op.n, "shifts": op.data["shifts"],
                       "couplings": [{"i": i_, "j": j_, "J": v}
                                     for (i_, j_), v in op.data["couplings"].items()]}
                (self.ctx.work / f"graph{i}.json").write_text(json.dumps(doc) + "\n")

    def run(self, op, i, traced):
        zk = self.zk
        if op.kind == "product":
            prod = op.data["a"] * op.data["b"]
            return prod, zk.coherence_orders(prod), zk.classify_subspace(prod)
        if op.kind == "diagonal":
            # Prove the sequence diagonal, then read its 2^n entries from one
            # state-vector run on |+>^n.
            seq = zk.zpoly_to_sequence(zk.phases_to_zpoly(zk.PhaseVector(op.n, op.data["phases"])))
            outs = [zk.conjugate_by_sequence(seq, zk.ProductOperator.from_axes(op.n, {k: "Z"}))
                    for k in range(1, op.n + 1)]
            plus = np.full(2**op.n, 2.0 ** (-0.5 * op.n), dtype=complex)
            return seq, outs, zk.apply_sequence(seq, plus)
        k, l = op.data["pair"]
        argv = ["schedule", str(self.ctx.work / f"graph{i}.json"), "--pair", str(k), str(l),
                "--tau", repr(op.data["tau"]), "-o", str(self.ctx.work / "op.sched")]
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = zk.cli.main(argv)
        return code, report.getvalue()

    def check(self, op, i, payload) -> dict:
        n = op.n
        if op.kind == "product":
            prod, profile, label = payload
            want = (referee.pauli_dense(n, op.data["a_terms"])
                    @ referee.pauli_dense(n, op.data["b_terms"]))
            err = np.max(np.abs(referee.pauli_dense(n, prod.terms) - want))
            if not err <= 1e-9 * max(1.0, float(np.max(np.abs(want)))):
                raise AssertionError(f"product differs from dense by {err:.3e}")
            order = sum(op.data["orders"])
            if prod.terms and set(profile.orders) != {order}:
                raise AssertionError(f"orders {sorted(profile.orders)}, want {{{order}}}")
            if all(f in "EZ" for factors in prod.terms for f in factors):
                expected = "longitudinal"
            else:
                expected = ("zero-quantum" if order == 0 else
                            "even-order" if order % 2 == 0 else "general")
            if label.value != expected:
                raise AssertionError(f"subspace {label.value}, want {expected}")
            return {}
        if op.kind == "diagonal":
            seq, outs, state = payload
            for k, out in enumerate(outs, 1):
                key = tuple("Z" if s == k else "E" for s in range(1, n + 1))
                kept = {f: c for f, c in out.terms.items() if abs(c) > 1e-9}
                if set(kept) != {key} or abs(kept[key] - 1.0) > 1e-9:
                    raise AssertionError(f"I{k}z changed under the diagonal: {out}")
            dist = referee.phase_distance(state * 2.0 ** (0.5 * n),
                                          np.exp(-1j * op.data["phases"]))
            if not dist < 1e-10:
                raise AssertionError(f"diagonal read from |+>^n is off by {dist:.3e}")
            return gate_kind_counts(g.kind for g in seq)
        code, report = payload
        if code:
            raise AssertionError(f"schedule exit {code}")
        text = (self.ctx.work / "op.sched").read_text()
        segments, pulses = referee.check_schedule(
            text, report, op.data["shifts"], op.data["couplings"], op.data["pair"])
        return {"segments": segments, "pulses": pulses}

    def finish(self, ops) -> dict[int, str]:
        return {}


WORKLOADS = {w.name: w for w in (VerifyDense, Symbolic)}
