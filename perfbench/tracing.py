"""Spans around calls into zzkit's public functions, installed from outside.

zzkit modules bind each other's names at import (``compilers`` calls its own
``phases_to_zpoly``, ``cli`` calls ``simulator.sequence_unitary`` and its own
``read_sequence``), so a wrapper is installed at every module attribute that
holds the original function, and removed again afterwards.  Spans stay in
memory; a layer's self time is its span duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time


def _gates(args, result):
    return {"gates": len(result)}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _unitary_amps(args, result):
    seq = args[0]
    return {"gate_amps": len(seq) * 4**seq.n_qubits, "qubits": seq.n_qubits}


def _state_amps(args, result):
    return {"gate_amps": len(args[0]) * len(result)}


def _mul(args, result):
    a, b = args
    if not hasattr(b, "terms"):
        return {}
    return {"term_pairs": len(a.terms) * len(b.terms), "terms_out": len(result.terms)}


def _conjugate(args, result):
    seq, op = args
    return {"gate_terms": len(seq) * len(getattr(op, "terms", (None,)))}


def _cli_layer(args):
    return f"cli.{args[0][0]}"


# (module, attribute, layer, counter).  A layer may be a function of the call
# arguments; counters run after the span closes and cost O(1).
SPECS = [
    ("cli", "main", _cli_layer, None),
    ("diagonal", "phases_to_zpoly", "diagonal.walsh", lambda a, r: {"terms": len(r.coeffs)}),
    ("diagonal", "zpoly_to_sequence", "diagonal.lower", _gates),
    ("diagonal", "reduce_zstring", "diagonal.lower", _gates),
    ("compilers", "compile_controlled_u", "compilers", None),
    ("compilers", "compile_deutsch_jozsa", "compilers", None),
    ("compilers", "compile_conditional_phase", "compilers", None),
    ("compilers", "build_grover_iteration", "compilers", None),
    ("compilers", "build_walsh_hadamard", "compilers", None),
    ("gates", "write_sequence", "gates.write", _bytes),
    ("gates", "read_sequence", "gates.read", _gates),
    ("simulator", "sequence_unitary", "simulator.unitary", _unitary_amps),
    ("simulator", "apply_sequence", "simulator.statevector", _state_amps),
    ("simulator", "distance_up_to_phase", "simulator.distance", None),
    ("pauli", "PauliPolynomial.__mul__", "pauli.mul", _mul),
    ("pauli", "conjugate_by_sequence", "pauli.conjugate", _conjugate),
    ("pauli", "coherence_orders", "pauli.orders", None),
    ("pauli", "classify_subspace", "pauli.orders", None),
    ("pulses", "build_refocus_schedule", "pulses.plan", lambda a, r: {"segments": len(r.segments)}),
    ("pulses", "average_hamiltonian", "pulses.average", None),
    ("pulses", "write_schedule", "pulses.write", _bytes),
]


class Tracer:
    """Records spans as [layer, start, end, parent, counts, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded zzkit modules."""
        owners = {name: importlib.import_module(f"zzkit.{name}") for name, *_ in SPECS}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zzkit"]
        for mod_name, attr, layer, count in SPECS:
            owner = owners[mod_name]
            if "." in attr:  # a method: patch the class, which every caller shares
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original, count))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()


def self_times(spans) -> list[tuple[str, float, dict, bool, int]]:
    """(layer, self seconds, counts, outermost-of-its-layer, op) per span."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = []
    for i, (layer, start, end, parent, counts, op) in enumerate(spans):
        outermost = parent < 0 or spans[parent][0] != layer
        out.append((layer, end - start - child_time[i], counts or {}, outermost, op))
    return out
