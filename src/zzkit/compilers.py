"""Compilers for named unitaries.

Everything here ends in the same place: a diagonal core synthesized by
:mod:`zzkit.diagonal`, wrapped where needed in one-qubit basis changes.
The multi-controlled gate conjugates a two-entry phase vector by the Euler
rotations of its 2x2 block; Hadamard layers, conditional phase shifts,
search iterates and balanced-function oracles are built directly, and
:func:`simulate_grover` runs the search iterate on the simulator.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagonal import PhaseVector, phases_to_zpoly, zpoly_to_sequence
from .gates import GateSequence, ParseError, gphase, load_json, rx, ry, rz
from .pauli import DROP_TOL
from .simulator import MAX_UNITARY_QUBITS, apply_sequence, zero_state

UNITARY_TOL = 1e-9

_HALF_PI = 0.5 * math.pi


def _as_u2(u) -> np.ndarray:
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.max(np.abs(m.conj().T @ m - np.eye(2))) > UNITARY_TOL:
        raise ValueError("matrix is not unitary")
    return m


@dataclass(frozen=True)
class U2Params:
    """Euler data for u = T * exp(-i*(phi0 + phi1*Iz)) * T^dagger with
    T = exp(-i*alpha*Iz) * exp(-i*beta*Iy)."""

    alpha: float
    beta: float
    phi0: float
    phi1: float


def u2_from_params(p: U2Params) -> np.ndarray:
    """Rebuild the 2x2 matrix a U2Params describes."""
    c, s = math.cos(0.5 * p.beta), math.sin(0.5 * p.beta)
    t = np.array(
        [
            [cmath.exp(-0.5j * p.alpha) * c, -cmath.exp(-0.5j * p.alpha) * s],
            [cmath.exp(0.5j * p.alpha) * s, cmath.exp(0.5j * p.alpha) * c],
        ]
    )
    d = cmath.exp(-1j * p.phi0) * np.diag(
        [cmath.exp(-0.5j * p.phi1), cmath.exp(0.5j * p.phi1)]
    )
    return t @ d @ t.conj().T


def decompose_u2(u) -> U2Params:
    """Eigendecompose a 2x2 unitary into rotation-conjugated phases.

    Scalar multiples of the identity short-circuit to alpha = beta = phi1 = 0
    so no ill-conditioned eigenvector enters; otherwise beta lands in [0, pi]
    and reconstruction via :func:`u2_from_params` is exact to rounding.
    """
    m = _as_u2(u)
    if np.max(np.abs(m - m[0, 0] * np.eye(2))) < 1e-12:
        return U2Params(0.0, 0.0, -cmath.phase(m[0, 0]), 0.0)
    evals, evecs = np.linalg.eig(m)
    psi = -np.angle(evals)  # eigenvalues are exp(-i*psi)
    phi0 = 0.5 * (psi[0] + psi[1])
    phi1 = psi[0] - psi[1]
    v = evecs[:, 0]
    beta = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
    if abs(v[0]) < 1e-12 or abs(v[1]) < 1e-12:
        alpha = 0.0
    else:
        alpha = cmath.phase(v[1]) - cmath.phase(v[0])
    return U2Params(float(alpha), float(beta), float(phi0), float(phi1))


def universal_gate_matrix(u, n: int) -> np.ndarray:
    """Dense n-qubit gate: identity except the 2x2 block on the last qubit
    conditioned on all other qubits being 1."""
    if n < 1:
        raise ValueError("need at least one qubit")
    m = _as_u2(u)
    out = np.eye(2**n, dtype=complex)
    out[-2:, -2:] = m
    return out


def compile_controlled_u(u, n: int) -> GateSequence:
    """Lower the n-qubit controlled-u gate to the target gate set.

    The diagonal core has exactly two nonzero phases, on the two basis states
    whose controls are all 1; it is synthesized through the Walsh pipeline and
    wrapped in the RZ/RY conjugation that diagonalizes u on the last qubit.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    p = decompose_u2(u)
    dim = 2**n
    theta = np.zeros(dim)
    theta[dim - 2] = p.phi0 + 0.5 * p.phi1
    theta[dim - 1] = p.phi0 - 0.5 * p.phi1
    core = zpoly_to_sequence(phases_to_zpoly(PhaseVector(n, theta)))
    pre = []  # T^dagger, applied first
    post = []  # T
    if abs(p.alpha) >= DROP_TOL:
        pre.append(rz(n, -p.alpha))
        post.append(rz(n, p.alpha))
    if abs(p.beta) >= DROP_TOL:
        pre.append(ry(n, -p.beta))
        post.insert(0, ry(n, p.beta))
    return GateSequence(n, pre + core.gates + post)


def build_walsh_hadamard(n: int) -> GateSequence:
    """Hadamard on every qubit, as one RY layer, one RX layer and a phase.

    The product PHASE(-n*pi/2) * RX_all(pi) * RY_all(pi/2), applied RY layer
    first, equals the n-qubit Hadamard matrix exactly (no residual phase).
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    gates = [gphase(-n * _HALF_PI)]
    gates.extend(ry(k, _HALF_PI) for k in range(1, n + 1))
    gates.extend(rx(k, math.pi) for k in range(1, n + 1))
    return GateSequence(n, gates)


def compile_conditional_phase(n: int, marked: int, phase: float) -> GateSequence:
    """Diagonal unitary with phase exp(-i*phase) on one basis state."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= marked < 2**n:
        raise ValueError(f"basis index {marked} outside 0..{2**n - 1}")
    theta = np.zeros(2**n)
    theta[marked] = phase
    return zpoly_to_sequence(phases_to_zpoly(PhaseVector(n, theta)))


def build_grover_iteration(n: int, marked: int) -> GateSequence:
    """One search iterate: oracle phase flip, then the diffusion W*R*W.

    R flips the phase of every state except |0...0>, so W*R*W is exactly the
    standard inversion about the mean, global phase included.
    """
    oracle = compile_conditional_phase(n, marked, math.pi)
    w = build_walsh_hadamard(n)
    theta = np.full(2**n, math.pi)
    theta[0] = 0.0
    reflect = zpoly_to_sequence(phases_to_zpoly(PhaseVector(n, theta)))
    return GateSequence(n, oracle.gates + w.gates + reflect.gates + w.gates)


def simulate_grover(n: int, marked: int, iterations: int) -> float:
    """Probability of reading the marked state after the given iterations,
    starting from the uniform superposition."""
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"{n} qubits exceeds the simulation cap")
    if not 0 <= marked < 2**n:
        raise ValueError(f"basis index {marked} outside 0..{2**n - 1}")
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    state = apply_sequence(build_walsh_hadamard(n), zero_state(n))
    step = build_grover_iteration(n, marked)
    for _ in range(iterations):
        apply_sequence(step, state)
    return float(abs(state[marked]) ** 2)


@dataclass
class TruthTable:
    """A boolean function on n inputs as its 2**n output bits."""

    n_inputs: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError("need at least one input")
        self.values = tuple(int(v) for v in self.values)
        if len(self.values) != 2**self.n_inputs:
            raise ValueError(
                f"expected {2**self.n_inputs} values, got {len(self.values)}"
            )
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("truth table entries must be bits")


def compile_deutsch_jozsa(f: TruthTable) -> GateSequence:
    """Phase oracle diag((-1)**f(x)) on the input register."""
    theta = math.pi * np.asarray(f.values, dtype=float)
    return zpoly_to_sequence(phases_to_zpoly(PhaseVector(f.n_inputs, theta)))


@dataclass(frozen=True)
class GateCounts:
    zz: int
    one_qubit: int
    phase: int

    @property
    def total(self) -> int:
        return self.zz + self.one_qubit + self.phase


def gate_counts(seq: GateSequence) -> GateCounts:
    zz_count = sum(1 for g in seq if g.kind == "ZZ")
    phase_count = sum(1 for g in seq if g.kind == "PHASE")
    return GateCounts(zz_count, len(seq) - zz_count - phase_count, phase_count)


def load_u2_matrix(path) -> np.ndarray:
    doc = load_json(path)
    try:
        m = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(
            doc["im"], dtype=float
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad 2x2 matrix file {path}: {exc}") from exc
    if m.shape != (2, 2):
        raise ParseError(f"bad 2x2 matrix file {path}: shape {m.shape}")
    return m


def save_u2_matrix(u, path) -> None:
    m = np.asarray(u, dtype=complex)
    doc = {"re": m.real.tolist(), "im": m.imag.tolist()}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_truth_table(path) -> TruthTable:
    """Read a truth-table file.  A malformed document raises ParseError; a
    value the table refuses (a wrong length, an entry that is not a bit)
    raises the table's ValueError, a semantic error."""
    doc = load_json(path)
    try:
        n = int(doc["n"])
        values = tuple(int(v) for v in doc["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad truth-table file {path}: {exc}") from exc
    return TruthTable(n, values)


def save_truth_table(f: TruthTable, path) -> None:
    Path(path).write_text(
        json.dumps({"n": f.n_inputs, "values": list(f.values)}) + "\n"
    )
