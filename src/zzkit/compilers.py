"""Compilers for named unitaries.

Everything here ends in the same place: a diagonal core lowered by
:func:`zzkit.diagonal.compile_phases`, wrapped where needed in one-qubit
basis changes.  The multi-controlled gate conjugates a two-entry phase
vector by the Euler rotations of its 2x2 block; Hadamard layers,
conditional phase shifts, search iterates and balanced-function oracles
are built directly, and :func:`simulate_grover` runs the search iterate on
the simulator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .diagonal import compile_phases
from .gates import (
    DROP_TOL,
    GateSequence,
    gphase,
    is_two_to_the,
    json_float,
    json_int,
    load_json,
    power_of_two_text,
    rx,
    ry,
    rz,
)
from .simulator import MAX_UNITARY_QUBITS, apply_sequence, as_u2, zero_state

_HALF_PI = 0.5 * math.pi


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
    m = as_u2(u)
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


def compile_controlled_u(u, n: int) -> GateSequence:
    """Lower the n-qubit controlled-u gate to the target gate set.

    The diagonal core has exactly two nonzero phases, on the two basis states
    whose controls are all 1; it is lowered by compile_phases and wrapped in
    the RZ/RY conjugation that diagonalizes u on the last qubit.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    p = decompose_u2(u)
    dim = 2**n
    theta = np.zeros(dim)
    theta[dim - 2] = p.phi0 + 0.5 * p.phi1
    theta[dim - 1] = p.phi0 - 0.5 * p.phi1
    core = compile_phases(n, theta)
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
    return compile_phases(n, theta)


def build_grover_iteration(n: int, marked: int) -> GateSequence:
    """One search iterate: oracle phase flip, then the diffusion W*R*W.

    R flips the phase of every state except |0...0>, so W*R*W is exactly the
    standard inversion about the mean, global phase included.
    """
    oracle = compile_conditional_phase(n, marked, math.pi)
    w = build_walsh_hadamard(n)
    theta = np.full(2**n, math.pi)
    theta[0] = 0.0
    reflect = compile_phases(n, theta)
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
        values = tuple(self.values)
        if not is_two_to_the(len(values), self.n_inputs):
            raise ValueError(
                f"expected {power_of_two_text(self.n_inputs)} values, got {len(values)}"
            )
        if any(v not in (0, 1) for v in values):
            raise ValueError("truth table entries must be bits")
        self.values = tuple(int(v) for v in values)


def compile_deutsch_jozsa(f: TruthTable) -> GateSequence:
    """Phase oracle diag((-1)**f(x)) on the input register."""
    theta = math.pi * np.asarray(f.values, dtype=float)
    return compile_phases(f.n_inputs, theta)


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


def _u2_fields(doc) -> np.ndarray:
    parts = [np.asarray([[json_float(x) for x in row] for row in doc[k]]) for k in ("re", "im")]
    for part in parts:  # each part, so that no broadcast completes the other
        if part.shape != (2, 2):
            raise ValueError(f"shape {part.shape}")
    return parts[0] + 1j * parts[1]


def load_u2_matrix(path) -> np.ndarray:
    """Read a 2x2 matrix file, ``{"re": rows, "im": rows}``, under the rule
    of `zzkit.gates.load_json`: anything but a 2x2 matrix of JSON numbers
    raises ParseError; a matrix that is not unitary is refused with
    ValueError where it is used."""
    return load_json(path, "2x2 matrix", _u2_fields)


def load_truth_table(path) -> TruthTable:
    """Read a truth-table file, ``{"n": int, "values": [int, ...]}``, under
    the rule of `zzkit.gates.load_json`: a malformed document raises
    ParseError, a value the table refuses (a wrong length, an entry that is
    not a bit) the table's ValueError."""
    return TruthTable(*load_json(path, "truth-table", lambda doc: (
        json_int(doc["n"]), tuple(json_int(v) for v in doc["values"])
    )))
