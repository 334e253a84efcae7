"""Compilers for named unitaries.

Everything here ends in the same place: a diagonal core lowered by
:func:`zzkit.diagonal.compile_phases`, wrapped where needed in one-qubit
basis changes.  The multi-controlled gate conjugates a two-entry phase
vector by the Euler rotations of its 2x2 block; Hadamard layers,
conditional phase shifts, search iterates and balanced-function oracles
are built directly, and :func:`simulate_grover` runs the search iterate on
the simulator.  The compile path runs on Python floats: this module never
imports numpy, and loads the simulator only when `simulate_grover` runs.
The records and readers of the compile sources live in `zzkit.gates`;
`TruthTable`, `load_truth_table`, `load_u2_matrix`, `GateCounts` and
`gate_counts` are re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .diagonal import check_compile_cap, compile_phases
from .gates import (  # the records, their readers and gate_counts are re-exported
    DROP_TOL,
    GateCounts,
    GateSequence,
    TruthTable,
    _u2_fields,
    as_u2,
    gate_counts,
    gphase,
    load_truth_table,
    load_u2_matrix,
    rx,
    ry,
    rz,
)

_HALF_PI = 0.5 * math.pi


class U2Params(NamedTuple):
    """Euler data for u = T * exp(-i*(phi0 + phi1*Iz)) * T^dagger with
    T = exp(-i*alpha*Iz) * exp(-i*beta*Iy); `zzkit.simulator.u2_from_params`
    rebuilds the matrix."""

    alpha: float
    beta: float
    phi0: float
    phi1: float


def decompose_u2(u) -> U2Params:
    """Closed-form Euler data of a 2x2 unitary, on Python scalars, so no
    LAPACK or SIMD path enters: with phi0 = -arg(det u)/2, exp(i*phi0)*u is
    cos(phi1/2)*I - i*sin(phi1/2)*n.sigma (Barenco et al., PRA 52, 3457,
    sec. 4), and the axis n, taken with n_z >= 0, gives alpha and beta in
    [0, pi/2].  A scalar multiple of the identity has alpha = beta = phi1 = 0.
    """
    (a, b), (c, d) = as_u2(u)
    if max(abs(b), abs(c), abs(d - a)) < 1e-12:
        return U2Params(0.0, 0.0, -cmath.phase(a), 0.0)
    phi0 = -0.5 * cmath.phase(a * d - b * c)
    w = cmath.exp(1j * phi0)
    a, b, c, d = w * a, w * b, w * c, w * d
    sign = -1.0 if (d - a).imag < 0 else 1.0  # -n with -phi1 is the same u
    nx, ny, nz = -sign * (b + c).imag / 2, sign * (c - b).real / 2, sign * (d - a).imag / 2
    phi1 = 2.0 * math.atan2(sign * math.hypot(nx, ny, nz), (a + d).real / 2)
    beta = math.atan2(math.hypot(nx, ny), nz)
    alpha = math.atan2(ny, nx) if nx or ny else 0.0  # atan2(0.0, -0.0) is pi
    return U2Params(alpha, beta, phi0, phi1)


def compile_controlled_u(u, n: int) -> GateSequence:
    """Lower the n-qubit controlled-u gate to the target gate set.

    The diagonal core has exactly two nonzero phases, on the two basis states
    whose controls are all 1; it is lowered by compile_phases and wrapped in
    the RZ/RY conjugation that diagonalizes u on the last qubit.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    p = decompose_u2(u)
    theta = [0.0] * (2**n - 2) + [p.phi0 + 0.5 * p.phi1, p.phi0 - 0.5 * p.phi1]
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
    theta = [0.0] * 2**n
    theta[marked] = phase
    return compile_phases(n, theta)


def build_grover_iteration(n: int, marked: int) -> GateSequence:
    """One search iterate: oracle phase flip, then the diffusion W*R*W.

    R flips the phase of every state except |0...0>, so W*R*W is exactly the
    standard inversion about the mean, global phase included.
    """
    oracle = compile_conditional_phase(n, marked, math.pi)
    w = build_walsh_hadamard(n)
    theta = [0.0] + [math.pi] * (2**n - 1)
    reflect = compile_phases(n, theta)
    return GateSequence(n, oracle.gates + w.gates + reflect.gates + w.gates)


def simulate_grover(n: int, marked: int, iterations: int) -> float:
    """Probability of reading the marked state after the given iterations,
    starting from the uniform superposition."""
    from .simulator import apply_sequence, zero_state
    check_compile_cap(n)
    if not 0 <= marked < 2**n:
        raise ValueError(f"basis index {marked} outside 0..{2**n - 1}")
    if iterations < 0:
        raise ValueError("iteration count must be nonnegative")
    state = apply_sequence(build_walsh_hadamard(n), zero_state(n))
    step = build_grover_iteration(n, marked)
    for _ in range(iterations):
        apply_sequence(step, state)
    return float(abs(state[marked]) ** 2)


def compile_deutsch_jozsa(f: TruthTable) -> GateSequence:
    """Phase oracle diag((-1)**f(x)) on the input register."""
    theta = [math.pi * v for v in f.values]
    return compile_phases(f.n_inputs, theta)
