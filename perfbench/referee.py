"""Reference answers built without the code under test.

Nothing here imports zzkit.  Gate matrices come from the definitions in the
gate-set docstring (I = sigma/2, qubit 1 the most significant bit):

    RX/RY/RZ(k, theta) = exp(-i * theta * I_k_axis)
    ZZ(k, l, lam)      = exp(-i * lam * 2 I_kz I_lz)
    PHASE(phi)         = exp(-i * phi) * identity

and every dense operator is assembled with np.kron, so a change that weakens
the simulator or the distance function cannot also weaken these answers.
"""

from __future__ import annotations

import math
import re

import numpy as np

_EYE = np.eye(2, dtype=complex)
_SIGMA = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_HALF_SPIN = {"E": _EYE, **{a: 0.5 * m for a, m in _SIGMA.items()}}


def _kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def parse_sequence_text(text: str) -> tuple[int, list[tuple[str, tuple[int, ...], float]]]:
    """Read the gate-sequence text format into (n, [(kind, qubits, angle)])."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "QUBITS" or len(lines[0]) != 2:
        raise ValueError("sequence text must start with 'QUBITS <n>'")
    n = int(lines[0][1])
    gates = []
    for parts in lines[1:]:
        kind = parts[0]
        arity = {"PHASE": 0, "ZZ": 2, "RX": 1, "RY": 1, "RZ": 1}.get(kind)
        if arity is None or len(parts) != arity + 2:
            raise ValueError(f"bad gate line {' '.join(parts)!r}")
        qubits = tuple(int(q) for q in parts[1 : 1 + arity])
        if any(not 1 <= q <= n for q in qubits):
            raise ValueError(f"gate {' '.join(parts)!r} outside {n} qubits")
        gates.append((kind, qubits, float(parts[-1])))
    return n, gates


def gate_matrix(kind: str, qubits: tuple[int, ...], angle: float, n: int) -> np.ndarray:
    """Dense 2**n matrix of one gate, as cos/sin of its Pauli generator."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    if kind == "PHASE":
        return np.exp(-1j * angle) * np.eye(2**n, dtype=complex)
    if kind == "ZZ":
        k, l = qubits
        zz = _kron_all(_SIGMA["Z"] if q in (k, l) else _EYE for q in range(1, n + 1))
        return c * np.eye(2**n, dtype=complex) - 1j * s * zz
    (k,) = qubits
    rot = c * _EYE - 1j * s * _SIGMA[kind[1]]
    return _kron_all(rot if q == k else _EYE for q in range(1, n + 1))


def dense_unitary(n: int, gates) -> np.ndarray:
    """Product of the gate matrices, gates[0] applied first."""
    u = np.eye(2**n, dtype=complex)
    for kind, qubits, angle in gates:
        u = gate_matrix(kind, qubits, angle, n) @ u
    return u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry distance after aligning global phase by the overlap <v, u>."""
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def hadamard(n: int) -> np.ndarray:
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    return _kron_all([h1] * n)


def target_phases(phases) -> np.ndarray:
    return np.diag(np.exp(-1j * np.asarray(phases, dtype=float)))


def target_truth_table(values) -> np.ndarray:
    return np.diag((-1.0) ** np.asarray(values, dtype=float)).astype(complex)


def target_controlled_u(u2: np.ndarray, n: int) -> np.ndarray:
    """Identity except u2 on the last qubit when every other qubit is 1."""
    out = np.eye(2**n, dtype=complex)
    out[-2:, -2:] = u2
    return out


def target_grover(n: int, marked: int) -> np.ndarray:
    """Oracle phase flip on |marked>, then H (2|0><0| - 1) H."""
    oracle = np.eye(2**n, dtype=complex)
    oracle[marked, marked] = -1.0
    reflect = -np.eye(2**n, dtype=complex)
    reflect[0, 0] = 1.0
    h = hadamard(n)
    return h @ reflect @ h @ oracle


def pauli_dense(n: int, terms) -> np.ndarray:
    """Dense matrix of {factors: coeff}, factors over E/X/Y/Z with I = sigma/2."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for factors, coeff in terms.items():
        out += coeff * _kron_all(_HALF_SPIN[f] for f in factors)
    return out


_SURVIVOR = re.compile(r"^\s+(2 )?((?:I\d+z ?)+):\s*(\S+)\s*$")


def check_schedule(text: str, report: str, shifts, couplings, pair) -> tuple[int, int]:
    """Referee a written refocusing schedule and the CLI's term report.

    Rebuilds the toggling-frame signs from the SEGMENT/PULSE180 lines,
    requires an even pulse count per spin, and integrates the average
    Hamiltonian directly: every shift and every coupling but ``pair`` must
    cancel, and ``pair`` must keep pi * J * T.  The CLI's printed surviving
    terms must say the same.  Returns (segments, pulse events).
    """
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "SPINS":
        raise ValueError("schedule must start with 'SPINS <n>'")
    n = int(lines[0][1])
    if n != len(shifts):
        raise ValueError(f"schedule has {n} spins, graph {len(shifts)}")
    signs = np.ones(n, dtype=np.int64)
    pulses_per_spin = np.zeros(n, dtype=np.int64)
    durations, sign_rows = [], []
    events = 0
    for parts in lines[1:]:
        if parts[0] == "SEGMENT":
            durations.append(float(parts[1]))
            sign_rows.append(signs.copy())
        elif parts[0] == "PULSE180":
            if not durations:
                raise ValueError("pulse before the first segment")
            events += 1
            for s in parts[1:]:
                signs[int(s) - 1] *= -1
                pulses_per_spin[int(s) - 1] += 1
        else:
            raise ValueError(f"bad schedule line {' '.join(parts)!r}")
    if np.any(pulses_per_spin % 2):
        raise ValueError(f"odd pulse counts {pulses_per_spin.tolist()}")
    dur = np.asarray(durations)
    rows = np.asarray(sign_rows)
    total = math.fsum(durations)
    scale = max(1.0, max(abs(math.pi * j * total) for j in couplings.values()))
    tol = 1e-9 * scale
    for i in range(n):
        val = shifts[i] * math.fsum(dur * rows[:, i])
        if abs(val) > tol:
            raise ValueError(f"shift of spin {i + 1} survives: {val}")
    expected = {}
    for (i, j), jc in couplings.items():
        val = math.pi * jc * math.fsum(dur * rows[:, i - 1] * rows[:, j - 1])
        want = math.pi * jc * total if (i, j) == pair else 0.0
        if abs(val - want) > tol:
            raise ValueError(f"coupling {(i, j)} integrates to {val}, want {want}")
        if want:
            expected[pair] = want
    reported = {}
    for ln in report.splitlines():
        m = _SURVIVOR.match(ln)
        if m:
            spins = tuple(int(t[1:-1]) for t in m.group(2).split())
            reported[spins] = float(m.group(3))
    if set(reported) != set(expected) or any(
        abs(reported[k] - v) > tol for k, v in expected.items()
    ):
        raise ValueError(f"CLI reports {reported}, expected {expected}")
    return len(durations), events
