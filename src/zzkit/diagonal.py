"""Synthesis of diagonal unitaries.

A diagonal unitary diag(exp(-i*theta_x)) is equivalent to a real polynomial
in z products: theta_x = c + sum_S a_S * (1/2) * prod_{j in S} s_j(x), where
s_j(x) = +1 when qubit j of x is 0 and -1 when it is 1.  The two forms are
connected by a Walsh-Hadamard transform; each subset S with |S| <= 2 maps
straight onto an RZ or ZZ gate, and larger z products reduce recursively to
ZZ plus one-qubit rotations.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gates import Gate, GateSequence, ParseError, gphase, load_json, rx, ry, rz, zz
from .pauli import DROP_TOL

_HALF_PI = 0.5 * math.pi


@dataclass
class PhaseVector:
    """2**n real phases theta_x defining U = diag(exp(-i*theta_x)).

    Basis index x runs with qubit 1 as the most significant bit.  Phases are
    plain reals, not classes mod 2*pi; normalize inputs first if minimal
    angles are wanted.
    """

    n_qubits: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.phases = np.asarray(self.phases, dtype=float).copy()
        if self.phases.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} phases, got {self.phases.shape}"
            )
        if not np.all(np.isfinite(self.phases)):
            raise ValueError("phases must be finite")


@dataclass
class ZPolynomial:
    """A diagonal Hamiltonian: constant plus subset-indexed z-product terms.

    coeffs[S] is the coefficient of 2**(|S|-1) * prod_{j in S} I_jz; that
    basis element has diagonal entries +-1/2.
    """

    n_qubits: int
    constant: float = 0.0
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        cleaned: dict[tuple[int, ...], float] = {}
        for subset, a in self.coeffs.items():
            key = tuple(sorted(set(int(q) for q in subset)))
            if len(key) != len(tuple(subset)):
                raise ValueError(f"repeated qubit in subset {subset}")
            if not key:
                raise ValueError("subsets must be nonempty; use the constant")
            if key[0] < 1 or key[-1] > self.n_qubits:
                raise ValueError(f"subset {key} outside 1..{self.n_qubits}")
            a = float(a)
            if abs(a) >= DROP_TOL:
                cleaned[key] = cleaned.get(key, 0.0) + a
        self.coeffs = cleaned
        self.constant = float(self.constant)
        if abs(self.constant) < DROP_TOL:
            self.constant = 0.0


def _fwht(values: np.ndarray) -> np.ndarray:
    """In natural (Hadamard) order: F[m] = sum_x a[x] * (-1)**popcount(m & x)."""
    a = np.array(values, dtype=float, copy=True)
    n = a.size
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        s = a[:, 0, :] + a[:, 1, :]
        d = a[:, 0, :] - a[:, 1, :]
        a = np.concatenate((s[:, None, :], d[:, None, :]), axis=1).reshape(n)
        h *= 2
    return a


def _subset_mask(subset: tuple[int, ...], n: int) -> int:
    return sum(1 << (n - j) for j in subset)


def _mask_subset(mask: int, n: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, n + 1) if (mask >> (n - j)) & 1)


def phases_to_zpoly(pv: PhaseVector) -> ZPolynomial:
    """Walsh transform of the phases: the unique z polynomial with diag = theta."""
    n = pv.n_qubits
    dim = 2**n
    f = _fwht(pv.phases)
    constant = f[0] / dim
    scale = 2.0 ** (1 - n)
    coeffs = {}
    for mask in range(1, dim):
        a = f[mask] * scale
        if abs(a) >= DROP_TOL:
            coeffs[_mask_subset(mask, n)] = float(a)
    return ZPolynomial(n, float(constant), coeffs)


def zpoly_to_phases(zp: ZPolynomial) -> PhaseVector:
    """Inverse of :func:`phases_to_zpoly`."""
    n = zp.n_qubits
    dim = 2**n
    f = np.zeros(dim)
    f[0] = zp.constant * dim
    half = 2.0 ** (n - 1)
    for subset, a in zp.coeffs.items():
        f[_subset_mask(subset, n)] = a * half
    return PhaseVector(n, _fwht(f) / dim)


def reduce_zstring(
    subset, coeff: float, n_qubits: int | None = None
) -> GateSequence:
    """Lower exp(-i*coeff * 2**(m-1) I_z...I_z) on an m-spin subset to gates.

    Each recursion level eliminates the second-highest spin of the subset by
    conjugating the one-spin-smaller string with a fixed four-gate basis
    change, so an m-body string costs exactly 2m-3 ZZ gates and 6(m-2)
    one-qubit gates.
    """
    spins = tuple(sorted(set(int(q) for q in subset)))
    if len(spins) < 2:
        raise ValueError("z-string reduction needs at least two spins")
    n = n_qubits if n_qubits is not None else spins[-1]
    if spins[-1] > n:
        raise ValueError(f"subset {spins} exceeds register of {n}")
    seq = GateSequence(n)
    _reduce_into(seq.gates, spins, coeff)
    return seq


@functools.lru_cache(maxsize=4096)
def _basis_change(dropped: int, pivot: int) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
    """(V, V^dagger) in application order for one recursion level."""
    v = (
        ry(pivot, _HALF_PI),
        rx(pivot, -_HALF_PI),
        zz(dropped, pivot, _HALF_PI),
        rx(pivot, _HALF_PI),
    )
    return v, tuple(g.inverse() for g in reversed(v))


def _reduce_into(gates: list[Gate], spins: tuple[int, ...], coeff: float) -> None:
    """Append the lowering of one z-string to ``gates``.

    V and V^dagger depend only on (dropped, pivot) and are built once per
    pair; only the innermost ZZ is built per string.  The caller has
    checked that ``spins`` lie in the register.
    """
    if len(spins) == 2:
        gates.append(zz(spins[0], spins[1], coeff))
        return
    pivot = spins[-1]
    v, v_dagger = _basis_change(spins[-2], pivot)
    gates.extend(v_dagger)
    _reduce_into(gates, spins[:-2] + (pivot,), coeff)
    gates.extend(v)


def zpoly_to_sequence(zp: ZPolynomial) -> GateSequence:
    """Emit the commuting factorization: PHASE, RZ, ZZ, then reduced strings.

    All factors commute, so only determinism fixes the order: subsets sorted
    by size then lexicographically.  ZPolynomial keeps its subsets inside the
    register, and each string is lowered straight into the output.
    """
    seq = GateSequence(zp.n_qubits)
    gates = seq.gates
    if zp.constant != 0.0:
        gates.append(gphase(zp.constant))
    for subset in sorted(zp.coeffs, key=lambda s: (len(s), s)):
        a = zp.coeffs[subset]
        if len(subset) == 1:
            gates.append(rz(subset[0], a))
        else:
            _reduce_into(gates, subset, a)
    return seq


def save_phase_vector(pv: PhaseVector, path) -> None:
    doc = {"n": pv.n_qubits, "phases": [float(x) for x in pv.phases]}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_phase_vector(path) -> PhaseVector:
    """Read a phase-vector file.  A malformed document raises ParseError; a
    value the vector refuses (a wrong length, a non-finite phase) raises the
    vector's ValueError, a semantic error."""
    doc = load_json(path)
    try:
        n = int(doc["n"])
        phases = np.asarray(doc["phases"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad phase-vector file {path}: {exc}") from exc
    return PhaseVector(n, phases)


def save_zpolynomial(zp: ZPolynomial, path) -> None:
    doc = {
        "n": zp.n_qubits,
        "constant": zp.constant,
        "terms": [
            {"qubits": list(subset), "coeff": a}
            for subset, a in sorted(zp.coeffs.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_zpolynomial(path) -> ZPolynomial:
    """Read a z-polynomial file.  A malformed document raises ParseError; a
    value the polynomial refuses (a qubit outside the register, a repeated
    qubit) raises the polynomial's ValueError, a semantic error."""
    doc = load_json(path)
    try:
        n = int(doc["n"])
        constant = float(doc.get("constant", 0.0))
        coeffs = {
            tuple(int(q) for q in term["qubits"]): float(term["coeff"])
            for term in doc["terms"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad z-polynomial file {path}: {exc}") from exc
    return ZPolynomial(n, constant, coeffs)
