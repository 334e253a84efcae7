"""Shared test helpers: independent dense constructions and random generators.

The dense builders here deliberately avoid zzkit.simulator — they assemble
gate matrices from trig identities and Kronecker products so they can act
as an independent oracle for it.
"""

import cmath
import math

import numpy as np

from zzkit.gates import Gate, GateSequence
from zzkit.pauli import DROP_TOL, PauliPolynomial, ProductOperator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"X": SX, "Y": SY, "Z": SZ}


def dense_gate(gate: Gate, n: int) -> np.ndarray:
    """Gate matrix on n qubits, assembled without zzkit.simulator."""
    dim = 2**n
    if gate.kind == "PHASE":
        return cmath.exp(-1j * gate.angle) * np.eye(dim)
    if gate.kind == "ZZ":
        k, l = gate.qubits
        xs = np.arange(dim)
        equal = ((xs >> (n - k)) & 1) == ((xs >> (n - l)) & 1)
        diag = np.where(equal, cmath.exp(-0.5j * gate.angle), cmath.exp(0.5j * gate.angle))
        return np.diag(diag)
    (k,) = gate.qubits
    half = 0.5 * gate.angle
    m2 = math.cos(half) * np.eye(2) - 1j * math.sin(half) * PAULI[gate.kind[1]]
    return np.kron(np.kron(np.eye(2 ** (k - 1)), m2), np.eye(2 ** (n - k)))


def dense_sequence(seq: GateSequence) -> np.ndarray:
    """Product of dense gate matrices in application order."""
    u = np.eye(2**seq.n_qubits, dtype=complex)
    for g in seq:
        u = dense_gate(g, seq.n_qubits) @ u
    return u


def haar_u2(rng) -> np.ndarray:
    """Haar-random 2x2 unitary via phase-fixed QR."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis_op(rng, n: int) -> ProductOperator:
    """A conventionally normalized basis element: 2**(k-1) on k non-E spins."""
    k = int(rng.integers(1, n + 1))
    spins = rng.choice(np.arange(1, n + 1), size=k, replace=False)
    axes = {int(s): str(rng.choice(["X", "Y", "Z"])) for s in spins}
    return ProductOperator.from_axes(n, axes, 2.0 ** (k - 1))


def random_product_op(rng, n: int) -> ProductOperator:
    factors = tuple(rng.choice(["E", "X", "Y", "Z"]) for _ in range(n))
    coeff = complex(rng.standard_normal(), rng.standard_normal())
    return ProductOperator(n, factors, coeff)


_LADDER_FACTORS = {
    "E": {("E",): 1.0},
    "Z": {("Z",): 1.0},
    "+": {("X",): 1.0, ("Y",): 1.0j},   # I+ = Ix + i Iy
    "-": {("X",): 1.0, ("Y",): -1.0j},  # I- = Ix - i Iy
}


def ladder_poly(n: int, symbols, coeff=1.0) -> PauliPolynomial:
    """Polynomial for a product of per-spin {E, Z, I+, I-} factors."""
    acc = PauliPolynomial(n, {("E",) * n: coeff})
    for i, sym in enumerate(symbols):
        if sym == "E":
            continue
        single = PauliPolynomial(
            n,
            {
                tuple("E" if j != i else axis[0] for j in range(n)): c
                for axis, c in _LADDER_FACTORS[sym].items()
            },
        )
        acc = acc * single
    return acc


# The tuple ladder expansion that coherence_orders ran before it worked on
# (x, z) masks, kept unchanged as the reference for it.
# Ladder expansion of each factor over {E, Z, +, -}:
#   Ix = (I+ + I-)/2,   Iy = (I+ - I-)/(2i)
_LADDER = {
    "E": ((1.0 + 0.0j, "E"),),
    "Z": ((1.0 + 0.0j, "Z"),),
    "X": ((0.5 + 0.0j, "+"), (0.5 + 0.0j, "-")),
    "Y": ((-0.5j, "+"), (0.5j, "-")),
}


def ladder_terms(poly: PauliPolynomial) -> dict[tuple[str, ...], complex]:
    """Expand X/Y factors into raising/lowering parts, combining across the
    whole polynomial so that cross-term cancellations are visible."""
    acc: dict[tuple[str, ...], complex] = {}
    for factors, coeff in poly.terms.items():
        partial = [((), coeff)]
        for f in factors:
            partial = [
                (done + (sym,), c * scale)
                for done, c in partial
                for scale, sym in _LADDER[f]
            ]
        for done, c in partial:
            acc[done] = acc.get(done, 0.0) + c
    return {k: c for k, c in acc.items() if abs(c) >= DROP_TOL}


def ladder_order_weights(poly: PauliPolynomial) -> dict[int, float]:
    """{p: summed |coefficient|**2} of the ladder terms of each order p."""
    weights: dict[int, float] = {}
    for factors, coeff in ladder_terms(poly).items():
        p = factors.count("+") - factors.count("-")
        weights[p] = weights.get(p, 0.0) + abs(coeff) ** 2
    return weights


def random_order_poly(rng, n: int, p: int, n_terms: int = 2) -> PauliPolynomial:
    """Random operator whose every ladder term has order exactly p."""
    acc = PauliPolynomial.zero(n)
    for _ in range(n_terms):
        n_plus = abs(p) if p >= 0 else 0
        n_minus = abs(p) if p < 0 else 0
        extra = int(rng.integers(0, (n - abs(p)) // 2 + 1))
        n_plus += extra
        n_minus += extra
        spots = list(rng.permutation(np.arange(n)))
        symbols = ["E"] * n
        for _ in range(n_plus):
            symbols[spots.pop()] = "+"
        for _ in range(n_minus):
            symbols[spots.pop()] = "-"
        for s in spots:
            symbols[s] = str(rng.choice(["E", "Z"]))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        acc = acc + ladder_poly(n, symbols, coeff)
    return acc


def random_longitudinal_poly(rng, n: int, n_terms: int = 3) -> PauliPolynomial:
    terms = {}
    for _ in range(n_terms):
        factors = tuple(str(rng.choice(["E", "Z"])) for _ in range(n))
        terms[factors] = complex(rng.standard_normal(), rng.standard_normal())
    return PauliPolynomial(n, terms)


def random_sequence(rng, n: int, length: int) -> GateSequence:
    from zzkit.gates import gphase, rx, ry, rz, zz

    seq = GateSequence(n)
    for _ in range(length):
        kind = rng.choice(["RX", "RY", "RZ", "ZZ", "PHASE"])
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        if kind == "PHASE":
            seq.append(gphase(angle))
        elif kind == "ZZ" and n >= 2:
            k, l = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            seq.append(zz(int(k), int(l), angle))
        else:
            k = int(rng.integers(1, n + 1))
            seq.append({"RX": rx, "RY": ry, "RZ": rz, "ZZ": rx}[kind](k, angle))
    return seq
