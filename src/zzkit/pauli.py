"""Symbolic product-operator algebra for N spin-1/2 particles.

Operators are tensor products of single-spin factors from {E, Ix, Iy, Iz}
with I = sigma/2.  Publicly a product operator is a factors tuple with a
complex coefficient, and a polynomial maps factors tuples to coefficients.
Spin indices are 1-based in the public API (spin 1 is the most significant
bit of a computational basis index); positions inside factor tuples are
0-based.  Coefficients absorb all normalization: the conventional basis
element 2**(n-1) * I_1z...I_nz is a factors tuple of Z's with coefficient
2**(n-1).

The arithmetic runs on the symplectic form of Aaronson & Gottesman
(PRA 70, 052328 (2004)).  A factors tuple becomes a pair (x, z) of spin
bitmasks, spin 1 in the most significant bit, with X = (1, 0), Z = (0, 1)
and Y = (1, 1), so that sigma(x, z) = i**|x & z| X**x Z**z, where |.| is a
popcount.  Two Pauli strings multiply by XOR,

    sigma(x1, z1) sigma(x2, z2) = i**k sigma(x1 ^ x2, z1 ^ z2),
    k = |x1 & z1| + |x2 & z2| - |x3 & z3| + 2 |z1 & x2|   (mod 4),

and anticommute exactly when |x1 & z2 ^ z1 & x2| is odd.  A product
operator of weight w (its number of non-E factors) is 2**-w times its Pauli
string, so the product of two product operators also carries the scale
2**(w3 - w1 - w2).  Conjugation by exp(-i*angle*b*B) for a product operator
B of weight wB leaves a commuting term T unchanged and rotates an
anticommuting one exactly:

    T  ->  cos(t) T + i sin(t) 2**wB T*B,    t = 2 * b * angle * 2**-wB.

Each public operation converts its inputs to masks once, fills one dict and
builds its result once; DROP_TOL applies to the result's coefficients.

Coherence orders use the same form.  Terms of one class (x, z & ~x), with
the same transverse spins and the same I_z-only spins, differ only in their
Y mask y = x & z, and their raising/lowering expansion over the subsets of
x is one Walsh-Hadamard butterfly per class (see coherence_orders).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .gates import Gate, GateSequence

AXES = ("E", "X", "Y", "Z")
_AXIS_SET = frozenset(AXES)

#: Coefficients with magnitude below this are dropped after every operation.
DROP_TOL = 1e-12

_DENSE_FACTOR = {
    "E": np.eye(2, dtype=complex),
    "X": np.array([[0, 0.5], [0.5, 0]], dtype=complex),
    "Y": np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
    "Z": np.array([[0.5, 0], [0, -0.5]], dtype=complex),
}

_X_DIGITS = str.maketrans("EXYZ", "0110")
_Z_DIGITS = str.maketrans("EXYZ", "0011")
_AXIS_OF_BITS = ("E", "X", "Z", "Y")  # index x_bit | z_bit << 1
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

_Masks = tuple[int, int]


def _masks(factors: tuple[str, ...]) -> _Masks:
    """(x, z) spin bitmasks of a factors tuple, spin 1 most significant."""
    text = "".join(factors)
    return int(text.translate(_X_DIGITS), 2), int(text.translate(_Z_DIGITS), 2)


def _factors(n_spins: int, x: int, z: int) -> tuple[str, ...]:
    return tuple(
        [_AXIS_OF_BITS[(x >> s & 1) | (z >> s & 1) << 1] for s in range(n_spins - 1, -1, -1)]
    )


def _anticommute(x1: int, z1: int, x2: int, z2: int) -> int:
    return ((x1 & z2) ^ (z1 & x2)).bit_count() & 1


def _product(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, complex]:
    """(x, z, s) with (x1, z1)*(x2, z2) = s*(x, z) for unit-coefficient
    product operators: a power of i from the Pauli strings times the scale
    2**(w - w1 - w2) between weights."""
    x, z = x1 ^ x2, z1 ^ z2
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x & z).bit_count()
    k += 2 * (z1 & x2).bit_count()
    w = (x | z).bit_count() - (x1 | z1).bit_count() - (x2 | z2).bit_count()
    return x, z, _I_POWERS[k & 3] * 2.0**w


# A rotation exp(-i*angle*b*B) as (xB, zB, cos t, i sin t 2**wB); see the
# module docstring.
_Rotation = tuple[int, int, float, complex]


def _rotate(terms: dict[_Masks, complex], rot: _Rotation) -> dict[_Masks, complex]:
    """Conjugate every term by one rotation, summing into one new dict.

    At multiples of pi/2 the cos or sin part is a ~1e-16 rounding residue;
    a part below DROP_TOL is left out, so that it takes no place in the
    result's term order.
    """
    xb, zb, cos_t, i_sin = rot
    out: dict[_Masks, complex] = {}
    for key, c in terms.items():
        x, z = key
        if not _anticommute(x, z, xb, zb):
            out[key] = out.get(key, 0.0) + c
            continue
        part = c * cos_t
        if abs(part) >= DROP_TOL:
            out[key] = out.get(key, 0.0) + part
        xr, zr, s = _product(x, z, xb, zb)
        part = c * s * i_sin
        if abs(part) >= DROP_TOL:
            out[(xr, zr)] = out.get((xr, zr), 0.0) + part
    return out


@dataclass(frozen=True)
class ProductOperator:
    """A scalar multiple of one tensor product of single-spin factors."""

    n_spins: int
    factors: tuple[str, ...]
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.n_spins < 1:
            raise ValueError("need at least one spin")
        if len(self.factors) != self.n_spins:
            raise ValueError(
                f"{len(self.factors)} factors for {self.n_spins} spins"
            )
        bad = [f for f in self.factors if f not in AXES]
        if bad:
            raise ValueError(f"unknown factors {bad}")
        object.__setattr__(self, "coeff", complex(self.coeff))

    @classmethod
    def identity(cls, n_spins: int, coeff: complex = 1.0) -> "ProductOperator":
        return cls(n_spins, ("E",) * n_spins, coeff)

    @classmethod
    def from_axes(
        cls, n_spins: int, axes: Mapping[int, str], coeff: complex = 1.0
    ) -> "ProductOperator":
        """Build from a {spin: axis} mapping with 1-based spin indices."""
        factors = ["E"] * n_spins
        for spin, axis in axes.items():
            if not 1 <= spin <= n_spins:
                raise ValueError(f"spin {spin} outside 1..{n_spins}")
            factors[spin - 1] = axis.upper()
        return cls(n_spins, tuple(factors), coeff)

    @property
    def is_identity(self) -> bool:
        return all(f == "E" for f in self.factors)

    def scaled(self, scalar: complex) -> "ProductOperator":
        return ProductOperator(self.n_spins, self.factors, self.coeff * scalar)

    def __str__(self) -> str:
        body = " ".join(
            f"I{i + 1}{f.lower()}" for i, f in enumerate(self.factors) if f != "E"
        )
        return f"{_fmt_coeff(self.coeff)} {body}".strip() if body else _fmt_coeff(self.coeff)


def _fmt_coeff(c: complex) -> str:
    if abs(c.imag) < DROP_TOL:
        return f"{c.real:g}"
    if abs(c.real) < DROP_TOL:
        return f"{c.imag:g}i"
    return f"({c.real:g}{c.imag:+g}i)"


def _check_spins(a, b) -> int:
    if a.n_spins != b.n_spins:
        raise ValueError("spin counts differ")
    return a.n_spins


def multiply(a: ProductOperator, b: ProductOperator) -> ProductOperator:
    """Operator product a*b, always a single product operator up to scalar."""
    n = _check_spins(a, b)
    x, z, s = _product(*_masks(a.factors), *_masks(b.factors))
    return ProductOperator(n, _factors(n, x, z), a.coeff * b.coeff * s)


@dataclass
class PauliPolynomial:
    """A finite sum of product operators, stored as factors-tuple -> coefficient."""

    n_spins: int
    terms: dict[tuple[str, ...], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned: dict[tuple[str, ...], complex] = {}
        for factors, coeff in self.terms.items():
            factors = tuple(factors)
            if len(factors) != self.n_spins:
                raise ValueError(f"term {factors} does not match {self.n_spins} spins")
            if not _AXIS_SET.issuperset(factors):
                raise ValueError(f"unknown factors in {factors}")
            c = complex(coeff)
            if abs(c) >= DROP_TOL:
                cleaned[factors] = c
        self.terms = cleaned

    @classmethod
    def zero(cls, n_spins: int) -> "PauliPolynomial":
        return cls(n_spins, {})

    @classmethod
    def from_operator(cls, op: ProductOperator) -> "PauliPolynomial":
        return cls(op.n_spins, {op.factors: op.coeff})

    @classmethod
    def from_operators(cls, ops: Iterable[ProductOperator]) -> "PauliPolynomial":
        ops = list(ops)
        if not ops:
            raise ValueError("need at least one operator (or use zero())")
        terms: dict[tuple[str, ...], complex] = {}
        for op in ops:
            _check_spins(ops[0], op)
            terms[op.factors] = terms.get(op.factors, 0.0) + op.coeff
        return cls(ops[0].n_spins, terms)

    @classmethod
    def _from_masks(cls, n_spins: int, terms: dict[_Masks, complex]) -> "PauliPolynomial":
        return cls(n_spins, {_factors(n_spins, x, z): c for (x, z), c in terms.items()})

    def _mask_terms(self) -> dict[_Masks, complex]:
        return {_masks(f): c for f, c in self.terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def operators(self) -> Iterator[ProductOperator]:
        for factors, coeff in self.terms.items():
            yield ProductOperator(self.n_spins, factors, coeff)

    def __add__(self, other: "PauliPolynomial") -> "PauliPolynomial":
        _check_spins(self, other)
        terms = dict(self.terms)
        for factors, coeff in other.terms.items():
            terms[factors] = terms.get(factors, 0.0) + coeff
        return PauliPolynomial(self.n_spins, terms)

    def __neg__(self) -> "PauliPolynomial":
        return PauliPolynomial(self.n_spins, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other: "PauliPolynomial") -> "PauliPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PauliPolynomial):
            n = _check_spins(self, other)
            return _pair_sum(n, self._mask_terms(), other._mask_terms(), commutators=False)
        return PauliPolynomial(
            self.n_spins, {f: c * other for f, c in self.terms.items()}
        )

    def __rmul__(self, scalar) -> "PauliPolynomial":
        return self * scalar

    def allclose(self, other: "PauliPolynomial", tol: float = 1e-9) -> bool:
        if self.n_spins != other.n_spins:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(op) for op in self.operators())


def _pair_sum(
    n_spins: int,
    left: dict[_Masks, complex],
    right: dict[_Masks, complex],
    commutators: bool,
) -> PauliPolynomial:
    """Sum over term pairs of the product ab, or of the commutator [a, b],
    which is 2ab for an anticommuting pair and zero otherwise."""
    pairs = list(right.items())
    out: dict[_Masks, complex] = {}
    for (xa, za), ca in left.items():
        for (xb, zb), cb in pairs:
            if commutators and not _anticommute(xa, za, xb, zb):
                continue
            x, z, s = _product(xa, za, xb, zb)
            c = ca * cb * s
            out[(x, z)] = out.get((x, z), 0.0) + (2.0 * c if commutators else c)
    return PauliPolynomial._from_masks(n_spins, out)


def commutator(a: ProductOperator, b: ProductOperator) -> PauliPolynomial:
    """[a, b] = ab - ba, which is zero or a single product operator."""
    n = _check_spins(a, b)
    return _pair_sum(
        n, {_masks(a.factors): a.coeff}, {_masks(b.factors): b.coeff}, commutators=True
    )


def poly_commutator(a: PauliPolynomial, b: PauliPolynomial) -> PauliPolynomial:
    n = _check_spins(a, b)
    return _pair_sum(n, a._mask_terms(), b._mask_terms(), commutators=True)


def _generator_rotation(generator: ProductOperator, angle: float) -> _Rotation:
    if abs(generator.coeff.imag) > DROP_TOL * max(1.0, abs(generator.coeff)):
        raise ValueError("generator must be Hermitian (real coefficient)")
    xb, zb = _masks(generator.factors)
    scale = 2.0 ** (xb | zb).bit_count()
    t = 2.0 * generator.coeff.real * angle / scale
    return xb, zb, math.cos(t), 1j * math.sin(t) * scale


def conjugate_bch(
    generator: ProductOperator, angle: float, target: ProductOperator
) -> PauliPolynomial:
    """exp(-i*angle*B) T exp(+i*angle*B) for product operators B, T.

    The nested commutator [B, [B, T]] is always a nonnegative multiple of T
    for product operators, so the rotation reduces exactly to

        T*cos(sqrt(a)*angle) - (i/sqrt(a))*[B, T]*sin(sqrt(a)*angle)

    and to T unchanged when [B, T] = 0.
    """
    _check_spins(generator, target)
    rot = _generator_rotation(generator, angle)
    if abs(target.coeff) < DROP_TOL:
        return PauliPolynomial.zero(target.n_spins)
    return PauliPolynomial._from_masks(
        target.n_spins, _rotate({_masks(target.factors): target.coeff}, rot)
    )


def _gate_rotation(gate: Gate, n_spins: int) -> _Rotation:
    """The rotation of one non-PHASE gate, straight from its masks.

    RX/RY/RZ(k, angle) = exp(-i*angle*I_k) and ZZ(k, l, angle) =
    exp(-i*angle*2*I_kz*I_lz), so t = angle for every kind; the scale
    2**wB is 2 or 4.
    """
    if any(q > n_spins for q in gate.qubits):
        raise ValueError(f"gate {gate} exceeds register of {n_spins} spin(s)")
    bits = [1 << (n_spins - q) for q in gate.qubits]
    if gate.kind == "ZZ":
        xb, zb, scale = 0, bits[0] | bits[1], 4.0
    else:
        xb = bits[0] if gate.kind in ("RX", "RY") else 0
        zb = bits[0] if gate.kind in ("RY", "RZ") else 0
        scale = 2.0
    return xb, zb, math.cos(gate.angle), 1j * math.sin(gate.angle) * scale


def conjugate_by_sequence(
    seq: GateSequence, operator: ProductOperator | PauliPolynomial
) -> PauliPolynomial:
    """U op U^dagger for the full sequence U (gates[0] innermost).

    The terms stay in mask form from the first gate to the last.  Each
    distinct gate's rotation is built once per call (lowered sequences
    repeat their gates); a gate that commutes with every current term is
    skipped without building a dict.  DROP_TOL applies after every other
    gate.
    """
    poly = _as_poly(operator)
    n = poly.n_spins
    if n != seq.n_qubits:
        raise ValueError("spin counts differ")
    terms = poly._mask_terms()
    xs, zs = _mask_unions(terms)
    rotations: dict[tuple, _Rotation] = {}
    for gate in seq:
        if gate.kind == "PHASE":
            continue
        key = (gate.kind, gate.qubits, gate.angle)
        rot = rotations.get(key)
        if rot is None:
            rot = rotations[key] = _gate_rotation(gate, n)
        xb, zb = rot[0], rot[1]
        if not (xs & zb or zs & xb):
            continue  # no term has an anticommuting factor on the gate's spins
        for x, z in terms:
            if ((x & zb) ^ (z & xb)).bit_count() & 1:
                break
        else:
            continue
        terms = {k: c for k, c in _rotate(terms, rot).items() if abs(c) >= DROP_TOL}
        xs, zs = _mask_unions(terms)
    return PauliPolynomial._from_masks(n, terms)


def _mask_unions(terms: dict[_Masks, complex]) -> _Masks:
    """The OR of every term's x mask and of every z mask."""
    xs = zs = 0
    for x, z in terms:
        xs |= x
        zs |= z
    return xs, zs


@dataclass
class CoherenceProfile:
    """Multiple-quantum content of an operator: which orders p appear, and
    with how much squared weight in the ladder-operator expansion."""

    orders: frozenset[int]
    component_weights: dict[int, float]

    def __post_init__(self) -> None:
        self.orders = frozenset(self.orders)
        if self.orders != {p for p, w in self.component_weights.items() if w > 0.0}:
            raise ValueError("orders must match the nonzero-weight keys")


class Subspace(enum.Enum):
    LONGITUDINAL = "longitudinal"
    ZERO_QUANTUM = "zero-quantum"
    EVEN_ORDER = "even-order"
    GENERAL = "general"


def _as_poly(op: ProductOperator | PauliPolynomial) -> PauliPolynomial:
    if isinstance(op, ProductOperator):
        return PauliPolynomial.from_operator(op)
    return op


_X_BYTE, _Y_BYTE = ord("X"), ord("Y")
_Y_AS_X = str.maketrans("Y", "X")
_I_POWER_ARRAY = np.array(_I_POWERS)


def _walsh_hadamard_rows(a: np.ndarray) -> np.ndarray:
    """F[r, s] = sum_y a[r, y] * (-1)**|s & y| for each row of a (rows, 2**k)
    array: k butterfly passes, the same as the phase-vector transform."""
    rows, size = a.shape
    h = 1
    while h < size:
        a = a.reshape(rows, -1, 2, h)
        a = np.stack((a[:, :, 0] + a[:, :, 1], a[:, :, 0] - a[:, :, 1]), axis=2)
        h *= 2
    return a.reshape(rows, size)


def coherence_orders(op: ProductOperator | PauliPolynomial) -> CoherenceProfile:
    """Coherence orders p = (#raising - #lowering) present in the operator.

    With Ix = (I+ + I-)/2 and Iy = (I+ - I-)/(2i), a term c * (x, z) with
    k = |x| transverse spins and Y spins y = x & z expands into one ladder
    term per subset S of x that takes I+ (the rest of x takes I-): order
    2|S| - k, coefficient 2**-k * c * i**|y| * (-1)**|S & y|.  Terms of one
    class (x, z & ~x), the same transverse and the same I_z-only spins, add
    onto the same ladder terms, so the class's ladder coefficients are one
    length-2**k Walsh-Hadamard transform of its c * i**|y|, indexed by the
    bits of y within x.  Cross-term cancellations (I1x I2x + I1y I2y has no
    p = +-2 part) happen inside that sum; a ladder coefficient below
    DROP_TOL is dropped.  The weight of p is the sum of |coefficient|**2
    over its ladder terms.  The classes of equal k are transformed together.
    """
    poly = _as_poly(op)
    n, m = poly.n_spins, len(poly.terms)
    texts = ["".join(factors) for factors in poly.terms]
    # one row of spin bits per term: x and y are its x and x & z masks
    spins = np.frombuffer("".join(texts).encode(), np.uint8).reshape(m, n)
    y = spins == _Y_BYTE
    x = y | (spins == _X_BYTE)
    k = x.sum(axis=1)
    # bit j of a term's index is the Y bit of its j-th transverse spin
    index = (y << np.maximum(np.cumsum(x, axis=1) - 1, 0)).sum(axis=1)
    coeffs = np.fromiter(poly.terms.values(), complex, m) * _I_POWER_ARRAY[y.sum(axis=1) & 3]
    # k -> {class: row}; a class (x, z & ~x) is the factors with Y read as X
    groups: dict[int, dict[str, int]] = {}
    row_of_term = []
    for text, kk in zip(texts, k.tolist()):
        group = groups.setdefault(kk, {})
        row_of_term.append(group.setdefault(text.translate(_Y_AS_X), len(group)))
    rows = np.array(row_of_term, dtype=np.int64)
    weights: dict[int, float] = {}
    for kk, group in sorted(groups.items()):
        sel = k == kk
        a = np.zeros((len(group), 2**kk), dtype=complex)
        a[rows[sel], index[sel]] = coeffs[sel]
        mag = np.abs(_walsh_hadamard_rows(a)) * 2.0**-kk
        power = np.where(mag >= DROP_TOL, mag * mag, 0.0).sum(axis=0)
        for s, w in enumerate(power.tolist()):
            if w > 0.0:
                p = 2 * s.bit_count() - kk
                weights[p] = weights.get(p, 0.0) + w
    return CoherenceProfile(frozenset(weights), weights)


def classify_subspace(op: ProductOperator | PauliPolynomial) -> Subspace:
    """Most specific of longitudinal < zero-quantum < even-order < general."""
    poly = _as_poly(op)
    if all(f in ("E", "Z") for factors in poly.terms for f in factors):
        return Subspace.LONGITUDINAL
    orders = coherence_orders(poly).orders
    if orders <= {0}:
        return Subspace.ZERO_QUANTUM
    if all(p % 2 == 0 for p in orders):
        return Subspace.EVEN_ORDER
    return Subspace.GENERAL


_FACTOR_RE = re.compile(r"^I(\d+)([XYZxyz])$")


def parse_operator(text: str, n_spins: int | None = None) -> PauliPolynomial:
    """Parse operator text like ``"2 I1z I2z"`` or ``"0.5 I1x + 0.5 I1y"``.

    Terms are separated by '+'; each term is an optional coefficient followed
    by factors ``I<spin><axis>`` (axis case-insensitive).  A bare coefficient
    is a multiple of the identity.
    """
    from .gates import ParseError

    raw_terms = [t.strip() for t in text.split("+")]
    parsed: list[tuple[float, dict[int, str]]] = []
    max_spin = 0
    for term in raw_terms:
        tokens = term.split()
        if not tokens:
            raise ParseError(f"empty term in operator {text!r}")
        coeff = 1.0
        start = 0
        if not _FACTOR_RE.match(tokens[0]):
            try:
                coeff = float(tokens[0])
            except ValueError as exc:
                raise ParseError(f"bad coefficient {tokens[0]!r}") from exc
            start = 1
        axes: dict[int, str] = {}
        for tok in tokens[start:]:
            m = _FACTOR_RE.match(tok)
            if not m:
                raise ParseError(f"bad factor {tok!r}")
            spin = int(m.group(1))
            if spin < 1:
                raise ParseError(f"spin indices are 1-based, got {tok!r}")
            if spin in axes:
                raise ParseError(f"spin {spin} repeated within one term")
            axes[spin] = m.group(2).upper()
            max_spin = max(max_spin, spin)
        parsed.append((coeff, axes))
    n = n_spins if n_spins is not None else max(max_spin, 1)
    if max_spin > n:
        raise ParseError(f"operator uses spin {max_spin} but n_spins={n}")
    return PauliPolynomial.from_operators(
        ProductOperator.from_axes(n, axes, coeff) for coeff, axes in parsed
    )




def to_matrix(op: ProductOperator | PauliPolynomial) -> np.ndarray:
    """Dense matrix in the computational basis (spin 1 = most significant)."""
    poly = _as_poly(op)
    dim = 2**poly.n_spins
    out = np.zeros((dim, dim), dtype=complex)
    for factors, coeff in poly.terms.items():
        m = np.array([[1.0 + 0.0j]])
        for f in factors:
            m = np.kron(m, _DENSE_FACTOR[f])
        out += coeff * m
    return out
