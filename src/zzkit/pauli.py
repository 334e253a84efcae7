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
(PRA 70, 052328 (2004)).  A term is stored as a pair (x, z) of spin
bitmasks, spin q on bit q - 1 as in ZPolynomial.terms, with X = (1, 0),
Z = (0, 1) and Y = (1, 1), so that sigma(x, z) = i**|x & z| X**x Z**z, where
|.| is a popcount.  Two Pauli strings multiply by XOR,

    sigma(x1, z1) sigma(x2, z2) = i**k sigma(x1 ^ x2, z1 ^ z2),
    k = |x1 & z1| + |x2 & z2| - |x3 & z3| + 2 |z1 & x2|   (mod 4),

and anticommute exactly when |x1 & z2 ^ z1 & x2| is odd.  A product
operator of weight w (its number of non-E factors) is 2**-w times its Pauli
string, so the product of two product operators also carries the scale
2**(w3 - w1 - w2).  Conjugation by exp(-i*angle*b*B) for a product operator
B of weight wB leaves a commuting term T unchanged and rotates an
anticommuting one exactly:

    T  ->  cos(t) T + i sin(t) 2**wB T*B,    t = 2 * b * angle * 2**-wB.

A PauliPolynomial keeps its terms in that form only, and each operation
fills one dict of masks and builds its result from it; DROP_TOL applies to
the result's coefficients.  Factors tuples appear only at the public edge:
the constructor takes them and ``terms`` and ``str`` give them back.

Products and coherence orders read the masks as word columns: the x masks
of m terms on n spins form one (m, W) array of little-endian uint64 words,
W = ceil(n / 64), spin q on bit (q - 1) % 64 of word (q - 1) // 64, and so
do the z masks.  The same code serves every n.  A product forms its term
pairs with numpy, a block of left terms against every right term at a
time, the block so sized that a mask column of its pairs holds at most
_BLOCK_WORDS words (or one left term's pairs, when those pass it).  Its
result is, bit for bit, that of the scalar loop

    for a in left: for b in right: out[a*b masks] += a*b coefficient

on CPython 3.10-3.13: the same keys in the same first-occurrence order and
the same coefficients, signed zeros, inf and NaN included.  Each
coefficient is CPython's complex product (ac - bd, ad + bc) on separate
real and imaginary float arrays, so no fused or reordered multiply enters.
Equal keys are found by a hash of each pair's words and then compared
word for word, and each key's sum is taken in scan order by np.add.at,
from 0.0 on a new key and from the sum so far on a key of an earlier
block.

Coherence orders use the same masks.  Terms of one class (x, z & ~x), with
the same transverse spins and the same I_z-only spins, differ only in their
Y mask y = x & z, and their raising/lowering expansion over the subsets of
x is one Walsh-Hadamard butterfly per class (see coherence_orders).
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import numbers
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .gates import DROP_TOL, Gate, GateSequence, ParseError

AXES = ("E", "X", "Y", "Z")
_AXIS_SET = frozenset(AXES)

#: Most ladder amplitudes `coherence_orders` allocates for one class size,
#: (term classes) * 2**k for k transverse spins, and most factors
#: `parse_operator` builds, (terms) * (spins): 4**12, the size of the
#: dense referee's largest unitary (simulator.MAX_UNITARY_QUBITS = 12).
MAX_ORDER_AMPLITUDES = 4**12

_DENSE_FACTOR = {
    "E": np.eye(2, dtype=complex),
    "X": np.array([[0, 0.5], [0.5, 0]], dtype=complex),
    "Y": np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
    "Z": np.array([[0.5, 0], [0, -0.5]], dtype=complex),
}

#: Most uint64 words one mask column of a product's pair block holds: a
#: block takes as many left terms as keep (its left terms) * (right terms)
#: * W within this, and at least one.
_BLOCK_WORDS = 2**18

_X_DIGITS = str.maketrans("EXYZ", "0110")
_Z_DIGITS = str.maketrans("EXYZ", "0011")
_AXIS_OF_DIGITS = {("0", "0"): "E", ("1", "0"): "X", ("0", "1"): "Z", ("1", "1"): "Y"}
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)
# _I_POWERS[k] * 2.0**w, as Python forms it, is these parts times 2.0**w
_UNIT_REAL = np.array([(p * 1.0).real for p in _I_POWERS])
_UNIT_IMAG = np.array([(p * 1.0).imag for p in _I_POWERS])

_Masks = tuple[int, int]


def _masks(factors: tuple[str, ...]) -> _Masks:
    """(x, z) spin bitmasks of a factors tuple, spin q on bit q - 1."""
    text = "".join(factors)[::-1]
    return int(text.translate(_X_DIGITS), 2), int(text.translate(_Z_DIGITS), 2)


def _factors(n_spins: int, x: int, z: int) -> tuple[str, ...]:
    """The factors tuple of (x, z) masks: one format per mask, so the time is
    linear in n_spins."""
    xs, zs = f"{x:0{n_spins}b}", f"{z:0{n_spins}b}"
    return tuple(map(_AXIS_OF_DIGITS.__getitem__, zip(reversed(xs), reversed(zs))))


def _checked_factors(n_spins: int, factors: Iterable[str]) -> tuple[str, ...]:
    """The factors of one term as a tuple: n_spins axes, each one of AXES."""
    factors = tuple(factors)
    if len(factors) != n_spins:
        raise ValueError(f"term {factors} does not match {n_spins} spins")
    if not _AXIS_SET.issuperset(factors):
        raise ValueError(f"unknown factors in {factors}")
    return factors


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
        object.__setattr__(self, "factors", _checked_factors(self.n_spins, self.factors))
        c = complex(self.coeff)
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient must be finite, got {self.coeff!r}")
        object.__setattr__(self, "coeff", c)

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


@dataclass(init=False)
class PauliPolynomial:
    """A finite sum of product operators.  strings[(x, z)] is the coefficient
    of the product operator with those masks (see the module docstring);
    ``terms`` is a new dict of the terms keyed by factors tuples, the keys
    the constructor takes."""

    n_spins: int
    strings: dict[_Masks, complex]

    def __init__(self, n_spins: int, terms: Mapping | None = None) -> None:
        if n_spins < 1:
            raise ValueError("need at least one spin")
        self._keep(n_spins, ((_masks(_checked_factors(n_spins, f)), c)
                             for f, c in (terms or {}).items()))

    @classmethod
    def _of(cls, n_spins: int, strings: dict[_Masks, complex]) -> "PauliPolynomial":
        """A result straight from masks, whose factors need no check."""
        poly = cls.__new__(cls)
        poly._keep(n_spins, strings.items())
        return poly

    def _keep(self, n_spins: int, items: Iterable[tuple[_Masks, complex]]) -> None:
        """Set the terms from (masks, coefficient) pairs, checked in order:
        each coefficient must be finite, and one below DROP_TOL is left out."""
        self.n_spins, self.strings = n_spins, {}
        for key, coeff in items:
            c = complex(coeff)
            if not cmath.isfinite(c):
                factors = _factors(n_spins, *key)
                raise ValueError(f"coefficient of {factors} must be finite, got {coeff!r}")
            if abs(c) >= DROP_TOL:
                self.strings[key] = c

    @property
    def terms(self) -> dict[tuple[str, ...], complex]:
        return {_factors(self.n_spins, x, z): c for (x, z), c in self.strings.items()}

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

    @property
    def is_zero(self) -> bool:
        return not self.strings

    def operators(self) -> Iterator[ProductOperator]:
        for factors, coeff in self.terms.items():
            yield ProductOperator(self.n_spins, factors, coeff)

    def __add__(self, other: "PauliPolynomial") -> "PauliPolynomial":
        _check_spins(self, other)
        strings = dict(self.strings)
        for key, coeff in other.strings.items():
            strings[key] = strings.get(key, 0.0) + coeff
        return PauliPolynomial._of(self.n_spins, strings)

    def __neg__(self) -> "PauliPolynomial":
        return PauliPolynomial._of(self.n_spins, {k: -c for k, c in self.strings.items()})

    def __sub__(self, other: "PauliPolynomial") -> "PauliPolynomial":
        return self + (-other)

    def __mul__(self, other):
        """self * other for a PauliPolynomial, a ProductOperator or a number."""
        if isinstance(other, (PauliPolynomial, ProductOperator)):
            other = _as_poly(other)
            n = _check_spins(self, other)
            return _pair_sum(n, self.strings, other.strings, commutators=False)
        if not isinstance(other, numbers.Number):
            return NotImplemented
        return PauliPolynomial._of(self.n_spins, {k: c * other for k, c in self.strings.items()})

    def __rmul__(self, other):
        """other * self: the product operator on the left, or a number."""
        if isinstance(other, ProductOperator):
            return _as_poly(other) * self
        return self * other if isinstance(other, numbers.Number) else NotImplemented

    def allclose(self, other: "PauliPolynomial", tol: float = 1e-9) -> bool:
        if self.n_spins != other.n_spins:
            return False
        keys = set(self.strings) | set(other.strings)
        return all(
            abs(self.strings.get(k, 0.0) - other.strings.get(k, 0.0)) <= tol for k in keys
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(op) for op in self.operators())


def _words(masks: Iterable[int], n_spins: int) -> np.ndarray:
    """The (m, W) word column of m spin masks (see the module docstring)."""
    size = 8 * -(-n_spins // 64)
    data = b"".join(mask.to_bytes(size, "little") for mask in masks)
    return np.frombuffer(data, "<u8").reshape(-1, size // 8)


def _mask_columns(strings: dict[_Masks, complex], n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """The word columns of the terms' x masks and of their z masks."""
    return _words((x for x, _ in strings), n_spins), _words((z for _, z in strings), n_spins)


def _ints(words: np.ndarray) -> list[int]:
    """The masks of a (W, m) word array, as Python ints.  Bytes of a fixed
    width lose their trailing NULs, which little-endian digits ignore."""
    rows = np.ascontiguousarray(words.T, dtype="<u8")
    digits = rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel().tolist()
    return list(map(int.from_bytes, digits, itertools.repeat("little")))


def _popcounts(words: np.ndarray) -> np.ndarray:
    """|mask| of each column of a (W, ...) word array."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.int64)


def _key_hashes(keys: np.ndarray, salt: int) -> np.ndarray:
    """One uint64 per column of a (words, rows) key array.  Each word is
    multiplied by an odd constant of its position and the salt and has its
    high half XORed onto its low half, two bijections, and the words are
    summed, so two keys that differ in one word never collide."""
    odd = np.arange(len(keys), dtype=np.uint64) * 0x9E3779B97F4A7C16 + (2 * salt + 1)
    h = keys * odd[:, None]
    h ^= h >> 32
    return h.sum(axis=0)


def _first_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, first) for the columns of a (words, rows) key array: group[r]
    numbers row r's key in first-occurrence order, and first[g] is the row
    where key g first occurs.

    Rows are sorted by one hash each and grouped by equal hashes; every row
    is then compared with its group's first row, word for word, so a hash
    collision is found, and grouping is retried with the next salt.
    """
    rows = keys.shape[1]
    for salt in itertools.count():
        h = _key_hashes(keys, salt)
        order = np.argsort(h)
        starts = np.ones(rows, dtype=bool)
        starts[1:] = h[order[1:]] != h[order[:-1]]
        group = np.empty(rows, dtype=np.intp)
        group[order] = np.cumsum(starts) - 1
        first = np.full(int(starts.sum()), rows, dtype=np.intp)
        np.minimum.at(first, group, np.arange(rows))
        if not (keys != keys[:, first[group]]).any():
            break
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[group], np.sort(first)


def _pair_sum(
    n_spins: int,
    left: dict[_Masks, complex],
    right: dict[_Masks, complex],
    commutators: bool,
) -> PauliPolynomial:
    """Sum over term pairs of the product ab, or of the commutator [a, b],
    which is 2ab for an anticommuting pair and zero otherwise.

    The pairs are formed on word columns, a block of left terms against
    every right term at a time; keys, order and coefficients are those of
    the scalar loop (see the module docstring).
    """
    if not left or not right:
        return PauliPolynomial._of(n_spins, {})
    (ax, az), (bx, bz) = (_mask_columns(t, n_spins) for t in (left, right))
    ax, az, bx, bz = ax.T, az.T, bx.T, bz.T
    ac, bc = (np.fromiter(t.values(), complex, len(t)) for t in (left, right))
    ay, aw = _popcounts(ax & az)[:, None], _popcounts(ax | az)[:, None]
    by, bw = _popcounts(bx & bz), _popcounts(bx | bz)
    ar, ai, br, bi = ac.real[:, None], ac.imag[:, None], bc.real, bc.imag
    n_words, m = ax.shape[0], len(right)
    out: dict[_Masks, complex] = {}
    block = max(1, _BLOCK_WORDS // (m * n_words))
    for lo in range(0, len(left), block):
        rows = slice(lo, lo + block)
        x1, z1 = ax[:, rows, None], az[:, rows, None]
        x = (x1 ^ bx[:, None]).reshape(n_words, -1)
        z = (z1 ^ bz[:, None]).reshape(n_words, -1)
        zx = _popcounts(z1 & bx[:, None]).ravel()
        k = (ay[rows] + by).ravel() + 2 * zx
        w = (aw[rows] + bw).ravel()
        c = np.empty(len(k), dtype=complex)
        # an overflow is inf or NaN here, and _of refuses it by name
        with np.errstate(over="ignore", invalid="ignore"):
            # c = ca * cb, then times s and 2.0 * c, each in CPython's complex-product form
            c.real = (ar[rows] * br - ai[rows] * bi).ravel()
            c.imag = (ar[rows] * bi + ai[rows] * br).ravel()
            if commutators:
                odd = (zx + _popcounts(x1 & bz[:, None]).ravel()) & 1 == 1
                x, z, k, w, c = x[:, odd], z[:, odd], k[odd], w[odd], c[odd]
            k = (k - _popcounts(x & z)) & 3
            scale = np.ldexp(1.0, _popcounts(x | z) - w)
            sr, si = _UNIT_REAL[k] * scale, _UNIT_IMAG[k] * scale
            c.real, c.imag = c.real * sr - c.imag * si, c.real * si + c.imag * sr
            if commutators:
                c.real, c.imag = 2.0 * c.real - 0.0 * c.imag, 2.0 * c.imag + 0.0 * c.real
            group, first = _first_groups(np.concatenate([x, z]))
            masks = list(zip(_ints(x[:, first]), _ints(z[:, first])))
            sums = np.zeros(len(masks), dtype=complex)
            if out:  # a key of an earlier block starts from its sum so far
                sums[:] = [out.get(key, 0.0) for key in masks]
            np.add.at(sums, group, c)  # a complex sum adds each part on its own
        out.update(zip(masks, sums.tolist()))
    return PauliPolynomial._of(n_spins, out)


def _as_poly(op: ProductOperator | PauliPolynomial) -> PauliPolynomial:
    if isinstance(op, ProductOperator):
        return PauliPolynomial.from_operator(op)
    return op


def commutator(
    a: ProductOperator | PauliPolynomial, b: ProductOperator | PauliPolynomial
) -> PauliPolynomial:
    """[a, b] = ab - ba; zero or a single product operator when a and b are
    product operators."""
    a, b = _as_poly(a), _as_poly(b)
    n = _check_spins(a, b)
    return _pair_sum(n, a.strings, b.strings, commutators=True)


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
    rotated = _rotate({_masks(target.factors): target.coeff}, rot)
    return PauliPolynomial._of(target.n_spins, rotated)


def _gate_masks(gate: Gate, n_spins: int) -> _Masks:
    """The (x, z) masks of one non-PHASE gate's generator."""
    if any(q > n_spins for q in gate.qubits):
        raise ValueError(f"gate {gate} exceeds register of {n_spins} spin(s)")
    bits = [1 << (q - 1) for q in gate.qubits]
    if gate.kind == "ZZ":
        return 0, bits[0] | bits[1]
    return (bits[0] if gate.kind in ("RX", "RY") else 0,
            bits[0] if gate.kind in ("RY", "RZ") else 0)


def _gate_rotation(gate: Gate, xb: int, zb: int) -> _Rotation:
    """The rotation of one non-PHASE gate with generator masks (xb, zb).

    RX/RY/RZ(k, angle) = exp(-i*angle*I_k) and ZZ(k, l, angle) =
    exp(-i*angle*2*I_kz*I_lz), so t = angle for every kind; the scale
    2**wB is 2 or 4.
    """
    scale = 4.0 if gate.kind == "ZZ" else 2.0
    return xb, zb, math.cos(gate.angle), 1j * math.sin(gate.angle) * scale


def conjugate_by_sequence(
    seq: GateSequence, operator: ProductOperator | PauliPolynomial
) -> PauliPolynomial:
    """U op U^dagger for the full sequence U (gates[0] innermost).

    The terms stay in mask form from the first gate to the last.  Per
    gate, the generator's masks are looked up by (kind, qubits), built and
    checked against the register once per call, and the gate is skipped
    when it commutes with every current term: most such gates by one test
    on the OR of the terms' x masks and of their z masks, the rest by a scan
    of the terms (without it, the n * I_kz proofs of lowered diagonals at
    n = 5-7 ran 2-3% slower on 2 vCPU).  Only a gate that acts builds its
    rotation, with its cos and sin, and rotates the terms.  DROP_TOL
    applies after every rotation.
    """
    poly = _as_poly(operator)
    n = poly.n_spins
    if n != seq.n_qubits:
        raise ValueError("spin counts differ")
    terms = poly.strings
    xs, zs = _mask_unions(terms)
    masks: dict[tuple, _Masks] = {}
    for gate in seq:
        kind = gate.kind
        if kind == "PHASE":
            continue
        key = (kind, gate.qubits)
        gate_masks = masks.get(key)
        if gate_masks is None:
            gate_masks = masks[key] = _gate_masks(gate, n)
        xb, zb = gate_masks
        if not (xs & zb or zs & xb):
            continue  # no term has an anticommuting factor on the gate's spins
        for x, z in terms:
            if ((x & zb) ^ (z & xb)).bit_count() & 1:
                break
        else:
            continue
        rot = _gate_rotation(gate, xb, zb)
        terms = {k: c for k, c in _rotate(terms, rot).items() if abs(c) >= DROP_TOL}
        xs, zs = _mask_unions(terms)
    return PauliPolynomial._of(n, terms)


def _mask_unions(terms: dict[_Masks, complex]) -> _Masks:
    """The OR of every term's x mask and of every z mask."""
    xs = zs = 0
    for x, z in terms:
        xs |= x
        zs |= z
    return xs, zs


@dataclass
class CoherenceProfile:
    """Multiple-quantum content of an operator: the squared weight of each
    order p in the ladder-operator expansion, from which `orders` is read."""

    component_weights: dict[int, float]

    @property
    def orders(self) -> frozenset[int]:
        return frozenset(p for p, w in self.component_weights.items() if w > 0.0)


class Subspace(enum.Enum):
    LONGITUDINAL = "longitudinal"
    ZERO_QUANTUM = "zero-quantum"
    EVEN_ORDER = "even-order"
    GENERAL = "general"


_I_POWER_ARRAY = np.array(_I_POWERS)


def _walsh_hadamard_rows(a: np.ndarray) -> np.ndarray:
    """F[r, s] = sum_y a[r, y] * (-1)**|s & y| for each row of a (rows, 2**k)
    array: k butterfly passes, all rows at once."""
    rows, size = a.shape
    h = 1
    while h < size:
        a = a.reshape(rows, -1, 2, h)
        b = np.empty_like(a)
        np.add(a[:, :, 0], a[:, :, 1], out=b[:, :, 0])
        np.subtract(a[:, :, 0], a[:, :, 1], out=b[:, :, 1])
        a = b
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
    A weight past the float range raises ValueError, and so does a class
    size whose (classes) * 2**k amplitudes pass MAX_ORDER_AMPLITUDES, before
    anything of that size is allocated.
    """
    poly = _as_poly(op)
    strings = poly.strings
    n, m = poly.n_spins, len(strings)
    # two rows of spin bits per term, spin 1 first: its x mask and its x & z
    xw, zw = _mask_columns(strings, n)
    words = np.stack([xw, xw & zw], axis=1).view(np.uint8)
    bits = np.unpackbits(words, axis=2, count=n, bitorder="little").view(bool)
    x, y = bits[:, 0], bits[:, 1]
    k = x.sum(axis=1)
    # bit j of a term's index is the Y bit of its j-th transverse spin
    index = (y << np.maximum(np.cumsum(x, axis=1) - 1, 0)).sum(axis=1)
    coeffs = np.fromiter(strings.values(), complex, m) * _I_POWER_ARRAY[y.sum(axis=1) & 3]
    # k -> {class (x, z & ~x): row}
    groups: dict[int, dict[_Masks, int]] = {}
    row_of_term = []
    for (xm, zm), kk in zip(strings, k.tolist()):
        group = groups.setdefault(kk, {})
        row_of_term.append(group.setdefault((xm, zm & ~xm), len(group)))
    for kk, group in groups.items():
        if len(group) << kk > MAX_ORDER_AMPLITUDES:
            raise ValueError(
                f"{len(group)} term class(es) with {kk} transverse spins need "
                f"{len(group) << kk} ladder amplitudes, past the cap of {MAX_ORDER_AMPLITUDES}"
            )
    rows = np.array(row_of_term, dtype=np.int64)
    weights: dict[int, float] = {}
    for kk, group in sorted(groups.items()):
        sel = k == kk
        a = np.zeros((len(group), 2**kk), dtype=complex)
        a[rows[sel], index[sel]] = coeffs[sel]
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.abs(_walsh_hadamard_rows(a)) * 2.0**-kk
            # an overflow is inf or NaN here, and NaN < DROP_TOL is false
            power = np.where(mag < DROP_TOL, 0.0, mag * mag).sum(axis=0)
        for s, w in enumerate(power.tolist()):
            if w != 0.0:
                p = 2 * s.bit_count() - kk
                w += weights.get(p, 0.0)
                if not math.isfinite(w):
                    raise ValueError(f"weight of order p={p:+d} overflows the float range")
                weights[p] = w
    return CoherenceProfile(weights)


def classify_subspace(
    op: ProductOperator | PauliPolynomial, profile: CoherenceProfile | None = None
) -> Subspace:
    """Most specific of longitudinal < zero-quantum < even-order < general.

    ``profile`` is ``coherence_orders(op)`` when the caller already has it;
    without it the transform is run here.
    """
    poly = _as_poly(op)
    if not any(x for x, _ in poly.strings):
        return Subspace.LONGITUDINAL
    orders = (profile if profile is not None else coherence_orders(poly)).orders
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
    is a multiple of the identity.  An operator whose (terms) * (spins)
    passes MAX_ORDER_AMPLITUDES raises ValueError before any term is built.
    """
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
    if len(parsed) * n > MAX_ORDER_AMPLITUDES:
        raise ValueError(f"{len(parsed)} term(s) on {n} spins need {len(parsed) * n} "
                         f"factors, past the cap of {MAX_ORDER_AMPLITUDES}")
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
