"""Synthesis of diagonal unitaries.

A diagonal unitary diag(exp(-i*theta_x)) is equivalent to a real polynomial
in z products: theta_x = c + sum_S a_S * (1/2) * prod_{j in S} s_j(x), where
s_j(x) = +1 when qubit j of x is 0 and -1 when it is 1.  The two forms are
connected by a Walsh-Hadamard transform; each subset S with |S| <= 2 maps
straight onto an RZ or ZZ gate, and larger z products reduce recursively to
ZZ plus one-qubit rotations, or, where the strings sharing a largest qubit
are dense, together by one Gray-code parity cycle.
"""

from __future__ import annotations

import functools
import math
from operator import add, sub

from .gates import (  # PhaseVector, its reader and the compile cap are re-exported
    DROP_TOL,
    MAX_COMPILE_QUBITS,
    Gate,
    GateSequence,
    PhaseVector,
    _Record,
    check_compile_cap,
    exact_int,
    gphase,
    load_phase_vector,
    rx,
    ry,
    rz,
    zz,
)

_HALF_PI = 0.5 * math.pi


class ZPolynomial(_Record):
    """A diagonal Hamiltonian: constant plus z-product terms.  terms[m] is the
    coefficient of 2**(|S|-1) * prod_{j in S} I_jz (diagonal entries +-1/2),
    spin q of S on bit q - 1 of mask m.  ``coeffs`` is a new dict of the terms
    keyed by sorted spin tuples, the keys the constructor takes."""

    __slots__ = ("n_qubits", "constant", "terms")

    def __init__(self, n_qubits: int, constant: float = 0.0, coeffs=None) -> None:
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        terms: dict[int, float] = {}
        for subset, a in (coeffs or {}).items():
            key = tuple(sorted(set(exact_int(q) for q in subset)))
            if len(key) != len(tuple(subset)):
                raise ValueError(f"repeated qubit in subset {subset}")
            if not key:
                raise ValueError("subsets must be nonempty; use the constant")
            if key[0] < 1 or key[-1] > n_qubits:
                raise ValueError(f"subset {key} outside 1..{n_qubits}")
            a = float(a)
            if not math.isfinite(a):
                raise ValueError(f"coefficient of {key} must be finite, got {a!r}")
            if abs(a) >= DROP_TOL:
                m = _mask(key)
                terms[m] = terms.get(m, 0.0) + a
        self.n_qubits, self.terms, self.constant = n_qubits, terms, float(constant)
        if not math.isfinite(self.constant):
            raise ValueError(f"constant must be finite, got {self.constant!r}")
        if abs(self.constant) < DROP_TOL:
            self.constant = 0.0

    @property
    def coeffs(self) -> dict[tuple[int, ...], float]:
        return {_spins(m): a for m, a in self.terms.items()}


def _mask(spins) -> int:
    return sum(1 << (q - 1) for q in spins)


def _spins(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, mask.bit_length() + 1) if mask >> (q - 1) & 1)


def _walsh_hadamard(v: list[float]) -> list[float]:
    """F[s] = sum_y v[y] * (-1)**|s & y| on Python floats: for stride h = 1,
    2, 4, ..., each block [a, b] of 2h entries becomes [a + b, a - b].  A
    pass loops over whichever is fewer, its h strides or its blocks; each
    sum is one IEEE add, so an overflow gives inf or nan, never an error."""
    size, h = len(v), 1
    while h < size:
        out, step = [0.0] * size, 2 * h
        if h * step <= size:  # no more strides than blocks
            for i in range(h):
                a, b = v[i::step], v[i + h::step]
                out[i::step] = map(add, a, b)
                out[i + h::step] = map(sub, a, b)
        else:
            for j in range(0, size, step):
                a, b = v[j:j + h], v[j + h:j + step]
                out[j:j + h] = map(add, a, b)
                out[j + h:j + step] = map(sub, a, b)
        v, h = out, step
    return v


def _bit_reversal(n: int) -> list[int]:
    """The n-bit reversal of 0 .. 2**n - 1: it takes a butterfly index, spin
    j on bit n - j, to a mask, spin q on bit q - 1, and back."""
    rev = [0]
    for _ in range(n):
        rev = [r << 1 for r in rev] + [r << 1 | 1 for r in rev]
    return rev


def phases_to_zpoly(pv: PhaseVector) -> ZPolynomial:
    """Walsh transform of the phases: the unique z polynomial with diag = theta.
    The butterfly puts spin j on bit n - j, so a bit reversal of its indices
    gives the masks; its first coefficient that overflows is refused."""
    n = pv.n_qubits
    f = _walsh_hadamard(list(pv.phases))
    scale = 2.0 ** (1 - n)
    a = [x * scale for x in f]
    masks = _bit_reversal(n)
    if not all(map(math.isfinite, a[1:])):
        i = next(i for i in range(1, len(a)) if not math.isfinite(a[i]))
        ZPolynomial(n, 0.0, {_spins(masks[i]): a[i]})  # refuses it
    zp = ZPolynomial(n, f[0] / 2**n)
    zp.terms = {m: x for m, x in zip(masks[1:], a[1:]) if abs(x) >= DROP_TOL}
    return zp


def zpoly_to_phases(zp: ZPolynomial) -> PhaseVector:
    """Inverse of :func:`phases_to_zpoly`."""
    n, size = zp.n_qubits, 2**zp.n_qubits
    rev, scale = _bit_reversal(n), 2.0 ** (n - 1)
    f = [0.0] * size
    for m, a in zp.terms.items():
        f[rev[m]] = a * scale
    f[0] = zp.constant * size
    return PhaseVector(n, [x / size for x in _walsh_hadamard(f)])


def reduce_zstring(
    subset, coeff: float, n_qubits: int | None = None
) -> GateSequence:
    """Lower exp(-i*coeff * 2**(m-1) I_z...I_z) on an m-spin subset to gates.

    Each recursion level eliminates the second-highest spin of the subset by
    conjugating the one-spin-smaller string with a fixed four-gate basis
    change, so an m-body string costs exactly 2m-3 ZZ gates and 6(m-2)
    one-qubit gates.
    """
    spins = tuple(sorted(set(exact_int(q) for q in subset)))
    if len(spins) < 2:
        raise ValueError("z-string reduction needs at least two spins")
    n = n_qubits if n_qubits is not None else spins[-1]
    if spins[-1] > n:
        raise ValueError(f"subset {spins} exceeds register of {n}")
    seq = GateSequence(n)
    _lower_pivot(seq.gates, spins[-1], {_mask(spins[:-1]): coeff})
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


def _walk(masks: list[int]) -> list[tuple[int, int]]:
    """The ordered walk over one pivot's strings, given as increasing masks:
    the (closed, opened) wrappers of each string.

    String (s_1 < ... < s_m) is ZZ(s_1, s_m) wrapped in the basis changes
    V^dagger(s, s_m) ... V(s, s_m) for s = s_{m-1} (outermost) down to s_2:
    its wrappers are its mask without the lowest bit.  Each string closes
    only the open wrappers it does not share with the one before and opens
    only those not yet open; a final mask 0 closes the rest.
    """
    steps, opened = [], 0
    for m in masks:
        wraps = m & (m - 1)
        below = (1 << (opened ^ wraps).bit_length()) - 1
        steps.append((opened & below, wraps & below))
        opened = wraps
    return steps


def _gray_cycle(gates: list[Gate], pivot: int, used: int, coeffs: dict[int, float]) -> None:
    """Append one pivot's strings as a closed Gray-code parity cycle.

    RY(pivot, pi/2) turns I_pivot,z into I_pivot,x.  Step i of the reflected
    Gray cycle over the spins c of mask ``used`` (step i flips the ctz(i)-th
    smallest, the last step the largest) is ZZ(c, pivot, +pi/2) where it sets
    c's bit and ZZ(c, pivot, -pi/2) where it clears it.  Each ZZ turns the
    frame image of Z_pivot from +-X Z_M into +-Y Z_M' or back, M' = M with c
    toggled; where M is the mask of a string with coefficient a, the one
    rotation RX/RY(pivot, +-a) lowers it.  Every bit is set and cleared
    equally often, so the ZZs multiply to the identity and RY(pivot, -pi/2)
    closes the frame.
    """
    spins = [q for q in range(1, pivot) if used >> (q - 1) & 1]
    k = len(spins)
    enter = [zz(c, pivot, _HALF_PI) for c in spins]
    leave = [g.inverse() for g in enter]
    gates.append(ry(pivot, _HALF_PI))
    sign, on_x, mask = 1.0, True, 0  # the frame maps Z_pivot to sign * (X or Y) * Z_mask
    for i in range(1, 2**k + 1):
        j = min((i & -i).bit_length(), k) - 1
        bit = 1 << (spins[j] - 1)
        leaving = mask & bit != 0
        gates.append(leave[j] if leaving else enter[j])
        if leaving == on_x:  # X -> +Y, Y -> -X when entering; the reverse when leaving
            sign = -sign
        on_x = not on_x
        mask ^= bit
        a = coeffs.get(mask)
        if a is not None:
            gates.append((rx if on_x else ry)(pivot, sign * a))
    gates.append(ry(pivot, -_HALF_PI))


def _lower_pivot(gates: list[Gate], pivot: int, coeffs: dict[int, float]) -> None:
    """Append the strings whose largest spin is ``pivot``, keyed by their
    lower-spin masks, by the ordered walk or by a Gray cycle, whichever the
    counts favour.

    The walk takes the strings in increasing mask order, which is the order
    of their reversed spin tuples.  Over the k lower spins the strings use,
    the cycle costs 2^k ZZ and s + 2 one-qubit gates for s strings; the walk
    costs s + 2w ZZ and 6w one-qubit gates for the w basis changes it opens.
    The cycle is taken only for k >= 3 and only when it is no longer in
    either count, so every lowering on three or fewer spins stays the
    paper's recursion.
    """
    masks = sorted(coeffs) + [0]
    steps = _walk(masks)
    used = functools.reduce(int.__or__, masks)
    k, s, w = used.bit_count(), len(coeffs), sum(opens.bit_count() for _, opens in steps)
    if k >= 3 and 2**k <= s + 2 * w and s + 2 <= 6 * w:
        _gray_cycle(gates, pivot, used, coeffs)
        return
    for m, (closes, opens) in zip(masks, steps):
        while closes:  # innermost (lowest) first
            low = closes & -closes
            gates.extend(_basis_change(low.bit_length(), pivot)[0])
            closes ^= low
        while opens:  # outermost (highest) first
            top = opens.bit_length()
            gates.extend(_basis_change(top, pivot)[1])
            opens ^= 1 << (top - 1)
        if m:
            gates.append(zz((m & -m).bit_length(), pivot, coeffs[m]))


def zpoly_to_sequence(zp: ZPolynomial) -> GateSequence:
    """Emit PHASE, the RZ terms by qubit, then the longer strings by pivot.

    All factors commute, so the order is free.  The strings with two or more
    spins are split by pivot, the largest spin: mask m is filed under pivot
    m.bit_length() with its lower mask m ^ 1 << (pivot - 1), and the pivots
    are lowered in increasing order, each in one of two ways:

    * the ordered walk: its strings in increasing mask order, the same as
      the order of their reversed spin tuples, which puts next to each other
      the strings whose lowerings share their outermost basis changes; a V
      that would close one string and the V^dagger that would reopen it in
      the next are never emitted.  For s strings it costs s + 2w ZZ and 6w
      one-qubit gates, w the basis changes it opens; it is never longer than
      the strings lowered one by one.
    * a closed Gray-code parity cycle over the k lower spins the strings
      use: 2^k ZZ and s + 2 one-qubit gates.

    The cycle is taken when k >= 3 and it is no longer in either count.  A
    dense diagonal on n >= 4 qubits costs 2^n - 2 ZZ and 2^n + 2n - 5
    one-qubit gates; on n <= 3 the output is the ordered walk's.
    """
    seq = GateSequence(zp.n_qubits)
    gates = seq.gates
    if zp.constant != 0.0:
        gates.append(gphase(zp.constant))
    singles: dict[int, float] = {}
    pivots: dict[int, dict[int, float]] = {}
    for m, a in zp.terms.items():
        pivot = m.bit_length()
        if m & (m - 1):  # two or more spins
            pivots.setdefault(pivot, {})[m ^ 1 << (pivot - 1)] = a
        else:
            singles[pivot] = a
    gates.extend(rz(q, singles[q]) for q in sorted(singles))
    for pivot in sorted(pivots):
        _lower_pivot(gates, pivot, pivots[pivot])
    return seq


def compile_phases(n: int, phases) -> GateSequence:
    """Lower diag(exp(-i*phases)) on n qubits, the one way every diagonal is
    lowered: Walsh transform to a z polynomial, then its factorization."""
    return zpoly_to_sequence(phases_to_zpoly(PhaseVector(n, phases)))
