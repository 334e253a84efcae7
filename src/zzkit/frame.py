"""Structured referee: a gate sequence as a global phase, a Clifford frame
and the Pauli rotations pushed through it, compared with its target without
forming a 2**n x 2**n matrix.

Every gate but PHASE is exp(-i*(theta/2)*P) for a Pauli string P.  A gate
whose theta/(pi/2) is exactly an integer is a Clifford gate and joins the
frame F; every other rotation is pushed through the frame before it, so

    U = exp(-i*phi) * F * R_m ... R_1,   R_j = exp(-i*(theta_j/2) * F_j^dagger P_j F_j)

where phi sums the PHASE angles.  The frame is held as the images
F^dagger X_q F and F^dagger Z_q F, each a Pauli i^p X^x Z^z stored as
(x mask, z mask, p) with qubit q on bit n - q, its bit in a basis index.
Conjugation does not see the frame's global phase, so one nonzero entry
<row|F|col> is kept as well, exactly, as exp(i*pi*j/4) * 2**(-h/2); every
other entry follows from it and the images (`_Frame.entry_at`).

Rotations that commute and are diagonal in one basis form a phase vector,
evaluated by a Walsh butterfly.  Each target has its expected shape:

* a phase vector or a truth table: Z rotations and a diagonal frame;
* the Walsh-Hadamard layer: Z rotations and a frame H^n times a diagonal;
* a Grover iterate: Z rotations, then X rotations (Z rotations conjugated by
  the Hadamard layer), and a frame that is a multiple of the identity; at
  n <= 2, where every gate is Clifford, the frame alone, entry by entry;
* a controlled-u: rotations and a frame that all fix each control Z_k, so U
  is block diagonal; each 2x2 block is compared with I, or with u where every
  control is 1.

`distances` returns the two distances of `zzkit.simulator`, the plain
max-entry distance (global phase included) and the distance up to global
phase, or None for a sequence whose form has another shape.  Like the dense
referee, this module imports from the package only the gate set.
"""

from __future__ import annotations

import bisect
import cmath
import math

from .gates import Gate, GateSequence, as_u2

_HALF_PI = 0.5 * math.pi
_S = math.sqrt(0.5)
#: exp(i*pi*j/4), exact where it is a power of i.
_ROOTS = (1.0, complex(_S, _S), 1j, complex(-_S, _S), -1.0, complex(-_S, -_S), -1j,
          complex(_S, -_S))
#: (cos, sin) of k*pi/4 by k mod 8, in units of 1 for even k and 2**-0.5 for odd k.
_COS_SIN = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_PAULI_2X2 = {1: ((1, 0), (0, -1)), 2: ((0, 1), (1, 0)), 3: ((0, -1j), (1j, 0))}


def _mul(a, b):
    """(i^p X^x Z^z)(i^q X^u Z^v) as (x ^ u, z ^ v, power of i)."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) & 3


def _sign(x: int, z: int, p: int) -> int:
    """+1 or -1: a Hermitian i^p X^x Z^z over the string of its X, Y, Z factors."""
    return 1 - ((p - (x & z).bit_count()) & 2)


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _add(a, b):
    """Sum of two exact entries (j, h); None is zero.  Entries of one row of
    a Clifford have one magnitude and phases a multiple of pi/2 apart."""
    if a is None or b is None:
        return b if a is None else a
    (j, h), (k, g) = a, b
    d = (k - j) & 7
    if h != g or d & 1:
        raise ArithmeticError(f"entries {a} and {b} of a Clifford frame do not add")
    if d == 4:
        return None
    return ((j, h - 2), (j + 1, h - 1), None, (j - 1, h - 1))[d // 2]


def _scaled(t, quarter_turns: int, halve: int = 0):
    """An exact entry times i**quarter_turns * 2**(-halve/2)."""
    return None if t is None else ((t[0] + 2 * quarter_turns) & 7, t[1] + halve)


def _value(t) -> complex:
    return 0j if t is None else _ROOTS[t[0] & 7] * 2.0 ** (-0.5 * t[1])


def _products(images):
    """Products of the images over every mask: entry a is the product of
    images[b] over the bits b of a."""
    out = [(0, 0, 0)]
    for img in images:
        out += [_mul(q, img) for q in out]
    return out


def _walsh(v: list) -> list:
    """F[x] = sum_s v[s] * (-1)**|s & x|, in place, by the butterfly."""
    size, h = len(v), 1
    while h < size:
        for i in range(0, size, 2 * h):
            for k in range(i, i + h):
                a, b = v[k], v[k + h]
                v[k], v[k + h] = a + b, a - b
        h *= 2
    return v


def _pauli(gate: Gate, n: int):
    bits = [1 << (n - q) for q in gate.qubits]
    if gate.kind == "ZZ":
        return 0, bits[0] | bits[1], 0
    b = bits[0]
    return {"RX": (b, 0, 0), "RY": (b, b, 1), "RZ": (0, b, 0)}[gate.kind]


def _bare(n: int, axis: int) -> list:
    """X (axis 0) or Z (axis 1) on each bit b, as images."""
    return [(1 << b, 0, 0) if axis == 0 else (0, 1 << b, 0) for b in range(n)]


class _Frame:
    """A Clifford F as its images xs[b] = F^dagger X F and zs[b] = F^dagger Z F
    on bit b, plus one exact nonzero entry ``entry`` = <row|F|col>."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.xs, self.zs = _bare(n, 0), _bare(n, 1)
        self.row = self.col = 0
        self.entry = (0, 0)
        self._pivots = None  # elimination over the x masks of zs, kept until they change

    def push(self, pauli):
        """F^dagger P F."""
        x, z, p = pauli
        out = (0, 0, p)
        for masks, images in ((x, self.xs), (z, self.zs)):
            while masks:
                low = masks & -masks
                out = _mul(out, images[low.bit_length() - 1])
                masks ^= low
        return out

    def entry_at(self, img, w: int):
        """<row ^ a|F|col ^ x> for the Pauli img = i^p X^x Z^z, the product of
        the images of X^a and then Z^w: i^-p (-1)^(|w & row| + |z & col|) times
        the kept entry.  (Take X^a Z^w F = F img between <row ^ a| and |col>.)"""
        x, z, p = img
        return _scaled(self.entry, -p + 2 * _parity((w & self.row) ^ (z & self.col)))

    def _in_row(self, x: int):
        """<row|F|col ^ x>: zero unless x is the x mask of the image of some
        Z^w, as every entry in a row of a Clifford lies on one coset."""
        if self._pivots is None:
            self._pivots = {}
            for b, (v, _, _) in enumerate(self.zs):
                w = 1 << b
                while v:
                    top = v.bit_length() - 1
                    if top not in self._pivots:
                        self._pivots[top] = (v, w)
                        break
                    v, w = v ^ self._pivots[top][0], w ^ self._pivots[top][1]
        w = 0
        while x:
            top = x.bit_length() - 1
            if top not in self._pivots:
                return None
            x, w = x ^ self._pivots[top][0], w ^ self._pivots[top][1]
        img = (0, 0, 0)
        for b in range(self.n):
            if w >> b & 1:
                img = _mul(img, self.zs[b])
        return self.entry_at(img, w)

    def apply(self, pauli, k: int) -> None:
        """F <- exp(-i*k*(pi/4)*P) F = F exp(-i*k*(pi/4)*P') with P' = F^dagger P F."""
        k &= 7
        if k == 0:
            return
        if k == 4:  # -I
            self.entry = _scaled(self.entry, 2)
            return
        c, s = _COS_SIN[k]
        x, z, p = pushed = self.push(pauli)
        if k & 1:
            # <row|F G'|col ^ e> = (c <row|F|col ^ e> - i s i^p (-1)^|z & (col ^ e)|
            #                       <row|F|col ^ e ^ x>) / sqrt(2), for e = 0 or x
            here, there = self.entry, self.entry if x == 0 else self._in_row(x)
            for col, a, b in ((self.col, here, there), (self.col ^ x, there, here)):
                t = _add(_scaled(a, 0 if c > 0 else 2, 1),
                         _scaled(b, -1 + p + (0 if s > 0 else 2) + 2 * _parity(z & col), 1))
                if t is not None:
                    break
            # A anticommuting with P: F^dagger G^dagger A G F = -i sin(k pi/2) img(A) P'
            turn = 3 if k in (1, 5) else 1
        else:
            # G' = -i s P': <row|F G'|col ^ x> = -i s i^p (-1)^|z & (col ^ x)| <row|F|col>
            col = self.col ^ x
            t = _scaled(self.entry, -1 + p + (0 if s > 0 else 2) + 2 * _parity(z & col))
            turn = 2
        self.col, self.entry = col, t
        px, pz, _ = pauli
        for masks, images in ((pz, self.xs), (px, self.zs)):
            while masks:
                low = masks & -masks
                b = low.bit_length() - 1
                img = images[b] if turn == 2 else _mul(images[b], pushed)
                images[b] = (img[0], img[1], (img[2] + turn) & 3)
                masks ^= low
        if px and turn != 2:
            self._pivots = None


def _reduce(seq: GateSequence):
    """(phi, frame, rotations): rotations as (x, z, p, theta) in application order."""
    n = seq.n_qubits
    frame, phase, rotations = _Frame(n), 0.0, []
    for g in seq.gates:
        if g.kind == "PHASE":
            phase += g.angle
            continue
        k = g.angle / _HALF_PI
        if k.is_integer():
            frame.apply(_pauli(g, n), int(k))
        else:
            rotations.append((*frame.push(_pauli(g, n)), g.angle))
    return phase, frame, rotations


def _phase_vector(rotations, n: int, mask) -> list[float]:
    """Phi[x] with prod_j exp(-i*(theta_j/2) P_j) = exp(-i*Phi[x]) on eigenvector
    x, for commuting rotations whose masks select the eigenvalue signs."""
    f = [0.0] * (1 << n)
    for x, z, p, theta in rotations:
        f[mask(x, z)] += _sign(x, z, p) * 0.5 * theta
    return _walsh(f)


def _entrywise(pairs, scale: float = 1.0):
    """(gap, trace) from the nonzero entries of U and of the target, as (u, t)
    pairs: gap(lam) = scale * max |lam u - t|, trace = sum u conj(t)."""

    def gap(lam: complex) -> float:
        return scale * max(abs(lam * a - b) for a, b in pairs)

    return gap, sum(a * b.conjugate() for a, b in pairs)


def _diagonal(form, n: int, angles, hadamard: bool):
    """U = exp(-i*phi) E D for E = I, or H^n when ``hadamard``: compared with
    E diag(exp(-i*angles)).  The frame is E times a diagonal D_F, read from
    the images and the kept entry; the rotations must all be Z rotations."""
    phase, frame, rotations = form
    if any(r[0] for r in rotations):
        return None
    row, col, (_, h) = frame.row, frame.col, frame.entry
    jd = [0] * (1 << n)
    if hadamard:  # F^dagger X F = Z on every qubit: F = H^n D_F, |F entries| = 2**(-n/2)
        if frame.xs != _bare(n, 1) or h != n:
            return None
        for w, img in enumerate(_products(frame.zs)):
            jd[col ^ w] = frame.entry_at(img, w)[0] + 4 * _parity(row & (col ^ w))
    else:  # F fixes every Z: F = D_F
        if frame.zs != _bare(n, 1) or h != 0 or row != col:
            return None
        for a, img in enumerate(_products(frame.xs)):
            jd[row ^ a] = frame.entry_at(img, 0)[0]
    phi = _phase_vector(rotations, n, lambda x, z: z)
    pairs = [(cmath.exp(-1j * (phase + f - 0.25 * math.pi * jj)), cmath.exp(-1j * a))
             for f, jj, a in zip(phi, jd, angles)]
    return _entrywise(pairs, 2.0 ** (-0.5 * n) if hadamard else 1.0)


def _grover_entries(form, n: int, marked: int):
    """A sequence of Clifford gates alone, n <= 2: every entry of the frame
    against (2/N) J - I with column ``marked`` negated."""
    phase, frame, _ = form
    size, scalar = 1 << n, cmath.exp(-1j * phase)
    xs, zs = _products(frame.xs), _products(frame.zs)
    u = [[0j] * size for _ in range(size)]
    for a in range(size):
        for w in range(size):
            img = _mul(xs[a], zs[w])
            u[frame.row ^ a][frame.col ^ img[0]] = scalar * _value(frame.entry_at(img, w))
    t = [[(2.0 / size - (r == s)) * (-1.0 if s == marked else 1.0) for s in range(size)]
         for r in range(size)]
    return _entrywise([(u[r][s], t[r][s]) for r in range(size) for s in range(size)])


def _grover(form, n: int, marked: int):
    """U = exp(-i*phi) c H D_y H D_z, with D_z from the Z rotations and D_y
    from the X rotations after them, against H D_r H D_o, r = (1, -1, ...,
    -1) and o = 1 but -1 at ``marked``.  Entry (rho, sigma) of the difference
    is (a yhat[d] w[sigma] - rhat[d]) o[sigma] / N with d = rho ^ sigma,
    w = z * o and yhat, rhat Walsh transforms; for each d its largest value
    is at the w whose angle is nearest the opposite of rhat[d] / (a yhat[d])."""
    phase, frame, rotations = form
    if not rotations and n <= 2:
        return _grover_entries(form, n, marked)
    split = next((i for i, r in enumerate(rotations) if r[0]), len(rotations))
    zrot, xrot = rotations[:split], rotations[split:]
    if any(r[1] for r in xrot) or (frame.xs, frame.zs) != (_bare(n, 0), _bare(n, 1)):
        return None
    if frame.row != frame.col or frame.entry[1] != 0:  # a multiple of I
        return None
    size = 1 << n
    alpha = cmath.exp(-1j * phase) * _value(frame.entry)
    y = [cmath.exp(-1j * f) for f in _phase_vector(xrot, n, lambda x, z: x)]
    z = _phase_vector(zrot, n, lambda x, z: z)
    w = [cmath.exp(-1j * f) * (-1.0 if s == marked else 1.0) for s, f in enumerate(z)]
    ry = y[0] - sum(y[1:])
    yhat = _walsh(list(y))
    by_angle = sorted(w, key=cmath.phase)
    keys = [cmath.phase(v) for v in by_angle]

    def gap(lam: complex) -> float:
        worst = 0.0
        for d, v in enumerate(yhat):
            a, b = lam * alpha * v, 2.0 - size * (d == 0)
            if a == 0:
                worst = max(worst, abs(b))
                continue
            i = bisect.bisect(keys, cmath.phase(-b / a))
            worst = max(worst, *(abs(a * by_angle[k % size] - b) for k in (i - 1, i)))
        return worst / size

    return gap, alpha * ry * sum(w) / size


def _controlled(form, n: int, u):
    """Every rotation and the frame fix each control Z_k (bits 1 .. n-1), so U
    is the direct sum of 2x2 blocks u_c over the control values c, each
    exp(-i*phi) F_c M_m(c) ... M_1(c) for runs of rotations whose target
    factors agree (I joins any run); a run is a I + b B on the target, B its
    Pauli, a = (e0 + e1)/2 and b = (e0 - e1)/2 for its two phases e."""
    phase, frame, rotations = form
    half, controls = 1 << (n - 1), (1 << n) - 2
    if any(r[0] & controls for r in rotations):
        return None
    if frame.zs[1:] != _bare(n, 1)[1:]:
        return None
    scalar = cmath.exp(-1j * phase)
    blocks = [[[0j, 0j], [0j, 0j]] for _ in range(half)]
    for a, img in enumerate(_products(frame.xs)):
        for w, both in ((0, img), (1, _mul(img, frame.zs[0]))):
            r, s = frame.row ^ a, frame.col ^ both[0]
            blocks[r >> 1][r & 1][s & 1] = scalar * _value(frame.entry_at(both, w))
    runs: list[list] = []  # [target Pauli code, rotations]; code 0 is I, 1 Z, 2 X, 3 Y
    for rot in rotations:
        code = 2 * (rot[0] & 1) + (rot[1] & 1)
        if runs and (code == 0 or runs[-1][0] in (0, code)):
            runs[-1][0] = runs[-1][0] or code
            runs[-1][1].append(rot)
        else:
            runs.append([code, [rot]])
    for code, rots in reversed(runs):  # u_c = F_c M_m ... M_1: the last run first
        phi = _phase_vector(rots, n, lambda x, z: (z & controls) | (x | z) & 1)
        pauli = _PAULI_2X2.get(code, _PAULI_2X2[1])
        for c, m in enumerate(blocks):
            e0, e1 = cmath.exp(-1j * phi[2 * c]), cmath.exp(-1j * phi[2 * c + 1])
            a, b = 0.5 * (e0 + e1), 0.5 * (e0 - e1)
            step = [[a * (i == k) + b * pauli[i][k] for k in (0, 1)] for i in (0, 1)]
            blocks[c] = [[m[i][0] * step[0][k] + m[i][1] * step[1][k] for k in (0, 1)]
                         for i in (0, 1)]
    identity = ((1.0, 0.0), (0.0, 1.0))
    return _entrywise([(m[i][k], (u if c == half - 1 else identity)[i][k])
                       for c, m in enumerate(blocks) for i in (0, 1) for k in (0, 1)])


def distances(seq: GateSequence, target):
    """(plain distance, distance up to global phase) between the sequence's
    unitary and a ``zzkit verify`` target description, or None when the
    sequence's normal form is not of the target's shape.

    The target is refused first with the dense builder's message: a 2x2
    matrix that is not unitary, a Grover index outside the register.  The
    second distance uses the phase of tr(target^dagger U), or 1 where
    |tr| <= 1e-9 * 2**n, as `zzkit.simulator.distance_up_to_phase` does.
    """
    kind, *args = target
    n = seq.n_qubits
    if kind == "cu":
        args[0] = as_u2(args[0])
    if kind == "grover" and not 0 <= args[1] < 2**n:
        raise ValueError(f"basis index {args[1]} outside 0..{2**n - 1}")
    form = _reduce(seq)
    if kind == "phases":
        result = _diagonal(form, n, args[0].phases, False)
    elif kind == "truth-table":
        result = _diagonal(form, n, [math.pi * v for v in args[0].values], False)
    elif kind == "walsh":
        result = _diagonal(form, n, [0.0] * (1 << n), True)
    elif kind == "grover":
        result = _grover(form, n, args[1])
    else:
        result = _controlled(form, n, args[0])
    if result is None:
        return None
    gap, trace = result
    phase = trace / abs(trace) if abs(trace) > 1e-9 * 2**n else 1.0
    return gap(1.0), gap(phase.conjugate())
