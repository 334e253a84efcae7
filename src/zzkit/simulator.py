"""Dense state-vector and unitary oracle for desk-scale verification.

States are plain 1-D complex arrays of length 2**n (qubit 1 = most
significant bit).  Gate application works in place; the full 2**n x 2**n
matrix is only formed when :func:`sequence_unitary` is asked for it.

One numpy path applies every gate list.  Buffers under FUSE_MIN_AMPS
amplitudes take it gate by gate: per call, each qubit's row permutation and
z column are built once, and each distinct gate's factor once.  Larger
buffers fuse every non-PHASE gate, in order, into blocks on at most
BLOCK_QUBITS qubits, each built on an identity by the same per-gate kernel
and applied as one matmul; PHASE angles are summed into one global phase.

This module is the dense referee of the compilers, so it imports from the
package only the gate set.  ``zzkit verify`` decides first by the structured
referee, `zzkit.frame`, and falls back to this module for every sequence
that one does not pass: a distance at or above tol, or a form it does not
place.  Here it builds the dense targets (`target_unitary` dispatches on the
target description) and checks the dense cap, `zzkit.gates.check_dense_cap`,
before any 2**n x 2**n builder allocates.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .gates import MAX_UNITARY_QUBITS, Gate, GateSequence, as_u2, check_dense_cap

NORM_TOL = 1e-9
BLOCK_QUBITS = 4  # fused blocks act on at most this many qubits
FUSE_MIN_AMPS = 2**9  # smaller buffers run gate by gate


def n_qubits_of(state: np.ndarray) -> int:
    n = int(state.shape[0]).bit_length() - 1
    if state.shape[0] != 2**n:
        raise ValueError(f"length {state.shape[0]} is not a power of two")
    return n


def zero_state(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


def _check_qubits(gate: Gate, n: int) -> None:
    if any(q > n for q in gate.qubits):
        raise ValueError(f"gate {gate} exceeds register of {n} qubit(s)")


class _GateKernel:
    """Applies gates one at a time to a contiguous buffer of 2**n * trail
    amplitudes, read as 2**n rows of ``trail`` columns; qubit q (1-based)
    is row bit n - q.

    Per kernel, each qubit's tables are built once: the row permutation
    r ^ bit and the column of z eigenvalues (+1 for bit 0, -1 for bit 1).
    Per distinct (kind, qubits, angle), one factor is built once.  RZ and
    ZZ are one phase column and PHASE one scalar; RX and RY are
    new = c*old + d*old[r ^ bit], with d a scalar for RX and a signed
    column for RY.
    """

    def __init__(self, n: int, trail: int) -> None:
        self.n = n
        self.index = np.arange(2**n)
        self.spare = np.empty((2**n, trail), dtype=complex)
        self.tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.factors: dict[tuple, tuple] = {}

    def _table(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        table = self.tables.get(q)
        if table is None:
            bit = 1 << (self.n - q)
            z = 1.0 - 2.0 * ((self.index & bit) != 0)
            table = self.tables[q] = (self.index ^ bit, z[:, None])
        return table

    def _factor(self, kind: str, qubits: tuple[int, ...], angle: float) -> tuple:
        """(c, d, perm): rows become c*rows + d*rows[perm], or c*rows when
        perm is None."""
        if kind == "PHASE":
            return cmath.exp(-1j * angle), None, None
        half = 0.5 * angle
        if kind == "ZZ":
            z = self._table(qubits[0])[1] * self._table(qubits[1])[1]
            return np.exp(-1j * half * z), None, None
        perm, z = self._table(qubits[0])
        if kind == "RZ":
            return np.exp(-1j * half * z), None, None
        c, s = math.cos(half), math.sin(half)
        if kind == "RX":
            return c, -1j * s, perm
        # RY: -s on bit-0 rows, +s on bit-1 rows; complex, so that the
        # in-place multiply into the complex spare needs no cast.
        return c, (-s * z).astype(complex), perm

    def apply(self, rows: np.ndarray, kind: str, qubits: tuple[int, ...], angle: float) -> None:
        key = (kind, qubits, angle)
        factor = self.factors.get(key)
        if factor is None:
            factor = self.factors[key] = self._factor(kind, qubits, angle)
        c, d, perm = factor
        if perm is None:
            rows *= c
            return
        rows.take(perm, 0, self.spare)
        self.spare *= d
        rows *= c
        rows += self.spare


class _Fuser:
    """Applies gates to a contiguous buffer of 2**n * trail amplitudes in
    fused steps.

    Pending work is a global phase plus a block of gates on at most
    BLOCK_QUBITS qubits.  The buffer holds a (2,)*n + (trail,) tensor whose
    axes are stored in the order ``order``.  Applying a block gathers the
    tensor into ``spare`` with the block's axes first, then multiplies it
    back into the buffer, which keeps that order until the next block;
    ``finish`` applies the phase and restores the natural order.
    """

    def __init__(self, buf: np.ndarray, n: int, trail: int) -> None:
        self.buf = buf
        self.spare = np.empty_like(buf)
        self.n = n
        self.dims = (2,) * n + (trail,)
        self.order = list(range(n + 1))
        self.phase = 0.0
        self.b_gates: list[Gate] = []
        self.b_qubits: set[int] = set()
        self.kernels: dict[int, _GateKernel] = {}  # block builders by block size

    def add(self, gate: Gate) -> None:
        if gate.kind == "PHASE":
            self.phase += gate.angle
            return
        qubits = set(gate.qubits)
        if len(qubits | self.b_qubits) > BLOCK_QUBITS:
            self.flush_block()
        self.b_gates.append(gate)
        self.b_qubits |= qubits

    def _stored(self) -> np.ndarray:
        return self.buf.reshape([self.dims[a] for a in self.order])

    def flush_block(self) -> None:
        """Build the block's 2**k matrix on an identity, then apply it as
        one gather and one matmul."""
        if not self.b_gates:
            return
        qubits = sorted(self.b_qubits)
        k = len(qubits)
        pos = {q: i for i, q in enumerate(qubits, 1)}
        kernel = self.kernels.get(k)
        if kernel is None:
            kernel = self.kernels[k] = _GateKernel(k, 2**k)
        m = np.eye(2**k, dtype=complex)
        for g in self.b_gates:
            kernel.apply(m, g.kind, tuple(pos[q] for q in g.qubits), g.angle)
        order = [q - 1 for q in qubits] + [a for a in self.order if a + 1 not in pos]
        src = self._stored().transpose([self.order.index(a) for a in order])
        gathered = self.spare.reshape(src.shape)
        np.copyto(gathered, src)
        np.matmul(m, gathered.reshape(2**k, -1), out=self.buf.reshape(2**k, -1))
        self.order = order
        self.b_gates.clear()
        self.b_qubits.clear()

    def finish(self) -> None:
        self.flush_block()
        if self.phase != 0.0:
            self.buf *= cmath.exp(-1j * self.phase)
        natural = list(range(self.n + 1))
        if self.order != natural:
            stored = self._stored().transpose([self.order.index(a) for a in natural])
            np.copyto(self.spare.reshape(self.dims), stored)
            np.copyto(self.buf, self.spare)
            self.order = natural


def _run_gates(buf: np.ndarray, gates, n: int, trail: int) -> np.ndarray:
    """Apply gates in place to a contiguous complex buffer of 2**n * trail
    amplitudes, returning it.

    Rows (the first n axes) evolve; the trailing axis batches columns.
    A buffer under FUSE_MIN_AMPS amplitudes runs gate by gate through one
    _GateKernel: there, building a block matrix costs more than it saves.
    Larger buffers always go through _Fuser, so no 2**n row table is built
    for them.
    """
    if buf.size < FUSE_MIN_AMPS:
        kernel = _GateKernel(n, trail)
        rows = buf.reshape(2**n, trail)
        for gate in gates:
            _check_qubits(gate, n)
            kernel.apply(rows, gate.kind, gate.qubits, gate.angle)
        return buf
    fuser = _Fuser(buf, n, trail)
    for gate in gates:
        _check_qubits(gate, n)
        fuser.add(gate)
    fuser.finish()
    return buf


def apply_gate(gate: Gate, state: np.ndarray) -> np.ndarray:
    """Multiply the state by one gate; in place when dtype is complex."""
    state = np.ascontiguousarray(state, dtype=complex)
    return _run_gates(state, [gate], n_qubits_of(state), 1)


def apply_sequence(seq: GateSequence, state: np.ndarray) -> np.ndarray:
    state = np.ascontiguousarray(state, dtype=complex)
    n = n_qubits_of(state)
    if n != seq.n_qubits:
        raise ValueError(f"state has {n} qubits, sequence {seq.n_qubits}")
    before = np.linalg.norm(state)
    _run_gates(state, seq.gates, n, 1)
    if abs(np.linalg.norm(state) - before) > NORM_TOL * max(1.0, before):
        raise ArithmeticError("norm drifted during gate application")
    return state


def sequence_unitary(seq: GateSequence) -> np.ndarray:
    """Dense product of the sequence's gate matrices in application order."""
    n = seq.n_qubits
    check_dense_cap(n)
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    return _run_gates(u, seq.gates, n, dim)  # row index evolves, columns batch


def plain_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-entry |u - v|, global phase included: what ``zzkit verify`` decides by."""
    return float(np.max(np.abs(u - v)))


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """max-entry |u - exp(i*phi) v| at the phase phi = arg tr(v^dagger u).

    That phase minimizes the Frobenius distance, so the value is an upper
    bound on the minimum over phi of the max-entry distance.  Zero exactly
    when the matrices agree up to a global phase.  A near-match has |tr|
    close to the size N; |tr| <= 1e-9 * N is taken as zero and phi as 0,
    so a trace zero in exact arithmetic does not let roundoff set phi.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"incompatible shapes {u.shape} and {v.shape}")
    tr = np.vdot(v, u)  # tr(v^dagger u) without forming the product
    phase = tr / abs(tr) if abs(tr) > 1e-9 * u.shape[0] else 1.0
    return float(np.max(np.abs(u - phase * v)))


def exponential_of_zpoly(zp) -> np.ndarray:
    """diag(exp(-i*theta_x)) of a ``diagonal.ZPolynomial`` by direct evaluation
    of the z-product diagonals.

    Independent of both the Walsh butterfly and the gate pipeline, so it can
    referee either one.
    """
    n = zp.n_qubits
    dim = 2**n
    theta = np.full(dim, float(zp.constant))
    xs = np.arange(dim)
    for subset, a in zp.coeffs.items():
        signs = np.ones(dim)
        for q in subset:
            signs *= 1.0 - 2.0 * ((xs >> (n - q)) & 1)
        theta += (0.5 * a) * signs
    return np.diag(np.exp(-1j * theta))


def u2_from_params(p) -> np.ndarray:
    """The 2x2 matrix T * exp(-i*(phi0 + phi1*Iz)) * T^dagger, T =
    exp(-i*alpha*Iz) * exp(-i*beta*Iy), of a ``compilers.U2Params``: the
    dense rebuild that `compilers.decompose_u2` is checked against."""
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


def diagonal_unitary(pv) -> np.ndarray:
    """diag(exp(-i*theta_x)) of a ``gates.PhaseVector``."""
    check_dense_cap(pv.n_qubits)
    return np.diag(np.exp(-1j * np.asarray(pv.phases, dtype=float)))


def oracle_unitary(tt) -> np.ndarray:
    """diag((-1)**f(x)) of a ``gates.TruthTable``, entries exactly +-1."""
    check_dense_cap(tt.n_inputs)
    return np.diag(np.where(np.asarray(tt.values) == 1, -1.0 + 0.0j, 1.0 + 0.0j))


def universal_gate_matrix(u, n: int) -> np.ndarray:
    """Dense n-qubit gate: identity except the 2x2 block on the last qubit
    conditioned on all other qubits being 1."""
    if n < 1:
        raise ValueError("need at least one qubit")
    m = as_u2(u)
    check_dense_cap(n)
    out = np.eye(2**n, dtype=complex)
    out[-2:, -2:] = m
    return out


def hadamard_unitary(n: int) -> np.ndarray:
    """The n-fold Kronecker power of the one-qubit Hadamard matrix."""
    if n < 1:
        raise ValueError("need at least one qubit")
    check_dense_cap(n)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    h = np.array([[1.0]])
    for _ in range(n):
        h = np.kron(h, h1)
    return h.astype(complex)


def grover_unitary(n: int, marked: int) -> np.ndarray:
    """Inversion about the mean after the oracle: (2/N)J - I, column marked negated."""
    if n < 1:
        raise ValueError("need at least one qubit")
    check_dense_cap(n)
    if not 0 <= marked < 2**n:
        raise ValueError(f"basis index {marked} outside 0..{2**n - 1}")
    dim = 2**n
    g = np.full((dim, dim), 2.0 / dim, dtype=complex)
    np.fill_diagonal(g, 2.0 / dim - 1.0)
    g[:, marked] *= -1.0
    return g


def target_unitary(target) -> np.ndarray:
    """The dense target of a ``zzkit verify`` target description:
    ("phases", pv), ("truth-table", tt), ("cu", u, n), ("grover", n, marked)
    or ("walsh", n)."""
    kind, *args = target
    build = {"phases": diagonal_unitary, "truth-table": oracle_unitary,
             "cu": universal_gate_matrix, "grover": grover_unitary, "walsh": hadamard_unitary}
    return build[kind](*args)
