"""Target gate set, gate-sequence containers, and the records and readers
of the compile sources.

Gate semantics, with I = sigma/2 and all angles in radians:

    RX/RY/RZ(k, theta)  ->  exp(-i * theta * I_k,axis)
    ZZ(k, l, lam)       ->  exp(-i * lam * 2 * I_kz * I_lz)
    PHASE(phi)          ->  exp(-i * phi) * identity

Qubit indices are 1-based; qubit 1 is the most significant bit of a
computational basis index.  ``GateSequence.gates[0]`` acts first on the
state.  Stored angles are reduced to (-2*pi, 2*pi], which never changes
the matrix a gate denotes (every generator above has period 4*pi).

Records follow one rule.  An immutable value record (`Gate`, `GateCounts`,
`compilers.U2Params`) is a ``NamedTuple``, so it equals, hashes like and
unpacks as the plain tuple of its fields; `Gate` runs its checks in
``__new__``.  A record that normalizes or mutates its state
(`GateSequence`, `PhaseVector`, `TruthTable`, `diagonal.ZPolynomial`) is a
plain ``__slots__`` class whose ``__init__`` checks its fields, with the
field-by-field ``__eq__`` and ``__repr__`` of `_Record`.  No record is a
dataclass, so no CLI process imports ``dataclasses`` (and with it
``inspect``, ``ast`` and ``dis``).

`zzkit verify` reads its target from here (`load_phase_vector`,
`load_truth_table`, `load_u2_matrix`), so it loads neither `zzkit.diagonal`
nor `zzkit.compilers`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

ONE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ"})
_ARITY = {"RX": 1, "RY": 1, "RZ": 1, "ZZ": 2, "PHASE": 0}
GATE_KINDS = frozenset(_ARITY)
#: Coefficients with magnitude below this are dropped after every operation.
DROP_TOL = 1e-12
#: Largest entry of |u^dagger u - I| for a 2x2 matrix taken as unitary.
UNITARY_TOL = 1e-9
#: The most qubits ``zzkit verify`` takes: the dense referee's 2**n x 2**n cap.
MAX_UNITARY_QUBITS = 12
# A dense diagonal on n qubits lowers to 2^n - 2 ZZ gates; a Grover compile,
# run as `python -m zzkit.cli compile`, peaks at 48, 67 and 100 MB RSS at 14,
# 15 and 16 qubits (x86-64, Python 3.11, numpy 2.4).
MAX_COMPILE_QUBITS = 16
Matrix2x2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


class ParseError(ValueError):
    """Raised for malformed text or JSON inputs."""


def load_json(path, what: str, fields):
    """Read a JSON input file and return ``fields(doc)``: the one rule every
    input file follows.

    A malformed document raises ParseError (exit 2): text that is not UTF-8
    JSON (or holds an integer past Python's digit limit), or a ``fields``
    that fails with KeyError, TypeError or ValueError on a missing field or
    a field of the wrong JSON type (see `json_int`, `json_float`).  The
    caller builds its object from the returned fields outside this call, so
    a value the object refuses raises the object's own ValueError (exit 3).
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return fields(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what} file {path}: {exc}") from exc


def json_int(value) -> int:
    """A JSON integer field; a float, a bool or a string raises ParseError
    rather than being truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}")
    return value


def exact_int(value) -> int:
    """int(value), or ValueError when that would change the value, so an
    index such as 1.5 is refused rather than truncated to 1."""
    try:
        i = int(value)
    except OverflowError:  # an infinite float
        raise ValueError(f"expected an integer, got {value!r}") from None
    if i != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return i


def json_float(value) -> float:
    """A JSON number field; a bool, a string or anything else raises
    ParseError rather than being converted.  A NaN passes, for the caller's
    constructor to refuse."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ParseError("integer too large for a float") from None


def is_two_to_the(length: int, n: int) -> bool:
    """length == 2**n, decided without forming 2**n when n is far past
    log2(length), so an untrusted n of any size costs nothing."""
    return length.bit_length() == n + 1 and length == 1 << n


def power_of_two_text(n: int, minus: int = 0) -> str:
    """2**n - minus for a message: its digits up to n = 64, past that the
    expression naming n, so no huge int is formed or converted."""
    if n <= 64:
        return str((1 << n) - minus)
    return f"2**{n} - {minus}" if minus else f"2**{n}"


def check_dense_cap(n: int) -> None:
    """Refuse n qubits past the dense cap, before 2**n x 2**n is allocated."""
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_UNITARY_QUBITS}")


def check_compile_cap(n: int) -> None:
    """Refuse n qubits past the compile cap, before anything of size 2**n is built."""
    if n > MAX_COMPILE_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the compile cap of {MAX_COMPILE_QUBITS}: a dense "
            f"diagonal on {n} qubits lowers to {power_of_two_text(n, 2)} ZZ gates"
        )


def normalize_angle(theta: float) -> float:
    """Reduce an angle to (-2*pi, 2*pi] without changing the gate it denotes."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    r = math.remainder(theta, _FOUR_PI)  # IEEE remainder is exact; r in [-2pi, 2pi]
    if r <= -_TWO_PI:
        r += _FOUR_PI
    return r


def as_u2(u) -> Matrix2x2:
    """u (an array or nested rows) as a 2x2 tuple of Python complex; refuses
    any other shape, or a matrix with an entry of u^dagger u - I past
    UNITARY_TOL (a NaN entry included)."""
    shape = getattr(u, "shape", None)
    if shape is None:  # nested rows: the shape numpy would read
        shape, row = (), u
        while isinstance(row, (list, tuple)):
            shape, row = shape + (len(row),), row[0] if row else None
    if tuple(shape) != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {tuple(shape)}")
    (a, b), (c, d) = m = tuple(tuple(map(complex, row)) for row in u)
    ca, cb, cc, cd = (x.conjugate() for x in (a, b, c, d))
    # u^dagger u - I; its (2, 1) entry is the conjugate of its (1, 2) entry
    err = (ca * a + cc * c - 1, ca * b + cc * d, cb * b + cd * d - 1)
    if not all(abs(e) <= UNITARY_TOL for e in err):
        raise ValueError("matrix is not unitary")
    return m


class _Record:
    """The ``__eq__`` and ``__repr__`` a dataclass gives, over the fields
    named in a subclass's ``__slots__``, in that order; the subclass
    writes its own checking ``__init__``.  Like a dataclass with ``eq``, a
    record is unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    angle: float


class Gate(_GateFields):
    """One element of the target gate set: a checked (kind, qubits, angle)
    tuple whose angle is normalized, and whose fields cannot be set."""

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], angle: float) -> "Gate":
        arity = _ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {qubits}")
        if arity and min(qubits) < 1:
            raise ValueError(f"qubit indices are 1-based, got {qubits}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError("ZZ needs two distinct qubits")
        return tuple.__new__(cls, (kind, qubits, normalize_angle(angle)))

    @classmethod
    def _make(cls, iterable) -> "Gate":
        """Through the checks, so ``_replace`` checks as well."""
        return cls(*iterable)

    def inverse(self) -> "Gate":
        return Gate(self.kind, self.qubits, -self.angle)

    def __str__(self) -> str:
        fields = [self.kind, *map(str, self.qubits), f"{self.angle:.17g}"]
        return " ".join(fields)


def rx(qubit: int, theta: float) -> Gate:
    return Gate("RX", (qubit,), theta)


def ry(qubit: int, theta: float) -> Gate:
    return Gate("RY", (qubit,), theta)


def rz(qubit: int, theta: float) -> Gate:
    return Gate("RZ", (qubit,), theta)


def zz(k: int, l: int, lam: float) -> Gate:
    # ZZ is symmetric in its qubits; store them sorted for deterministic output.
    return Gate("ZZ", (k, l) if k <= l else (l, k), lam)


def gphase(phi: float) -> Gate:
    return Gate("PHASE", (), phi)


class GateSequence(_Record):
    """An ordered gate list on a fixed register; gates[0] is applied first."""

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()) -> None:
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits, self.gates = n_qubits, list(gates)
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate) -> None:
        if gate.qubits and max(gate.qubits) > self.n_qubits:
            raise ValueError(f"gate {gate} exceeds register of {self.n_qubits} qubit(s)")

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for g in gates:
            self.append(g)

    def inverse(self) -> "GateSequence":
        return GateSequence(self.n_qubits, [g.inverse() for g in reversed(self.gates)])

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __getitem__(self, i):
        return self.gates[i]


def format_sequence(seq: GateSequence) -> str:
    """Render a sequence in the line-oriented text format (17 significant digits)."""
    lines = [f"QUBITS {seq.n_qubits}"]
    lines.extend(str(g) for g in seq)
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> GateSequence:
    """Parse the text format.  The header is read once; each gate line is
    checked once, by `Gate` and against the register, and any refusal
    names the line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else [""]
    if header[0] != "QUBITS":
        raise ParseError("sequence file must start with a 'QUBITS <n>' line")
    try:
        _, field = header  # exactly 'QUBITS <n>', as a gate line has exactly its fields
        n = int(field)
    except ValueError as exc:
        raise ParseError(f"bad QUBITS header: {lines[0]!r}") from exc
    seq = GateSequence(n)
    gates = seq.gates
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0].upper()
        try:
            if kind == "PHASE" and len(parts) == 2:
                gate = gphase(float(parts[1]))
            elif kind == "ZZ" and len(parts) == 4:
                gate = zz(int(parts[1]), int(parts[2]), float(parts[3]))
            elif kind in ONE_QUBIT_KINDS and len(parts) == 3:
                gate = Gate(kind, (int(parts[1]),), float(parts[2]))
            else:
                raise ParseError(f"bad gate line: {ln!r}")
            if gate.qubits and gate.qubits[-1] > n:  # the largest: zz sorts its qubits
                raise ValueError(f"gate {gate} exceeds register of {n} qubit(s)")
        except ValueError as exc:
            raise ParseError(f"bad gate line: {ln!r}") from exc
        gates.append(gate)
    return seq


def write_sequence(seq: GateSequence, path) -> None:
    Path(path).write_text(format_sequence(seq), encoding="utf-8")


def read_sequence(path) -> GateSequence:
    """Read a sequence file; text that is not UTF-8 raises ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"sequence file {path} is not UTF-8: {exc}") from exc
    return parse_sequence(text)


class GateCounts(NamedTuple):
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


class PhaseVector(_Record):
    """2**n real phases theta_x defining U = diag(exp(-i*theta_x)).

    Basis index x runs with qubit 1 as the most significant bit.  Phases are
    plain reals, not classes mod 2*pi; normalize inputs first if minimal
    angles are wanted.
    """

    __slots__ = ("n_qubits", "phases")

    def __init__(self, n_qubits: int, phases) -> None:
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits, self.phases = n_qubits, tuple(map(float, phases))
        if not is_two_to_the(len(self.phases), n_qubits):
            raise ValueError(
                f"expected {power_of_two_text(n_qubits)} phases, got {(len(self.phases),)}"
            )
        if not all(map(math.isfinite, self.phases)):
            raise ValueError("phases must be finite")


class TruthTable(_Record):
    """A boolean function on n inputs as its 2**n output bits."""

    __slots__ = ("n_inputs", "values")

    def __init__(self, n_inputs: int, values) -> None:
        if n_inputs < 1:
            raise ValueError("need at least one input")
        values = tuple(values)
        if not is_two_to_the(len(values), n_inputs):
            raise ValueError(
                f"expected {power_of_two_text(n_inputs)} values, got {len(values)}"
            )
        if any(v not in (0, 1) for v in values):
            raise ValueError("truth table entries must be bits")
        self.n_inputs, self.values = n_inputs, tuple(int(v) for v in values)


def load_phase_vector(path) -> PhaseVector:
    """Read a phase-vector file, ``{"n": int, "phases": [number, ...]}``,
    under the rule of `load_json`: a malformed document raises ParseError,
    a value the vector refuses (a wrong length, a non-finite phase) the
    vector's ValueError."""
    return PhaseVector(*load_json(path, "phase-vector", lambda doc: (
        json_int(doc["n"]), [json_float(x) for x in doc["phases"]]
    )))


def load_truth_table(path) -> TruthTable:
    """Read a truth-table file, ``{"n": int, "values": [int, ...]}``, under
    the rule of `load_json`: a malformed document raises ParseError, a
    value the table refuses (a wrong length, an entry that is not a bit)
    the table's ValueError."""
    return TruthTable(*load_json(path, "truth-table", lambda doc: (
        json_int(doc["n"]), tuple(json_int(v) for v in doc["values"])
    )))


def _u2_fields(doc) -> Matrix2x2:
    parts = [[[json_float(x) for x in row] for row in doc[k]] for k in ("re", "im")]
    for part in parts:  # each part, so that neither completes the other
        shape = (len(part), *{len(row) for row in part})  # a ragged part lists each width
        if shape != (2, 2):
            raise ValueError(f"shape {shape}")
    return tuple(tuple(re + 1j * im for re, im in zip(*rows)) for rows in zip(*parts))


def load_u2_matrix(path) -> Matrix2x2:
    """Read a 2x2 matrix file, ``{"re": rows, "im": rows}``, under the rule
    of `load_json`, as a 2x2 tuple of Python complex: anything but a 2x2
    matrix of JSON numbers raises ParseError; a matrix that is not unitary
    is refused with ValueError where it is used."""
    return load_json(path, "2x2 matrix", _u2_fields)
