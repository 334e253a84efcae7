"""Target gate set and gate-sequence containers.

Gate semantics, with I = sigma/2 and all angles in radians:

    RX/RY/RZ(k, theta)  ->  exp(-i * theta * I_k,axis)
    ZZ(k, l, lam)       ->  exp(-i * lam * 2 * I_kz * I_lz)
    PHASE(phi)          ->  exp(-i * phi) * identity

Qubit indices are 1-based; qubit 1 is the most significant bit of a
computational basis index.  ``GateSequence.gates[0]`` acts first on the
state.  Stored angles are reduced to (-2*pi, 2*pi], which never changes
the matrix a gate denotes (every generator above has period 4*pi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

ONE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ"})
GATE_KINDS = ONE_QUBIT_KINDS | {"ZZ", "PHASE"}
#: Coefficients with magnitude below this are dropped after every operation.
DROP_TOL = 1e-12
#: Largest entry of |u^dagger u - I| for a 2x2 matrix taken as unitary.
UNITARY_TOL = 1e-9
#: The most qubits ``zzkit verify`` takes: the dense referee's 2**n x 2**n cap.
MAX_UNITARY_QUBITS = 12
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


@dataclass(frozen=True)
class Gate:
    """One element of the target gate set."""

    kind: str
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 0 if self.kind == "PHASE" else (2 if self.kind == "ZZ" else 1)
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if any(q < 1 for q in self.qubits):
            raise ValueError(f"qubit indices are 1-based, got {self.qubits}")
        if self.kind == "ZZ" and self.qubits[0] == self.qubits[1]:
            raise ValueError("ZZ needs two distinct qubits")
        object.__setattr__(self, "angle", normalize_angle(self.angle))

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
    a, b = sorted((k, l))
    return Gate("ZZ", (a, b), lam)


def gphase(phi: float) -> Gate:
    return Gate("PHASE", (), phi)


@dataclass
class GateSequence:
    """An ordered gate list on a fixed register; gates[0] is applied first."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.gates = list(self.gates)
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate) -> None:
        if any(q > self.n_qubits for q in gate.qubits):
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
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0].upper()
        try:
            if kind == "PHASE" and len(parts) == 2:
                seq.append(gphase(float(parts[1])))
            elif kind == "ZZ" and len(parts) == 4:
                seq.append(zz(int(parts[1]), int(parts[2]), float(parts[3])))
            elif kind in ONE_QUBIT_KINDS and len(parts) == 3:
                seq.append(Gate(kind, (int(parts[1]),), float(parts[2])))
            else:
                raise ParseError(f"bad gate line: {ln!r}")
        except ValueError as exc:
            raise ParseError(f"bad gate line: {ln!r}") from exc
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
