"""Pulse-level realization planners for ZZ gates on coupled spin systems.

A schedule is a run of free-evolution segments under the always-on weak
coupling Hamiltonian sum_k W_k I_kz + sum_{k<l} pi J_kl 2 I_kz I_lz.
Ideal 180-degree pulses between segments flip the sign of the pulsed spins'
z operators in the toggling frame, so each segment carries a +-1 sign per
spin.  Every toggled term is a z product and all of them commute, which
makes the integrated (average) Hamiltonian of a schedule exact rather than
a lowest-order approximation.

A `PulseSchedule` is one (segments, spins) int8 sign matrix plus one
duration vector.  Planning, checking and averaging work on those two
arrays.  A planned schedule on n spins has fewer than 2n segments, so the
readers (`PulseSchedule.segments`, `pulse_events` and `format_schedule`)
walk the rows one at a time.  Durations must be positive and finite, with
a finite sum: NaN and infinite durations, a NaN or infinite tau, and a
total past the float range are refused.

Rows of a Sylvester Hadamard matrix select a single pair coupling (Leung,
Chuang, Yamaguchi & Yamamoto, PRA 61, 042310 (2000); Jones & Knill, JMR
141, 322 (1999)): the target pair and every spin coupled to neither of them
share one row, each internally-uncoupled group of the other spins takes a
row of its own, and each spin's signs over the segments follow its row.
For g groups that is N segments, N the smallest power of two >= g + 2, in
place of the 2 * 4**g of nested echoes; the total duration and the average
Hamiltonian are the nested echoes' to the last bit.  Two more planners
cover hardware without a direct coupling: a relay that walks a ZZ
generator along a coupling path, and the laser-phase solver for the
six-pulse trapped-ion realization of a ZZ gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagonal import ZPolynomial
from .gates import DROP_TOL, GateSequence, exact_int, json_float, json_int, load_json, rx, ry, zz

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


@dataclass
class CouplingGraph:
    """Chemical shifts (rad/s) and scalar couplings (Hz) of an N-spin system.

    Every shift and coupling must be finite.
    """

    n_spins: int
    shifts: np.ndarray
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_spins < 1:
            raise ValueError("need at least one spin")
        self.shifts = np.asarray(self.shifts, dtype=float).copy()
        if self.shifts.shape != (self.n_spins,):
            raise ValueError(f"expected {self.n_spins} shifts")
        for spin, shift in enumerate(self.shifts, 1):
            if not math.isfinite(shift):
                raise ValueError(f"shift of spin {spin} must be finite, got {float(shift)}")
        canonical: dict[tuple[int, int], float] = {}
        for (i, j), val in self.couplings.items():
            i, j, val = exact_int(i), exact_int(j), float(val)
            if i == j:
                raise ValueError(f"self-coupling on spin {i}")
            if not (1 <= i <= self.n_spins and 1 <= j <= self.n_spins):
                raise ValueError(f"coupling ({i},{j}) outside 1..{self.n_spins}")
            if not math.isfinite(val):
                raise ValueError(f"coupling ({i},{j}) must be finite, got {val}")
            key = (min(i, j), max(i, j))
            if key in canonical and canonical[key] != val:
                raise ValueError(f"conflicting values for coupling {key}")
            canonical[key] = val
        self.couplings = canonical

    def coupling(self, i: int, j: int) -> float:
        return self.couplings.get((min(i, j), max(i, j)), 0.0)

    def coupled(self, i: int, j: int) -> bool:
        return self.coupling(i, j) != 0.0


class PulseSchedule:
    """Timed segments with per-spin toggling-frame signs.

    ``durations`` holds one positive, finite duration per segment and
    ``signs`` one row of +-1 per segment (int8, shape (segments, spins));
    both arrays are read-only.  A sign change of spin i between consecutive
    rows encodes an ideal 180-degree pulse on i at that boundary; spins still
    at -1 after the last segment receive a closing pulse, so every spin sees
    an even pulse count and the frame ends where it started.

    ``PulseSchedule(segments)`` takes a list of (duration, signs) pairs;
    `from_arrays` takes the duration vector and the sign matrix.
    """

    def __init__(self, segments) -> None:
        if not segments:
            raise ValueError("schedule needs at least one segment")
        if len({len(signs) for _, signs in segments}) != 1:
            raise ValueError("inconsistent sign-vector lengths")
        self._store([d for d, _ in segments], [signs for _, signs in segments])

    @classmethod
    def from_arrays(cls, durations, signs) -> PulseSchedule:
        sched = cls.__new__(cls)
        sched._store(durations, signs)
        return sched

    def _store(self, durations, signs) -> None:
        durations = np.array(durations, dtype=float)
        signs = np.asarray(signs)
        if durations.ndim != 1 or signs.ndim != 2 or len(signs) != len(durations):
            raise ValueError("need one sign row per segment duration")
        if not len(durations):
            raise ValueError("schedule needs at least one segment")
        if not np.all(np.isfinite(durations)):
            raise ValueError("segment durations must be finite")
        if not np.all(durations > 0.0):
            raise ValueError("segment durations must be positive")
        try:  # fsum of finite values raises rather than return inf
            self._total_duration = math.fsum(durations.tolist())
        except OverflowError:
            raise ValueError("total duration must be finite") from None
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +-1")
        if np.any(signs[0] != 1):
            raise ValueError("a schedule starts in the untoggled frame")
        self.durations = durations
        self.signs = signs.astype(np.int8)
        self.durations.flags.writeable = False
        self.signs.flags.writeable = False

    @property
    def n_spins(self) -> int:
        return self.signs.shape[1]

    @property
    def segments(self) -> list[tuple[float, tuple[int, ...]]]:
        """(duration, signs) pairs, built from the arrays on access."""
        return list(zip(self.durations.tolist(), map(tuple, self.signs.tolist())))

    @property
    def total_duration(self) -> float:
        return self._total_duration

    def pulse_events(self) -> list[tuple[int, tuple[int, ...]]]:
        """(segment index, pulsed spins) pairs; a pulse at index i fires after
        segment i.  Includes the closing pulses after the final segment."""
        s = self.signs
        flips = np.concatenate([s[:-1] != s[1:], s[-1:] != 1])
        return [
            (i, tuple(spin for spin, flip in enumerate(row, 1) if flip))
            for i, row in enumerate(flips.tolist())
            if any(row)
        ]


def group_spins(g: CouplingGraph, k: int, l: int) -> tuple[list[int], list[list[int]]]:
    """Partition the spins other than k, l into refocusing classes.

    Returns (passive, groups): ``passive`` spins couple to neither k nor l
    and not to each other, so they can be pulsed together with the target
    pair; the rest are packed greedily (ascending index) into
    internally-uncoupled groups, one Hadamard row (one nesting level of a
    nested echo) each.
    """
    if k == l:
        raise ValueError("need two distinct spins")
    for s in (k, l):
        if not 1 <= s <= g.n_spins:
            raise ValueError(f"spin {s} outside 1..{g.n_spins}")
    if not g.coupled(k, l):
        raise ValueError(f"spins {k} and {l} are not coupled")
    passive: list[int] = []
    rest: list[int] = []
    for s in range(1, g.n_spins + 1):
        if s in (k, l):
            continue
        if g.coupled(s, k) or g.coupled(s, l) or any(g.coupled(s, p) for p in passive):
            rest.append(s)
        else:
            passive.append(s)
    groups: list[list[int]] = []
    for s in rest:
        for grp in groups:
            if not any(g.coupled(s, m) for m in grp):
                grp.append(s)
                break
        else:
            groups.append([s])
    return passive, groups


def build_refocus_schedule(g: CouplingGraph, k: int, l: int, tau: float) -> PulseSchedule:
    """Hadamard-row schedule whose average Hamiltonian keeps only the (k, l)
    ZZ term.

    With the spins partitioned by `group_spins`, k, l and the passive spins
    take row 1 of a Sylvester Hadamard matrix of order N, the smallest power
    of two >= len(groups) + 2, and group r (0-based) takes row r + 2.  In
    segment j spin s has sign (-1)**popcount(row_s & gray(j)), with
    gray(j) = j ^ (j >> 1).  Every row used is nonzero, so each shift
    cancels; two different rows are orthogonal, so each coupling between
    classes cancels; k and l share a row, so 2 I_kz I_lz keeps full
    strength.  In Gray order each boundary pulses one row-bit class.

    A schedule over g groups lasts 4**g * tau (the 4**(levels-1) * tau law
    of nested echoes, levels = g + 1), split into N equal segments of
    (tau/2) * 2**(2g+1) / N, so the surviving coefficient is
    pi * J_kl * total duration.
    """
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    passive, groups = group_spins(g, k, l)
    rows = np.ones(g.n_spins, dtype=np.int64)  # k, l and the passive spins
    for row, grp in enumerate(groups, 2):
        rows[[s - 1 for s in grp]] = row
    order_bits = (len(groups) + 1).bit_length()  # N = 2**order_bits
    try:  # an exact power-of-two scaling of the nested echoes' tau/2 segments
        duration = math.ldexp(0.5 * tau, 2 * len(groups) + 1 - order_bits)
    except OverflowError:
        raise ValueError("total duration must be finite") from None
    # gray(j) differs from gray(j - 1) in the lowest set bit of j
    j = np.arange(1 << order_bits)
    flips = np.where(rows & (j & -j)[:, None], -1, 1).astype(np.int8)
    signs = np.cumprod(flips, axis=0, dtype=np.int8)
    return PulseSchedule.from_arrays(np.full(len(signs), duration), signs)


def average_hamiltonian(sched: PulseSchedule, g: CouplingGraph) -> ZPolynomial:
    """Integrated toggling-frame Hamiltonian of a schedule, in radians.

    Exact because every toggled term commutes.  Each term is one `math.fsum`
    of d * s_i (a shift) or d * s_i * s_j (a coupling) over the segments:
    every product is exact because the signs are +-1, and fsum rounds the
    exact sum once, so cancellations mandated by the schedule structure
    come out as exact zeros.
    """
    n = g.n_spins
    if sched.n_spins != n:
        raise ValueError(f"schedule has {sched.n_spins} spins, graph {n}")
    durations = sched.durations.tolist()
    signs = sched.signs.T.tolist()  # one row of +-1 per spin
    coeffs: dict[tuple[int, ...], float] = {}
    for i in range(n):
        net = math.fsum(d * s for d, s in zip(durations, signs[i]))
        val = float(g.shifts[i]) * net
        if abs(val) >= DROP_TOL:
            coeffs[(i + 1,)] = val
    for (i, j), coupling in g.couplings.items():
        net = math.fsum(d * a * b for d, a, b in zip(durations, signs[i - 1], signs[j - 1]))
        val = math.pi * coupling * net
        if abs(val) >= DROP_TOL:
            coeffs[(i, j)] = val
    return ZPolynomial(n, 0.0, coeffs)


def relay_sequence(g: CouplingGraph, path: list[int]) -> GateSequence:
    """Basis-change chain that walks a ZZ generator along a coupling path.

    For a path k, r, ..., t, m each hop conjugates by an xx then a yy
    two-spin propagator on the hop pair (realized as RY/RX basis changes
    around a ZZ gate), so conjugating 2 I_kz I_mz by the emitted sequence
    yields 2 I_tz I_mz, the generator available from the direct t-m coupling.
    """
    path = [exact_int(s) for s in path]
    if len(path) < 2:
        raise ValueError("path needs at least the two endpoints")
    if len(set(path)) != len(path):
        raise ValueError("path revisits a spin")
    for s in path:
        if not 1 <= s <= g.n_spins:
            raise ValueError(f"spin {s} outside 1..{g.n_spins}")
    for a, b in zip(path, path[1:]):
        if not g.coupled(a, b):
            raise ValueError(f"path break: spins {a} and {b} are not coupled")
    seq = GateSequence(g.n_spins)
    if len(path) == 2:
        return seq  # direct coupling, nothing to relay
    if g.coupled(path[0], path[-1]):
        raise ValueError("endpoints are directly coupled; no relay needed")
    for a, b in zip(path[:-2], path[1:-1]):
        seq.extend(
            [
                # exp(-i * pi * I_ax I_bx): ZZ conjugated into the x basis
                ry(a, -_HALF_PI),
                ry(b, -_HALF_PI),
                zz(a, b, _HALF_PI),
                ry(a, _HALF_PI),
                ry(b, _HALF_PI),
                # exp(-i * pi * I_ay I_by): ZZ conjugated into the y basis
                rx(a, _HALF_PI),
                rx(b, _HALF_PI),
                zz(a, b, _HALF_PI),
                rx(a, -_HALF_PI),
                rx(b, -_HALF_PI),
            ]
        )
    return seq


def _wrap(x: float) -> float:
    """Reduce to (-pi, pi] by an exact multiple of 2*pi (IEEE remainder)."""
    r = math.remainder(x, _TWO_PI)
    if r <= -math.pi:
        r += _TWO_PI
    return r


def _mod_residual(lhs: float, rhs: float) -> float:
    """Residual of lhs = rhs (mod 2*pi); exactly 0.0 when the congruence
    holds exactly over the float values (remainder introduces no rounding)."""
    return math.remainder(
        math.remainder(lhs, _TWO_PI) - math.remainder(rhs, _TWO_PI), _TWO_PI
    )


@dataclass(frozen=True)
class IonPulseParams:
    """Laser phases of the six-pulse trapped-ion ZZ gate.

    phi1, phi2 and theta1, theta2 address one ion, phi0 and phi3 the other.
    They are tied together mod 2*pi:

        phi0 - phi3   = pi + 2 * (phi1 - phi2)
        theta1 - theta2 = pi + 4 * (phi1 - phi2)
    """

    phi0: float
    phi1: float
    phi2: float
    phi3: float
    theta1: float
    theta2: float

    def constraint_residuals(self) -> tuple[float, float]:
        delta = self.phi1 - self.phi2
        return (
            _mod_residual(self.phi0 - self.phi3, math.pi + 2.0 * delta),
            _mod_residual(self.theta1 - self.theta2, math.pi + 4.0 * delta),
        )

    def __post_init__(self) -> None:
        residuals = self.constraint_residuals()
        if not all(abs(r) <= 1e-9 for r in residuals):
            raise ValueError(f"laser-phase constraints violated: residuals {residuals}")


def ion_pulse_params(lam: float, phi2: float = 0.0) -> IonPulseParams:
    """Solve the laser phases realizing a ZZ gate of angle lam.

    The gate angle fixes phi1 - phi2 = pi - lam/2; the two constraint
    relations then pin phi0 - phi3 and theta1 - theta2.  The free members
    phi2 (caller's choice), theta2 and phi3 are taken as given or 0, and all
    outputs are reduced to (-pi, pi].
    """
    for name, angle in (("lam", lam), ("phi2", phi2)):
        if not math.isfinite(angle):
            raise ValueError(f"angle must be finite, got {name} = {angle!r}")
    phi2 = _wrap(phi2)
    phi1 = _wrap(phi2 + (math.pi - 0.5 * lam))
    delta = phi1 - phi2  # the stored difference feeds both constraints
    phi3 = 0.0
    theta2 = 0.0
    phi0 = _wrap(phi3 + (math.pi + 2.0 * delta))
    theta1 = _wrap(theta2 + (math.pi + 4.0 * delta))
    return IonPulseParams(phi0, phi1, phi2, phi3, theta1, theta2)


def format_schedule(sched: PulseSchedule) -> str:
    """Line format: a SPINS header, then one SEGMENT line per segment, each
    followed by a PULSE180 line naming the spins pulsed after it, if any."""
    pulses = dict(sched.pulse_events())
    lines = [f"SPINS {sched.n_spins}"]
    for i, d in enumerate(sched.durations.tolist()):
        lines.append(f"SEGMENT {d:.17g}")
        if i in pulses:
            lines.append("PULSE180 " + " ".join(map(str, pulses[i])))
    return "\n".join([*lines, ""])


def write_schedule(sched: PulseSchedule, path) -> None:
    Path(path).write_text(format_schedule(sched))


def load_coupling_graph(path) -> CouplingGraph:
    """Read a graph file, ``{"n": int, "shifts": [number, ...], "couplings":
    [{"i": int, "j": int, "J": number}, ...]}``, under the rule of
    `zzkit.gates.load_json`: a malformed document raises ParseError, a value
    the graph refuses (a non-finite shift or coupling, a spin outside the
    register) the graph's ValueError."""
    return CouplingGraph(*load_json(path, "coupling-graph", lambda doc: (
        json_int(doc["n"]),
        [json_float(x) for x in doc["shifts"]],
        {
            (json_int(c["i"]), json_int(c["j"])): json_float(c["J"])
            for c in doc.get("couplings", [])
        },
    )))
