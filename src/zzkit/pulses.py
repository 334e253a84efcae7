"""Pulse-level realization planners for ZZ gates on coupled spin systems.

A schedule is a list of free-evolution segments under the always-on weak
coupling Hamiltonian sum_k W_k I_kz + sum_{k<l} pi J_kl 2 I_kz I_lz.
Ideal 180-degree pulses between segments flip the sign of the pulsed spins'
z operators in the toggling frame, so each segment carries a +-1 sign per
spin.  Every toggled term is a z product and all of them commute, which
makes the integrated (average) Hamiltonian of a schedule exact rather than
a lowest-order approximation.

Nested echoes select a single pair coupling: the innermost echo pulses the
target pair (plus every spin coupled to neither of them), and each further
nesting level wraps four copies of the previous schedule around pulses on
one internally-uncoupled spin group.  Two more planners cover hardware
without a direct coupling: a relay that walks a ZZ generator along a
coupling path, and the laser-phase solver for the six-pulse trapped-ion
realization of a ZZ gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagonal import ZPolynomial
from .gates import GateSequence, ParseError, load_json, rx, ry, zz
from .pauli import DROP_TOL

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


@dataclass
class CouplingGraph:
    """Chemical shifts (rad/s) and scalar couplings (Hz) of an N-spin system."""

    n_spins: int
    shifts: np.ndarray
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_spins < 1:
            raise ValueError("need at least one spin")
        self.shifts = np.asarray(self.shifts, dtype=float).copy()
        if self.shifts.shape != (self.n_spins,):
            raise ValueError(f"expected {self.n_spins} shifts")
        canonical: dict[tuple[int, int], float] = {}
        for (i, j), val in self.couplings.items():
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-coupling on spin {i}")
            if not (1 <= i <= self.n_spins and 1 <= j <= self.n_spins):
                raise ValueError(f"coupling ({i},{j}) outside 1..{self.n_spins}")
            key = (min(i, j), max(i, j))
            if key in canonical and canonical[key] != float(val):
                raise ValueError(f"conflicting values for coupling {key}")
            canonical[key] = float(val)
        self.couplings = canonical

    def coupling(self, i: int, j: int) -> float:
        return self.couplings.get((min(i, j), max(i, j)), 0.0)

    def coupled(self, i: int, j: int) -> bool:
        return self.coupling(i, j) != 0.0


@dataclass
class PulseSchedule:
    """Timed segments with per-spin toggling-frame signs.

    A sign change of spin i between consecutive segments encodes an ideal
    180-degree pulse on i at that boundary; spins still at -1 after the last
    segment receive a closing pulse, so every spin sees an even pulse count
    and the frame ends where it started.
    """

    segments: list[tuple[float, tuple[int, ...]]]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        self.segments = [(float(d), tuple(int(s) for s in signs)) for d, signs in self.segments]
        n = len(self.segments[0][1])
        for dur, signs in self.segments:
            if dur <= 0.0:
                raise ValueError("segment durations must be positive")
            if len(signs) != n:
                raise ValueError("inconsistent sign-vector lengths")
            if any(s not in (-1, 1) for s in signs):
                raise ValueError("signs must be +-1")
        if any(s != 1 for s in self.segments[0][1]):
            raise ValueError("a schedule starts in the untoggled frame")

    @property
    def n_spins(self) -> int:
        return len(self.segments[0][1])

    @property
    def total_duration(self) -> float:
        return math.fsum(d for d, _ in self.segments)

    def pulse_events(self) -> list[tuple[int, tuple[int, ...]]]:
        """(segment index, pulsed spins) pairs; a pulse at index i fires after
        segment i.  Includes the closing pulses after the final segment."""
        events = []
        for i in range(len(self.segments) - 1):
            _, cur = self.segments[i]
            _, nxt = self.segments[i + 1]
            flipped = tuple(s + 1 for s in range(self.n_spins) if cur[s] != nxt[s])
            if flipped:
                events.append((i, flipped))
        _, last = self.segments[-1]
        closing = tuple(s + 1 for s in range(self.n_spins) if last[s] != 1)
        if closing:
            events.append((len(self.segments) - 1, closing))
        return events


def group_spins(g: CouplingGraph, k: int, l: int) -> tuple[list[int], list[list[int]]]:
    """Partition the spins other than k, l for the nested echo construction.

    Returns (passive, groups): ``passive`` spins couple to neither k nor l
    and not to each other, so they can be pulsed together with the target
    pair inside the innermost echo; the rest are packed greedily (ascending
    index) into internally-uncoupled groups, one nesting level each.
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
    """Nested spin-echo schedule whose average Hamiltonian keeps only the
    (k, l) ZZ term.

    The innermost echo is two tau/2 segments with simultaneous pulses on k, l
    and the passive group, cancelling the pulsed spins' shifts and all their
    couplings to unpulsed spins while preserving 2 I_kz I_lz.  Each further
    group adds one nesting level built from four copies of the previous
    schedule with the group toggled during the middle two, so a level-n
    schedule lasts 4**(n-1) * tau and the surviving coefficient is
    pi * J_kl * total duration.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    passive, groups = group_spins(g, k, l)
    n = g.n_spins
    pulsed = set(passive) | {k, l}
    inner = tuple(-1 if s + 1 in pulsed else 1 for s in range(n))
    segments = [(0.5 * tau, (1,) * n), (0.5 * tau, inner)]
    for grp in groups:
        toggled = [
            (d, tuple(-s if i + 1 in grp else s for i, s in enumerate(signs)))
            for d, signs in segments
        ]
        segments = segments + toggled + toggled + segments
    return PulseSchedule(segments)


def average_hamiltonian(sched: PulseSchedule, g: CouplingGraph) -> ZPolynomial:
    """Integrated toggling-frame Hamiltonian of a schedule, in radians.

    Exact because every toggled term commutes.  Segments sharing a duration
    are accumulated with integer sign sums, so cancellations mandated by the
    schedule structure come out as exact zeros.
    """
    n = g.n_spins
    if sched.n_spins != n:
        raise ValueError(f"schedule has {sched.n_spins} spins, graph {n}")
    by_duration: dict[float, list[tuple[int, ...]]] = {}
    for dur, signs in sched.segments:
        by_duration.setdefault(dur, []).append(signs)
    single_parts: dict[int, list[float]] = {i: [] for i in range(n)}
    pair_parts: dict[tuple[int, int], list[float]] = {}
    for dur, sign_rows in by_duration.items():
        mat = np.asarray(sign_rows, dtype=np.int64)
        net = mat.sum(axis=0)
        gram = mat.T @ mat
        for i in range(n):
            single_parts[i].append(dur * int(net[i]))
        for (i, j) in g.couplings:
            pair_parts.setdefault((i, j), []).append(dur * int(gram[i - 1, j - 1]))
    coeffs: dict[tuple[int, ...], float] = {}
    for i in range(n):
        val = g.shifts[i] * math.fsum(single_parts[i])
        if abs(val) >= DROP_TOL:
            coeffs[(i + 1,)] = val
    for (i, j), parts in pair_parts.items():
        val = math.pi * g.couplings[(i, j)] * math.fsum(parts)
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
    path = [int(s) for s in path]
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
        if any(abs(r) > 1e-9 for r in residuals):
            raise ValueError(f"laser-phase constraints violated: residuals {residuals}")


def ion_pulse_params(lam: float, phi2: float = 0.0) -> IonPulseParams:
    """Solve the laser phases realizing a ZZ gate of angle lam.

    The gate angle fixes phi1 - phi2 = pi - lam/2; the two constraint
    relations then pin phi0 - phi3 and theta1 - theta2.  The free members
    phi2 (caller's choice), theta2 and phi3 are taken as given or 0, and all
    outputs are reduced to (-pi, pi].
    """
    phi2 = _wrap(phi2)
    phi1 = _wrap(phi2 + (math.pi - 0.5 * lam))
    delta = phi1 - phi2  # the stored difference feeds both constraints
    phi3 = 0.0
    theta2 = 0.0
    phi0 = _wrap(phi3 + (math.pi + 2.0 * delta))
    theta1 = _wrap(theta2 + (math.pi + 4.0 * delta))
    return IonPulseParams(phi0, phi1, phi2, phi3, theta1, theta2)


def format_schedule(sched: PulseSchedule) -> str:
    """Line format: a SPINS header, then alternating SEGMENT/PULSE180 lines."""
    lines = [f"SPINS {sched.n_spins}"]
    events = dict(sched.pulse_events())
    for i, (dur, _) in enumerate(sched.segments):
        lines.append(f"SEGMENT {dur:.17g}")
        if i in events:
            lines.append("PULSE180 " + " ".join(str(s) for s in events[i]))
    return "\n".join(lines) + "\n"


def write_schedule(sched: PulseSchedule, path) -> None:
    Path(path).write_text(format_schedule(sched))


def load_coupling_graph(path) -> CouplingGraph:
    doc = load_json(path)
    try:
        couplings = {
            (int(c["i"]), int(c["j"])): float(c["J"]) for c in doc.get("couplings", [])
        }
        return CouplingGraph(int(doc["n"]), doc["shifts"], couplings)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad coupling-graph file {path}: {exc}") from exc


def save_coupling_graph(g: CouplingGraph, path) -> None:
    doc = {
        "n": g.n_spins,
        "shifts": [float(x) for x in g.shifts],
        "couplings": [
            {"i": i, "j": j, "J": val} for (i, j), val in sorted(g.couplings.items())
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")
