import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import dense_sequence, write_json
from zzkit.gates import ParseError
from zzkit.pauli import (
    DROP_TOL,
    PauliPolynomial,
    ProductOperator,
    conjugate_by_sequence,
    to_matrix,
)
from zzkit.pulses import (
    CouplingGraph,
    IonPulseParams,
    PulseSchedule,
    average_hamiltonian,
    build_refocus_schedule,
    format_schedule,
    group_spins,
    ion_pulse_params,
    load_coupling_graph,
    relay_sequence,
)


def chain(n, shifts=None, j=10.0):
    shifts = shifts if shifts is not None else [float(100 * (i + 1)) for i in range(n)]
    couplings = {(i, i + 1): j for i in range(1, n)}
    return CouplingGraph(n, shifts, couplings)


def random_graph(rng, n):
    shifts = rng.uniform(-500.0, 500.0, size=n)
    couplings = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.45:
                couplings[(i, j)] = float(rng.uniform(0.5, 50.0) * rng.choice([-1, 1]))
    return CouplingGraph(n, shifts, couplings)


class TestCouplingGraph:
    def test_symmetry_and_lookup(self):
        g = CouplingGraph(3, [0.0, 0.0, 0.0], {(2, 1): 5.0})
        assert g.coupling(1, 2) == 5.0
        assert g.coupling(2, 1) == 5.0
        assert not g.coupled(1, 3)

    def test_rejects_self_coupling(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [0.0, 0.0], {(1, 1): 3.0})

    @pytest.mark.parametrize("spin", [1.6, math.inf])
    def test_rejects_fractional_spin(self, spin):
        with pytest.raises(ValueError, match=f"expected an integer, got {spin}"):
            CouplingGraph(3, [0.0] * 3, {(spin, 2): 5.0})  # 1.6 is not coupling (1, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_shift(self, value):
        with pytest.raises(ValueError, match=f"shift of spin 2 must be finite, got {value}"):
            CouplingGraph(2, [0.0, value], {(1, 2): 3.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coupling(self, value):
        with pytest.raises(ValueError, match=rf"coupling \(2,1\) must be finite, got {value}"):
            CouplingGraph(2, [0.0, 0.0], {(2, 1): value})

    def test_file_roundtrip(self, tmp_path):
        g = chain(4)
        doc = {
            "n": 4,
            "shifts": [100.0, 200.0, 300.0, 400.0],
            "couplings": [{"i": 2, "j": 1, "J": 10.0}, {"i": 2, "j": 3, "J": 10.0},
                          {"i": 3, "j": 4, "J": 10.0}],
        }
        back = load_coupling_graph(write_json(tmp_path / "g.json", doc))
        assert back.n_spins == 4
        assert back.couplings == g.couplings
        assert np.array_equal(back.shifts, g.shifts)
        # the couplings list may be left out
        bare = load_coupling_graph(write_json(tmp_path / "bare.json", {"n": 1, "shifts": [5.0]}))
        assert bare.couplings == {} and bare.shifts.tolist() == [5.0]

    def test_bad_file(self, tmp_path):
        path = tmp_path / "g.json"
        pair = '"couplings": [{"i": 1, "j": 2, "J": 5.0}]'
        for doc in (
            "[1, 2",
            # an integer field holding a float, a bool or a string is refused,
            # not truncated or converted
            '{"n": 2.9, "shifts": [0.0, 0.0], ' + pair + "}",
            '{"n": true, "shifts": [0.0], "couplings": []}',
            '{"n": "2", "shifts": [0.0, 0.0], ' + pair + "}",
            '{"n": 2, "shifts": [0.0, 0.0], "couplings": [{"i": 1.6, "j": 2, "J": 5.0}]}',
            '{"n": 2, "shifts": [0.0, 0.0], "couplings": [{"i": 1, "j": "2", "J": 5.0}]}',
            # a number field holding a string or a bool is refused too
            '{"n": 2, "shifts": ["100", true], ' + pair + "}",
            '{"n": 2, "shifts": [0.0, true], ' + pair + "}",
            '{"n": 2, "shifts": [0.0, 0.0], "couplings": [{"i": 1, "j": 2, "J": "5"}]}',
        ):
            path.write_text(doc)
            with pytest.raises(ParseError):
                load_coupling_graph(path)


class TestGroupSpins:
    def test_three_spin_chain(self):
        g = chain(3)  # 1-2-3, target pair (1, 2): spin 3 couples to 2
        passive, groups = group_spins(g, 1, 2)
        assert passive == []
        assert groups == [[3]]

    def test_independent_pair_shares_group(self):
        g = CouplingGraph(
            4, [0.0] * 4, {(1, 2): 10.0, (2, 3): 4.0, (2, 4): 6.0}
        )  # 3 and 4 both couple to 2, not to each other
        passive, groups = group_spins(g, 1, 2)
        assert passive == []
        assert groups == [[3, 4]]

    def test_uncoupled_spin_is_passive(self):
        g = CouplingGraph(3, [0.0] * 3, {(1, 2): 10.0})
        passive, groups = group_spins(g, 1, 2)
        assert passive == [3]
        assert groups == []

    def test_coupled_passive_candidates_split(self):
        # spins 3, 4 couple only to each other; both cannot be pulsed together
        g = CouplingGraph(4, [0.0] * 4, {(1, 2): 10.0, (3, 4): 7.0})
        passive, groups = group_spins(g, 1, 2)
        assert passive == [3]
        assert groups == [[4]]

    def test_uncoupled_pair_rejected(self):
        with pytest.raises(ValueError):
            group_spins(chain(3), 1, 3)


class TestRefocusSchedule:
    def test_two_spin_echo(self):
        g = chain(2, j=20.0)
        tau = 1e-3
        sched = build_refocus_schedule(g, 1, 2, tau)
        assert len(sched.segments) == 2
        assert sched.total_duration == pytest.approx(tau)
        avg = average_hamiltonian(sched, g)
        assert set(avg.coeffs) == {(1, 2)}
        assert avg.coeffs[(1, 2)] == pytest.approx(math.pi * 20.0 * tau)

    def test_three_spin_chain_nested(self):
        g = chain(3, j=8.0)
        tau = 2e-3
        sched = build_refocus_schedule(g, 1, 2, tau)
        assert len(sched.segments) == 4  # Hadamard rows 1 and 2 of order 4
        avg = average_hamiltonian(sched, g)
        assert set(avg.coeffs) == {(1, 2)}
        assert avg.coeffs[(1, 2)] == pytest.approx(math.pi * 8.0 * 4 * tau)

    def test_duration_law(self):
        tau = 1e-3
        for n in range(2, 7):
            g = CouplingGraph(
                n,
                [100.0 * (i + 1) for i in range(n)],
                {(i, j): 5.0 for i in range(1, n + 1) for j in range(i + 1, n + 1)},
            )  # complete graph: every extra spin is its own group
            _, groups = group_spins(g, 1, 2)
            levels = 1 + len(groups)
            sched = build_refocus_schedule(g, 1, 2, tau)
            assert sched.total_duration == pytest.approx(4 ** (levels - 1) * tau)
            avg = average_hamiltonian(sched, g)
            assert set(avg.coeffs) == {(1, 2)}
            assert avg.coeffs[(1, 2)] == pytest.approx(
                math.pi * 5.0 * sched.total_duration
            )

    def test_random_graphs_single_term(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 40:
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            if not g.couplings:
                continue
            pairs = sorted(g.couplings)
            k, l = pairs[int(rng.integers(0, len(pairs)))]
            sched = build_refocus_schedule(g, k, l, 1e-3)
            avg = average_hamiltonian(sched, g)
            assert set(avg.coeffs) == {(k, l)}
            assert avg.constant == 0.0
            assert (avg.coeffs[(k, l)] > 0) == (g.coupling(k, l) > 0)
            done += 1

    def test_frame_closure(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, n)
            if not g.couplings:
                continue
            k, l = sorted(g.couplings)[0]
            sched = build_refocus_schedule(g, k, l, 1e-3)
            flips = np.zeros(n, dtype=int)
            for _, spins in sched.pulse_events():
                for s in spins:
                    flips[s - 1] += 1
            assert np.all(flips % 2 == 0)

    @pytest.mark.parametrize("n, segments", [(16, 16), (20, 32)])
    def test_complete_graph_plans_in_polynomial_space(self, n, segments):
        # one group per spin past the pair: a nested echo would need 2 * 4**(n-2)
        # segments, the Hadamard rows need the next power of two >= n
        g = _complete(n)
        tau = 1e-3
        start = time.perf_counter()
        sched = build_refocus_schedule(g, 1, 2, tau)
        avg = average_hamiltonian(sched, g)
        assert time.perf_counter() - start < 1.0
        assert len(sched.segments) == segments
        assert sched.total_duration == tau * 4 ** (n - 2)
        assert avg.coeffs == {(1, 2): math.pi * 3.5 * (tau * 4 ** (n - 2))}

    def test_bad_tau(self):
        with pytest.raises(ValueError, match="positive"):
            build_refocus_schedule(chain(2), 1, 2, 0.0)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_refocus_schedule(chain(2), 1, 2, tau)
        # the total passes the float range; on K4 each of the 4 segments does too
        for g in (chain(3), _complete(4)):
            with pytest.raises(ValueError, match="total duration must be finite"):
                build_refocus_schedule(g, 1, 2, 1e308)


class TestAverageHamiltonian:
    def test_identity_frame_recovers_hamiltonian(self):
        g = chain(3, shifts=[10.0, -20.0, 30.0], j=4.0)
        tau = 0.5
        sched = PulseSchedule([(tau, (1, 1, 1))])
        avg = average_hamiltonian(sched, g)
        assert avg.coeffs[(1,)] == pytest.approx(10.0 * tau)
        assert avg.coeffs[(2,)] == pytest.approx(-20.0 * tau)
        assert avg.coeffs[(3,)] == pytest.approx(30.0 * tau)
        assert avg.coeffs[(1, 2)] == pytest.approx(math.pi * 4.0 * tau)

    def test_alternating_spin_cancels_exactly(self):
        g = CouplingGraph(2, [123.456, 0.0], {(1, 2): 3.0})
        sched = PulseSchedule(
            [(0.25, (1, 1)), (0.25, (-1, 1)), (0.25, (1, 1)), (0.25, (-1, 1))]
        )
        avg = average_hamiltonian(sched, g)
        assert (1,) not in avg.coeffs  # exact zero, not just small

    def test_long_schedule_sums_exactly(self):
        # 600 segments: sign sums far outside the int8 range of the stored signs
        g = CouplingGraph(2, [3.0, 5.0], {(1, 2): 2.0})
        sched = PulseSchedule([(0.25, (1, 1))] * 400 + [(0.5, (1, -1))] * 200)
        avg = average_hamiltonian(sched, g)
        assert avg.coeffs == {(1,): 3.0 * (400 * 0.25 + 200 * 0.5)}

    def test_each_term_is_rounded_once(self):
        # the exact sum of d * s_1 is 0.3999999999999999; rounding a partial
        # sum per distinct duration first gives 0.4
        durations = [1 / 3, 0.25, 0.1, 1 / 3, 1 / 3, 0.25]
        signs = [1, -1, -1, 1, 1, -1]
        exact = float(sum(Fraction(d) * s for d, s in zip(durations, signs)))
        assert exact == 0.3999999999999999
        sched = PulseSchedule([(d, (s, 1)) for d, s in zip(durations, signs)])
        avg = average_hamiltonian(sched, CouplingGraph(2, [1.0, 0.0], {(1, 2): 1.0}))
        assert avg.coeffs == {(1,): exact, (1, 2): math.pi * exact}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            average_hamiltonian(PulseSchedule([(1.0, (1, 1))]), chain(3))

    def test_overflowing_shift_refused(self):
        # shift times net duration passes the float range: a plain inf that
        # the polynomial refuses, with no numpy overflow warning first
        g = CouplingGraph(2, [1e300, 0.0], {(1, 2): 1.0})
        with pytest.raises(ValueError, match=r"coefficient of \(1,\) must be finite, got inf"):
            average_hamiltonian(PulseSchedule([(1e10, (1, 1))]), g)


class TestPulseScheduleValidation:
    def test_must_start_untoggled(self):
        with pytest.raises(ValueError):
            PulseSchedule([(1.0, (-1, 1))])

    def test_positive_durations(self):
        with pytest.raises(ValueError):
            PulseSchedule([(0.0, (1, 1))])

    @pytest.mark.parametrize(
        "segments, message",
        [
            ([], "needs at least one segment"),
            ([(1.0, (1, 1)), (1.0, (1, -1, 1))], "inconsistent sign-vector lengths"),
            ([(1.0, (1, 1)), (1.0, (1, 0))], r"signs must be \+-1"),
            ([(1.0, (1, 1)), (1.0, (2, 1))], r"signs must be \+-1"),
            ([(1.0, (1, 1)), (math.nan, (1, -1))], "durations must be finite"),
            ([(math.inf, (1, 1))], "durations must be finite"),
            ([(1.0, (1, 1)), (-math.inf, (1, -1))], "durations must be finite"),
            ([(1.0, (1, 1)), (-0.5, (1, -1))], "durations must be positive"),
        ],
    )
    def test_rejected_segments(self, segments, message):
        with pytest.raises(ValueError, match=message):
            PulseSchedule(segments)

    def test_arrays_are_read_only(self):
        sched = build_refocus_schedule(chain(3), 1, 2, 1e-3)
        assert sched.signs.dtype == np.int8
        with pytest.raises(ValueError):
            sched.signs[0, 0] = -1
        with pytest.raises(ValueError):
            sched.durations[0] = -1.0

    def test_from_arrays(self):
        durations, signs = np.array([0.5, 0.5]), np.array([[1, 1], [-1, 1]])
        sched = PulseSchedule.from_arrays(durations, signs)
        assert sched.segments == [(0.5, (1, 1)), (0.5, (-1, 1))]
        signs[1, 0] = 1  # the schedule holds its own copies
        assert sched.pulse_events() == [(0, (1,)), (1, (1,))]
        with pytest.raises(ValueError, match="one sign row per segment"):
            PulseSchedule.from_arrays([0.5, 0.5, 0.5], signs)
        with pytest.raises(ValueError, match="one sign row per segment"):
            PulseSchedule.from_arrays([0.5], [1, 1])

    @pytest.mark.parametrize("n", [3, 40, 70])
    def test_pulse_events_match_row_comparison(self, n):
        rng = np.random.default_rng(n)
        rows = [(1,) * n] + [tuple(rng.choice([-1, 1], size=n).tolist()) for _ in range(30)]
        rows += rows[1:6]  # repeated flip patterns
        rows[3:3] = [rows[2], rows[2]]  # boundaries without a pulse
        segments = [(d, r) for d, r in zip(itertools.cycle([0.5, 0.25, 1e-3]), rows)]
        sched = PulseSchedule(segments)
        want = []
        for i, (cur, nxt) in enumerate(zip(rows, rows[1:] + [(1,) * n])):
            flipped = tuple(s + 1 for s in range(n) if cur[s] != nxt[s])
            if flipped:
                want.append((i, flipped))
        assert sched.pulse_events() == want
        assert sched.segments == segments
        assert format_schedule(sched) == _reference_text(segments)

    def test_format_lines(self):
        g = chain(2)
        sched = build_refocus_schedule(g, 1, 2, 1e-3)
        text = format_schedule(sched)
        lines = text.strip().splitlines()
        assert lines[0] == "SPINS 2"
        assert lines[1].startswith("SEGMENT ")
        assert lines[2] == "PULSE180 1 2"
        assert lines[4] == "PULSE180 1 2"


# References for the array planner, as lists of (duration, sign tuple)
# segments walked one segment at a time: the nested echo as four copies of
# the previous level, and the Hadamard rows spin by spin.  The nested echo
# fixes the total duration and the average Hamiltonian; the rows fix the
# segments and pulses.


def _reference_segments(g, k, l, tau):
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
    return segments


def _reference_rows(g, k, l, tau):
    passive, groups = group_spins(g, k, l)
    row = dict.fromkeys((k, l, *passive), 1)
    for r, grp in enumerate(groups, 2):
        row.update(dict.fromkeys(grp, r))
    order = 2
    while order < len(groups) + 2:
        order *= 2
    duration = 0.5 * tau * 2 ** (2 * len(groups) + 1) / order
    segments = []
    for j in range(order):
        gray = j ^ (j >> 1)
        signs = tuple(-1 if bin(row[s] & gray).count("1") % 2 else 1
                      for s in range(1, g.n_spins + 1))
        segments.append((duration, signs))
    return segments


def _reference_events(segments):
    n = len(segments[0][1])
    events = []
    for i in range(len(segments) - 1):
        cur, nxt = segments[i][1], segments[i + 1][1]
        flipped = tuple(s + 1 for s in range(n) if cur[s] != nxt[s])
        if flipped:
            events.append((i, flipped))
    closing = tuple(s + 1 for s in range(n) if segments[-1][1][s] != 1)
    if closing:
        events.append((len(segments) - 1, closing))
    return events


def _reference_text(segments):
    lines = [f"SPINS {len(segments[0][1])}"]
    events = dict(_reference_events(segments))
    for i, (dur, _) in enumerate(segments):
        lines.append(f"SEGMENT {dur:.17g}")
        if i in events:
            lines.append("PULSE180 " + " ".join(str(s) for s in events[i]))
    return "\n".join(lines) + "\n"


def _reference_average(segments, g):
    by_duration = {}
    for dur, signs in segments:
        by_duration.setdefault(dur, []).append(signs)
    single = {i: [] for i in range(g.n_spins)}
    pair = {p: [] for p in g.couplings}
    for dur, rows in by_duration.items():
        for i in range(g.n_spins):
            single[i].append(dur * sum(r[i] for r in rows))
        for (i, j), parts in pair.items():
            parts.append(dur * sum(r[i - 1] * r[j - 1] for r in rows))
    coeffs = {}
    for i, parts in single.items():
        val = g.shifts[i] * math.fsum(parts)
        if abs(val) >= DROP_TOL:
            coeffs[(i + 1,)] = val
    for (i, j), parts in pair.items():
        val = math.pi * g.couplings[(i, j)] * math.fsum(parts)
        if abs(val) >= DROP_TOL:
            coeffs[(i, j)] = val
    return coeffs


def _complete(n, shift=17.0, j=3.5):
    pairs = [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]
    return CouplingGraph(n, [shift * (i + 1) for i in range(n)], dict.fromkeys(pairs, j))


@st.composite
def _planner_cases(draw):
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = pairs if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(pairs), min_size=1, unique=True)
    )
    strength = st.floats(0.5, 50.0) | st.floats(-50.0, -0.5)
    couplings = {e: draw(strength) for e in edges}
    shifts = draw(st.lists(st.floats(-500.0, 500.0), min_size=n, max_size=n))
    k, l = draw(st.sampled_from(sorted(couplings)))
    tau = draw(st.sampled_from((1e-3, 0.1)) | st.floats(1e-6, 10.0))
    return CouplingGraph(n, shifts, couplings), k, l, tau


@settings(max_examples=40, deadline=None)
@given(_planner_cases())
@example((_complete(9), 1, 2, 1e-3))
@example((_complete(9), 4, 8, 0.37))
def test_array_planner_matches_tuple_reference(case):
    g, k, l, tau = case
    sched = build_refocus_schedule(g, k, l, tau)
    rows = _reference_rows(g, k, l, tau)
    nested = _reference_segments(g, k, l, tau)
    # line lists, so that a failure reports the first differing line quickly
    assert format_schedule(sched).split("\n") == _reference_text(rows).split("\n")
    assert sched.pulse_events() == _reference_events(rows)
    assert len(sched.segments) == len(rows) <= len(nested)
    assert sched.total_duration == math.fsum(d for d, _ in nested)
    got = average_hamiltonian(sched, g).coeffs
    want = _reference_average(nested, g)
    assert list(got.items()) == list(want.items())  # values and key order


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: relay_sequence(chain(3), [2]), "path needs at least the two endpoints"),
        (lambda: relay_sequence(chain(3), [1, 4]), "spin 4 outside 1..3"),
        (lambda: PulseSchedule.from_arrays(np.zeros(0), np.zeros((0, 2))),
         "schedule needs at least one segment"),
    ],
    ids=["relay-one-spin", "relay-spin-past-n", "schedule-no-segment"],
)
def test_library_refusals(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestRelay:
    def test_direct_coupling_is_empty(self):
        assert len(relay_sequence(chain(2), [1, 2])) == 0

    def test_one_hop_symbolic(self):
        g = chain(3)  # 1-2-3, endpoints 1 and 3 uncoupled
        seq = relay_sequence(g, [1, 2, 3])
        start = ProductOperator.from_axes(3, {1: "z", 3: "z"}, 2.0)
        result = conjugate_by_sequence(seq, start)
        assert result.terms == {("E", "Z", "Z"): pytest.approx(2.0)}

    def test_multi_hop_symbolic_and_dense(self):
        for n in (3, 4, 5):
            g = chain(n)
            path = list(range(1, n + 1))
            seq = relay_sequence(g, path)
            start = ProductOperator.from_axes(n, {1: "z", n: "z"}, 2.0)
            sym = conjugate_by_sequence(seq, start)
            want = ProductOperator.from_axes(n, {n - 1: "z", n: "z"}, 2.0)
            assert sym.allclose(PauliPolynomial.from_operator(want), tol=1e-12)
            u = dense_sequence(seq)
            got = u @ to_matrix(start) @ u.conj().T
            assert np.max(np.abs(got - to_matrix(want))) < 1e-10

    def test_exponential_transport(self):
        # conjugating exp(-i*lam*2 I_1z I_3z) gives exp(-i*lam*2 I_2z I_3z)
        g = chain(3)
        seq = relay_sequence(g, [1, 2, 3])
        u = dense_sequence(seq)
        lam = 0.83
        src = expm(-1j * lam * to_matrix(ProductOperator.from_axes(3, {1: "z", 3: "z"}, 2.0)))
        want = expm(-1j * lam * to_matrix(ProductOperator.from_axes(3, {2: "z", 3: "z"}, 2.0)))
        assert np.max(np.abs(u @ src @ u.conj().T - want)) < 1e-10

    def test_path_validation(self):
        g = chain(3)
        with pytest.raises(ValueError):
            relay_sequence(g, [1, 3])  # break: 1 and 3 not coupled
        with pytest.raises(ValueError):
            relay_sequence(g, [1, 2, 2])
        with pytest.raises(ValueError, match="expected an integer, got 2.7"):
            relay_sequence(g, [1, 2.7, 3])  # not relayed through spin 2
        g2 = CouplingGraph(3, [0.0] * 3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0})
        with pytest.raises(ValueError):
            relay_sequence(g2, [1, 2, 3])  # endpoints already coupled


class TestIonPulseParams:
    def test_lambda_two_pi(self):
        p = ion_pulse_params(2 * math.pi)
        assert p.phi1 - p.phi2 == pytest.approx(0.0, abs=1e-15)
        assert abs(math.remainder(p.theta1 - p.theta2 - math.pi, 2 * math.pi)) < 1e-12
        assert abs(math.remainder(p.phi0 - p.phi3 - math.pi, 2 * math.pi)) < 1e-12

    def test_lambda_pi(self):
        p = ion_pulse_params(math.pi)
        assert p.phi1 - p.phi2 == pytest.approx(math.pi / 2)
        assert abs(math.remainder(p.theta1 - p.theta2 - math.pi, 2 * math.pi)) < 1e-12
        assert abs(math.remainder(p.phi0 - p.phi3, 2 * math.pi)) < 1e-12

    def test_residuals_exact_zero(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            lam = float(rng.uniform(-4 * math.pi, 4 * math.pi))
            phi2 = float(rng.uniform(-math.pi, math.pi))
            p = ion_pulse_params(lam, phi2)
            assert p.constraint_residuals() == (0.0, 0.0)

    def test_outputs_in_principal_range(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            p = ion_pulse_params(float(rng.uniform(-20, 20)))
            for v in (p.phi0, p.phi1, p.phi2, p.phi3, p.theta1, p.theta2):
                assert -math.pi < v <= math.pi

    def test_manual_violation_rejected(self):
        with pytest.raises(ValueError):
            IonPulseParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, value):
        with pytest.raises(ValueError, match=f"angle must be finite, got lam = {value}"):
            ion_pulse_params(value)
        with pytest.raises(ValueError, match=f"angle must be finite, got phi2 = {value}"):
            ion_pulse_params(1.0, value)

    def test_nan_phase_violates_constraints(self):
        IonPulseParams(math.pi, 0.0, 0.0, 0.0, math.pi, 0.0)  # both relations hold
        with pytest.raises(ValueError, match="constraints violated"):
            IonPulseParams(math.nan, 0.0, 0.0, 0.0, math.pi, 0.0)
