"""The structured referee against the dense one: every source at n = 1-8,
its mutants, the frame's exact entries, and the CLI's path rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_sequence, haar_u2, write_json
from test_simulator import _package_imports
from zzkit import compilers, frame, simulator
from zzkit.cli import main
from zzkit.compilers import TruthTable
from zzkit.diagonal import PhaseVector, compile_phases
from zzkit.gates import Gate, GateSequence, gphase, read_sequence, rx, write_sequence

TOL = 1e-10
_S = math.sqrt(0.5)
# Clifford blocks, where the lowering's core or its wrappers join the frame
CLIFFORD_U = [((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)), ((_S, _S), (_S, -_S)),
              ((1, 0), (0, 1j))]


@st.composite
def compiled(draw):
    """(target description, compiled sequence) for one source at n = 1-8."""
    n = draw(st.integers(1, 8))
    size = 2**n
    kind = draw(st.sampled_from(["phases", "grid", "truth-table", "cu", "grover", "walsh"]))
    if kind == "phases":
        phases = draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
        return ("phases", PhaseVector(n, phases)), compile_phases(n, phases)
    if kind == "grid":  # Walsh coefficients often multiples of pi/2: Clifford gates
        steps = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
        phases = [0.25 * math.pi * k for k in steps]
        return ("phases", PhaseVector(n, phases)), compile_phases(n, phases)
    if kind == "truth-table":
        tt = TruthTable(n, draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        return ("truth-table", tt), compilers.compile_deutsch_jozsa(tt)
    if kind == "cu":
        pick = draw(st.integers(-1, len(CLIFFORD_U) - 1))
        u = CLIFFORD_U[pick] if pick >= 0 else haar_u2(np.random.default_rng(draw(st.integers(0, 99))))
        u = tuple(tuple(complex(v) for v in row) for row in u)
        return ("cu", u, n), compilers.compile_controlled_u(u, n)
    if kind == "grover":
        marked = draw(st.integers(0, size - 1))
        return ("grover", n, marked), compilers.build_grover_iteration(n, marked)
    return ("walsh", n), compilers.build_walsh_hadamard(n)


def dense_distances(seq, target):
    u, t = simulator.sequence_unitary(seq), simulator.target_unitary(target)
    return simulator.plain_distance(u, t), simulator.distance_up_to_phase(u, t)


@settings(max_examples=80, deadline=None)
@given(compiled())
def test_correct_sequences_pass_on_both_paths(case):
    target, seq = case
    structured, dense = frame.distances(seq, target), dense_distances(seq, target)
    assert structured is not None
    assert structured[0] < TOL and dense[0] < TOL
    assert structured[1] < TOL and dense[1] < TOL
    assert structured[0] >= dense[0] - 1e-12


def _mutate(seq, kind, i, q):
    gates = list(seq.gates)
    if kind == "drop":
        del gates[i]
    elif kind == "negate":
        gates[i] = Gate(gates[i].kind, gates[i].qubits, -gates[i].angle)
    elif kind == "insert":
        gates.insert(i, rx(q, 0.2))
    else:
        gates.append(gphase(0.3))
    return GateSequence(seq.n_qubits, gates)


@settings(max_examples=60, deadline=None)
@given(compiled(), st.sampled_from(["drop", "negate", "insert", "phase"]), st.data())
def test_mutants_never_pass_on_the_structured_path(case, kind, data):
    """A mutant the dense referee fails is never placed below tol, and where
    the structured path places a mutant it reports the dense distances."""
    target, seq = case
    if not seq.gates and kind in ("drop", "negate"):
        kind = "phase"
    i = data.draw(st.integers(0, max(len(seq) - 1, 0)))
    mutant = _mutate(seq, kind, i, data.draw(st.integers(1, seq.n_qubits)))
    structured, dense = frame.distances(mutant, target), dense_distances(mutant, target)
    if kind == "phase":  # |1 - exp(-0.3i)| times the largest entry, at least 2**(-n/2)
        assert dense[0] > 0.29 * 2 ** (-0.5 * seq.n_qubits)
    if dense[0] >= TOL:
        assert structured is None or structured[0] >= TOL
    if structured is not None:
        assert structured == pytest.approx(dense, abs=1e-9)


def test_grover_with_phases_of_one_angle():
    """Negating the first RZ leaves entries of D_z o at equal angles; the
    farthest-angle search takes them in any order."""
    target, seq = ("grover", 3, 0), compilers.build_grover_iteration(3, 0)
    mutant = _mutate(seq, "negate", 1, 1)
    assert frame.distances(mutant, target) == pytest.approx(dense_distances(mutant, target), abs=1e-9)


def _frame_matrix(seq):
    """Every entry of the frame of a Clifford-only sequence, times its phase,
    from the images and the one kept entry."""
    phase, f, rotations = frame._reduce(seq)
    assert not rotations
    size = 2**seq.n_qubits
    xs, zs = frame._products(f.xs), frame._products(f.zs)
    m = np.zeros((size, size), dtype=complex)
    for a in range(size):
        for w in range(size):
            img = frame._mul(xs[a], zs[w])
            m[f.row ^ a, f.col ^ img[0]] = frame._value(f.entry_at(img, w))
    return np.exp(-1j * phase) * m


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(st.sampled_from(["RX", "RY", "RZ", "ZZ", "PHASE"]), st.integers(-3, 4),
              st.permutations(range(1, n + 1))), max_size=30).map(lambda gs: (n, gs))))
def test_clifford_frame_entries_match_dense(case):
    """The frame keeps the global phase: a sequence of Clifford gates only is
    its frame, entry for entry, global phase included (angles k*pi/2, k =
    -3..4, so RZ(2*pi) = -I is among them)."""
    n, specs = case
    gates = []
    for kind, k, perm in specs:
        if kind == "ZZ" and n < 2:
            continue
        qubits = () if kind == "PHASE" else tuple(perm[:2] if kind == "ZZ" else perm[:1])
        gates.append(Gate(kind, qubits, 0.5 * math.pi * k))
    seq = GateSequence(n, gates)
    assert np.max(np.abs(_frame_matrix(seq) - dense_sequence(seq))) < 1e-12


def test_frame_imports_only_the_gate_set():
    assert _package_imports(frame) == {".gates"}


@pytest.mark.parametrize("angles, passes", [([2 * math.pi], True), ([math.pi, math.pi], True),
                                            ([math.pi, -math.pi], False)])
def test_frame_keeps_the_sign_of_minus_identity(angles, passes):
    """RX(2*pi) = RX(pi) RX(pi) = -I and RX(pi) RX(-pi) = I: against
    diag(-1, -1) only a frame that keeps its phase tells them apart."""
    seq = GateSequence(1, [rx(1, a) for a in angles])
    dist, up_to_phase = frame.distances(seq, ("phases", PhaseVector(1, [math.pi, math.pi])))
    assert (dist < TOL) is passes
    assert up_to_phase < TOL


def _sources(tmp_path):
    pv = write_json(tmp_path / "pv.json", {"n": 3, "phases": [math.sin(1.7 * x) for x in range(8)]})
    tt = write_json(tmp_path / "tt.json", {"n": 3, "values": [0, 1, 1, 0, 1, 0, 0, 1]})
    u = haar_u2(np.random.default_rng(36))
    cu = write_json(tmp_path / "u.json", {"re": u.real.tolist(), "im": u.imag.tolist()})
    return {
        "phases": ["--phases", pv],
        "truth-table": ["--truth-table", tt],
        "cu": ["--cu", cu, "--qubits", "3"],
        "grover": ["--algorithm", "grover", "--qubits", "3", "--marked", "6"],
        "walsh": ["--algorithm", "walsh", "--qubits", "3"],
    }


@pytest.mark.parametrize("source", ["phases", "truth-table", "cu", "grover", "walsh"])
def test_cli_prints_the_path_after_the_verdict(tmp_path, capsys, source):
    """A compiled sequence passes on the structured path; with an RX(1, 0.3),
    RX(1, -0.3) pair inserted it has no shape the structured path places, and
    passes on the dense one; a PHASE 0.3 mutant fails on the dense one."""
    args = _sources(tmp_path)[source]
    out = tmp_path / "seq.txt"
    assert main(["compile", *args, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == [
        "distance", "distance up to global phase", "PASS (tol", "path"]
    assert lines[3] == "path = structured"

    seq = read_sequence(out)
    write_sequence(GateSequence(3, [rx(1, 0.3), rx(1, -0.3), *seq.gates]), out)
    assert main(["verify", str(out), *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["PASS (tol = 1e-10)", "path = dense"]

    write_sequence(GateSequence(3, [*seq.gates, gphase(0.3)]), out)
    assert main(["verify", str(out), *args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["FAIL (tol = 1e-10)", "path = dense"]


def test_cli_refusals_come_before_either_path(tmp_path, capsys):
    """The target is refused with the dense builder's message on the
    structured path too."""
    seq = tmp_path / "s.seq"
    seq.write_text("QUBITS 2\n")
    argv = ["verify", str(seq), "--algorithm", "grover", "--qubits", "2", "--marked", "4"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: basis index 4 outside 0..3\n"
