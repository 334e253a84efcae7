import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import dense_sequence, haar_u2, write_json
from zzkit.compilers import (
    TruthTable,
    U2Params,
    build_grover_iteration,
    build_walsh_hadamard,
    compile_conditional_phase,
    compile_controlled_u,
    compile_deutsch_jozsa,
    decompose_u2,
    gate_counts,
    load_truth_table,
    load_u2_matrix,
    simulate_grover,
)
from zzkit.gates import GateSequence, ParseError
from zzkit.simulator import (
    distance_up_to_phase,
    sequence_unitary,
    u2_from_params,
    universal_gate_matrix,
)


def controlled_u_bound_counts(n):
    """Worst-case gate budget: one z string per qubit subset plus the
    conjugation pair on the target qubit."""
    zz_bound = sum(
        math.comb(n, m) * (2 * m - 3) for m in range(2, n + 1)
    )
    one_q_bound = n + sum(math.comb(n, m) * 6 * (m - 2) for m in range(3, n + 1)) + 4
    return zz_bound, one_q_bound


class TestDecomposeU2:
    def test_identity(self):
        p = decompose_u2(np.eye(2))
        assert (p.alpha, p.beta, p.phi0, p.phi1) == (0.0, 0.0, 0.0, 0.0)

    def test_diagonal_z_rotation(self):
        for theta in (1.3, -1.3):  # -1.3 reads the axis as -z, so it is flipped
            u = np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])
            p = decompose_u2(u)
            assert (p.alpha, p.beta) == (0.0, 0.0)
            assert p.phi0 == pytest.approx(0.0, abs=1e-12)
            assert p.phi1 == pytest.approx(theta, abs=1e-12)

    def test_scalar_shortcut(self):
        u = cmath.exp(0.7j) * np.eye(2)
        p = decompose_u2(u)
        assert (p.alpha, p.beta, p.phi1) == (0.0, 0.0, 0.0)
        assert np.max(np.abs(u2_from_params(p) - u)) < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            u = haar_u2(rng)
            p = decompose_u2(u)
            assert 0.0 <= p.beta <= math.pi
            assert np.max(np.abs(u2_from_params(p) - u)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            decompose_u2(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_runs_without_an_eigensolver(self, monkeypatch):
        def eig(*args, **kwargs):
            raise AssertionError("decompose_u2 must not call an eigensolver")

        monkeypatch.setattr(np.linalg, "eig", eig)
        u = haar_u2(np.random.default_rng(107))
        assert np.max(np.abs(u2_from_params(decompose_u2(u)) - u)) < 1e-12
        got = sequence_unitary(compile_controlled_u(u, 3))
        assert np.max(np.abs(got - universal_gate_matrix(u, 3))) < 1e-10


_ANGLES = st.one_of(
    st.sampled_from([0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi),
)


@st.composite
def _u2_cases(draw):
    """u from drawn Euler angles times a drawn global phase, or Haar u from
    drawn normals by phase-fixed QR."""
    if draw(st.booleans()):
        p = U2Params(draw(_ANGLES), draw(_ANGLES), draw(_ANGLES), draw(_ANGLES))
        return cmath.exp(1j * draw(_ANGLES)) * u2_from_params(p)
    normals = draw(st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8))
    z = (np.array(normals[:4]) + 1j * np.array(normals[4:])).reshape(2, 2)
    assume(abs(np.linalg.det(z)) > 1e-3)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=300, deadline=None)
@given(_u2_cases())
@example(np.diag([cmath.exp(0.65j), cmath.exp(-0.65j)]))
@example(np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex))
@example(np.array([[0, 1], [1, 0]], dtype=complex))
def test_decompose_u2_closed_form(u):
    p = decompose_u2(u)
    assert np.max(np.abs(u2_from_params(p) - u)) < 1e-12
    assert 0.0 <= p.beta <= 0.5 * math.pi
    # alpha = beta = 0 exactly for a diagonal u, and for the scalar shortcut
    diagonal = u[0, 1] == 0 and u[1, 0] == 0
    scalar = np.max(np.abs(u - u[0, 0] * np.eye(2))) < 1e-12
    assert (p.alpha == 0.0 and p.beta == 0.0) == (diagonal or scalar)


class TestUniversalGateMatrix:
    def test_identity_block(self):
        assert np.array_equal(universal_gate_matrix(np.eye(2), 3), np.eye(8))

    def test_cnot(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        want = np.eye(4, dtype=complex)
        want[[2, 3]] = want[[3, 2]]
        assert np.array_equal(universal_gate_matrix(sx, 2), want)

    def test_block_assembly(self):
        rng = np.random.default_rng(101)
        u = haar_u2(rng)
        m = universal_gate_matrix(u, 3)
        want = np.eye(8, dtype=complex)
        want[6:, 6:] = u
        assert np.array_equal(m, want)


class TestCompileControlledU:
    def test_three_qubit_counts_and_unitary(self):
        rng = np.random.default_rng(102)
        u = haar_u2(rng)
        seq = compile_controlled_u(u, 3)
        counts = gate_counts(seq)
        assert counts.zz == 6
        assert counts.one_qubit <= 13
        assert counts.phase == 1
        dist = distance_up_to_phase(sequence_unitary(seq), universal_gate_matrix(u, 3))
        assert dist < 1e-10

    def test_two_qubit_core_structure(self):
        rng = np.random.default_rng(103)
        u = haar_u2(rng)
        seq = compile_controlled_u(u, 2)
        counts = gate_counts(seq)
        assert counts.zz == 1
        assert counts.phase == 1
        assert counts.one_qubit <= 6  # 2 RZ in the core + the 4 conjugation gates
        dist = distance_up_to_phase(sequence_unitary(seq), universal_gate_matrix(u, 2))
        assert dist < 1e-10

    def test_identity_compiles_to_nothing(self):
        for n in (1, 2, 3):
            assert len(compile_controlled_u(np.eye(2), n)) == 0

    def test_scalar_u(self):
        u = cmath.exp(-0.9j) * np.eye(2)
        seq = compile_controlled_u(u, 1)
        assert [g.kind for g in seq] == ["PHASE"]
        seq2 = compile_controlled_u(u, 2)
        dist = distance_up_to_phase(sequence_unitary(seq2), universal_gate_matrix(u, 2))
        assert dist < 1e-10

    def test_counts_and_distance_up_to_six_qubits(self):
        rng = np.random.default_rng(104)
        for n in range(1, 7):
            zz_bound, one_q_bound = controlled_u_bound_counts(n)
            for _ in range(50 if n <= 4 else 10):
                u = haar_u2(rng)
                seq = compile_controlled_u(u, n)
                counts = gate_counts(seq)
                assert counts.zz <= zz_bound
                assert counts.one_qubit <= one_q_bound
                assert counts.phase <= 1
                if n <= 4:
                    dist = distance_up_to_phase(
                        sequence_unitary(seq), universal_gate_matrix(u, n)
                    )
                    assert dist < 1e-10

    def test_exact_equality_including_phase(self):
        rng = np.random.default_rng(105)
        u = haar_u2(rng)
        got = sequence_unitary(compile_controlled_u(u, 3))
        assert np.max(np.abs(got - universal_gate_matrix(u, 3))) < 1e-10


class TestWalshHadamard:
    def test_single_qubit_exact(self):
        w = sequence_unitary(build_walsh_hadamard(1))
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        assert np.max(np.abs(w - h)) < 1e-12

    def test_two_qubits_tensor_square(self):
        w = sequence_unitary(build_walsh_hadamard(2))
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.max(np.abs(w - np.kron(h, h))) < 1e-12
        assert np.all(np.abs(np.abs(w) - 0.5) < 1e-12)

    def test_involution(self):
        for n in range(1, 7):
            seq = build_walsh_hadamard(n)
            twice = GateSequence(n, seq.gates + seq.gates)
            u = sequence_unitary(twice)
            assert distance_up_to_phase(u, np.eye(2**n, dtype=complex)) < 1e-10


class TestConditionalPhase:
    def test_zero_phase_empty(self):
        assert len(compile_conditional_phase(3, 4, 0.0)) == 0

    def test_two_qubit_marked(self):
        seq = compile_conditional_phase(2, 3, math.pi)
        got = sequence_unitary(seq)
        want = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert distance_up_to_phase(got, want) < 1e-10
        assert np.max(np.abs(got - want)) < 1e-10

    def test_three_qubit_marked(self):
        seq = compile_conditional_phase(3, 5, math.pi)
        got = np.diag(sequence_unitary(seq))
        want = np.ones(8, dtype=complex)
        want[5] = -1.0
        assert np.max(np.abs(got - want)) < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            compile_conditional_phase(2, 4, math.pi)


class TestGroverIteration:
    def test_iterate_is_unitary(self):
        u = sequence_unitary(build_grover_iteration(3, 5))
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_matches_independent_assembly(self):
        n, marked = 3, 5
        u = sequence_unitary(build_grover_iteration(n, marked))
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        hn = np.array([[1.0]])
        for _ in range(n):
            hn = np.kron(hn, h)
        reflect = -np.eye(2**n)
        reflect[0, 0] = 1.0
        oracle = np.eye(2**n)
        oracle[marked, marked] = -1.0
        want = hn @ reflect @ hn @ oracle
        assert np.max(np.abs(u - want)) < 1e-10

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            build_grover_iteration(2, 7)

    def test_simulation_past_the_dense_cap(self):
        # a 2^13 state is 128 KB: only the compile cap bounds the simulation
        want = math.sin(3 * math.asin(2**-6.5)) ** 2
        assert simulate_grover(13, 0, 1) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "n, marked, iterations, message",
        [
            (3, 5, -1, "iteration count must be nonnegative"),
            (17, 0, 1, "17 qubits exceeds the compile cap of 16: a dense diagonal on 17 "
                       "qubits lowers to 131070 ZZ gates"),
        ],
    )
    def test_simulation_refusals(self, n, marked, iterations, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_grover(n, marked, iterations)


class TestDeutschJozsa:
    def test_constant_zero_is_empty(self):
        assert len(compile_deutsch_jozsa(TruthTable(2, (0, 0, 0, 0)))) == 0

    def test_constant_one_is_pure_phase(self):
        seq = compile_deutsch_jozsa(TruthTable(2, (1, 1, 1, 1)))
        assert [g.kind for g in seq] == ["PHASE"]
        assert seq[0].angle == pytest.approx(math.pi)

    def test_balanced_parity(self):
        seq = compile_deutsch_jozsa(TruthTable(2, (0, 1, 1, 0)))
        got = sequence_unitary(seq)
        want = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_random_tables_vs_diagonal(self):
        rng = np.random.default_rng(106)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=2**n))
            seq = compile_deutsch_jozsa(TruthTable(n, bits))
            want = np.diag([(-1.0) ** b for b in bits]).astype(complex)
            assert distance_up_to_phase(dense_sequence(seq), want) < 1e-10

    def test_truth_table_validation(self):
        with pytest.raises(ValueError):
            TruthTable(2, (0, 1, 2, 0))
        with pytest.raises(ValueError):
            TruthTable(2, (0, 1))
        with pytest.raises(ValueError, match="must be bits"):
            TruthTable(2, (0.5, 1, 1.9, 0))  # not truncated to (0, 1, 1, 0)


class TestGateCounts:
    def test_empty(self):
        c = gate_counts(GateSequence(2))
        assert (c.zz, c.one_qubit, c.phase, c.total) == (0, 0, 0, 0)

    def test_deutsch_three_qubit_compile(self):
        rng = np.random.default_rng(107)
        c = gate_counts(compile_controlled_u(haar_u2(rng), 3))
        assert c.zz == 6 and c.one_qubit <= 13 and c.phase == 1

    def test_total_equals_length(self):
        rng = np.random.default_rng(108)
        seq = compile_controlled_u(haar_u2(rng), 4)
        assert gate_counts(seq).total == len(seq)


class TestBuildersAtFullWidth:
    """Every builder against its independent dense construction at n = 8."""

    def test_walsh_hadamard_n8(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        hn = np.array([[1.0]])
        for _ in range(8):
            hn = np.kron(hn, h)
        got = sequence_unitary(build_walsh_hadamard(8))
        assert distance_up_to_phase(got, hn.astype(complex)) < 1e-10

    def test_conditional_phase_n8(self):
        marked, phase = 173, 0.9
        got = sequence_unitary(compile_conditional_phase(8, marked, phase))
        want = np.eye(256, dtype=complex)
        want[marked, marked] = np.exp(-1j * phase)
        assert distance_up_to_phase(got, want) < 1e-10

    def test_deutsch_jozsa_n8(self):
        rng = np.random.default_rng(110)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=256))
        got = sequence_unitary(compile_deutsch_jozsa(TruthTable(8, bits)))
        want = np.diag([(-1.0) ** b for b in bits]).astype(complex)
        assert distance_up_to_phase(got, want) < 1e-10

    def test_controlled_u_n8(self):
        u = haar_u2(np.random.default_rng(111))
        got = sequence_unitary(compile_controlled_u(u, 8))
        assert distance_up_to_phase(got, universal_gate_matrix(u, 8)) < 1e-10


class TestFileIO:
    def test_u2_roundtrip(self, tmp_path):
        rng = np.random.default_rng(109)
        u = haar_u2(rng)
        path = write_json(tmp_path / "u.json", {"re": u.real.tolist(), "im": u.imag.tolist()})
        assert np.array_equal(load_u2_matrix(path), u)

    def test_truth_table_roundtrip(self, tmp_path):
        path = write_json(tmp_path / "tt.json", {"n": 2, "values": [0, 1, 0, 1]})
        assert load_truth_table(path) == TruthTable(2, (0, 1, 0, 1))

    def test_bad_files(self, tmp_path):
        path = tmp_path / "bad.json"
        # a wrong shape, or an entry that is a string or a bool, is a parse
        # error: nothing is converted
        for doc in (
            '{"re": [[1, 0]], "im": [[0, 0]]}',
            # each part is 2x2: numpy broadcasting must not complete the other
            '{"re": [[1, 0], [0, 1]], "im": [[0]]}',
            '{"re": [[1, 0], [0, 1]], "im": [[0, 0]]}',
            '{"re": [[1, 0]], "im": [[0, 0], [0, 0]]}',
            '{"re": [["1", 0], [0, true]], "im": [[0, 0], [0, 0]]}',
            '{"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, "0"]]}',
            '{"re": [[1, 0], [0, 1]], "im": [[false, 0], [0, 0]]}',
        ):
            path.write_text(doc)
            with pytest.raises(ParseError):
                load_u2_matrix(path)
        # a wrong length is the table's own ValueError, a semantic error
        path.write_text('{"n": 2, "values": [0, 1]}')
        with pytest.raises(ValueError, match="expected 4 values") as info:
            load_truth_table(path)
        assert not isinstance(info.value, ParseError)
        # an entry or a size that is not a JSON integer is a parse error,
        # not truncated to a bit or converted
        for doc in (
            '{"n": 2, "values": [0, 1, "x", 0]}',
            '{"n": 2, "values": [0.5, 1, 1.9, 0]}',
            '{"n": 2, "values": [0, 1, "1", 0]}',
            '{"n": 2, "values": [false, true, true, false]}',
            '{"n": 2.7, "values": [0, 1, 1, 0]}',
            '{"n": true, "values": [0, 1]}',
        ):
            path.write_text(doc)
            with pytest.raises(ParseError):
                load_truth_table(path)
