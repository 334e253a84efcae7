import math

import numpy as np
import pytest

from conftest import dense_sequence
from zzkit.diagonal import (
    PhaseVector,
    ZPolynomial,
    load_phase_vector,
    load_zpolynomial,
    phases_to_zpoly,
    reduce_zstring,
    save_phase_vector,
    save_zpolynomial,
    zpoly_to_phases,
    zpoly_to_sequence,
)
from zzkit.gates import GateSequence, ParseError, format_sequence, gphase, rx, ry, rz, zz


def zstring_diagonal(subset, coeff, n):
    """Oracle: diag of exp(-i*coeff * 2**(m-1) prod I_jz) evaluated directly."""
    xs = np.arange(2**n)
    signs = np.ones(2**n)
    for q in subset:
        signs *= 1.0 - 2.0 * ((xs >> (n - q)) & 1)
    return np.diag(np.exp(-1j * coeff * 0.5 * signs))


def zpoly_diagonal(zp):
    """Oracle: evaluate theta_x term by term, then exponentiate."""
    n = zp.n_qubits
    theta = np.full(2**n, zp.constant)
    xs = np.arange(2**n)
    for subset, a in zp.coeffs.items():
        signs = np.ones(2**n)
        for q in subset:
            signs *= 1.0 - 2.0 * ((xs >> (n - q)) & 1)
        theta += 0.5 * a * signs
    return np.diag(np.exp(-1j * theta))


class TestWalshTransform:
    def test_zero_phases(self):
        zp = phases_to_zpoly(PhaseVector(2, np.zeros(4)))
        assert zp.constant == 0.0
        assert zp.coeffs == {}

    def test_zz_phase_pattern(self):
        lam = 0.83
        zp = phases_to_zpoly(PhaseVector(2, [lam / 2, -lam / 2, -lam / 2, lam / 2]))
        assert zp.constant == pytest.approx(0.0, abs=1e-15)
        assert set(zp.coeffs) == {(1, 2)}
        assert zp.coeffs[(1, 2)] == pytest.approx(lam, abs=1e-15)

    def test_marked_state_pattern(self):
        # frozen by solving the 4x4 linear system for theta = (0, 0, 0, pi)
        zp = phases_to_zpoly(PhaseVector(2, [0.0, 0.0, 0.0, math.pi]))
        assert zp.constant == pytest.approx(math.pi / 4, abs=1e-15)
        assert zp.coeffs[(1,)] == pytest.approx(-math.pi / 2, abs=1e-15)
        assert zp.coeffs[(2,)] == pytest.approx(-math.pi / 2, abs=1e-15)
        assert zp.coeffs[(1, 2)] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_inverse_examples(self):
        pv = zpoly_to_phases(ZPolynomial(2))
        assert np.all(pv.phases == 0.0)
        zp = ZPolynomial(
            2,
            math.pi / 4,
            {(1,): -math.pi / 2, (2,): -math.pi / 2, (1, 2): math.pi / 2},
        )
        pv = zpoly_to_phases(zp)
        assert np.max(np.abs(pv.phases - [0.0, 0.0, 0.0, math.pi])) < 1e-15

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            theta = rng.uniform(-math.pi, math.pi, size=2**n)
            back = zpoly_to_phases(phases_to_zpoly(PhaseVector(n, theta)))
            assert np.max(np.abs(back.phases - theta)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            theta = rng.uniform(-math.pi, math.pi, size=2**n)
            zp = phases_to_zpoly(PhaseVector(n, theta))
            lhs = float(np.sum(theta**2))
            rhs = 2**n * (
                zp.constant**2 + 0.25 * sum(a**2 for a in zp.coeffs.values())
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestReduceZString:
    def test_pair_base_case(self):
        seq = reduce_zstring((1, 2), 0.4)
        assert len(seq) == 1
        assert seq[0].kind == "ZZ" and seq[0].angle == 0.4

    def test_three_body_counts(self):
        seq = reduce_zstring((1, 2, 3), 0.9)
        kinds = [g.kind for g in seq]
        assert kinds.count("ZZ") == 3
        assert len(seq) - kinds.count("ZZ") == 6

    def test_counts_follow_reduction_law(self):
        for m in range(2, 7):
            seq = reduce_zstring(tuple(range(1, m + 1)), 1.1)
            zz_count = sum(1 for g in seq if g.kind == "ZZ")
            one_q = sum(1 for g in seq if g.kind in ("RX", "RY", "RZ"))
            assert zz_count == 2 * m - 3
            assert one_q == 6 * (m - 2)

    def test_four_body_matches_diagonal(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            lam = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            seq = reduce_zstring((1, 2, 3, 4), lam, 4)
            got = dense_sequence(seq)
            want = zstring_diagonal((1, 2, 3, 4), lam, 4)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_sparse_subset(self):
        lam = 0.37
        seq = reduce_zstring((1, 3, 5), lam, 5)
        got = dense_sequence(seq)
        want = zstring_diagonal((1, 3, 5), lam, 5)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_too_small(self):
        with pytest.raises(ValueError):
            reduce_zstring((1,), 0.5)


class TestZPolyToSequence:
    def test_single_pair_is_one_gate(self):
        seq = zpoly_to_sequence(ZPolynomial(2, 0.0, {(1, 2): 0.77}))
        assert [str(g) for g in seq] == ["ZZ 1 2 0.77000000000000002"]

    def test_marked_state_sequence(self):
        zp = phases_to_zpoly(PhaseVector(2, [0.0, 0.0, 0.0, math.pi]))
        seq = zpoly_to_sequence(zp)
        assert [g.kind for g in seq] == ["PHASE", "RZ", "RZ", "ZZ"]
        assert [g.qubits for g in seq] == [(), (1,), (2,), (1, 2)]
        got = dense_sequence(seq)
        want = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_emission_order_is_deterministic(self):
        zp = ZPolynomial(3, 0.1, {(2,): 0.2, (1, 3): 0.3, (1, 2, 3): 0.4, (1,): 0.5})
        kinds = [(g.kind, g.qubits) for g in zpoly_to_sequence(zp)][:4]
        assert kinds == [("PHASE", ()), ("RZ", (1,)), ("RZ", (2,)), ("ZZ", (1, 3))]

    def test_random_zpoly_matches_diagonal(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            theta = rng.uniform(-math.pi, math.pi, size=2**n)
            zp = phases_to_zpoly(PhaseVector(n, theta))
            got = dense_sequence(zpoly_to_sequence(zp))
            want = zpoly_diagonal(zp)
            assert np.max(np.abs(got - want)) < 1e-10


def _reference_lowering(zp):
    """The recursion zpoly_to_sequence replaces: V built from fresh gates on
    every level and one GateSequence per subset, extended into the output."""

    def reduce_into(seq, spins, coeff):
        if len(spins) == 2:
            seq.append(zz(spins[0], spins[1], coeff))
            return
        pivot, dropped = spins[-1], spins[-2]
        basis_change = [
            ry(pivot, math.pi / 2),
            rx(pivot, -math.pi / 2),
            zz(dropped, pivot, math.pi / 2),
            rx(pivot, math.pi / 2),
        ]
        seq.extend(g.inverse() for g in reversed(basis_change))
        reduce_into(seq, spins[:-2] + (pivot,), coeff)
        seq.extend(basis_change)

    seq = GateSequence(zp.n_qubits)
    if zp.constant != 0.0:
        seq.append(gphase(zp.constant))
    for subset in sorted(zp.coeffs, key=lambda s: (len(s), s)):
        a = zp.coeffs[subset]
        if len(subset) == 1:
            seq.append(rz(subset[0], a))
        elif len(subset) == 2:
            seq.append(zz(subset[0], subset[1], a))
        else:
            part = GateSequence(zp.n_qubits)
            reduce_into(part, subset, a)
            seq.extend(part)
    return seq


@pytest.mark.parametrize("n", range(1, 9))
def test_lowering_text_equals_reference_recursion(n):
    rng = np.random.default_rng(100 + n)
    vectors = [rng.uniform(-math.pi, math.pi, 2**n) for _ in range(3)]
    vectors.append(math.pi * rng.integers(0, 2, 2**n))  # a truth table: quarter turns
    for theta in vectors:
        zp = phases_to_zpoly(PhaseVector(n, theta))
        assert format_sequence(zpoly_to_sequence(zp)) == format_sequence(_reference_lowering(zp))
    subset = tuple(sorted(set(range(1, n + 1, 2)) | {n}))  # a sparse string
    if len(subset) >= 2:
        want = _reference_lowering(ZPolynomial(n, 0.0, {subset: 0.3}))
        assert format_sequence(reduce_zstring(subset, 0.3, n)) == format_sequence(want)


class TestValidationAndIO:
    def test_phase_vector_validation(self):
        with pytest.raises(ValueError):
            PhaseVector(2, [0.0, 0.0])
        with pytest.raises(ValueError):
            PhaseVector(1, [0.0, float("inf")])

    def test_zpoly_validation(self):
        with pytest.raises(ValueError):
            ZPolynomial(2, 0.0, {(): 1.0})
        with pytest.raises(ValueError):
            ZPolynomial(2, 0.0, {(3,): 1.0})
        zp = ZPolynomial(2, 1e-14, {(1,): 1e-14, (2,): 0.5})
        assert zp.constant == 0.0
        assert set(zp.coeffs) == {(2,)}

    def test_phase_vector_file_roundtrip(self, tmp_path):
        pv = PhaseVector(2, [0.0, 0.25, -1.5, math.pi])
        path = tmp_path / "pv.json"
        save_phase_vector(pv, path)
        back = load_phase_vector(path)
        assert back.n_qubits == 2
        assert np.array_equal(back.phases, pv.phases)

    def test_zpoly_file_roundtrip(self, tmp_path):
        zp = ZPolynomial(3, 0.5, {(1,): 0.25, (2, 3): -0.75, (1, 2, 3): 1.5})
        path = tmp_path / "zp.json"
        save_zpolynomial(zp, path)
        back = load_zpolynomial(path)
        assert back.constant == zp.constant
        assert back.coeffs == zp.coeffs

    def test_bad_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_phase_vector(path)
        # a well-formed document with a value the vector refuses is a
        # semantic error: the vector's own ValueError, not a ParseError
        for load, doc, message in (
            (load_phase_vector, '{"n": 2, "phases": [0.0]}', "expected 4 phases"),
            (load_phase_vector, '{"n": 1, "phases": [NaN, 0.0]}', "phases must be finite"),
            (load_zpolynomial, '{"n": 2, "terms": [{"qubits": [3], "coeff": 1.0}]}', "outside"),
        ):
            path.write_text(doc)
            with pytest.raises(ValueError, match=message) as info:
                load(path)
            assert not isinstance(info.value, ParseError)
        path.write_text('{"n": 2}')
        with pytest.raises(ParseError):
            load_zpolynomial(path)
