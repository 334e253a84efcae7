import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PAULI,
    dense_sequence,
    ladder_order_weights,
    random_basis_op,
    random_longitudinal_poly,
    random_order_poly,
    random_product_op,
)
from zzkit.gates import GateSequence, ParseError, gphase, rx, ry, rz, zz
from zzkit.diagonal import PhaseVector, phases_to_zpoly, zpoly_to_sequence
from zzkit.pauli import (
    DROP_TOL,
    PauliPolynomial,
    ProductOperator,
    Subspace,
    classify_subspace,
    coherence_orders,
    commutator,
    conjugate_bch,
    conjugate_by_sequence,
    multiply,
    parse_operator,
    poly_commutator,
    to_matrix,
    _generator_rotation,
    _rotate,
)


def op(n, axes, coeff=1.0):
    return ProductOperator.from_axes(n, axes, coeff)


class TestMultiply:
    def test_identity_element(self):
        a = op(2, {1: "x", 2: "y"}, 2.5 - 1j)
        e = ProductOperator.identity(2)
        assert multiply(e, a) == a
        assert multiply(a, e) == a

    def test_square_is_quarter_identity(self):
        r = multiply(op(1, {1: "x"}), op(1, {1: "x"}))
        assert r.factors == ("E",)
        assert r.coeff == 0.25

    def test_xy_gives_half_i_z(self):
        # frozen from sigma_x/2 * sigma_y/2 = i*sigma_z/4
        r = multiply(op(1, {1: "x"}), op(1, {1: "y"}))
        assert r.factors == ("Z",)
        assert r.coeff == 0.5j

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a, b = random_product_op(rng, n), random_product_op(rng, n)
            got = to_matrix(multiply(a, b))
            want = to_matrix(a) @ to_matrix(b)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(op(1, {1: "x"}), op(2, {1: "x"}))


class TestCommutator:
    def test_disjoint_spins_commute(self):
        assert commutator(op(2, {1: "z"}), op(2, {2: "z"})).is_zero

    def test_xy_z(self):
        # frozen from the 2x2 matrix commutator [sigma_x/2, sigma_y/2] = i*sigma_z/2
        r = commutator(op(1, {1: "x"}), op(1, {1: "y"}))
        assert r.terms == {("Z",): 1j}

    def test_two_body_with_x(self):
        # frozen from the 4x4 matrix commutator [2 I1z I2z, I1x] = 2i I1y I2z
        r = commutator(op(2, {1: "z", 2: "z"}, 2.0), op(2, {1: "x"}))
        assert r.terms == {("Y", "Z"): 2j}

    def test_antisymmetry_and_jacobi(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            a, b, c = (random_product_op(rng, n) for _ in range(3))
            ab = commutator(a, b)
            ba = commutator(b, a)
            assert (ab + ba).is_zero
            pa = PauliPolynomial.from_operator(a)
            pb = PauliPolynomial.from_operator(b)
            pc = PauliPolynomial.from_operator(c)
            jacobi = (
                poly_commutator(pa, poly_commutator(pb, pc))
                + poly_commutator(pb, poly_commutator(pc, pa))
                + poly_commutator(pc, poly_commutator(pa, pb))
            )
            assert jacobi.is_zero


class TestConjugateBch:
    def test_commuting_pair_unchanged(self):
        r = conjugate_bch(op(2, {1: "z"}), 0.9, op(2, {2: "x"}))
        assert r.terms == {("E", "X"): 1.0}

    def test_y_rotation_of_z(self):
        # frozen from exp(-i*(pi/2)*Iy) Iz exp(+i*(pi/2)*Iy) = Ix on 2x2 matrices
        r = conjugate_bch(op(1, {1: "y"}), math.pi / 2, op(1, {1: "z"}))
        assert r.allclose(PauliPolynomial(1, {("X",): 1.0}), tol=1e-15)

    def test_zz_pi_on_x_vs_dense(self):
        gen = op(2, {1: "z", 2: "z"}, 2.0)
        tgt = op(2, {1: "x"})
        got = to_matrix(conjugate_bch(gen, math.pi, tgt))
        u = expm(-1j * math.pi * to_matrix(gen))
        want = u @ to_matrix(tgt) @ u.conj().T
        assert np.max(np.abs(got - want)) < 1e-12

    def test_random_basis_pairs_vs_dense(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            gen = random_basis_op(rng, n)
            tgt = random_basis_op(rng, n)
            lam = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            got = to_matrix(conjugate_bch(gen, lam, tgt))
            u = expm(-1j * lam * to_matrix(gen))
            want = u @ to_matrix(tgt) @ u.conj().T
            assert np.max(np.abs(got - want)) < 1e-12

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError):
            conjugate_bch(op(1, {1: "x"}, 1j), 0.5, op(1, {1: "z"}))


class TestCoherence:
    def test_z_is_zero_quantum(self):
        assert coherence_orders(op(1, {1: "z"})).orders == {0}

    def test_x_is_single_quantum(self):
        prof = coherence_orders(op(1, {1: "x"}))
        assert prof.orders == {-1, 1}
        assert prof.component_weights[1] == pytest.approx(0.25)

    def test_two_body_xx(self):
        prof = coherence_orders(op(2, {1: "x", 2: "x"}, 2.0))
        assert prof.orders == {-2, 0, 2}

    def test_flip_flop_cancellation(self):
        # I1x I2x + I1y I2y keeps only the p=0 flip-flop part
        poly = PauliPolynomial(
            2, {("X", "X"): 1.0, ("Y", "Y"): 1.0}
        )
        assert coherence_orders(poly).orders == {0}


class TestClassify:
    def test_longitudinal(self):
        assert classify_subspace(op(2, {1: "z", 2: "z"}, 2.0)) is Subspace.LONGITUDINAL

    def test_zero_quantum(self):
        poly = PauliPolynomial(2, {("X", "X"): 1.0, ("Y", "Y"): 1.0})
        assert classify_subspace(poly) is Subspace.ZERO_QUANTUM

    def test_general(self):
        assert classify_subspace(op(1, {1: "x"})) is Subspace.GENERAL

    def test_even_order(self):
        assert classify_subspace(op(2, {1: "x", 2: "x"}, 2.0)) is Subspace.EVEN_ORDER


class TestClosureProperties:
    def test_longitudinal_product_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            a = random_longitudinal_poly(rng, n)
            b = random_longitudinal_poly(rng, n)
            assert classify_subspace(a * b) is Subspace.LONGITUDINAL

    def test_zero_quantum_product_closure(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            a = random_order_poly(rng, n, 0)
            b = random_order_poly(rng, n, 0)
            assert classify_subspace(a) in (Subspace.ZERO_QUANTUM, Subspace.LONGITUDINAL)
            prod = a * b
            assert classify_subspace(prod) in (
                Subspace.ZERO_QUANTUM,
                Subspace.LONGITUDINAL,
            )

    def test_even_order_product(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = 4
            p = int(rng.integers(-1, 2))
            q = int(rng.integers(-1, 2))
            a = random_order_poly(rng, n, 2 * p)
            b = random_order_poly(rng, n, 2 * q)
            prod = a * b
            orders = coherence_orders(prod).orders
            assert orders <= {2 * (p + q)}

    def test_zero_quantum_sandwich_preserves_order(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 60:
            n = 4
            p = int(rng.integers(-2, 3))
            q0 = random_order_poly(rng, n, 0)
            qp = random_order_poly(rng, n, p)
            sandwich = q0 * qp * q0
            if sandwich.is_zero:
                continue  # ladder operators can annihilate; resample
            assert coherence_orders(sandwich).orders == {p}
            done += 1

    def test_poly_product_matches_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            a = PauliPolynomial.from_operators(
                [random_product_op(rng, n) for _ in range(3)]
            )
            b = PauliPolynomial.from_operators(
                [random_product_op(rng, n) for _ in range(3)]
            )
            got = to_matrix(a * b)
            want = to_matrix(a) @ to_matrix(b)
            assert np.max(np.abs(got - want)) < 1e-12


class TestParsing:
    def test_simple_term(self):
        poly = parse_operator("2 I1z I2z")
        assert poly.terms == {("Z", "Z"): 2.0}

    def test_sum_and_case_insensitive_axes(self):
        poly = parse_operator("0.5 I1X + 0.5 I1y")
        assert poly.terms == {("X",): 0.5, ("Y",): 0.5}

    def test_bare_coefficient_is_identity(self):
        poly = parse_operator("3.5", n_spins=2)
        assert poly.terms == {("E", "E"): 3.5}

    def test_default_coefficient(self):
        assert parse_operator("I2x").terms == {("E", "X"): 1.0}

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_operator("2 J1z")
        with pytest.raises(ParseError):
            parse_operator("I1x I1y")
        with pytest.raises(ParseError):
            parse_operator("I3x", n_spins=2)
        with pytest.raises(ParseError):
            parse_operator("foo I1x")


def test_drop_tolerance_prunes_noise():
    poly = PauliPolynomial(1, {("X",): 1e-13, ("Z",): 1.0})
    assert poly.terms == {("Z",): 1.0}


# Property tests against dense matrices built here from conftest's Pauli
# matrices, independently of zzkit.pauli.to_matrix.

_EDGE_ANGLES = (0.0, math.pi, -math.pi, 2 * math.pi)
_ANGLE = st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(-2 * math.pi, 2 * math.pi))
_COEFF = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def _dense(op) -> np.ndarray:
    """Matrix of a ProductOperator or PauliPolynomial, with I = sigma/2."""
    terms = op.terms if isinstance(op, PauliPolynomial) else {op.factors: op.coeff}
    dim = 2**op.n_spins
    out = np.zeros((dim, dim), dtype=complex)
    for factors, coeff in terms.items():
        m = np.array([[coeff]], dtype=complex)
        for f in factors:
            m = np.kron(m, np.eye(2) if f == "E" else 0.5 * PAULI[f])
        out += m
    return out


def _product_ops(n, coeff=_COEFF):
    factors = st.lists(st.sampled_from("EXYZ"), min_size=n, max_size=n).map(tuple)
    return st.builds(ProductOperator, st.just(n), factors, coeff)


def _polys(n):
    return st.lists(_product_ops(n), min_size=1, max_size=4).map(
        PauliPolynomial.from_operators
    )


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 5))
    return draw(_product_ops(n)), draw(_product_ops(n)), draw(_polys(n)), draw(_polys(n))


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_products_and_commutators_match_dense(operands):
    a, b, pa, pb = operands
    da, db, dpa, dpb = (_dense(x) for x in operands)
    assert np.max(np.abs(_dense(multiply(a, b)) - da @ db)) < 1e-12
    assert np.max(np.abs(_dense(commutator(a, b)) - (da @ db - db @ da))) < 1e-12
    assert np.max(np.abs(_dense(pa * pb) - dpa @ dpb)) < 1e-12


@st.composite
def _rotations(draw):
    n = draw(st.integers(1, 5))
    non_unit = st.one_of(
        st.sampled_from((0.5, -0.5, 2.0, -2.0, 3.0)),
        st.floats(-3.0, 3.0).filter(lambda c: abs(abs(c) - 1.0) > 1e-3),
    )
    return draw(_product_ops(n, non_unit)), draw(_ANGLE), draw(_product_ops(n))


@settings(max_examples=150, deadline=None)
@given(_rotations())
def test_conjugate_bch_matches_dense(case):
    generator, angle, target = case
    u = expm(-1j * angle * _dense(generator))
    want = u @ _dense(target) @ u.conj().T
    got = _dense(conjugate_bch(generator, angle, target))
    assert np.max(np.abs(got - want)) < 1e-12


@st.composite
def _sequence_cases(draw):
    """Mixed sequences on 1-5 spins, ZZ and PHASE anywhere, edge angles
    included, with a random polynomial to push through them."""
    n = draw(st.integers(1, 5))
    qubit = st.integers(1, n)
    kinds = ["PHASE", "RX", "RY", "RZ"] + (["ZZ"] if n > 1 else [])
    seq = GateSequence(n)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        a = draw(_ANGLE)
        if kind == "PHASE":
            seq.append(gphase(a))
        elif kind == "ZZ":
            k, l = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            seq.append(zz(k, l, a))
        else:
            seq.append({"RX": rx, "RY": ry, "RZ": rz}[kind](draw(qubit), a))
    return seq, draw(_polys(n))


@settings(max_examples=150, deadline=None)
@given(_sequence_cases())
def test_conjugate_by_sequence_matches_dense(case):
    seq, poly = case
    u = dense_sequence(seq)
    want = u @ _dense(poly) @ u.conj().T
    got = _dense(conjugate_by_sequence(seq, poly))
    assert np.max(np.abs(got - want)) < 1e-12


def _reference_conjugate(seq, poly):
    """The loop conjugate_by_sequence replaces: each distinct gate's rotation
    taken from a ProductOperator generator, _rotate on every non-PHASE gate,
    then DROP_TOL."""
    n = poly.n_spins
    terms = poly._mask_terms()
    rotations = {}
    for gate in seq:
        if gate.kind == "PHASE":
            continue
        key = (gate.kind, gate.qubits, gate.angle)
        if key not in rotations:
            if gate.kind == "ZZ":
                k, l = gate.qubits
                generator = ProductOperator.from_axes(n, {k: "Z", l: "Z"}, 2.0)
            else:
                generator = ProductOperator.from_axes(n, {gate.qubits[0]: gate.kind[1]}, 1.0)
            rotations[key] = _generator_rotation(generator, gate.angle)
        terms = {k: c for k, c in _rotate(terms, rotations[key]).items() if abs(c) >= DROP_TOL}
    return PauliPolynomial._from_masks(n, terms)


def _assert_same_as_reference(seq, poly):
    got = conjugate_by_sequence(seq, poly)
    want = _reference_conjugate(seq, poly)
    assert list(got.terms.items()) == list(want.terms.items())  # keys, order, ==
    assert str(got) == str(want)


_QUARTER_ANGLES = st.one_of(
    st.sampled_from((0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi)),
    st.floats(-2 * math.pi, 2 * math.pi),
)


@st.composite
def _reference_cases(draw):
    """Mixed sequences on 1-6 spins with quarter-turn edge angles and PHASE
    anywhere, with a random polynomial to push through them."""
    n = draw(st.integers(1, 6))
    qubit = st.integers(1, n)
    kinds = ["PHASE", "RX", "RY", "RZ"] + (["ZZ"] if n > 1 else [])
    seq = GateSequence(n)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        a = draw(_QUARTER_ANGLES)
        if kind == "PHASE":
            seq.append(gphase(a))
        elif kind == "ZZ":
            k, l = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            seq.append(zz(k, l, a))
        else:
            seq.append({"RX": rx, "RY": ry, "RZ": rz}[kind](draw(qubit), a))
    return seq, draw(_polys(n))


@settings(max_examples=150, deadline=None)
@given(_reference_cases())
def test_conjugate_by_sequence_equals_reference_loop(case):
    seq, poly = case
    n = seq.n_qubits
    singles = [op(n, {k: axis}) for k in range(1, n + 1) for axis in "xyz"]
    for operand in [poly, *map(PauliPolynomial.from_operator, singles)]:
        _assert_same_as_reference(seq, operand)


@st.composite
def _lowered_diagonals(draw):
    """A lowered random diagonal on 2-7 spins with every I_kz and, for one
    drawn spin k, I_kx and I_ky: an x or y term spreads over many z-strings,
    and all 3n operators at n = 7 take seconds."""
    n = draw(st.integers(2, 7))
    phase = st.one_of(
        st.sampled_from((0.0, math.pi / 2, math.pi, -math.pi)), st.floats(-math.pi, math.pi)
    )
    phases = draw(st.lists(phase, min_size=2**n, max_size=2**n))
    seq = zpoly_to_sequence(phases_to_zpoly(PhaseVector(n, phases)))
    k = draw(st.integers(1, n))
    operators = [op(n, {j: "z"}) for j in range(1, n + 1)] + [op(n, {k: "x"}), op(n, {k: "y"})]
    return seq, [PauliPolynomial.from_operator(o) for o in operators]


@settings(max_examples=12, deadline=None)
@given(_lowered_diagonals())
def test_conjugate_through_lowered_diagonals_equals_reference_loop(case):
    seq, operators = case
    for operand in operators:
        _assert_same_as_reference(seq, operand)


@st.composite
def _coherence_cases(draw):
    """A sum of 1-4 pieces on 1-6 spins: product operators, flip-flop pairs
    I_ix I_jx + I_iy I_jy (whose +-2 parts cancel), pure-Z terms, multiples
    of the identity and fixed-order ladder sums from random_order_poly."""
    n = draw(st.integers(1, 6))
    kinds = ["product", "longitudinal", "identity", "order"] + (["flip-flop"] if n > 1 else [])
    poly = PauliPolynomial.zero(n)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        coeff = draw(_COEFF)
        if kind == "product":
            piece = PauliPolynomial.from_operator(draw(_product_ops(n)))
        elif kind == "longitudinal":
            factors = draw(st.lists(st.sampled_from("EZ"), min_size=n, max_size=n))
            piece = PauliPolynomial(n, {tuple(factors): coeff})
        elif kind == "identity":
            piece = PauliPolynomial.from_operator(ProductOperator.identity(n, coeff))
        elif kind == "order":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            piece = random_order_poly(rng, n, draw(st.integers(-n, n)))
        else:
            i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            piece = PauliPolynomial.from_operators(
                [op(n, {i: "x", j: "x"}, coeff), op(n, {i: "y", j: "y"}, coeff)]
            )
        poly = poly + piece
    return poly


@settings(max_examples=150, deadline=None)
@given(_coherence_cases())
@example(PauliPolynomial(2, {("X", "X"): 1.0, ("Y", "Y"): 1.0}))
@example(PauliPolynomial(3, {("X", "Z", "X"): 0.5j, ("Y", "Z", "Y"): 0.5j, ("Z", "E", "Z"): 2.0}))
@example(PauliPolynomial(4, {("Z", "E", "Z", "Z"): 1.5}))
@example(PauliPolynomial.from_operator(ProductOperator.identity(3, 2.0)))
@example(PauliPolynomial.zero(2))
@example(PauliPolynomial(6, {("X",) * 6: 1.0, ("Y",) * 6: -1.0, ("X", "Y") * 3: 0.5}))
def test_coherence_orders_match_ladder_expansion_and_dense(poly):
    got = coherence_orders(poly)
    want = ladder_order_weights(poly)
    assert got.orders == set(want)
    for p, w in want.items():
        assert abs(got.component_weights[p] - w) <= 1e-12 * w
    rows, cols = np.nonzero(np.abs(_dense(poly)) > 1e-9)
    # a nonzero entry <r|A|c> moves popcount(c) - popcount(r) spins from down to up
    assert got.orders == {int(c).bit_count() - int(r).bit_count() for r, c in zip(rows, cols)}
