import dataclasses
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PAULI,
    dense_sequence,
    gate_sequences,
    ladder_order_weights,
    random_basis_op,
    random_longitudinal_poly,
    random_order_poly,
    random_product_op,
)
from zzkit.gates import Gate, GateSequence, ParseError
from zzkit import pauli as pauli_module
from zzkit.diagonal import PhaseVector, ZPolynomial, phases_to_zpoly, zpoly_to_sequence
from zzkit.pauli import (
    DROP_TOL,
    CoherenceProfile,
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
    to_matrix,
    _anticommute,
    _generator_rotation,
    _product,
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

    def test_time_is_linear_in_the_spin_count(self):
        # Factors read from the masks by one shift of an n-bit int per spin
        # cost O(n**2): about 20 s at 10**6 spins on 2 vCPU.
        start = time.perf_counter()
        a, b = parse_operator("I1000000x"), parse_operator("I1z I1000000y")
        assert str(a * b) == "0.5i I1z I1000000z"
        assert str(multiply(next(a.operators()), next(b.operators()))) == "0.5i I1z I1000000z"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"products at 10**6 spins took {elapsed:.2f}s, past 5s"


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
                commutator(pa, commutator(pb, pc))
                + commutator(pb, commutator(pc, pa))
                + commutator(pc, commutator(pa, pb))
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

    @pytest.mark.parametrize(
        "text",
        [
            "1e200 I1x I2x",  # one class
            "2e154 I1x + 2e154 I2x",  # two classes of one size, 1e308 each
            "2e154 I1x + 5e154 I1x I2x I3x",  # 1e308 and 1.2e308 at p = +-1
        ],
    )
    def test_weight_overflow_refused(self, text):
        with pytest.raises(ValueError, match="overflows the float range"):
            coherence_orders(parse_operator(text))

    def test_amplitude_cap_refused_before_allocation(self, monkeypatch):
        # 25 transverse spins would take 2**25 amplitudes, past 4**12
        zeros = np.zeros

        def capped(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 4**12:
                raise AssertionError(f"a {shape} array must not be allocated")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(pauli_module.np, "zeros", capped)
        text = " ".join(f"I{i}x" for i in range(1, 26))
        with pytest.raises(ValueError, match="33554432 ladder amplitudes, past the cap of 16777216"):
            coherence_orders(parse_operator(text))
        assert pauli_module.MAX_ORDER_AMPLITUDES == 4**12

    @pytest.mark.parametrize(
        "text, refused",
        [
            ("I1x I2x I3x I4x", False),  # one class of 2**4 = 16 amplitudes
            ("I1x I2x I3x I4x I5x", True),  # 32
            ("I1x I2y I3x + I1y I2x I3y", False),  # one class, Y read as X: 8
            ("I1x I2x I3x + I1x I2x I4x", False),  # two classes of 2**3: 16
            ("I1x I2x I3x + I1x I2x I4x + I1x I3x I4x", True),  # 24
            ("I1x I2x I3x I4x + I1x I2x I3x + I1x I2x I4x", False),  # 16 and 16
        ],
    )
    def test_amplitude_cap_counts_each_class_size(self, monkeypatch, text, refused):
        monkeypatch.setattr(pauli_module, "MAX_ORDER_AMPLITUDES", 16)
        poly = parse_operator(text)
        if refused:
            with pytest.raises(ValueError, match="past the cap of 16"):
                coherence_orders(poly)
        else:
            assert coherence_orders(poly).orders


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

    def test_given_profile_skips_the_transform(self, monkeypatch):
        ops = [
            op(2, {1: "z", 2: "z"}, 2.0),
            PauliPolynomial(2, {("X", "X"): 1.0, ("Y", "Y"): 1.0}),
            op(1, {1: "x"}),
            op(2, {1: "x", 2: "x"}, 2.0),
        ]
        cases = [(a, coherence_orders(a), classify_subspace(a)) for a in ops]

        def refuse(poly):
            raise AssertionError("the profile was given; the transform must not run")

        monkeypatch.setattr(pauli_module, "coherence_orders", refuse)
        for a, profile, want in cases:
            assert classify_subspace(a, profile) is want


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_coefficients_refused(value):
    with pytest.raises(ValueError, match=re.escape(f"coefficient must be finite, got {value!r}")):
        ProductOperator(1, ("X",), value)
    with pytest.raises(ValueError, match=rf"coefficient of \('X',\) must be finite"):
        PauliPolynomial(1, {("X",): value, ("Z",): 1.0})


@pytest.mark.parametrize(
    "result, message",
    [
        (lambda: parse_operator("1e200 I1x") * parse_operator("1e200 I1x"),
         "coefficient of ('E',) must be finite, got (inf+nanj)"),
        (lambda: commutator(parse_operator("1e200 I1x"), parse_operator("1e200 I1y")),
         "coefficient of ('Z',) must be finite, got (nan+nanj)"),
        (lambda: parse_operator("1.7e308 I1x") + parse_operator("1.7e308 I1x"),
         "coefficient of ('X',) must be finite, got (inf+0j)"),
        (lambda: parse_operator("1e200 I1x") * 1e300,
         "coefficient of ('X',) must be finite, got (inf+0j)"),
    ],
    ids=["square", "commutator", "sum", "scalar"],
)
def test_non_finite_results_refused(result, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        result()


@pytest.mark.parametrize(
    "factors, message",
    [
        (("X",), "term ('X',) does not match 2 spins"),
        (("X", "Y", "Z"), "term ('X', 'Y', 'Z') does not match 2 spins"),
        (("X", "Q"), "unknown factors in ('X', 'Q')"),
        (("x", "E"), "unknown factors in ('x', 'E')"),
        ((), "need at least one spin"),  # no factors: on 0 spins
    ],
)
def test_both_term_types_share_one_factors_rule(factors, message):
    n = 2 if factors else 0
    with pytest.raises(ValueError, match=re.escape(message)):
        ProductOperator(n, factors)
    with pytest.raises(ValueError, match=re.escape(message)):
        PauliPolynomial(n, {factors: 1.0})


def test_factors_are_stored_as_a_tuple():
    assert ProductOperator(2, ["X", "Z"]).factors == ("X", "Z")
    assert PauliPolynomial(2, {"XZ": 1.0}).terms == {("X", "Z"): 1.0}
    # PauliPolynomial keeps (x, z) masks, spin q on bit q - 1
    assert PauliPolynomial(3, {("X", "E", "Z"): 1}).strings == {(0b001, 0b100): 1}


def test_strings_are_keyed_by_mask_and_terms_is_a_copy():
    poly = PauliPolynomial(3, {("Z", "E", "Z"): 0.5, "XEE": -1.0, ("E", "Y", "E"): 2.0})
    assert poly.strings == {(0b000, 0b101): 0.5, (0b001, 0b000): -1.0, (0b010, 0b010): 2.0}
    view = poly.terms
    assert list(view) == [("Z", "E", "Z"), ("X", "E", "E"), ("E", "Y", "E")]
    view[("Z", "Z", "Z")] = 1.0
    del view[("Z", "E", "Z")]
    assert list(poly.terms.items()) == [
        (("Z", "E", "Z"), 0.5), (("X", "E", "E"), -1.0), (("E", "Y", "E"), 2.0)
    ]
    with pytest.raises(AttributeError):
        poly.terms = {}
    # a Z string on spins S has the key ZPolynomial.terms gives S
    for spins in [(1,), (2,), (1, 3), (1, 2, 3)]:
        z_string = PauliPolynomial.from_operator(op(3, {q: "z" for q in spins}))
        assert list(z_string.strings) == [(0, *ZPolynomial(3, 0.0, {spins: 1.0}).terms)]


def test_profile_orders_are_read_from_its_weights():
    assert [f.name for f in dataclasses.fields(CoherenceProfile)] == ["component_weights"]
    profile = CoherenceProfile({-1: 0.25, 0: 0.0, 1: 0.25})
    assert profile.orders == {-1, 1}
    profile.component_weights[2] = 1.0
    assert profile.orders == {-1, 1, 2}
    assert coherence_orders(op(2, {1: "x", 2: "z"})) == CoherenceProfile({-1: 0.25, 1: 0.25})


_P = PauliPolynomial(2, {("X", "Y"): 0.5, ("Z", "E"): 2.0 - 1.0j})
_Q = PauliPolynomial(2, {("Z", "E"): 1.5, ("E", "Y"): -0.25j})


@pytest.mark.parametrize(
    "expr",
    [
        lambda p, q: p * (0.5 - 2.0j),
        lambda p, q: (0.5 - 2.0j) * p,
        lambda p, q: -p,
        lambda p, q: p - q,
        lambda p, q: p - p,
    ],
    ids=["scalar-right", "scalar-left", "negation", "p-q", "p-p"],
)
def test_polynomial_arithmetic_matches_dense(expr):
    got = expr(_P, _Q)
    assert isinstance(got, PauliPolynomial)
    want = expr(to_matrix(_P), to_matrix(_Q))
    assert np.max(np.abs(to_matrix(got) - want)) < 1e-15


def test_allclose_needs_equal_spin_counts():
    assert PauliPolynomial.zero(1).allclose(PauliPolynomial.zero(1))
    assert not PauliPolynomial.zero(1).allclose(PauliPolynomial.zero(2))
    assert not parse_operator("I1z", n_spins=1).allclose(parse_operator("I1z", n_spins=2))


@pytest.mark.parametrize(
    "text, n_spins, error, message",
    [
        ("I1x + ", None, ParseError, "empty term in operator 'I1x + '"),
        ("I1x + + I2y", None, ParseError, "empty term in operator 'I1x + + I2y'"),
        ("", None, ParseError, "empty term in operator ''"),
        ("I0x", None, ParseError, "spin indices are 1-based, got 'I0x'"),
        ("2 I1z I00y", None, ParseError, "spin indices are 1-based, got 'I00y'"),
        ("I100000000x", None, ValueError,
         "1 term(s) on 100000000 spins need 100000000 factors, past the cap of 16777216"),
        ("I1x + I1y", 8388609, ValueError,
         "2 term(s) on 8388609 spins need 16777218 factors, past the cap of 16777216"),
    ],
)
def test_parse_refusals_name_the_cause(monkeypatch, text, n_spins, error, message):
    # No refused operator builds a term.
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a refused operator must build no term")

    monkeypatch.setattr(ProductOperator, "from_axes", classmethod(refuse))
    with pytest.raises(error, match=re.escape(message)):
        parse_operator(text, n_spins)
    assert pauli_module.MAX_ORDER_AMPLITUDES == 4**12


@pytest.mark.parametrize(
    "text, n_spins, refused",
    [
        ("I16x", None, False),  # 1 term on 16 spins: 16 factors
        ("I17x", None, True),  # 17
        ("I1x + I2y + I3z + I4x", None, False),  # 4 terms on 4 spins: 16
        ("I1x + I2y + I3z + I4x + 2", None, True),  # 5 on 4: 20
        ("I1x + I1y", 8, False),  # 16
        ("I1x + I1y", 9, True),  # 18
    ],
)
def test_parse_budget_counts_terms_times_spins(monkeypatch, text, n_spins, refused):
    monkeypatch.setattr(pauli_module, "MAX_ORDER_AMPLITUDES", 16)
    if refused:
        with pytest.raises(ValueError, match="factors, past the cap of 16$"):
            parse_operator(text, n_spins)
    else:
        poly = parse_operator(text, n_spins)
        assert len(poly.terms) * poly.n_spins <= 16


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


def _reference_pair_sum(n_spins, left, right, commutators):
    """The scalar loop products and commutators replace: every term pair in
    scan order, one Python complex product and one dict sum each."""
    pairs = list(right.items())
    out = {}
    for (xa, za), ca in left.items():
        for (xb, zb), cb in pairs:
            if commutators and not _anticommute(xa, za, xb, zb):
                continue
            x, z, s = _product(xa, za, xb, zb)
            c = ca * cb * s
            out[(x, z)] = out.get((x, z), 0.0) + (2.0 * c if commutators else c)
    return PauliPolynomial._of(n_spins, out)


def _reference_orders(poly):
    """coherence_orders with its spin bits built from binary strings."""
    strings = poly.strings
    n, m = poly.n_spins, len(strings)
    text = "".join(f"{xm:0{n}b}"[::-1] + f"{xm & zm:0{n}b}"[::-1] for xm, zm in strings)
    bits = np.frombuffer(text.encode(), np.uint8).reshape(m, 2, n) == ord("1")
    x, y = bits[:, 0], bits[:, 1]
    k = x.sum(axis=1)
    index = (y << np.maximum(np.cumsum(x, axis=1) - 1, 0)).sum(axis=1)
    powers = pauli_module._I_POWER_ARRAY[y.sum(axis=1) & 3]
    coeffs = np.fromiter(strings.values(), complex, m) * powers
    groups, row_of_term = {}, []
    for (xm, zm), kk in zip(strings, k.tolist()):
        group = groups.setdefault(kk, {})
        row_of_term.append(group.setdefault((xm, zm & ~xm), len(group)))
    for kk, group in groups.items():
        if len(group) << kk > pauli_module.MAX_ORDER_AMPLITUDES:
            raise ValueError(f"{len(group)} term class(es) with {kk} transverse spins need "
                             f"{len(group) << kk} ladder amplitudes, past the cap of "
                             f"{pauli_module.MAX_ORDER_AMPLITUDES}")
    rows = np.array(row_of_term, dtype=np.int64)
    weights = {}
    for kk, group in sorted(groups.items()):
        sel = k == kk
        a = np.zeros((len(group), 2**kk), dtype=complex)
        a[rows[sel], index[sel]] = coeffs[sel]
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.abs(pauli_module._walsh_hadamard_rows(a)) * 2.0**-kk
            power = np.where(mag < DROP_TOL, 0.0, mag * mag).sum(axis=0)
        for s, w in enumerate(power.tolist()):
            if w != 0.0:
                p = 2 * s.bit_count() - kk
                w += weights.get(p, 0.0)
                if not math.isfinite(w):
                    raise ValueError(f"weight of order p={p:+d} overflows the float range")
                weights[p] = w
    return weights


def _outcome(compute):
    """A result's (masks, repr(coefficient)) items, signed zeros told apart,
    or the message of the ValueError it raises."""
    try:
        result = compute()
    except ValueError as exc:
        return str(exc)
    if isinstance(result, dict):
        return list(result.items())
    return [(key, repr(c)) for key, c in result.strings.items()]


_EDGE_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e200, -1e200, 1.5e200, 1e-12)
_PART = st.one_of(st.sampled_from(_EDGE_PARTS), st.floats(-3.0, 3.0))


@st.composite
def _mask_polys(draw):
    """Two polynomials on n spins, either one possibly empty, drawn as
    masks: some on a few low spins, so that products share keys, and some
    anywhere in the register, across word boundaries at n = 63-65 and 130."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 130)))
    mask = st.one_of(st.integers(0, 2 ** min(n, 3) - 1), st.integers(0, 2**n - 1))
    term = st.tuples(st.tuples(mask, mask), st.builds(complex, _PART, _PART))
    polys = [PauliPolynomial._of(n, dict(draw(st.lists(term, max_size=7)))) for _ in "ab"]
    return n, *polys


@settings(max_examples=300, deadline=None)
@given(_mask_polys())
@example((65, PauliPolynomial.zero(65), parse_operator("I65x + 2 I1z I64y", 65)))
@example((1, parse_operator("1e200 I1x + 1e200 I1y"), parse_operator("-1e200 I1x + 1e200 I1z")))
def test_products_and_commutators_equal_reference_loop(case):
    n, a, b = case
    for block in (pauli_module._BLOCK_WORDS, 1):
        with pytest.MonkeyPatch.context() as patch:
            # one left term per block: later blocks start from the sums so far
            patch.setattr(pauli_module, "_BLOCK_WORDS", block)
            for fast, commutators in ((lambda: a * b, False), (lambda: commutator(a, b), True)):
                want = _outcome(lambda: _reference_pair_sum(n, a.strings, b.strings, commutators))
                assert _outcome(fast) == want
    # transverse spins only on a few spins, across the word boundaries, so
    # that each class needs at most 2**7 ladder amplitudes
    spread = sum(1 << q for q in (0, 1, 2, 62, 63, 64, n - 1) if q < n)
    for poly in (a, b):
        poly = PauliPolynomial._of(n, {(x & spread, z): c for (x, z), c in poly.strings.items()})
        assert _outcome(lambda: coherence_orders(poly).component_weights) == _outcome(
            lambda: _reference_orders(poly))


def test_a_hash_collision_is_found_and_regrouped(monkeypatch):
    a = parse_operator("I1x + I2y + 0.5 I1z I2z + I1y I2x")
    b = parse_operator("I1y + 2 I2x + 0.25 I1x I2z")
    want = [_outcome(lambda: a * b), _outcome(lambda: commutator(a, b))]
    hashes, salts = pauli_module._key_hashes, []

    def collide_first(keys, salt):
        salts.append(salt)
        return hashes(keys, salt) * (salt > 0)  # salt 0 puts every key in one group

    monkeypatch.setattr(pauli_module, "_key_hashes", collide_first)
    assert [_outcome(lambda: a * b), _outcome(lambda: commutator(a, b))] == want
    assert salts == [0, 1, 0, 1]


def test_products_take_product_operators_on_either_side():
    poly = parse_operator("I1x + 0.5 I2z", 2)
    x1, y1 = op(2, {1: "x"}), op(2, {1: "y"})
    assert (poly * y1).strings == (poly * PauliPolynomial.from_operator(y1)).strings
    assert (y1 * poly).strings == (PauliPolynomial.from_operator(y1) * poly).strings
    # the product does not commute: I1y I1x = -(i/2) I1z, I1x I1y = (i/2) I1z
    assert (y1 * PauliPolynomial.from_operator(x1)).terms == {("Z", "E"): -0.5j}
    assert (PauliPolynomial.from_operator(x1) * y1).terms == {("Z", "E"): 0.5j}
    assert (2 * poly).strings == (poly * 2).strings == {(1, 0): 2.0, (0, 2): 1.0}
    with pytest.raises(ValueError, match="spin counts differ"):
        poly * op(3, {1: "x"})
    with pytest.raises(TypeError, match="by non-int of type 'PauliPolynomial'"):
        poly * "a"
    with pytest.raises(TypeError, match=re.escape(
            "unsupported operand type(s) for *: 'PauliPolynomial' and 'object'")):
        poly * object()
    with pytest.raises(TypeError, match=re.escape(
            "unsupported operand type(s) for *: 'object' and 'PauliPolynomial'")):
        object() * poly


@pytest.mark.parametrize("gate", [Gate("RZ", (3,), 0.5), Gate("ZZ", (1, 3), 0.5),
                                  Gate("RX", (4,), 0.5)])
def test_conjugation_refuses_a_gate_past_the_register(gate):
    seq = GateSequence(2, [Gate("RZ", (1,), 0.25)])
    seq.gates.append(gate)  # past GateSequence's own check
    # I2z commutes with every gate here, so no rotation is ever built
    with pytest.raises(ValueError, match=re.escape(f"gate {gate} exceeds register of 2 spin(s)")):
        conjugate_by_sequence(seq, op(2, {2: "z"}))


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
    seq = draw(gate_sequences((1, 5), _ANGLE, max_size=30))
    return seq, draw(_polys(seq.n_qubits))


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
    terms = poly.strings
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
    return PauliPolynomial._of(n, terms)


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
    seq = draw(gate_sequences((1, 6), _QUARTER_ANGLES, max_size=40))
    return seq, draw(_polys(seq.n_qubits))


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
    # each I_kz comes through as the one Z string on spin k, key (0, 1 << (k - 1))
    for k, operand in enumerate(operators[: seq.n_qubits], 1):
        assert list(conjugate_by_sequence(seq, operand).strings) == [(0, 1 << (k - 1))]


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
# an identity term of exactly DROP_TOL: kept by coherence_orders, so the dense
# oracle must count an entry of that size too
@example(PauliPolynomial(1, {("X",): 1.766 - 0.027j, ("Y",): 0.027 + 0.766j, ("E",): 1e-12j}))
def test_coherence_orders_match_ladder_expansion_and_dense(poly):
    got = coherence_orders(poly)
    want = ladder_order_weights(poly)
    assert got.orders == set(want)
    for p, w in want.items():
        assert abs(got.component_weights[p] - w) <= 1e-12 * w
    rows, cols = np.nonzero(np.abs(_dense(poly)) >= DROP_TOL)
    # a nonzero entry <r|A|c> moves popcount(c) - popcount(r) spins from down to up
    assert got.orders == {int(c).bit_count() - int(r).bit_count() for r, c in zip(rows, cols)}
