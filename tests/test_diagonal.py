import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_sequence, write_json
from zzkit.compilers import gate_counts
from zzkit.diagonal import (
    PhaseVector,
    ZPolynomial,
    compile_phases,
    load_phase_vector,
    phases_to_zpoly,
    reduce_zstring,
    zpoly_to_phases,
    zpoly_to_sequence,
)
from zzkit.gates import GateSequence, ParseError, format_sequence, gphase, rx, ry, rz, zz
from zzkit.pauli import DROP_TOL


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
        assert np.all(np.asarray(pv.phases) == 0.0)
        zp = ZPolynomial(
            2,
            math.pi / 4,
            {(1,): -math.pi / 2, (2,): -math.pi / 2, (1, 2): math.pi / 2},
        )
        pv = zpoly_to_phases(zp)
        assert np.max(np.abs(np.asarray(pv.phases) - [0.0, 0.0, 0.0, math.pi])) < 1e-15

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

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.floats(-math.pi, math.pi), min_size=2**n, max_size=2**n)))
    def test_coefficients_match_the_oracle(self, theta):
        # drawn phases are not symmetric under a swap of spins, so a term
        # filed under the wrong spins is caught; each dropped term moves a
        # phase by less than DROP_TOL / 2
        n = len(theta).bit_length() - 1
        zp = phases_to_zpoly(PhaseVector(n, theta))
        assert np.max(np.abs(np.diag(zpoly_diagonal(zp)) - np.exp(-1j * np.array(theta)))) < 1e-9
        # the transform's unchecked terms are what the checked constructor builds
        assert ZPolynomial(n, zp.constant, zp.coeffs) == zp


def numpy_phases_to_zpoly(n, phases):
    """Reference: the Walsh transform as one batched numpy butterfly over a
    (rows, 2**n) array, stride h = 1, 2, 4, ..., each block [a, b] becoming
    [a + b, a - b]; its masks by a transpose of the (2,)*n index grid, and
    refusals by the checked ZPolynomial constructor."""
    a = np.asarray(phases, dtype=float)[None, :]
    h = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while h < 2**n:
            a = a.reshape(1, -1, 2, h)
            b = np.empty_like(a)
            np.add(a[:, :, 0], a[:, :, 1], out=b[:, :, 0])
            np.subtract(a[:, :, 0], a[:, :, 1], out=b[:, :, 1])
            a, h = b, 2 * h
    f = a.reshape(2**n)
    coeffs = f[1:] * 2.0 ** (1 - n)
    masks = np.arange(2**n).reshape((2,) * n).T.ravel()[1:]
    for i in np.flatnonzero(~np.isfinite(coeffs))[:1]:
        spins = tuple(q for q in range(1, n + 1) if masks[i] >> (q - 1) & 1)
        ZPolynomial(n, 0.0, {spins: coeffs[i]})  # refuses it
    keep = np.flatnonzero(np.abs(coeffs) >= DROP_TOL)
    zp = ZPolynomial(n, f[0] / 2**n)
    zp.terms = dict(zip(masks[keep].tolist(), coeffs[keep].tolist()))
    return zp


_BIG = 1.7e308
_MODERATE = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1e-13, -1e-13, -0.0, 0.0]))
_EXTREME = st.one_of(
    _MODERATE,
    st.sampled_from([_BIG, -_BIG, 0.5 * _BIG, -0.5 * _BIG]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def phase_lists(draw):
    """2**n phases, n = 1..10, moderate or with values near the float limit.
    Past n = 6 a list would overrun hypothesis's buffer, so the bulk comes
    from a drawn seed and up to 8 drawn values sit at drawn positions."""
    n = draw(st.integers(1, 10))
    values = draw(st.sampled_from([_MODERATE, _EXTREME]))
    if n <= 6:
        return draw(st.lists(values, min_size=2**n, max_size=2**n))
    phases = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-4.0, 4.0, 2**n)
    for _ in range(draw(st.integers(0, 8))):
        phases[draw(st.integers(0, 2**n - 1))] = draw(values)
    return phases.tolist()


@settings(deadline=None, max_examples=150)
@given(phase_lists())
def test_python_butterfly_is_bit_identical_to_numpy(phases):
    """Every coefficient and the constant equal the numpy butterfly's with
    ==, or both refuse with the same message.  Where no sum of 2**n phases
    can overflow, the terms round-trip."""
    n = len(phases).bit_length() - 1
    pv = PhaseVector(n, phases)
    try:
        want = numpy_phases_to_zpoly(n, phases)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            phases_to_zpoly(pv)
        assert str(info.value) == str(exc)
        return
    got = phases_to_zpoly(pv)
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.constant == want.constant
    scale = max(1.0, max(map(abs, phases)))
    if scale * 2**n < 1e308:
        back = zpoly_to_phases(got).phases
        assert max(abs(x - y) for x, y in zip(back, phases)) <= 1e-12 * scale


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_dense_diagonal_counts(self, n):
        theta = np.random.default_rng(200 + n).uniform(-math.pi, math.pi, 2**n)
        counts = gate_counts(compile_phases(n, theta))
        if n <= 3:
            # the ordered walk: 2^n - n - 1 innermost ZZ, and each of the
            # 2^(n-1) - n basis-change prefixes is opened and closed once
            assert counts.zz == 2 ** (n + 1) - 3 * n - 1
            assert counts.one_qubit == 3 * 2**n - 5 * n
        else:
            # pivots 2 and 3 walk (6 ZZ, 6 one-qubit); pivot t >= 4 is a Gray
            # cycle of 2^(t-1) ZZ and 2^(t-1) + 1 one-qubit gates; n RZ
            assert counts.zz == 2**n - 2
            assert counts.one_qubit == 2**n + 2 * n - 5


_EDGE_COEFFS = [
    s * a
    for s in (1, -1)
    for a in (math.pi / 2, math.pi, 2 * math.pi, math.nextafter(DROP_TOL, 1), 1.5 * DROP_TOL)
]


@st.composite
def sparse_zpolys(draw):
    n = draw(st.integers(1, 6))
    coeff = st.one_of(
        st.sampled_from(_EDGE_COEFFS),
        st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False),
    )
    subsets = st.frozensets(st.integers(1, n), min_size=1).map(lambda s: tuple(sorted(s)))
    coeffs = draw(st.dictionaries(subsets, coeff, max_size=12))
    return ZPolynomial(n, draw(coeff), coeffs)


@settings(deadline=None, max_examples=150)
@given(sparse_zpolys())
def test_walk_is_exact_and_never_longer(zp):
    seq = zpoly_to_sequence(zp)
    # plain distance: the global phase must match too
    assert np.max(np.abs(dense_sequence(seq) - zpoly_diagonal(zp))) < 1e-10
    sizes = [len(s) for s in zp.coeffs]
    counts = gate_counts(seq)
    assert counts.zz <= sum(2 * m - 3 for m in sizes if m > 1)
    assert counts.one_qubit <= sum(6 * (m - 2) for m in sizes if m > 1) + sizes.count(1)


def _reference_lowering(zp, gray=True):
    """The paper's recursion with V built from fresh gates on every level and
    one GateSequence per subset, emitted in order of the reversed spin tuple.
    Where consecutive strings share their k outermost basis changes, the 4k
    gates that close the first and the 4k that reopen them are dropped.

    With ``gray``, each pivot whose strings use k >= 3 lower spins is instead
    lowered by the Gray block below when that block is no longer in ZZ nor in
    one-qubit gates; both lowerings are built and counted here."""

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

    def wrappers(subset):  # its (dropped, pivot) basis changes, outermost first
        return [(q, subset[-1]) for q in reversed(subset[1:-1])]

    def shared(a, b):
        k = 0
        for wa, wb in zip(wrappers(a), wrappers(b)):
            if wa != wb:
                break
            k += 1
        return k

    def walk(strings):
        seq = GateSequence(zp.n_qubits)
        for i, subset in enumerate(strings):
            part = GateSequence(zp.n_qubits)
            reduce_into(part, subset, zp.coeffs[subset])
            head = shared(strings[i - 1], subset) if i > 0 else 0
            tail = shared(subset, strings[i + 1]) if i + 1 < len(strings) else 0
            seq.extend(part.gates[4 * head : len(part) - 4 * tail])
        return seq

    def gray_block(pivot, strings):
        # the reflected Gray cycle over the lower spins, listed explicitly;
        # bit j of a code is the j-th smallest lower spin
        spins = sorted({q for subset in strings for q in subset[:-1]})
        k = len(spins)
        codes = [i ^ (i >> 1) for i in range(2**k)] + [0]
        by_code = {}
        for subset in strings:
            by_code[sum(1 << spins.index(q) for q in subset[:-1])] = zp.coeffs[subset]
        seq = GateSequence(zp.n_qubits, [ry(pivot, math.pi / 2)])
        sign = 1
        for step in range(1, len(codes)):
            flipped = codes[step - 1] ^ codes[step]
            bit = flipped.bit_length() - 1
            entering = 1 if codes[step] & flipped else -1
            seq.append(zz(spins[bit], pivot, entering * math.pi / 2))
            # Z_pivot after RY(pi/2) and `step` ZZs: the product of the ZZ
            # signs times (-1)^(step // 2), on X for even steps, Y for odd
            sign *= entering
            a = by_code.get(codes[step])
            if a is not None:
                frame = sign * (-1) ** (step // 2)
                seq.append((rx if step % 2 == 0 else ry)(pivot, frame * a))
        seq.append(ry(pivot, -math.pi / 2))
        return seq, k

    seq = GateSequence(zp.n_qubits)
    if zp.constant != 0.0:
        seq.append(gphase(zp.constant))
    for subset in sorted(s for s in zp.coeffs if len(s) == 1):
        seq.append(rz(subset[0], zp.coeffs[subset]))
    strings = sorted((s for s in zp.coeffs if len(s) > 1), key=lambda s: s[::-1])
    for pivot in sorted({s[-1] for s in strings}):
        group = [s for s in strings if s[-1] == pivot]
        part = walk(group)
        if gray:
            block, k = gray_block(pivot, group)
            walk_counts, block_counts = gate_counts(part), gate_counts(block)
            if (
                k >= 3
                and block_counts.zz <= walk_counts.zz
                and block_counts.one_qubit <= walk_counts.one_qubit
            ):
                part = block
        seq.extend(part)
    return seq


@st.composite
def partly_dense_zpolys(draw):
    """Each of the 2^n - 1 subsets present with a drawn density, so that some
    pivots are lowered by the Gray cycle and some by the walk."""
    n = draw(st.integers(4, 7))
    density = draw(st.sampled_from([0.25, 0.5, 0.75, 0.9, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    masks = [m for m in range(1, 2**n) if rnd.random() < density]
    coeff = st.one_of(
        st.sampled_from(_EDGE_COEFFS),
        st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False),
    )
    values = draw(st.lists(coeff, min_size=len(masks), max_size=len(masks)))
    coeffs = {
        tuple(q for q in range(1, n + 1) if m >> (q - 1) & 1): a for m, a in zip(masks, values)
    }
    return ZPolynomial(n, draw(coeff), coeffs)


@settings(deadline=None, max_examples=60)
@given(partly_dense_zpolys())
def test_gray_cycle_is_exact_and_never_longer_than_the_walk(zp):
    seq = zpoly_to_sequence(zp)
    assert np.max(np.abs(dense_sequence(seq) - zpoly_diagonal(zp))) < 1e-10
    counts, walk = gate_counts(seq), gate_counts(_reference_lowering(zp, gray=False))
    assert counts.zz <= walk.zz
    assert counts.one_qubit <= walk.one_qubit
    # the per-pivot choice, made from counts alone, matches building both
    assert format_sequence(seq) == format_sequence(_reference_lowering(zp))


@pytest.mark.parametrize("n", range(1, 13))
def test_lowering_text_equals_reference_recursion(n):
    rng = np.random.default_rng(100 + n)
    vectors = []
    if n <= 8:
        vectors = [rng.uniform(-math.pi, math.pi, 2**n) for _ in range(3)]
        vectors.append(math.pi * rng.integers(0, 2, 2**n))  # a truth table: quarter turns
    for theta in vectors:
        zp = phases_to_zpoly(PhaseVector(n, theta))
        want = format_sequence(_reference_lowering(zp))
        assert format_sequence(zpoly_to_sequence(zp)) == want
        assert format_sequence(compile_phases(n, theta)) == want
    if n >= 4:
        # sparse: pivot n keeps the walk over its n - 1 lower spins, and its
        # consecutive strings share the wrappers n - 1 and n - 2; for n >= 5
        # pivot 4 is dense, a Gray cycle; random strings fall on other pivots
        coeffs = {(q, n - 2, n - 1, n): 0.1 * q for q in range(1, n - 2)}
        if n >= 5:
            coeffs.update({tuple(q for q in range(1, 5) if m >> (q - 1) & 1): 0.05 * m
                           for m in range(9, 16)})
        for _ in range(6):
            size = int(rng.integers(2, n))
            subset = rng.choice(np.arange(1, n), size, replace=False)
            coeffs[tuple(sorted(subset.tolist()))] = float(rng.uniform(-math.pi, math.pi))
        zp = ZPolynomial(n, 0.2, coeffs)
        want = format_sequence(_reference_lowering(zp))
        assert format_sequence(zpoly_to_sequence(zp)) == want
        # the walk/cycle tie: pivot 4 alone, lower masks {1, 2, 3, 5}, so s = 4
        # and w = 2; both plans cost 8 ZZ, and the cycle wins on one-qubit
        # gates, 6 against the walk's 12
        tie = ZPolynomial(n, 0.0, {(1, 4): 0.4, (2, 4): -0.7, (1, 2, 4): 1.1, (1, 3, 4): 0.25})
        seq = zpoly_to_sequence(tie)
        assert format_sequence(seq) == format_sequence(_reference_lowering(tie))
        assert (gate_counts(seq).zz, gate_counts(seq).one_qubit) == (8, 6)
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
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            ZPolynomial(2, 0.0, {(1.5, 2): 0.3})  # not truncated to (1, 2)
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            reduce_zstring((1.5, 2, 3), 0.5)  # not lowered as (1, 2, 3)
        zp = ZPolynomial(2, 1e-14, {(1,): 1e-14, (2,): 0.5})
        assert zp.constant == 0.0
        assert set(zp.coeffs) == {(2,)}

    def test_terms_are_keyed_by_mask_and_coeffs_is_a_copy(self):
        zp = ZPolynomial(3, 0.5, {(3, 1): 0.25, (2,): -0.75})
        assert zp.terms == {0b101: 0.25, 0b010: -0.75}  # spin q on bit q - 1
        view = zp.coeffs
        assert view == {(1, 3): 0.25, (2,): -0.75}
        assert all(list(key) == sorted(key) for key in view)
        view[(1,)] = 1.0
        del view[(2,)]
        assert zp.coeffs == {(1, 3): 0.25, (2,): -0.75}
        assert zp == ZPolynomial(3, 0.5, {(1, 3): 0.25, (2,): -0.75})
        with pytest.raises(AttributeError):
            zp.coeffs = {}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_zpoly_refuses_non_finite(self, value):
        message = rf"coefficient of \(1, 2\) must be finite, got {value}"
        with pytest.raises(ValueError, match=message):
            ZPolynomial(2, 0.0, {(2, 1): value, (1,): 0.5})
        with pytest.raises(ValueError, match=f"constant must be finite, got {value}"):
            ZPolynomial(2, value, {(1,): 0.5})
        # finite phases whose Walsh coefficient of spin n overflows to value;
        # a NaN was once dropped as if below DROP_TOL
        big = 1.7e308
        phases = {
            "nan": [big, -big, -big, big, big, -big, big, -big],
            "inf": [big, -big, big, -big],
            "-inf": [big, big, -big, big],
        }[repr(value)]
        n = len(phases).bit_length() - 1
        with pytest.raises(ValueError, match=rf"coefficient of \({n},\) must be finite, got {value}"):
            phases_to_zpoly(PhaseVector(n, phases))
        with pytest.raises(ValueError, match="constant must be finite, got inf"):
            phases_to_zpoly(PhaseVector(1, [big, big]))

    def test_phase_vector_file_roundtrip(self, tmp_path):
        phases = [0.0, 0.25, -1.5, math.pi]
        back = load_phase_vector(write_json(tmp_path / "pv.json", {"n": 2, "phases": phases}))
        assert back.n_qubits == 2
        assert list(back.phases) == phases

    def test_bad_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_phase_vector(path)
        # a well-formed document with a value the vector refuses is a
        # semantic error: the vector's own ValueError, not a ParseError
        for doc, message in (
            ('{"n": 2, "phases": [0.0]}', "expected 4 phases"),
            ('{"n": 1, "phases": [NaN, 0.0]}', "phases must be finite"),
        ):
            path.write_text(doc)
            with pytest.raises(ValueError, match=message) as info:
                load_phase_vector(path)
            assert not isinstance(info.value, ParseError)
        # a missing field, an integer field holding a float, a bool or a
        # string, or a number field holding a string, a bool or an integer
        # past the float range, is a parse error: nothing is truncated or
        # converted
        for doc in (
            '{"n": 2}',
            '{"n": 1, "phases": ["0.5", true]}',
            '{"n": 1, "phases": [0.5, true]}',
            '{"n": 1, "phases": [0.5, 1' + "0" * 400 + "]}",
            '{"n": 2.7, "phases": [0.0, 0.0, 0.0, 0.0]}',
            '{"n": true, "phases": [0.0, 0.0]}',
            '{"n": "2", "phases": [0.0, 0.0, 0.0, 0.0]}',
        ):
            path.write_text(doc)
            with pytest.raises(ParseError):
                load_phase_vector(path)
