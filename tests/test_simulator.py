import ast
import cmath
import math
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_gate, dense_sequence, gate_sequences, random_sequence
import zzkit
from zzkit import compilers, diagonal, gates, pulses, simulator
from zzkit.compilers import build_grover_iteration, simulate_grover
from zzkit.diagonal import PhaseVector, ZPolynomial, phases_to_zpoly, reduce_zstring, zpoly_to_sequence
from zzkit.gates import GateSequence, gphase, rx, ry, rz, zz
from zzkit.simulator import (
    apply_gate,
    apply_sequence,
    distance_up_to_phase,
    exponential_of_zpoly,
    sequence_unitary,
    universal_gate_matrix,
    zero_state,
)


class TestApplyGate:
    def test_rz_on_zero_state(self):
        state = apply_gate(rz(1, 0.6), zero_state(1))
        assert abs(state[0] - cmath.exp(-0.3j)) < 1e-15

    def test_zz_on_01(self):
        lam = 1.1
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # |01>
        state = apply_gate(zz(1, 2, lam), state)
        assert abs(state[1] - cmath.exp(0.5j * lam)) < 1e-15

    def test_ry_additivity(self):
        a = sequence_unitary(GateSequence(1, [ry(1, math.pi / 2), ry(1, math.pi / 2)]))
        b = sequence_unitary(GateSequence(1, [ry(1, math.pi)]))
        assert np.max(np.abs(a - b)) < 1e-15

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(3)
        state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state /= np.linalg.norm(state)
        for seq in (random_sequence(rng, 3, 30) for _ in range(5)):
            for g in seq:
                state = apply_gate(g, state)
                assert abs(np.linalg.norm(state) - 1.0) < 1e-9

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(rz(3, 0.1), zero_state(2))


class TestSequenceUnitary:
    def test_empty_is_identity(self):
        u = sequence_unitary(GateSequence(2))
        assert np.array_equal(u, np.eye(4))

    def test_inverse_pair(self):
        u = sequence_unitary(GateSequence(1, [rx(1, math.pi / 2), rx(1, -math.pi / 2)]))
        assert np.max(np.abs(u - np.eye(2))) < 1e-15

    def test_three_body_reduction_vs_diagonal(self):
        lam = 0.7
        seq = reduce_zstring((1, 2, 3), lam, 3)
        xs = np.arange(8)
        signs = np.ones(8)
        for q in (1, 2, 3):
            signs *= 1.0 - 2.0 * ((xs >> (3 - q)) & 1)
        want = np.diag(np.exp(-1j * lam * 0.5 * signs))
        assert np.max(np.abs(sequence_unitary(seq) - want)) < 1e-12

    def test_matches_independent_dense_product(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            seq = random_sequence(rng, n, 25)
            assert np.max(np.abs(sequence_unitary(seq) - dense_sequence(seq))) < 1e-12

    def test_sequence_followed_by_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            seq = random_sequence(rng, n, 20)
            both = GateSequence(n, seq.gates + seq.inverse().gates)
            assert np.max(np.abs(sequence_unitary(both) - np.eye(2**n))) < 1e-10

    def test_cap(self):
        with pytest.raises(ValueError, match="13 qubits exceeds the dense cap of 12"):
            sequence_unitary(GateSequence(13))

    def test_target_builder_checks_the_cap_before_allocating(self):
        with pytest.raises(ValueError, match="40 qubits exceeds the dense cap of 12"):
            universal_gate_matrix(np.eye(2), 40)


class TestDistanceUpToPhase:
    def test_equal(self):
        u = dense_sequence(random_sequence(np.random.default_rng(6), 2, 10))
        assert distance_up_to_phase(u, u) == 0.0

    def test_global_phase_ignored(self):
        u = dense_sequence(random_sequence(np.random.default_rng(7), 2, 10))
        assert distance_up_to_phase(u, cmath.exp(1j * math.pi / 7) * u) < 1e-15

    def test_permutation_far_from_identity(self):
        x = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
        assert distance_up_to_phase(np.eye(4, dtype=complex), x) >= 1.0

    def test_pseudometric(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u, v, w = (dense_sequence(random_sequence(rng, 2, 12)) for _ in range(3))
            duv = distance_up_to_phase(u, v)
            dvu = distance_up_to_phase(v, u)
            assert duv == pytest.approx(dvu, abs=1e-9)
            assert duv <= distance_up_to_phase(u, w) + distance_up_to_phase(w, v) + 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_zero_trace_distance_independent_of_roundoff(self, n):
        # tr(H^dagger G) is zero in exact arithmetic for the search iterate G
        # with marked state 0 and the Hadamard H; its computed value is
        # roundoff, which must not set the phase of the comparison.
        h = np.array([[1.0]])
        for _ in range(n):
            h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
        seq = build_grover_iteration(n, 0)
        fused = distance_up_to_phase(sequence_unitary(seq), h)
        dense = distance_up_to_phase(dense_sequence(seq), h)
        assert abs(fused - dense) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance_up_to_phase(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


class TestExponentialOfZPoly:
    def test_zero_poly(self):
        assert np.array_equal(exponential_of_zpoly(ZPolynomial(2)), np.eye(4))

    def test_single_pair_is_zz_matrix(self):
        lam = 0.9
        u = exponential_of_zpoly(ZPolynomial(2, 0.0, {(1, 2): lam}))
        want = np.diag(
            [
                cmath.exp(-0.5j * lam),
                cmath.exp(0.5j * lam),
                cmath.exp(0.5j * lam),
                cmath.exp(-0.5j * lam),
            ]
        )
        assert np.max(np.abs(u - want)) < 1e-15

    def test_matches_synthesized_sequence(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            theta = rng.uniform(-math.pi, math.pi, size=2**n)
            zp = phases_to_zpoly(PhaseVector(n, theta))
            got = sequence_unitary(zpoly_to_sequence(zp))
            assert np.max(np.abs(got - exponential_of_zpoly(zp))) < 1e-10


class TestGrover:
    def test_uniform_start(self):
        assert simulate_grover(1, 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_exact_hit_two_qubits(self):
        for marked in range(4):
            assert simulate_grover(2, marked, 1) == pytest.approx(1.0, abs=1e-10)

    def test_three_qubits_two_iterations(self):
        want = math.sin(5 * math.asin(1 / math.sqrt(8))) ** 2
        assert simulate_grover(3, 5, 2) == pytest.approx(want, abs=1e-9)
        assert simulate_grover(3, 5, 2) == pytest.approx(0.9453, abs=1e-4)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            simulate_grover(2, 4, 1)


def test_apply_sequence_checks_register():
    with pytest.raises(ValueError):
        apply_sequence(GateSequence(3, [rz(1, 0.1)]), zero_state(2))


@pytest.mark.parametrize(
    "seq, length, message",
    [
        (GateSequence(2), 3, "length 3 is not a power of two"),
        (GateSequence(1), 0, "length 0 is not a power of two"),
    ],
)
def test_apply_sequence_refusals(seq, length, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_sequence(seq, np.ones(length, dtype=complex))


_EDGE_ANGLES = (0.0, math.pi, -math.pi, 2 * math.pi)


# Short mixed sequences on 1-8 qubits.  Few qubits and many gates make gates
# both revisit a pending block's qubits and overflow the block into a new one.
_MIXED_SEQUENCES = gate_sequences(
    (1, 8), st.one_of(st.sampled_from(_EDGE_ANGLES), st.floats(-2 * math.pi, 2 * math.pi)),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_MIXED_SEQUENCES, st.integers(0, 2**32 - 1))
def test_fused_and_gatewise_paths_match_dense(seq, seed):
    n = seq.n_qubits
    want = dense_sequence(seq)
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    start /= np.linalg.norm(start)
    # Run every sequence both gate by gate and fused, whatever its size.
    for fuse_min_amps in (1, 2**62):
        with mock.patch.object(simulator, "FUSE_MIN_AMPS", fuse_min_amps):
            assert np.max(np.abs(sequence_unitary(seq) - want)) < 1e-12
            state = start.copy()
            out = apply_sequence(seq, state)
        assert out is state  # the caller's array, updated in place
        assert np.max(np.abs(state - want @ start)) < 1e-12


def test_phase_gate_is_scalar():
    u = sequence_unitary(GateSequence(2, [gphase(0.4)]))
    assert np.max(np.abs(u - cmath.exp(-0.4j) * np.eye(4))) < 1e-15


@pytest.mark.parametrize("gate", [rx(3, 0.7), ry(10, -2.1), zz(1, 9, 1.3), gphase(0.4)], ids=str)
def test_single_gate_on_large_state(gate):
    """A state at or above FUSE_MIN_AMPS takes the fused path even for one
    gate, and builds no per-gate kernel wider than a block."""
    n = 10
    assert 2**n >= simulator.FUSE_MIN_AMPS
    rng = np.random.default_rng(11)
    state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    want = dense_gate(gate, n) @ state
    widths = []
    real_kernel = simulator._GateKernel

    def kernel(k, trail):
        widths.append(k)
        return real_kernel(k, trail)

    with mock.patch.object(simulator, "_GateKernel", kernel):
        out = apply_gate(gate, state)
    assert out is state
    assert np.max(np.abs(state - want)) < 1e-12
    assert all(k <= simulator.BLOCK_QUBITS for k in widths)


def _package_imports(module) -> set[str]:
    """The zzkit modules a module's source imports, as written (".gates")."""
    imports = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            if node.module is None:  # from . import name
                imports.update(prefix + alias.name for alias in node.names)
            else:
                imports.add(prefix + node.module)
        elif isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
    return {name for name in imports if name.startswith(".") or name.split(".")[0] == "zzkit"}


def test_simulator_imports_only_what_it_referees_against():
    """The referee imports neither the compilers nor the product-operator
    algebra, nor the lowering: from the package, only the gate set."""
    assert _package_imports(simulator) == {".gates"}


@pytest.mark.parametrize("module", [diagonal, compilers, pulses, gates], ids=lambda m: m.__name__)
def test_lowering_and_pulses_do_not_import_the_algebra(module):
    """DROP_TOL lives in gates and the Walsh butterfly in diagonal, so the
    modules below the product-operator algebra do not import it."""
    assert not {".pauli", "zzkit.pauli"} & _package_imports(module)


def test_public_annotations_resolve():
    """Every public callable's annotations name types its module imports."""
    for name in dir(zzkit):
        obj = getattr(zzkit, name)
        if name.startswith("_") or not callable(obj):
            continue
        typing.get_type_hints(obj)
        for attr, member in vars(obj).items() if isinstance(obj, type) else ():
            if not attr.startswith("_") and callable(member):
                typing.get_type_hints(member)
