"""The package namespace: every public name resolves to its submodule's
current attribute, and nothing is imported or stored before it is used."""

import importlib

import pytest

import zzkit

# The names `import zzkit` bound eagerly before the namespace became lazy,
# by the submodule that defined each then.  Each path still resolves: the
# records and readers that moved to `gates` are re-exported where they were
# (see MOVED), and u2_from_params moved to the dense referee, `simulator`.
PUBLIC = {
    "compilers": [
        "GateCounts", "TruthTable", "U2Params", "build_grover_iteration",
        "build_walsh_hadamard", "compile_conditional_phase", "compile_controlled_u",
        "compile_deutsch_jozsa", "decompose_u2", "gate_counts", "simulate_grover",
    ],
    "diagonal": [
        "PhaseVector", "ZPolynomial", "compile_phases", "phases_to_zpoly",
        "reduce_zstring", "zpoly_to_phases", "zpoly_to_sequence",
    ],
    "gates": [
        "Gate", "GateSequence", "ParseError", "gphase", "normalize_angle",
        "read_sequence", "rx", "ry", "rz", "write_sequence", "zz",
    ],
    "pauli": [
        "CoherenceProfile", "PauliPolynomial", "ProductOperator", "Subspace",
        "classify_subspace", "coherence_orders", "commutator", "conjugate_bch",
        "conjugate_by_sequence", "multiply", "parse_operator",
    ],
    "pulses": [
        "CouplingGraph", "IonPulseParams", "PulseSchedule", "average_hamiltonian",
        "build_refocus_schedule", "group_spins", "ion_pulse_params", "relay_sequence",
    ],
    "simulator": [
        "apply_gate", "apply_sequence", "distance_up_to_phase", "exponential_of_zpoly",
        "sequence_unitary", "u2_from_params", "universal_gate_matrix", "zero_state",
    ],
}

# Names that `gates` defines, by the module that defined them before and
# re-exports them, so that `verify` loads neither of those modules.
MOVED = {
    "compilers": ["GateCounts", "TruthTable", "gate_counts", "load_truth_table",
                  "load_u2_matrix", "_u2_fields"],
    "diagonal": ["PhaseVector", "load_phase_vector", "MAX_COMPILE_QUBITS",
                 "check_compile_cap"],
}


@pytest.mark.parametrize(
    "module, name", [(m, name) for m, names in PUBLIC.items() for name in names]
)
def test_public_name_is_the_submodule_attribute(module, name):
    assert getattr(zzkit, name) is getattr(importlib.import_module(f"zzkit.{module}"), name)


@pytest.mark.parametrize(
    "module, name", [(m, name) for m, names in MOVED.items() for name in names]
)
def test_a_moved_name_is_the_gates_attribute_at_its_old_path(module, name):
    gates = importlib.import_module("zzkit.gates")
    assert getattr(importlib.import_module(f"zzkit.{module}"), name) is getattr(gates, name)
    assert zzkit._OWNER.get(name, "gates") == "gates"


@pytest.mark.parametrize("module", list(PUBLIC))
def test_submodule_names_resolve(module):
    assert getattr(zzkit, module) is importlib.import_module(f"zzkit.{module}")


def test_version():
    assert zzkit.__version__ == "0.1.0"


def test_a_patched_attribute_is_seen_and_not_kept(monkeypatch):
    original = zzkit.diagonal.compile_phases

    def f(n, phases):
        raise AssertionError("not called")

    monkeypatch.setattr(zzkit.diagonal, "compile_phases", f)
    assert zzkit.compile_phases is f
    monkeypatch.undo()
    assert zzkit.compile_phases is original
    assert "compile_phases" not in vars(zzkit)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from zzkit import *", namespace)
    namespace.pop("__builtins__")
    want = {name for names in PUBLIC.values() for name in names} | set(PUBLIC)
    assert set(namespace) == want
    assert all(namespace[name] is getattr(zzkit, name) for name in want)


def test_dir_lists_the_public_names():
    assert {name for names in PUBLIC.values() for name in names} | set(PUBLIC) <= set(dir(zzkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'zzkit' has no attribute 'nope'"):
        zzkit.nope
