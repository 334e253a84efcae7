"""zzkit: exact lowering of diagonal unitaries and controlled gates to
one-qubit rotations plus two-qubit ZZ phase gates, verified against a dense
simulator, with pulse-level realization planners.

A public name imports its submodule on first use (PEP 562), so a process
loads only the submodules it calls: ``zzkit compile`` loads no numpy.  The
name is looked up in its submodule on every access and never stored here,
so a wrapper set on the submodule is seen through ``zzkit.<name>`` and is
gone once it is removed.
"""

import importlib as _importlib

_NAMES = {
    "compilers": """U2Params build_grover_iteration build_walsh_hadamard
        compile_conditional_phase compile_controlled_u compile_deutsch_jozsa decompose_u2
        simulate_grover""".split(),
    "diagonal": """ZPolynomial compile_phases phases_to_zpoly reduce_zstring zpoly_to_phases
        zpoly_to_sequence""".split(),
    "gates": """Gate GateCounts GateSequence ParseError PhaseVector TruthTable gate_counts
        gphase normalize_angle read_sequence rx ry rz write_sequence zz""".split(),
    "pauli": """CoherenceProfile PauliPolynomial ProductOperator Subspace classify_subspace
        coherence_orders commutator conjugate_bch conjugate_by_sequence multiply
        parse_operator""".split(),
    "pulses": """CouplingGraph IonPulseParams PulseSchedule average_hamiltonian
        build_refocus_schedule group_spins ion_pulse_params relay_sequence""".split(),
    "simulator": """apply_gate apply_sequence distance_up_to_phase exponential_of_zpoly
        sequence_unitary u2_from_params universal_gate_matrix zero_state""".split(),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_NAMES, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _NAMES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
