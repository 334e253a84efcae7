"""zzkit: exact lowering of diagonal unitaries and controlled gates to
one-qubit rotations plus two-qubit ZZ phase gates, verified against a dense
simulator, with pulse-level realization planners."""

from .compilers import (
    GateCounts,
    TruthTable,
    U2Params,
    build_grover_iteration,
    build_walsh_hadamard,
    compile_conditional_phase,
    compile_controlled_u,
    compile_deutsch_jozsa,
    decompose_u2,
    gate_counts,
    simulate_grover,
    u2_from_params,
    universal_gate_matrix,
)
from .diagonal import (
    PhaseVector,
    ZPolynomial,
    compile_phases,
    phases_to_zpoly,
    reduce_zstring,
    zpoly_to_phases,
    zpoly_to_sequence,
)
from .gates import (
    Gate,
    GateSequence,
    ParseError,
    gphase,
    normalize_angle,
    read_sequence,
    rx,
    ry,
    rz,
    write_sequence,
    zz,
)
from .pauli import (
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
)
from .pulses import (
    CouplingGraph,
    IonPulseParams,
    PulseSchedule,
    average_hamiltonian,
    build_refocus_schedule,
    group_spins,
    ion_pulse_params,
    relay_sequence,
)
from .simulator import (
    apply_gate,
    apply_sequence,
    distance_up_to_phase,
    exponential_of_zpoly,
    sequence_unitary,
    zero_state,
)

__version__ = "0.1.0"
