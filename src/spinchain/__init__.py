"""Pulse-level simulator for quantum-state transport on spin-qubit chains.

Gaussian exchange pulses realise SWAP and CNOT gates between neighbouring
sites; circuits shuttle an entangled pair down a chain or a two-row
ladder, under unitary dynamics or Markovian dephasing/amplitude damping.
"""

from .calibration import (
    CALIBRATION_STATES,
    CalibrationProblem,
    CalibrationResult,
    calibrate,
    calibrated_gate_params,
    nelder_mead,
    objective,
)
from .circuits import (
    ChainTopology,
    FidelityMap,
    ParamState,
    TransportCircuit,
    build_transport_circuit,
    default_map_grid,
    evolve_lindblad_product,
    fidelity_difference_map,
    fit_cos_two_phi,
    transport_fidelity,
    zero_contour,
)
from .dynamics import (
    IntegratorConfig,
    NOISELESS,
    NoiseModel,
    NumericalError,
    TraceDriftError,
    gate_fidelity,
    slot_unitary,
)
from .hamiltonians import (
    DEFAULT_CNOT_COUPLING_PARAMS,
    DEFAULT_CNOT_LOCAL_PARAMS,
    DEFAULT_SWAP_PARAMS,
    GATE_KINDS,
    GateSpec,
    cnot_gate,
    ideal_gate_matrix,
    rotated_cnot_gate,
    swap_gate,
)
from .operators import (
    fidelity_to_pure,
    pauli,
)
from .pulses import (
    PulseSchedule,
    schedule_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "CALIBRATION_STATES",
    "CalibrationProblem",
    "CalibrationResult",
    "ChainTopology",
    "DEFAULT_CNOT_COUPLING_PARAMS",
    "DEFAULT_CNOT_LOCAL_PARAMS",
    "DEFAULT_SWAP_PARAMS",
    "FidelityMap",
    "GATE_KINDS",
    "GateSpec",
    "IntegratorConfig",
    "NOISELESS",
    "NoiseModel",
    "NumericalError",
    "ParamState",
    "PulseSchedule",
    "TraceDriftError",
    "TransportCircuit",
    "build_transport_circuit",
    "calibrate",
    "calibrated_gate_params",
    "cnot_gate",
    "default_map_grid",
    "evolve_lindblad_product",
    "fidelity_difference_map",
    "fidelity_to_pure",
    "fit_cos_two_phi",
    "gate_fidelity",
    "ideal_gate_matrix",
    "nelder_mead",
    "objective",
    "pauli",
    "rotated_cnot_gate",
    "schedule_sequence",
    "slot_unitary",
    "swap_gate",
    "transport_fidelity",
    "zero_contour",
]
