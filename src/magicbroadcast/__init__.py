"""Numerical toolkit for magic (non-stabilizerness) measures, cloning and
broadcasting machines, and broadcasting-unitary optimization experiments.
"""

from .states import (
    BlochVector,
    DensityMatrix,
    PureState,
    apply_unitary,
    bloch_batch,
    bloch_from_density,
    density_from_bloch,
    fidelity_pure_mixed,
    h_state,
    haar_random_pure,
    partial_trace,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
    tensor,
)
from .stabilizers import (
    StabilizerSet,
    clifford_group_1q,
    stabilizer_states,
)
from .polytope import (
    GeometryCertificate,
    broadcast_geometry_certificate,
    line_polytope_intersections,
    polytope_membership,
)
from .measures import (
    MagicReport,
    magic_power,
    magic_report,
    rom_batch,
    rom_lp_oracle,
    rom_qubit,
    sre2_extended,
    sre2_pure,
    witness_d,
)
from .cloners import (
    BHParams,
    BroadcasterSpec,
    WZParams,
    bh_input_amps,
    bh_magic,
    bh_output,
    m_ratio,
    maximal_magic_spec,
    superposition_magic,
    theorem2_falsify,
    unrestricted_broadcast,
    unrestricted_broadcast_batch,
    wz_broadcast_check,
    wz_output,
    wz_output_magic,
)
from .optimize import (
    BroadcastOutcome,
    OptimizerConfig,
    UnitaryParams15,
    batch_experiment,
    build_unitary,
    isres_optimize,
    objective_magic,
    objective_state,
)
from .checks import VerificationReport, run_suite, suite_names

__version__ = "0.1.0"
