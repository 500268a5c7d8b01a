"""Numerical toolkit for magic (non-stabilizerness) measures, cloning and
broadcasting machines, and broadcasting-unitary optimization experiments.
"""

from .states import (
    DensityMatrix,
    PureState,
    bloch_batch,
    bloch_from_density,
    h_state,
    haar_random_pure,
    partial_trace,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
)
from .stabilizers import (
    clifford_group_1q,
    stabilizer_states,
)
from .polytope import (
    GeometryCertificate,
    broadcast_geometry_certificate,
    line_polytope_intersections,
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
    unrestricted_broadcast_batch,
    wz_output,
    wz_output_magic,
)
from .optimize import (
    BroadcastOutcome,
    OptimizerConfig,
    batch_experiment,
    build_unitary,
    isres_optimize,
)
from .checks import VerificationReport, run_suite, suite_names

__version__ = "0.1.0"
