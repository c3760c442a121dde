"""Numerical toolkit for simulating quantum decoherence.

Core pieces: a dense linear-algebra substrate (`core`), Kraus channels
(`channels`), Markovian master equations and their integrator (`lindblad`),
the standard decoherence model families (`models`), decoherence measures
(`measures`), protection schemes (`protection`), diffusive trajectory
unravelings (`trajectories`), and a declarative scenario runner
(`scenario`, CLI in `cli`).
"""

from .core import (
    DensityMatrix,
    FockSpace,
    Grid1D,
    Operator,
    StateVector,
    bloch_state,
    coherent_state,
    eigh,
    expectation,
    partial_trace,
    tensor,
    tensor_state,
)
from .channels import (
    KrausChannel,
    MeasurementOperatorSet,
    apply_channel,
    check_complete_positivity,
    check_convex_linearity,
    indirect_measurement,
    kraus_from_unitary,
)
from .lindblad import (
    BornMarkovCoefficients,
    CorrelationKernelSpec,
    ExtraTerm,
    IntegratorConfig,
    LindbladGenerator,
    apply_generator,
    born_markov_coefficients,
    born_markov_generator,
    evolve,
    lindblad_repair_caldeira_leggett,
    ohmic_spectral_density,
    propagate,
    pure_dephasing_qubit,
)
from .measures import (
    SieveReport,
    WignerField,
    pointer_commutator_residual,
    predictability_sieve,
    purity,
    quantum_mutual_information,
    von_neumann_entropy,
    wigner,
)
from .protection import (
    CodeState,
    DFSResult,
    apply_phase_error,
    correct_three_bit,
    dfs_dimension_collective,
    encode_three_bit,
    find_dfs,
)
from .trajectories import (
    TrajectoryConfig,
    TrajectoryEnsemble,
    ensemble_statistics,
    unravel,
)
from . import constants, models, scenario

__version__ = "0.1.0"
