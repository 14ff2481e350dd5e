"""Quantum coherence measures with a certified robustness SDP solver.

Public surface re-exported here: state construction/sampling, the three
coherence quantifiers, the robustness SDP with certificate verification,
measure-axiom validation, and the Monte-Carlo experiment harnesses.
"""

from .linalg import (
    HermitianEig,
    hermitian_eig,
    partial_trace,
)
from .measures import (
    MeasureKind,
    MeasureValue,
    Method,
    l1_coherence,
    rel_entropy_coherence,
    roc,
    subadditivity_gap,
    theorem1_closed_form,
)
from .sdp import (
    CertificateReport,
    RocSdp,
    RocSolution,
    SolveStatus,
    SolverFailure,
    build,
    solve,
    verify_certificates,
)
from .states import (
    DensityMatrix,
    dephase,
    haar_random_pure,
    load_density,
    maximally_coherent,
    maximally_entangled_two_qubit,
    mix_with_pure,
    projector,
    pure_density,
    random_density,
    save_density,
    sigma_family,
)
from .experiments import (
    Experiment,
    PhiChoice,
    Result2Row,
    SweepAborted,
    SweepConfig,
    SweepRecord,
    Theorem1Row,
    estimate_transition,
    run_and_save,
    run_experiment,
)
from . import validation

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "DensityMatrix",
    "Experiment",
    "HermitianEig",
    "MeasureKind",
    "MeasureValue",
    "Method",
    "PhiChoice",
    "Result2Row",
    "RocSdp",
    "RocSolution",
    "SolveStatus",
    "SolverFailure",
    "SweepAborted",
    "SweepConfig",
    "SweepRecord",
    "Theorem1Row",
    "build",
    "dephase",
    "estimate_transition",
    "haar_random_pure",
    "hermitian_eig",
    "l1_coherence",
    "load_density",
    "maximally_coherent",
    "maximally_entangled_two_qubit",
    "mix_with_pure",
    "partial_trace",
    "projector",
    "pure_density",
    "random_density",
    "rel_entropy_coherence",
    "roc",
    "run_and_save",
    "run_experiment",
    "save_density",
    "sigma_family",
    "solve",
    "subadditivity_gap",
    "theorem1_closed_form",
    "validation",
    "verify_certificates",
]
