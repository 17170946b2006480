"""qiprune: one-shot task-conditioned structured pruning of parameterized
quantum circuits, with deformed-overlap redundancy detection and analytic
drift certificates."""

from .linalg import operator_norm, pure_trace_distance
from .qalgebra import (
    DeformationParams,
    SuqGenerators,
    build_Uq,
    build_cnot_q,
    commutator_contraction_check,
    q_exp,
    q_factorial,
    q_number,
    su2_generators,
)
from .qmetric import (
    QGeometry,
    Tolerance,
    build_geometry,
    calibrate_epsilon,
    d_q,
    d_q_per_state,
    drift_rhs,
    q_inner,
    statewise_deviation_bound,
)
from .circuit import Circuit, Gate, build_ansatz, compile_gate, run, run_fused
from .pruner import (
    CertificateRecord,
    PruneReport,
    certify,
    merge_adjacent_duplicates,
    partition,
    prune,
)
from .tasks import (
    EncodedDataset,
    TaskEnsemble,
    TfimSpec,
    VqeResult,
    build_ensemble,
    build_tfim,
    encode_amplitude,
    evaluate_classifier,
    generate_bas,
    load_idx,
    run_vqe,
    train_classifier,
)
from .verify import CheckResult, check_all, regress_tables

__version__ = "0.1.0"

__all__ = [
    "operator_norm",
    "pure_trace_distance",
    "DeformationParams",
    "SuqGenerators",
    "build_Uq",
    "build_cnot_q",
    "commutator_contraction_check",
    "q_exp",
    "q_factorial",
    "q_number",
    "su2_generators",
    "QGeometry",
    "Tolerance",
    "build_geometry",
    "calibrate_epsilon",
    "d_q",
    "d_q_per_state",
    "drift_rhs",
    "q_inner",
    "statewise_deviation_bound",
    "Circuit",
    "Gate",
    "build_ansatz",
    "compile_gate",
    "run",
    "run_fused",
    "CertificateRecord",
    "PruneReport",
    "certify",
    "merge_adjacent_duplicates",
    "partition",
    "prune",
    "EncodedDataset",
    "TaskEnsemble",
    "TfimSpec",
    "VqeResult",
    "build_ensemble",
    "build_tfim",
    "encode_amplitude",
    "evaluate_classifier",
    "generate_bas",
    "load_idx",
    "run_vqe",
    "train_classifier",
    "CheckResult",
    "check_all",
    "regress_tables",
    "__version__",
]
