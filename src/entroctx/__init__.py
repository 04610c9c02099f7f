"""Entropic tests of noncontextuality on cyclic observable sets.

Exact two-qubit simulation of cyclically commuting Pauli observables,
Shannon-entropy evaluation of the cycle witness M, a hidden-variable
oracle for the classical bound M <= 0, shot-noise and readout-noise
modeling, and reconciliation against a bundled reference dataset.
"""

from .contexts import (
    MeasurementContext,
    OutcomeDistribution,
    basis_change_gates,
    basis_change_unitary,
    coarse_labels,
    coarsen,
    export_measurement_circuit,
    joint_distribution_coarse,
    joint_distribution_fine,
)
from .entropy import (
    EntropyReport,
    entropies_from_counts,
    estimate_entropy,
    evaluate_m_cycle,
    shannon_entropy,
)
from .ncmodels import (
    FeasibilityResult,
    NCModel,
    lp_feasibility,
    m_of_model,
    m_of_models_batch,
    model_marginals,
)
from .pauli import (
    OBSERVABLE_SETS,
    TABLE1_OBSERVABLES,
    TABLE2_OBSERVABLES,
    PauliString,
    as_pauli,
    commutes,
    eigenprojectors,
    matrix,
    verify_cycle,
)
from .pipeline import (
    EXACT,
    IDEAL_CLASSIFICATION,
    ExperimentConfig,
    IngestResult,
    RunResult,
    config_from_dict,
    config_to_dict,
    context_file_stem,
    cycle_contexts,
    exact_m,
    export_qasm_suite,
    format_reconciliation,
    ingest_counts,
    ingest_counts_files,
    load_config,
    lp_tolerance_for,
    preset_config,
    reproduce_reference,
    resolve_observables,
    run_experiment,
    sweep,
    sweep_summary,
    write_sampled_counts,
)
from .refdata import REFERENCE_RUNS
from .reports import (
    read_counts,
    read_entropies_file,
    read_report,
    read_sweep_csv,
    write_counts,
    write_report,
    write_sweep_csv,
)
from .sampling import (
    CountsRecord,
    DepolarizingFit,
    NoiseModel,
    apply_noise,
    fit_depolarizing,
    sample_counts,
)
from .statevec import (
    PRESET_S1,
    PRESET_S2,
    GateOp,
    QuantumState,
    StatePrepSpec,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    prepare_state,
    synthesize_prep_circuit,
)

__version__ = "0.1.0"
