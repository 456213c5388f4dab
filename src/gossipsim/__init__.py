"""Rumor spreading with time-dependent credibility on regular graph sequences.

Simulation (PUSH / PULL / PUSH-PULL with per-round acceptance probability
q(t)), exact one-round oracles, closed-form growth/shrink bounds,
stopping-time predictors, and a seeded Monte Carlo harness that checks the
theory empirically.
"""

from .bounds import (
    BoundSet,
    basic_growth_bounds,
    refined_spectral_lower,
    shrink_bounds,
)
from .credibility import (
    Additive,
    Constant,
    Credibility,
    Multiplicative,
    PowerLaw,
    Table,
    format_credibility,
    parse_credibility,
)
from .graphs import (
    CyclicGraphs,
    DynamicGraphSpec,
    GraphSnapshot,
    MatchingSequence,
    ResampledRegular,
    SpectralReport,
    StaticGraph,
    complete_graph,
    conductance,
    cycle_graph,
    generate_random_regular,
    load_graph,
    matching_graph,
    parse_graph_spec,
    save_graph,
    spectral_lambda,
)
from .harness import (
    ExperimentSpec,
    ExperimentSummary,
    RecordLevel,
    TrialRecord,
    export_records,
    export_summary,
    load_records_csv,
    load_records_jsonl,
    run_experiment,
    run_trial,
    summarize,
    verify_suite,
)
from .plotting import plot_trajectories
from .predictor import (
    PhasePlan,
    additive_thresholds,
    fixed_q_runtime,
    general_lower_T,
    general_strong_T,
    multiplicative_thresholds,
    phase_schedule,
    powerlaw_expectation_bound,
    powerlaw_thresholds,
    stirling_product_check,
    tau2_rounds,
    tau2_threshold,
    tau3_rounds,
    tau3_threshold,
)
from .protocol import (
    DeltaDistribution,
    ProcessState,
    ProtocolKind,
    enumerate_joint_distribution,
    exact_delta_expectation,
    growth_factor,
    initial_state,
    sample_delta_sizes,
    step,
    verify_process_properties,
)

__version__ = "0.1.0"
