"""Calibration toolkit for a deterministic source-sink tree growth model.

The pipeline runs measurement ingestion, physiological-age classification,
direct parameter estimation, growth simulation over fixed or generated
topologies (with a substructure-factorized fast path), and hidden-parameter
recovery by multi-target weighted nonlinear least squares.
"""

__version__ = "0.1.0"

from .calibrate import (
    FitOptions,
    FitProblem,
    FitResult,
    FreeParams,
    fd_jacobian,
    fit_hidden,
    residuals,
    targets_from_trace,
)
from .direct_estim import (
    DirectParams,
    estimate_direct_params,
    estimate_slw,
    fit_allometry,
    fit_sink_ratio,
)
from .engine import (
    HiddenParams,
    SimConfig,
    SimulationTrace,
    analytic_organ_count,
    cohort_counts,
    internode_geometry,
    production,
    simulate,
    simulate_factored,
)
from .export import export_fit_csv, export_organs_csv, export_skeleton, export_trace_csv
from .ingest import (
    MeasurementSet,
    TargetSeries,
    build_target_series,
    parse_measurements,
    samples_by_gu,
    tree_from_json,
    tree_to_json,
)
from .pa_classify import (
    ClusterPartition,
    assign_pa,
    classify_axes,
    cluster_1d,
    top_internode_weight,
)
from .topology import (
    Axis,
    GrowthRules,
    GrowthUnit,
    TreeTopology,
    build_topology,
    generate_topology,
    organ_census,
    with_physio_ages,
)

__all__ = [
    "__version__",
    # topology
    "Axis", "GrowthRules", "GrowthUnit", "TreeTopology", "build_topology",
    "generate_topology", "organ_census", "with_physio_ages",
    # ingest
    "MeasurementSet", "TargetSeries", "build_target_series", "parse_measurements",
    "samples_by_gu", "tree_from_json", "tree_to_json",
    # classification
    "ClusterPartition", "assign_pa", "classify_axes", "cluster_1d",
    "top_internode_weight",
    # direct estimation
    "DirectParams", "estimate_direct_params", "estimate_slw", "fit_allometry",
    "fit_sink_ratio",
    # engine
    "HiddenParams", "SimConfig", "SimulationTrace", "analytic_organ_count",
    "cohort_counts", "internode_geometry", "production", "simulate",
    "simulate_factored",
    # calibration
    "FitOptions", "FitProblem", "FitResult", "FreeParams", "fd_jacobian",
    "fit_hidden", "residuals", "targets_from_trace",
    # export
    "export_fit_csv", "export_organs_csv", "export_skeleton", "export_trace_csv",
]
