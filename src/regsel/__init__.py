"""regsel: feature selection and regression diagnostics.

Typed tabular ingestion with explicit missing-data policies, treatment-coded
design matrices, a rank-revealing OLS core, influence diagnostics (leverage,
Cook's distance, PRESS, DFFITS), VIF-based multicollinearity pruning,
AIC-driven forward/backward/stepwise term selection, and seeded Monte Carlo
cross-validation with MSPE reporting.
"""

from .table import (
    ColumnRole,
    DesignMatrix,
    RawTable,
    Schema,
    Term,
    coerce_to_factor,
    drop_incomplete_rows,
    drop_sparse_columns,
    encode_design,
    load_table,
    merge_by_id,
    model_formula,
    read_schema,
    write_schema,
    write_table,
)
from .ols import (
    FitStatistics,
    FittedModel,
    adjusted_r_squared,
    aic_full_value,
    aic_selection_value,
    coefficient_table,
    fit_ols,
    fit_statistics,
    format_summary,
    predict,
    refit_log_response,
    write_summary,
)
from .influence import (
    AddedVariable,
    InfluenceReport,
    VifReport,
    added_variable_data,
    cooks_distance,
    dffits,
    influence_flags,
    interpolated_quantile,
    press_residuals,
    studentized,
    vif,
    vif_prune,
)
from .stepwise import (
    ComparisonTable,
    Move,
    Scope,
    SelectionTrace,
    compare_models,
    format_trace,
    step_select,
    step_select_modes,
)
from .crossval import (
    CVConfig,
    CVResult,
    FiveNumberSummary,
    emit_mspe_boxplot_data,
    five_number_summary,
    mc_cross_validate,
    replication_rng,
    replication_split,
    write_mspe_dump,
    write_mspe_summary,
)
from .pipeline import (
    PipelineError,
    ReportBundle,
    RunConfig,
    run_pipeline,
    run_stage,
    write_reference_config,
)
from .report import residual_diagnostics

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
