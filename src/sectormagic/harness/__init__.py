"""Experiment harness: streaming statistics and the KS test, record/CSV
export, config parsing, deterministic parallel experiment drivers and the
command line."""

from .stats import SummaryStats
from .records import (
    CSV_HEADER,
    RunRecord,
    format_value,
    render_csv,
    write_csv,
    write_jsonl,
    write_summary,
)
from .config import ConfigError, parse_config_text, load_config
from .experiments import (
    run_ensemble_experiment,
    run_variance_convergence,
    run_disorder_sweep,
    run_mixed_charge,
    run_asymptotic_collapse,
    run_self_averaging,
    run_pe_check,
    resolve_threads,
)

__all__ = [
    "SummaryStats",
    "RunRecord",
    "CSV_HEADER",
    "format_value",
    "render_csv",
    "write_csv",
    "write_jsonl",
    "write_summary",
    "ConfigError",
    "parse_config_text",
    "load_config",
    "run_ensemble_experiment",
    "run_variance_convergence",
    "run_disorder_sweep",
    "run_mixed_charge",
    "run_asymptotic_collapse",
    "run_self_averaging",
    "run_pe_check",
    "resolve_threads",
]
