"""Experiment runners regenerating every table and figure of the paper's Section 7.

Mapping (see docs/architecture.md for the full index; the paper's claims on
these rows are checked by :mod:`repro.experiments.claims`):

* Table 2  — :func:`repro.experiments.complexity.run_complexity_experiment`
* Figure 4 — :func:`repro.experiments.centralized.run_centralized_error_experiment`
* Table 3  — :func:`repro.experiments.centralized.run_update_rate_experiment`
* Figure 5 — :func:`repro.experiments.distributed.run_distributed_error_experiment`
* Table 4  — :func:`repro.experiments.distributed.run_centralized_vs_distributed_experiment`
* Figure 6 — :func:`repro.experiments.network_size.run_network_size_experiment`
* Ablations (epsilon split, merge replay, propagation period, window
  model) — :mod:`repro.experiments.ablations`
* Cross-stream inner products (Theorem 2, beyond the paper's tables) —
  :func:`repro.experiments.ablations.run_inner_product_experiment`
* Frequent items (Section 6.1, beyond the paper's tables) —
  :func:`repro.experiments.frequent_items.run_frequent_items_experiment`
"""

from .ablations import (
    EpsilonSplitRow,
    InnerProductRow,
    MergeStrategyRow,
    PropagationPeriodRow,
    WindowModelRow,
    format_epsilon_split_rows,
    format_inner_product_rows,
    format_merge_strategy_rows,
    format_propagation_period_rows,
    format_window_model_rows,
    run_epsilon_split_ablation,
    run_inner_product_experiment,
    run_merge_strategy_ablation,
    run_propagation_period_ablation,
    run_window_model_ablation,
)
from .centralized import (
    CentralizedErrorRow,
    UpdateRateRow,
    format_centralized_rows,
    format_update_rate_rows,
    median_rate_ratio,
    run_centralized_error_experiment,
    run_update_rate_experiment,
)
from .common import (
    DEFAULT_DELTA,
    DEFAULT_EPSILONS,
    PAPER_WINDOW_SECONDS,
    VARIANT_LABELS,
    DatasetSpec,
    build_sketch,
    dataset_specs,
    load_dataset,
    max_arrivals_bound,
)
from .complexity import ComplexityRow, format_complexity_rows, run_complexity_experiment
from .distributed import (
    CentralizedVsDistributedRow,
    DistributedErrorRow,
    format_centralized_vs_distributed_rows,
    format_distributed_rows,
    run_centralized_vs_distributed_experiment,
    run_distributed_error_experiment,
)
from .frequent_items import (
    FrequentItemsRow,
    format_frequent_items_rows,
    run_frequent_items_experiment,
)
from .network_size import (
    DEFAULT_NETWORK_SIZES,
    NetworkSizeRow,
    format_network_size_rows,
    run_network_size_experiment,
)

__all__ = [
    "PAPER_WINDOW_SECONDS",
    "DEFAULT_EPSILONS",
    "DEFAULT_DELTA",
    "VARIANT_LABELS",
    "DatasetSpec",
    "dataset_specs",
    "load_dataset",
    "build_sketch",
    "max_arrivals_bound",
    "CentralizedErrorRow",
    "UpdateRateRow",
    "run_centralized_error_experiment",
    "run_update_rate_experiment",
    "median_rate_ratio",
    "format_centralized_rows",
    "format_update_rate_rows",
    "DistributedErrorRow",
    "CentralizedVsDistributedRow",
    "run_distributed_error_experiment",
    "run_centralized_vs_distributed_experiment",
    "format_distributed_rows",
    "format_centralized_vs_distributed_rows",
    "NetworkSizeRow",
    "DEFAULT_NETWORK_SIZES",
    "run_network_size_experiment",
    "format_network_size_rows",
    "ComplexityRow",
    "run_complexity_experiment",
    "format_complexity_rows",
    "FrequentItemsRow",
    "run_frequent_items_experiment",
    "format_frequent_items_rows",
    "EpsilonSplitRow",
    "MergeStrategyRow",
    "run_epsilon_split_ablation",
    "run_merge_strategy_ablation",
    "format_epsilon_split_rows",
    "format_merge_strategy_rows",
    "PropagationPeriodRow",
    "WindowModelRow",
    "run_propagation_period_ablation",
    "run_window_model_ablation",
    "format_propagation_period_rows",
    "format_window_model_rows",
    "InnerProductRow",
    "run_inner_product_experiment",
    "format_inner_product_rows",
]
