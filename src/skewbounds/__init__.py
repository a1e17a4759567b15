"""Metric-adjusted skew information and uncertainty lower bounds."""

from .bounds import (
    ProductChain,
    SearchStrategy,
    SumBoundReport,
    best_permuted_product_bound,
    chain_Ik,
    product_and_cauchy,
    product_chain,
    sum_bound_norm,
    sum_bound_report,
    sum_bound_parallelogram,
    table_Spq,
)
from .linalg import DensityMatrix, as_observable
from .loo import expand, gram_matrix, loo_basis, modulus_vector
from .metrics import MetricSpec, make_metric, parse_metric
from .skewinfo import correlation, correlation_matrix, skew_information

__all__ = [
    "DensityMatrix",
    "MetricSpec",
    "ProductChain",
    "SearchStrategy",
    "SumBoundReport",
    "as_observable",
    "best_permuted_product_bound",
    "chain_Ik",
    "correlation",
    "correlation_matrix",
    "expand",
    "gram_matrix",
    "loo_basis",
    "make_metric",
    "modulus_vector",
    "parse_metric",
    "product_and_cauchy",
    "product_chain",
    "skew_information",
    "sum_bound_norm",
    "sum_bound_report",
    "sum_bound_parallelogram",
    "table_Spq",
]

__version__ = "0.1.0"
