"""Exact solvers for connectivity-constrained problems on clique-width expressions."""

from .cwexpr import (CwExpression, ExpressionError, LabeledGraph,
                     NotIrredundantError, PartiallyRedundantError,
                     check_irredundant, evaluate, fixture, naive_expression,
                     parse_expression, parse_graph, serialize, serialize_graph,
                     strip_redundant_adds)
from .fvs import FvsResult, solve_fvs
from .partitions import Partition, PartitionError, acyclic, iter_partitions
from .sigma_rho import (MAX, MIN, DomResult, MuSet, SigmaRhoSpec, d_of,
                        mu_contains_truncated, parse_mu, preset_spec,
                        solve_connected_sigma_rho, solve_steiner)
from .wpsets import (WPSet, ac_reduce, acjoin, join_sets, max_weight_basis,
                     proj, query_opt, reduce_set)

__version__ = "0.1.0"

__all__ = [
    "CwExpression", "ExpressionError", "LabeledGraph", "NotIrredundantError",
    "PartiallyRedundantError", "check_irredundant", "evaluate", "fixture",
    "naive_expression", "parse_expression", "parse_graph", "serialize",
    "serialize_graph", "strip_redundant_adds", "FvsResult", "solve_fvs",
    "Partition", "PartitionError", "acyclic", "iter_partitions",
    "DomResult", "MuSet", "SigmaRhoSpec", "d_of", "mu_contains_truncated",
    "parse_mu", "preset_spec", "solve_connected_sigma_rho",
    "solve_steiner", "MAX", "MIN", "WPSet", "ac_reduce", "acjoin", "join_sets",
    "max_weight_basis", "proj", "query_opt", "reduce_set",
]
