"""Oblivious tree distributions for single-source buy-at-bulk routing.

Computes, for a graph with integer demands and a root, an explicit
distribution over at most 1 + log2(D) trees whose expected cost is
simultaneously competitive for every concave nondecreasing aggregation
cost, together with brute-force oracles for desk-scale verification.
"""

from .aggregation import (
    RoutedTree,
    TreeDistribution,
    atomic_cost,
    distribution_cost,
    function_cost,
    route_demands,
)
from .exact import (
    ExactOptima,
    enumerate_candidate_trees,
    exact_lp_optimum,
    exact_oblivious_ratio,
    exact_optima,
    exact_optima_and_lp,
    exact_optimum,
)
from .framework import (
    ConstraintSet,
    DualPoint,
    EllipsoidResult,
    SolveConfig,
    ellipsoid_feasibility,
    separation_oracle,
    solve_oblivious,
    solve_small_primal,
)
from .gmm import GmmTrace, StageCosts, gmm_tree, oracle_tree
from .instance import (
    DemandProfile,
    Instance,
    ParseError,
    ValidationError,
    demand_profile,
    generate_instance,
    load_instance,
    save_instance,
)
from .pipes import (
    GAMMA,
    AlphaVector,
    Pipe,
    PipeSchedule,
    Thresholds,
    alpha_to_pipes,
    is_gamma_regular,
    pipes_to_alpha,
    thresholds,
)
from .regularize import (
    RegularizationReport,
    cap_capacity,
    regularize,
    regularize_delta,
    regularize_sigma,
)
from .subroutines import lbfl, rent_or_buy, rob_lower_bounds, steiner_tree

__version__ = "0.1.0"
