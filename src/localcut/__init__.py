"""Directed-cut feasibility conditions: checkers, solvers, and samplers.

`core` holds the shared tolerance and cap constants, the monotone
(Kleene) iteration and the margin rule.  The cut machinery lives in
`digraph`, `probability`, and `engine`: directed multigraphs with product
weights, finite product probability spaces with exact enumeration, and
the per-arc weight condition with its probability-bound assertions.
`families` carries the subset-family specialization, `lll` the classic
product-form condition, `thresholds` the closed-form application bounds,
`choice` the forbidden-partial-choice machinery, and `samplers` the
randomized constructions with independent verifiers.  The public names
below resolve on first use (PEP 562), so an import loads only what it uses.
"""

import importlib

_EXPORTS = {
    "core": """EnumerationCapError FixedPointResult IndeterminateError
        WeightReport""",
    "digraph": """DigraphError Edge MultiDigraph SimpleDigraph
        digraph_from_json min_product_weights reachable underlying_simple""",
    "probability": """ProductSpace RiskTable SpaceError CutModel cond_prob
        exact_prob risk_table_exact risk_table_from_json validate_cut_model
        vertex_probabilities""",
    "engine": """CutInstance apply_risk_operator build_nonrep_instance
        check_weight_condition least_weight_solution probability_bounds
        telescoping_check""",
    "families": """FamilyInstance apply_tau_operator boundary
        check_family_condition check_tau_condition hypercube_digraph
        hypergraph_coloring_family least_tau_solution
        validate_family_instance""",
    "lll": """LllError LllInstance auto_mu check_lopsided instance_from_json
        mu_to_tau""",
    "instances": """Graph Hypergraph InstanceError ListAssignment
        graph_from_json hypergraph_from_json lists_from_json
        random_graph_max_degree random_regular_uniform_hypergraph""",
    "thresholds": """FeasibilityResult SeriesCondition acyclic_feasible
        critical_condition_check critical_min_slack greedy_peel
        hypergraph_two_coloring_max_degree nonrepetitive_chromatic_bound
        nonrepetitive_sequence_feasible scalar_feasible""",
    "choice": """ChoiceError ChoiceInstance MarginalWeights
        check_expectation_condition randomized_choice_search""",
    "samplers": """PaletteTooSmallError SamplerError SamplerReport
        greedy_acyclic_edge_coloring is_acyclic_edge_coloring is_nonrepetitive
        moser_tardos_two_coloring nonrep_sequence_build
        verify_proper_2coloring""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
