"""Exact enumeration of multilabelled increasing tree families.

The package computes, with exact rational arithmetic throughout, the
counting sequences of increasing trees whose nodes carry several labels
(a fixed number k per node, a free partition of the label set, at most two
per node, or k independent labellings), verifies the hook-length identities
these families satisfy by exhaustive brute force, runs the two structural
bijections, and reverse-engineers degree weights from target sequences.
"""
from .series import Series
from .weights import DegreeWeights
from .trees import (
    CapacityError,
    OrderedTree,
    catalan,
    count_bucket_labellings_bruteforce,
    count_bucket_labellings_formula,
    count_k_labellings_bruteforce,
    count_k_labellings_formula,
    count_k_tuple_labellings,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
    falling_factorial,
    tree_weight,
)
from .solvers import (
    CountingSequence,
    InvariantReport,
    first_order_invariant_check,
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_scheme,
    solve_unilabelled_bilabelled,
)
from .hooks import (
    HookIdentityReport,
    generic_hook_weight_sum,
    hook_sum_bucket,
    hook_sum_k_labelled,
    hook_sum_k_tuple,
)
from .families import FamilySpec, REGISTRY, get_family
from .bijections import (
    BijectionReport,
    ColoredTree,
    MultiTree,
    colored_to_multi,
    enumerate_objects,
    multi_to_colored,
    q_to_unibi,
    unibi_to_q,
    verify_chain_bijection,
    verify_split_bijection,
)
from .reverse import (
    ReverseReport,
    family_from_parameters,
    reverse_engineer,
    round_trip_check,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionReport",
    "CapacityError",
    "ColoredTree",
    "CountingSequence",
    "DegreeWeights",
    "FamilySpec",
    "HookIdentityReport",
    "InvariantReport",
    "MultiTree",
    "OrderedTree",
    "REGISTRY",
    "ReverseReport",
    "Series",
    "catalan",
    "colored_to_multi",
    "count_bucket_labellings_bruteforce",
    "count_bucket_labellings_formula",
    "count_k_labellings_bruteforce",
    "count_k_labellings_formula",
    "count_k_tuple_labellings",
    "enumerate_bucket_functions",
    "enumerate_objects",
    "enumerate_ordered_trees",
    "falling_factorial",
    "family_from_parameters",
    "first_order_invariant_check",
    "generic_hook_weight_sum",
    "get_family",
    "hook_sum_bucket",
    "hook_sum_k_labelled",
    "hook_sum_k_tuple",
    "multi_to_colored",
    "q_to_unibi",
    "reverse_engineer",
    "round_trip_check",
    "solve_free_multilabelled",
    "solve_k_labelled",
    "solve_k_tuple",
    "solve_scheme",
    "solve_unilabelled_bilabelled",
    "tree_weight",
    "unibi_to_q",
    "verify_chain_bijection",
    "verify_split_bijection",
]
