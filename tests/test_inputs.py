"""Every count and every rational argument of the public API is read by one
rule, and every refusal of a bad size is worded by it.

``ARGUMENTS`` lists, per public callable, each of its count or rational
arguments with a call that passes a value there and valid values
elsewhere; fed a bool, a float or a str, each call must raise a
``TypeError`` or ``ValueError`` whose message names the argument.
``NO_COUNT`` names the public callables that take no such argument.  The
two together must cover ``inctrees.__all__`` and every public function of
each module, so a new public function has to be sorted into one of them.

``REFUSALS`` pins a refusal of an int out of range, per entry point, to its
exact message (``"{name} = {value} must be at least 1"`` for a count), and
the object checks that no count reaches to theirs.
"""
import importlib
import inspect
import re
from fractions import Fraction as F
from pathlib import Path
from typing import Iterator

import pytest

import inctrees
from inctrees import bijections, checks, families, hooks, reverse, solvers, trees
from inctrees.families import FamilySpec
from inctrees.series import Series
from inctrees.trees import OrderedTree
from inctrees.weights import DegreeWeights

MODULES = [
    importlib.import_module(f"inctrees.{path.stem}")
    for path in sorted(Path(inctrees.__file__).parent.glob("*.py")) if path.stem != "__init__"
]

EXP = DegreeWeights.exponential()
PATH = OrderedTree.parse("(())")
MULTI = bijections.parse_multilabelled("({1,2} ({3}))")


def _arguments(name, call, *arguments):
    """One row per argument: call(argument, value) passes value there."""
    return [(name, argument, (lambda value, a=argument: call(a, value))) for argument in arguments]


def _keyword(function, **valid):
    """call(argument, value) = function(**valid, argument=value)."""
    return lambda argument, value: function(**{**valid, argument: value})


ARGUMENTS = [
    ("series.Series", "coefficients", lambda v: Series([1, v])),
    ("series.Series.identity", "order", Series.identity),
    ("weights.DegreeWeights.bundled", "d", DegreeWeights.bundled),
    ("weights.DegreeWeights.polynomial", "coefficients", lambda v: DegreeWeights.polynomial([1, v])),
    ("trees.catalan", "n", trees.catalan),
    ("trees.enumerate_degree_words", "n", trees.enumerate_degree_words),
    ("trees.enumerate_ordered_trees", "n", trees.enumerate_ordered_trees),
    *_arguments("trees.falling_factorial", _keyword(trees.falling_factorial, x=5, s=2), "x", "s"),
    ("trees.count_k_labellings_formula", "k", lambda v: trees.count_k_labellings_formula(PATH, v)),
    ("trees.count_k_labellings_bruteforce", "k",
     lambda v: trees.count_k_labellings_bruteforce(PATH, v)),
    ("trees.count_k_tuple_labellings", "k", lambda v: trees.count_k_tuple_labellings(PATH, v)),
    ("trees.count_bucket_labellings_formula", "bucket size",
     lambda v: trees.count_bucket_labellings_formula(PATH, (1, v))),
    ("trees.count_bucket_labellings_bruteforce", "bucket size",
     lambda v: trees.count_bucket_labellings_bruteforce(PATH, (1, v))),
    *_arguments("trees.enumerate_bucket_functions",
                _keyword(trees.enumerate_bucket_functions, tree=PATH, m=3, max_bucket=2),
                "m", "max_bucket"),
    *_arguments("solvers.solve_scheme",
                _keyword(solvers.solve_scheme, scheme="k-tuple", weights=EXP, terms=3, k=2),
                "terms", "k"),
    *_arguments("solvers.solve_k_labelled",
                _keyword(solvers.solve_k_labelled, weights=EXP, k=2, terms=3), "k", "terms"),
    ("solvers.solve_free_multilabelled", "terms",
     lambda v: solvers.solve_free_multilabelled(EXP, v)),
    ("solvers.solve_unilabelled_bilabelled", "terms",
     lambda v: solvers.solve_unilabelled_bilabelled(EXP, v)),
    *_arguments("solvers.solve_k_tuple",
                _keyword(solvers.solve_k_tuple, weights=EXP, k=2, terms=3), "k", "terms"),
    ("hooks.hook_sums", "hook-sum tree size n", lambda v: hooks.hook_sums("k-tuple", EXP, [2, v])),
    ("hooks.hook_sums", "hook-sum label count m", lambda v: hooks.hook_sums("uni-bi", EXP, [v])),
    ("hooks.hook_sums", "k", lambda v: hooks.hook_sums("k-labelled", EXP, [2], v)),
    ("hooks.hook_sum_k_labelled", "k", lambda v: hooks.hook_sum_k_labelled(EXP, v, 2)),
    ("hooks.hook_sum_k_labelled", "hook-sum tree size n",
     lambda v: hooks.hook_sum_k_labelled(EXP, 2, v)),
    ("hooks.hook_sum_k_tuple", "k", lambda v: hooks.hook_sum_k_tuple(EXP, v, 2)),
    ("hooks.hook_sum_k_tuple", "hook-sum tree size n", lambda v: hooks.hook_sum_k_tuple(EXP, 2, v)),
    ("hooks.hook_sum_bucket", "hook-sum label count m", lambda v: hooks.hook_sum_bucket(EXP, v)),
    ("hooks.hook_sum_bucket", "max_bucket", lambda v: hooks.hook_sum_bucket(EXP, 3, v)),
    ("hooks.generic_hook_weight_sums", "rho_numerator",
     lambda v: hooks.generic_hook_weight_sums("binary", [1, v], [1], [2])),
    ("hooks.generic_hook_weight_sums", "rho_denominator",
     lambda v: hooks.generic_hook_weight_sums("binary", [1], [1, v], [2])),
    ("hooks.generic_hook_weight_sums", "hook-sum tree size n",
     lambda v: hooks.generic_hook_weight_sums("binary", [1], [1], [v])),
    ("hooks.generic_hook_weight_sum", "rho_numerator",
     lambda v: hooks.generic_hook_weight_sum("binary", [1, v], [1], 2)),
    ("hooks.generic_hook_weight_sum", "rho_denominator",
     lambda v: hooks.generic_hook_weight_sum("binary", [1], [1, v], 2)),
    ("hooks.generic_hook_weight_sum", "hook-sum tree size n",
     lambda v: hooks.generic_hook_weight_sum("binary", [1], [1], v)),
    ("families.inverse_erf_coefficients", "count", families.inverse_erf_coefficients),
    ("families.ordered_bilabelled_closed_form", "n", families.ordered_bilabelled_closed_form),
    ("families.ordered_bilabelled_recurrence", "terms", families.ordered_bilabelled_recurrence),
    ("families.double_factorial_odd", "n", families.double_factorial_odd),
    ("families.three_bundled_closed_form", "n", families.three_bundled_closed_form),
    *_arguments("families.partial_bell", _keyword(families.partial_bell, k=2, m=1, xs=[1, 1]),
                "k", "m"),
    ("families.partial_bell", "xs", lambda v: families.partial_bell(2, 2, [v, 1])),
    ("families.two_bundled_closed_form", "n", families.two_bundled_closed_form),
    ("families.two_bundled_recurrence", "terms", families.two_bundled_recurrence),
    ("families.strict_binary_recurrence", "terms", families.strict_binary_recurrence),
    ("families.binary_bilabelled_recurrence", "terms", families.binary_bilabelled_recurrence),
    ("families.even_degree_recurrence", "terms", families.even_degree_recurrence),
    ("families.lemniscate_sine_coefficients", "count", families.lemniscate_sine_coefficients),
    *_arguments("families.weierstrass_invariants",
                _keyword(families.weierstrass_invariants, phi0=1, phi1=0, phi2=1),
                "phi0", "phi1", "phi2"),
    ("families.strict_binary_lattice_sums", "n",
     lambda v: families.strict_binary_lattice_sums((2, v), 2)),
    ("families.strict_binary_lattice_sums", "cutoff",
     lambda v: families.strict_binary_lattice_sums((2,), v)),
    *_arguments("families.strict_binary_lattice_sum",
                _keyword(families.strict_binary_lattice_sum, n=2, cutoff=2), "n", "cutoff"),
    ("families.strict_binary_free_multi_explicit", "m", families.strict_binary_free_multi_explicit),
    *_arguments("families.binary_free_multi_numeric",
                _keyword(families.binary_free_multi_numeric, m=2, cutoff=2), "m", "cutoff"),
    ("families.reduced_tangent_numbers", "terms", families.reduced_tangent_numbers),
    ("families.blasius_numbers", "terms", families.blasius_numbers),
    ("families.unibi_q_sequence", "terms", families.unibi_q_sequence),
    ("families.unibi_unordered_closed_form", "m", families.unibi_unordered_closed_form),
    ("families.FamilySpec", "k", lambda v: FamilySpec("t", "k-tuple", EXP, k=v).sequence(3)),
    ("families.FamilySpec", "terms", lambda v: FamilySpec("t", "k-tuple", EXP, k=2).sequence(v)),
    ("bijections.validate_multilabelled", "max_block",
     lambda v: bijections.validate_multilabelled(MULTI, v)),
    ("bijections.enumerate_objects", "m", lambda v: bijections.enumerate_objects("unibi", v)),
    ("bijections.enumerate_free_multilabelled", "m", bijections.enumerate_free_multilabelled),
    ("bijections.enumerate_unibi_unordered", "m", bijections.enumerate_unibi_unordered),
    ("bijections.enumerate_colored_unary", "m", bijections.enumerate_colored_unary),
    ("bijections.enumerate_colored_branching", "m", bijections.enumerate_colored_branching),
    ("bijections.verify_chain_bijection", "max_m", bijections.verify_chain_bijection),
    ("bijections.verify_split_bijection", "max_m", bijections.verify_split_bijection),
    ("bijections.mapped_texts", "max_m", lambda v: bijections.mapped_texts("free", v)),
    ("reverse.reverse_engineer", "target", lambda v: reverse.reverse_engineer([1, v])),
    ("reverse.first_order_invariant_check", "counts",
     lambda v: reverse.first_order_invariant_check(EXP, [1, v])),
    *_arguments("reverse.generalized_binomial",
                _keyword(reverse.generalized_binomial, alpha=F(1, 2), j=2), "alpha", "j"),
    *_arguments("reverse.parametric_target",
                _keyword(reverse.parametric_target, a=1, b=-1, c=-1, terms=3),
                "a", "b", "c", "terms"),
    *_arguments("reverse.parametric_phi",
                _keyword(reverse.parametric_phi, a=1, b=-1, c=-1, count=3),
                "a", "b", "c", "count"),
    *_arguments("reverse.family_from_parameters",
                _keyword(reverse.family_from_parameters, a=1, b=-1, c=-1, terms=3),
                "a", "b", "c", "terms"),
    ("checks.rho_binary_notes", "max_n", checks.rho_binary_notes),
    ("checks.lemniscate_failures", "max_n", checks.lemniscate_failures),
]

NO_COUNT = {
    # results, trees, the capacity error and the registry: built by the
    # package, or parsed from text
    "bijections.BijectionReport", "bijections.ColoredTree", "bijections.MultiTree",
    "hooks.HookIdentityReport", "reverse.InvariantReport", "reverse.ReverseReport",
    "solvers.CountingSequence", "trees.OrderedTree", "series.CapacityError",
    "families.REGISTRY",
    # phi comes from a function, each value read by as_fraction
    "weights.DegreeWeights",
    # a tree, its code or its text, a weights object or a report
    "trees.word_hook_lengths", "trees.tree_weight", "bijections.is_canonical_unordered",
    "bijections.validate_colored", "bijections.multi_to_colored", "bijections.colored_to_multi",
    "bijections.unibi_to_q", "bijections.q_to_unibi", "bijections.format_object",
    "bijections.parse_multilabelled", "bijections.parse_colored", "reverse.round_trip_check",
    "checks.first_failure", "checks.hook_notes",
    # text, read by the literal parsers (tests/test_cli.py covers them)
    "reverse.parse_values", "reverse.values_from_file", "families.get_family",
    "families.family_identifiers", "cli.build_parser", "cli.main",
    # the readers themselves: the rational reader, and the capacity check
    # of counts the callers have read
    "series.as_fraction", "series.check_capacity",
}


def _owner(name: str, obj) -> str:
    """The module that defines a public name, by its short name."""
    return next(
        module.__name__.rpartition(".")[2] for module in MODULES
        if vars(module).get(name) is obj
        and getattr(obj, "__module__", module.__name__) == module.__name__
    )


def public_callables():
    """module.name of every name of ``inctrees.__all__`` and of every public
    function defined in a module of the package."""
    found = {f"{_owner(name, getattr(inctrees, name))}.{name}" for name in inctrees.__all__}
    for module in MODULES:
        found |= {
            f"{module.__name__.rpartition('.')[2]}.{name}"
            for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        }
    return found


def test_every_public_callable_is_sorted():
    listed = {name for name, _, _ in ARGUMENTS}
    assert not listed & NO_COUNT
    assert public_callables() - listed - NO_COUNT == set()


def test_an_unsorted_public_function_is_found(monkeypatch):
    def count_anything(n):
        return n

    count_anything.__module__ = trees.__name__
    monkeypatch.setattr(trees, "count_anything", count_anything, raising=False)
    assert "trees.count_anything" in public_callables()


BAD_VALUES = {"bool": True, "float": 2.0, "str": "2"}


@pytest.mark.parametrize("kind", sorted(BAD_VALUES))
@pytest.mark.parametrize(
    "name, argument, call", ARGUMENTS, ids=[f"{name}:{argument}" for name, argument, _ in ARGUMENTS]
)
def test_a_bool_float_or_str_is_refused_by_name(name, argument, call, kind):
    with pytest.raises((TypeError, ValueError)) as info:
        result = call(BAD_VALUES[kind])
        if isinstance(result, Iterator):  # a generator reads its arguments when first drawn
            list(result)
    assert names(str(info.value), argument), str(info.value)


def names(message: str, argument: str) -> bool:
    """Whether the message names the argument as a word of its own."""
    return re.search(rf"(^|\W){re.escape(argument)}(\W|$)", message) is not None


def test_a_message_without_the_name_is_found():
    assert not names("value exceeds the range", "x")
    assert not names("can't multiply sequence by non-int of type 'float'", "buckets")
    assert names("x must be an int, not bool", "x")
    assert names("exact rational required for rho_numerator, got str", "rho_numerator")


def _spec_terms(k):
    """The terms of a k-tuple family spec of tuple length k."""
    return FamilySpec("t", "k-tuple", EXP, k=k).sequence(3)


# (function, arguments, error, exact message) of refusals of an int out of
# range, and of the object checks no count reaches
REFUSALS = [
    (Series.identity, (0,), ValueError, "order = 0 must be at least 1"),
    (solvers.solve_k_labelled, (EXP, 2, 0), ValueError, "terms = 0 must be at least 1"),
    (solvers.solve_k_tuple, (EXP, 0, 3), ValueError, "k = 0 must be at least 1"),
    (trees.enumerate_degree_words, (0,), ValueError, "n = 0 must be at least 1"),
    (trees.count_k_labellings_formula, (PATH, 0), ValueError, "k = 0 must be at least 1"),
    (DegreeWeights.bundled, (0,), ValueError, "d = 0 must be at least 1"),
    (DegreeWeights.parse, ("bundled:-1",), ValueError,
     "bad degree-weight spec 'bundled:-1': d = -1 must be at least 1"),
    (EXP.coefficient, (-1,), ValueError, "degree index j = -1 must be at least 0"),
    (families.inverse_erf_coefficients, (0,), ValueError, "count = 0 must be at least 1"),
    (families.ordered_bilabelled_closed_form, (0,), ValueError, "n = 0 must be at least 1"),
    (families.three_bundled_closed_form, (0,), ValueError, "n = 0 must be at least 1"),
    (families.two_bundled_closed_form, (-2,), ValueError, "n = -2 must be at least 1"),
    (families.lemniscate_sine_coefficients, (0,), ValueError, "count = 0 must be at least 1"),
    (families.strict_binary_free_multi_explicit, (0,), ValueError, "m = 0 must be at least 1"),
    (families.unibi_unordered_closed_form, (0,), ValueError, "m = 0 must be at least 1"),
    (families.binary_free_multi_numeric, (3, 0), ValueError, "cutoff = 0 must be at least 1"),
    (families.partial_bell, (1, 2, [1]), ValueError, "partial Bell polynomial needs 1 <= m <= k"),
    (_spec_terms, (0,), ValueError, "k = 0 must be at least 1"),
    (reverse.family_from_parameters, (1, -1, -1, 1), ValueError, "terms = 1 must be at least 2"),
    (reverse.parametric_phi, (1, -1, -1, 0), ValueError, "count = 0 must be at least 1"),
    (bijections.validate_colored, (bijections.parse_colored("({1}b ({2}w))"), "branching"),
     ValueError, "black node of out-degree 1, expected >= 2"),
    (bijections.format_object, (PATH,), TypeError, "cannot format OrderedTree"),
    (bijections.parse_multilabelled, ("({1}b)",), ValueError, "multilabelled trees carry no colors"),
]


@pytest.mark.parametrize(
    "function, args, error, message", REFUSALS,
    ids=[function.__qualname__ for function, _, _, _ in REFUSALS],
)
def test_a_refusal_is_worded_by_its_rule(function, args, error, message):
    with pytest.raises(error) as info:
        function(*args)
    assert str(info.value) == message
