"""The integer coefficient engine and the power-table series operations
against the slow routes in ``oracle.py``.

The engine (``solvers._Engine``), ``Series.compose``, ``Series.reversion``
and ``reverse_engineer`` replaced fixed-point iteration, the composition
recurrence, Horner composition, one full composition per order and the
two-derivative reverse engineering.  These properties pin them to those
routes on random small rational weights, series and targets, with a fixed
Hypothesis seed, and ``reverse_engineer`` also to the composition h(f^(-1))
by ``Series.reversion`` and ``Series.compose``; the examples add rational
phi, whose Phi_j = j! phi_j are not all integers, so the engine runs them on
Fractions.  The first-order relations of the named weight kinds are pinned
both to those routes and to the Bell table, which the same phi wrapped as
``DegreeWeights.custom`` runs on.  Counts of Fraction operations pin
integral phi and integral targets to integer arithmetic.  Interleaved
calls that resume, slice or evict the engines kept per process are pinned
to solves made with none kept, and an extension that raises keeps no
engine.  The integer first-integral check is pinned to its ``Fraction``-series route on the
counts of two-label solutions, as they are or with one count perturbed,
for 0-10 counts.
"""
from fractions import Fraction as F
from math import factorial

import oracle
import pytest
from hypothesis import example, given, settings, strategies as st

from inctrees import families, solvers
from inctrees.reverse import reverse_engineer
from inctrees.series import Series
from inctrees.solvers import (
    SCHEMES,
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_scheme,
    solve_unilabelled_bilabelled,
)
from inctrees.weights import DegreeWeights

small_fraction = st.fractions(min_value=0, max_value=4, max_denominator=4)
signed_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def rational_weights(max_degree=4):
    """phi_0 > 0 and phi_1 .. phi_d >= 0, or one of the infinite kinds."""
    polynomials = st.lists(small_fraction, min_size=1, max_size=max_degree + 1).map(
        lambda cs: DegreeWeights.polynomial([cs[0] or F(1)] + cs[1:])
    )
    named = st.sampled_from([
        DegreeWeights.exponential(), DegreeWeights.cosh(), DegreeWeights.bundled(2),
        DegreeWeights.exp_minus_t(), DegreeWeights.ordered_minus_t(),
    ])
    return st.one_of(polynomials, named)


# the fixed-point oracle of each scheme of solvers.SCHEMES, as (weights, k, terms)
ORACLE_VALUES = {
    "k-labelled": oracle.k_labelled_values,
    "free-multilabelled": lambda w, k, terms: oracle.free_multilabelled_values(w, terms),
    "uni-bi": lambda w, k, terms: oracle.unilabelled_bilabelled_values(w, terms),
    "k-tuple": oracle.k_tuple_values,
}


@given(rational_weights(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=10))
@example(DegreeWeights.parse("poly:1/2,1/3,1"), 1, 8)
@example(DegreeWeights.parse("poly:1/2,1/3,1"), 2, 8)
@example(DegreeWeights.parse("poly:1/2,1/3,1"), 3, 8)
@example(DegreeWeights.custom(lambda j: F(3, 1), name="3/(1-t)"), 2, 8)
@example(DegreeWeights.parse("poly:1,1/2,1/2,1/3"), 2, 8)  # Phi = 1, 1/2, 1, 2
@settings(max_examples=40, deadline=None, derandomize=True)
def test_engine_equals_fixed_point_oracle(weights, k, terms):
    assert set(ORACLE_VALUES) == set(SCHEMES)
    for scheme, values in ORACLE_VALUES.items():
        assert tuple(solve_scheme(scheme, weights, terms, k)) == values(weights, k, terms)
    assert tuple(solve_k_tuple(weights, k, terms)) == oracle.k_tuple_values(weights, k, terms)
    assert tuple(solve_free_multilabelled(weights, terms)) == \
        oracle.free_multilabelled_values(weights, terms)
    assert tuple(solve_unilabelled_bilabelled(weights, terms)) == \
        oracle.unilabelled_bilabelled_values(weights, terms)
    assert tuple(solve_k_labelled(weights, k, terms)) == \
        oracle.k_labelled_values(weights, k, terms)


# every kind that solvers._Engine serves by a first-order relation
FAST_KINDS = [
    DegreeWeights.exponential(), DegreeWeights.cosh(), DegreeWeights.exp_minus_t(),
    DegreeWeights.ordered_minus_t(), *(DegreeWeights.bundled(d) for d in range(1, 5)),
]


@pytest.mark.parametrize("weights", FAST_KINDS, ids=lambda w: w.name)
@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=4, deadline=None, derandomize=True)
def test_first_order_relations_equal_power_table_and_oracle(weights, terms):
    table = DegreeWeights.custom(weights.coefficient, name=f"custom {weights.name}")
    for scheme, values in ORACLE_VALUES.items():
        for k in (1, 2, 3):
            fast = tuple(solve_scheme(scheme, weights, terms, k))
            assert fast == tuple(solve_scheme(scheme, table, terms, k)), (scheme, k)
            assert fast == values(weights, k, terms), (scheme, k)


@pytest.fixture
def fresh_engines():
    # the engines are kept per process per (SCHEMES entry, weights, k);
    # earlier tests fill them
    solvers._ENGINES.clear()
    yield
    solvers._ENGINES.clear()


def test_named_kinds_never_reach_the_power_table(monkeypatch, fresh_engines):
    def table_columns(*args):
        raise AssertionError("power table reached")

    monkeypatch.setattr(solvers, "_table_columns", table_columns)
    for weights in FAST_KINDS:
        for scheme in SCHEMES:
            assert len(solve_scheme(scheme, weights, 12, 2)) == 12
    with pytest.raises(AssertionError, match="power table reached"):
        solve_scheme("k-labelled", DegreeWeights.parse("poly:1,2,1"), 3, 2)


FAMILY_IDENTIFIERS = families.family_identifiers() + tuple(
    f"ktuple/{variant}:k={k}" for variant in ("ordered", "unordered") for k in (1, 2, 3)
)


def test_integral_phi_solve_without_fraction_arithmetic(monkeypatch, fresh_engines):
    # Every registry and k-tuple family has integral Phi_j = j! phi_j, so the
    # engine makes at most the one Fraction operation that forms Phi_j from
    # each phi_j it reads.
    counts = {"ops": 0, "reads": 0}
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(*args, _operation=getattr(F, name)):
            counts["ops"] += 1
            return _operation(*args)

        monkeypatch.setattr(F, name, counted)
    coefficient = DegreeWeights.coefficient

    def read(weights, j):
        counts["reads"] += 1
        return coefficient(weights, j)

    monkeypatch.setattr(DegreeWeights, "coefficient", read)
    for identifier in FAMILY_IDENTIFIERS:
        spec = families.get_family(identifier)
        assert len(solve_scheme(spec.scheme, spec.weights, 40, spec.k)) == 40
    assert counts["reads"] > 0
    assert counts["ops"] <= counts["reads"], counts


def fresh_solve(scheme, weights, terms, k):
    """The solve with no engine kept, the kept ones put back after it."""
    kept = dict(solvers._ENGINES)
    solvers._ENGINES.clear()
    try:
        return solve_scheme(scheme, weights, terms, k)
    finally:
        solvers._ENGINES.clear()
        solvers._ENGINES.update(kept)


# named, integral and rational poly (the Fraction path), a poly whose table
# skips trailing zeros before a nonzero Phi_5, and custom phi
KEPT_ENGINE_WEIGHTS = [
    *FAST_KINDS[:5],
    DegreeWeights.parse("poly:1,2,1"),
    DegreeWeights.parse("poly:1/2,1/3,1"),
    DegreeWeights.parse("poly:1,0,0,0,0,1/3"),
    DegreeWeights.custom(lambda j: F(1, j + 1), name="-log(1-t)/t"),
    DegreeWeights.custom(DegreeWeights.cosh().coefficient, name="custom cosh"),
]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(SCHEMES)),
            st.sampled_from(KEPT_ENGINE_WEIGHTS),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=12),
        ),
        min_size=1,
        max_size=16,
    ),
    st.integers(min_value=1, max_value=4),
)
@example([("k-labelled", KEPT_ENGINE_WEIGHTS[7], 2, n) for n in (3, 5, 12, 4)], 4)
@example([("uni-bi", KEPT_ENGINE_WEIGHTS[9], 1, n) for n in (2, 3, 4, 6, 9, 8)], 4)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_kept_engines_equal_fresh_solves(calls, bound):
    # interleaved calls resume, slice or evict kept engines; a small bound
    # makes them evict often
    solvers._ENGINES.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "SOLVER_ENGINE_CACHE", bound)
        for scheme, weights, k, terms in calls:
            kept = solve_scheme(scheme, weights, terms, k)
            assert len(solvers._ENGINES) <= bound
            assert kept == fresh_solve(scheme, weights, terms, k), (scheme, weights, k, terms)
    solvers._ENGINES.clear()


def test_the_least_recent_engine_is_evicted_at_the_bound(fresh_engines):
    named = [DegreeWeights.bundled(d) for d in range(1, solvers.SOLVER_ENGINE_CACHE + 3)]
    for weights in named:
        solve_k_labelled(weights, 2, 3)
        solve_k_labelled(named[0], 2, 3)  # keeps the first one recent
        assert len(solvers._ENGINES) <= solvers.SOLVER_ENGINE_CACHE
    kept = {weights for _, weights, _ in solvers._ENGINES}
    assert len(kept) == solvers.SOLVER_ENGINE_CACHE
    assert named[0] in kept and named[-1] in kept
    assert named[1] not in kept and named[2] not in kept


def test_custom_phi_is_read_only_below_the_largest_count(fresh_engines):
    read = []

    def phi(j):
        read.append(j)
        return F(1, j + 1)

    weights = DegreeWeights.custom(phi)
    for terms, top in ((4, 3), (2, 3), (7, 6), (5, 6), (9, 8)):
        solve_k_labelled(weights, 2, terms)
        assert max(read) == top


def test_an_extension_that_raises_is_not_kept(monkeypatch, fresh_engines):
    def phi(j):
        if j == 6:
            raise ValueError("phi_6 is unknown")
        return F(1, j + 1)

    weights = DegreeWeights.custom(phi)
    four = solve_k_labelled(weights, 2, 4)
    for _ in range(3):
        with pytest.raises(ValueError, match="phi_6 is unknown"):
            solve_k_labelled(weights, 2, 10)
    assert solve_k_labelled(weights, 2, 4) == four == fresh_solve("k-labelled", weights, 4, 2)

    # a step that raises once, after U_6 and T_1 .. T_6 are appended
    step, scale = SCHEMES["k-labelled"]
    raised = []

    def flaky(n, t, u):
        if n == 7 and not raised:
            raised.append(n)
            raise ArithmeticError("flaky step")
        return step(n, t, u)

    monkeypatch.setitem(SCHEMES, "k-labelled", (flaky, scale))
    weights = DegreeWeights.exponential()
    assert len(solve_k_labelled(weights, 2, 4)) == 4
    with pytest.raises(ArithmeticError, match="flaky step"):
        solve_k_labelled(weights, 2, 10)
    assert solve_k_labelled(weights, 2, 10) == fresh_solve("k-labelled", weights, 10, 2)
    assert tuple(solve_k_labelled(weights, 2, 10)) == oracle.k_labelled_values(weights, 2, 10)


@given(signed_fraction.filter(lambda x: x != 0), st.lists(signed_fraction, max_size=10))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reversion_equals_compose_per_order_oracle(linear, tail):
    f = Series([F(0), linear] + tail)
    assert f.reversion() == oracle.reversion(f)


@given(st.lists(small_fraction, min_size=1, max_size=6), st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reverse_engineer_inverts_two_label_solver(coeffs, terms):
    phi = [coeffs[0] or F(1)] + coeffs[1:]
    weights = DegreeWeights.polynomial(phi)
    report = reverse_engineer(solve_k_labelled(weights, 2, terms))
    assert report.phi == tuple(weights.coefficient(j) for j in range(terms))
    assert report.admissible


@given(st.lists(signed_fraction, min_size=1, max_size=10),
       st.lists(signed_fraction, max_size=10))
@example(outer=[F(1), F(2), F(-1, 3), F(5)], inner_tail=[F(0), F(3), F(1, 2)])  # zero linear term
@example(outer=[F(2), F(1), F(1)], inner_tail=[F(1), F(1), F(1), F(1), F(1), F(1)])  # outer shorter
@example(outer=[F(2), F(1), F(1), F(4), F(-1)], inner_tail=[F(1, 2)])  # inner shorter
@example(outer=[F(7), F(1)], inner_tail=[])  # inner of order 0
@example(outer=[F(3)], inner_tail=[F(1), F(2)])  # outer of order 0
@settings(max_examples=80, deadline=None, derandomize=True)
def test_compose_equals_horner_oracle(outer, inner_tail):
    outer, inner = Series(outer), Series([F(0)] + inner_tail)
    assert outer.compose(inner) == oracle.compose(outer, inner)


def composition_phi(values):
    """phi = h(f^(-1)) through Series.reversion and Series.compose, with
    f(w) = sum T_n w^n / (2n)! and h(w) = sum T_(n+1) w^n / (2n)!."""
    n = len(values)
    f = Series([F(0)] + [F(values[i - 1]) / factorial(2 * i) for i in range(1, n + 1)])
    h = Series([F(values[i]) / factorial(2 * i) for i in range(n)])
    return h.compose(f.reversion()).coefficients


integer_targets = st.builds(
    lambda first, rest: [first] + rest,
    st.sampled_from([1, -1, 2, -2]),
    st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=29),
)
rational_targets = st.builds(
    lambda first, rest: [first] + rest,
    signed_fraction.filter(lambda x: x != 0),
    st.lists(signed_fraction, min_size=1, max_size=11),
)
# solved from phi_0 > 0 and phi_j >= 0: integral or rational, and admissible
admissible_targets = st.builds(
    lambda coeffs, n: list(solve_k_labelled(
        DegreeWeights.polynomial([coeffs[0] or F(1)] + coeffs[1:]), 2, n)),
    st.lists(small_fraction, min_size=1, max_size=6),
    st.integers(min_value=2, max_value=30),
)


@given(st.one_of(integer_targets, rational_targets, admissible_targets))
@example([1, 2, 22, 584])  # admissible: phi = 1 + 2t + 3t^2 + 4t^3
@example(list(families.get_family("bilabelled/2-bundled").sequence(30)))
@example([-2] + [(-1) ** n * 10 ** n for n in range(1, 30)])
@example([F(1, 2), 3, F(1, 3), 1, 5])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reverse_engineer_equals_composition_and_two_derivative_oracles(values):
    # any target with T_1 != 0, admissible or not
    report = reverse_engineer(values)
    assert report.phi == composition_phi(values)
    assert report.phi == oracle.reverse_phi(values)
    assert report.admissible == (report.phi[0] > 0 and min(report.phi) >= 0)


def test_integral_target_reverses_with_one_fraction_per_weight(monkeypatch):
    # An integral target fills the power table with ints and keeps the known
    # phi_j over one common denominator, so each phi_m is one Fraction: the
    # Fraction operations and constructions grow like N, not like N^2.
    counts = {"ops": 0}

    def count(operation):
        def counted(*args, **kwargs):
            counts["ops"] += 1
            return operation(*args, **kwargs)
        return counted

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__new__"):
        monkeypatch.setattr(F, name, count(getattr(F, name)))
    targets = [
        tuple(families.get_family("bilabelled/2-bundled").sequence(60)),
        (-2,) + tuple((-1) ** n * 10 ** n for n in range(1, 60)),
    ]
    for target in targets:
        counts["ops"] = 0
        report = reverse_engineer(target)
        assert len(report.phi) == 60
        assert counts["ops"] <= 3 * 60, counts


def counts_series(counts):
    """T = sum T_n z^(2n) / (2n)! for the counts T_1 .. T_N, with zero
    coefficients at z^(2N+1) and z^(2N+2): the series oracle then checks the
    z-orders 0 .. 2N + 1, which do not depend on T_(N+1)."""
    coeffs = [F(0)] * (2 * len(counts) + 3)
    for n, value in enumerate(counts, start=1):
        coeffs[2 * n] = F(value) / factorial(2 * n)
    return Series(coeffs)


@st.composite
def invariant_cases(draw):
    """Weights and the first 0-10 counts of their two-label solution, as
    they are or with one count perturbed."""
    weights = draw(rational_weights())
    counts = list(solve_k_labelled(weights, 2, draw(st.integers(min_value=1, max_value=10))))
    counts = counts[: draw(st.integers(min_value=0, max_value=len(counts)))]
    if counts and draw(st.booleans()):
        counts[draw(st.integers(min_value=0, max_value=len(counts) - 1))] += draw(
            signed_fraction.filter(bool)
        )
    return weights, counts


RATIONAL_PHI = DegreeWeights.parse("poly:1/2,1/3,1")


@given(invariant_cases())
@example((DegreeWeights.bundled(3), [F(0)] * 6))
@example((DegreeWeights.exponential(), [1, 0, 0]))  # T = z^2/2
@example((RATIONAL_PHI, list(solve_k_labelled(RATIONAL_PHI, 2, 10))))
@example((RATIONAL_PHI, list(solve_k_labelled(RATIONAL_PHI, 2, 6)) + [F(1, 7)]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_first_order_invariant_equals_series_oracle(case):
    weights, counts = case
    fast = solvers.first_order_invariant_check(weights, counts)
    slow = oracle.first_order_invariant_check(weights, counts_series(counts))
    assert (fast.checked_order, fast.mismatches) == (slow.checked_order, slow.mismatches)
