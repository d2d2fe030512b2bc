from fractions import Fraction as F
from math import comb

import oracle
import pytest

from inctrees import cli, families
from inctrees.families import (
    REGISTRY,
    binary_bilabelled_recurrence,
    binary_free_multi_numeric,
    blasius_numbers,
    even_degree_recurrence,
    get_family,
    inverse_erf_coefficients,
    lemniscate_sine_coefficients,
    ordered_bilabelled_closed_form,
    ordered_bilabelled_recurrence,
    partial_bell,
    reduced_tangent_numbers,
    strict_binary_free_multi_explicit,
    strict_binary_lattice_sum,
    strict_binary_lattice_sums,
    strict_binary_recurrence,
    three_bundled_closed_form,
    two_bundled_closed_form,
    two_bundled_recurrence,
    unibi_q_sequence,
    unibi_unordered_closed_form,
    weierstrass_invariants,
)
from inctrees.solvers import solve_k_labelled
from inctrees.weights import DegreeWeights


def test_inverse_erf_coefficients_start():
    cs = inverse_erf_coefficients(4)
    assert cs[0] == 1
    assert cs[1] == 1
    assert cs[2] == F(7, 6)
    assert cs[3] == F(127, 90)


def test_ordered_closed_form():
    values = [ordered_bilabelled_closed_form(n) for n in range(1, 7)]
    assert values == [1, 1, 7, 127, 4369, 243649]


def test_ordered_recurrence_matches_closed_form():
    rec = ordered_bilabelled_recurrence(10)
    assert rec == tuple(ordered_bilabelled_closed_form(n) for n in range(1, 11))


def test_three_bundled_closed_form():
    assert three_bundled_closed_form(1) == 1
    assert three_bundled_closed_form(3) == 45
    assert three_bundled_closed_form(5) == 99225


@pytest.mark.parametrize(
    "k,m,xs,expected",
    [
        (1, 1, [5], 5),
        (2, 1, [0, 7], 7),
        (3, 2, [2, 3], 3 * 2 * 3),  # B_{3,2} = 3 x1 x2
        (4, 2, [1, 1, 1], 4 + 3),   # B_{4,2} = 4 x1 x3 + 3 x2^2
    ],
)
def test_partial_bell_known_values(k, m, xs, expected):
    assert partial_bell(k, m, xs) == expected


def test_partial_bell_validates_indices():
    with pytest.raises(ValueError):
        partial_bell(2, 3, [1, 1, 1])
    with pytest.raises(ValueError):
        partial_bell(4, 1, [1])


def _bell_by_recursion(k, m, xs):
    # the defining recurrence, unmemoized
    if k == 0 or m == 0:
        return F(int(k == m))
    return sum(
        comb(k - 1, i - 1) * xs[i - 1] * _bell_by_recursion(k - i, m - 1, xs)
        for i in range(1, k - m + 2)
    )


def test_partial_bell_table_matches_recursion():
    xs = [F(j * j - 3, j + 1) for j in range(1, 9)]
    for k in range(1, 9):
        for m in range(1, k + 1):
            assert partial_bell(k, m, xs[: k - m + 1]) == _bell_by_recursion(k, m, xs)
    # B_{k,m}(1, 1, ...) are Stirling numbers of the second kind: Bell number B_8
    assert sum(partial_bell(8, m, [1] * 8) for m in range(1, 9)) == 4140


def test_two_bundled_closed_form():
    values = [two_bundled_closed_form(n) for n in range(1, 7)]
    assert values == [1, 2, 22, 584, 28384, 2190128]


def test_two_bundled_recurrence_matches_closed_form():
    assert two_bundled_recurrence(9) == \
        tuple(two_bundled_closed_form(n) for n in range(1, 10))


def test_two_bundled_closed_form_to_twenty():
    # one Bell table per n keeps this to a fraction of a second
    assert two_bundled_recurrence(20) == \
        tuple(two_bundled_closed_form(n) for n in range(1, 21))


def test_strict_binary_recurrence():
    assert strict_binary_recurrence(5) == (1, 0, 6, 0, 336)


def test_binary_recurrence():
    assert binary_bilabelled_recurrence(7) == (1, 2, 10, 80, 1000, 17600, 418000)


def test_even_degree_recurrence():
    assert even_degree_recurrence(7) == (1, 0, 3, 0, 189, 0, 68607)


def test_lemniscate_sine_coefficients():
    ss = lemniscate_sine_coefficients(10)
    assert ss[0] == 1          # sl'(0) = 1
    assert ss[1:4] == (0, 0, 0)
    assert ss[4] == -12        # S_5
    assert ss[8] == 3024       # S_9


def test_even_degree_lemniscate_relation():
    assert cli._lemniscate_failures(9) == ()
    # spot check the n=3 step: T_3 = -S_5 / 4
    assert even_degree_recurrence(3)[2] == 3
    assert lemniscate_sine_coefficients(5)[4] == -12


def test_blasius_numbers():
    assert blasius_numbers(6) == (1, 1, 11, 375, 27897, 3817137)


def test_blasius_matches_three_label_solver():
    assert blasius_numbers(8) == \
        solve_k_labelled(DegreeWeights.exponential(), 3, 8).as_integers()


def test_reduced_tangent_numbers():
    assert reduced_tangent_numbers(6) == (1, 1, 4, 34, 496, 11056)
    assert reduced_tangent_numbers(8) == \
        solve_k_labelled(DegreeWeights.exponential(), 2, 8).as_integers()


def test_unibi_q_sequence():
    assert unibi_q_sequence(7) == (1, 1, 3, 11, 55, 337, 2469)


def test_unibi_closed_form_is_q_plus_previous():
    qs = unibi_q_sequence(7)
    ts = [unibi_unordered_closed_form(m) for m in range(1, 8)]
    assert ts == [1, 2, 4, 14, 66, 392, 2806]
    for m in range(2, 8):
        assert ts[m - 1] == qs[m - 1] + qs[m - 2]


def test_weierstrass_invariants_strict_binary():
    g2, g3, p_shift = weierstrass_invariants(1, 0, 1)
    assert (g2, g3, p_shift) == (F(-1, 3), 0, 0)


def test_weierstrass_invariants_binary():
    g2, g3, p_shift = weierstrass_invariants(1, 2, 1)
    assert (g2, g3) == (0, F(1, 54))
    assert p_shift == F(1, 6)


def test_weierstrass_g3_vanishes_without_linear_weight():
    for phi0, phi2 in [(1, 1), (2, 3), (5, F(1, 2))]:
        assert weierstrass_invariants(phi0, 0, phi2)[1] == 0


def test_weierstrass_invariants_validate_signs():
    with pytest.raises(ValueError):
        weierstrass_invariants(0, 1, 1)
    with pytest.raises(ValueError):
        weierstrass_invariants(1, -1, 1)


def test_lattice_sum_matches_exact_values():
    exact = strict_binary_recurrence(7)
    for n in (3, 5, 7):
        approx = strict_binary_lattice_sum(n, 50)
        assert abs(approx.value - exact[n - 1]) / exact[n - 1] < 1e-6
        assert approx.imaginary_residual < 1e-9
    for n in (2, 4):
        approx = strict_binary_lattice_sum(n, 50)
        assert abs(approx.value) < 1e-6


def test_lattice_sum_domain_ends():
    assert abs(strict_binary_lattice_sum(1, 50).value - 1) < 1e-4
    exact = strict_binary_recurrence(63)[62]
    assert abs(strict_binary_lattice_sum(63, 2).value - exact) / exact < 1e-6
    for n in (64, 70, 85, 200):
        with pytest.raises(ValueError, match=f"n = {n} "):
            strict_binary_lattice_sum(n, 2)


@pytest.mark.parametrize("cutoff", [1, 2, 5, 50])
def test_one_pass_lattice_sums_equal_per_point_oracle(cutoff):
    ns = (1, 2, 3, 5, 7, 63)
    for n, fast in zip(ns, strict_binary_lattice_sums(ns, cutoff)):
        slow = oracle.lattice_sum(n, cutoff)
        # rounding is relative to the largest term, the point 1, where the
        # terms cancel (T_2 = 0) and the sum is rounding noise
        scale = max(abs(slow.value), oracle.lattice_prefactor(n))
        assert abs(fast.value - slow.value) <= 1e-12 * scale, n
        assert abs(fast.imaginary_residual - slow.imaginary_residual) <= 1e-12 * scale, n
        # the one-n call is the same pass
        assert strict_binary_lattice_sum(n, cutoff) == fast


def test_one_pass_lattice_sums_keep_the_imaginary_part_at_rounding():
    ns = (1, 2, 3, 5, 7, 63)
    results = strict_binary_lattice_sums(ns, 50)
    for n, approx in zip(ns[:-1], results):
        assert approx.imaginary_residual < 1e-9, n
    assert results[-1].imaginary_residual < 1e-9 * results[-1].value


def test_one_pass_lattice_sums_name_the_n_out_of_domain():
    for ns in ((64,), (2, 64), (63, 200, 3)):
        bad = next(n for n in ns if n >= 64)
        with pytest.raises(ValueError, match=f"n = {bad} leaves the float range"):
            strict_binary_lattice_sums(ns, 2)
    for ns, cutoff in (((0,), 2), ((2, -1), 2), ((2,), 0)):
        with pytest.raises(ValueError, match="need n >= 1 and cutoff >= 1"):
            strict_binary_lattice_sums(ns, cutoff)


def test_binary_free_numeric_domain_ends():
    exact = get_family("free/binary").sequence(57)
    assert abs(binary_free_multi_numeric(1, 60) - 1) < 1e-9
    assert abs(F(binary_free_multi_numeric(57, 60)) - exact[57]) < F(1, 10**9) * exact[57]
    assert binary_free_multi_numeric(144, 60) < float("inf")
    for m, cutoff in ((145, 60), (200, 60), (117, 200)):
        with pytest.raises(ValueError, match=f"m = {m}, cutoff = {cutoff} "):
            binary_free_multi_numeric(m, cutoff)
    with pytest.raises(ValueError):
        binary_free_multi_numeric(0, 60)


def test_strict_binary_free_explicit():
    values = [strict_binary_free_multi_explicit(m) for m in range(1, 8)]
    assert values == [1, 1, 3, 9, 39, 189, 1107]


def test_binary_free_numeric():
    expected = [1, 3, 11, 51, 295, 2055]
    for m in range(1, 7):
        approx = binary_free_multi_numeric(m, 60)
        assert abs(approx - expected[m - 1]) < 1e-6 * expected[m - 1]


def test_constant_literals_match_double_precision():
    import math

    assert float(families.PI_DIGITS) == math.pi
    assert abs(float(families.GAMMA_QUARTER_DIGITS) - math.gamma(0.25)) < 1e-15


def test_registry_prefixes_match_solvers():
    for identifier, spec in REGISTRY.items():
        terms = len(spec.reference_prefix)
        seq = spec.sequence(terms)
        assert tuple(seq) == spec.reference_prefix, identifier


def test_registry_closed_forms_match_solvers():
    for identifier, spec in REGISTRY.items():
        terms = max(len(spec.reference_prefix), 8)
        seq = spec.sequence(terms)
        if spec.closed_form is not None:
            for n in range(1, terms + 1):
                assert seq[n] == spec.closed_form(n), (identifier, n)
        if spec.special_recurrence is not None:
            assert tuple(seq) == tuple(map(F, spec.special_recurrence(terms))), identifier


def test_get_family_parses_k_tuple_ids():
    spec = get_family("ktuple/ordered:k=2")
    assert spec.scheme == "k-tuple" and spec.k == 2
    assert spec.sequence(4).as_integers() == (1, 1, 5, 59)


def test_get_family_rejects_unknown():
    with pytest.raises(ValueError):
        get_family("nosuch/family")
    with pytest.raises(ValueError):
        get_family("ktuple/nosuch:k=2")
    with pytest.raises(ValueError):
        get_family("ktuple/ordered:q=2")


def test_unknown_scheme_is_named():
    spec = families.FamilySpec("odd/one", "no-such-scheme", DegreeWeights.exponential())
    with pytest.raises(ValueError, match="'no-such-scheme'"):
        spec.sequence(3)
