from fractions import Fraction as F
from math import comb, factorial

import pytest

from inctrees.families import get_family
from inctrees.reverse import (
    family_from_parameters,
    parse_values,
    reverse_engineer,
    round_trip_check,
    values_from_file,
)
from inctrees.solvers import solve_k_labelled
from inctrees.weights import DegreeWeights


def test_three_bundled_weights_recovered():
    target = tuple(get_family("bilabelled/3-bundled").sequence(8))
    report = reverse_engineer(target)
    assert report.phi == tuple(comb(j + 2, 2) for j in range(8))
    assert report.admissible
    assert round_trip_check(report)


def test_reciprocal_target_gives_finite_weights():
    # T(z) = 1/(1-z^2) - 1, so T_n = (2n)!
    target = tuple(F(factorial(2 * n)) for n in range(1, 9))
    report = reverse_engineer(target)
    assert report.phi[:6] == (2, 12, 18, 8, 0, 0)
    assert report.admissible
    assert round_trip_check(report)


def test_tangent_target_recovers_exponential_weights():
    target = tuple(solve_k_labelled(DegreeWeights.exponential(), 2, 8))
    report = reverse_engineer(target)
    assert report.phi == tuple(F(1, factorial(j)) for j in range(8))
    assert round_trip_check(report)


def test_two_bundled_prefix_recovers_linear_weights():
    report = reverse_engineer((1, 2, 22, 584))
    assert report.phi == (1, 2, 3, 4)
    assert report.guaranteed_order == 3
    assert report.admissible


def test_zero_first_term_rejected():
    with pytest.raises(ValueError, match="T_1"):
        reverse_engineer((0, 1, 2))


def test_too_short_target_rejected():
    with pytest.raises(ValueError):
        reverse_engineer((1,))


def test_inadmissible_target_reported_not_raised():
    # T_n = (2n)! * 2^n * C(1/2, n) * (-1)^(n-1) gives T(z) = 1-sqrt(1-2z^2);
    # tweaking the tail breaks non-negativity without breaking reversion
    report = reverse_engineer((1, 3, 1, 1))
    assert not report.admissible
    assert report.first_violation is not None
    with pytest.raises(ValueError):
        report.weights()


def test_parametric_negative_exponent_case():
    fam = family_from_parameters(1, -1, -1, 8)
    assert fam.case == "negative-exponent"
    assert fam.target[:3] == (F(2), F(24), F(720))
    assert fam.phi_closed[:6] == (2, 12, 18, 8, 0, 0)
    # closed form agrees with the reverse-engineering pipeline
    assert fam.match
    # and with the direct binomial-difference form
    for j in range(8):
        assert fam.phi_closed[j] == 8 * comb(3, j) - 6 * comb(2, j)


def test_parametric_fractional_exponent_case():
    fam = family_from_parameters(1, F(1, 2), 1, 8)
    assert fam.case == "fractional-exponent"
    assert fam.phi_closed == tuple(comb(j + 2, 2) for j in range(8))
    assert fam.match
    assert fam.target == tuple(get_family("bilabelled/3-bundled").sequence(8))


def test_parametric_half_negative_is_admissible_five_ary():
    fam = family_from_parameters(1, F(-1, 2), -1, 8)
    assert fam.case == "negative-exponent"
    assert fam.match
    assert all(v >= 0 for v in fam.phi_closed)
    assert fam.phi_closed[0] > 0
    # b = 1 - 2/B = 5: out-degrees above five carry no weight
    assert fam.phi_closed[5] > 0
    assert fam.phi_closed[6] == 0
    assert fam.phi_closed[7] == 0
    assert fam.reverse.admissible and round_trip_check(fam.reverse)


def test_parametric_rejects_other_parameters():
    with pytest.raises(ValueError):
        family_from_parameters(1, -F(2, 3), -1, 6)  # -1/B not integral
    with pytest.raises(ValueError):
        family_from_parameters(-1, F(1, 2), 1, 6)  # A <= 0
    with pytest.raises(ValueError):
        family_from_parameters(1, 2, 1, 6)  # B outside both cases


def test_parse_values():
    assert parse_values("1, 2,22 ,584") == (1, 2, 22, 584)
    assert parse_values(" 1\t,2 ") == (1, 2)
    assert parse_values("1/2,3") == (F(1, 2), 3)
    with pytest.raises(ValueError, match="no values given"):
        parse_values("  ")


@pytest.mark.parametrize(
    "text, position",
    [("1,,2,22", 2), ("1,2,", 3), (",1", 1), (" , ", 1), ("1, ,2", 2)],
)
def test_parse_values_rejects_an_empty_entry(text, position):
    with pytest.raises(ValueError) as caught:
        parse_values(text)
    assert str(caught.value) == f"empty entry {position} in values {text!r}"


def test_values_from_file(tmp_path):
    path = tmp_path / "target.txt"
    path.write_text("# comment\n1\n\n2\n22\n584\n")
    assert values_from_file(str(path)) == (1, 2, 22, 584)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        values_from_file(str(empty))


def test_values_file_error_names_file_and_line(tmp_path):
    path = tmp_path / "target.txt"
    path.write_text("# T_1, T_2, T_3\n1\n\n2\nfoo\n")
    with pytest.raises(ValueError) as caught:
        values_from_file(str(path))
    assert str(caught.value).startswith(f"{path}, line 5: ")
    assert "'foo'" in str(caught.value)


def test_values_file_decoding_error_names_file_and_line(tmp_path):
    path = tmp_path / "target.txt"
    path.write_bytes(b"1\r\n2\r\n\xff22\r\n")
    with pytest.raises(ValueError) as caught:
        values_from_file(str(path))
    assert str(caught.value).startswith(f"{path}, line 3: 'utf-8' codec can't decode byte 0xff")
    path.write_bytes(b"# T_1\r1\r2\r22\r")  # one value per line at any line ending
    assert values_from_file(str(path)) == (1, 2, 22)


def test_values_file_may_open_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "target.txt"
    path.write_text("1\n2\n22\n", encoding="utf-8-sig")
    assert values_from_file(str(path)) == (1, 2, 22)
    path.write_text("# T_n\n1\n2\n", encoding="utf-8-sig")
    assert values_from_file(str(path)) == (1, 2)


def test_byte_order_mark_past_the_file_start_names_its_line(tmp_path):
    path = tmp_path / "target.txt"
    path.write_bytes(b"1\n\xef\xbb\xbf2\n")
    with pytest.raises(ValueError) as caught:
        values_from_file(str(path))
    assert str(caught.value) == f"{path}, line 2: Invalid literal for Fraction: '\\ufeff2'"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf1\n")  # only one mark opens the file
    with pytest.raises(ValueError) as caught:
        values_from_file(str(path))
    assert str(caught.value) == f"{path}, line 1: Invalid literal for Fraction: '\\ufeff1'"


def test_discovered_family_satisfies_hook_identity():
    # recovered weights feed straight into the hook-length identity
    from math import factorial

    from inctrees.hooks import hook_sum_k_labelled

    target = tuple(F(factorial(2 * n)) for n in range(1, 7))
    report = reverse_engineer(target)
    weights = report.weights()
    for n in range(1, 6):
        identity = hook_sum_k_labelled(weights, 2, n)
        assert identity.equal
        assert identity.lhs == F(target[n - 1], factorial(2 * n))


def test_round_trip_for_admissible_reports_generally():
    for identifier in (
        "bilabelled/unordered",
        "bilabelled/ordered",
        "bilabelled/2-bundled",
        "bilabelled/binary",
        "bilabelled/strict-binary",
    ):
        target = tuple(get_family(identifier).sequence(7))
        report = reverse_engineer(target, source=identifier)
        assert report.admissible, identifier
        assert round_trip_check(report), identifier
