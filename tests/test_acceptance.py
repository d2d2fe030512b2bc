"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The cross-checks come from the ``verify`` check registry
(``cli._SUITES``), run here at each criterion's own sizes; this file adds
the hard-coded reference prefixes, the reverse-engineering targets and the
checks at sizes the registry does not reach.  All comparisons are exact
except the two numeric series checks, which carry a 1e-6 tolerance.
"""
import time
from fractions import Fraction as F
from math import comb, factorial

from inctrees import cli, families, hooks, reverse, solvers
from inctrees.weights import DegreeWeights

EXP = DegreeWeights.exponential()
ORDERED = DegreeWeights.bundled(1)
# closed-forms checks that rest on floats, and so belong to criterion 09
NUMERIC = ("lattice sum ", "binary free series ")


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _registry(suite: str, max_n: int = 1, max_m: int = 1, cutoff: int = 50):
    """The checks of one registry suite and the seconds they took."""
    start = time.monotonic()
    checks = cli._SUITES[suite](max_n, max_m, cutoff)
    return checks, time.monotonic() - start


def _failures(checks):
    return [f"{name}: {detail}" for name, ok, detail in checks if not ok]


def test_criterion_01_sequence_regression():
    expected = {
        "bilabelled/unordered": (1, 1, 4, 34, 496, 11056),
        "bilabelled/ordered": (1, 1, 7, 127, 4369, 243649),
        "bilabelled/3-bundled": (1, 3, 45, 1575, 99225),
        "bilabelled/2-bundled": (1, 2, 22, 584, 28384, 2190128),
        "bilabelled/strict-binary": (1, 0, 6, 0, 336, 0, 77616, 0, 50916096),
        "bilabelled/even-degree": (1, 0, 3, 0, 189, 0, 68607),
        "bilabelled/binary": (1, 2, 10, 80, 1000, 17600, 418000),
        "trilabelled/unordered": (1, 1, 11, 375, 27897, 3817137),
    }
    failures = []
    for identifier, prefix in expected.items():
        spec = families.get_family(identifier)
        start = time.monotonic()
        got = solvers.solve_k_labelled(spec.weights, spec.k, len(prefix)).as_integers()
        elapsed = time.monotonic() - start
        if got != prefix:
            failures.append(f"{identifier}: {got}")
        if elapsed > 1.0:
            failures.append(f"{identifier}: took {elapsed:.2f}s")
    _report(1, not failures, f"k-labelled sequence regression ({len(expected)} families)")
    assert not failures, failures


def test_criterion_02_free_multilabelled_regression():
    failures = []
    cases = {
        "free/strict-binary": (1, 1, 3, 9, 39, 189, 1107),
        "free/binary": (1, 3, 11, 51, 295, 2055, 16715),
    }
    for identifier, prefix in cases.items():
        got = families.get_family(identifier).sequence(len(prefix)).as_integers()
        if got != prefix:
            failures.append(f"{identifier}: {got}")
    _report(2, not failures, "free multilabelled regression m<=7")
    assert not failures, failures


def test_criterion_03_unibi_regression():
    failures = []
    qs = families.unibi_q_sequence(7)
    if qs != (1, 1, 3, 11, 55, 337, 2469):
        failures.append(f"Q: {qs}")
    ts = solvers.solve_unilabelled_bilabelled(EXP, 7).as_integers()
    if ts != (1, 2, 4, 14, 66, 392, 2806):
        failures.append(f"T: {ts}")
    _report(3, not failures, "uni-bi regression m<=7")
    assert not failures, failures


# closed-forms checks at max_n=10 that criteria 02-04 rely on, by identity
CLOSED_FORM_CHECKS = (
    "closed form bilabelled/ordered n<=10",  # inverse error function
    "closed form bilabelled/3-bundled n<=10",  # double factorials
    "closed form bilabelled/2-bundled n<=10",  # Bell polynomials
    "recurrence bilabelled/even-degree n<=10",
    "even-degree vs lemniscate sine",
    "recurrence trilabelled/unordered n<=10",  # Blasius numbers
    "closed form free/unary-binary n<=10",  # m!
    "closed form free/ordered-no-unary n<=10",  # (2m-3)!!
    "closed form free/unordered-no-unary n<=10",  # (m-1)!
    "closed form free/strict-binary n<=10",
    "closed form unibi/unordered n<=10",  # T_m = Q_m + Q_{m-1}
)


def test_criterion_04_closed_form_cross_validation():
    checks, _ = _registry("closed-forms", max_n=10)
    exact = [c for c in checks if not c[0].startswith(NUMERIC)]
    names = {name for name, _, _ in exact}
    failures = _failures(exact) + [
        f"{name}: not run" for name in CLOSED_FORM_CHECKS if name not in names
    ]
    _report(4, not failures, f"closed forms agree with coefficient solvers ({len(exact)} checks)")
    assert not failures, failures


def test_criterion_05_hook_identities():
    # verify hook at n<=8, m<=7, which covers k=3 unordered and the k-tuple
    # sums; then k=3 ordered and ordered bucket-uni-bi, which the registry
    # does not run, and rho to n=10
    checks, _ = _registry("hook", max_n=8, max_m=7)
    checks.append(cli._first_failure(
        "hook k=3 ordered n<=7", "n",
        cli._hook_notes(hooks.hook_sums_k_labelled(ORDERED, 3, range(1, 8))),
    ))
    checks.append(cli._first_failure(
        "hook bucket-uni-bi ordered m<=7", "m",
        cli._hook_notes(hooks.hook_sums_bucket(ORDERED, range(1, 8), max_bucket=2)),
    ))
    checks.append(cli._first_failure(
        "hook rho=1+1/h binary n<=10", "n", cli._rho_binary_notes(10)
    ))
    failures = _failures(checks)
    _report(5, not failures, f"hook-length identities ({len(checks)} checks)")
    assert not failures, failures


def test_criterion_06_labelling_count_oracles():
    checks, elapsed = _registry("invariants", max_n=4, max_m=8)
    failures = _failures(checks)
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(6, not failures, f"invariants n<=4 m<=8 with label counts ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_07_bijection_verification():
    checks, elapsed = _registry("bijection", max_m=6)
    failures = _failures(checks)
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(7, not failures, f"{'; '.join(c[0] for c in checks)} ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_08_reverse_engineering_round_trips():
    failures = []
    sqrt_target = tuple(families.get_family("bilabelled/3-bundled").sequence(8))
    rep = reverse.reverse_engineer(sqrt_target)
    if rep.phi != tuple(comb(j + 2, 2) for j in range(8)):
        failures.append(f"square-root target: {rep.phi}")
    if not (rep.admissible and reverse.round_trip_check(rep)):
        failures.append("square-root target round trip")
    reciprocal_target = tuple(F(factorial(2 * n)) for n in range(1, 9))
    rep = reverse.reverse_engineer(reciprocal_target)
    if rep.phi != (2, 12, 18, 8, 0, 0, 0, 0):
        failures.append(f"reciprocal target: {rep.phi}")
    if not (rep.admissible and reverse.round_trip_check(rep)):
        failures.append("reciprocal target round trip")
    tangent_target = tuple(solvers.solve_k_labelled(EXP, 2, 8))
    rep = reverse.reverse_engineer(tangent_target)
    if rep.phi != tuple(F(1, factorial(j)) for j in range(8)):
        failures.append(f"tangent target: {rep.phi}")
    if not (rep.admissible and reverse.round_trip_check(rep)):
        failures.append("tangent target round trip")
    rep = reverse.reverse_engineer((1, 2, 22, 584))
    if rep.phi != (1, 2, 3, 4):
        failures.append(f"2-bundled prefix: {rep.phi}")
    _report(8, not failures, "reverse engineering recovers the expected weights")
    assert not failures, failures


def test_criterion_09_numeric_elliptic_checks():
    checks, elapsed = _registry("closed-forms", cutoff=50)
    numeric = [c for c in checks if c[0].startswith(NUMERIC)]
    failures = _failures(numeric)
    if len(numeric) != 10:
        failures.append(f"{len(numeric)} numeric checks, expected 10")
    if elapsed > 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(9, not failures, f"numeric elliptic checks within 1e-6 ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_10_first_order_invariant():
    failures = []
    for identifier in (
        "bilabelled/unordered",
        "bilabelled/ordered",
        "bilabelled/2-bundled",
        "bilabelled/3-bundled",
        "bilabelled/strict-binary",
        "bilabelled/even-degree",
        "bilabelled/binary",
    ):
        weights = families.get_family(identifier).weights
        counts = solvers.solve_k_labelled(weights, 2, 10)
        report = solvers.first_order_invariant_check(weights, counts)
        if not report.ok or report.checked_order < 20:
            failures.append(f"{identifier}: order {report.checked_order}, "
                            f"mismatches {report.mismatches}")
    _report(10, not failures, "(T')^2 = 2 Phi(T) through 20 series coefficients")
    assert not failures, failures
