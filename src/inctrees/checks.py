"""The check registry of ``inctree verify``.

``SUITES`` is the one table: each suite name maps to its size bounds,
``(size argument, capacity, what)`` triples all checked before any suite
runs, and to its checks, a function of the sizes ``(max_n, max_m, cutoff)``
returning ``(name, ok, detail)`` triples, each comparing two independent
routes.  ``tests/test_acceptance.py`` runs the same suites at its own sizes.

Each check calls the package through its modules (``hooks.hook_sums``, not a
name imported from ``hooks``), so a rebinding of a module's name reaches it.
The k-labelled families come from ``families.REGISTRY`` by scheme and k.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, List, NamedTuple, Tuple

from . import bijections, families, hooks, reverse, solvers, trees
from .series import _check_count
from .weights import SHAPES, DegreeWeights

Check = Tuple[str, bool, str]


def first_failure(name: str, var: str, notes) -> Check:
    """One check over a size range.  ``notes`` pairs each size, in order,
    with None when the identity holds and a note (possibly empty) when it
    fails; the check reports the first failing size."""
    for size, note in notes:
        if note is not None:
            detail = f"first failure at {var}={size}" + (f": {note}" if note else "")
            return (name, False, detail)
    return (name, True, "")


def hook_notes(reports, full: bool = False):
    return [(r.parameter, None if r.equal else (r.to_text() if full else "")) for r in reports]


def _hook_check(name: str, var: str, scheme: str, weights, sizes, k=None, full=False) -> Check:
    """One hook-identity row: the scheme's hook sums at the sizes, a failure
    noting the full report when ``full``."""
    return first_failure(name, var, hook_notes(hooks.hook_sums(scheme, weights, sizes, k), full))


def _labelled(k: int):
    """(identifier, spec) of each registry family with k labels per node."""
    return [(i, s) for i, s in families.REGISTRY.items() if s.scheme == "k-labelled" and s.k == k]


def rho_binary_notes(max_n: int):
    ns = range(1, _check_count(max_n, "max_n") + 1)
    for n, lhs in zip(ns, hooks.generic_hook_weight_sums("binary", [1, 1], [0, 1], ns)):
        rhs = Fraction(2**n * (n + 1) ** (n - 1), factorial(n))
        yield n, None if lhs == rhs else f"{lhs} != {rhs}"


def _suite_hook(max_n: int, max_m: int, cutoff: int) -> List[Check]:
    ns = range(1, max_n + 1)
    ms = range(1, max_m + 1)
    rows = [
        (f"hook k={k} {identifier} n<={max_n}", "n", "k-labelled", spec.weights, ns, k, k == 2)
        for k in (2, 3) for identifier, spec in _labelled(k)
    ]
    rows += [
        (f"hook k-tuple(k={k}) {variant}", "n", "k-tuple", SHAPES[variant], ns, k)
        for k in (1, 2, 3) for variant in ("ordered", "unordered")
    ]
    rows += [
        (f"hook bucket-free {name} m<={max_m}", "m", "free-multilabelled", SHAPES[name], ms)
        for name in ("ordered", "unordered", "strict-binary")
    ]
    rows.append((f"hook bucket-uni-bi unordered m<={max_m}", "m", "uni-bi", SHAPES["unordered"],
                 ms))
    checks = [_hook_check(*row) for row in rows]
    checks.append(first_failure(
        f"hook rho=1+1/h binary vs 2^n(n+1)^(n-1)/n! n<={max_n}", "n", rho_binary_notes(max_n),
    ))
    return checks


def _suite_bijection(max_n: int, max_m: int, cutoff: int) -> List[Check]:
    # the engine counts each domain: free multilabelled ordered trees for the
    # chain map, uni-bi unordered trees for the split map
    reports = bijections.verify_chain_bijection(max_m), bijections.verify_split_bijection(max_m)
    engine = (
        solvers.solve_free_multilabelled(SHAPES["ordered"], max_m),
        solvers.solve_unilabelled_bilabelled(SHAPES["unordered"], max_m),
    )
    checks: List[Check] = []
    for r, counts in zip(reports, engine):
        failures = [
            f"m={m}: {size} objects vs engine count {count}"
            for m, size, count in zip(r.label_counts, r.domain_sizes, counts) if size != count
        ][:1] + list(r.failures[:3])
        checks.append((
            f"{r.name} bijection m<={max_m} counts={r.domain_sizes}", not failures,
            "; ".join(failures),
        ))
    return checks


def _compare_prefix(solved, expected) -> str:
    for i, (a, b) in enumerate(zip(solved, expected), start=1):
        if a != b:
            return f"index {i}: solver {a} != reference {b}"
    return ""


def lemniscate_failures(max_n: int) -> Tuple[int, ...]:
    """The n <= max_n where the even-degree recurrence's T_n breaks
    T_n = (-1)^((n-1)/2) S_{2n-1} / 2^(n-1) (odd n) or T_n = S_{2n-1} = 0
    (even n), S being the lemniscate sine coefficients."""
    ts = families.even_degree_recurrence(_check_count(max_n, "max_n"))
    ss = families.lemniscate_sine_coefficients(2 * max_n - 1)
    return tuple(
        n for n, t, s in zip(range(1, max_n + 1), ts, ss[::2])
        if (t != Fraction((-1) ** (n // 2) * s, 2 ** (n - 1)) if n % 2 else t != 0 or s != 0)
    )


def _suite_closed_forms(max_n: int, max_m: int, cutoff: int) -> List[Check]:
    checks: List[Check] = []
    solved = {}
    for identifier, spec in sorted(families.REGISTRY.items()):
        terms = max(len(spec.reference_prefix), max_n)
        seq = solved[identifier] = spec.sequence(terms)
        # each second route of the spec, None or () where it has none
        routes = {
            f"reference prefix {identifier}": spec.reference_prefix,
            f"closed form {identifier} n<={terms}":
                spec.closed_form and tuple(map(spec.closed_form, range(1, terms + 1))),
            f"recurrence {identifier} n<={terms}":
                spec.special_recurrence and spec.special_recurrence(terms),
        }
        for name, expected in routes.items():
            if expected:
                bad = _compare_prefix(seq, expected)
                checks.append((name, not bad, bad))
    unordered = solved["bilabelled/unordered"]
    tangent = families.reduced_tangent_numbers(max_n)
    bad = tuple(n for n in range(1, max_n + 1) if unordered[n] != tangent[n - 1])
    checks.append(("reduced tangent numbers vs solver", not bad, str(bad)))
    bad = lemniscate_failures(max_n)
    checks.append(("even-degree vs lemniscate sine", not bad, str(bad)))
    ns = (2, 3, 5, 7)
    exacts = families.strict_binary_recurrence(ns[-1])
    for n, approx in zip(ns, families.strict_binary_lattice_sums(ns, cutoff)):
        exact = exacts[n - 1]
        # within 1e-6 of exact, relative (absolute for T_n = 0), in both parts
        scale = abs(exact) or 1
        ok = abs(approx.value - exact) / scale < 1e-6
        detail = f"value={approx.value!r} exact={exact}"
        if approx.imaginary_residual / scale >= 1e-6:
            ok = False
            detail += f" imaginary={approx.imaginary_residual!r}"
        checks.append((f"lattice sum n={n} cutoff={cutoff}", ok, detail))
    for m in range(1, 7):
        exact = solved["free/binary"][m]
        approx = families.binary_free_multi_numeric(m, cutoff)
        ok = abs(approx - exact) / int(exact) < 1e-6
        checks.append((f"binary free series m={m}", ok, f"value={approx!r}"))
    return checks


def _suite_invariants(max_n: int, max_m: int, cutoff: int) -> List[Check]:
    checks: List[Check] = []
    for identifier, spec in _labelled(2):
        counts = solvers.solve_k_labelled(spec.weights, 2, 9)
        rep = reverse.first_order_invariant_check(spec.weights, counts)
        detail = f"mismatches at {rep.mismatches}" if not rep.ok else ""
        checks.append((f"(T')^2 = 2 Phi(T) to order {rep.checked_order} {identifier}", rep.ok,
                       detail))
    for identifier in ("free/strict-binary", "free/binary", "free/unary-binary",
                       "free/ordered-no-unary", "free/unordered-no-unary"):
        spec = families.get_family(identifier)
        base = spec.weights
        shifted = DegreeWeights.custom(
            lambda j, _b=base: _b.coefficient(j) + (1 if j == 1 else 0),
            name=f"{base.name}+t",
        )
        free_seq = tuple(spec.sequence(max_m))
        uni_seq = tuple(solvers.solve_k_labelled(shifted, 1, max_m))
        bad = _compare_prefix(free_seq, uni_seq)
        checks.append((f"free = single-label with phi+t {identifier}", not bad, bad))
    bad = _label_count_mismatch(min(max_n, 4), max_m)
    checks.append(("label-count formulas vs brute force n<=4", not bad, bad))
    # sum over trees of w(T) n!/prod h = T_n, the k = 1 hook identity; its left
    # side is `verify hook`'s k-tuple(k=1), so only the k-labelled solver is new
    checks.append(_hook_check(
        "tree-sum oracle vs single-label solver", "n", "k-labelled", SHAPES["unordered"],
        range(1, min(max_n, 6) + 1), 1,
    ))
    return checks


def _label_count_mismatch(max_n: int, max_m: int) -> str:
    """The first tree (sizes 1..max_n) whose closed-form labelling count
    differs from brute force, or "" when all agree."""
    for n in range(1, max_n + 1):
        for tree in trees.enumerate_ordered_trees(n):
            for k in (1, 2, 3):
                formula = trees.count_k_labellings_formula(tree, k)
                if formula != trees.count_k_labellings_bruteforce(tree, k):
                    return f"mismatch at tree {tree.to_text()} k={k}"
            for m in range(n, max_m + 1):
                for buckets in trees.enumerate_bucket_functions(tree, m):
                    formula = trees.count_bucket_labellings_formula(tree, buckets)
                    if formula != trees.count_bucket_labellings_bruteforce(tree, buckets):
                        return f"mismatch at tree {tree.to_text()} buckets={buckets}"
    return ""


class Suite(NamedTuple):
    """One suite of ``verify``: its size bounds and its checks."""

    bounds: Tuple[Tuple[str, int, str], ...]
    checks: Callable[[int, int, int], List[Check]]


SUITES = {
    "hook": Suite((("max_n", hooks.MAX_HOOK_TREE_SIZE, "hook-sum tree size n"),
                   ("max_m", hooks.MAX_HOOK_BUCKET_TOTAL, "hook-sum label count m")), _suite_hook),
    "bijection": Suite((("max_m", bijections.MAX_OBJECT_LABELS, "object label count m"),),
                       _suite_bijection),
    "closed-forms": Suite((), _suite_closed_forms),
    "invariants": Suite((("max_m", trees.MAX_BUCKET_TOTAL, "brute-force bucket total m"),),
                        _suite_invariants),
}
