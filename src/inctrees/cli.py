"""Command-line interface.

Subcommands (every ``hook`` kind also takes ``--format plain|json``)::

    seq FAMILY TERMS [--format plain|bfile|json]
    verify {hook,bijection,closed-forms,invariants,all} [--max-n N] [--max-m M]
           [--cutoff C] [--format plain|json]
    reverse (--values 1,2,22,584 | --values-file PATH | --family ID [--terms N])
            [--format plain|json]
    bijection {free,unibi} [--max-m M] [--show]
    hook {klabelled,ktuple} (--weights SPEC | --family ID) [-k K] [--max-n N]
    hook bucket (--weights SPEC | --family ID) [--max-m M] [--max-bucket 2]
    hook rho [--rho-num c0,c1,..] [--rho-den c0,c1,..] [--tree-family F] [--max-n N]

``_COMMANDS`` is the one command table: each command path holds its runner,
positionals, options (with their ``add_argument`` keywords) and required
source group, so a command accepts only the flags it reads.  :func:`main`
reads a well-formed command directly from the table (``_parse_direct``) and
hands anything else, help and errors included, to the argparse parser
:func:`build_parser` builds from the same table at first need.
Exit status is 0 exactly when every executed check passes; a bad input
(every size must be a positive integer) exits 2 naming it.  The b-file
format prints ``n a(n)`` lines with offset 1 for every family.
INCTREE_CAPACITY raises the capacity bounds of the enumerations and of the
k-tuple length k (at the cost of potentially very long runtimes).

``_SUITES`` is the one check registry: each suite maps the sizes
``(max_n, max_m, cutoff)`` to ``(name, ok, detail)`` checks, each comparing
two independent routes, so ``verify`` takes all three for every suite.
``_BOUNDS`` holds each suite's size bounds, all checked before any suite runs.
``tests/test_acceptance.py`` runs the same suites at its own sizes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import factorial
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import bijections, families, hooks, reverse, solvers
from .series import _parse_fractions
from .trees import (
    MAX_BUCKET_TOTAL,
    check_capacity,
    count_bucket_labellings_bruteforce,
    count_bucket_labellings_formula,
    count_k_labellings_bruteforce,
    count_k_labellings_formula,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
)
from .weights import SHAPES, DegreeWeights

_BILABELLED_IDS = tuple(i for i in families.REGISTRY if i.startswith("bilabelled/"))


# -- verification suites -------------------------------------------------

Check = Tuple[str, bool, str]


def _first_failure(name: str, var: str, notes) -> Check:
    """One check over a size range.  ``notes`` pairs each size, in order,
    with None when the identity holds and a note (possibly empty) when it
    fails; the check reports the first failing size."""
    for size, note in notes:
        if note is not None:
            detail = f"first failure at {var}={size}" + (f": {note}" if note else "")
            return (name, False, detail)
    return (name, True, "")


def _hook_notes(reports, full: bool = False):
    return [(r.parameter, None if r.equal else (r.to_text() if full else "")) for r in reports]


def _rho_binary_notes(max_n: int):
    ns = range(1, max_n + 1)
    for n, lhs in zip(ns, hooks.generic_hook_weight_sums("binary", [1, 1], [0, 1], ns)):
        rhs = Fraction(2**n * (n + 1) ** (n - 1), factorial(n))
        yield n, None if lhs == rhs else f"{lhs} != {rhs}"


def _suite_hook(max_n: int, max_m: int, cutoff: int) -> List[Check]:
    checks: List[Check] = []
    ns = range(1, max_n + 1)
    ms = range(1, max_m + 1)
    for identifier in _BILABELLED_IDS:
        w = families.get_family(identifier).weights
        checks.append(_first_failure(
            f"hook k=2 {identifier} n<={max_n}", "n",
            _hook_notes(hooks.hook_sums("k-labelled", w, ns, 2), full=True),
        ))
    tri = families.get_family("trilabelled/unordered").weights
    checks.append(_first_failure(
        f"hook k=3 trilabelled/unordered n<={max_n}", "n",
        _hook_notes(hooks.hook_sums("k-labelled", tri, ns, 3)),
    ))
    for k in (1, 2, 3):
        for variant in ("ordered", "unordered"):
            checks.append(_first_failure(
                f"hook k-tuple(k={k}) {variant}", "n",
                _hook_notes(hooks.hook_sums("k-tuple", SHAPES[variant], ns, k)),
            ))
    for name in ("ordered", "unordered", "strict-binary"):
        checks.append(_first_failure(
            f"hook bucket-free {name} m<={max_m}", "m",
            _hook_notes(hooks.hook_sums("free-multilabelled", SHAPES[name], ms)),
        ))
    checks.append(_first_failure(
        f"hook bucket-uni-bi unordered m<={max_m}", "m",
        _hook_notes(hooks.hook_sums("uni-bi", SHAPES["unordered"], ms)),
    ))
    checks.append(_first_failure(
        f"hook rho=1+1/h binary vs 2^n(n+1)^(n-1)/n! n<={max_n}", "n", _rho_binary_notes(max_n),
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


def _lemniscate_failures(max_n: int) -> Tuple[int, ...]:
    """The n <= max_n where the even-degree recurrence's T_n breaks
    T_n = (-1)^((n-1)/2) S_{2n-1} / 2^(n-1) (odd n) or T_n = S_{2n-1} = 0
    (even n), S being the lemniscate sine coefficients."""
    ts = families.even_degree_recurrence(max_n)
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
        if spec.reference_prefix:
            bad = _compare_prefix(seq, spec.reference_prefix)
            checks.append((f"reference prefix {identifier}", not bad, bad))
        if spec.closed_form is not None:
            closed = tuple(spec.closed_form(n) for n in range(1, terms + 1))
            bad = _compare_prefix(seq, closed)
            checks.append((f"closed form {identifier} n<={terms}", not bad, bad))
        if spec.special_recurrence is not None:
            rec = spec.special_recurrence(terms)
            bad = _compare_prefix(seq, rec)
            checks.append((f"recurrence {identifier} n<={terms}", not bad, bad))
    unordered = solved["bilabelled/unordered"]
    tangent = families.reduced_tangent_numbers(max_n)
    bad = tuple(n for n in range(1, max_n + 1) if unordered[n] != tangent[n - 1])
    checks.append(("reduced tangent numbers vs solver", not bad, str(bad)))
    bad = _lemniscate_failures(max_n)
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
    for identifier in _BILABELLED_IDS:
        spec = families.get_family(identifier)
        counts = solvers.solve_k_labelled(spec.weights, 2, 9)
        rep = reverse.first_order_invariant_check(spec.weights, counts)
        checks.append(
            (
                f"(T')^2 = 2 Phi(T) to order {rep.checked_order} {identifier}",
                rep.ok,
                f"mismatches at {rep.mismatches}" if not rep.ok else "",
            )
        )
    for identifier in (
        "free/strict-binary",
        "free/binary",
        "free/unary-binary",
        "free/ordered-no-unary",
        "free/unordered-no-unary",
    ):
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
    checks.append(_first_failure("tree-sum oracle vs single-label solver", "n", _hook_notes(
        hooks.hook_sums("k-labelled", SHAPES["unordered"], range(1, min(max_n, 6) + 1), 1)
    )))
    return checks


def _label_count_mismatch(max_n: int, max_m: int) -> str:
    """The first tree (sizes 1..max_n) whose closed-form labelling count
    differs from brute force, or "" when all agree."""
    for n in range(1, max_n + 1):
        for tree in enumerate_ordered_trees(n):
            for k in (1, 2, 3):
                if count_k_labellings_formula(tree, k) != count_k_labellings_bruteforce(tree, k):
                    return f"mismatch at tree {tree.to_text()} k={k}"
            for m in range(n, max_m + 1):
                for buckets in enumerate_bucket_functions(tree, m):
                    if count_bucket_labellings_formula(
                        tree, buckets
                    ) != count_bucket_labellings_bruteforce(tree, buckets):
                        return f"mismatch at tree {tree.to_text()} buckets={buckets}"
    return ""


_SUITES = {
    "hook": _suite_hook,
    "bijection": _suite_bijection,
    "closed-forms": _suite_closed_forms,
    "invariants": _suite_invariants,
}

_BOUNDS = {
    "hook": (("max_n", hooks.MAX_HOOK_TREE_SIZE, "hook-sum tree size n"),
             ("max_m", hooks.MAX_HOOK_BUCKET_TOTAL, "hook-sum label count m")),
    "bijection": (("max_m", bijections.MAX_OBJECT_LABELS, "object label count m"),),
    "invariants": (("max_m", MAX_BUCKET_TOTAL, "brute-force bucket total m"),),
}


def _run_seq(args, out) -> int:
    seq = families.get_family(args.family).sequence(args.terms)
    if args.format == "plain":
        print(*seq, file=out)
    elif args.format == "bfile":
        for n, v in enumerate(seq, start=1):
            print(f"{n} {v}", file=out)
    else:
        values = [int(v) if v.denominator == 1 else str(v) for v in seq]
        print(json.dumps({"family": args.family, "values": values}), file=out)
    return 0


def _run_verify(args, out) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    for suite in suites:
        for arg, capacity, what in _BOUNDS.get(suite, ()):
            check_capacity(getattr(args, arg), capacity, what)
    checks: List[Check] = []
    for suite in suites:
        checks.extend(_SUITES[suite](args.max_n, args.max_m, args.cutoff))
    ok = all(c[1] for c in checks)
    if args.format == "json":
        rows = [{"name": name, "ok": good, "detail": detail} for name, good, detail in checks]
        print(json.dumps({"ok": ok, "checks": rows}), file=out)
    else:
        for name, good, detail in checks:
            line = f"{'PASS' if good else 'FAIL'} {name}"
            if detail and not good:
                line += f" [{detail}]"
            print(line, file=out)
        print(f"{'OK' if ok else 'FAILED'} ({len(checks)} checks)", file=out)
    return 0 if ok else 1


def _run_reverse(args, out) -> int:
    if args.terms is not None and args.family is None:
        raise ValueError("argument --terms/-t: allowed only with --family")
    if args.values is not None:
        target, source = reverse.parse_values(args.values), "values"
    elif args.values_file is not None:
        target, source = reverse.values_from_file(args.values_file), args.values_file
    else:
        spec = families.get_family(args.family)
        target, source = tuple(spec.sequence(args.terms or 8)), args.family
    report = reverse.reverse_engineer(target, source=source)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "source": report.source,
                    "target": [str(v) for v in report.target],
                    "phi": [str(v) for v in report.phi],
                    "guaranteed_order": report.guaranteed_order,
                    "admissible": report.admissible,
                    "first_violation": report.first_violation,
                }
            ),
            file=out,
        )
        return 0
    for j, value in enumerate(report.phi):
        print(f"phi_{j} = {value}", file=out)
    print(f"guaranteed order: {report.guaranteed_order}", file=out)
    if report.admissible:
        print("admissible: yes (all computed weights non-negative, phi_0 > 0)", file=out)
        rt = reverse.round_trip_check(report)
        print(f"round trip reproduces input: {'yes' if rt else 'NO'}", file=out)
        return 0 if rt else 1
    print(f"admissible: no (first violation at phi_{report.first_violation})", file=out)
    return 0


def _run_bijection(args, out) -> int:
    if args.scheme == "free":
        report = bijections.verify_chain_bijection(args.max_m)
    else:
        report = bijections.verify_split_bijection(args.max_m)
    for m, d, i in zip(report.label_counts, report.domain_sizes, report.image_sizes):
        print(f"m={m}: {d} objects <-> {i} colored trees", file=out)
    if args.show:
        for obj, img, shifted in bijections.mapped_texts(args.scheme, args.max_m):
            tag = "" if args.scheme == "free" else " [m-1]" if shifted else " [m]"
            print(f"{obj} -> {img}{tag}", file=out)
    if report.ok:
        print("PASS bijection verified", file=out)
        return 0
    for failure in report.failures:
        print(f"FAIL {failure}", file=out)
    return 1


def _rho_coefficients(flag: str, text: str) -> List[Fraction]:
    try:
        return _parse_fractions(text, "coefficients")
    except ValueError as exc:
        raise ValueError(f"bad {flag} {text!r}: {exc}") from None


def _run_rho(args, out) -> int:
    num = _rho_coefficients("--rho-num", args.rho_num)
    den = _rho_coefficients("--rho-den", args.rho_den)
    ns = range(1, args.max_n + 1)
    sums = hooks.generic_hook_weight_sums(args.tree_family, num, den, ns)
    if args.format == "json":
        print(json.dumps([{"n": n, "sum": str(value)} for n, value in zip(ns, sums)]), file=out)
    else:
        print("\n".join(f"n={n} sum={value}" for n, value in zip(ns, sums)), file=out)
    return 0


def _run_hook(args, out) -> int:
    if args.family is not None:
        weights = families.get_family(args.family).weights
    else:
        weights = DegreeWeights.parse(args.weights)
    if args.kind == "bucket":
        scheme = "free-multilabelled" if args.max_bucket is None else "uni-bi"
        reports = hooks.hook_sums(scheme, weights, range(1, args.max_m + 1))
    else:
        scheme = "k-labelled" if args.kind == "klabelled" else "k-tuple"
        reports = hooks.hook_sums(scheme, weights, range(1, args.max_n + 1), args.k)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]), file=out)
    else:
        print("\n".join([r.to_text() for r in reports]), file=out)
    return 0 if all(r.equal for r in reports) else 1


def _positive_int(text: str) -> int:
    """Type of the size arguments (--max-n, --max-m, --cutoff, -k, seq TERMS,
    reverse --terms), read by the direct pass and by argparse alike."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


# -- the command table ---------------------------------------------------

class _Command(NamedTuple):
    """One command path: its runner, its arguments and its required source
    group, of which a command takes exactly one.  An argument is ``(names,
    add_argument keywords)``; an option's names start with "-"."""

    run: Callable
    arguments: tuple
    sources: tuple = ()


_FORMAT = (("--format",), {"choices": ("plain", "json"), "default": "plain"})
_MAX_N = (("--max-n",), {"type": _positive_int, "default": 5})
_MAX_M = (("--max-m",), {"type": _positive_int, "default": 5})
_K = (("-k",), {"type": _positive_int, "default": 2})
_WEIGHT_SOURCES = (
    (("--weights",), {"help": "degree weights, e.g. exp or poly:1,0,1"}),
    (("--family",), {"help": "take weights from a registered family"}),
)

# the help line of each command, in the order ``inctree --help`` lists them
_COMMAND_HELP = {
    "seq": "print a family's counting sequence",
    "verify": "run exhaustive verification suites",
    "reverse": "recover degree weights from a target sequence",
    "bijection": "verify a bijection exhaustively",
    "hook": "evaluate hook-length identities",
}

_COMMANDS = {
    ("seq",): _Command(_run_seq, (
        (("family",), {"help": "family identifier, e.g. bilabelled/unordered"}),
        (("terms",), {"type": _positive_int}),
        (("--format",), {"choices": ("plain", "bfile", "json"), "default": "plain"}),
    )),
    ("verify",): _Command(_run_verify, (
        (("suite",), {"choices": (*_SUITES, "all")}),
        (("--max-n",), {"type": _positive_int, "default": 6}),
        _MAX_M,
        (("--cutoff",), {"type": _positive_int, "default": 50}),
        _FORMAT,
    )),
    ("reverse",): _Command(_run_reverse, (
        (("--terms", "-t"), {"type": _positive_int, "help": "terms of --family (default 8)"}),
        _FORMAT,
    ), sources=(
        (("--values",), {"help": "comma-separated target values T_1,T_2,..."}),
        (("--values-file",), {"help": "file with one target value per line"}),
        (("--family",), {"help": "take the target from a registered family"}),
    )),
    ("bijection",): _Command(_run_bijection, (
        (("scheme",), {"choices": ("free", "unibi")}),
        _MAX_M,
        (("--show",), {"action": "store_true", "help": "print each object pair"}),
    )),
    ("hook", "klabelled"): _Command(_run_hook, (_K, _MAX_N, _FORMAT), _WEIGHT_SOURCES),
    ("hook", "bucket"): _Command(_run_hook, (
        _MAX_M,
        (("--max-bucket",), {"type": int, "choices": (2,), "help": "omit for unbounded"}),
        _FORMAT,
    ), _WEIGHT_SOURCES),
    ("hook", "ktuple"): _Command(_run_hook, (_K, _MAX_N, _FORMAT), _WEIGHT_SOURCES),
    ("hook", "rho"): _Command(_run_rho, (
        (("--rho-num",), {"default": "1"}),
        (("--rho-den",), {"default": "1"}),
        (("--tree-family",), {"default": "ordered"}),
        _MAX_N,
        _FORMAT,
    )),
}


def _grammar(path: Tuple[str, ...], command: _Command):
    """What the direct pass reads of one table entry: each option name's
    (dest, keywords), the positionals' (dest, keywords), the sources' dests
    and the Namespace of a command given no option."""
    options, positionals = {}, []
    defaults = {**dict(zip(("command", "kind"), path)), "run": command.run}
    for names, keywords in (*command.sources, *command.arguments):
        if names[0][:1] != "-":
            positionals.append((names[0], keywords))
            continue
        dest = next((n for n in names if n[:2] == "--"), names[0]).lstrip("-").replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        defaults[dest] = keywords.get("default", False if store_true else None)
        options.update(dict.fromkeys(names, (dest, keywords)))
    sources = tuple(options[names[0]][0] for names, _ in command.sources)
    return options, tuple(positionals), sources, defaults


_GRAMMARS = {path: _grammar(path, command) for path, command in _COMMANDS.items()}
_MALFORMED = object()


def _value(keywords: dict, text: str):
    """``text`` converted and checked as argparse does, or _MALFORMED."""
    convert = keywords.get("type")
    if convert is not None:
        try:
            text = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return _MALFORMED
    choices = keywords.get("choices")
    return _MALFORMED if choices is not None and text not in choices else text


def _parse_direct(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse would return for a well-formed ``argv``, read in
    one pass over the command table; None for anything else: an unknown,
    abbreviated or repeated flag, ``-h``, ``--``, a value that starts with
    "-", a failed type or choice check, a missing or extra positional, or
    zero or two sources.  Options are ``--flag value`` or ``--flag=value``
    in any order, between the positionals too."""
    depth = 2 if argv[:1] == ["hook"] else 1
    grammar = _GRAMMARS.get(tuple(argv[:depth]))
    if grammar is None:
        return None
    options, positionals, sources, defaults = grammar
    values, words = {}, []
    tokens = iter(argv[depth:])
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        name, eq, text = token.partition("=") if token[:2] == "--" else (token, "", "")
        dest, keywords = options.get(name, (None, None))
        if dest is None or dest in values:
            return None
        if keywords.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            text = next(tokens, "-")
        value = _MALFORMED if text[:1] == "-" else _value(keywords, text)
        if value is _MALFORMED:
            return None
        values[dest] = value
    if len(words) != len(positionals) or (sources and sum(d in values for d in sources) != 1):
        return None
    for (dest, keywords), word in zip(positionals, words):
        value = values[dest] = _value(keywords, word)
        if value is _MALFORMED:
            return None
    return argparse.Namespace(**{**defaults, **values})


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table: each command and ``hook``
    kind takes only the flags its runner (``run``) reads, and each source
    group is one required choice.  :func:`main` reads a command with it only
    when the direct pass does not, so its help and errors are argparse's."""
    parser = argparse.ArgumentParser(
        prog="inctree",
        description="Exact enumeration and verification of multilabelled increasing tree families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in _COMMAND_HELP.items()}
    kinds = commands["hook"].add_subparsers(dest="kind", required=True)
    for path, command in _COMMANDS.items():
        _add_arguments(kinds.add_parser(path[1]) if len(path) > 1 else commands[path[0]], command)
    return parser


def _add_arguments(p: argparse.ArgumentParser, command) -> argparse.ArgumentParser:
    """``p`` with the source group, the arguments and the runner of one
    command of the table."""
    if command.sources:
        group = p.add_mutually_exclusive_group(required=True)
        for names, keywords in command.sources:
            group.add_argument(*names, **keywords)
    for names, keywords in command.arguments:
        p.add_argument(*names, **keywords)
    p.set_defaults(run=command.run)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built at the first command the direct pass
    does not read (not at import) and reused by every later one: parsing
    reads it and leaves it unchanged."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_direct(argv)
    if args is None:
        if argv[:1] == ["hook"] and argv[1:2] and argv[1][:1] == "-" and argv[1] not in ("-h", "--help"):
            # argparse would take the option's value for the kind
            _parser().error(f"hook: the kind (klabelled, ktuple, bucket, rho) comes first, "
                            f"before option {argv[1].partition('=')[0]}")
        args, unknown = _parser().parse_known_args(argv)
        if unknown:
            # argparse would report them on the top-level usage line; report
            # them on the usage of the command that does not take them
            path = (args.command, args.kind) if args.command == "hook" else (args.command,)
            command = argparse.ArgumentParser(prog=" ".join(("inctree", *path)))
            _add_arguments(command, _COMMANDS[path]).error(
                f"unrecognized arguments: {' '.join(unknown)}"
            )
    # every exact value prints in full: lift Python's int-to-str digit limit
    # while the command runs (the parsers bound their own input)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.run(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
