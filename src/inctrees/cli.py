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

``verify`` reads its suites from the check registry ``checks.SUITES``: it
checks the size bounds of every selected suite before any suite runs, then
prints each suite's ``(name, ok, detail)`` checks at the sizes
``(max_n, max_m, cutoff)``, which every suite takes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import bijections, checks, families, hooks, reverse
from .series import _parse_fractions, check_capacity
from .weights import DegreeWeights


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
    suites = checks.SUITES.values() if args.suite == "all" else [checks.SUITES[args.suite]]
    for suite in suites:
        for arg, capacity, what in suite.bounds:
            check_capacity(getattr(args, arg), capacity, what)
    results = [c for suite in suites for c in suite.checks(args.max_n, args.max_m, args.cutoff)]
    ok = all(c[1] for c in results)
    if args.format == "json":
        rows = [{"name": name, "ok": good, "detail": detail} for name, good, detail in results]
        print(json.dumps({"ok": ok, "checks": rows}), file=out)
    else:
        for name, good, detail in results:
            line = f"{'PASS' if good else 'FAIL'} {name}"
            if detail and not good:
                line += f" [{detail}]"
            print(line, file=out)
        print(f"{'OK' if ok else 'FAILED'} ({len(results)} checks)", file=out)
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
        (("suite",), {"choices": (*checks.SUITES, "all")}),
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
