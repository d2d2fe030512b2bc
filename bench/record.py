"""Record the benchmark's request lists and their expected outputs.

    PYTHONPATH=src python3 bench/record.py

Builds the fixed request list of every workload, runs each request once
through ``inctrees.cli.main`` in this process, cross-checks the output
against an independent route, and writes ``bench/expected.json`` with the
argument vector, exit code and SHA-256 of stdout of every request.  It
refuses to write the file if any cross-check fails.

Cross-checks:

* ``seq``: the values agree with the family's reference prefix, closed form
  and special recurrence wherever the family has one; k-tuple values agree
  with a sum over plane trees of weight times labelling count for n <= 8.
* ``reverse``: a family prefix is admissible, its recovered weights are the
  family's own phi_0..phi_{N-1}, and the round trip reproduces it; a seeded
  random target is not admissible.
* ``hook``: every size reports equal sides; the rho sums equal
  2^n (n+1)^(n-1) / n! (binary, rho = 1 + 1/h), 1 (binary, rho = 1/h) and
  (2n-3)!! / n! (ordered, rho = 1/h).
* ``bijection``: the check passes and the two sides have equal counts.
* ``verify``: every check passes.

It runs with INCTREE_CAPACITY unset and without ``-O``, as the timed runs do.
"""
from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import call, digest  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def check_seq(argv, stdout) -> str:
    from inctrees import families, trees

    family, terms = argv[1], int(argv[2])
    values = [Fraction(v) for v in stdout.split()]
    if len(values) != terms:
        return f"{len(values)} values for {terms} terms"
    spec = families.get_family(family)
    routes = {}
    if spec.reference_prefix:
        routes["reference prefix"] = spec.reference_prefix[:terms]
    if spec.closed_form is not None:
        routes["closed form"] = [spec.closed_form(n) for n in range(1, terms + 1)]
    if spec.special_recurrence is not None:
        routes["special recurrence"] = spec.special_recurrence(terms)
    if spec.scheme == "k-tuple":
        brute = []
        for n in range(1, min(terms, 8) + 1):
            brute.append(sum(
                trees.tree_weight(t, spec.weights) * trees.count_k_tuple_labellings(t, spec.k)
                for t in trees.enumerate_ordered_trees(n)
            ))
        routes["tree sum"] = brute
    if not routes:
        return "no independent route"
    for name, expected in routes.items():
        got = values[: len(expected)]
        if list(got) != [Fraction(v) for v in expected]:
            return f"differs from the {name}"
    return ""


def check_reverse(argv, stdout, admissible_weights) -> str:
    phi = [Fraction(v) for v in re.findall(r"^phi_\d+ = (\S+)$", stdout, re.M)]
    target = argv[2]
    if target in admissible_weights:
        weights = admissible_weights[target]
        if "admissible: yes" not in stdout:
            return "family prefix not admissible"
        if "round trip reproduces input: yes" not in stdout:
            return "round trip failed"
        if phi != [weights.coefficient(j) for j in range(len(phi))]:
            return "recovered weights differ from the family's"
        if len(phi) != len(target.split(",")):
            return "wrong number of weights"
        return ""
    if "admissible: no" not in stdout:
        return "random target unexpectedly admissible"
    return ""


def check_hook(argv, stdout) -> str:
    if argv[1] != "rho":
        lines = stdout.splitlines()
        if not lines or not all(line.endswith(" equal") for line in lines):
            return "unequal hook sums"
        return ""
    sums = [Fraction(v) for v in re.findall(r"^n=\d+ sum=(\S+)$", stdout, re.M)]
    rho = (argv[argv.index("--tree-family") + 1], argv[argv.index("--rho-num") + 1])
    for n, value in enumerate(sums, start=1):
        if rho == ("binary", "1,1"):
            expected = Fraction(2**n * (n + 1) ** (n - 1), factorial(n))
        elif rho == ("binary", "1"):
            expected = Fraction(1)  # n! increasing binary trees
        elif rho == ("ordered", "1"):
            expected = Fraction(_double_factorial(2 * n - 3), factorial(n))
        else:
            return "no closed form for this rho"
        if value != expected:
            return f"rho sum differs at n={n}"
    return ""


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def check_bijection(argv, stdout) -> str:
    if "PASS bijection verified" not in stdout:
        return "bijection check failed"
    for d, i in re.findall(r"^m=\d+: (\d+) objects <-> (\d+) colored trees$", stdout, re.M):
        if d != i:
            return "domain and image sizes differ"
    return ""


def check_verify(argv, stdout) -> str:
    return "" if re.search(r"^OK \(\d+ checks\)$", stdout, re.M) else "a check failed"


def build_lists():
    from inctrees import families

    prefixes, admissible = {}, {}
    for family, lengths in workloads.REVERSE_FAMILY_LENGTHS.items():
        spec = families.get_family(family)
        n = max(lengths)
        if spec.special_recurrence is not None:
            values = list(spec.special_recurrence(n))
        else:
            values = [spec.closed_form(i) for i in range(1, n + 1)]
        prefixes[family] = values
        for length in range(2, n + 1):
            admissible[",".join(str(v) for v in values[:length])] = spec.weights
    return {
        "seq": workloads.seq_requests(),
        "oracle": workloads.oracle_requests(),
        "reverse": workloads.reverse_requests(prefixes),
    }, admissible


def main() -> int:
    if os.environ.get("INCTREE_CAPACITY") or sys.flags.optimize:
        print("record with INCTREE_CAPACITY unset and without -O", file=sys.stderr)
        return 2
    from inctrees import cli

    lists, admissible = build_lists()
    checks = {
        "seq": check_seq,
        "hook": check_hook,
        "bijection": check_bijection,
        "verify": check_verify,
        "reverse": lambda argv, out: check_reverse(argv, out, admissible),
    }
    recorded, problems = {}, []
    for name, requests in lists.items():
        entries = []
        for argv in requests:
            _, code, stdout = call(cli.main, argv)
            problem = checks[argv[0]](argv, stdout) if code == 0 else f"exit {code}"
            if problem:
                problems.append(f"{' '.join(argv)[:120]}: {problem}")
            entries.append(
                {"argv": argv, "exit": code, "sha256": digest(stdout), "bytes": len(stdout.encode())}
            )
        recorded[name] = entries
        print(f"{name}: {len(entries)} requests", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    blocks = [
        f" {json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(e) for e in entries) + "\n ]"
        for name, entries in recorded.items()
    ]
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        handle.write('{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
