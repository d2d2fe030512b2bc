import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from inctrees import bijections, cli, families, hooks, solvers
from inctrees.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_VERIFY_ALL = ROOT / "tests" / "data" / "verify_all_max_n4_max_m4.txt"
GOLDEN_VERIFY_ALL_JSON = ROOT / "tests" / "data" / "verify_all_max_n4_max_m4.json"
GOLDEN_VERIFY_INVARIANTS = ROOT / "tests" / "data" / "verify_invariants_max_n6_max_m7.txt"
GOLDEN_VERIFY_INVARIANTS_JSON = ROOT / "tests" / "data" / "verify_invariants_max_n6_max_m7.json"
GOLDEN_REVERSE = ROOT / "tests" / "data" / "reverse_families.txt"
GOLDEN_BIJECTION_SHOW = ROOT / "tests" / "data" / "bijection_show_m5.txt"
GOLDEN_BIJECTION_SHA = ROOT / "tests" / "data" / "bijection_outputs.sha256"
GOLDEN_SEQ = ROOT / "tests" / "data" / "seq_registry_40.txt"
GOLDEN_SEQ_200 = ROOT / "tests" / "data" / "seq_registry_200.sha256"
# checks whose detail is a float that depends on the platform's libm
FLOAT_ROUTES = ("lattice sum ", "binary free series ")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, _ = run(capsys, "seq", "bilabelled/unordered", "6")
    assert code == 0
    assert out.strip() == "1 1 4 34 496 11056"


def test_seq_bfile(capsys):
    code, out, _ = run(capsys, "seq", "free/unary-binary", "5", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 2\n3 6\n4 24\n5 120\n"


def test_seq_bfile_is_byte_stable(capsys):
    _, first, _ = run(capsys, "seq", "bilabelled/ordered", "6", "--format", "bfile")
    _, second, _ = run(capsys, "seq", "bilabelled/ordered", "6", "--format", "bfile")
    assert first == second


def test_seq_json(capsys):
    code, out, _ = run(capsys, "seq", "trilabelled/unordered", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "trilabelled/unordered"
    assert payload["values"] == [1, 1, 11, 375]


def test_seq_ktuple_identifier(capsys):
    code, out, _ = run(capsys, "seq", "ktuple/ordered:k=2", "4")
    assert code == 0
    assert out.strip() == "1 1 5 59"


def test_seq_unknown_family_fails(capsys):
    code, out, err = run(capsys, "seq", "nosuch", "3")
    assert code != 0
    assert "unknown family" in err


def test_seq_capacity_error_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("INCTREE_CAPACITY", "2")
    code, _, err = run(capsys, "hook", "klabelled", "--weights", "exp", "--max-n", "5")
    assert code != 0
    assert "capacity" in err


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_bad_capacity_value_is_reported(capsys, monkeypatch, value):
    monkeypatch.setenv("INCTREE_CAPACITY", value)
    code, _, err = run(capsys, "hook", "klabelled", "--weights", "exp", "--max-n", "2")
    assert code == 2
    assert "INCTREE_CAPACITY" in err and repr(value) in err


def test_reverse_values(capsys):
    code, out, _ = run(capsys, "reverse", "--values", "1,2,22,584")
    assert code == 0
    assert "phi_0 = 1" in out
    assert "phi_3 = 4" in out
    assert "admissible: yes" in out
    assert "round trip reproduces input: yes" in out


def test_reverse_family(capsys):
    code, out, _ = run(
        capsys, "reverse", "--family", "bilabelled/3-bundled", "--terms", "8"
    )
    assert code == 0
    assert "phi_1 = 3" in out and "phi_2 = 6" in out and "phi_3 = 10" in out


def test_reverse_values_file_equals_values(capsys, tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("1\n2\n22\n584\n")
    _, expected, _ = run(capsys, "reverse", "--values", "1,2,22,584")
    code, out, _ = run(capsys, "reverse", "--values-file", str(path))
    assert (code, out) == (0, expected)
    code, out, _ = run(capsys, "reverse", "--values-file", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["source"] == str(path)


def test_reverse_zero_start_fails(capsys):
    code, _, err = run(capsys, "reverse", "--values", "0,1")
    assert code != 0
    assert "T_1" in err


def test_reverse_json(capsys):
    code, out, _ = run(
        capsys, "reverse", "--values", "1,2,22,584", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == ["1", "2", "3", "4"]
    assert payload["admissible"] is True


def test_bijection_free(capsys):
    code, out, _ = run(capsys, "bijection", "free", "--max-m", "4")
    assert code == 0
    assert "m=4: 30 objects" in out
    assert "PASS" in out


def test_bijection_failure_prints_each_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(bijections, "_unchain", lambda code: ((0,), ((9,),)))
    code, out, _ = run(capsys, "bijection", "free", "--max-m", "1")
    assert code == 1
    assert out == "m=1: 1 objects <-> 1 colored trees\nFAIL m=1: round trip failed for ({1})\n"


def test_bijection_unibi_show(capsys):
    code, out, _ = run(capsys, "bijection", "unibi", "--max-m", "2", "--show")
    assert code == 0
    assert "({1,2}) -> ({1}w) [m-1]" in out


def test_hook_klabelled(capsys):
    code, out, _ = run(
        capsys, "hook", "klabelled", "--weights", "exp", "-k", "2", "--max-n", "4"
    )
    assert code == 0
    assert out.count("equal") == 4


def test_hook_family_weights(capsys):
    code, out, _ = run(
        capsys, "hook", "ktuple", "--family", "bilabelled/ordered", "-k", "2",
        "--max-n", "3", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["verdict"] == "equal" for r in reports)


def test_hook_bucket(capsys):
    code, out, _ = run(
        capsys, "hook", "bucket", "--weights", "exp", "--max-m", "4",
        "--max-bucket", "2",
    )
    assert code == 0
    assert "bucket-uni-bi" in out


def test_hook_bucket_rejects_other_caps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hook", "bucket", "--weights", "exp", "--max-m", "3", "--max-bucket", "3"])
    assert exc.value.code == 2
    assert "argument --max-bucket" in capsys.readouterr().err


def test_hook_rho(capsys):
    code, out, _ = run(
        capsys, "hook", "rho", "--tree-family", "binary",
        "--rho-num", "1,1", "--rho-den", "0,1", "--max-n", "3",
    )
    assert code == 0
    assert "n=3 sum=64/3" in out


def test_hook_rho_json(capsys):
    code, out, _ = run(
        capsys, "hook", "rho", "--tree-family", "binary",
        "--rho-num", "1,1", "--rho-den", "0,1", "--max-n", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"n": 1, "sum": "2"}, {"n": 2, "sum": "6"}, {"n": 3, "sum": "64/3"},
    ]


@pytest.mark.parametrize("argv, message", [
    (["--max-n", "13"], "n = 13 exceeds the capacity 12"),
    (["--rho-den", "3,-1", "--max-n", "5"], "vanishes at h = 3"),
], ids=["capacity", "vanishing-denominator"])
def test_hook_rho_failure_prints_nothing(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    code, out, err = run(capsys, "hook", "rho", "--rho-num", "1", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["klabelled", "--max-n", "13"], "n = 13 exceeds the capacity 12"),
    (["ktuple", "--max-n", "13"], "n = 13 exceeds the capacity 12"),
    (["bucket", "--max-m", "9"], "m = 9 exceeds the capacity 8"),
])
def test_hook_capacity_fails_before_any_sum(capsys, monkeypatch, argv, message):
    # the largest size runs first, so its capacity check precedes every sum
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    calls = []

    def counted(name):
        original = getattr(hooks, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_tree_sum", "_bucket_census"):
        monkeypatch.setattr(hooks, name, counted(name))
    code, out, err = run(capsys, "hook", *argv, "--weights", "exp")
    assert (code, out, calls) == (2, "", [])
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["bijection", "free", "--max-m", "8"], "object label count m = 8 exceeds the capacity 7"),
    (["verify", "bijection", "--max-m", "8"], "object label count m = 8 exceeds the capacity 7"),
    (["verify", "hook", "--max-n", "13"], "hook-sum tree size n = 13 exceeds the capacity 12"),
    (["verify", "hook", "--max-m", "9"], "hook-sum label count m = 9 exceeds the capacity 8"),
    (["verify", "invariants", "--max-m", "11"],
     "brute-force bucket total m = 11 exceeds the capacity 10"),
    # the hook suite runs first and would take m = 8; the bijection bound is 7
    (["verify", "all", "--max-m", "8"], "object label count m = 8 exceeds the capacity 7"),
], ids=["bijection", "verify-bijection", "verify-hook-n", "verify-hook-m", "verify-invariants",
        "verify-all"])
def test_size_capacity_fails_before_any_check(capsys, monkeypatch, argv, message):
    # each size meets its capacity before any smaller size is enumerated
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        return lambda *args: calls.append(name) or original(*args)

    for module, name in ((bijections, "_levels"), (hooks, "_tree_sum"),
                         (hooks, "_bucket_census"), (solvers, "first_order_invariant_check")):
        monkeypatch.setattr(module, name, counted(module, name))
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert message in err


@pytest.mark.parametrize("argv, solver, top", [
    (["klabelled", "--weights", "exp", "--max-n", "7"], "solve_k_labelled", 7),
    (["ktuple", "--weights", "poly:1,1", "-k", "3", "--max-n", "6"], "solve_k_tuple", 6),
    (["bucket", "--weights", "exp", "--max-m", "6"], "solve_free_multilabelled", 6),
    (["bucket", "--weights", "exp", "--max-m", "5", "--max-bucket", "2"],
     "solve_unilabelled_bilabelled", 5),
], ids=["klabelled", "ktuple", "bucket-free", "bucket-uni-bi"])
def test_hook_command_solves_once(capsys, monkeypatch, argv, solver, top):
    # every size's right-hand side comes from one solve to the largest size
    calls = []

    def counted(name):
        original = getattr(hooks, name)
        return lambda *args: calls.append((name, args[-1])) or original(*args)

    for name in ("solve_k_labelled", "solve_k_tuple", "solve_free_multilabelled",
                 "solve_unilabelled_bilabelled"):
        monkeypatch.setattr(hooks, name, counted(name))
    code, out, _ = run(capsys, "hook", *argv)
    assert (code, calls) == (0, [(solver, top)])
    assert out.count(" equal\n") == top


def test_broken_bijection_fails_without_error(capsys, monkeypatch):
    # swapping the first two labels of each image breaks its increasing
    # labelling: the image is a FAIL line, not an input error from the inverse
    chain = bijections._chain

    def swapped(code):
        word, labels, colors = chain(code)
        return word, labels[1::-1] + labels[2:], colors

    monkeypatch.setattr(bijections, "_chain", swapped)
    code, out, err = run(capsys, "bijection", "free", "--max-m", "3")
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 2 + 6
    assert all("image not a valid colored tree" in line for line in fails)


def test_verify_bijection_suite(capsys):
    code, out, _ = run(capsys, "verify", "bijection", "--max-m", "4")
    assert code == 0
    assert "OK" in out


def test_bijection_domain_check_reports_first_engine_mismatch(capsys, monkeypatch):
    # a wrong engine count fails the chain map's check, naming m and both values
    counts = (1, 2, 7, 31)
    monkeypatch.setattr(cli.solvers, "solve_free_multilabelled", lambda weights, terms: counts)
    code, out, _ = run(capsys, "verify", "bijection", "--max-m", "4")
    assert code == 1
    assert out.splitlines() == [
        "FAIL chain bijection m<=4 counts=(1, 2, 6, 30) [m=3: 6 objects vs engine count 7]",
        "PASS split bijection m<=4 counts=(1, 2, 4, 14)",
        "FAILED (2 checks)",
    ]


def test_verify_invariants_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "invariants", "--max-n", "4", "--max-m", "4"
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_hook_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "hook", "--max-n", "4", "--max-m", "4")
    assert code == 0


def test_verify_closed_forms_json(capsys):
    code, out, _ = run(
        capsys, "verify", "closed-forms", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_lattice_check_fails_on_an_imaginary_part(capsys, monkeypatch):
    # A lattice sum whose real part matches but whose imaginary part is
    # 1e-3 of T_n (or 1e-3 itself for T_2 = 0) fails its check.
    one_pass = families.strict_binary_lattice_sums

    def tilted(ns, cutoff):
        return tuple(
            families.LatticeSumResult(r.value, 1e-3 * max(abs(r.value), 1))
            for r in one_pass(ns, cutoff)
        )

    code, out, _ = run(capsys, "verify", "closed-forms", "--max-n", "2")
    assert code == 0
    assert out.count("PASS lattice sum ") == 4
    monkeypatch.setattr(families, "strict_binary_lattice_sums", tilted)
    code, out, _ = run(capsys, "verify", "closed-forms", "--max-n", "2")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 4
    assert all(line.startswith("FAIL lattice sum ") and "imaginary=" in line for line in failed)


def test_verify_all_output_is_pinned(capsys):
    # Every check name, its order and the summary line of a small verify run,
    # and in the JSON form every name, verdict and detail (of the float
    # routes only the name and verdict).
    argv = ["verify", "all", "--max-n", "4", "--max-m", "4"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_VERIFY_ALL.read_text()
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0

    def pinned(check):
        if check["name"].startswith(FLOAT_ROUTES):
            return check["name"], check["ok"]
        return check["name"], check["ok"], check["detail"]

    got = json.loads(out)
    want = json.loads(GOLDEN_VERIFY_ALL_JSON.read_text())
    assert got["ok"] is want["ok"] is True
    assert [pinned(c) for c in got["checks"]] == [pinned(c) for c in want["checks"]]


def test_verify_invariants_output_is_pinned(capsys):
    # The invariants suite has no float route, so both forms are pinned
    # byte for byte.
    argv = ["verify", "invariants", "--max-n", "6", "--max-m", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == GOLDEN_VERIFY_INVARIANTS.read_text()
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == GOLDEN_VERIFY_INVARIANTS_JSON.read_text()


def test_tree_sum_check_catches_a_wrong_k_labelled_step(monkeypatch):
    step, scale = solvers.SCHEMES["k-labelled"]
    monkeypatch.setitem(
        solvers.SCHEMES, "k-labelled", (lambda n, t, u: 2 * step(n, t, u), scale)
    )
    checks = {name: (ok, detail) for name, ok, detail in cli._SUITES["invariants"](6, 3, 50)}
    assert checks["tree-sum oracle vs single-label solver"] == (False, "first failure at n=1")


def test_verify_cutoff_reaches_the_binary_free_series():
    def details(cutoff):
        checks = cli._SUITES["closed-forms"](1, 1, cutoff)
        return [detail for name, _, detail in checks if name.startswith("binary free series ")]

    assert len(details(3)) == 6
    assert details(3) != details(50)


def test_verify_all_under_python_O():
    # With assert statements stripped every check still runs and passes.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "inctrees.cli",
         "verify", "all", "--max-n", "4", "--max-m", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN_VERIFY_ALL.read_text()


@pytest.mark.parametrize("argv", [
    ("hook", "bucket", "--weights", "exp", "--max-m", "6"),
    ("hook", "klabelled", "--family", "bilabelled/unordered", "--max-n", "8"),
])
def test_hook_sums_under_python_O(capsys, argv):
    code, out, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "inctrees.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert code == 0
    assert (result.returncode, result.stdout) == (0, out)


def test_verify_hook_runs_k3_and_k_tuple_to_max_n(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "hook", "--max-n", "7", "--max-m", "3")
    assert code == 0
    assert "PASS hook k=3 trilabelled/unordered n<=7\n" in out
    solve = hooks.solve_k_tuple

    def off_at_seven(weights, k, terms):
        values = dict(enumerate(solve(weights, k, terms), start=1))
        if terms == 7:
            values[7] += 1
        return values

    monkeypatch.setattr(hooks, "solve_k_tuple", off_at_seven)
    code, out, _ = run(capsys, "verify", "hook", "--max-n", "7", "--max-m", "3")
    assert code == 1
    for k in (1, 2, 3):
        for variant in ("ordered", "unordered"):
            assert f"FAIL hook k-tuple(k={k}) {variant} [first failure at n=7]\n" in out


def test_relation_checks_report_failing_indices(capsys, monkeypatch):
    tangent = families.reduced_tangent_numbers
    lemniscate = families.lemniscate_sine_coefficients
    # T_3 off in the tangent numbers; S_3 nonzero (n = 2) and S_5 negated (n = 3)
    monkeypatch.setattr(
        families, "reduced_tangent_numbers", lambda t: (1, 1, 5) + tangent(t)[3:]
    )
    monkeypatch.setattr(
        families, "lemniscate_sine_coefficients", lambda c: (1, 0, 1, 0, 12) + lemniscate(c)[5:]
    )
    code, out, _ = run(capsys, "verify", "closed-forms", "--max-n", "6", "--format", "json")
    assert code == 1
    details = {c["name"]: (c["ok"], c["detail"]) for c in json.loads(out)["checks"]}
    assert details["reduced tangent numbers vs solver"] == (False, "(3,)")
    assert details["even-degree vs lemniscate sine"] == (False, "(2, 3)")
    assert details["recurrence bilabelled/unordered n<=6"] == (True, "")


def reverse_transcript() -> str:
    """stdout of ``reverse --family ID --terms 12`` (plain and JSON) for every
    registry family and of one non-admissible ``--values`` target, each run
    under a ``$ inctree ...`` header line."""
    runs = [
        ["reverse", "--family", identifier, "--terms", "12", *fmt]
        for identifier in families.family_identifiers()
        for fmt in ([], ["--format", "json"])
    ]
    runs.append(["reverse", "--values", "1,5,3,-7,11,2"])
    out = io.StringIO()
    for argv in runs:
        out.write("$ inctree " + " ".join(argv) + "\n")
        with redirect_stdout(out):
            assert main(argv) == 0
    return out.getvalue()


def test_reverse_output_is_pinned():
    # Every weight, admissibility verdict and round trip of the reverse command.
    assert reverse_transcript() == GOLDEN_REVERSE.read_text()


# every registry family and ktuple/{ordered,unordered}:k={1,2,3}
SEQ_IDENTIFIERS = families.family_identifiers() + tuple(
    f"ktuple/{variant}:k={k}" for variant in ("ordered", "unordered") for k in (1, 2, 3)
)


def seq_stdout(identifier: str, terms: int) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["seq", identifier, str(terms)]) == 0
    return out.getvalue()


def seq_transcript() -> str:
    """stdout of ``seq ID 40`` for every family of SEQ_IDENTIFIERS, each
    under a ``$ inctree ...`` header line."""
    return "".join(
        f"$ inctree seq {identifier} 40\n" + seq_stdout(identifier, 40)
        for identifier in SEQ_IDENTIFIERS
    )


def test_seq_output_is_pinned():
    # Forty terms of every family, recorded from the rational engine that
    # solved for T_n / s_n in Fractions.
    assert seq_transcript() == GOLDEN_SEQ.read_text()


def test_seq_200_terms_are_pinned():
    # The sha256 of 200 terms of every family, recorded from that engine:
    # one "<sha256>  <identifier>" line per family.
    expected = {}
    for line in GOLDEN_SEQ_200.read_text().splitlines():
        digest, identifier = line.split()
        expected[identifier] = digest
    assert {
        identifier: hashlib.sha256(seq_stdout(identifier, 200).encode()).hexdigest()
        for identifier in SEQ_IDENTIFIERS
    } == expected


def call(argv):
    """(exit code, stdout, stderr) of one main call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# failing requests first, then non-default options, then the defaults
REUSE_RUNS = [
    ["seq", "no/such-family", "5"],
    ["seq", "bilabelled/unordered", "0"],
    ["verify", "closed-forms", "--max-n", "two"],
    ["hook", "ktuple", "--weights", "exp", "-k", "30001"],
    ["seq", "bilabelled/ordered", "8", "--format", "json"],
    ["verify", "closed-forms", "--max-n", "4", "--max-m", "3", "--format", "json"],
    ["bijection", "unibi", "--max-m", "3", "--show"],
    ["reverse", "--values", "1,2,22,584", "--format", "json"],
    ["hook", "ktuple", "--weights", "poly:1,2,1", "-k", "3", "--max-n", "4", "--format", "json"],
    ["seq", "bilabelled/ordered", "8"],
    ["verify", "closed-forms"],
    ["bijection", "unibi"],
    ["reverse", "--values", "1,2,22,584"],
    ["hook", "ktuple", "--weights", "poly:1,2,1"],
]


def test_one_parser_serves_every_call(monkeypatch):
    alone = []
    for argv in REUSE_RUNS:
        cli._parser.cache_clear()
        alone.append(call(argv))
    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    assert [call(argv) for argv in REUSE_RUNS] == alone
    assert len(builds) == 1
    assert [code for code, _, _ in alone[:4]] == [2, 2, 2, 2]
    # well-formed commands alone never build the parser (the direct pass reads
    # them); the first malformed one builds it once, and the next reuses it
    builds.clear()
    cli._parser.cache_clear()
    assert [call(argv) for argv in REUSE_RUNS[:1] + REUSE_RUNS[3:]] == alone[:1] + alone[3:]
    assert builds == []
    assert call(REUSE_RUNS[1]) == alone[1]
    assert len(builds) == 1
    assert call(REUSE_RUNS[2]) == alone[2]
    assert len(builds) == 1


def test_a_process_of_well_formed_commands_builds_no_parser():
    # in a fresh process: importing the CLI and running well-formed commands
    # constructs no argparse parser; the first malformed command builds the
    # parser once, and a second reuses it
    script = """if True:
        import argparse, contextlib, io
        made = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        from inctrees import cli
        builds = []
        build = cli.build_parser
        cli.build_parser = lambda: builds.append(1) or build()
        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    return cli.main(list(argv))
                except SystemExit as exc:
                    return exc.code
        codes = [run("seq", "bilabelled/ordered", "5"), run("bijection", "free", "--max-m", "3"),
                 run("hook", "klabelled", "--weights", "exp", "--max-n", "3")]
        print(codes, len(made), len(builds))
        codes = [run("seq", "bilabelled/ordered", "0"), run("seq", "bilabelled/ordered", "--max")]
        print(codes, len(builds))
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[0, 0, 0] 0 0", "[2, 2] 1"]


def test_bijection_show_output_is_pinned(capsys):
    # Every object and its image, in enumeration order, for both maps at m <= 5.
    out = ""
    for scheme in ("free", "unibi"):
        code, text, _ = run(capsys, "bijection", scheme, "--max-m", "5", "--show")
        assert code == 0
        out += text
    assert out == GOLDEN_BIJECTION_SHOW.read_text()


def test_larger_bijection_outputs_are_pinned(capsys, monkeypatch):
    # The sha256 of the stdout of larger bijection commands, up to the
    # capacity: one "<sha256>  <argv>" line per command.
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    for line in GOLDEN_BIJECTION_SHA.read_text().splitlines():
        digest, argv = line.split(maxsplit=1)
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_label_count_check_reports_first_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_bucket_labellings_formula", lambda tree, buckets: -1)
    code, out, _ = run(
        capsys, "verify", "invariants", "--max-n", "4", "--max-m", "4", "--format", "json"
    )
    assert code == 1
    (check,) = [
        c for c in json.loads(out)["checks"] if c["name"].startswith("label-count")
    ]
    assert check["detail"] == "mismatch at tree () buckets=(1,)"


def test_k_label_count_check_reports_first_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_k_labellings_formula", lambda tree, k: -1)
    code, out, _ = run(
        capsys, "verify", "invariants", "--max-n", "4", "--max-m", "4", "--format", "json"
    )
    assert code == 1
    (check,) = [
        c for c in json.loads(out)["checks"] if c["name"].startswith("label-count")
    ]
    assert check["detail"] == "mismatch at tree () k=1"


# Each command accepts only the flags it reads and exactly one source; stderr
# names the flag the command does not take, or the sources in conflict.
UNREAD_FLAGS = [
    (["hook", "rho", "--weights", "exp"], "--weights"),
    (["hook", "rho", "-k", "3"], "-k"),
    (["hook", "klabelled", "--weights", "exp", "--max-m", "4"], "--max-m"),
    (["hook", "ktuple", "--weights", "exp", "--max-bucket", "2"], "--max-bucket"),
    (["hook", "klabelled", "--weights", "exp", "--tree-family", "binary"], "--tree-family"),
    (["hook", "bucket", "--weights", "exp", "-k", "3"], "-k"),
    (["hook", "bucket", "--weights", "exp", "--max-n", "4"], "--max-n"),
    (["hook", "klabelled", "--weights", "poly:1,0,1", "--family", "bilabelled/ordered"],
     "argument --family: not allowed with argument --weights"),
    (["hook", "ktuple", "--max-n", "3"], "--weights --family"),
    (["reverse", "--values", "1,2", "--family", "bilabelled/ordered"],
     "argument --family: not allowed with argument --values"),
    (["reverse", "--values", "1,2", "--values-file", "VALUES"],
     "argument --values-file: not allowed with argument --values"),
    (["reverse", "--values", "1,2,22", "--terms", "5"], "--terms"),
    (["reverse", "--format", "json"], "--values --values-file --family"),
    (["hook", "--weights", "exp", "klabelled"],
     "the kind (klabelled, ktuple, bucket, rho) comes first, before option --weights"),
    (["hook", "--rho-num=2", "rho"], "before option --rho-num"),
]


@pytest.mark.parametrize(
    "argv, flag", UNREAD_FLAGS, ids=[" ".join(argv) for argv, _ in UNREAD_FLAGS]
)
def test_unread_flag_or_second_source_exits_2(tmp_path, argv, flag):
    argv = [str(tmp_path / "values.txt") if a == "VALUES" else a for a in argv]
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert flag in err


@pytest.mark.parametrize("flag", ["--rho-num", "--rho-den"])
def test_rho_coefficient_error_names_its_flag(capsys, flag):
    code, out, err = run(capsys, "hook", "rho", flag, "1,,2")
    assert (code, out) == (2, "")
    assert f"bad {flag} '1,,2': " in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hook", "klabelled", "--weights", "poly:1,,1"],
         "bad degree-weight spec 'poly:1,,1': empty entry 2 in coefficients '1,,1'"),
        (["hook", "rho", "--rho-num", "1,,2"],
         "bad --rho-num '1,,2': empty entry 2 in coefficients '1,,2'"),
        (["hook", "rho", "--rho-den", "1,2,"],
         "bad --rho-den '1,2,': empty entry 3 in coefficients '1,2,'"),
    ],
    ids=["poly-weights", "rho-num", "rho-den"],
)
def test_empty_list_entry_is_named(capsys, argv, message):
    # one comma-list parser serves weights, rho coefficients and values
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["hook", "rho", "--rho-num", "1/0"], "1/0"),
        (["hook", "klabelled", "--weights", "poly:1,1/0"], "1/0"),
        (["reverse", "--values", "1/0,2"], "1/0"),
        (["reverse", "--values-file", "VALUES"], "3/0"),
    ],
    ids=["rho-num", "poly-weights", "reverse-values", "values-file"],
)
def test_zero_denominator_is_reported(capsys, tmp_path, argv, bad):
    values = tmp_path / "values.txt"
    values.write_text("1\n3/0\n")
    argv = [str(values) if a == "VALUES" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert bad in err


@pytest.mark.parametrize(
    "values, message",
    [
        ("1,,2,22", "empty entry 2 in values '1,,2,22'"),
        ("1,2,22,", "empty entry 4 in values '1,2,22,'"),
    ],
    ids=["hole", "trailing-comma"],
)
def test_reverse_empty_value_exits_2(capsys, values, message):
    code, out, err = run(capsys, "reverse", "--values", values)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message, bad",
    [
        (["reverse", "--values", "1,2,x"], "bad entry 3 in values '1,2,x': ", "'x'"),
        (["hook", "klabelled", "--weights", "poly:1,2/x"],
         "bad degree-weight spec 'poly:1,2/x': bad entry 2 in coefficients '1,2/x': ", "'2/x'"),
        (["hook", "rho", "--rho-num", "1,1/0"],
         "bad --rho-num '1,1/0': bad entry 2 in coefficients '1,1/0': ", "'1/0'"),
        (["hook", "rho", "--rho-den", "abc,1"],
         "bad --rho-den 'abc,1': bad entry 1 in coefficients 'abc,1': ", "'abc'"),
    ],
    ids=["reverse-values", "poly-weights", "rho-num", "rho-den"],
)
def test_malformed_list_entry_is_named_by_position(capsys, argv, message, bad):
    # as an empty entry is: the entry's own error follows its position
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.endswith(f"{bad}\n")


def test_reverse_values_file_error_names_file_and_line(capsys, tmp_path):
    values = tmp_path / "values.txt"
    values.write_text("1\n2\n# T_3\n22x\n")
    code, out, err = run(capsys, "reverse", "--values-file", str(values))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {values}, line 4: ") and "'22x'" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["seq", "ktuple/ordered:k=abc", "4"], "ktuple/ordered:k=abc"),
        (["seq", "ktuple/ordered:k=0", "4"], "ktuple/ordered:k=0"),
        (["hook", "klabelled", "--weights", "bundled:x"], "bundled:x"),
        (["hook", "klabelled", "--weights", "poly:"], "poly:"),
        (["hook", "ktuple", "--weights", "poly:1,,2"], "poly:1,,2"),
    ],
    ids=["ktuple-k-word", "ktuple-k-zero", "bundled-word", "poly-empty", "poly-hole"],
)
def test_bad_parameter_names_the_input(capsys, argv, bad):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert repr(bad) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "ktuple/ordered:k=30001", "3"],
        ["hook", "ktuple", "--weights", "exp", "-k", "30001"],
    ],
    ids=["seq", "hook"],
)
def test_ktuple_exponent_past_its_capacity_exits_2(capsys, monkeypatch, argv):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "k-tuple exponent k = 30001 exceeds the capacity 30000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "hook", "--max-n", "0"],
        ["verify", "hook", "--max-m", "0"],
        ["verify", "all", "--max-n", "-3"],
        ["bijection", "free", "--max-m", "0"],
        ["hook", "klabelled", "--weights", "exp", "--max-n", "0"],
        ["hook", "bucket", "--weights", "exp", "--max-m", "0"],
        ["hook", "bucket", "--weights", "exp", "--max-m", "two"],
        ["reverse", "--family", "bilabelled/ordered", "--terms", "0"],
        ["reverse", "--family", "bilabelled/ordered", "--terms", "-2"],
        ["verify", "closed-forms", "--cutoff", "0"],
        ["seq", "bilabelled/unordered", "0"],
        ["hook", "klabelled", "--weights", "exp", "-k", "0"],
    ],
    ids=lambda argv: "-".join(argv[:2] + argv[-2:]),
)
def test_size_flags_must_be_positive(capsys, argv):
    # the bad value comes last, after its flag or as seq's positional TERMS
    flag = argv[-2] if argv[-2].startswith("-") else "terms"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "positive integer" in err


# Values past Python's 4300-digit int-string limit print in full, and the
# limit is back in place once the command returns.
def test_seq_prints_values_past_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    big = 1 + 2**15000  # T_3 of ordered 15000-tuple trees: 4516 digits
    code, out, _ = run(capsys, "seq", "ktuple/ordered:k=15000", "3")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"1 1 {big}\n"
        code, out, _ = run(capsys, "seq", "ktuple/ordered:k=15000", "3", "--format", "json")
        assert code == 0 and json.loads(out)["values"] == [1, 1, big]
    finally:
        sys.set_int_max_str_digits(limit)


def test_reverse_and_hook_print_values_past_the_int_string_limit(capsys):
    sevens = "7" * 3000
    code, out, _ = run(capsys, "reverse", "--values", f"1,{sevens},1")
    lines = out.splitlines()
    assert code == 0 and lines[1] == f"phi_1 = {sevens}"
    assert len(lines[2]) > 6000 and lines[-1].startswith("admissible: no")
    code, out, _ = run(capsys, "hook", "ktuple", "--weights", "exp", "-k", "15000", "--max-n", "3")
    assert code == 0 and len(out) > 3 * 4300 and out.count(" equal") == 3


@pytest.mark.parametrize("literal", ["7" * 5000, "1e10000000", "1.5e-10000000"])
def test_reverse_rejects_oversized_literal_by_name(capsys, literal):
    start = time.perf_counter()
    code, out, err = run(capsys, "reverse", "--values", f"1,{literal},1")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert literal[:10] in err and "4300 digits" in err


# -- the direct pass and argparse read the same command table --------------
#
# main reads a well-formed command in one pass over cli._COMMANDS and hands
# anything else to argparse, built from the same table.  Wherever the direct
# pass returns a Namespace, argparse returns an equal one.

PARSER = cli.build_parser()


def readme_examples():
    """The argv of each example of README's "Command line" section."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Examples:\n\n```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.partition("#")[0]) for line in block.splitlines()]
    assert lines and all(line[0] == "inctree" for line in lines)
    return [line[1:] for line in lines]


def direct_or_none(argv):
    """The direct pass's Namespace of argv, checked against argparse's."""
    args = cli._parse_direct(argv)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv)), argv
    return args


def test_direct_pass_reads_every_readme_example():
    assert all(direct_or_none(argv) is not None for argv in readme_examples())


@pytest.mark.parametrize(
    "argv", [*REUSE_RUNS, *(argv for argv, _ in UNREAD_FLAGS)], ids=" ".join
)
def test_direct_pass_agrees_on_the_pinned_commands(argv):
    direct_or_none(argv)


# argv the direct pass leaves to argparse, each with None when argparse
# rejects it or prints help, else with the spelled-out argv argparse reads it as
LEFT_TO_ARGPARSE = [
    ([], None),
    (["--help"], None),
    (["hook"], None),
    (["hook", "-h"], None),
    (["hook", "--weights", "exp", "klabelled"], None),
    (["seq", "-h"], None),
    (["seq", "bilabelled/ordered"], None),
    (["seq", "bilabelled/ordered", "5", "extra"], None),
    (["seq", "bilabelled/ordered", "0"], None),
    (["seq", "bilabelled/ordered", "5", "--", "--format", "json"], None),
    (["verify", "everything"], None),
    (["verify", "hook", "--max", "3"], None),
    (["verify", "hook", "--max-n", "-3"], None),
    (["verify", "hook", "--max-n=-3"], None),
    (["bijection", "free", "--show=yes"], None),
    (["hook", "rho", "--rho-num", "-1,1"], None),
    (["hook", "rho", "--rho-num"], None),
    (["hook", "bucket", "--weights", "exp", "--max-bucket", "3"], None),
    (["hook", "ktuple", "--max-n", "3"], None),
    (["hook", "ktuple", "--weights", "exp", "--family", "bilabelled/ordered"], None),
    (["reverse", "--format", "json"], None),
    (["seq", "bilabelled/ordered", "5", "--form", "json"],
     ["seq", "bilabelled/ordered", "5", "--format", "json"]),
    (["seq", "bilabelled/ordered", "5", "--format", "json", "--format", "plain"],
     ["seq", "bilabelled/ordered", "5"]),
    (["hook", "ktuple", "--weights", "exp", "-k3"], ["hook", "ktuple", "--weights", "exp", "-k", "3"]),
    (["reverse", "--values", "1,2", "--values", "1,2"], ["reverse", "--values", "1,2"]),
]


@pytest.mark.parametrize(
    "argv, same", LEFT_TO_ARGPARSE, ids=[" ".join(argv) or "empty" for argv, _ in LEFT_TO_ARGPARSE]
)
def test_direct_pass_leaves_other_commands_to_argparse(argv, same):
    assert cli._parse_direct(argv) is None
    code, out, err = call(argv)
    if same is not None:
        assert cli._parse_direct(same) is not None
        assert (code, out, err) == call(same)
    elif code == 0:
        assert out.startswith("usage: inctree") and err == ""
    else:
        assert (code, out) == (2, "") and err.startswith("usage: inctree")


@pytest.mark.parametrize("argv, unknown", [
    (["seq", "bilabelled/unordered", "6", "--max-n", "3"], "--max-n 3"),
    (["seq", "bilabelled/unordered", "6", "extra"], "extra"),
    (["hook", "klabelled", "--weights", "exp", "--max-m", "3"], "--max-m 3"),
    (["verify", "all", "--max-m=3", "--bogus"], "--bogus"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_flag_the_command_does_not_take_is_reported_by_that_command(argv, unknown):
    # the usage line and the error name the command, not the top-level parser
    path = argv[:2] if argv[0] == "hook" else argv[:1]
    prog = " ".join(["inctree", *path])
    code, out, err = call(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {unknown}\n")
    _, help_text, _ = call([*path, "--help"])
    assert err.startswith(help_text[: help_text.index("\n\n") + 1])


def _option_names(command):
    return [name for names, _ in (*command.sources, *command.arguments)
            for name in names if name[:1] == "-"]


FLAGS = sorted({name for command in cli._COMMANDS.values() for name in _option_names(command)})
# tokens a malformed command may carry: flags of any command, abbreviated
# flags, help, the end of options, values with a leading "-" and values that
# fail a type or choice check
NOISE = [*FLAGS, "--max", "--form", "--val", "--fam", "--rho", "--show=1", "-h", "--help", "--",
         "-", "-1", "-x", "0", "two", "3", "json", "bfile", "extra", "--format=json", "--max-n=4"]


def _text_value(keywords):
    if "choices" in keywords:
        return st.sampled_from([str(c) for c in keywords["choices"]])
    if keywords.get("type") is not None:
        return st.integers(1, 30).map(str)
    return st.sampled_from(["exp", "poly:1,0,1", "bilabelled/ordered", "1,2,22", "1,1", "",
                            "binary", "a=b", "x y"])


@st.composite
def table_argv(draw, noisy=False):
    """An argv of a command path of the table: its positionals, one source
    and some options (each once, as ``--flag value`` or ``--flag=value``),
    all in any order.  A noisy argv also repeats options, takes zero or two
    sources, and has tokens of NOISE inserted and tokens dropped."""
    path, command = draw(st.sampled_from(list(cli._COMMANDS.items())))
    options = [a for a in command.arguments if a[0][0][:1] == "-"]
    positionals = [a for a in command.arguments if a[0][0][:1] != "-"]
    if noisy:
        chosen = draw(st.lists(st.sampled_from(options), max_size=5))
        sources = draw(st.lists(st.sampled_from(command.sources), max_size=2)) if command.sources else []
    else:
        chosen = draw(st.lists(st.sampled_from(options), unique_by=lambda a: a[0])) if options else []
        sources = [draw(st.sampled_from(command.sources))] if command.sources else []
    units = []
    for names, keywords in sources + chosen:
        name = draw(st.sampled_from(names))
        if keywords.get("action") == "store_true":
            units.append([name])
        elif name[:2] == "--" and draw(st.booleans()):
            units.append([f"{name}={draw(_text_value(keywords))}"])
        else:
            units.append([name, draw(_text_value(keywords))])
    words = [draw(_text_value(keywords)) for _, keywords in positionals]
    units = draw(st.permutations(units + [None] * len(words)))
    argv = list(path)
    for unit in units:
        argv.extend(unit if unit is not None else [words.pop(0)])
    if noisy:
        for _ in range(draw(st.integers(0, 3))):
            if argv and draw(st.booleans()):
                del argv[draw(st.integers(0, len(argv) - 1))]
            else:
                argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_argv())
def test_direct_pass_reads_well_formed_commands_as_argparse_does(argv):
    assert direct_or_none(argv) is not None, argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(table_argv(noisy=True))
def test_direct_pass_returns_none_or_what_argparse_returns(argv):
    direct_or_none(argv)


@pytest.mark.parametrize(
    "path", [(), ("hook",), *cli._COMMANDS], ids=lambda path: " ".join(path) or "inctree"
)
def test_help_exits_0_and_names_every_flag(path):
    code, out, err = call([*path, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(('inctree', *path))} [-h]")
    if not path:
        names = {p[0] for p in cli._COMMANDS}
    elif path == ("hook",):
        names = [p[1] for p in cli._COMMANDS if p[0] == "hook"]
    else:
        names = _option_names(cli._COMMANDS[path])
    assert names and all(name in out for name in names)
