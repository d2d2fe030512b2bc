"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q

They are not part of the package's test suite: they check the benchmark's
request lists, expected outputs and tracer against the package as it is.
"""
from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import record  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from worker import call, digest  # noqa: E402
from workloads import WORKLOADS, pass_orders  # noqa: E402

from inctrees import cli  # noqa: E402

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)["workloads"]

# one small request per subcommand and kind, none over a few tens of ms
SMALL = [
    ["seq", "bilabelled/2-bundled", "8"],
    ["seq", "ktuple/unordered:k=2", "8"],
    ["seq", "unibi/unordered", "8"],
    ["hook", "klabelled", "--family", "bilabelled/binary", "--max-n", "6"],
    ["hook", "ktuple", "--weights", "exp", "-k", "2", "--max-n", "6"],
    ["hook", "bucket", "--weights", "exp", "--max-m", "5", "--max-bucket", "2"],
    ["hook", "rho", "--rho-num", "1,1", "--rho-den", "0,1", "--tree-family", "binary", "--max-n", "6"],
    ["bijection", "free", "--max-m", "4"],
    ["bijection", "unibi", "--max-m", "4"],
    ["reverse", "--values", "1,2,22,584,28384,2190128"],
    ["reverse", "--values", "1,5,3,8,2,9"],
    ["verify", "closed-forms", "--max-n", "4"],
    ["verify", "invariants", "--max-n", "3", "--max-m", "3"],
    ["seq", "no/such-family", "3"],
]


def test_recorded_lists_are_the_built_lists():
    built, _ = record.build_lists()
    assert set(built) == set(WORKLOADS) == set(EXPECTED)
    for name in WORKLOADS:
        assert [e["argv"] for e in EXPECTED[name]] == built[name]
    again, _ = record.build_lists()
    assert again == built


def test_quantile_of_evenly_spaced_values():
    # for 1..n the Harrell-Davis estimate of the f-quantile is n f + 1/2
    values = list(range(1, 114))
    for fraction in (0.5, 0.9):
        assert abs(run.quantile(values, fraction) - (113 * fraction + 0.5)) < 1e-6
    assert run.quantile(values[::-1], 0.5) == run.quantile(values, 0.5)


def test_latencies_are_scaled_by_their_own_pass():
    # two passes of the same two requests; the second ran at half speed
    reference = run.REFERENCE_CALIBRATION_S
    fast = {"records": [[0, 0.010, 0, "", [reference]], [1, 0.030, 0, "", [reference]]]}
    slow = {"records": [[1, 0.060, 0, "", [2 * reference]], [0, 0.020, 0, "", [2 * reference]]]}
    assert run.request_latencies([fast, slow]) == pytest.approx([0.010, 0.030])
    assert run.request_latencies([fast, slow], scaled=False) == pytest.approx([0.015, 0.045])


def test_same_seed_same_order_other_seed_a_permutation():
    n = len(EXPECTED["seq"])
    first = list(islice(pass_orders(n, 7), 3))
    assert first == list(islice(pass_orders(n, 7), 3))
    other = list(islice(pass_orders(n, 8), 3))
    assert other != first
    for order in first + other:
        assert sorted(order) == list(range(n))


def test_every_list_has_enough_requests_for_p90():
    # latencies are taken per request, and the Harrell-Davis p90 sits near
    # rank 0.9 n + 1/2: 113 requests leave about 11 beyond it
    for name in WORKLOADS:
        assert len(EXPECTED[name]) >= 113


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_request_passes(workload):
    for entry in EXPECTED[workload]:
        _, code, stdout = call(cli.main, entry["argv"])
        assert (code, digest(stdout)) == (entry["exit"], entry["sha256"]), entry["argv"]


def _snapshot(t):
    state = {}
    for owner in [t.package] + t.modules:
        for name, value in vars(owner).items():
            state[(owner.__name__, name)] = value
    for (layer, cls_name) in tracer_module.METHODS:
        cls = getattr(importlib.import_module(f"inctrees.{layer}"), cls_name)
        for name, value in vars(cls).items():
            state[(cls.__qualname__, name)] = value
    families = importlib.import_module("inctrees.families")
    for key, spec in families.REGISTRY.items():
        state[(key, "closed_form")] = spec.closed_form
        state[(key, "special_recurrence")] = spec.special_recurrence
    return state


def test_traced_output_is_identical_and_every_name_is_restored():
    t = tracer_module.Tracer()
    before = _snapshot(t)
    untraced = [call(cli.main, argv)[1:] for argv in SMALL]
    t.install()
    try:
        hooks = importlib.import_module("inctrees.hooks")
        solvers = importlib.import_module("inctrees.solvers")
        trees = importlib.import_module("inctrees.trees")
        assert hooks.solve_k_labelled is not before[("inctrees.solvers", "solve_k_labelled")]
        assert hooks.solve_k_labelled is solvers.solve_k_labelled
        assert cli.enumerate_ordered_trees is trees.enumerate_ordered_trees
        assert cli.enumerate_ordered_trees is not before[("inctrees.trees", "enumerate_ordered_trees")]
        traced = []
        for i, argv in enumerate(SMALL):
            t.request = i
            traced.append(call(cli.main, argv)[1:])
    finally:
        t.uninstall()
    assert traced == untraced
    after = _snapshot(t)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
    assert t.layer_totals()["spans"] > 0


def test_layer_times_and_counters_match_the_request():
    t = tracer_module.Tracer()
    argv = ["hook", "klabelled", "--family", "bilabelled/binary", "--max-n", "6"]
    t.install()
    try:
        t.request = 0
        elapsed, code, stdout = call(cli.main, argv)
    finally:
        t.uninstall()
    totals = t.layer_totals()
    layer_sum = sum(totals["self_s"].values())
    assert code == 0
    # the cli.main span covers the request; the remainder is the capture code
    assert 0 <= elapsed - layer_sum < 0.05 * elapsed
    visited = sum(int(x) for x in re.findall(r"trees=(\d+)", stdout))
    assert totals["hooks.trees_visited"] == visited
    assert totals["trees.trees_yielded"] == visited
    assert totals["solvers.terms"] == sum(range(1, 7))
    # every span of the request is closed, with its parent opened before it
    assert all(end >= start for start, end in zip(t.starts, t.ends))
    assert all(p < i for i, p in enumerate(t.parents))
    assert t.parents[0] == -1 and t.names[t.name_ids[0]] == "cli.main"


def test_spans_file_round_trips(tmp_path):
    t = tracer_module.Tracer()
    t.install()
    try:
        call(cli.main, ["bijection", "unibi", "--max-m", "4"])
    finally:
        t.uninstall()
    totals = t.layer_totals()
    assert totals["trees.labellings_yielded"] > 0
    assert totals["bijections.objects"] > 0
    path = tmp_path / "spans"
    t.write_spans(str(path))
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        body = handle.read()
    assert header["spans"] == totals["spans"]
    assert len(body) == header["spans"] * sum(size for _, _, size in header["arrays"])


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
