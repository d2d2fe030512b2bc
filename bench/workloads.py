"""Fixed request lists of the three benchmark workloads, and their order.

Each workload is a fixed list of ``inctree`` argument vectors.  The workload
seed only permutes it: every pass runs the whole list in a seeded order, so
a different seed gives the same mix in a different order and every commit
measures the same work.  The lists are built once by ``record.py``, which
stores them with the expected outputs in ``expected.json``; the timed runs
read that file and never rebuild a list.
"""
from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("seq", "oracle", "reverse")

# One small request into the hook, bijection and reverse layers.  Every
# workload ends its list with these, so that every layer records spans on
# every workload and each per-layer ratio is defined there.  Together they
# take about 1 % of a pass.
TOUCH = (
    ["hook", "klabelled", "--family", "bilabelled/binary", "--max-n", "5"],
    ["bijection", "unibi", "--max-m", "4"],
    ["reverse", "--values", "1,2,22,584,28384,2190128"],
)

BILABELLED = (
    "bilabelled/unordered",
    "bilabelled/ordered",
    "bilabelled/2-bundled",
    "bilabelled/3-bundled",
    "bilabelled/strict-binary",
    "bilabelled/even-degree",
    "bilabelled/binary",
)
FREE = (
    "free/strict-binary",
    "free/binary",
    "free/unary-binary",
    "free/ordered-no-unary",
    "free/unordered-no-unary",
    "free/ordered",
)
# TERMS ladders per labelling scheme.  The top rungs take 0.1-0.3 s each on
# a 2-vCPU x86 box, so a whole pass takes a few seconds and a run repeats
# every request several times.
SEQ_LADDERS = {
    "k=2": (5, 7, 9, 11, 13),
    "k=3": (3, 5, 7, 9, 11),
    "free": (5, 8, 11, 14, 17),
    "k=1": (5, 8, 11, 14, 17),
    "uni-bi": (5, 7, 10, 13, 16),
    "k-tuple": (5, 7, 9, 11, 13),
}
KTUPLE_VARIANTS = ("ordered", "unordered")


def _touch(out: List[List[str]]) -> List[List[str]]:
    return out + [list(r) for r in TOUCH]


def seq_requests() -> List[List[str]]:
    families = [(f, "k=2") for f in BILABELLED]
    families.append(("trilabelled/unordered", "k=3"))
    families += [(f, "free") for f in FREE]
    families.append(("unibi/q", "k=1"))
    families.append(("unibi/unordered", "uni-bi"))
    families += [
        (f"ktuple/{variant}:k={k}", "k-tuple")
        for variant in KTUPLE_VARIANTS
        for k in (1, 2, 3)
    ]
    return _touch([
        ["seq", family, str(terms)]
        for family, ladder in families
        for terms in SEQ_LADDERS[ladder]
    ])


def oracle_requests() -> List[List[str]]:
    out = []
    for family in BILABELLED:
        for n in (4, 5, 6, 7, 8):
            out.append(["hook", "klabelled", "--family", family, "--max-n", str(n)])
    for family in ("bilabelled/strict-binary", "bilabelled/even-degree", "bilabelled/binary"):
        out.append(["hook", "klabelled", "--family", family, "--max-n", "9"])
    out.append(["hook", "klabelled", "--family", "bilabelled/strict-binary", "--max-n", "10"])
    for n in (4, 5, 6, 7, 8):
        out.append(
            ["hook", "klabelled", "--family", "trilabelled/unordered", "-k", "3", "--max-n", str(n)]
        )
    for weights in ("exp", "bundled:1", "poly:1,2,1", "poly:1,1,1"):
        for k in (1, 2, 3):
            for n in (6, 8):
                out.append(
                    ["hook", "ktuple", "--weights", weights, "-k", str(k), "--max-n", str(n)]
                )
    for weights in ("exp", "bundled:1", "poly:1,0,1", "poly:1,2,1", "poly:1,1,1"):
        for m in (4, 5, 6, 7):
            out.append(["hook", "bucket", "--weights", weights, "--max-m", str(m)])
    for weights in ("exp", "bundled:1"):
        for m in (6, 7, 8):
            out.append(
                ["hook", "bucket", "--weights", weights, "--max-m", str(m), "--max-bucket", "2"]
            )
    for family, num, den, sizes in (
        ("binary", "1,1", "0,1", (6, 8, 10)),
        ("ordered", "1", "0,1", (6, 7, 8)),
        ("binary", "1", "0,1", (6, 7, 8)),
    ):
        for n in sizes:
            out.append(["hook", "rho", "--rho-num", num, "--rho-den", den,
                        "--tree-family", family, "--max-n", str(n)])
    for m in (3, 4, 5, 6):
        out.append(["bijection", "free", "--max-m", str(m)])
    for m in (3, 4, 5, 6):
        out.append(["bijection", "unibi", "--max-m", str(m)])
    out.append(["verify", "hook"])
    out.append(["verify", "bijection"])
    return _touch(out)


# admissible targets: prefixes of the two-label families, N values each
REVERSE_FAMILY_LENGTHS = {
    family: (5, 6, 7, 8, 9, 10, 11, 12) for family in BILABELLED
}
REVERSE_FAMILY_LENGTHS["bilabelled/strict-binary"] += (16, 20)
REVERSE_FAMILY_LENGTHS["bilabelled/binary"] += (16, 20)
# non-admissible targets: seeded integer sequences
REVERSE_RANDOM_LENGTHS = (
    tuple(range(6, 19)) + tuple(range(6, 17)) + tuple(range(6, 15)) + (20, 24)
    + tuple(range(6, 14)) * 2
)
REVERSE_RANDOM_SEED = 1411


def random_target(rng: random.Random, length: int) -> List[int]:
    """T_1 = 1 followed by positive integers of growing size."""
    return [1] + [rng.randint(1, 10 ** (n // 2 + 1)) for n in range(2, length + 1)]


def reverse_requests(prefixes: Dict[str, List[int]]) -> List[List[str]]:
    """``prefixes`` maps each family of REVERSE_FAMILY_LENGTHS to at least
    its longest prefix; the recorder computes them."""
    out = []
    for family, lengths in REVERSE_FAMILY_LENGTHS.items():
        for n in lengths:
            values = ",".join(str(v) for v in prefixes[family][:n])
            out.append(["reverse", "--values", values])
    rng = random.Random(REVERSE_RANDOM_SEED)
    for n in REVERSE_RANDOM_LENGTHS:
        values = ",".join(str(v) for v in random_target(rng, n))
        out.append(["reverse", "--values", values])
    out.append(["verify", "closed-forms", "--max-n", "6"])
    out.append(["verify", "invariants", "--max-n", "4", "--max-m", "4"])
    return _touch(out)


def pass_orders(count: int, seed: int):
    """Endless seeded permutations of range(count), one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield order
