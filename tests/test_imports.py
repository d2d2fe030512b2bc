"""No module of the package imports a name it never uses, the reversal
takes nothing from the engine but its entry point, the two routes on the
target's power table name no engine helper and share one table, the hook
sums name no word generator, only the tree module knows the census codes,
and the tree modules do not recurse.

There is no linter in the toolchain, so this walks each module's syntax
tree with the standard library: every name bound by an import must occur
as a name somewhere else in the module.  ``__init__.py`` only re-exports and
is exempt.  ``reverse.py`` takes nothing from ``solvers`` but
``solve_k_labelled``, so its round trip stays the engine's route, apart
from the reversal's own power table.  The bodies of ``reverse._power_rows``,
``reverse._solve_phi`` and ``reverse.first_order_invariant_check`` name none
of the engine's helpers, so the first integral stays a second route for the
counts the engine solves: it checks them on the binomial power table it
shares with the reversal.  Only ``_power_rows`` builds that table's
C(2m, 2i) row, and ``solvers.py`` names neither the first integral nor the
``comb`` and ``lcm`` it used: it holds the engine alone, and imports no
``Series``, since the engine runs on the counts.
``cli.py`` and ``checks.py`` name no hook sum of one size, so each ``hook``
command and hook check solves once for all its sizes.  ``cli.py`` defines
no suite, suite table or bound table and names no route of a suite: the
check registry ``checks.SUITES`` holds them.  ``hooks.py`` names no word
generator of ``trees.py``, so no census walks degree words again, and the
census side (the censuses in ``trees.py``, the hook vectors and the fold in
``hooks.py``) names no solver, and ``trees.py`` imports nothing from
``solvers`` or ``hooks``, so the left-hand sides never reach the route of
the right-hand sides.  ``hooks.py`` takes from ``solvers`` only
``SCHEMES``, ``_scheme_k`` and ``solve_scheme``, so no hook sum restates a
scheme's scale, its k rule or its solver.  Only ``trees.py`` knows the censuses' packed code format:
``hooks.py`` takes from it the two censuses and public names,
and no other module names its code tables or grafts.  ``solvers.py`` and
``families.py`` take nothing from ``trees.py``, the brute-force layer, and
the readers of exact input (``_check_int``, ``_check_count``,
``check_capacity``, ``CapacityError``) are defined once, in ``series.py``.  In
``trees.py`` and ``bijections.py`` no function, nested ones included, calls
itself, directly or through other functions of its module, by name or as
an attribute, so every tree converts at any depth.
Every dataclass there with a ``children`` field is declared ``eq=False``
and ``repr=False``, so no tree class gets a generated ``__eq__`` or
``__repr__`` that recurses through its children.
"""
import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "inctrees"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Each name an import binds in a parsed module, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_imports(source: str, module: str = "solvers"):
    """Names a source takes from a package module, as ``from .solvers import
    x`` or ``from inctrees.solvers import x``; the module itself, taken whole
    by ``from . import solvers`` or ``import inctrees.solvers``, is "solvers"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"inctrees.{module}"):
                found += [alias.name for alias in node.names]
            elif node.module in (None, "inctrees"):
                found += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            found += [module for alias in node.names if alias.name == f"inctrees.{module}"]
    return sorted(found)


def test_reverse_takes_only_the_solver_entry_point():
    # The round trip re-solves through the engine's own Bell table; a shared
    # table helper would make it re-run the reversal's arithmetic.
    source = (PACKAGE / "reverse.py").read_text(encoding="utf-8")
    assert module_imports(source) == ["solve_k_labelled"]


def test_solver_import_is_found():
    source = (
        "from .solvers import _table_columns, solve_k_labelled\n"
        "from . import series, solvers\n"
        "import inctrees.solvers\n"
        "from .series import _trim\n"
    )
    assert module_imports(source) == ["_table_columns", "solve_k_labelled", "solvers", "solvers"]
    assert module_imports(source, "series") == ["_trim", "series"]


# the coefficient engine of solvers.py, which the routes on the target's
# power table must not run: the first integral checks the engine's counts
# on a route of its own
ENGINE_HELPERS = {
    "_Engine", "_ENGINES", "_convolution_weights", "_relation_columns", "_table_columns",
}


def engine_names(source: str, function: str):
    """Engine helpers named, as ``f`` or ``x.f``, in the body of ``function``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for name in ast.walk(node):
                ident = name.id if isinstance(name, ast.Name) else getattr(name, "attr", None)
                if ident in ENGINE_HELPERS:
                    found.add(ident)
    return sorted(found)


# the functions of reverse.py that run on the target's own power table
TABLE_ROUTES = ("_power_rows", "_solve_phi", "first_order_invariant_check")


def test_first_integral_check_names_no_engine_helper():
    source = (PACKAGE / "reverse.py").read_text(encoding="utf-8")
    for function in TABLE_ROUTES:
        assert f"def {function}(" in source
        assert engine_names(source, function) == []


# the row C(2m, 2i) T_i, i = 0 .. m, of the power table; one function
# builds it, and the first integral and the reversal both read its rows
ROW_RANGE = "range(0, 2 * m + 1, 2)"
# what solvers.py held for the first integral before it joined reverse.py
MOVED_FROM_SOLVERS = {"comb", "lcm", "InvariantReport", "first_order_invariant_check"}


def row_builders(sources):
    """(module name, innermost function around it) per ROW_RANGE call."""
    found = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and ast.unparse(call) == ROW_RANGE:
                around = [f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno]
                found.append((name, around[-1] if around else None))
    return found


def moved_names(source: str):
    """Names of MOVED_FROM_SOLVERS that a source defines, imports or uses."""
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return sorted((node_names(tree) | defined) & MOVED_FROM_SOLVERS)


def test_one_function_builds_the_power_table_row():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert row_builders(sources) == [("reverse.py", "_power_rows")]
    assert moved_names(sources["solvers.py"]) == []


def test_second_power_table_row_is_found():
    sources = {
        "reverse.py": (
            "def _power_rows(t):\n"
            "    for m in range(1, len(t)):\n"
            "        yield list(map(comb, repeat(2 * m), range(0, 2 * m + 1, 2)))\n"
        ),
        "solvers.py": (
            "from math import comb\n"
            "class InvariantReport:\n"
            "    pass\n"
            "def first_order_invariant_check(weights, counts):\n"
            "    def row(m):\n"
            "        return [comb(2 * m, i) for i in range(0,2*m+1, 2)]\n"
        ),
    }
    assert row_builders(sources) == [("reverse.py", "_power_rows"), ("solvers.py", "row")]
    assert moved_names(sources["solvers.py"]) == [
        "InvariantReport", "comb", "first_order_invariant_check",
    ]


def test_solvers_import_no_series():
    # the engine runs on counts
    source = (PACKAGE / "solvers.py").read_text(encoding="utf-8")
    assert "Series" not in imported_names(ast.parse(source))


def test_engine_name_is_found():
    source = (
        "def first_order_invariant_check(weights, counts):\n"
        "    rows = _convolution_weights(scale, 2, 0, 1)\n"
        "    return solvers._Engine(SCHEMES['k-labelled'], weights, 2)\n"
        "def other():\n"
        "    return _table_columns\n"
    )
    assert engine_names(source, "first_order_invariant_check") == ["_Engine", "_convolution_weights"]


# hooks.py's functions of one size; cli.py and checks.py call the cores that
# take the sizes 1..N, so one command or check solves once and builds one
# factor table
PER_SIZE_HOOK_SUMS = {
    "hook_sum_k_labelled", "hook_sum_k_tuple", "hook_sum_bucket", "generic_hook_weight_sum",
}


def node_names(tree):
    """Every name that occurs in a syntax tree as ``f``, ``x.f`` or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def names_of(source: str, wanted):
    """Names among ``wanted`` that occur as ``f``, ``x.f`` or an import."""
    return sorted(node_names(ast.parse(source)) & wanted)


def test_cli_names_no_per_size_hook_sum():
    for name in ("cli.py", "checks.py"):
        source = (PACKAGE / name).read_text(encoding="utf-8")
        assert "hooks.hook_sums(" in source
        assert names_of(source, PER_SIZE_HOOK_SUMS) == []


def test_per_size_hook_sum_is_found():
    source = (
        "from .hooks import hook_sum_bucket\n"
        "report = hooks.hook_sum_k_tuple(w, 2, n)\n"
        "run = generic_hook_weight_sum\n"
        "reports = hooks.hook_sums(\"k-labelled\", w, sizes, 2)\n"
    )
    assert names_of(source, PER_SIZE_HOOK_SUMS) == [
        "generic_hook_weight_sum", "hook_sum_bucket", "hook_sum_k_tuple",
    ]


# routes that only the verify suites call: checks.py holds the suites, and
# cli.py, which runs them through checks.SUITES, names none of these
SUITE_ROUTES = {
    "enumerate_ordered_trees", "enumerate_bucket_functions",
    "count_k_labellings_formula", "count_k_labellings_bruteforce",
    "count_bucket_labellings_formula", "count_bucket_labellings_bruteforce",
    "solve_k_labelled", "solve_free_multilabelled", "solve_unilabelled_bilabelled",
    "first_order_invariant_check", "strict_binary_lattice_sums", "binary_free_multi_numeric",
    "reduced_tangent_numbers", "even_degree_recurrence", "lemniscate_sine_coefficients",
}


def suite_leaks(source: str):
    """The suites (``_suite_*`` functions) and suite or bound tables a source
    defines, then the SUITE_ROUTES it names."""
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        defined.update(t.id for t in targets if isinstance(t, ast.Name))
    tables = [n for n in defined if n.startswith("_suite_") or n.strip("_") in ("SUITES", "BOUNDS")]
    return sorted(tables) + names_of(source, SUITE_ROUTES)


def test_cli_holds_no_suite():
    sources = {name: (PACKAGE / name).read_text(encoding="utf-8")
               for name in ("cli.py", "checks.py")}
    assert "checks.SUITES" in sources["cli.py"]
    assert suite_leaks(sources["cli.py"]) == []
    assert names_of(sources["checks.py"], SUITE_ROUTES) == sorted(SUITE_ROUTES)


def test_suite_in_cli_is_found():
    source = (
        "from .trees import enumerate_ordered_trees\n"
        "_BOUNDS = {'hook': ()}\n"
        "def _suite_invariants(max_n, max_m, cutoff):\n"
        "    return reverse.first_order_invariant_check(w, counts)\n"
        "_SUITES: dict = {'invariants': _suite_invariants}\n"
        "suites = checks.SUITES\n"
    )
    assert suite_leaks(source) == [
        "_BOUNDS", "_SUITES", "_suite_invariants",
        "enumerate_ordered_trees", "first_order_invariant_check",
    ]


# trees.py's word generators: the hook censuses graft packed codes instead
WORD_GENERATORS = {"_plane_trees", "_bucket_words", "enumerate_degree_words"}


def test_hooks_name_no_word_generator():
    source = (PACKAGE / "hooks.py").read_text(encoding="utf-8")
    assert "_census" in source
    assert names_of(source, WORD_GENERATORS) == []


def test_word_generator_is_found():
    source = (
        "from .trees import _bucket_words, check_capacity\n"
        "pairs = trees._plane_trees(n)\n"
        "words = enumerate_degree_words\n"
        "census = trees._census(n)\n"
    )
    assert names_of(source, WORD_GENERATORS) == [
        "_bucket_words", "_plane_trees", "enumerate_degree_words",
    ]


# the census side, the left-hand sides: the censuses in trees.py and the
# hook vectors and folds in hooks.py, which must not reach the solvers that
# give the right-hand sides, so the two routes stay apart
CENSUS_SIDE = {
    "trees.py": {"_spread", "_census", "_bucket_census"},
    "hooks.py": {"_hook_vector", "_fold", "_tree_sum"},
}
SOLVER_NAMES = {"_solve", "_Engine", "_ENGINES", "SCHEMES"}


def solver_names_in(source: str, functions):
    """Solver names (``solve_*`` or one of SOLVER_NAMES), as ``f``, ``x.f``
    or an import, in the bodies of ``functions``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.update(
                name for name in node_names(node)
                if name.startswith("solve_") or name in SOLVER_NAMES
            )
    return sorted(found)


def test_hook_census_side_names_no_solver():
    for name, functions in CENSUS_SIDE.items():
        source = (PACKAGE / name).read_text(encoding="utf-8")
        tree = ast.parse(source)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert functions <= defined
        assert solver_names_in(source, functions) == []
    hooks_source = (PACKAGE / "hooks.py").read_text(encoding="utf-8")
    assert "solve_scheme" in hooks_source  # the right-hand sides still solve
    trees_source = (PACKAGE / "trees.py").read_text(encoding="utf-8")
    assert module_imports(trees_source, "solvers") == module_imports(trees_source, "hooks") == []


def test_census_side_solver_name_is_found():
    source = (
        "def _hook_vector(n, factors):\n"
        "    from .solvers import SCHEMES\n"
        "    return solvers._Engine(n), solve_k_tuple\n"
        "def _fold(phi, pairs, size, denominator):\n"
        "    return _solve(phi)\n"
        "def hook_sums(scheme, weights, sizes, k):\n"
        "    return solve_scheme(scheme, weights, max(sizes), k), _solve_free\n"
    )
    assert solver_names_in(source, set().union(*CENSUS_SIDE.values())) == [
        "SCHEMES", "_Engine", "_solve", "solve_k_tuple",
    ]


# hooks.py takes from solvers.py the scheme table, for each scheme's scale,
# the rule of which schemes take a k, and the one entry point; a solve_* of
# one scheme would restate its scheme
HOOKS_FROM_SOLVERS = ["SCHEMES", "_scheme_k", "solve_scheme"]


def test_hooks_take_only_the_scheme_table_and_entry_point():
    source = (PACKAGE / "hooks.py").read_text(encoding="utf-8")
    assert module_imports(source) == HOOKS_FROM_SOLVERS


def test_hooks_taking_a_scheme_solver_is_found():
    source = (PACKAGE / "hooks.py").read_text(encoding="utf-8")
    planted = source.replace(
        "from .solvers import", "from .solvers import solve_k_tuple\nfrom .solvers import", 1
    )
    assert planted != source
    assert module_imports(planted) != HOOKS_FROM_SOLVERS


# the packed code format of the hook censuses: trees.py alone grafts and
# decodes it, and hooks.py takes the two censuses whole (its count checks
# come from series.py)
CODE_FORMAT = {"_code_table", "_code_tables", "_grafts", "_sums"}
RETIRED_CODE_NAMES = ("_field_bytes", "_unpack", "_tree_codes", "_bucket_codes")
HOOKS_FROM_TREES = {"_census", "_bucket_census"}


def code_format_leaks(sources):
    """Per module name, the code format names it uses outside trees.py, the
    retired code helpers it still mentions anywhere, and the private names
    hooks.py takes from trees.py beyond the two censuses."""
    leaks = {}
    for name, source in sources.items():
        found = [] if name == "trees.py" else names_of(source, CODE_FORMAT)
        found += [word for word in RETIRED_CODE_NAMES if re.search(rf"\b{word}\b", source)]
        if name == "hooks.py":
            found += [
                taken for taken in module_imports(source, "trees")
                if taken.startswith("_") and taken not in HOOKS_FROM_TREES
            ]
        if found:
            leaks[name] = found
    return leaks


def test_only_trees_knows_the_packed_code_format():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert "_grafts" in sources["trees.py"]
    assert module_imports(sources["hooks.py"], "trees") == sorted(
        HOOKS_FROM_TREES | {"falling_factorial"}
    )
    assert code_format_leaks(sources) == {}


def test_code_format_leak_is_found():
    sources = {
        "hooks.py": "from .trees import _census, _code_table, _unpack, catalan\n",
        "cli.py": "runs = trees._grafts(table, n)  # see _tree_codes\n",
        "trees.py": "def _grafts(table, n):\n    return _sums(table, n, _field_bytes(n))\n",
    }
    assert code_format_leaks(sources) == {
        "hooks.py": ["_code_table", "_unpack", "_code_table", "_unpack"],
        "cli.py": ["_grafts", "_tree_codes"],
        "trees.py": ["_field_bytes"],
    }


# the engine and the family registry give one route of every cross-check,
# trees.py the brute-force route: they share no code
ENGINE_SIDE = ("solvers.py", "families.py")


def test_engine_side_takes_nothing_from_trees():
    for name in ENGINE_SIDE:
        assert module_imports((PACKAGE / name).read_text(encoding="utf-8"), "trees") == [], name


def test_import_from_trees_is_found():
    source = "from .trees import check_capacity\nfrom . import series, trees\nimport inctrees.trees\n"
    assert module_imports(source, "trees") == ["check_capacity", "trees", "trees"]


# every count, rational and capacity of the package is read through these
EXACT_READERS = {"_check_int", "_check_count", "check_capacity", "CapacityError"}


def top_level_definitions(sources, wanted):
    """(module name, name) of each function or class among ``wanted``, or
    the retired ``_check_k``, defined at the top level of a source."""
    return sorted(
        (module, node.name)
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in wanted | {"_check_k"}
    )


def test_exact_readers_are_defined_once_in_series():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert top_level_definitions(sources, EXACT_READERS) == sorted(
        ("series.py", name) for name in EXACT_READERS
    )


def test_second_exact_reader_is_found():
    sources = {
        "series.py": "def _check_int(value, name):\n    return value\n",
        "trees.py": "class CapacityError(ValueError):\n    pass\ndef _check_k(k):\n    return k\n",
    }
    assert top_level_definitions(sources, EXACT_READERS) == [
        ("series.py", "_check_int"), ("trees.py", "CapacityError"), ("trees.py", "_check_k"),
    ]


def test_unused_import_is_found():
    source = "import os\nfrom math import comb, factorial\nprint(factorial(3))\n"
    assert unused_imports(source) == [(1, "os"), (2, "comb")]


TREE_MODULES = [PACKAGE / "trees.py", PACKAGE / "bijections.py"]


def call_cycles(source: str):
    """The call cycles among the functions of a source, nested ones and
    methods included: each set of functions that call one another, through
    ``f(...)`` or ``x.f(...)`` calls, as a sorted tuple of names.  A function
    that calls itself is a cycle of one."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callees = calls.setdefault(node.name, set())
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    callees.add(name)
    reach = {}
    for name in calls:
        seen, stack = set(), [name]
        while stack:
            for callee in calls.get(stack.pop(), set()) - seen:
                if callee in calls:
                    seen.add(callee)
                    stack.append(callee)
        reach[name] = seen
    return sorted({
        tuple(sorted(other for other in reach[name] if name in reach[other]))
        for name in calls if name in reach[name]
    })


@pytest.mark.parametrize("path", TREE_MODULES, ids=[p.name for p in TREE_MODULES])
def test_tree_modules_do_not_recurse(path):
    assert call_cycles(path.read_text(encoding="utf-8")) == []


def test_self_call_is_found():
    source = (
        "class T:\n"
        "    def to_text(self):\n"
        "        return ''.join(c.to_text() for c in self.children)\n"
        "def indices(tree):\n"
        "    def walk(node):\n"
        "        for child in node.children:\n"
        "            walk(child)\n"
        "    walk(tree)\n"
        "def flat(word):\n"
        "    return list(word)\n"
    )
    assert call_cycles(source) == [("to_text",), ("walk",)]


def test_call_cycle_is_found():
    source = (
        "def _words(n):\n"
        "    return _build_words(n) if n > 9 else list(_build_words(n))\n"
        "def _build_words(n):\n"
        "    for s in range(1, n):\n"
        "        yield from trees._words(s)\n"
        "def enumerate_degree_words(n):\n"
        "    return (word for word, _ in _words(n))\n"
    )
    assert call_cycles(source) == [("_build_words", "_words")]


def recursive_dataclasses(source: str, method: str = "eq"):
    """Names of the dataclasses with a ``children`` field that are not
    declared ``method=False`` (``eq`` or ``repr``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = {
            stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                continue
            declared_off = isinstance(deco, ast.Call) and any(
                kw.arg == method and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in deco.keywords
            )
            if "children" in fields and not declared_off:
                found.append(node.name)
    return found


@pytest.mark.parametrize("path", TREE_MODULES, ids=[p.name for p in TREE_MODULES])
def test_tree_classes_do_not_generate_eq(path):
    assert recursive_dataclasses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TREE_MODULES, ids=[p.name for p in TREE_MODULES])
def test_tree_classes_do_not_generate_repr(path):
    assert recursive_dataclasses(path.read_text(encoding="utf-8"), "repr") == []


def test_recursive_eq_dataclass_is_found():
    source = (
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    children: tuple = ()\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    children: tuple = ()\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class C:\n"
        "    children: tuple = ()\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    name: str\n"
    )
    assert recursive_dataclasses(source) == ["A", "B"]


def test_recursive_repr_dataclass_is_found():
    source = (
        "@dataclass(frozen=True, eq=False)\n"
        "class A:\n"
        "    children: tuple = ()\n"
        "@dataclass(frozen=True, eq=False, repr=False)\n"
        "class B:\n"
        "    children: tuple = ()\n"
        "@dataclass(repr=True)\n"
        "class C:\n"
        "    children: tuple = ()\n"
        "@dataclass\n"
        "class D:\n"
        "    name: str\n"
    )
    assert recursive_dataclasses(source, "repr") == ["A", "C"]
