"""Source checks on the package, with the standard library's ast only.

Outside __init__, every module-level import is used: code deleted from a
module must take its imports with it. And the arithmetic stays exact, so
no module writes a float literal, calls float() or reaches for math.inf or
math.nan.
And galois, which decides both criteria in closed form, imports nothing
from the package beyond exact and groups, while quadforms takes its local
criteria whole from localfields and imports none of the symbols they are
built from. groups holds no lattice reduction, no table and no product of
metacyclic elements, so it composes permutations only, and it never
imports oracles at module level; oracles, which holds the tables and checks
groups, takes none of its fact code, and serves groups the four reference
names that callers still read there. sympy may be installed, as a test
oracle, but the package depends on nothing outside the standard library and
never imports it.
Nor does it import dataclasses or typing: the records share one slotted
base in exact, and importing the package and its CLI loads none of the
modules behind dataclasses (inspect, ast, dis, tokenize), which cost more
than the verdict itself. A plain check line does not load argparse either,
and neither it nor catalog loads oracles or random. Nor does a check over
Q sieve the primes that factorize splits off large inputs.
groups imports neither re nor random: its chains are deterministic, and
it parses the catalog names by hand.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import noethercheck
from noethercheck import groups, oracles

PACKAGE = Path(noethercheck.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def _float_uses(tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"float() (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in ("inf", "nan")
        ):
            out.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [f"math.{a.name} (line {node.lineno})" for a in node.names if a.name in ("inf", "nan")]
    return out


def _package_imports(tree):
    """Modules of this package that tree imports from, by short name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if not node.level and top != "noethercheck":
                continue
            module = node.module if node.level else rest
            # "from . import x" names modules, "from .x import y" one module
            out.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.update(
                a.name.partition(".")[2] for a in node.names if a.name.startswith("noethercheck.")
            )
    return out


def _imported_names(tree):
    """Names bound by the from-imports anywhere in tree."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_no_unused_module_imports():
    problems = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(_tree(path))
        if unused:
            problems[path.name] = unused
    assert problems == {}


def test_no_floats():
    problems = {}
    for path in MODULES:
        uses = _float_uses(_tree(path))
        if uses:
            problems[path.name] = uses
    assert problems == {}


def test_galois_imports_only_exact_and_groups():
    assert _package_imports(_tree(PACKAGE / "galois.py")) == {"exact", "groups"}


def test_quadforms_imports_no_local_symbols():
    names = _imported_names(_tree(PACKAGE / "quadforms.py"))
    assert names & {"hilbert_symbol", "hasse_invariant", "legendre_symbol"} == set()


def test_groups_defines_no_lattice_reduction():
    # its invariants come in closed form or from a stabilizer chain
    defined = {
        node.name
        for node in ast.walk(_tree(PACKAGE / "groups.py"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    pattern = r"relator|smith|snf|lattice|echelon|hermite|determinant|minors|^_?det$"
    assert {name for name in defined if re.search(pattern, name, re.I)} == set()


FACT_CODE = {
    "group_facts", "_perm_facts", "_metacyclic_facts", "_StabilizerChain", "_q16_search",
    "_derived_subgroup", "_chain_invariants", "_abelian_index",
}
TABLE_CODE = {
    "_enumerate", "FiniteGroupTable", "Subgroup", "two_sylow", "is_generalized_quaternion16",
    "_build_table", "build_group", "catalog_group", "_metacyclic_compose",
}


def test_oracles_take_no_fact_code_and_groups_no_tables():
    tree = _tree(PACKAGE / "oracles.py")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "groups" in (node.module or "").split("."):
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # no module object through which the fact code could be reached
            assert "groups" not in {a.name.rpartition(".")[2] for a in node.names}
    assert "PermGens" in names and names & FACT_CODE == set()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert read & FACT_CODE == set()
    tree = _tree(PACKAGE / "groups.py")
    top_imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert "oracles" not in _package_imports(ast.Module(body=top_imports, type_ignores=[]))
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined & TABLE_CODE == set()


def test_groups_serves_four_reference_names_from_oracles():
    served = {"Subgroup", "catalog_group", "two_sylow", "is_generalized_quaternion16"}
    for name in served:
        assert getattr(groups, name) is getattr(oracles, name), name
    for name in TABLE_CODE - served:
        with pytest.raises(AttributeError):
            getattr(groups, name)


def _top_level_imports(tree):
    """Top-level names of the absolute imports anywhere in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
    return out


def test_no_module_imports_sympy():
    assert {p.name for p in MODULES if "sympy" in _top_level_imports(_tree(p))} == set()


def test_groups_imports_neither_re_nor_random():
    # the chains stay deterministic, and the catalog names are parsed
    # without a regular expression, whose first compile costs more than
    # the parse
    assert _top_level_imports(_tree(PACKAGE / "groups.py")) & {"re", "random"} == set()


def test_no_module_imports_dataclasses_or_typing():
    problems = {
        p.name: sorted(found)
        for p in MODULES
        if (found := _top_level_imports(_tree(p)) & {"dataclasses", "typing"})
    }
    assert problems == {}


HEAVY_MODULES = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize"}


def _output_of(statement):
    """What a fresh interpreter without site prints for the statement, with
    the package's source directory on its path."""
    code = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{statement}\n"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout


def _modules_added_by(statement):
    """Modules a fresh interpreter without site loads for the statement."""
    out = _output_of(
        f"before = set(sys.modules)\n{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    return set(out.split())


def test_import_loads_no_dataclass_machinery():
    added = _modules_added_by("import noethercheck, noethercheck.cli, noethercheck.oracles")
    assert {"noethercheck", "noethercheck.cli", "noethercheck.oracles"} <= added
    assert added & HEAVY_MODULES == set()
    # the check sees these modules when something does load them
    assert HEAVY_MODULES - {"typing"} <= _modules_added_by("import noethercheck, dataclasses")


def test_plain_check_line_loads_no_argparse():
    # a plain check line is read without argparse; any other line loads it
    check = (
        "import contextlib, io, noethercheck.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check', '--group', 'catalog:SL2_7', '--field', 'Q', '--json'])"
    )
    assert "argparse" not in _modules_added_by(check)
    assert "argparse" in _modules_added_by(check + "\n    cli.main(['catalog'])")


def test_check_and_catalog_load_no_oracles():
    # the reference tables and random load only for the oracle subcommand
    run = (
        "import contextlib, io, noethercheck.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main({!r})"
    )
    reference = {"noethercheck.oracles", "random"}
    for argv in (["check", "--group", "catalog:SL2_7", "--field", "Q", "--json"], ["catalog"]):
        added = _modules_added_by(run.format(argv))
        assert "noethercheck.groups" in added and added & reference == set(), argv
    assert reference <= _modules_added_by(run.format(["oracle", "three-squares", "10"]))


def test_check_over_Q_builds_no_prime_table():
    # the primes below TRIAL_BOUND and their product are sieved on first
    # use, by a factorization above TRIAL_BOUND**2, which neither importing
    # the CLI nor a check over Q makes
    run = (
        "import contextlib, io, noethercheck.cli as cli, noethercheck.exact as exact\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check', '--group', 'catalog:SL2_7', '--field', {!r}, '--json'])\n"
        "print(exact._trial_primes.cache_info().currsize)"
    )
    assert _output_of(run.format("Q")).split() == ["0"]
    # the check sees the table when a field's radicand does build it
    assert _output_of(run.format("Q(sqrt 999999999989)")).split() == ["1"]


def test_checks_catch_what_they_claim():
    tree = ast.parse(
        "import math\nfrom fractions import Fraction\nfrom .x import y as z\n"
        "a = math.inf\nb = float('1')\nc = 0.5\n"
    )
    assert _unused_imports(tree) == ["Fraction (line 2)", "z (line 3)"]
    assert _float_uses(tree) == ["math.inf (line 4)", "float() (line 5)", "literal 0.5 (line 6)"]
    tree = ast.parse(
        "import random\nfrom .exact import QQ\nfrom . import quadforms\nimport noethercheck.oracles\n"
        "from noethercheck import cli\ndef f():\n    from noethercheck.localfields import Place\n"
    )
    assert _package_imports(tree) == {"exact", "quadforms", "oracles", "cli", "localfields"}
    assert _imported_names(tree) == {"QQ", "quadforms", "cli", "Place"}
    tree = ast.parse("import sympy.combinatorics\nfrom . import x\ndef f():\n    from sympy import S\n")
    assert _top_level_imports(tree) == {"sympy"}
