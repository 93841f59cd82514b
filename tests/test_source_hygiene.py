"""Source checks on the package, with the standard library's ast only.

Outside __init__, every module-level import is used: code deleted from a
module must take its imports with it. Every public name that the product
modules (exact, chain, groups, galois, localfields, quadforms, cli) define
at module level is part of the product: code in those modules reads it,
the package exports it, or the acceptance tests import it. So is every
public method, property and __slots__ field of their classes: that code or
the acceptance tests load it, as a name or an attribute. A name only
other tests read is not, and UNREAD_PUBLIC_NAMES names each exception and
why. And the arithmetic stays exact, so no module writes a float literal,
calls float() or reaches for math.inf or math.nan.
And galois, which decides both criteria in closed form, imports nothing
from the package beyond exact and groups, while quadforms takes its local
criteria whole from localfields and imports none of the symbols they are
built from. groups holds no lattice reduction, no table and no product of
metacyclic elements, so it composes permutations only, and it never
imports oracles at module level; oracles, which holds the tables and checks
groups, takes none of its fact code, and serves groups the four reference
names that callers still read there. Nor do the oracles of the local
layer share its code: oracles imports no fractions, reads a Hilbert symbol
only in the reciprocity check, never reads the three-squares rule or the
Legendre code, and takes from localfields and quadforms only the form, the
places, the symbol and isotropic_Q. sympy may be installed, as a test
oracle, but the package depends on nothing outside the standard library and
never imports it.
Nor does it import dataclasses or typing: the records share one slotted
base in exact, and importing the package and its CLI loads none of the
modules behind dataclasses (inspect, ast, dis, tokenize), which cost more
than the verdict itself. A plain check line does not load argparse either,
and neither it nor catalog loads oracles or random. The verdict reads
integers only, so neither a check, over Q or a quadratic field, nor
catalog loads rational arithmetic: not fractions (nor the decimal and
numbers it pulls in), localfields or quadforms. They load with the oracle
subcommand or the first use of the form API, which the package serves on
demand, and even then fractions loads only with a Fraction: no module
imports it at module level, and an integer form, the oracle subcommand and
the oracles load none of it. Nor does a check over Q sieve the primes that
factorize splits off large inputs.
Neither groups nor chain imports re or random: the chains are
deterministic, and groups parses the catalog names by hand. And cli and
groups read every integer of a command line through exact.parse_ints, the
one numeral grammar: neither calls int, passes int to a call, as
argparse's type=int does, or writes a \\d pattern.
The stabilizer chain is a leaf module, chain, that imports nothing from
the package. groups reaches it through its interface only, reading none of
its levels, fields or private methods; that interface is the constructor,
which takes the degree and, by default None, the lattice that the chain's
relators are folded into, and four public names; beside it, groups imports
the element helpers and _check_chain_cap, which raises the chain's cap
error where groups knows a chain's size without building it. oracles imports nothing
from it, so that the tables that check the chain do not share its
product.
Records bind their fields in one place, exact.Frozen: no other code reads
object.__setattr__ or a slot's __set__, the two ways past a record's
__setattr__, and the records that only hold their fields (GroupFacts,
Verdict, Catalog) define no __init__ of their own.
Every functools cache in the package has a finite maxsize, unless its key
space is finite: UNBOUNDED_CACHES names each exception and why. Nor does
a module keep a memo of its own: a module-level dict, list or set that a
function changes is named, with its reason, in MUTABLE_MODULE_STATE.
The families that the tests and the parity corpus share, in
tools/families.py, and tools/parity.py itself import nothing from the
package, so that what they build does not depend on the program they
check; the families import the standard library alone, and not random.
"""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import noethercheck
from noethercheck import chain, groups, oracles

PACKAGE = Path(noethercheck.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent
TOOLS = TESTS.parent / "tools"


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


def _unbounded_caches(tree):
    """Where tree makes a functools cache with no bound, cache or
    lru_cache with maxsize None: the name of the function it decorates, or
    its line."""
    aliases, module = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            module.update(a.asname or a.name for a in node.names if a.name == "functools")

    def kind(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in module:
            return node.attr
        return None

    def unbounded(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return kind(node) == "cache"
        if isinstance(node, ast.Call) and kind(node.func) == "lru_cache":
            bound = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            return any(isinstance(b, ast.Constant) and b.value is None for b in bound)
        return False

    decorated = {
        id(d): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
    }
    return sorted(decorated.get(id(n), f"line {n.lineno}") for n in ast.walk(tree) if unbounded(n))


# the functools caches whose key space is finite, so that no bound is needed
UNBOUNDED_CACHES = {
    "groups._catalog_facts": "keyed on a catalog name, and a name outside the catalog raises",
    "oracles.catalog_group": "keyed on a catalog name, and a name outside the catalog raises",
    "exact._trial_primes": "takes no argument: one entry",
    "cli._build_parser": "takes no argument: one entry",
}


def test_every_cache_is_bounded_or_has_a_finite_key_space():
    found = {f"{p.stem}.{name}" for p in MODULES for name in _unbounded_caches(_tree(p))}
    assert found == set(UNBOUNDED_CACHES)


# the calls that change a list, dict or set in place
_MUTATORS = {"append", "extend", "update", "setdefault", "add", "pop", "clear"}


def _mutated_module_state(tree):
    """The module-level names bound to a dict, list or set, by display,
    comprehension or call, that some function in tree changes: by item
    assignment, a mutating method or +=. A function that binds the name
    itself, without declaring it global, changes its own local."""
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    state = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, containers) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            state.update(t.id for t in targets if isinstance(t, ast.Name))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        declared = {name for n in nodes if isinstance(n, ast.Global) for name in n.names}
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        bound.update(n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        visible = state - (bound - declared)
        for n in nodes:
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                target = n.value
            elif isinstance(n, ast.AugAssign):
                target = n.target
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                if n.func.attr not in _MUTATORS:
                    continue
                target = n.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in visible:
                found.add(target.id)
    return sorted(found)


# the module-level containers that a function changes, each with why it
# is not a bounded functools cache
MUTABLE_MODULE_STATE = {
    "oracles._PRIMES": "a sieve that grows to the square root of the largest input",
}


def test_module_state_is_a_bounded_cache_not_a_hand_rolled_one():
    found = {f"{p.stem}.{name}" for p in MODULES for name in _mutated_module_state(_tree(p))}
    assert found == set(MUTABLE_MODULE_STATE)


def test_mutated_module_state_is_found():
    tree = ast.parse(
        "A = {}\nB = []\nC = set()\nD = {}\nE = []\nF = {}\nG = ()\n"
        "def f(x):\n    A[x] = 1\n    B.append(x)\n    G[0] = x\n"
        "def g(D):\n    D[0] = 1\n"
        "def h():\n    global E\n    E += [1]\n    C.add(1)\n"
        "class K:\n    def k(self):\n        del F[0]\n"
    )
    assert _mutated_module_state(tree) == ["A", "B", "C", "E", "F"]


def test_no_unused_module_imports():
    problems = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(_tree(path))
        if unused:
            problems[path.name] = unused
    assert problems == {}


# the modules whose public names must be read by the product itself
PRODUCT_MODULES = ("exact", "chain", "groups", "galois", "localfields", "quadforms", "cli")

# the public names that no product code reads, each with why it stays
UNREAD_PUBLIC_NAMES = {
    "localfields.local_isotropic": "the public face of _isotropic_at, which the isotropy scan runs",
}


def _public_definitions(tree):
    """The public names that tree's module-level defs, classes and
    assignments bind."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stores = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            out.update(n.id for n in stores if isinstance(n.ctx, ast.Store))
    return {name for name in out if not name.startswith("_")}


def _public_members(tree):
    """The public methods, properties and __slots__ fields of tree's
    module-level classes, as "Class.name"."""
    out = set()
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        names = []
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(node.name)
            elif isinstance(node, ast.Assign) and "__slots__" in {
                getattr(t, "id", None) for t in node.targets
            }:
                names.extend(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
        out.update(f"{cls.name}.{name}" for name in names if not name.startswith("_"))
    return out


def _loaded_names(tree):
    """Every name tree loads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def _import_time_imports(tree):
    """Top-level names of the absolute imports that run when tree's module
    is imported: every import outside a function body."""
    out, nodes = set(), list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
        nodes.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_is_part_of_the_product():
    trees = {name: _tree(PACKAGE / f"{name}.py") for name in PRODUCT_MODULES}
    read = set().union(*map(_loaded_names, trees.values()))
    acceptance = _tree(TESTS / "test_acceptance.py")
    # a member counts as read wherever its name is loaded, bare or as an
    # attribute, in the product or the acceptance tests
    members_read = read | _loaded_names(acceptance)
    read |= set(noethercheck.__all__) | _imported_names(acceptance)
    unread = {f"{m}.{name}" for m, tree in trees.items() for name in _public_definitions(tree) - read}
    unread |= {
        f"{m}.{member}"
        for m, tree in trees.items()
        for member in _public_members(tree)
        if member.partition(".")[2] not in members_read
    }
    assert unread == set(UNREAD_PUBLIC_NAMES)
    # fractions loads with the first Fraction, inside exact_rational, and
    # with no module
    assert {p.name for p in MODULES if "fractions" in _import_time_imports(_tree(p))} == set()


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
    "group_facts", "_perm_facts", "_metacyclic_facts", "StabilizerChain", "_q16_search",
    "RelationLattice", "_giant_facts", "_block_is_orbit",
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


def _from_imports(tree):
    """Short module name -> the names the from-imports of it anywhere in
    tree bind."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            out.setdefault(module, set()).update(a.name for a in node.names)
    return out


def _reads(tree, name):
    """Nodes of tree that read name, bare or as an attribute."""
    return [
        n
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == name)
    ]


def test_oracles_share_no_code_with_what_they_check():
    # the zero counting, the witness search and the sieve work on ints and
    # bitmasks of their own; a Hilbert symbol is read only where it is the
    # thing checked, by the product formula
    tree = _tree(PACKAGE / "oracles.py")
    assert "fractions" not in _top_level_imports(tree)
    imports = _from_imports(tree)
    assert imports["localfields"] == {"DiagonalForm", "Place", "REAL_PLACE", "hilbert_symbol"}
    assert imports["quadforms"] == {"isotropic_Q"}
    assert {"localfields", "quadforms"} & _imported_names(tree) == set()
    assert not any(
        a.name.startswith("noethercheck.")
        for n in ast.walk(tree)
        if isinstance(n, ast.Import)
        for a in n.names
    )
    (check,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "reciprocity_failures"
    ]
    assert len(_reads(tree, "hilbert_symbol")) == len(_reads(check, "hilbert_symbol")) > 0
    for name in ("three_squares_nat", "_legendre", "legendre_symbol", "is_local_square"):
        assert _reads(tree, name) == [], name


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


def test_tools_import_nothing_from_the_package():
    for name in ("families.py", "parity.py", "chainwork.py"):
        assert "noethercheck" not in _top_level_imports(_tree(TOOLS / name)), name
    imports = _top_level_imports(_tree(TOOLS / "families.py"))
    assert imports <= sys.stdlib_module_names - {"random"}
    imports = _top_level_imports(_tree(TOOLS / "chainwork.py"))
    assert imports <= sys.stdlib_module_names | {"families", "parity"}


def test_groups_imports_neither_re_nor_random():
    # the chains stay deterministic, and the catalog names are parsed
    # without a regular expression, whose first compile costs more than
    # the parse
    for name in ("groups.py", "chain.py"):
        assert _top_level_imports(_tree(PACKAGE / name)) & {"re", "random"} == set(), name


def _numeral_readers(tree):
    """Where tree reads an integer from text by a rule of its own: a call
    of int, int passed to a call other than a type test, or a string
    holding the class \\d."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func.id if isinstance(node.func, ast.Name) else None
            if func == "int":
                out.append((node.lineno, "int()"))
            if func in ("isinstance", "issubclass"):
                continue
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if isinstance(arg, ast.Name) and arg.id == "int":
                    out.append((node.lineno, "int passed"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value:
            out.append((node.lineno, "\\d"))
    return [f"{what} (line {line})" for line, what in sorted(out)]


def test_cli_and_groups_read_numerals_through_parse_ints():
    for name in ("cli.py", "groups.py"):
        assert _numeral_readers(_tree(PACKAGE / name)) == [], name


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


RATIONAL_MODULES = {
    "fractions", "decimal", "numbers", "noethercheck.localfields", "noethercheck.quadforms",
}


def test_check_and_catalog_load_no_rational_arithmetic():
    run = (
        "import contextlib, io, noethercheck.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main({!r})"
    )
    for argv in (
        ["check", "--group", "catalog:SL2_7", "--field", "Q"],
        ["check", "--group", "catalog:C8", "--field", "Q(sqrt 999999999989)", "--json"],
        ["catalog"],
    ):
        added = _modules_added_by(run.format(argv))
        assert "noethercheck.galois" in added and added & RATIONAL_MODULES == set(), argv
    # the oracle subcommand, the oracles and the form API load the form
    # modules, and with integer coefficients no rational arithmetic
    forms = {"noethercheck.localfields", "noethercheck.quadforms"}
    isotropic = "from noethercheck import DiagonalForm, isotropic_Q\nisotropic_Q(DiagonalForm.of({}))"
    for statement in (
        run.format(["oracle", "three-squares", "10"]),
        "import noethercheck.oracles",
        isotropic.format("1, 1, -2"),
    ):
        added = _modules_added_by(statement)
        assert forms <= added and added & RATIONAL_MODULES == forms, statement
    # the check sees fractions, decimal and numbers when a Fraction loads them
    statement = "from fractions import Fraction\n" + isotropic.format("1, 1, Fraction(-1, 2)")
    assert RATIONAL_MODULES <= _modules_added_by(statement)


def test_star_import_binds_all_public_names():
    out = _output_of(
        "from noethercheck import *\nimport noethercheck\n"
        "print(sum(name in globals() for name in noethercheck.__all__), len(noethercheck.__all__))"
    )
    assert out.split() == ["13", "13"]


def test_check_over_Q_builds_no_prime_table():
    # the primes below TRIAL_BOUND and their product are sieved on first
    # use, by a factorization from TRIAL_BOUND on, which neither importing
    # the CLI nor a check over Q makes here: SL2_7's cycle lengths are all
    # below TRIAL_BOUND, though a group with a longer one would build it
    run = (
        "import contextlib, io, noethercheck.cli as cli, noethercheck.exact as exact\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check', '--group', 'catalog:SL2_7', '--field', {!r}, '--json'])\n"
        "print(exact._trial_primes.cache_info().currsize)"
    )
    assert _output_of(run.format("Q")).split() == ["0"]
    # the check sees the table when a field's radicand does build it
    assert _output_of(run.format("Q(sqrt 999999999989)")).split() == ["1"]


CHAIN_INTERNALS = {"levels", "orbit", "reps", "tested", "points", "bound", "size"}


def _chain_internal_reads(tree):
    """Where tree reads past the chain's interface, as "name (line n)",
    sorted: an attribute named in CHAIN_INTERNALS, or private but not a
    dunder, or the level class _Level."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            name = n.attr
            hit = name in CHAIN_INTERNALS or (name.startswith("_") and not name.endswith("__"))
        else:
            name = getattr(n, "id", None)
            hit = name == "_Level"
        if hit:
            out.append(f"{name} (line {n.lineno})")
    return sorted(out)


def test_chain_is_a_leaf_behind_its_interface():
    assert _package_imports(_tree(PACKAGE / "chain.py")) == set()
    tree = _tree(PACKAGE / "groups.py")
    assert _from_imports(tree)["chain"] == {"StabilizerChain", "_perm_compose", "_check_chain_cap"}
    assert _chain_internal_reads(tree) == []
    Chain = chain.StabilizerChain
    parameters = inspect.signature(Chain).parameters
    assert list(parameters) == ["degree", "lattice"] and parameters["lattice"].default is None
    assert {name for name in dir(Chain(1)) if not name.startswith("_")} == {
        "identity", "add", "walk", "order"
    }
    # the tables that check the chain compose with a product of their own
    tree = _tree(PACKAGE / "oracles.py")
    assert "chain" not in _package_imports(tree)
    assert "chain" not in _imported_names(tree)


def _setter_reads(tree):
    """Where tree reads object.__setattr__ or any __set__: the dotted names
    of the enclosing classes and functions, "" at module level."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and (
                child.attr == "__set__"
                or (
                    child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "object"
                )
            ):
                out.append(".".join(scope))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(tree, ())
    return out


def test_only_the_base_binds_record_fields():
    reads = {f"{p.stem}.{scope}" for p in MODULES for scope in _setter_reads(_tree(p))}
    assert reads == {"exact.Frozen.__init_subclass__"}
    for module, name in (("groups", "GroupFacts"), ("galois", "Verdict"), ("groups", "Catalog")):
        (cls,) = [
            n for n in _tree(PACKAGE / f"{module}.py").body
            if isinstance(n, ast.ClassDef) and n.name == name
        ]
        assert "__init__" not in {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}, name


def test_checks_catch_what_they_claim():
    tree = ast.parse(
        "import math\nfrom fractions import Fraction\nfrom .x import y as z\n"
        "a = math.inf\nb = float('1')\nc = 0.5\n"
    )
    assert _unused_imports(tree) == ["Fraction (line 2)", "z (line 3)"]
    assert _float_uses(tree) == ["math.inf (line 4)", "float() (line 5)", "literal 0.5 (line 6)"]
    tree = ast.parse(
        "a = int('1')\nb = p.add_argument('n', type=int)\nc = list(map(int, x))\n"
        "d = r'-?\\d+'\ne: int = len(x)\nf = isinstance(e, int)\n"
    )
    assert _numeral_readers(tree) == [
        "int() (line 1)", "int passed (line 2)", "int passed (line 3)", "\\d (line 4)"
    ]
    tree = ast.parse(
        "import random\nfrom .exact import QQ\nfrom . import quadforms\nimport noethercheck.oracles\n"
        "from noethercheck import cli\ndef f():\n    from noethercheck.localfields import Place\n"
    )
    assert _package_imports(tree) == {"exact", "quadforms", "oracles", "cli", "localfields"}
    assert _imported_names(tree) == {"QQ", "quadforms", "cli", "Place"}
    assert _from_imports(tree) == {"exact": {"QQ"}, "": {"quadforms"}, "noethercheck": {"cli"},
                                   "localfields": {"Place"}}
    assert [n.lineno for n in _reads(ast.parse("a = b.a\na(c)\n"), "a")] == [1, 2]
    tree = ast.parse("import sympy.combinatorics\nfrom . import x\ndef f():\n    from sympy import S\n")
    assert _top_level_imports(tree) == {"sympy"}
    tree = ast.parse(
        "import a.b\nif x:\n    from c import d\nclass K:\n    import e\n    def f(self):\n"
        "        import g\ndef h():\n    from i import j\n"
    )
    assert _import_time_imports(tree) == {"a", "c", "e"}
    tree = ast.parse(
        "A = 1\n_B = 2\nC: int = 3\nD, E = 4, 5\ndef f(): pass\nclass G: pass\nH.x = 6\n"
        "def _i():\n    J = A.k\n    return L(_B)\n"
    )
    assert _public_definitions(tree) == {"A", "C", "D", "E", "f", "G"}
    assert _loaded_names(tree) == {"int", "H", "x", "A", "k", "L", "_B"}
    tree = ast.parse(
        "class A:\n    __slots__ = ('x', '_y')\n    k = 1\n    def f(self): pass\n"
        "    @property\n    def g(self): pass\n    def _h(self): pass\n    def __str__(self): pass\n"
        "class B:\n    __slots__ = 'z'\n    @classmethod\n    def of(cls): pass\ndef m(): pass\n"
    )
    assert _public_members(tree) == {"A.x", "A.f", "A.g", "B.z", "B.of"}
    tree = ast.parse(
        "s = object.__setattr__\nclass A:\n    def f(self):\n        object.__setattr__(self, 'x', 1)\n"
        "        def g():\n            setattr(self, 'y', 2)\n            A.x.__set__(self, 3)\n"
        "            object.__getattr__, self.__setattr__\n"
    )
    assert _setter_reads(tree) == ["", "A.f", "A.f.g"]
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache as lc\n@cache\ndef a(): pass\n"
        "@lc(maxsize=None)\ndef b(x): pass\n@lc(None)\ndef c(x): pass\n@lc(maxsize=8)\ndef d(x): pass\n"
        "@lc\ndef e(x): pass\n@functools.lru_cache(maxsize=None)\ndef f(x): pass\n"
        "g = functools.cache(len)\nh = lc(maxsize=None)(len)\ncache_size = 3\n"
    )
    assert _unbounded_caches(tree) == ["a", "b", "c", "f", "line 15", "line 16"]
    tree = ast.parse("def f(G, H):\n    G.levels, G._sift(H.identity), G.__class__, _Level, size\n")
    assert _chain_internal_reads(tree) == ["_Level (line 2)", "_sift (line 2)", "levels (line 2)"]
