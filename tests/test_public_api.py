"""The package's public surface: the verdict, the group specs, the field
descriptor and the form API, and the README's library example; and the
names the benchmark under bench/ reads from the package, which a change
that drops one would break before any other test saw it."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import noethercheck

PUBLIC = {
    "verdict",
    "Verdict",
    "Check",
    "GroupSpec",
    "Catalog",
    "Metacyclic",
    "PermGens",
    "CATALOG_NAMES",
    "FieldDescriptor",
    "QQ",
    "DiagonalForm",
    "isotropic_Q",
    "isotropic_quad",
}

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_is_the_verdict_spec_and_form_api():
    assert sorted(noethercheck.__all__) == sorted(PUBLIC)
    assert len(noethercheck.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(noethercheck, name) is not None, name


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    v = ns["v"]
    assert v.outcome == "not_retract_rational"
    assert v.theorem == "1.5"
    assert v.witness == {
        "sylow_order": 16,
        "form_3_1_m7_anisotropic": True,
        "form_8_1_anisotropic": True,
    }
    # a line "expr  # <literal>" promises that expr evaluates to the literal
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        if not sep:
            continue
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, ns) == want, line


def test_names_the_benchmark_reads_are_there():
    # in a fresh interpreter, in the order bench/child.py reads them: the
    # catalog cache through groups, which imports oracles and with it
    # quadforms; the cache counts of the catalog and of is_prime; the
    # oracle items; and the Subgroup hook that bench/tracer.py patches
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    items = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ORACLE_ITEMS"
    )
    code = (
        f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import noethercheck.cli\n"
        "nc = sys.modules['noethercheck']\n"
        "assert callable(nc.groups.catalog_group.cache_clear)\n"
        "for cache in (nc.groups.catalog_group, nc.exact.is_prime):\n"
        "    cache.cache_info().hits, cache.cache_info().misses\n"
        f"for name in {items!r}:\n"
        "    assert callable(getattr(nc.oracles, name)), name\n"
        "assert callable(nc.quadforms.three_squares_nat)\n"
        "assert callable(nc.groups.Subgroup.__post_init__)\n"
        "print('ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")
