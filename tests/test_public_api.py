"""The package's public surface: the verdict, the group specs, the field
descriptor and the form API, and the README's library example."""

import ast
import re
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

README = Path(__file__).resolve().parents[1] / "README.md"


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
