"""Exact obstruction tests for retract rationality of invariant fields of
finite groups over Q and quadratic number fields.

The package exports the verdict, the group specs it takes, the field
descriptor and the two isotropy decisions for diagonal forms. Everything
else lives in the submodules (exact, localfields, quadforms, groups,
chain, galois, oracles, cli). The form API, and the rational arithmetic
under it, loads on first use: the verdict reads integers only.
"""

from .exact import QQ, FieldDescriptor
from .galois import Check, Verdict, verdict
from .groups import CATALOG_NAMES, Catalog, GroupSpec, Metacyclic, PermGens

__all__ = [
    "CATALOG_NAMES",
    "Catalog",
    "Check",
    "DiagonalForm",
    "FieldDescriptor",
    "GroupSpec",
    "Metacyclic",
    "PermGens",
    "QQ",
    "Verdict",
    "isotropic_Q",
    "isotropic_quad",
    "verdict",
]

_FROM_QUADFORMS = frozenset({"DiagonalForm", "isotropic_Q", "isotropic_quad"})


def __getattr__(name: str):
    if name in _FROM_QUADFORMS:
        from . import quadforms

        return getattr(quadforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
