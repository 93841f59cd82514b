"""Exact obstruction tests for retract rationality of invariant fields of
finite groups over Q and quadratic number fields.

The package exports the verdict, the group specs it takes, the field
descriptor and the two isotropy decisions for diagonal forms. Everything
else lives in the submodules (exact, localfields, quadforms, groups,
galois, oracles, cli).
"""

from .exact import QQ, FieldDescriptor
from .galois import Check, Verdict, verdict
from .groups import CATALOG_NAMES, Catalog, GroupSpec, Metacyclic, PermGens
from .localfields import DiagonalForm
from .quadforms import isotropic_Q, isotropic_quad

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
