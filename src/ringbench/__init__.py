"""Finite-scale workbench for rings with enough idempotents, small-category
gradings, and skew category algebras.

Everything runs in exact arithmetic over Z/m.  The core objects are
structure-constant rings (finring), complete sets of idempotents with their
component tables (idempotents), the one evaluator of the three equivalent
strength conditions shared by component tables, hom-sets and hom-components
(strength), finite categories with validated composition tables (smallcat),
ring gradings by categories (graded), skew category algebras (skewalg),
instance generators and targeted mutants (corpus), and suite-level
verification drivers (verify).

Importing the package loads none of these modules.  Each name it exports
resolves on first use, importing only the module that defines it (PEP 562),
and each ringbench subcommand loads only the modules it uses.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "finring": (
        "AdditiveSubgroup",
        "FiniteRing",
        "IdealLattice",
        "OneSidedIdeal",
        "RingElement",
        "corner_ring",
        "direct_product",
        "enumerate_one_sided_ideals",
        "find_identity",
        "make_ring",
        "product_subgroup",
    ),
    "idempotents": (
        "IdempotentSet",
        "PeirceTable",
        "StrongnessReport",
        "chain_profile",
        "corner_lattice_correspondence",
        "is_strong",
        "peirce_table",
        "strong_condition_report",
        "validate_complete_set",
    ),
    "smallcat": (
        "SmallCategory",
        "build_MX",
        "finiteness_report",
        "homset_strong_report",
        "is_groupoid",
        "make_category",
    ),
    "graded": (
        "Grading",
        "attach_grading",
        "induced_idempotents",
        "homset_strongly_graded_report",
        "object_unital_check",
        "strongly_graded_check",
    ),
    "skewalg": (
        "SkewAlgebra",
        "SkewCategorySystem",
        "build_category_algebra",
        "build_skew_algebra",
        "strong_idempotent_equivalence_check",
        "validate_system",
    ),
    "corpus": ("generate_suite",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if f"{__name__}.{name}" in sys.modules:
        # a submodule registered before its code ran (ringbench.cli registers
        # them all): run it now, as the import that binds it here would
        module = globals()[name] = importlib.import_module(f"{__name__}.{name}")
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
