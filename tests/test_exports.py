"""The names the package exports, resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringbench

# every name ``from ringbench import X`` gives, by the module it comes from
EXPORTS = {
    "finring": (
        "AdditiveSubgroup", "FiniteRing", "IdealLattice", "OneSidedIdeal", "RingElement",
        "corner_ring", "direct_product", "enumerate_one_sided_ideals", "find_identity",
        "make_ring", "product_subgroup",
    ),
    "idempotents": (
        "IdempotentSet", "PeirceTable", "StrongnessReport", "chain_profile",
        "corner_lattice_correspondence", "is_strong", "peirce_table",
        "strong_condition_report", "validate_complete_set",
    ),
    "smallcat": (
        "SmallCategory", "build_MX", "finiteness_report", "homset_strong_report",
        "is_groupoid", "make_category",
    ),
    "graded": (
        "Grading", "attach_grading", "induced_idempotents", "homset_strongly_graded_report",
        "object_unital_check", "strongly_graded_check",
    ),
    "skewalg": (
        "SkewAlgebra", "SkewCategorySystem", "build_category_algebra", "build_skew_algebra",
        "strong_idempotent_equivalence_check", "validate_system",
    ),
    "corpus": ("generate_suite",),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def fresh_import(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(ringbench.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_defining_modules_object(module, name):
    value = getattr(importlib.import_module(f"ringbench.{module}"), name)
    assert getattr(ringbench, name) is value
    assert getattr(__import__("ringbench", fromlist=[name]), name) is value
    assert name in dir(ringbench)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ringbench.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from ringbench import no_such_name  # noqa: F401


def test_import_loads_no_submodule():
    code = "import sys, ringbench; print(*sorted(m for m in sys.modules if m.startswith('ringbench')))"
    assert fresh_import(code).split() == ["ringbench"]


def test_from_import_of_a_submodule_imports_it():
    code = (
        "import sys\n"
        "from ringbench import corpus\n"
        "print(corpus.__name__, corpus is sys.modules['ringbench.corpus'])"
    )
    assert fresh_import(code).split() == ["ringbench.corpus", "True"]
