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
"""

__version__ = "0.1.0"

from .finring import (  # noqa: F401
    AdditiveSubgroup,
    FiniteRing,
    IdealLattice,
    OneSidedIdeal,
    RingElement,
    corner_ring,
    direct_product,
    enumerate_one_sided_ideals,
    evaluate,
    find_identity,
    make_ring,
    one_sided_ideal_closure,
    product_subgroup,
    span_subgroup,
)
from .idempotents import (  # noqa: F401
    IdempotentSet,
    PeirceTable,
    StrongnessReport,
    chain_profile,
    corner_lattice_correspondence,
    is_strong,
    peirce_table,
    strong_condition_report,
    validate_complete_set,
)
from .smallcat import (  # noqa: F401
    SmallCategory,
    build_MX,
    finiteness_report,
    hom_set,
    homset_strong_report,
    is_groupoid,
    make_category,
)
from .graded import (  # noqa: F401
    Grading,
    attach_grading,
    induced_idempotents,
    homset_strongly_graded_report,
    object_unital_check,
    strongly_graded_check,
)
from .skewalg import (  # noqa: F401
    SkewAlgebra,
    SkewCategorySystem,
    artinian_criteria_report,
    build_category_algebra,
    build_skew_algebra,
    strong_idempotent_equivalence_check,
    validate_system,
)
from .corpus import (  # noqa: F401
    Mutation,
    generate_suite,
    mutate,
)
