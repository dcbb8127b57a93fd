"""The package's record types: constructor parameters and defaults, which
records compare by value and which by identity, read-only fields, hashing
and repr strings.

A value record equals another built from equal field values and hashes
like them; an identity record (a suite instance, a category, a grading, a
table of one ring's components) equals only itself, so two builds with the
same content stay two objects.
"""

import inspect

import pytest

from ringbench import corpus, graded, idempotents, skewalg, smallcat, strength, verify
from ringbench import finring as fr

REQUIRED = inspect.Parameter.empty

# every public record, by its constructor parameters in order: a bare name
# is required, a pair is (name, default)
PARAMETERS = {
    corpus.RingWithIdempotents: ["name", "ring", "idempotents", ("expect_strong", None)],
    corpus.CategoryInstance: ["name", "category"],
    corpus.SkewInstance: ["name", "algebra"],
    corpus.MXInstance: ["name", "monoid", "set_size", "category", "monoid_is_group"],
    corpus.GradingInstance: ["name", "grading"],
    corpus.MutatedInstance: ["expected_error", "payload", "revalidate"],
    fr.RingElement: ["ring", "coords"],
    fr.OneSidedIdeal: ["subgroup", "side"],
    fr.IdealLattice: ["ring", "side", "ideals", "cover_relation", "height", "size"],
    fr.CornerRing: ["ring", "parent", "idempotent", "subgroup", "inclusion", "_coord_index"],
    graded.Grading: ["ring", "category", "components"],
    graded.ObjectUnitalResult: ["object_unital", "units", "witness"],
    idempotents.IdempotentSet: ["ring", "elements", "left_multiples"],
    idempotents.PeirceTable: ["ring", "iset", "components"],
    idempotents.CornerLatticeCertificate: [
        "side", "i", "j", "ideal_count", "submodule_count", "ideal_height", "submodule_height",
        "forward_then_back_identity", "back_then_forward_identity", "forward_monotone",
        "back_monotone", "pairs", "failure",
    ],
    idempotents.CornerProfile: [
        "corner_order", "left_size", "left_height", "right_size", "right_height",
    ],
    idempotents.ChainProfile: [
        "index_size", "strong", "corners", "ring_left_size", "ring_left_height",
        "ring_right_size", "ring_right_height",
    ],
    skewalg.SkewCategorySystem: ["category", "object_rings", "maps"],
    skewalg.SkewAlgebra: ["ring", "grading", "system", "offsets", "unit_elements"],
    skewalg.StrongEquivalenceRecord: [
        "idempotents_strong", "category_homset_strong", "graded_report_ok",
    ],
    smallcat.SmallCategory: ["object_count", "dom", "cod", "identity", "compose"],
    smallcat.GroupoidCheck: ["is_groupoid", "inverses", "witness"],
    smallcat.FinitenessReport: [
        "morphism_count", "object_count", "endo_sizes", "homset_strong", "bound_satisfied",
    ],
    strength.StrongnessReport: [
        "condition1", "condition2", "condition3", "witness1", "witness2", "witness3",
    ],
    strength.ComponentTable: [
        "entries", "is_zero", "product", "holds_unit", "third_zero", "product_misses",
        "opposed_zero", "diagonal_missed", "unit_missed",
    ],
    # failures and details default to a new empty list and dict
    verify.VerificationResult: ["name", "ok", "checked", "failures", "details"],
}

# records that equal another built from equal field values
VALUE_RECORDS = {
    corpus.MutatedInstance,
    fr.RingElement,
    graded.ObjectUnitalResult,
    idempotents.ChainProfile,
    idempotents.CornerLatticeCertificate,
    idempotents.CornerProfile,
    skewalg.StrongEquivalenceRecord,
    smallcat.GroupoidCheck,
    smallcat.FinitenessReport,
    strength.StrongnessReport,
    verify.VerificationResult,
}
IDENTITY_RECORDS = set(PARAMETERS) - VALUE_RECORDS - {strength.ComponentTable}
HASHABLE_VALUE_RECORDS = VALUE_RECORDS - {verify.VerificationResult}


def _parameters(cls) -> list:
    out = []
    for p in inspect.signature(cls).parameters.values():
        if p.default is REQUIRED or cls is verify.VerificationResult:
            out.append(p.name)
        else:
            out.append((p.name, p.default))
    return out


def _build(cls, value):
    """An instance whose every field holds ``value`` (records do not check
    their fields; validation happens in the functions that build them)."""
    return cls(*[value] * len(PARAMETERS[cls]))


@pytest.mark.parametrize("cls", sorted(PARAMETERS, key=lambda c: c.__qualname__))
def test_constructor_parameters(cls):
    assert _parameters(cls) == PARAMETERS[cls]


def test_verification_result_defaults_are_fresh_containers():
    a = verify.VerificationResult("x", True, 0)
    b = verify.VerificationResult("x", True, 0)
    assert (a.failures, a.details) == ([], {})
    assert a.failures is not b.failures and a.details is not b.details


@pytest.mark.parametrize("cls", sorted(VALUE_RECORDS, key=lambda c: c.__qualname__))
def test_value_records_compare_by_value(cls):
    a, b = _build(cls, (1, 2)), _build(cls, (1, 2))
    assert a is not b and a == b and not a != b
    assert _build(cls, (1, 2)) != _build(cls, (1, 3))
    if cls in HASHABLE_VALUE_RECORDS:
        assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("cls", sorted(IDENTITY_RECORDS, key=lambda c: c.__qualname__))
def test_identity_records_compare_by_identity(cls):
    a, b = _build(cls, (1, 2)), _build(cls, (1, 2))
    assert a == a and a != b
    assert hash(a) != hash(b) and len({a, b}) == 2


@pytest.mark.parametrize(
    "cls", sorted(HASHABLE_VALUE_RECORDS, key=lambda c: c.__qualname__)
)
def test_value_record_fields_are_read_only(cls):
    record = _build(cls, 0)
    name = _parameters(cls)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    assert getattr(record, name) == 0


def test_verification_result_is_mutable_and_unhashable():
    result = verify.VerificationResult("x", True, 0)
    result.failures.append("y: failed")
    result.ok = False
    assert result == verify.VerificationResult("x", False, 0, ["y: failed"])
    with pytest.raises(TypeError):
        hash(result)


def test_ring_element_equality_and_hash(m2f2):
    e = m2f2.basis_element(0)
    same = m2f2.element([1, 0, 0, 0])
    assert e == same and hash(e) == hash(same) == hash((m2f2, (1, 0, 0, 0)))
    assert e != m2f2.basis_element(1)
    # the same coordinates in another ring are another element
    other = fr.make_ring(2, 4, m2f2.constants)
    assert e != other.element([1, 0, 0, 0])
    assert {e: "E11"}[same] == "E11"
    with pytest.raises(AttributeError):
        e.coords = (0, 1, 0, 0)
    with pytest.raises(AttributeError):
        e.ring = other
    assert e.coords == (1, 0, 0, 0) and e.ring is m2f2


def test_reprs():
    assert repr(smallcat.GroupoidCheck(True, (0, 1), None)) == (
        "GroupoidCheck(is_groupoid=True, inverses=(0, 1), witness=None)"
    )
    report = strength.StrongnessReport(True, False, True, None, ((0, 1), "opposed"), None)
    assert repr(report) == (
        "StrongnessReport(condition1=True, condition2=False, condition3=True, "
        "witness1=None, witness2=((0, 1), 'opposed'), witness3=None)"
    )
    result = graded.ObjectUnitalResult(False, (None,), (0, "identity component not unital"))
    assert repr(result) == (
        "ObjectUnitalResult(object_unital=False, units=(None,), "
        "witness=(0, 'identity component not unital'))"
    )
    assert repr(verify.VerificationResult("mx-family", True, 3)) == (
        "VerificationResult(name='mx-family', ok=True, checked=3, failures=[], details={})"
    )
