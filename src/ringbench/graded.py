"""Gradings of finite rings by small categories.

A grading assigns an additive subgroup S_g to every morphism g so that the
subgroups decompose the ring additively and multiplication respects
composition: S_g S_h sits inside S_{gh} for composable pairs and vanishes
otherwise.  Components over a whole hom-set, S_{G(a,b)}, are always derived
on demand from the per-morphism components, never stored.

Object unitality means every identity-morphism component is a unital ring
whose unit acts as a one-sided identity on all homogeneous elements with the
matching endpoint.  The local units of an object unital grading always form
a complete set of idempotents; induced_idempotents re-proves that claim
mechanically on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import strength
from .errors import (
    CategoryNotHomSetStrong,
    GradingViolation,
    NotDirectSum,
    NotObjectUnital,
    RingMismatch,
    ShapeMismatch,
)
from .finring import (
    AdditiveSubgroup,
    FiniteRing,
    RingElement,
    product_subgroup,
    subring_identity,
)
from .idempotents import IdempotentSet, validate_complete_set
from .smallcat import SmallCategory, homset_strong_report


@dataclass(frozen=True, eq=False)
class Grading:
    ring: FiniteRing
    category: SmallCategory
    components: tuple[AdditiveSubgroup, ...]  # indexed by morphism

    def component(self, g: int) -> AdditiveSubgroup:
        return self.components[g]

    def hom_component(self, a: int, b: int) -> AdditiveSubgroup:
        """S over the hom-set of arrows b -> a: the join of the morphism
        components with codomain a and domain b."""
        total = self.ring.zero_subgroup()
        for g in self.category.hom_set(a, b):
            total = total.join(self.components[g])
        return total

    def endo_component(self, a: int) -> AdditiveSubgroup:
        return self.hom_component(a, a)

    def __repr__(self) -> str:
        return f"Grading(of {self.ring!r} by {self.category!r})"


def attach_grading(
    ring: FiniteRing,
    category: SmallCategory,
    components: Mapping[int, AdditiveSubgroup] | Sequence[AdditiveSubgroup],
) -> Grading:
    """Validate the direct-sum and multiplicativity axioms exhaustively.

    Multiplicativity is checked on component basis pairs, which suffices by
    bilinearity; the first violating pair is reported with a concrete
    product witness.
    """
    q = category.morphism_count
    if isinstance(components, Mapping):
        missing = [g for g in range(q) if g not in components]
        if missing:
            raise ShapeMismatch(f"components missing for morphisms {missing}")
        comps = tuple(components[g] for g in range(q))
    else:
        comps = tuple(components)
        if len(comps) != q:
            raise ShapeMismatch(
                f"expected {q} components, got {len(comps)}"
            )
    for sub in comps:
        if sub.ring is not ring:
            raise RingMismatch("component bound to a different ring")

    total = ring.zero_subgroup()
    prod = 1
    for sub in comps:
        total = total.join(sub)
        prod *= sub.order
    if prod != ring.order or total != ring.full_subgroup():
        raise NotDirectSum(
            f"component orders multiply to {prod}, ring order is {ring.order}"
        )

    for g in range(q):
        for h in range(q):
            product = product_subgroup(comps[g], comps[h])
            if product.is_zero():
                continue
            if category.is_composable(g, h):
                target = comps[category.compose[g, h]]
                if not product <= target:
                    witness = _product_witness(ring, comps[g], comps[h], target)
                    raise GradingViolation(g, h, witness)
            else:
                witness = _product_witness(ring, comps[g], comps[h], None)
                raise GradingViolation(
                    g, h, witness, message=f"non-composable pair ({g}, {h}) has nonzero product"
                )
    return Grading(ring, category, comps)


def _product_witness(ring, a, b, target):
    for x in a.rows:
        for y in b.rows:
            p = ring.mul_vec(x, y)
            if any(p) and (target is None or not target.contains(p)):
                return x, y, p
    return None


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class ObjectUnitalResult:
    object_unital: bool
    units: tuple[RingElement | None, ...]  # per object, None when absent
    witness: tuple | None


def object_unital_check(grading: Grading) -> ObjectUnitalResult:
    """Find the unit of every identity component and verify the one-sided
    unit laws against every homogeneous basis element."""
    ring = grading.ring
    cat = grading.category
    units: list[RingElement | None] = []
    for a in range(cat.object_count):
        comp = grading.components[cat.identity[a]]
        units.append(subring_identity(ring, comp))
    for a, u in enumerate(units):
        if u is None:
            return ObjectUnitalResult(False, tuple(units), (a, "identity component not unital"))
    for g in range(cat.morphism_count):
        uc = units[cat.cod[g]]
        ud = units[cat.dom[g]]
        for x in grading.components[g].rows:
            if ring.mul_vec(uc.coords, x) != x or ring.mul_vec(x, ud.coords) != x:
                return ObjectUnitalResult(False, tuple(units), (g, x, "unit law fails"))
    return ObjectUnitalResult(True, tuple(units), None)


def strongly_graded_check(grading: Grading) -> bool:
    """Equality, not just inclusion, of S_g S_h with S_{gh} on every
    composable pair."""
    cat = grading.category
    for g in range(cat.morphism_count):
        for h in range(cat.morphism_count):
            if not cat.is_composable(g, h):
                continue
            target = grading.components[cat.compose[g, h]]
            if product_subgroup(grading.components[g], grading.components[h]) != target:
                return False
    return True


@dataclass(frozen=True)
class GradedStrongReport(strength.StrongnessReport):
    """Hom-set-level strength conditions for an object unital grading over a
    hom-set strong category, plus the corner-identity law
    1_{S_a} S 1_{S_b} = S_{G(a,b)} checked by direct subgroup computation."""

    corner_identity: bool
    corner_identity_witness: tuple | None


def _hom_components(grading: Grading) -> list[list[AdditiveSubgroup]]:
    p = grading.category.object_count
    return [[grading.hom_component(a, b) for b in range(p)] for a in range(p)]


def _sandwich_law(
    ring: FiniteRing, units: Sequence[RingElement], hom: Sequence[Sequence[AdditiveSubgroup]]
) -> tuple[bool, tuple | None]:
    """Check 1_{S_a} S 1_{S_b} = S_{G(a,b)} on every object pair; a failure
    carries the pair and both subgroup orders."""
    for a in range(len(units)):
        for b in range(len(units)):
            sandwich = ring.sandwich(units[a].coords, units[b].coords)
            if sandwich != hom[a][b]:
                return False, ((a, b), sandwich.order, hom[a][b].order)
    return True, None


def _local_units(grading: Grading) -> tuple[RingElement, ...]:
    """The units of an object unital grading; NotObjectUnital otherwise."""
    ou = object_unital_check(grading)
    if not ou.object_unital:
        raise NotObjectUnital(f"grading is not object unital: {ou.witness}")
    return ou.units


def homset_strongly_graded_report(grading: Grading) -> GradedStrongReport:
    units = _local_units(grading)
    cat_report = homset_strong_report(grading.category)
    if not (cat_report.agree and cat_report.strong):
        raise CategoryNotHomSetStrong(
            f"category fails hom-set strength: {cat_report.witness3}"
        )
    hom = _hom_components(grading)
    table = strength.ComponentTable(
        hom,
        is_zero=AdditiveSubgroup.is_zero,
        product=product_subgroup,
        holds_unit=lambda prod, x: prod.contains(units[x]),
        third_zero="third hom-component is zero",
        product_misses="product misses the hom-component",
        opposed_zero="opposed hom-component is zero",
        diagonal_missed="endo component not recovered",
        unit_missed="local unit not reached",
    )
    conditions = strength.report(table)
    corner_ok, corner_witness = _sandwich_law(grading.ring, units, hom)
    return GradedStrongReport(
        **vars(conditions), corner_identity=corner_ok, corner_identity_witness=corner_witness
    )


def corner_identity_check(grading: Grading) -> tuple[bool, tuple | None]:
    """The law 1_{S_a} S 1_{S_b} = S_{G(a,b)} for every object pair, checked
    for any object unital grading (no hom-set strength hypothesis)."""
    return _sandwich_law(grading.ring, _local_units(grading), _hom_components(grading))


def induced_idempotents(grading: Grading) -> IdempotentSet:
    """The local units, validated as a complete set of idempotents.

    For an object unital grading this validation must pass; it is re-proved
    mechanically on every instance rather than assumed.
    """
    return validate_complete_set(grading.ring, _local_units(grading))


@dataclass(frozen=True)
class GradedFlags:
    """Recomputable summary of a grading's standing."""

    object_unital: bool
    strongly_graded: bool
    homset_strongly_graded: bool | None  # None when hypotheses fail
    homset_report: GradedStrongReport | None
    induced_set: IdempotentSet | None


def compute_flags(grading: Grading) -> GradedFlags:
    ou = object_unital_check(grading)
    strongly = strongly_graded_check(grading)
    report = None
    verdict: bool | None = None
    induced = None
    if ou.object_unital:
        induced = induced_idempotents(grading)
        if homset_strong_report(grading.category).strong:
            report = homset_strongly_graded_report(grading)
            verdict = report.strong
    return GradedFlags(ou.object_unital, strongly, verdict, report, induced)
