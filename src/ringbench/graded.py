"""Gradings of finite rings by small categories.

A grading assigns an additive subgroup S_g to every morphism g so that the
subgroups decompose the ring additively and multiplication respects
composition: S_g S_h sits inside S_{gh} for composable pairs and vanishes
otherwise.  Components over a whole hom-set, S_{G(a,b)}, are derived from
the per-morphism components on first use and cached with the grading.

Object unitality means every identity-morphism component is a unital ring
whose unit acts as a one-sided identity on all homogeneous elements with the
matching endpoint.  The local units of an object unital grading always form
a complete set of idempotents; induced_idempotents proves that claim
mechanically once per grading, on first read, and holds the validated set
with its Peirce table.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

from . import strength
from .errors import (
    CategoryNotHomSetStrong,
    GradingViolation,
    InvariantViolation,
    NotDirectSum,
    NotObjectUnital,
    RingMismatch,
    ShapeMismatch,
    WorkbenchError,
)
from .finring import (
    AdditiveSubgroup,
    FiniteRing,
    RingElement,
    direct_sum_defect,
    product_subgroup,
    subring_identity,
)
from .idempotents import IdempotentSet, PeirceTable, peirce_table, validate_complete_set
from .smallcat import UNDEFINED, SmallCategory, homset_strong_report


class Grading:
    def __init__(self, ring: FiniteRing, category: SmallCategory,
                 components: tuple[AdditiveSubgroup, ...]):
        self.ring, self.category = ring, category
        self.components = components  # indexed by morphism

    def hom_component(self, a: int, b: int) -> AdditiveSubgroup:
        """S over the hom-set of arrows b -> a: the sum of the morphism
        components with codomain a and domain b, spanned in one reduction."""
        comps = self.components
        return self.ring.span([row for g in self.category.hom_set(a, b) for row in comps[g].rows])

    @cached_property
    def hom_components(self) -> list[list[AdditiveSubgroup]]:
        """The hom-component table, S_{G(a,b)} at [a][b], spanned on first
        use; the hom-set report and the corner check both read it."""
        p = self.category.object_count
        return [[self.hom_component(a, b) for b in range(p)] for a in range(p)]

    @cached_property
    def object_unital_result(self) -> ObjectUnitalResult:
        """The units of the identity components, each solved from the
        component's Howell rows, and the unit-law verdict, evaluated on
        first use; object_unital_check returns it."""
        ring, cat = self.ring, self.category
        units = tuple(
            subring_identity(ring, self.components[cat.identity[a]])
            for a in range(cat.object_count)
        )
        for a, u in enumerate(units):
            if u is None:
                return ObjectUnitalResult(False, units, (a, "identity component not unital"))
        for g in range(cat.morphism_count):
            uc = units[cat.cod[g]]
            ud = units[cat.dom[g]]
            for x in self.components[g].rows:
                if ring.mul_vec(uc.coords, x) != x or ring.mul_vec(x, ud.coords) != x:
                    return ObjectUnitalResult(False, units, (g, x, "unit law fails"))
        return ObjectUnitalResult(True, units, None)

    @cached_property
    def strongly_graded(self) -> bool:
        """Whether S_g S_h = S_gh on every composable pair, evaluated on
        first use; strongly_graded_check returns it."""
        comps = self.components
        return all(
            product_subgroup(comps[g], comps[h]) == comps[gh]
            for g, row in enumerate(self.category.compose.rows)
            for h, gh in enumerate(row)
            if gh != UNDEFINED
        )

    @cached_property
    def corner_identity(self) -> tuple[bool, tuple | None]:
        """Whether 1_{S_a} S 1_{S_b} = S_{G(a,b)} for every object pair, with
        the first failing pair and both subgroup orders, evaluated on first
        use; corner_identity_check returns it.  A grading that is not object
        unital raises NotObjectUnital on every read."""
        ring, units, hom = self.ring, _local_units(self), self.hom_components
        for a in range(len(units)):
            for b in range(len(units)):
                sandwich = ring.sandwich(units[a].coords, units[b].coords)
                if sandwich != hom[a][b]:
                    return False, ((a, b), sandwich.order, hom[a][b].order)
        return True, None

    @cached_property
    def induced_set(self) -> IdempotentSet:
        """The local units validated as a complete set, on first read;
        induced_idempotents returns it.  A failure raises on every read and
        holds nothing."""
        units = _local_units(self)
        try:
            return validate_complete_set(self.ring, units)
        except WorkbenchError as exc:
            raise InvariantViolation(f"local units fail validation: {exc}") from exc

    @cached_property
    def induced_table(self) -> PeirceTable:
        """The induced set's Peirce table, built on first read; its one
        report is strong_idempotent_equivalence_check's ring side."""
        return peirce_table(self.induced_set)

    @cached_property
    def homset_report(self) -> strength.StrongnessReport:
        """The three strength conditions over the hom-component table,
        evaluated on first read; homset_strongly_graded_report returns it.
        A failed hypothesis raises on every read and holds nothing."""
        units = _local_units(self)
        cat_report = homset_strong_report(self.category)
        if not (cat_report.agree and cat_report.strong):
            raise CategoryNotHomSetStrong(
                f"category fails hom-set strength: {cat_report.witness3}"
            )
        return strength.report(strength.ComponentTable(
            self.hom_components,
            is_zero=AdditiveSubgroup.is_zero,
            product=product_subgroup,
            holds_unit=lambda prod, x: prod.contains(units[x]),
            third_zero="third hom-component is zero",
            product_misses="product misses the hom-component",
            opposed_zero="opposed hom-component is zero",
            diagonal_missed="endo component not recovered",
            unit_missed="local unit not reached",
        ))

    def __repr__(self) -> str:
        return f"Grading(of {self.ring!r} by {self.category!r})"


def attach_grading(
    ring: FiniteRing,
    category: SmallCategory,
    components: Sequence[AdditiveSubgroup],
) -> Grading:
    """Validate the direct-sum and multiplicativity axioms exhaustively.

    ``components`` is a sequence indexed by morphism, one subgroup of
    ``ring`` each; any other length is ShapeMismatch.  Multiplicativity is
    checked on generator products x*y, x a basis row of S_g and y one of
    S_h, which suffices by bilinearity: each nonzero product must lie in
    S_gh, and (g, h) must be composable.  The first failure in (g, h, x, y)
    order raises GradingViolation with the witness (x, y, x*y).
    """
    q = category.morphism_count
    comps = tuple(components)
    if len(comps) != q:
        raise ShapeMismatch(f"expected {q} components, got {len(comps)}")
    for sub in comps:
        if sub.ring is not ring:
            raise RingMismatch("component bound to a different ring")

    if direct_sum_defect(ring, comps) is not None:
        prod = math.prod(sub.order for sub in comps)
        raise NotDirectSum(f"component orders multiply to {prod}, ring order is {ring.order}")

    mul = ring._mul
    for g, row in enumerate(category.compose.rows):
        for h, gh in enumerate(row):
            target = comps[gh] if gh != UNDEFINED else None
            for x in comps[g].rows:
                for y in comps[h].rows:
                    p = mul(x, y)
                    if not any(p):
                        continue
                    if target is None:
                        message = f"non-composable pair ({g}, {h}) has nonzero product"
                        raise GradingViolation(g, h, (x, y, p), message=message)
                    if not target.contains(p):
                        raise GradingViolation(g, h, (x, y, p))
    return Grading(ring, category, comps)


# ---------------------------------------------------------------------------
# predicates


class ObjectUnitalResult(NamedTuple):
    object_unital: bool
    units: tuple[RingElement | None, ...]  # per object, None when absent
    witness: tuple | None


def object_unital_check(grading: Grading) -> ObjectUnitalResult:
    """Find the unit of every identity component and verify the one-sided
    unit laws against every homogeneous basis element; evaluated once per
    grading."""
    return grading.object_unital_result


def strongly_graded_check(grading: Grading) -> bool:
    """Equality, not just inclusion, of S_g S_h with S_{gh} on every
    composable pair; evaluated once per grading."""
    return grading.strongly_graded


def _local_units(grading: Grading) -> tuple[RingElement, ...]:
    """The units of an object unital grading; NotObjectUnital otherwise."""
    ou = object_unital_check(grading)
    if not ou.object_unital:
        raise NotObjectUnital(f"grading is not object unital: {ou.witness}")
    return ou.units


def homset_strongly_graded_report(grading: Grading) -> strength.StrongnessReport:
    """The three strength conditions over the hom-component table,
    evaluated once per grading.

    Hypotheses: the grading is object unital (NotObjectUnital otherwise) and
    its category is hom-set strong (CategoryNotHomSetStrong otherwise); a
    failed hypothesis raises on every call.  The corner law
    1_{S_a} S 1_{S_b} = S_{G(a,b)} is corner_identity_check's.
    """
    return grading.homset_report


def corner_identity_check(grading: Grading) -> tuple[bool, tuple | None]:
    """The law 1_{S_a} S 1_{S_b} = S_{G(a,b)} for every object pair, checked
    for any object unital grading (no hom-set strength hypothesis) by direct
    subgroup computation; a failure carries the pair and both subgroup orders.
    Evaluated once per grading."""
    return grading.corner_identity


def induced_idempotents(grading: Grading) -> IdempotentSet:
    """The local units, validated as a complete set of idempotents.

    For an object unital grading this validation must pass; it is proved
    mechanically once per grading, on first call, rather than assumed, and
    the set is held with the grading.  A failure is an InvariantViolation
    chained from the validator's error, NotObjectUnital when the grading has
    no local units; either raises on every call and holds nothing.
    """
    return grading.induced_set


class GradedFlags(NamedTuple):
    """Recomputable summary of a grading's standing."""

    object_unital: bool
    strongly_graded: bool
    homset_strongly_graded: bool | None  # None when hypotheses fail
    homset_report: strength.StrongnessReport | None
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
