"""Skew category algebras built from functors into unital rings.

A skew category system assigns a unital ring R_a to every object and a
unit-preserving ring isomorphism to every morphism g, acting from the ring
at dom(g) to the ring at cod(g), functorially.  The associated algebra has
basis pairs (g, basis element of R_{cod(g)}) and multiplication

    (r g) * (r' h) = r * map_g(r') * (g h)   when (g, h) is composable,
    0 otherwise.

The algebra is rebuilt through the validated ring constructor, so its
associativity is re-verified on every construction, and its canonical
grading (one free block per morphism) is revalidated as strongly graded and
object unital rather than assumed.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from . import howell
from .errors import (
    IdentityNotIdentity,
    InvariantViolation,
    ModulusMismatch,
    NotFunctorial,
    NotRingIso,
    NotUnital,
    RankTooLarge,
    ShapeMismatch,
)
from .finring import (
    MAX_RANK,
    FiniteRing,
    RingElement,
    _build_ring,
    find_identity,
)
from .graded import (
    Grading,
    attach_grading,
    corner_identity_check,
    homset_strongly_graded_report,
    object_unital_check,
    strongly_graded_check,
)
from .smallcat import UNDEFINED, SmallCategory, homset_strong_report


class SkewCategorySystem:
    __slots__ = ("category", "object_rings", "maps")

    def __init__(self, category: SmallCategory, object_rings: tuple[FiniteRing, ...],
                 maps: tuple[howell.Matrix, ...]):
        self.category, self.object_rings = category, object_rings
        self.maps = maps  # per morphism, residue rows; row-vector action x -> x @ M

    @property
    def modulus(self) -> int:
        return self.object_rings[0].modulus


def _as_tuple_by_index(data: Sequence, count: int, what: str) -> tuple:
    out = tuple(data)
    if len(out) != count:
        raise ShapeMismatch(f"expected {count} {what}, got {len(out)}")
    return out


def validate_system(
    category: SmallCategory,
    object_rings: Sequence[FiniteRing],
    morphism_maps: Sequence[Sequence],
) -> SkewCategorySystem:
    """Verify every system axiom exhaustively.

    ``object_rings`` is a sequence indexed by object and ``morphism_maps``
    one indexed by morphism, each map a sequence of integer rows; any other
    length is ShapeMismatch.  Each map must be an additive bijection (an
    invertible matrix over Z/m), multiplicative on basis pairs, and unit
    preserving; identity morphisms must carry identity maps and compositions
    must multiply contravariantly in the row-vector convention:
    map_{gh} = map_h @ map_g.  Each distinct
    (source ring, target ring, matrix) is checked once and each distinct
    composite formed once, so a constant system of q identity maps makes one
    map check; the first failing morphism or pair is the one reported.
    """
    rings = _as_tuple_by_index(object_rings, category.object_count, "object rings")
    m = rings[0].modulus
    for r in rings[1:]:
        if r.modulus != m:
            raise ModulusMismatch("object rings must share one modulus")
    # one unit solve per ring object (rings hash by identity); the first
    # object without one fails
    solved: dict[FiniteRing, RingElement | None] = {}
    for a, r in enumerate(rings):
        if r not in solved:
            solved[r] = find_identity(r)
        if solved[r] is None:
            raise NotUnital(a)

    raw_maps = _as_tuple_by_index(morphism_maps, category.morphism_count, "morphism maps")
    maps: list[howell.Matrix] = []
    # the (source ring, target ring, matrix) that passed
    checked: set[tuple[FiniteRing, FiniteRing, howell.Matrix]] = set()
    for g, raw in enumerate(raw_maps):
        src = rings[category.dom[g]]
        dst = rings[category.cod[g]]
        try:
            M = tuple(tuple([int(x) % m for x in row]) for row in raw)
        except TypeError:  # rows that are not sequences of integers
            M = None
        if M is None or len(M) != src.rank or any(len(row) != dst.rank for row in M):
            raise ShapeMismatch(f"map for morphism {g} must be {src.rank} x {dst.rank}")
        maps.append(M)
        if (src, dst, M) in checked:
            continue
        if src.rank != dst.rank or howell.howell_complete(M, m) != src._basis_rows:
            raise NotRingIso(g, "matrix is not invertible over the modulus")
        # multiplicative: image of a basis product equals the product of images
        n = dst.rank
        for (i, x), (j, y) in itertools.product(enumerate(src._basis_rows), repeat=2):
            if howell.combine(src._mul(x, y), M, m, n) != dst._mul(M[i], M[j]):
                raise NotRingIso(g, "map is not multiplicative", witness=(i, j))
        # units are solved per ring object, so the key fixes both
        if howell.combine(solved[src].coords, M, m, n) != solved[dst].coords:
            raise NotRingIso(g, "map does not preserve the unit")
        checked.add((src, dst, M))

    for a in range(category.object_count):
        if maps[category.identity[a]] != rings[a]._basis_rows:
            raise IdentityNotIdentity(a)

    # map_h then map_g, by the two matrices; its width is map_g's, the rank at cod(g)
    composites: dict[tuple[howell.Matrix, howell.Matrix], howell.Matrix] = {}
    for g, row in enumerate(category.compose.rows):
        map_g = maps[g]
        for h, gh in enumerate(row):
            if gh != UNDEFINED:
                pair = (maps[h], map_g)
                if pair not in composites:
                    n = len(map_g)
                    composites[pair] = tuple(howell.combine(r, map_g, m, n) for r in maps[h])
                if maps[gh] != composites[pair]:
                    raise NotFunctorial(g, h)

    return SkewCategorySystem(category, rings, tuple(maps))


class SkewAlgebra:
    """The algebra of a skew category system with its canonical grading.

    ``offsets[g]`` is the first flat basis index of morphism g's block; the
    unit of the block at object a is unit_elements[a] = 1_{R_a} placed in the
    identity morphism's block.
    """

    __slots__ = ("ring", "grading", "system", "offsets", "unit_elements")

    def __init__(self, ring: FiniteRing, grading: Grading, system: SkewCategorySystem,
                 offsets: tuple[int, ...], unit_elements: tuple[RingElement, ...]):
        self.ring, self.grading, self.system = ring, grading, system
        self.offsets, self.unit_elements = offsets, unit_elements

    @property
    def category(self) -> SmallCategory:
        return self.system.category


def algebra_rank(category: SmallCategory, rings: Sequence[FiniteRing]) -> int:
    """The rank of the skew algebra of ``rings`` over ``category``: the sum
    over morphisms g of the rank of the ring at cod(g).  Raises RankTooLarge
    above the cap _build_ring applies, so a caller can refuse the algebra
    before it reads or builds anything of that size."""
    total = sum(rings[b].rank for b in category.cod)
    if total > MAX_RANK:
        raise RankTooLarge(total, MAX_RANK)
    return total


def build_skew_algebra(system: SkewCategorySystem) -> SkewAlgebra:
    """Assemble structure constants from the defining relations and rebuild
    the algebra through the validated ring constructor.

    Basis order: morphisms in index order, then the codomain ring's basis
    order, so constants are reproducible byte for byte.
    """
    cat = system.category
    rings = system.object_rings
    m = system.modulus

    total = algebra_rank(cat, rings)  # refused before the total^3 table exists
    offsets = []
    at = 0
    labels: list[str] = []
    for g in range(cat.morphism_count):
        offsets.append(at)
        block = rings[cat.cod[g]]
        labels.extend(f"{lab}|m{g}" for lab in block.basis_labels)
        at += block.rank

    sc = [[[0] * total for _ in range(total)] for _ in range(total)]
    for g, row in enumerate(cat.compose.rows):
        rg = rings[cat.cod[g]]
        og = offsets[g]
        for h, gh in enumerate(row):
            if gh == UNDEFINED:
                continue
            oh = offsets[h]
            ogh = offsets[gh]
            # (b_t g)(b_u h) = b_t * map_g(b_u) * (gh); cod(gh) == cod(g), so
            # the product shares rg's basis
            for t, b in enumerate(rg._basis_rows):
                for u, image in enumerate(system.maps[g]):
                    sc[og + t][oh + u][ogh : ogh + rg.rank] = rg._mul(b, image)
    ring = _build_ring(m, total, sc, labels)

    components = []
    for g in range(cat.morphism_count):
        block = range(offsets[g], offsets[g] + rings[cat.cod[g]].rank)
        components.append(ring.span([ring._basis_rows[i] for i in block]))
    grading = attach_grading(ring, cat, components)

    # its local units are 1_{R_a} in the identity block of each object a
    ou = object_unital_check(grading)
    if not strongly_graded_check(grading) or not ou.object_unital:
        raise InvariantViolation(
            "canonical grading of a validated system failed its strength checks"
        )
    return SkewAlgebra(ring, grading, system, tuple(offsets), ou.units)


def build_category_algebra(T: FiniteRing, category: SmallCategory) -> SkewAlgebra:
    """The constant system over one unital ring with identity maps; a ring
    without a unit fails validation as NotUnital at object 0."""
    system = validate_system(
        category,
        [T] * category.object_count,
        [T._basis_rows] * category.morphism_count,
    )
    return build_skew_algebra(system)


# ---------------------------------------------------------------------------
# equivalence and chain-condition reports


class StrongEquivalenceRecord(NamedTuple):
    """Both sides of the strength biconditional, computed independently:
    whether the canonical idempotents form a strong set versus whether the
    category is hom-set strong, plus the graded-level report when both hold."""

    idempotents_strong: bool
    category_homset_strong: bool
    graded_report_ok: bool | None

    @property
    def agree(self) -> bool:
        return self.idempotents_strong == self.category_homset_strong


def strong_idempotent_equivalence_check(algebra: SkewAlgebra) -> StrongEquivalenceRecord:
    """The ring side from the Peirce table the grading holds for its induced
    set, the category side from the category's held report and, when both
    hold, the graded side from the grading's held hom-set report and corner
    identity: each evaluated once per grading or category."""
    ring_side = algebra.grading.induced_table.strong
    cat_side = homset_strong_report(algebra.category).strong
    graded_ok: bool | None = None
    if ring_side and cat_side:
        report = homset_strongly_graded_report(algebra.grading)
        graded_ok = report.strong and report.agree and corner_identity_check(algebra.grading)[0]
    return StrongEquivalenceRecord(ring_side, cat_side, graded_ok)
