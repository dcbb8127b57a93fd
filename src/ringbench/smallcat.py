"""Finite small categories with validated composition tables.

Morphisms are indices 0..q-1 with domain/codomain tuples into the object
range 0..p-1; composition is a read-only mapping from every pair (g, h) of
morphisms to its composite, or to UNDEFINED (-1).  It holds the validated
table as one row tuple per morphism, ``compose.rows[g][h]``, which readers
inside the package index directly; the mapping view over the q^2 pairs is
built from the rows on demand, never stored.
A pair (g, h) is composable exactly when dom(g) == cod(h), in which case the
composite is written g then-after h, i.e. the table entry at [g, h].

HOM-SET CONVENTION.  cat.hom_set(a, b) is the set of morphisms b -> a,
that is, arrows INTO a FROM b.  This is the reversed convention relative to
most software libraries, kept so that the set product
hom_set(a, b) * hom_set(b, c) consists of plain table composites.  A
dedicated regression test pins this orientation.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import NamedTuple

from . import strength
from .errors import (
    CategoryTooLarge,
    CompositionDomainMismatch,
    IdentityLawViolation,
    NotAMonoid,
    NotAssociative,
    ShapeMismatch,
)

UNDEFINED = -1
# Associativity visits at most q^3 composable triples, within 48^4, the bound
# finring.MAX_RANK sets for rings; the strength conditions make k^2 zero tests
# over the k <= q objects and visit at most 2kq object triples.
MAX_MORPHISMS = 174


class CompositionTable(Mapping):
    """Read-only mapping from every pair (g, h) of morphisms, in g-major
    order, to its composite or UNDEFINED; ``rows[g][h]`` is the same entry.
    A pair outside 0..q-1, negative entries included, is a KeyError."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def __getitem__(self, pair) -> int:
        try:
            g, h = pair
            if g >= 0 and h >= 0:
                return self.rows[g][h]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(pair)

    def __len__(self) -> int:
        return len(self.rows) ** 2

    def __iter__(self):
        q = len(self.rows)
        return ((g, h) for g in range(q) for h in range(q))


class SmallCategory:
    __slots__ = ("object_count", "dom", "cod", "identity", "compose", "_homset_report")

    def __init__(self, object_count: int, dom: tuple[int, ...], cod: tuple[int, ...],
                 identity: tuple[int, ...], compose: CompositionTable):
        self.object_count, self.dom, self.cod = object_count, dom, cod
        self.identity = identity
        self.compose = compose  # all q^2 pairs; UNDEFINED when not composable
        self._homset_report = None  # filled by homset_strong_report on first use

    @property
    def morphism_count(self) -> int:
        return len(self.dom)

    def hom_set(self, a: int, b: int) -> tuple[int, ...]:
        """Morphisms b -> a (arrows into a from b); see the module note."""
        if not (0 <= a < self.object_count and 0 <= b < self.object_count):
            raise ShapeMismatch(f"object index out of range: ({a}, {b})")
        return tuple(
            g
            for g in range(self.morphism_count)
            if self.cod[g] == a and self.dom[g] == b
        )

    def __repr__(self) -> str:
        return f"SmallCategory({self.object_count} objects, {self.morphism_count} morphisms)"


def make_category(object_count, dom, cod, identity, compose) -> SmallCategory:
    """Validate all category axioms exhaustively and build the category.

    Checks, in order: index ranges and shapes, identity endpoints, table
    definedness against dom/cod, composite endpoints, identity laws, and
    associativity on every defined triple.
    """
    p = int(object_count)
    dom = tuple(int(x) for x in dom)
    cod = tuple(int(x) for x in cod)
    identity = tuple(int(x) for x in identity)
    q = len(dom)
    if q > MAX_MORPHISMS:
        raise CategoryTooLarge(q, MAX_MORPHISMS)
    if p < 1:
        raise ShapeMismatch("a category needs at least one object")
    if len(cod) != q:
        raise ShapeMismatch("dom and cod must have one entry per morphism")
    if len(identity) != p:
        raise ShapeMismatch("identity assignment must have one entry per object")
    if any(not 0 <= x < p for x in dom + cod):
        raise ShapeMismatch("dom/cod entry out of object range")
    if any(not 0 <= x < q for x in identity):
        raise ShapeMismatch("identity entry out of morphism range")
    table = tuple(tuple(int(x) for x in row) for row in compose)
    if len(table) != q or any(len(row) != q for row in table):
        raise ShapeMismatch(f"composition table must be {q} x {q}")
    if any(not UNDEFINED <= x < q for row in table for x in row):
        raise ShapeMismatch("composition entry out of morphism range")

    for a in range(p):
        e = identity[a]
        if dom[e] != a or cod[e] != a:
            raise IdentityLawViolation(
                f"identity morphism of object {a} is not an endomorphism of {a}"
            )

    # every overdefined pair is reported before any underdefined one
    for kind, defined in (("overdefined", True), ("underdefined", False)):
        for g, row in enumerate(table):
            for h, gh in enumerate(row):
                if (gh != UNDEFINED) is defined and (dom[g] == cod[h]) is not defined:
                    raise CompositionDomainMismatch(g, h, kind)
    # the composable pairs (g, h), with their composites, by g
    after = [[(h, gh) for h, gh in enumerate(row) if gh != UNDEFINED] for row in table]
    for g, pairs in enumerate(after):
        for h, gh in pairs:
            if dom[gh] != dom[h] or cod[gh] != cod[g]:
                raise CompositionDomainMismatch(g, h, "endpoints")

    for a in range(p):
        e = identity[a]
        for h in range(q):
            if cod[h] == a and table[e][h] != h:
                raise IdentityLawViolation(
                    f"identity of object {a} fails the left law on morphism {h}"
                )
            if dom[h] == a and table[h][e] != h:
                raise IdentityLawViolation(
                    f"identity of object {a} fails the right law on morphism {h}"
                )

    # (g h) k against g (h k) where both inner pairs are composable; the
    # outer pairs are then composable automatically
    for g, pairs in enumerate(after):
        row_g = table[g]
        for h, gh in pairs:
            row_gh = table[gh]
            for k, hk in after[h]:
                if row_gh[k] != row_g[hk]:
                    raise NotAssociative((g, h, k))

    return SmallCategory(p, dom, cod, identity, CompositionTable(table))


# ---------------------------------------------------------------------------
# groupoid and hom-set checks


class GroupoidCheck(NamedTuple):
    is_groupoid: bool
    inverses: tuple[int, ...] | None
    witness: int | None  # a morphism with no two-sided inverse


def is_groupoid(cat: SmallCategory) -> GroupoidCheck:
    """Every morphism must have a two-sided inverse against the identities
    at its endpoints; returns the inverse table when they all do."""
    rows = cat.compose.rows
    inv = []
    for g in range(cat.morphism_count):
        target_l = cat.identity[cat.cod[g]]
        target_r = cat.identity[cat.dom[g]]
        found = None
        for h in range(cat.morphism_count):
            if (
                cat.dom[h] == cat.cod[g]
                and cat.cod[h] == cat.dom[g]
                and rows[g][h] == target_l
                and rows[h][g] == target_r
            ):
                found = h
                break
        if found is None:
            return GroupoidCheck(False, None, g)
        inv.append(found)
    return GroupoidCheck(True, tuple(inv), None)


def _hom_table(cat: SmallCategory) -> list[list[frozenset[int]]]:
    p = cat.object_count
    table = [[set() for _ in range(p)] for _ in range(p)]
    for g in range(cat.morphism_count):
        table[cat.cod[g]][cat.dom[g]].add(g)
    return [[frozenset(s) for s in row] for row in table]


def _set_product(cat: SmallCategory, A: frozenset[int], B: frozenset[int]) -> frozenset[int]:
    rows = cat.compose.rows
    return frozenset(rows[g][h] for g in A for h in B)


def homset_strong_report(cat: SmallCategory) -> strength.StrongnessReport:
    """The three hom-set strength conditions, with smallest lexicographic
    object witnesses on failure; evaluated once per category on first use
    and then read from the category."""
    if cat._homset_report is None:
        cat._homset_report = strength.report(strength.ComponentTable(
            _hom_table(cat),
            is_zero=lambda hs: not hs,
            product=lambda A, B: _set_product(cat, A, B),
            holds_unit=lambda composites, x: cat.identity[x] in composites,
            third_zero="third hom-set is empty",
            product_misses="composite set misses morphisms",
            opposed_zero="opposed hom-set is empty",
            diagonal_missed="endo set not recovered",
            unit_missed="identity not reached",
        ))
    return cat._homset_report


# ---------------------------------------------------------------------------
# the monoid-times-square construction


def _check_monoid(table) -> int:
    """Validate an associative table with two-sided identity; returns the
    identity index."""
    k = len(table)
    if any(len(row) != k or not all(0 <= x < k for x in row) for row in table):
        raise NotAMonoid("table is not a square table over its own index range")
    for i, j, l in itertools.product(range(k), repeat=3):
        if table[table[i][j]][l] != table[i][table[j][l]]:
            raise NotAMonoid(f"table is not associative at triple ({i}, {j}, {l})")
    for e in range(k):
        if all(table[e][x] == x == table[x][e] for x in range(k)):
            return e
    raise NotAMonoid("table has no two-sided identity")


def build_MX(monoid_table, set_size: int) -> SmallCategory:
    """Category with objects 0..s-1 and morphisms all triples (m, x, y),
    read as arrows y -> x, composing by (m, x, y)(n, y, z) = (m n, x, z).

    Hom-set strong for every monoid input; a groupoid exactly when the
    monoid table is a group table.
    """
    try:
        table = [[int(x) for x in row] for row in monoid_table]
    except TypeError:
        raise NotAMonoid("table must be two-dimensional") from None
    # both bounds before the k^3 associativity scan
    s = int(set_size)
    if s < 1:
        raise ShapeMismatch("set size must be >= 1")
    k = len(table)
    if k * s * s > MAX_MORPHISMS:
        raise CategoryTooLarge(k * s * s, MAX_MORPHISMS)
    e = _check_monoid(table)

    triples = [(m, x, y) for m in range(k) for x in range(s) for y in range(s)]
    index = {t: i for i, t in enumerate(triples)}
    dom = [y for (_, _, y) in triples]
    cod = [x for (_, x, _) in triples]
    identity = [index[(e, x, x)] for x in range(s)]
    compose = [
        [index[(table[m][n], x, z)] if y == y2 else UNDEFINED for (n, y2, z) in triples]
        for (m, x, y) in triples
    ]
    return make_category(s, dom, cod, identity, compose)


# ---------------------------------------------------------------------------
# finiteness bookkeeping


class FinitenessReport(NamedTuple):
    """Both sides of the finiteness criterion, as data: total morphism and
    object counts against the per-object endomorphism monoid sizes.  When the
    category is hom-set strong, every nonempty hom-set injects into the endo
    monoid at its codomain; bound_satisfied records that check (None when the
    category is not hom-set strong and the bound is not asserted)."""

    morphism_count: int
    object_count: int
    endo_sizes: tuple[int, ...]
    homset_strong: bool
    bound_satisfied: bool | None


def finiteness_report(cat: SmallCategory) -> FinitenessReport:
    hs = _hom_table(cat)
    endo_sizes = tuple(len(hs[a][a]) for a in range(cat.object_count))
    strong = homset_strong_report(cat).strong
    bound: bool | None = None
    if strong:
        bound = True
        for c in range(cat.object_count):
            for d in range(cat.object_count):
                if hs[c][d] and len(hs[c][d]) > len(hs[c][c]):
                    bound = False
    return FinitenessReport(
        cat.morphism_count, cat.object_count, endo_sizes, strong, bound
    )
