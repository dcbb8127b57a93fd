"""Finite small categories with validated composition tables.

Morphisms are indices 0..q-1 with domain/codomain tuples into the object
range 0..p-1; composition is a read-only mapping from every pair (g, h) of
morphisms to its composite, or to UNDEFINED (-1).  It holds the validated
table as one row tuple per morphism, ``compose.rows[g][h]``, which readers
inside the package index directly; the mapping view over the q^2 pairs is
built from the rows on demand, never stored.
A pair (g, h) is composable exactly when dom(g) == cod(h), in which case the
composite is written g then-after h, i.e. the table entry at [g, h].
make_category decides associativity by Light's test (Clifford-Preston, The
Algebraic Theory of Semigroups I, 1.2), over a set of middles that with the
identities generates every morphism.

HOM-SET CONVENTION.  cat.hom_set(a, b) is the set of morphisms b -> a,
that is, arrows INTO a FROM b.  This is the reversed convention relative to
most software libraries, kept so that the set product
hom_set(a, b) * hom_set(b, c) consists of plain table composites.  A
dedicated regression test pins this orientation.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import itemgetter
from typing import NamedTuple, NoReturn

from . import strength
from .errors import (
    CategoryTooLarge,
    CompositionDomainMismatch,
    IdentityLawViolation,
    InvariantViolation,
    NotAMonoid,
    NotAssociative,
    ShapeMismatch,
)

UNDEFINED = -1
# Light's test visits at most q^3 composable triples, all of them only when
# every non-identity morphism is a chosen middle (the left-zero monoid of
# order q), within 48^4, the bound finring.MAX_RANK sets for rings; the
# strength conditions make k^2 zero tests over the k <= q objects and visit
# at most 2kq object triples.
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
    """Validate all category axioms and build the category.

    Checks, in order: index ranges and shapes, identity endpoints, table
    definedness against dom/cod, composite endpoints, identity laws, and
    associativity.  Definedness and endpoints read each row's composable
    pairs, the identity laws read the composable pairs only, and a failing
    check then scans its pairs in order, to name the first witness.

    Associativity is decided exactly by Light's test: it is checked as
    (x a) y == x (a y) only for the middles a that _light_middles chooses.
    The middles that pass contain the identities (by the identity laws) and
    are closed under composition (if a and b pass, so does a b), so when the
    chosen ones pass, every morphism passes.  When one fails, every triple
    is scanned in order, so NotAssociative names the first failing (g, h, k).
    """
    p = int(object_count)
    dom = tuple(map(int, dom))
    cod = tuple(map(int, cod))
    identity = tuple(map(int, identity))
    q = len(dom)
    if q > MAX_MORPHISMS:
        raise CategoryTooLarge(q, MAX_MORPHISMS)
    if p < 1:
        raise ShapeMismatch("a category needs at least one object")
    if len(cod) != q:
        raise ShapeMismatch("dom and cod must have one entry per morphism")
    if len(identity) != p:
        raise ShapeMismatch("identity assignment must have one entry per object")
    if dom and not (0 <= min(dom + cod) and max(dom + cod) < p):
        raise ShapeMismatch("dom/cod entry out of object range")
    # p >= 1 identities, so from here on q >= 1
    if not (0 <= min(identity) and max(identity) < q):
        raise ShapeMismatch("identity entry out of morphism range")
    table = tuple(tuple(map(int, row)) for row in compose)
    if len(table) != q or any(len(row) != q for row in table):
        raise ShapeMismatch(f"composition table must be {q} x {q}")
    into, out_of = _ends(p, dom, cod)
    # row g must define exactly the h that compose with it, into[dom(g)]:
    # when all those entries are morphisms and the table holds as many
    # UNDEFINED entries as there are other pairs, those are all UNDEFINED,
    # and every entry is in range
    composites = [[row[h] for h in into[dom[g]]] for g, row in enumerate(table)]
    defined = list(itertools.chain.from_iterable(composites))
    exact = (
        0 <= min(defined, default=0) and max(defined, default=0) < q
        and sum(map(tuple.count, table, itertools.repeat(UNDEFINED))) == q * q - len(defined)
    )
    if not exact and not (UNDEFINED <= min(map(min, table)) and max(map(max, table)) < q):
        raise ShapeMismatch("composition entry out of morphism range")

    for a in range(p):
        e = identity[a]
        if dom[e] != a or cod[e] != a:
            raise IdentityLawViolation(
                f"identity morphism of object {a} is not an endomorphism of {a}"
            )

    if not exact:
        # every overdefined pair is reported before any underdefined one
        for kind, defined in (("overdefined", True), ("underdefined", False)):
            for g, row in enumerate(table):
                for h, gh in enumerate(row):
                    if (gh != UNDEFINED) is defined and (dom[g] == cod[h]) is not defined:
                        raise CompositionDomainMismatch(g, h, kind)
    # a morphism's endpoints as one int; g h must have those of (dom h, cod g)
    ends = [d + p * c for d, c in zip(dom, cod)]
    wanted: dict[int, list[int]] = {}  # by the endpoints of g
    for g, ghs in enumerate(composites):
        want = wanted.get(ends[g])
        if want is None:
            want = wanted[ends[g]] = [dom[h] + p * cod[g] for h in into[dom[g]]]
        if [ends[gh] for gh in ghs] != want:
            for h, gh in zip(into[dom[g]], ghs):
                if dom[gh] != dom[h] or cod[gh] != cod[g]:
                    raise CompositionDomainMismatch(g, h, "endpoints")

    for a in range(p):
        e = identity[a]
        row_e = table[e]
        if [row_e[h] for h in into[a]] == into[a] and [table[h][e] for h in out_of[a]] == out_of[a]:
            continue
        for h in range(q):  # name the first failure for this object
            if cod[h] == a and row_e[h] != h:
                raise IdentityLawViolation(
                    f"identity of object {a} fails the left law on morphism {h}"
                )
            if dom[h] == a and table[h][e] != h:
                raise IdentityLawViolation(
                    f"identity of object {a} fails the right law on morphism {h}"
                )

    for a in _light_middles(table, dom, cod, identity, out_of):
        # (x a) y against x (a y) for every y into dom(a), every x out of cod(a)
        ys = into[dom[a]]
        row_a = table[a]
        at_y, at_ay = itemgetter(*ys), itemgetter(*[row_a[y] for y in ys])
        for x in out_of[cod[a]]:
            row_x = table[x]
            if at_y(table[row_x[a]]) != at_ay(row_x):
                _raise_first_non_associative(table, into, dom, composites)

    return SmallCategory(p, dom, cod, identity, CompositionTable(table))


def _ends(p: int, dom, cod) -> tuple[list[list[int]], list[list[int]]]:
    """By object a, in index order: the morphisms into a (cod == a) and the
    morphisms out of a (dom == a)."""
    into = [[] for _ in range(p)]
    out_of = [[] for _ in range(p)]
    for h, (d, c) in enumerate(zip(dom, cod)):
        into[c].append(h)
        out_of[d].append(h)
    return into, out_of


def _light_middles(table, dom, cod, identity, out_of) -> list[int]:
    """The middles Light's test checks, for a table whose definedness,
    endpoints and identity laws hold (``out_of`` as _ends gives it): each
    morphism, in index order, that is not yet reached from the identities by
    composites of reached morphisms with the middles chosen before it.  The
    identities and these middles generate every morphism under composition,
    since every morphism is reached or chosen."""
    q = len(dom)
    reached = [False] * q
    for e in identity:
        reached[e] = True
    chosen: list[int] = []
    for g in range(q):
        if reached[g]:
            continue
        chosen.append(g)
        reached[g] = True
        # r g for every r reached so far; then each new morphism times every
        # chosen middle, until no composite is new
        fresh = [g]
        for r in out_of[cod[g]]:
            rg = table[r][g]
            if reached[r] and not reached[rg]:
                reached[rg] = True
                fresh.append(rg)
        for n in fresh:  # grows while it is walked
            row_n = table[n]
            for c in chosen:
                if cod[c] == dom[n] and not reached[nc := row_n[c]]:
                    reached[nc] = True
                    fresh.append(nc)
    return chosen


def _raise_first_non_associative(table, into, dom, composites) -> NoReturn:
    """Scan every composable triple (g, h, k) in order for the first with
    (g h) k != g (h k); the outer pairs compose since the endpoints hold."""
    after = [list(zip(into[dom[g]], ghs)) for g, ghs in enumerate(composites)]
    for g, pairs in enumerate(after):
        row_g = table[g]
        for h, gh in pairs:
            row_gh = table[gh]
            for k, hk in after[h]:
                if row_gh[k] != row_g[hk]:
                    raise NotAssociative((g, h, k))
    raise InvariantViolation("a chosen middle failed Light's test, but no triple fails")


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
    dom, cod, identity = cat.dom, cat.cod, cat.identity
    hs = _hom_table(cat)
    inv = []
    for g in range(cat.morphism_count):
        target_l, target_r = identity[cod[g]], identity[dom[g]]
        row_g = rows[g]
        # an inverse of g lies in the opposite hom-set, and is unique
        for h in hs[dom[g]][cod[g]]:
            if row_g[h] == target_l and rows[h][g] == target_r:
                inv.append(h)
                break
        else:
            return GroupoidCheck(False, None, g)
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

    # (m, x, y) is morphism m s^2 + x s + y, so (m, x, y)(n, y, z) is
    # (m n) s^2 + x s + z, and row (m, x, y) is defined at the (n, y, z) only
    ss = s * s
    q = k * ss
    dom = [i % s for i in range(q)]
    cod = [i // s % s for i in range(q)]
    identity = [e * ss + x * s + x for x in range(s)]
    compose = []
    for m in range(k):
        for x in range(s):
            for y in range(s):
                row = [UNDEFINED] * q
                for n, mn in enumerate(table[m]):
                    at, to = n * ss + y * s, mn * ss + x * s
                    row[at:at + s] = range(to, to + s)
                compose.append(row)
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
