"""Deterministic generation of valid instances and targeted invalid mutants.

Random rings are never rejection-sampled from raw structure constants
(associativity is vanishingly rare); every ring instance comes from a
constructive recipe: matrix-unit rings, monoid and category algebras, skew
algebras and direct products.  Random categories come from thin preorder
categories, the monoid-times-square construction, one-object monoids, and
disjoint unions.  Every category the corpus builds, fixed or random, is
drawn as a recipe: plain data that one builder turns into a validated
category, with its hom-set report, once per process.  The cyclic, symmetric
and transformation monoid tables each come from one operation table on a
list of elements.

Everything is a pure function of the seed: seeds are mixed through
SHA-256, and every draw is the corpus's own, an exact copy of CPython's
algorithm over the seeded generator's ``getrandbits``.  Python promises a
stable sequence only from its generator, not from ``randint``, ``choice``,
``sample`` or ``shuffle``, so suites reproduce bit for bit across platforms,
runs and Python versions.

The invalid mutants are a fixed table, mutation_matrix: one case per
validator error, each perturbation written out as data on a valid base
instance, so no validator chooses the mutants it is then tested on.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Any, Callable, Iterable, NamedTuple

from . import finring as fr
from . import graded as gr
from . import idempotents as idem
from . import skewalg as sk
from . import smallcat as cat
from .errors import (
    CompositionDomainMismatch,
    GradingViolation,
    IdentityLawViolation,
    IdentityNotIdentity,
    InvariantViolation,
    ModulusTooSmall,
    NotAssociative,
    NotComplete,
    NotDirectSum,
    NotFunctorial,
    NotIdempotent,
    NotOrthogonal,
    NotRingIso,
    ParameterOutOfRange,
    ShapeMismatch,
    UnknownSuite,
    ZeroIdempotent,
    sha256,
)

DEFAULT_SUITE_SEED = 1729
MAX_RING_ORDER = 4096


def _mix(*parts) -> int:
    digest = sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# a seeded generator's getrandbits: k -> a draw from range(2 ** k)
_Bits = Callable[[int], int]


def _rng(*parts) -> _Bits:
    """The ``getrandbits`` of a generator seeded by the parts, which the
    draws below read."""
    return random.Random(_mix(*parts)).getrandbits


# The draws, each an exact copy of CPython's own (Lib/random.py, 3.10 to 3.13)
# over getrandbits, so they consume the same bits and return the same values;
# tests/test_draws.py compares each with the interpreter's.


def _below(bits: _Bits, n: int) -> int:
    """A draw from range(n), n > 0: ``_randbelow_with_getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _randint(bits: _Bits, a: int, b: int) -> int:
    """``randint(a, b)``."""
    return a + _below(bits, b - a + 1)


def _choice(bits: _Bits, seq):
    """``choice(seq)`` on a non-empty sequence."""
    return seq[_below(bits, len(seq))]


def _sample(bits: _Bits, population, k: int) -> list:
    """``sample(population, k)`` by CPython's pool branch, the one it takes
    for every population of at most 21; a larger one is refused."""
    n = len(population)
    if not 0 <= k <= n <= 21:
        raise InvariantViolation(f"sample of {k} from {n} is outside the pool branch")
    pool = list(population)
    result = []
    for i in range(k):
        j = _below(bits, n - i)
        result.append(pool[j])
        pool[j] = pool[n - i - 1]
    return result


def _shuffled(bits: _Bits, n: int) -> list[int]:
    """``range(n)`` as ``shuffle`` leaves it: Fisher-Yates from the top, with
    ``_below`` written in line."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        order[i], order[j] = order[j], order[i]
    return order


# ---------------------------------------------------------------------------
# monoid and group tables


def _op_table(elements, op) -> tuple[tuple[int, ...], ...]:
    """The operation table of ``op`` on ``elements``: entry [i][j] is the
    index of op(elements[i], elements[j])."""
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[op(x, y)] for y in elements) for x in elements)


def _cyclic(n: int):
    return _op_table(range(n), lambda a, b: (a + b) % n)


def _after(f, g):
    """The map f after the map g, each a tuple of images."""
    return tuple(f[x] for x in g)


MONOID_TABLES: dict[str, tuple[tuple[int, ...], ...]] = {
    "c1": _cyclic(1),
    "c2": _cyclic(2),
    "c3": _cyclic(3),
    "c4": _cyclic(4),
    "c5": _cyclic(5),
    "c6": _cyclic(6),
    "v4": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    "s3": _op_table(sorted(itertools.permutations(range(3))), _after),
    # {0, 1} under multiplication; identity is index 1
    "bool2": ((0, 0), (0, 1)),
    # all maps {0,1} -> {0,1}: id, swap, const0, const1
    "transf2": _op_table(((0, 1), (1, 0), (0, 0), (1, 1)), _after),
    # identity plus two left zeros
    "leftzero3": ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
}

GROUP_NAMES = frozenset({"c1", "c2", "c3", "c4", "c5", "c6", "v4", "s3"})

# the names the recipes choose from, in the order they index
_MONOIDS = tuple(sorted(MONOID_TABLES))
_GROUPS = tuple(sorted(GROUP_NAMES))


# ---------------------------------------------------------------------------
# ring builders


def _matrix_unit_ring(m: int, pairs: list[tuple[int, int]]) -> fr.FiniteRing:
    """The matrices over Z/m spanned by the matrix units E_ab, (a, b) in
    ``pairs``, on that basis; E_ab E_bd = E_ad must be among them."""
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                sc[i][j][index[a, d]] = 1
    return fr.make_ring(m, n, sc, [f"E{a + 1}{b + 1}" for a, b in pairs])


def matrix_units_ring(m: int, size: int) -> fr.FiniteRing:
    """The ring of size x size matrices over Z/m on the matrix-unit basis."""
    pairs = [(a, b) for a in range(size) for b in range(size)]
    if m ** len(pairs) > MAX_RING_ORDER:
        raise ParameterOutOfRange(f"matrix ring order {m}^{len(pairs)} exceeds {MAX_RING_ORDER}")
    return _matrix_unit_ring(m, pairs)


def cyclic_ring(m: int) -> fr.FiniteRing:
    """Z/m as a rank-1 ring."""
    return fr.make_ring(m, 1, [[[1]]], ["1"])


def zero_multiplication_ring(m: int, rank: int = 1) -> fr.FiniteRing:
    return fr.make_ring(m, rank, [[[0] * rank] * rank] * rank)


def upper_triangular_ring(m: int, size: int = 2) -> fr.FiniteRing:
    """Upper triangular size x size matrices over Z/m on matrix units."""
    return _matrix_unit_ring(m, [(a, b) for a in range(size) for b in range(size) if a <= b])


def field4() -> fr.FiniteRing:
    """The field with four elements on the basis {1, x}, x^2 = x + 1."""
    return fr.make_ring(2, 2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], ["1", "x"])


# ---------------------------------------------------------------------------
# category builders
#
# A recipe is plain data: ("mx", monoid name, s), ("thin", objects, closed
# relation) or ("union", part recipes).  Every category the corpus builds
# comes from _category: each distinct recipe is built, validated and has its
# hom-set report evaluated once per process.  The public builders below build
# afresh on every call.


def one_object_monoid_category(name: str) -> cat.SmallCategory:
    return cat.build_MX(MONOID_TABLES[name], 1)


def _closure(object_count: int, pairs: Iterable) -> tuple[tuple[int, int], ...]:
    """The reflexive-transitive closure of the relation, sorted; a closed
    relation is its own closure.  Warshall's algorithm: once every a that
    reaches k takes in what k reaches, paths through k are closed."""
    reach: dict = {a: {a} for a in range(object_count)}
    for a, b in pairs:
        reach.setdefault(a, set()).add(b)
    for k in reach:
        for a in reach:
            if k in reach[a]:
                reach[a] |= reach[k]
    return tuple(sorted((a, b) for a, bs in reach.items() for b in bs))


def thin_category_from_relation(object_count: int, pairs: Iterable) -> cat.SmallCategory:
    """Thin category of a preorder: one arrow a -> b per related pair after
    reflexive-transitive closure."""
    arrows = _closure(object_count, pairs)
    index = {ab: i for i, ab in enumerate(arrows)}
    dom = [a for (a, b) in arrows]
    cod = [b for (a, b) in arrows]
    identity = [index[(a, a)] for a in range(object_count)]
    table = [
        [index[(hd, gc)] if gd == hc else cat.UNDEFINED for (hd, hc) in arrows]
        for (gd, gc) in arrows
    ]
    return cat.make_category(object_count, dom, cod, identity, table)


def disjoint_union(categories: list[cat.SmallCategory]) -> cat.SmallCategory:
    """The union of the categories in their order."""
    obj_offset = 0
    mor_offset = 0
    dom: list[int] = []
    codl: list[int] = []
    identity: list[int] = []
    total_m = sum(c.morphism_count for c in categories)
    table: list[list[int]] = []
    for c in categories:
        dom.extend(d + obj_offset for d in c.dom)
        codl.extend(d + obj_offset for d in c.cod)
        identity.extend(e + mor_offset for e in c.identity)
        # each part's rows, shifted, between the undefined columns of the
        # other parts
        before = [cat.UNDEFINED] * mor_offset
        after = [cat.UNDEFINED] * (total_m - mor_offset - c.morphism_count)
        for row in c.compose.rows:
            table.append(
                before + [gh + mor_offset if gh != cat.UNDEFINED else gh for gh in row] + after
            )
        obj_offset += c.object_count
        mor_offset += c.morphism_count
    return cat.make_category(obj_offset, dom, codl, identity, table)


def _build(recipe: tuple) -> cat.SmallCategory:
    """The category of ``recipe``, built, validated and its hom-set report
    evaluated once per process, held in ``_held["category recipes"]``; a
    union's parts are built here too."""
    memo = _held.setdefault("category recipes", {})
    if recipe not in memo:
        kind, *args = recipe
        if kind == "mx":
            c = cat.build_MX(MONOID_TABLES[args[0]], args[1])
        elif kind == "thin":
            c = thin_category_from_relation(*args)
        else:
            c = disjoint_union([_build(part) for part in args[0]])
        cat.homset_strong_report(c)  # held on c from here on
        memo[recipe] = c
    return memo[recipe]


def _category(recipe: tuple) -> cat.SmallCategory:
    """A new SmallCategory over the fields and the hom-set report of the
    one build of ``recipe``.  Callers may key on the category object, as
    perfbench's CLI input writer does, so each call returns its own."""
    c = _build(recipe)
    view = cat.SmallCategory(c.object_count, c.dom, c.cod, c.identity, c.compose)
    view._homset_report = c._homset_report
    return view


def _thin(object_count: int, pairs: Iterable) -> tuple:
    """The recipe of the thin category of the relation's closure."""
    return ("thin", object_count, _closure(object_count, pairs))


def _thin_recipe(seed: int, max_objects: int = 4) -> tuple:
    bits = _rng("thin", seed)
    p = _randint(bits, 1, max_objects)
    candidates = [(a, b) for a in range(p) for b in range(p) if a != b]
    k = _randint(bits, 0, min(len(candidates), p * 2))
    return _thin(p, _sample(bits, candidates, k))


def _groupoid_recipe(seed: int) -> tuple:
    """A disjoint union of monoid-times-square groupoids over random groups."""
    bits = _rng("groupoid", seed)
    parts = []
    for _ in range(_randint(bits, 1, 2)):
        name = _choice(bits, _GROUPS)
        parts.append(("mx", name, _randint(bits, 1, 2 if len(MONOID_TABLES[name]) > 3 else 3)))
    return ("union", tuple(parts)) if len(parts) > 1 else parts[0]


def _category_recipe(seed: int) -> tuple:
    """A thin, monoid-times-square or one-object monoid category, or the
    union of a thin category on at most 2 objects with a monoid-times-square
    category on at most 2 objects and 8 morphisms."""
    bits = _rng("category", seed)
    style = _choice(bits, ("thin", "mx", "monoid", "union"))
    if style == "thin":
        return _thin_recipe(_mix("inner", seed))
    if style == "mx":
        name = _choice(bits, _MONOIDS)
        s_max = max(1, int((20 // len(MONOID_TABLES[name])) ** 0.5))
        return ("mx", name, _randint(bits, 1, min(3, s_max)))
    if style == "monoid":
        return ("mx", _choice(bits, _MONOIDS), 1)
    left = _thin_recipe(_mix("l", seed), max_objects=2)
    return ("union", (left, ("mx", _choice(bits, ("c1", "c2", "bool2")), _randint(bits, 1, 2))))


# ---------------------------------------------------------------------------
# named skew algebras


# maps of rank-2 object rings, as row-vector actions
EYE2 = ((1, 0), (0, 1))
SWAP = ((0, 1), (1, 0))
FROBENIUS = ((1, 0), (1, 1))  # on F4 = {1, x}: 1 -> 1, x -> x^2 = 1 + x


def _z3z3() -> fr.FiniteRing:
    return fr.direct_product([cyclic_ring(3)] * 2)


# each named system: its category's recipe, the builder of the one ring every
# object reads, and the map of each morphism
_NAMED_SYSTEMS: dict[str, tuple[tuple, Callable[[], fr.FiniteRing], tuple]] = {
    "c2_swap_z3z3": (("mx", "c2", 1), _z3z3, (EYE2, SWAP)),
    "c2_frobenius_f4": (("mx", "c2", 1), field4, (EYE2, FROBENIUS)),
    # cross arrows carry the Frobenius, endo arrows the identity
    "pair_groupoid_frobenius_f4": (("mx", "c1", 2), field4, (EYE2, FROBENIUS, FROBENIUS, EYE2)),
    "c4_swap_z3z3": (("mx", "c4", 1), _z3z3, (EYE2, SWAP, EYE2, SWAP)),
}


def _named_skew_algebra(name: str) -> sk.SkewAlgebra:
    if name not in _NAMED_SYSTEMS:
        raise ParameterOutOfRange(f"unknown named system {name!r}")
    recipe, ring, maps = _NAMED_SYSTEMS[name]
    c = _category(recipe)
    return sk.build_skew_algebra(sk.validate_system(c, [ring()] * c.object_count, maps))


# ---------------------------------------------------------------------------
# suite instances


class RingWithIdempotents:
    __slots__ = ("name", "ring", "idempotents", "expect_strong", "_units")

    def __init__(self, name: str, ring: fr.FiniteRing, idempotents: tuple[fr.RingElement, ...],
                 expect_strong: bool | None = None):
        self.name, self.ring, self.idempotents = name, ring, idempotents
        self.expect_strong = expect_strong
        self._units: _Units | None = None  # set by _Units.instance or on first read

    @property
    def table(self) -> idem.PeirceTable:
        """The Peirce table of the validated set, the one its ring's _Units
        holds for the same ordered set, so each driver that reads it shares
        one validation and the table's one strength report.  A set that
        fails validation raises on every read and leaves no table.  An
        instance built by hand gets a _Units of its ring on first read."""
        if self._units is None:
            self._units = _Units(self.ring)
        return self._units.table(self.idempotents)


class CategoryInstance:
    __slots__ = ("name", "category")

    def __init__(self, name: str, category: cat.SmallCategory):
        self.name, self.category = name, category


class SkewInstance:
    __slots__ = ("name", "algebra")

    def __init__(self, name: str, algebra: sk.SkewAlgebra):
        self.name, self.algebra = name, algebra


class MXInstance:
    __slots__ = ("name", "monoid", "set_size", "category", "monoid_is_group")

    def __init__(self, name: str, monoid: str, set_size: int, category: cat.SmallCategory,
                 monoid_is_group: bool):
        self.name, self.monoid, self.set_size = name, monoid, set_size
        self.category, self.monoid_is_group = category, monoid_is_group


class GradingInstance:
    __slots__ = ("name", "grading")

    def __init__(self, name: str, grading: gr.Grading):
        self.name, self.grading = name, grading


class _Units:
    """The unit of one ring, its element vectors, the inverse found for each
    element tried so far (None for a non-unit) and the Peirce table of each
    set of the ring validated so far, by its ordered idempotent coordinates:
    made with the ring, the only holder of what is computed on it, and shared
    by every instance built through ``instance`` (the base instances of the
    ring and every conjugate variant at every seed), so the unit is solved
    once, each element walked once and each distinct set validated once.

    The inverse is read off the powers p, p^2, ...: in a finite ring with 1,
    p is a unit exactly when some p^k is 1, and then q = p^(k-1) is its one
    two-sided inverse.  A non-unit's powers repeat without reaching 1, within
    as many steps as the ring has elements.
    """

    def __init__(self, ring: fr.FiniteRing):
        self.ring = ring
        self.one = fr.find_identity(ring)
        self.vectors = list(ring.element_vectors())
        self._inverses: dict[int, tuple[int, ...] | None] = {}
        self._tables: dict[tuple, idem.PeirceTable] = {}

    def instance(self, name: str, elems: tuple[fr.RingElement, ...],
                 expect_strong: bool | None) -> RingWithIdempotents:
        """An instance of this ring whose table is held here."""
        inst = RingWithIdempotents(name, self.ring, elems, expect_strong)
        inst._units = self
        return inst

    def inverse(self, idx: int) -> tuple[int, ...] | None:
        """The two-sided inverse of element ``idx``, or None."""
        if idx not in self._inverses:
            mul, one, p = self.ring._mul, self.one.coords, self.vectors[idx]
            q, power, seen = one, p, set()  # q is the power before p^k
            while power != one and power not in seen:
                seen.add(power)
                q, power = power, mul(power, p)
            if power != one:
                q = None
            elif not mul(p, q) == one == mul(q, p):
                raise InvariantViolation("walked inverse fails p * q = 1 = q * p")
            self._inverses[idx] = q
        return self._inverses[idx]

    def table(self, elems: tuple[fr.RingElement, ...]) -> idem.PeirceTable:
        """The Peirce table of the complete set ``elems`` of this ring, held
        once its validation succeeds; a set that fails raises every time."""
        key = tuple(e.coords for e in elems)
        if key not in self._tables:
            # looked up on the module at call time, where tests wrap them
            self._tables[key] = idem.peirce_table(idem.validate_complete_set(self.ring, elems))
        return self._tables[key]


def _conjugate_set(
    units: _Units, elems: tuple[fr.RingElement, ...], seed: int
) -> tuple[fr.RingElement, ...] | None:
    """The set p e q, where p is the first unit in an order of the ring's
    elements shuffled by the seed and q is its inverse; None when the ring
    has no unit."""
    if units.one is None:
        return None
    for idx in _shuffled(_rng("conjugate", seed), len(units.vectors)):
        q = units.inverse(idx)
        if q is not None:
            p, q = units.ring.element(units.vectors[idx]), units.ring.element(q)
            return tuple(p * e * q for e in elems)
    return None


def _prop24_base() -> tuple[RingWithIdempotents, ...]:
    """The seedless prop-2.4 instances, each built through the one _Units
    made with its ring, held in ``_held``: every seed's suite opens with
    them."""
    if "prop-2.4 base" in _held:
        return _held["prop-2.4 base"]
    out: list[RingWithIdempotents] = []

    def add(name, ring, basis_indices, strong) -> _Units:
        # the diagonal matrix units of each block (Z/2's is its 1), by basis index
        units = _Units(ring)
        out.append(units.instance(name, tuple(map(ring.basis_element, basis_indices)), strong))
        return units

    for m in (2, 3, 4):
        units = add(f"matrix2_z{m}", matrix_units_ring(m, 2), (0, 3), True)
        out.append(units.instance(f"matrix2_z{m}_unit", (units.one,), True))
    for m in (2, 3, 4, 5):
        add(f"triangular2_z{m}", upper_triangular_ring(m, 2), (0, 2), False)
    add("triangular3_z2", upper_triangular_ring(2, 3), (0, 3, 5), False)
    unit_rings = {f"cyclic_z{m}": cyclic_ring(m) for m in (2, 3, 5)} | {"field4": field4()}
    for name, ring in unit_rings.items():
        units = _Units(ring)
        out.append(units.instance(f"{name}_unit", (units.one,), True))

    z2 = cyclic_ring(2)
    for nm, algebra in (
        ("pair_algebra_z2", sk.build_category_algebra(z2, _category(("mx", "c1", 2)))),
        ("mx_bool2_algebra_z2", sk.build_category_algebra(z2, _category(("mx", "bool2", 2)))),
        ("c2_algebra_z2", sk.build_category_algebra(z2, _category(("mx", "c2", 1)))),
        ("arrow_algebra_z2", sk.build_category_algebra(z2, _category(_thin(2, [(0, 1)])))),
        ("chain3_algebra_z2", sk.build_category_algebra(z2, _category(_thin(3, [(0, 1), (1, 2)])))),
        ("skew_c2_swap", _named_skew_algebra("c2_swap_z3z3")),
        ("skew_frobenius_f4", _named_skew_algebra("c2_frobenius_f4")),
    ):
        strong = cat.homset_strong_report(algebra.category).strong
        out.append(_Units(algebra.ring).instance(nm, algebra.unit_elements, strong))

    m2, t2 = matrix_units_ring(2, 2), upper_triangular_ring(2, 2)
    add("matrix2_z2_times_z2", fr.direct_product([m2, z2]), (0, 3, 4), True)
    add("triangular2_z2_times_z2", fr.direct_product([t2, z2]), (0, 2, 3), False)
    add("matrix2_times_triangular2", fr.direct_product([m2, t2]), (0, 3, 4, 6), False)
    _held["prop-2.4 base"] = tuple(out)
    return _held["prop-2.4 base"]


def _suite_prop24(seed: int) -> list[RingWithIdempotents]:
    base = _prop24_base()
    out = list(base)
    variants_per_base = 9
    for inst in base:
        for v in range(variants_per_base):
            conj = _conjugate_set(inst._units, inst.idempotents, _mix(seed, inst.name, v))
            if conj is not None:
                out.append(inst._units.instance(f"{inst.name}_conj{v}", conj, inst.expect_strong))
    return out


def _mx_recipes(names, max_morphisms: int) -> list[tuple[str, tuple]]:
    """The named recipes ("mx", name, s), s = 1, 2, 3, within the morphism count."""
    return [
        (f"mx_{name}_s{s}", ("mx", name, s))
        for name in sorted(names)
        for s in (1, 2, 3)
        if len(MONOID_TABLES[name]) * s * s <= max_morphisms
    ]


def _category_instances(recipes: list[tuple[str, tuple]]) -> list[CategoryInstance]:
    return [CategoryInstance(name, _category(recipe)) for name, recipe in recipes]


def _suite_prop32(seed: int) -> list[CategoryInstance]:
    thin = [(f"thin{i}", _thin_recipe(_mix(seed, "thin", i))) for i in range(330)]
    mixed = [(f"mixed{i}", _category_recipe(_mix(seed, "mixed", i))) for i in range(150)]
    return _category_instances(thin + _mx_recipes(MONOID_TABLES, 20) + mixed)


def _suite_groupoids(seed: int) -> list[CategoryInstance]:
    mx = _mx_recipes(GROUP_NAMES, 54)
    unions = [(f"union{i}", _groupoid_recipe(_mix(seed, "g", i))) for i in range(110 - len(mx))]
    return _category_instances(mx + unions)


def _suite_prop53() -> list[SkewInstance]:
    z2 = cyclic_ring(2)
    z3 = cyclic_ring(3)
    out: list[SkewInstance] = []
    recipes = {
        "arrow": _thin(2, [(0, 1)]),
        "chain3": _thin(3, [(0, 1), (1, 2)]),
        "vee": _thin(3, [(0, 1), (2, 1)]),
        "twoiso": _thin(2, [(0, 1), (1, 0)]),
        "pair": ("mx", "c1", 2),
        "mx_bool2_s2": ("mx", "bool2", 2),
        "mx_c2_s2": ("mx", "c2", 2),
        "bool2": ("mx", "bool2", 1),
        "transf2": ("mx", "transf2", 1),
        "leftzero3": ("mx", "leftzero3", 1),
        "c3": ("mx", "c3", 1),
        "s3": ("mx", "s3", 1),
        "disjoint": ("union", (_thin(1, []), ("mx", "c2", 1))),
    }
    for nm, recipe in sorted(recipes.items()):
        c = _category(recipe)  # one object, shared by its Z/2 and Z/3 algebras
        for T, tn in ((z2, "z2"), (z3, "z3")):
            if T.modulus ** c.morphism_count > 1024:
                continue
            out.append(SkewInstance(f"{nm}_{tn}", sk.build_category_algebra(T, c)))
    for nm in _NAMED_SYSTEMS:
        out.append(SkewInstance(nm, _named_skew_algebra(nm)))
    return out


def _suite_mx_family() -> list[MXInstance]:
    out = []
    for name in ("c1", "c2", "c3", "bool2", "transf2"):
        for s in (1, 2, 3):
            out.append(
                MXInstance(
                    f"mx_{name}_s{s}",
                    name,
                    s,
                    _category(("mx", name, s)),
                    name in GROUP_NAMES,
                )
            )
    return out


def _matrix_grading_m2(m: int) -> gr.Grading:
    ring = matrix_units_ring(m, 2)
    pair = _category(("mx", "c1", 2))
    # morphism (x, y) reads as the arrow y -> x and carries span{E_{(x+1)(y+1)}};
    # the lexicographic morphism order matches the matrix-unit label order
    comps = [ring.span([ring.basis_element(g).coords]) for g in range(4)]
    return gr.attach_grading(ring, pair, comps)


def _suite_gradings() -> list[GradingInstance]:
    out = [
        GradingInstance("matrix_pair_z2", _matrix_grading_m2(2)),
        GradingInstance("matrix_pair_z3", _matrix_grading_m2(3)),
    ]
    triv = _category(_thin(1, []))
    m2 = matrix_units_ring(2, 2)
    out.append(
        GradingInstance("trivial_m2", gr.attach_grading(m2, triv, [m2.full_subgroup()]))
    )
    f4 = field4()
    out.append(
        GradingInstance("trivial_f4", gr.attach_grading(f4, triv, [f4.full_subgroup()]))
    )
    # diagonal grading by the pair groupoid with zero cross components
    z22 = fr.direct_product([cyclic_ring(2), cyclic_ring(2)])
    pair = _category(("mx", "c1", 2))
    comps = [
        z22.span([(1, 0)]),
        z22.zero_subgroup(),
        z22.zero_subgroup(),
        z22.span([(0, 1)]),
    ]
    out.append(GradingInstance("diagonal_pair_z2z2", gr.attach_grading(z22, pair, comps)))
    # triangular ring graded by the pair groupoid with one cross component
    # zero: object unital over a hom-set strong category, yet not
    # hom-set-strongly graded (one opposed hom-component vanishes)
    t2 = upper_triangular_ring(2, 2)
    comps_t = [
        t2.span([(1, 0, 0)]),  # endo at 0: E11
        t2.span([(0, 1, 0)]),  # arrow 1 -> 0: E12
        t2.zero_subgroup(),    # arrow 0 -> 1: zero
        t2.span([(0, 0, 1)]),  # endo at 1: E22
    ]
    out.append(GradingInstance("lopsided_pair_t2", gr.attach_grading(t2, pair, comps_t)))
    # a held prop-5.3 suite lends its algebras; before it is held this suite
    # builds its own, so requesting it first shares no object with a later
    # prop-5.3 request (perfbench's CLI input writer names files by object)
    for inst in _held.get("prop-5.3") or _suite_prop53():
        out.append(GradingInstance(f"skew_{inst.name}", inst.algebra.grading))
    return out


# a seeded suite reads its seed; a seedless one is the same at every seed
_SEEDED: dict[str, Callable[[int], list]] = {
    "prop-2.4": _suite_prop24,
    "prop-3.2": _suite_prop32,
    "groupoids": _suite_groupoids,
}
_SEEDLESS: dict[str, Callable[[], list]] = {
    "prop-5.3": _suite_prop53,
    "mx-family": _suite_mx_family,
    "gradings": _suite_gradings,
}


def available_suites() -> tuple[str, ...]:
    return tuple(sorted(_SEEDED.keys() | _SEEDLESS.keys()))


# Every suite part held.  Seedless parts stay for the process: prop-5.3,
# mx-family, gradings, "prop-2.4 base" (with the one _Units of each ring, the
# only holder of its unit, inverses and sets' Peirce tables) and "category recipes"
# (the memo of every category recipe built, each with its hom-set report,
# which every suite shares: prop-3.2, groupoids, mx-family, the prop-5.3
# categories and named systems, the prop-2.4 base algebras and the gradings'
# categories, and the mutation matrix's).
# The one seeded suite (prop-2.4, prop-3.2 or groupoids) stays until another
# seeded suite is built, which drops it first; its key (name, type(seed),
# seed) holds the type since _mix hashes str(seed), so True and 1 build
# apart.
_held: dict = {}


def forget_held_work() -> None:
    """Drop every held suite part and every span the span cache holds."""
    _held.clear()
    fr._span.cache_clear()


def generate_suite(name: str, seed: int | None = None) -> list:
    """Fixed, seeded instance list for one named check suite.

    A seedless suite (prop-5.3, mx-family, gradings) ignores ``seed``.  What
    is built is held as the comment on ``_held`` states, so consecutive
    requests, as consecutive drivers make, build once.  The gradings suite
    lends the held prop-5.3 algebras, or builds its own when prop-5.3 is not
    yet held.  Each call returns a fresh list over the shared instances.
    The verdicts held with them serve every later request: a grading's, a
    prop-2.4 table's, and a category's, which every instance of one recipe
    shares with that recipe's build.  Drivers therefore judge every instance
    directly and never decide what to share.
    """
    if name in _SEEDLESS:
        if name not in _held:
            _held[name] = tuple(_SEEDLESS[name]())
        return list(_held[name])
    if name not in _SEEDED:
        raise UnknownSuite(name, available_suites())
    seed = DEFAULT_SUITE_SEED if seed is None else seed
    key = (name, type(seed), seed)  # an unhashable seed raises TypeError here
    if key not in _held:
        for old in [k for k in _held if type(k) is tuple]:
            del _held[old]
        _held[key] = tuple(_SEEDED[name](seed))
    return list(_held[key])


# ---------------------------------------------------------------------------
# mutants


class MutatedInstance(NamedTuple):
    """Raw data that its validator must reject with exactly expected_error."""

    expected_error: type
    payload: Any
    revalidate: Callable[[], Any]


def mutation_matrix() -> list[tuple[str, MutatedInstance]]:
    """The fixed table of targeted mutants, one per validator error.

    Each row writes its perturbation out as data on a valid base instance;
    no validator runs until a case's revalidate.
    """
    m2 = matrix_units_ring(2, 2)
    e11, e12, e21, e22 = m2.basis()
    c2 = _category(("mx", "c2", 1))
    c4 = _category(("mx", "c4", 1))
    z33 = _z3z3()
    pair = _category(("mx", "c1", 2))
    units = [m2.span([e.coords]) for e in (e11, e12, e21, e22)]
    U = cat.UNDEFINED

    def ring(constants):
        return fr.make_ring(2, 4, constants, m2.basis_labels)

    def ring_modulo(modulus):
        return fr.make_ring(modulus, 4, m2.constants, m2.basis_labels)

    def idempotents(elements):
        return idem.validate_complete_set(m2, elements)

    def category(objects, dom, cod, identity):
        return lambda table: cat.make_category(objects, dom, cod, identity, table)

    def system(c):
        return lambda maps: sk.validate_system(c, [z33], list(maps))

    def grading(components):
        return gr.attach_grading(m2, pair, components)

    nonassociative = [[list(cell) for cell in row] for row in m2.constants]
    nonassociative[0][3][2] = 1  # E11 * E22 = E21 instead of 0
    truncated = [c for row in m2.constants for cell in row for c in cell][:-1]
    table = [
        ("ring-not-associative", NotAssociative, nonassociative, ring),
        ("ring-shape", ShapeMismatch, truncated, ring),
        ("ring-modulus", ModulusTooSmall, 1, ring_modulo),
        ("idem-zero", ZeroIdempotent, (m2.zero(), e22), idempotents),
        # E21 is the first non-idempotent element in lexicographic order
        ("idem-not-idempotent", NotIdempotent, (e21, e22), idempotents),
        ("idem-not-orthogonal", NotOrthogonal, (e11, e11), idempotents),
        ("idem-not-complete", NotComplete, (e11,), idempotents),
        # the arrow category 0 -> 1 with a composite for the non-composable (0, 1)
        (
            "cat-domain",
            CompositionDomainMismatch,
            [[0, 0, U], [1, U, U], [U, 1, 2]],
            category(2, (0, 0, 1), (0, 1, 1), (0, 2)),
        ),
        # the group c2 with identity * identity = generator
        (
            "cat-identity",
            IdentityLawViolation,
            [[1, 1], [1, 0]],
            category(1, (0, 0), (0, 0), (0,)),
        ),
        # the maps {0,1} -> {0,1} (id, swap, const0, const1), const1 * swap = id
        (
            "cat-associative",
            NotAssociative,
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 0, 3, 3]],
            category(1, (0, 0, 0, 0), (0, 0, 0, 0), (0,)),
        ),
        # c2 and c4 act on Z/3 x Z/3; the valid maps are (EYE2, SWAP, ...)
        ("sys-identity", IdentityNotIdentity, (SWAP, SWAP), system(c2)),
        ("sys-not-iso", NotRingIso, (((0, 0), (0, 0)), SWAP), system(c2)),
        ("sys-not-functorial", NotFunctorial, (EYE2, EYE2, EYE2, SWAP), system(c4)),
        # the pair groupoid grading M2(Z/2) by matrix units
        ("grading-violation", GradingViolation, (units[1], units[0], units[2], units[3]), grading),
        ("grading-not-direct-sum", NotDirectSum, (m2.zero_subgroup(), *units[1:]), grading),
    ]
    return [
        (name, MutatedInstance(error, payload, functools.partial(check, payload)))
        for name, error, payload, check in table
    ]
