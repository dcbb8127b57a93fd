"""Deterministic generation of valid instances and targeted invalid mutants.

Random rings are never rejection-sampled from raw structure constants
(associativity is vanishingly rare); every ring instance comes from a
constructive recipe: matrix-unit rings, monoid and category algebras, skew
algebras and direct products.  Random categories come from thin
preorder categories, the monoid-times-square construction, one-object
monoids, and disjoint unions.

Everything is a pure function of the seed: seeds are mixed through
SHA-256, so suites reproduce bit for bit across platforms and runs.

The invalid mutants are a fixed table, mutation_matrix: one case per
validator error, each perturbation written out as data on a valid base
instance, so no validator chooses the mutants it is then tested on.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, NamedTuple

from . import finring as fr
from . import graded as gr
from . import skewalg as sk
from . import smallcat as cat
from .errors import (
    CompositionDomainMismatch,
    GradingViolation,
    IdentityLawViolation,
    IdentityNotIdentity,
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
)
from .howell import solve_row
from .idempotents import validate_complete_set

DEFAULT_SUITE_SEED = 1729
MAX_RING_ORDER = 4096


# hashlib loads OpenSSL's libcrypto, about 3.6 MB of resident memory, for a
# digest CPython's own SHA-256 module gives byte for byte; hashlib is only
# the fallback for an interpreter built without the built-in hashes.
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def _mix(*parts) -> int:
    digest = sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(*parts) -> random.Random:
    return random.Random(_mix(*parts))


# ---------------------------------------------------------------------------
# monoid and group tables


def _cyclic(n: int):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _transformation_monoid_2():
    # all maps {0,1} -> {0,1}: id, swap, const0, const1; composition f after g
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    table = []
    for f in maps:
        row = []
        for g in maps:
            row.append(maps.index((f[g[0]], f[g[1]])))
        table.append(tuple(row))
    return tuple(table)


def _s3():
    import itertools as it

    perms = sorted(it.permutations(range(3)))
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(perms.index(tuple(p[q[i]] for i in range(3))))
        table.append(tuple(row))
    return tuple(table)


MONOID_TABLES: dict[str, tuple[tuple[int, ...], ...]] = {
    "c1": _cyclic(1),
    "c2": _cyclic(2),
    "c3": _cyclic(3),
    "c4": _cyclic(4),
    "c5": _cyclic(5),
    "c6": _cyclic(6),
    "v4": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    "s3": _s3(),
    # {0, 1} under multiplication; identity is index 1
    "bool2": ((0, 0), (0, 1)),
    "transf2": _transformation_monoid_2(),
    # identity plus two left zeros
    "leftzero3": ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
}

GROUP_NAMES = frozenset({"c1", "c2", "c3", "c4", "c5", "c6", "v4", "s3"})


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
# Each builder takes an optional ``memo``: a dict that one suite build passes
# to all of its calls, keyed on each category's recipe.  A repeated recipe
# then returns the category already built and validated, so no composition
# table is built twice; without a memo every call builds afresh.


def _built(memo: dict | None, key, build: Callable[[], cat.SmallCategory]) -> cat.SmallCategory:
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _mx_category(name: str, s: int, memo: dict | None = None) -> cat.SmallCategory:
    """build_MX on the named monoid table, keyed on (name, s)."""
    return _built(memo, ("mx", name, s), lambda: cat.build_MX(MONOID_TABLES[name], s))


def one_object_monoid_category(name: str, memo: dict | None = None) -> cat.SmallCategory:
    return _mx_category(name, 1, memo)


def thin_category_from_relation(
    object_count: int, pairs: list[tuple[int, int]], memo: dict | None = None
) -> cat.SmallCategory:
    """Thin category of a preorder: one arrow a -> b per related pair after
    reflexive-transitive closure, keyed on the closed relation."""
    rel = {(a, a) for a in range(object_count)}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    arrows = sorted(rel)

    def build():
        index = {ab: i for i, ab in enumerate(arrows)}
        dom = [a for (a, b) in arrows]
        cod = [b for (a, b) in arrows]
        identity = [index[(a, a)] for a in range(object_count)]
        table = [
            [index[(hd, gc)] if gd == hc else cat.UNDEFINED for (hd, hc) in arrows]
            for (gd, gc) in arrows
        ]
        return cat.make_category(object_count, dom, cod, identity, table)

    return _built(memo, ("thin", object_count, tuple(arrows)), build)


def disjoint_union(
    categories: list[cat.SmallCategory], memo: dict | None = None
) -> cat.SmallCategory:
    """The union of the categories in their order, keyed on the part objects:
    parts built through the same memo share an object exactly when they
    share a recipe."""

    def build():
        obj_offset = 0
        mor_offset = 0
        dom: list[int] = []
        codl: list[int] = []
        identity: list[int] = []
        total_m = sum(c.morphism_count for c in categories)
        table = [[cat.UNDEFINED] * total_m for _ in range(total_m)]
        for c in categories:
            dom.extend(d + obj_offset for d in c.dom)
            codl.extend(d + obj_offset for d in c.cod)
            identity.extend(e + mor_offset for e in c.identity)
            for g, row in enumerate(c.compose.rows):
                for h, gh in enumerate(row):
                    if gh != cat.UNDEFINED:
                        table[mor_offset + g][mor_offset + h] = mor_offset + gh
            obj_offset += c.object_count
            mor_offset += c.morphism_count
        return cat.make_category(obj_offset, dom, codl, identity, table)

    return _built(memo, ("union", tuple(categories)), build)


def random_thin_category(
    seed: int, max_objects: int = 4, memo: dict | None = None
) -> cat.SmallCategory:
    rng = _rng("thin", seed)
    p = rng.randint(1, max_objects)
    candidates = [(a, b) for a in range(p) for b in range(p) if a != b]
    k = rng.randint(0, min(len(candidates), p * 2))
    pairs = rng.sample(candidates, k) if k else []
    return thin_category_from_relation(p, pairs, memo)


def random_groupoid(seed: int, memo: dict | None = None) -> cat.SmallCategory:
    """A disjoint union of monoid-times-square groupoids over random groups."""
    rng = _rng("groupoid", seed)
    parts = []
    components = rng.randint(1, 2)
    for _ in range(components):
        name = rng.choice(sorted(GROUP_NAMES))
        s = rng.randint(1, 2 if len(MONOID_TABLES[name]) > 3 else 3)
        parts.append(_mx_category(name, s, memo))
    return disjoint_union(parts, memo) if len(parts) > 1 else parts[0]


def random_category(seed: int, memo: dict | None = None) -> cat.SmallCategory:
    rng = _rng("category", seed)
    style = rng.choice(["thin", "mx", "monoid", "union"])
    if style == "thin":
        return random_thin_category(_mix("inner", seed), memo=memo)
    if style == "mx":
        name = rng.choice(sorted(MONOID_TABLES))
        k = len(MONOID_TABLES[name])
        s_max = max(1, int((20 // k) ** 0.5))
        s = rng.randint(1, min(3, s_max))
        return _mx_category(name, s, memo)
    if style == "monoid":
        return one_object_monoid_category(rng.choice(sorted(MONOID_TABLES)), memo)
    left = random_thin_category(_mix("l", seed), max_objects=2, memo=memo)
    name = rng.choice(["c1", "c2", "bool2"])
    right = _mx_category(name, rng.randint(1, 2), memo)
    # the union's own counts, known before it is built
    objects = left.object_count + right.object_count
    if objects > 4 or left.morphism_count + right.morphism_count > 20:
        return random_thin_category(_mix("fallback", seed), memo=memo)
    return disjoint_union([left, right], memo)


# ---------------------------------------------------------------------------
# named skew algebras


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# maps of rank-2 object rings, as row-vector actions
EYE2 = _identity_matrix(2)
SWAP = ((0, 1), (1, 0))
FROBENIUS = ((1, 0), (1, 1))  # on F4 = {1, x}: 1 -> 1, x -> x^2 = 1 + x


def _named_skew_algebra(name: str) -> sk.SkewAlgebra:
    z3 = cyclic_ring(3)
    if name == "c2_swap_z3z3":
        ring = fr.direct_product([z3, z3])
        c2 = cat.build_MX(MONOID_TABLES["c2"], 1)
        return sk.build_skew_algebra(sk.validate_system(c2, [ring], [EYE2, SWAP]))
    if name == "c2_frobenius_f4":
        f4 = field4()
        c2 = cat.build_MX(MONOID_TABLES["c2"], 1)
        return sk.build_skew_algebra(sk.validate_system(c2, [f4], [EYE2, FROBENIUS]))
    if name == "pair_groupoid_frobenius_f4":
        f4 = field4()
        pair = cat.build_MX(MONOID_TABLES["c1"], 2)
        # cross arrows carry the Frobenius, endo arrows the identity
        maps = []
        for g in range(pair.morphism_count):
            maps.append(EYE2 if pair.dom[g] == pair.cod[g] else FROBENIUS)
        return sk.build_skew_algebra(
            sk.validate_system(pair, [f4, f4], maps)
        )
    if name == "c4_swap_z3z3":
        ring = fr.direct_product([z3, z3])
        c4 = cat.build_MX(MONOID_TABLES["c4"], 1)
        maps = [EYE2, SWAP, EYE2, SWAP]
        return sk.build_skew_algebra(sk.validate_system(c4, [ring], maps))
    raise ParameterOutOfRange(f"unknown named system {name!r}")


# ---------------------------------------------------------------------------
# suite instances


class RingWithIdempotents:
    __slots__ = ("name", "ring", "idempotents", "expect_strong")

    def __init__(self, name: str, ring: fr.FiniteRing, idempotents: tuple[fr.RingElement, ...],
                 expect_strong: bool | None = None):
        self.name, self.ring, self.idempotents = name, ring, idempotents
        self.expect_strong = expect_strong


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
    """The unit of one ring, its element vectors, and the inverse found for
    each element tried so far (None for a non-unit): one table shared by
    every conjugate variant of the ring, so each element is solved once."""

    def __init__(self, ring: fr.FiniteRing):
        self.ring = ring
        self.one = fr.find_identity(ring)
        self.vectors = list(ring.element_vectors())
        self._inverses: dict[int, tuple[int, ...] | None] = {}

    def inverse(self, idx: int) -> tuple[int, ...] | None:
        """The two-sided inverse of element ``idx``, or None."""
        if idx not in self._inverses:
            ring, one, p = self.ring, self.one.coords, self.vectors[idx]
            # solve_row has checked p * q = one; the unit needs q * p = one too
            q = solve_row(ring.left_mul_matrix(p), one, ring.modulus)
            if q is not None and ring.mul_vec(q, p) != one:
                q = None
            self._inverses[idx] = q
        return self._inverses[idx]


def _find_invertible_pair(
    units: _Units, rng: random.Random
) -> tuple[fr.RingElement, fr.RingElement] | None:
    """A random unit p with its inverse, or None when the ring has no unit:
    the first unit in a shuffled order of the elements."""
    if units.one is None:
        return None
    order = list(range(len(units.vectors)))
    rng.shuffle(order)
    for idx in order:
        q = units.inverse(idx)
        if q is not None:
            return units.ring.element(units.vectors[idx]), units.ring.element(q)
    return None


def _conjugate_set(
    units: _Units, elems: tuple[fr.RingElement, ...], seed: int
) -> tuple[fr.RingElement, ...] | None:
    pair = _find_invertible_pair(units, _rng("conjugate", seed))
    if pair is None:
        return None
    p, q = pair
    return tuple(p * e * q for e in elems)


def _base_prop24_instances() -> list[RingWithIdempotents]:
    out: list[RingWithIdempotents] = []

    def matrix_units_set(ring, size):
        # diagonal matrix units E11, ..., Ess on the standard label order
        idx = [i * size + i for i in range(size)]
        return tuple(ring.basis_element(i) for i in idx)

    for m in (2, 3, 4):
        ring = matrix_units_ring(m, 2)
        out.append(
            RingWithIdempotents(f"matrix2_z{m}", ring, matrix_units_set(ring, 2), True)
        )
        one = fr.find_identity(ring)
        out.append(RingWithIdempotents(f"matrix2_z{m}_unit", ring, (one,), True))
    for m in (2, 3, 4, 5):
        t2 = upper_triangular_ring(m, 2)
        e11, e22 = t2.basis_element(0), t2.basis_element(2)
        out.append(RingWithIdempotents(f"triangular2_z{m}", t2, (e11, e22), False))
    t3 = upper_triangular_ring(2, 3)
    diag = tuple(
        t3.basis_element(i) for i, lab in enumerate(t3.basis_labels) if lab[1] == lab[2]
    )
    out.append(RingWithIdempotents("triangular3_z2", t3, diag, False))
    for m in (2, 3, 5):
        ring = cyclic_ring(m)
        out.append(
            RingWithIdempotents(f"cyclic_z{m}_unit", ring, (fr.find_identity(ring),), True)
        )
    f4 = field4()
    out.append(RingWithIdempotents("field4_unit", f4, (fr.find_identity(f4),), True))

    z2 = cyclic_ring(2)
    for nm, algebra in (
        ("pair_algebra_z2", sk.build_category_algebra(z2, cat.build_MX(MONOID_TABLES["c1"], 2))),
        ("mx_bool2_algebra_z2", sk.build_category_algebra(z2, cat.build_MX(MONOID_TABLES["bool2"], 2))),
        ("c2_algebra_z2", sk.build_category_algebra(z2, one_object_monoid_category("c2"))),
        ("arrow_algebra_z2", sk.build_category_algebra(z2, thin_category_from_relation(2, [(0, 1)]))),
        ("chain3_algebra_z2", sk.build_category_algebra(z2, thin_category_from_relation(3, [(0, 1), (1, 2)]))),
        ("skew_c2_swap", _named_skew_algebra("c2_swap_z3z3")),
        ("skew_frobenius_f4", _named_skew_algebra("c2_frobenius_f4")),
    ):
        iset = gr.induced_idempotents(algebra.grading)
        strong = cat.homset_strong_report(algebra.category).strong
        out.append(RingWithIdempotents(nm, algebra.ring, iset.elements, strong))

    m2 = matrix_units_ring(2, 2)
    prod = fr.direct_product([m2, cyclic_ring(2)])
    es = (
        prod.element([1, 0, 0, 0, 0]),
        prod.element([0, 0, 0, 1, 0]),
        prod.element([0, 0, 0, 0, 1]),
    )
    out.append(RingWithIdempotents("matrix2_z2_times_z2", prod, es, True))

    t2 = upper_triangular_ring(2, 2)
    prod2 = fr.direct_product([t2, cyclic_ring(2)])
    es2 = (
        prod2.element([1, 0, 0, 0]),
        prod2.element([0, 0, 1, 0]),
        prod2.element([0, 0, 0, 1]),
    )
    out.append(RingWithIdempotents("triangular2_z2_times_z2", prod2, es2, False))

    prod3 = fr.direct_product([matrix_units_ring(2, 2), upper_triangular_ring(2, 2)])
    es3 = (
        prod3.element([1, 0, 0, 0, 0, 0, 0]),
        prod3.element([0, 0, 0, 1, 0, 0, 0]),
        prod3.element([0, 0, 0, 0, 1, 0, 0]),
        prod3.element([0, 0, 0, 0, 0, 0, 1]),
    )
    out.append(RingWithIdempotents("matrix2_times_triangular2", prod3, es3, False))
    return out


def _suite_prop24(seed: int) -> list[RingWithIdempotents]:
    base = _base_prop24_instances()
    out = list(base)
    variants_per_base = 9
    units: dict[fr.FiniteRing, _Units] = {}  # by ring object; rings hash by identity
    for inst in base:
        if inst.ring not in units:
            units[inst.ring] = _Units(inst.ring)
        for v in range(variants_per_base):
            conj = _conjugate_set(
                units[inst.ring], inst.idempotents, _mix(seed, inst.name, v)
            )
            if conj is None:
                continue
            out.append(
                RingWithIdempotents(
                    f"{inst.name}_conj{v}", inst.ring, conj, inst.expect_strong
                )
            )
    return out


def _own_categories(instances: list[CategoryInstance]) -> list[CategoryInstance]:
    """Each instance with its own SmallCategory object on the fields its
    recipe's one build validated.  Callers may key on the category object,
    as perfbench's CLI input writer does, so an instance never shares it."""
    own = []
    for inst in instances:
        c = inst.category
        copy = cat.SmallCategory(c.object_count, c.dom, c.cod, c.identity, c.compose)
        own.append(CategoryInstance(inst.name, copy))
    return own


def _suite_prop32(seed: int) -> list[CategoryInstance]:
    memo: dict = {}  # one build per recipe in this suite
    out: list[CategoryInstance] = []
    for i in range(330):
        thin = random_thin_category(_mix(seed, "thin", i), memo=memo)
        out.append(CategoryInstance(f"thin{i}", thin))
    for name, table in sorted(MONOID_TABLES.items()):
        k = len(table)
        for s in (1, 2, 3):
            if k * s * s <= 20:
                out.append(CategoryInstance(f"mx_{name}_s{s}", _mx_category(name, s, memo)))
    for i in range(150):
        mixed = random_category(_mix(seed, "mixed", i), memo)
        out.append(CategoryInstance(f"mixed{i}", mixed))
    return _own_categories(out)


def _suite_groupoids(seed: int) -> list[CategoryInstance]:
    memo: dict = {}  # one build per recipe in this suite
    out: list[CategoryInstance] = []
    for name in sorted(GROUP_NAMES):
        table = MONOID_TABLES[name]
        for s in (1, 2, 3):
            if len(table) * s * s <= 54:
                out.append(CategoryInstance(f"mx_{name}_s{s}", _mx_category(name, s, memo)))
    i = 0
    while len(out) < 110:
        out.append(CategoryInstance(f"union{i}", random_groupoid(_mix(seed, "g", i), memo)))
        i += 1
    return _own_categories(out)


def _suite_prop53(seed: int) -> list[SkewInstance]:
    z2 = cyclic_ring(2)
    z3 = cyclic_ring(3)
    out: list[SkewInstance] = []
    categories = {
        "arrow": thin_category_from_relation(2, [(0, 1)]),
        "chain3": thin_category_from_relation(3, [(0, 1), (1, 2)]),
        "vee": thin_category_from_relation(3, [(0, 1), (2, 1)]),
        "twoiso": thin_category_from_relation(2, [(0, 1), (1, 0)]),
        "pair": cat.build_MX(MONOID_TABLES["c1"], 2),
        "mx_bool2_s2": cat.build_MX(MONOID_TABLES["bool2"], 2),
        "mx_c2_s2": cat.build_MX(MONOID_TABLES["c2"], 2),
        "bool2": one_object_monoid_category("bool2"),
        "transf2": one_object_monoid_category("transf2"),
        "leftzero3": one_object_monoid_category("leftzero3"),
        "c3": one_object_monoid_category("c3"),
        "s3": one_object_monoid_category("s3"),
        "disjoint": disjoint_union(
            [thin_category_from_relation(1, []), cat.build_MX(MONOID_TABLES["c2"], 1)]
        ),
    }
    for nm, c in sorted(categories.items()):
        for T, tn in ((z2, "z2"), (z3, "z3")):
            if T.modulus ** c.morphism_count > 1024:
                continue
            out.append(SkewInstance(f"{nm}_{tn}", sk.build_category_algebra(T, c)))
    for nm in (
        "c2_swap_z3z3",
        "c2_frobenius_f4",
        "pair_groupoid_frobenius_f4",
        "c4_swap_z3z3",
    ):
        out.append(SkewInstance(nm, _named_skew_algebra(nm)))
    return out


def _suite_mx_family(seed: int) -> list[MXInstance]:
    out = []
    for name in ("c1", "c2", "c3", "bool2", "transf2"):
        for s in (1, 2, 3):
            out.append(
                MXInstance(
                    f"mx_{name}_s{s}",
                    name,
                    s,
                    cat.build_MX(MONOID_TABLES[name], s),
                    name in GROUP_NAMES,
                )
            )
    return out


def _matrix_grading_m2(m: int) -> gr.Grading:
    ring = matrix_units_ring(m, 2)
    pair = cat.build_MX(MONOID_TABLES["c1"], 2)
    # morphism (x, y) reads as the arrow y -> x and carries span{E_{(x+1)(y+1)}};
    # the lexicographic morphism order matches the matrix-unit label order
    comps = [ring.span([ring.basis_element(g).coords]) for g in range(4)]
    return gr.attach_grading(ring, pair, comps)


def _suite_gradings(seed: int) -> list[GradingInstance]:
    out = [
        GradingInstance("matrix_pair_z2", _matrix_grading_m2(2)),
        GradingInstance("matrix_pair_z3", _matrix_grading_m2(3)),
    ]
    triv = thin_category_from_relation(1, [])
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
    pair = cat.build_MX(MONOID_TABLES["c1"], 2)
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
    for inst in _suite_prop53(seed):
        out.append(GradingInstance(f"skew_{inst.name}", inst.algebra.grading))
    return out


_SUITES: dict[str, Callable[[int], list]] = {
    "prop-2.4": _suite_prop24,
    "prop-3.2": _suite_prop32,
    "groupoids": _suite_groupoids,
    "prop-5.3": _suite_prop53,
    "mx-family": _suite_mx_family,
    "gradings": _suite_gradings,
}


def available_suites() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def generate_suite(name: str, seed: int | None = None) -> list:
    """Fixed, seeded instance list for one named check suite."""
    if name not in _SUITES:
        raise UnknownSuite(name, _SUITES)
    return _SUITES[name](DEFAULT_SUITE_SEED if seed is None else seed)


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
    c2 = one_object_monoid_category("c2")
    c4 = one_object_monoid_category("c4")
    z33 = fr.direct_product([cyclic_ring(3), cyclic_ring(3)])
    pair = cat.build_MX(MONOID_TABLES["c1"], 2)
    units = [m2.span([e.coords]) for e in (e11, e12, e21, e22)]
    U = cat.UNDEFINED

    def ring(constants):
        return fr.make_ring(2, 4, constants, m2.basis_labels)

    def ring_modulo(modulus):
        return fr.make_ring(modulus, 4, m2.constants, m2.basis_labels)

    def idempotents(elements):
        return validate_complete_set(m2, elements)

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
