"""Deterministic generation of valid instances and targeted invalid mutants.

Random rings are never rejection-sampled from raw structure constants
(associativity is vanishingly rare); every ring instance comes from a
constructive recipe: matrix-unit rings, monoid and category algebras, skew
algebras and direct products.  Random categories come from thin
preorder categories, the monoid-times-square construction, one-object
monoids, and disjoint unions.

Everything is a pure function of the seed: seeds are mixed through
SHA-256, so suites reproduce bit for bit across platforms and runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from . import finring as fr
from . import graded as gr
from . import skewalg as sk
from . import smallcat as cat
from .errors import (
    CannotTarget,
    ParameterOutOfRange,
    UnknownSuite,
)
from .howell import solve_row

DEFAULT_SUITE_SEED = 1729
MAX_RING_ORDER = 4096


def _mix(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
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


def matrix_units_ring(m: int, size: int) -> fr.FiniteRing:
    """The ring of size x size matrices over Z/m on the matrix-unit basis."""
    pairs = [(a, b) for a in range(size) for b in range(size)]
    n = len(pairs)
    if m**n > MAX_RING_ORDER:
        raise ParameterOutOfRange(f"matrix ring order {m}^{n} exceeds {MAX_RING_ORDER}")
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                sc[i][j][pairs.index((a, d))] = 1
    labels = [f"E{a + 1}{b + 1}" for a, b in pairs]
    return fr.make_ring(m, n, sc, labels)


def cyclic_ring(m: int) -> fr.FiniteRing:
    """Z/m as a rank-1 ring."""
    return fr.make_ring(m, 1, [[[1]]], ["1"])


def zero_multiplication_ring(m: int, rank: int = 1) -> fr.FiniteRing:
    return fr.make_ring(m, rank, [[[0] * rank] * rank] * rank)


def upper_triangular_ring(m: int, size: int = 2) -> fr.FiniteRing:
    """Upper triangular size x size matrices over Z/m on matrix units."""
    pairs = [(a, b) for a in range(size) for b in range(size) if a <= b]
    n = len(pairs)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c and (a, d) in pairs:
                sc[i][j][pairs.index((a, d))] = 1
    labels = [f"E{a + 1}{b + 1}" for a, b in pairs]
    return fr.make_ring(m, n, sc, labels)


def field4() -> fr.FiniteRing:
    """The field with four elements on the basis {1, x}, x^2 = x + 1."""
    return fr.make_ring(2, 2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], ["1", "x"])


# ---------------------------------------------------------------------------
# category builders


def one_object_monoid_category(name: str) -> cat.SmallCategory:
    return cat.build_MX(MONOID_TABLES[name], 1)


def thin_category_from_relation(
    object_count: int, pairs: list[tuple[int, int]]
) -> cat.SmallCategory:
    """Thin category of a preorder: one arrow a -> b per related pair after
    reflexive-transitive closure."""
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
        for (g, h), gh in c.compose.items():
            if gh != cat.UNDEFINED:
                table[mor_offset + g][mor_offset + h] = mor_offset + gh
        obj_offset += c.object_count
        mor_offset += c.morphism_count
    return cat.make_category(obj_offset, dom, codl, identity, table)


def random_thin_category(seed: int, max_objects: int = 4) -> cat.SmallCategory:
    rng = _rng("thin", seed)
    p = rng.randint(1, max_objects)
    candidates = [(a, b) for a in range(p) for b in range(p) if a != b]
    k = rng.randint(0, min(len(candidates), p * 2))
    pairs = rng.sample(candidates, k) if k else []
    return thin_category_from_relation(p, pairs)


def random_groupoid(seed: int) -> cat.SmallCategory:
    """A disjoint union of monoid-times-square groupoids over random groups."""
    rng = _rng("groupoid", seed)
    parts = []
    components = rng.randint(1, 2)
    for _ in range(components):
        name = rng.choice(sorted(GROUP_NAMES))
        s = rng.randint(1, 2 if len(MONOID_TABLES[name]) > 3 else 3)
        parts.append(cat.build_MX(MONOID_TABLES[name], s))
    return disjoint_union(parts) if len(parts) > 1 else parts[0]


def random_category(seed: int) -> cat.SmallCategory:
    rng = _rng("category", seed)
    style = rng.choice(["thin", "mx", "monoid", "union"])
    if style == "thin":
        return random_thin_category(_mix("inner", seed))
    if style == "mx":
        name = rng.choice(sorted(MONOID_TABLES))
        k = len(MONOID_TABLES[name])
        s_max = max(1, int((20 // k) ** 0.5))
        s = rng.randint(1, min(3, s_max))
        return cat.build_MX(MONOID_TABLES[name], s)
    if style == "monoid":
        return one_object_monoid_category(rng.choice(sorted(MONOID_TABLES)))
    left = random_thin_category(_mix("l", seed), max_objects=2)
    name = rng.choice(["c1", "c2", "bool2"])
    right = cat.build_MX(MONOID_TABLES[name], rng.randint(1, 2))
    union = disjoint_union([left, right])
    if union.object_count > 4 or union.morphism_count > 20:
        return random_thin_category(_mix("fallback", seed))
    return union


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


@dataclass(frozen=True, eq=False)
class RingWithIdempotents:
    name: str
    ring: fr.FiniteRing
    idempotents: tuple[fr.RingElement, ...]
    expect_strong: bool | None = None


@dataclass(frozen=True, eq=False)
class CategoryInstance:
    name: str
    category: cat.SmallCategory


@dataclass(frozen=True, eq=False)
class SkewInstance:
    name: str
    algebra: sk.SkewAlgebra


@dataclass(frozen=True, eq=False)
class MXInstance:
    name: str
    monoid: str
    set_size: int
    category: cat.SmallCategory
    monoid_is_group: bool


@dataclass(frozen=True, eq=False)
class GradingInstance:
    name: str
    grading: gr.Grading


def _find_invertible_pair(
    ring: fr.FiniteRing, rng: random.Random
) -> tuple[fr.RingElement, fr.RingElement] | None:
    """A random unit p with its inverse, or None when the ring has no unit."""
    one = fr.find_identity(ring)
    if one is None:
        return None
    vectors = list(ring.element_vectors())
    order = list(range(len(vectors)))
    rng.shuffle(order)
    for idx in order:
        p = vectors[idx]
        L = ring.left_mul_matrix(p)
        q = solve_row(L, one.coords, ring.modulus)
        if q is None:
            continue
        pe = ring.element(p)
        qe = ring.element(q)
        if pe * qe == one and qe * pe == one:
            return pe, qe
    return None


def _conjugate_set(
    ring: fr.FiniteRing, elems: tuple[fr.RingElement, ...], seed: int
) -> tuple[fr.RingElement, ...] | None:
    pair = _find_invertible_pair(ring, _rng("conjugate", seed))
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
    for inst in base:
        if inst.ring.order > 256:
            continue
        for v in range(variants_per_base):
            conj = _conjugate_set(inst.ring, inst.idempotents, _mix(seed, inst.name, v))
            if conj is None:
                continue
            out.append(
                RingWithIdempotents(
                    f"{inst.name}_conj{v}", inst.ring, conj, inst.expect_strong
                )
            )
    return [inst for inst in out if inst.ring.order <= 256]


def _suite_prop32(seed: int) -> list[CategoryInstance]:
    out: list[CategoryInstance] = []
    for i in range(330):
        out.append(CategoryInstance(f"thin{i}", random_thin_category(_mix(seed, "thin", i))))
    for name, table in sorted(MONOID_TABLES.items()):
        k = len(table)
        for s in (1, 2, 3):
            if k * s * s <= 20 and s <= 4:
                out.append(CategoryInstance(f"mx_{name}_s{s}", cat.build_MX(table, s)))
    for i in range(150):
        out.append(CategoryInstance(f"mixed{i}", random_category(_mix(seed, "mixed", i))))
    return [c for c in out if c.category.object_count <= 4 and c.category.morphism_count <= 20]


def _suite_groupoids(seed: int) -> list[CategoryInstance]:
    out: list[CategoryInstance] = []
    for name in sorted(GROUP_NAMES):
        table = MONOID_TABLES[name]
        for s in (1, 2, 3):
            if len(table) * s * s <= 54:
                out.append(CategoryInstance(f"mx_{name}_s{s}", cat.build_MX(table, s)))
    i = 0
    while len(out) < 110:
        out.append(CategoryInstance(f"union{i}", random_groupoid(_mix(seed, "g", i))))
        i += 1
    return out


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
# mutations


@dataclass(frozen=True)
class Mutation:
    """A targeted perturbation: applying it to a valid instance must produce
    raw data that the validator rejects with exactly the targeted error."""

    target: str
    description: str
    seed: int = 0


@dataclass(frozen=True)
class MutatedInstance:
    description: str
    expected_error: type
    payload: Any
    revalidate: Callable[[], Any]


def _mutate_ring(ring: fr.FiniteRing, mutation: Mutation) -> MutatedInstance:
    from .errors import ModulusTooSmall, NotAssociative, ShapeMismatch

    if mutation.target == "NotAssociative":
        rng = _rng("mut-ring", mutation.seed)
        n = ring.rank
        order = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        rng.shuffle(order)
        for (i, j, k) in order:
            for delta in range(1, ring.modulus):
                sc = [[list(cell) for cell in row] for row in ring.constants]
                sc[i][j][k] = (sc[i][j][k] + delta) % ring.modulus
                try:
                    fr.make_ring(ring.modulus, n, sc, ring.basis_labels)
                except NotAssociative:
                    bad = sc

                    def revalidate(sc=bad):
                        return fr.make_ring(ring.modulus, ring.rank, sc, ring.basis_labels)

                    return MutatedInstance(
                        mutation.description, NotAssociative, bad, revalidate
                    )
                except Exception:
                    continue
        raise CannotTarget("no single-entry perturbation breaks associativity")
    if mutation.target == "ShapeMismatch":
        bad = [c for row in ring.constants for cell in row for c in cell][:-1]

        def revalidate(data=bad):
            return fr.make_ring(ring.modulus, ring.rank, data, ring.basis_labels)

        return MutatedInstance(mutation.description, ShapeMismatch, bad, revalidate)
    if mutation.target == "ModulusTooSmall":
        def revalidate():
            return fr.make_ring(1, ring.rank, ring.constants, ring.basis_labels)

        return MutatedInstance(mutation.description, ModulusTooSmall, 1, revalidate)
    raise CannotTarget(f"ring mutation cannot target {mutation.target}")


def _mutate_idempotent_set(
    inst: RingWithIdempotents, mutation: Mutation
) -> MutatedInstance:
    from .errors import NotComplete, NotIdempotent, NotOrthogonal, ZeroIdempotent
    from .idempotents import validate_complete_set

    ring = inst.ring
    elems = list(inst.idempotents)
    target = mutation.target
    if target == "NotOrthogonal":
        if len(elems) < 2:
            raise CannotTarget("orthogonality is vacuous for singleton sets")
        bad = [elems[0], elems[0]] + elems[2:]
        expected = NotOrthogonal
    elif target == "ZeroIdempotent":
        bad = [ring.zero()] + elems[1:]
        expected = ZeroIdempotent
    elif target == "NotIdempotent":
        cand = next(
            (x for x in ring.elements() if not x.is_zero() and x * x != x), None
        )
        if cand is None:
            raise CannotTarget("every element of this ring is idempotent")
        bad = [cand] + elems[1:]
        expected = NotIdempotent
    elif target == "NotComplete":
        if len(elems) < 2:
            raise CannotTarget("a singleton complete set cannot be thinned")
        bad = elems[:-1]
        expected = NotComplete
    else:
        raise CannotTarget(f"idempotent-set mutation cannot target {target}")

    def revalidate(bad=tuple(bad)):
        return validate_complete_set(ring, bad)

    return MutatedInstance(mutation.description, expected, tuple(bad), revalidate)


def _mutate_category(c: cat.SmallCategory, mutation: Mutation) -> MutatedInstance:
    from .errors import CompositionDomainMismatch, IdentityLawViolation, NotAssociative

    target = mutation.target
    q = c.morphism_count
    table = [[c.compose[g, h] for h in range(q)] for g in range(q)]
    pairs = [(g, h) for g in range(q) for h in range(q)]
    undef = [(g, h) for g, h in pairs if table[g][h] == cat.UNDEFINED]
    defined = [(g, h) for g, h in pairs if table[g][h] != cat.UNDEFINED]
    if target == "CompositionDomainMismatch":
        if undef:
            g, h = undef[0]
            table[g][h] = 0
        else:
            if not defined:
                raise CannotTarget("no table entries to perturb")
            g, h = defined[0]
            table[g][h] = cat.UNDEFINED
        expected = CompositionDomainMismatch
    elif target == "IdentityLawViolation":
        # misdirect one identity composite to a parallel morphism so the
        # endpoint checks still pass
        choice = None
        for a in range(c.object_count):
            e = c.identity[a]
            for h in range(c.morphism_count):
                if c.cod[h] != a:
                    continue
                for w in range(c.morphism_count):
                    if w != h and c.dom[w] == c.dom[h] and c.cod[w] == c.cod[h]:
                        choice = (e, h, w)
                        break
                if choice:
                    break
            if choice:
                break
        if choice is None:
            raise CannotTarget("all hom-sets are singletons; endpoints would break first")
        e, h, w = choice
        table[e][h] = w
        expected = IdentityLawViolation
    elif target == "NotAssociative":
        rng = _rng("mut-cat-assoc", mutation.seed)
        rng.shuffle(defined)
        for (g, h) in defined:
            current = table[g][h]
            for repl in range(c.morphism_count):
                if repl == current:
                    continue
                if c.dom[repl] != c.dom[h] or c.cod[repl] != c.cod[g]:
                    continue
                cand = [list(row) for row in table]
                cand[g][h] = repl
                try:
                    cat.make_category(c.object_count, c.dom, c.cod, c.identity, cand)
                except NotAssociative:
                    def revalidate(t=cand):
                        return cat.make_category(c.object_count, c.dom, c.cod, c.identity, t)

                    return MutatedInstance(mutation.description, NotAssociative, cand, revalidate)
                except Exception:
                    continue
        raise CannotTarget("no endpoint-legal rewiring breaks associativity alone")
    else:
        raise CannotTarget(f"category mutation cannot target {target}")

    def revalidate(t=table):
        return cat.make_category(c.object_count, c.dom, c.cod, c.identity, t)

    return MutatedInstance(mutation.description, expected, table, revalidate)


def _mutate_system(system: sk.SkewCategorySystem, mutation: Mutation) -> MutatedInstance:
    from .errors import IdentityNotIdentity, NotFunctorial, NotRingIso

    c = system.category
    maps = list(system.maps)
    target = mutation.target
    if target == "IdentityNotIdentity":
        a = 0
        e = c.identity[a]
        n = system.object_rings[a].rank
        if n >= 2:
            eye = maps[e]  # the identity map of a validated system
            maps[e] = (eye[1], eye[0]) + eye[2:]
            expected = IdentityNotIdentity
        else:
            raise CannotTarget("rank-1 object ring admits only the identity map")
    elif target == "NotRingIso":
        g = next((g for g in range(c.morphism_count)), None)
        maps[g] = tuple((0,) * len(row) for row in maps[g])
        expected = NotRingIso
    elif target == "NotFunctorial":
        # replace one non-identity map by the identity; accept the first
        # replacement whose only defect is functoriality
        for g in range(c.morphism_count):
            if g in c.identity:
                continue
            eye = _identity_matrix(len(maps[g]))
            if maps[g] == eye:
                continue
            cand = list(maps)
            cand[g] = eye
            try:
                sk.validate_system(c, system.object_rings, cand)
            except NotFunctorial:
                def revalidate(ms=tuple(cand)):
                    return sk.validate_system(c, system.object_rings, list(ms))

                return MutatedInstance(
                    mutation.description, NotFunctorial, tuple(cand), revalidate
                )
            except Exception:
                continue
        raise CannotTarget("no single-map replacement breaks functoriality alone")
    else:
        raise CannotTarget(f"system mutation cannot target {target}")

    def revalidate(ms=tuple(maps)):
        return sk.validate_system(c, system.object_rings, list(ms))

    return MutatedInstance(mutation.description, expected, tuple(maps), revalidate)


def _mutate_grading(grading: gr.Grading, mutation: Mutation) -> MutatedInstance:
    from .errors import GradingViolation, NotDirectSum

    comps = list(grading.components)
    target = mutation.target
    if target == "GradingViolation":
        idx = [g for g in range(len(comps)) if not comps[g].is_zero()]
        if len(idx) < 2:
            raise CannotTarget("fewer than two nonzero components")
        g0, g1 = idx[0], idx[1]
        comps[g0], comps[g1] = comps[g1], comps[g0]
        expected = GradingViolation
    elif target == "NotDirectSum":
        idx = next((g for g in range(len(comps)) if not comps[g].is_zero()), None)
        if idx is None:
            raise CannotTarget("all components already zero")
        comps[idx] = grading.ring.zero_subgroup()
        expected = NotDirectSum
    else:
        raise CannotTarget(f"grading mutation cannot target {target}")

    def revalidate(cs=tuple(comps)):
        return gr.attach_grading(grading.ring, grading.category, cs)

    return MutatedInstance(mutation.description, expected, tuple(comps), revalidate)


def mutate(instance, mutation: Mutation) -> MutatedInstance:
    """Perturb a valid instance so its validator rejects it with exactly the
    targeted error class; raises CannotTarget when the axiom is vacuous."""
    if isinstance(instance, fr.FiniteRing):
        return _mutate_ring(instance, mutation)
    if isinstance(instance, RingWithIdempotents):
        return _mutate_idempotent_set(instance, mutation)
    if isinstance(instance, cat.SmallCategory):
        return _mutate_category(instance, mutation)
    if isinstance(instance, sk.SkewCategorySystem):
        return _mutate_system(instance, mutation)
    if isinstance(instance, gr.Grading):
        return _mutate_grading(instance, mutation)
    raise CannotTarget(f"no mutations defined for {type(instance).__name__}")


def mutation_matrix() -> list[tuple[str, MutatedInstance]]:
    """The standard corpus of targeted mutants, one per validator error."""
    m2 = matrix_units_ring(2, 2)
    e11, e22 = m2.basis_element(0), m2.basis_element(3)
    inst24 = RingWithIdempotents("m2", m2, (e11, e22), True)
    arrow = thin_category_from_relation(2, [(0, 1)])
    c2 = cat.build_MX(MONOID_TABLES["c2"], 1)
    c4 = cat.build_MX(MONOID_TABLES["c4"], 1)
    z33 = fr.direct_product([cyclic_ring(3), cyclic_ring(3)])
    system2 = sk.validate_system(c2, [z33], [EYE2, SWAP])
    system4 = sk.validate_system(c4, [z33], [EYE2, SWAP, EYE2, SWAP])
    grading = _matrix_grading_m2(2)

    cases = [
        ("ring-not-associative", mutate(m2, Mutation("NotAssociative", "perturb one structure constant"))),
        ("ring-shape", mutate(m2, Mutation("ShapeMismatch", "truncate the constants list"))),
        ("ring-modulus", mutate(m2, Mutation("ModulusTooSmall", "set modulus to 1"))),
        ("idem-zero", mutate(inst24, Mutation("ZeroIdempotent", "replace an idempotent with zero"))),
        ("idem-not-idempotent", mutate(inst24, Mutation("NotIdempotent", "replace with a non-idempotent element"))),
        ("idem-not-orthogonal", mutate(inst24, Mutation("NotOrthogonal", "duplicate an idempotent"))),
        ("idem-not-complete", mutate(inst24, Mutation("NotComplete", "drop one idempotent"))),
        ("cat-domain", mutate(arrow, Mutation("CompositionDomainMismatch", "define a non-composable entry"))),
        ("cat-identity", mutate(c2, Mutation("IdentityLawViolation", "misdirect an identity composite"))),
        ("cat-associative", mutate(cat.build_MX(MONOID_TABLES["transf2"], 1), Mutation("NotAssociative", "rewire one composite"))),
        ("sys-identity", mutate(system2, Mutation("IdentityNotIdentity", "swap coordinates on an identity map"))),
        ("sys-not-iso", mutate(system2, Mutation("NotRingIso", "zero out one map"))),
        ("sys-not-functorial", mutate(system4, Mutation("NotFunctorial", "replace one map by the identity"))),
        ("grading-violation", mutate(grading, Mutation("GradingViolation", "swap two components"))),
        ("grading-not-direct-sum", mutate(grading, Mutation("NotDirectSum", "zero out one component"))),
    ]
    return cases
