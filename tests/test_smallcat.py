"""Category validation, hom-set conventions, the MX construction, predicates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import content_key, driver_calls, fresh_category
from ringbench import corpus
from ringbench import finring as fr
from ringbench import smallcat as sc
from ringbench.errors import (
    CategoryTooLarge,
    CompositionDomainMismatch,
    IdentityLawViolation,
    NotAMonoid,
    NotAssociative,
    ShapeMismatch,
    WorkbenchError,
)

U = sc.UNDEFINED


def arrow_tables():
    comp = np.full((3, 3), U, dtype=np.int64)
    comp[0, 0] = 0
    comp[1, 1] = 1
    comp[2, 0] = 2
    comp[1, 2] = 2
    return 2, [0, 1, 0], [0, 1, 1], [0, 1], comp


class TestMakeCategory:
    def test_trivial_category(self, trivial_category):
        assert trivial_category.object_count == 1
        assert trivial_category.morphism_count == 1

    def test_arrow_category(self):
        cat = sc.make_category(*arrow_tables())
        assert cat.morphism_count == 3

    def test_compose_is_a_read_only_mapping_over_all_pairs(self):
        c = sc.make_category(*arrow_tables())
        assert len(c.compose) == 9
        assert (c.compose[2, 0], c.compose[0, 2]) == (2, U)
        assert c.compose[1, 2] == 2
        with pytest.raises(TypeError):
            c.compose[0, 2] = 0

    def test_compose_keeps_the_semantics_of_a_dict_over_all_pairs(self):
        p, dom, cod, ident, comp = arrow_tables()
        c = sc.make_category(p, dom, cod, ident, comp)
        q = len(dom)
        pairs = {(g, h): int(comp[g, h]) for g in range(q) for h in range(q)}
        assert len(c.compose) == q * q
        # g-major order, as the dict built from the table kept it
        assert list(c.compose.items()) == list(pairs.items())
        assert list(c.compose) == list(pairs)
        assert list(c.compose.values()) == list(pairs.values())
        assert all(c.compose[g, h] == gh for (g, h), gh in pairs.items())
        # out of range, negative (never wrapping round) and not a pair
        for key in ((q, 0), (0, q), (-1, 0), (0, -1), 5, (0, 1, 2)):
            with pytest.raises(KeyError):
                c.compose[key]
            assert key not in c.compose
            assert c.compose.get(key) is None and c.compose.get(key, 7) == 7
        assert (2, 0) in c.compose and (0, 2) in c.compose
        assert c.compose.get((2, 0)) == 2 and c.compose.get((0, 2), 7) == U
        assert c.compose == pairs and pairs == c.compose
        assert c.compose == sc.make_category(p, dom, cod, ident, comp).compose
        assert c.compose != {**pairs, (0, 2): 2}
        with pytest.raises(TypeError):
            c.compose[2, 0] = 2
        with pytest.raises(TypeError):
            del c.compose[2, 0]

    def test_overdefined_pair_rejected(self):
        p, dom, cod, ident, comp = arrow_tables()
        comp = comp.copy()
        comp[2, 2] = 2  # f after f is not composable
        with pytest.raises(CompositionDomainMismatch) as exc:
            sc.make_category(p, dom, cod, ident, comp)
        assert exc.value.kind == "overdefined" and exc.value.pair == (2, 2)

    def test_underdefined_pair_rejected(self):
        p, dom, cod, ident, comp = arrow_tables()
        comp = comp.copy()
        comp[2, 0] = U
        with pytest.raises(CompositionDomainMismatch) as exc:
            sc.make_category(p, dom, cod, ident, comp)
        assert exc.value.kind == "underdefined"

    def test_wrong_composite_endpoints_rejected(self):
        # two objects, two parallel arrows 0 -> 1 plus identities; route a
        # composite to an identity with the wrong endpoints
        dom = [0, 1, 0, 0]
        cod = [0, 1, 1, 1]
        comp = np.full((4, 4), U, dtype=np.int64)
        comp[0, 0] = 0
        comp[1, 1] = 1
        comp[2, 0] = 2
        comp[3, 0] = 3
        comp[1, 2] = 2
        comp[1, 3] = 0  # endpoints of the composite are wrong
        with pytest.raises(CompositionDomainMismatch) as exc:
            sc.make_category(2, dom, cod, [0, 1], comp)
        assert exc.value.kind == "endpoints"

    def test_identity_law_violation(self):
        table = np.array([[0, 0], [1, 0]])  # e * g = e instead of g
        with pytest.raises(IdentityLawViolation):
            sc.make_category(1, [0, 0], [0, 0], [0], table)

    def test_non_associative_table(self):
        # identity laws hold but (a a) b != a (a b)
        table = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(NotAssociative):
            sc.make_category(1, [0, 0, 0], [0, 0, 0], [0], table)

    def test_identity_with_wrong_endpoints(self):
        p, dom, cod, ident, comp = arrow_tables()
        with pytest.raises(IdentityLawViolation):
            sc.make_category(p, dom, cod, [2, 1], comp)


class TestHomSetConvention:
    def test_arrow_hom_sets(self, arrow_category):
        # the single arrow runs 0 -> 1, so it lies in hom(1, 0): INTO 1 FROM 0
        f = next(
            g
            for g in range(arrow_category.morphism_count)
            if arrow_category.dom[g] != arrow_category.cod[g]
        )
        assert arrow_category.hom_set(1, 0) == (f,)
        assert arrow_category.hom_set(0, 1) == ()

    def test_endo_sets_contain_identity(self, arrow_category, pair_groupoid):
        for cat in (arrow_category, pair_groupoid):
            for a in range(cat.object_count):
                assert cat.identity[a] in cat.hom_set(a, a)

    def test_pair_groupoid_hom_sets_are_singletons(self, pair_groupoid):
        for a in range(2):
            for b in range(2):
                assert len(pair_groupoid.hom_set(a, b)) == 1

    def test_object_range_checked(self, pair_groupoid):
        with pytest.raises(ShapeMismatch):
            pair_groupoid.hom_set(0, 5)


class TestIsGroupoid:
    def test_arrow_is_not_groupoid(self, arrow_category):
        check = sc.is_groupoid(arrow_category)
        assert not check.is_groupoid
        assert check.witness is not None

    def test_pair_groupoid(self, pair_groupoid):
        check = sc.is_groupoid(pair_groupoid)
        assert check.is_groupoid
        inv = check.inverses
        for g in range(pair_groupoid.morphism_count):
            assert (
                int(pair_groupoid.compose[g, inv[g]])
                == pair_groupoid.identity[pair_groupoid.cod[g]]
            )

    def test_mx_bool2_not_groupoid(self):
        mx = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        assert not sc.is_groupoid(mx).is_groupoid


class TestHomSetStrongReport:
    def test_groupoids_pass(self, pair_groupoid):
        report = sc.homset_strong_report(pair_groupoid)
        assert report.strong and report.agree

    def test_arrow_fails_with_object_witness(self, arrow_category):
        report = sc.homset_strong_report(arrow_category)
        assert not report.strong and report.agree
        assert report.witness1 == ((0, 1, 0), "third hom-set is empty")
        assert report.witness2 == ((0, 1), "opposed hom-set is empty")
        assert report.witness3 == ((0, 1), "opposed hom-set is empty")

    def test_mx_bool2_is_strong_but_not_groupoid(self):
        mx = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        assert sc.homset_strong_report(mx).strong
        assert not sc.is_groupoid(mx).is_groupoid


class TestBuildMX:
    def test_trivial_monoid_gives_pair_groupoid(self):
        mx = sc.build_MX([[0]], 2)
        assert mx.object_count == 2 and mx.morphism_count == 4
        assert sc.is_groupoid(mx).is_groupoid

    def test_bool2_s2(self):
        mx = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        assert mx.morphism_count == 8
        assert sc.homset_strong_report(mx).strong
        assert not sc.is_groupoid(mx).is_groupoid

    def test_c2_one_object_is_group(self):
        mx = sc.build_MX(corpus.MONOID_TABLES["c2"], 1)
        assert mx.object_count == 1 and mx.morphism_count == 2
        assert sc.is_groupoid(mx).is_groupoid

    def test_no_identity_rejected(self):
        with pytest.raises(NotAMonoid):
            sc.build_MX([[0, 0], [0, 0]], 2)

    def test_one_dimensional_table_rejected(self):
        with pytest.raises(NotAMonoid, match="table must be two-dimensional"):
            sc.build_MX([0], 1)

    def test_non_associative_rejected(self):
        with pytest.raises(NotAMonoid):
            sc.build_MX([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 1)

    def test_mx_homset_strong_for_all_registry_monoids(self):
        for name, table in corpus.MONOID_TABLES.items():
            for s in (1, 2, 3):
                if len(table) * s * s > 54:
                    continue
                mx = sc.build_MX(table, s)
                report = sc.homset_strong_report(mx)
                assert report.strong and report.agree, (name, s)
                assert sc.is_groupoid(mx).is_groupoid == (name in corpus.GROUP_NAMES)


class TestMorphismCap:
    def test_cap_matches_the_ring_bound(self):
        # q^3 int64 tables stay within the rank^4 tables a rank-48 ring needs
        assert sc.MAX_MORPHISMS**3 <= fr.MAX_RANK**4 < (sc.MAX_MORPHISMS + 1) ** 3

    def test_cap_checked_before_allocation(self):
        q = sc.MAX_MORPHISMS + 1
        tracemalloc.start()
        try:
            # None as the table: had the cap not come first, this would be a
            # ShapeMismatch, or q^3 tables of 43 MB each
            with pytest.raises(CategoryTooLarge) as exc:
                sc.make_category(1, [0] * q, [0] * q, [0], None)
            assert (exc.value.count, exc.value.cap) == (q, sc.MAX_MORPHISMS)
            # 1 * 14 * 14 = 196 morphisms: a 196 x 196 table if built
            with pytest.raises(CategoryTooLarge) as exc:
                sc.build_MX(corpus.MONOID_TABLES["c1"], 14)
            assert exc.value.count == 196
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_mx_bounds_checked_before_the_monoid_scan(self, monkeypatch):
        # a 200-element table has 8 million triples to scan for
        # associativity; the morphism count alone refuses it, so an
        # oversized table that is no monoid raises CategoryTooLarge
        def no_scan(table):
            raise AssertionError("monoid scan")

        monkeypatch.setattr(sc, "_check_monoid", no_scan)
        table = [[0] * 200 for _ in range(200)]
        with pytest.raises(CategoryTooLarge) as exc:
            sc.build_MX(table, 1)
        assert (exc.value.count, exc.value.cap) == (200, sc.MAX_MORPHISMS)
        with pytest.raises(ShapeMismatch):
            sc.build_MX(table, 0)


class TestTableMemory:
    def test_groupoid_suite_tables_stay_small(self):
        # 110 groupoids of up to 54 morphisms: one dict entry per pair held
        # 3.9 MB, row tuples about 0.5 MB
        tracemalloc.start()
        try:
            suite = corpus.generate_suite("groupoids", 1729)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(suite) == 110
        assert retained < 1.5e6


class TestFinitenessReport:
    def test_pair_groupoid_counts(self, pair_groupoid):
        rep = sc.finiteness_report(pair_groupoid)
        assert rep.endo_sizes == (1, 1)
        assert rep.homset_strong and rep.bound_satisfied

    def test_mx_hom_sets_have_monoid_size(self):
        mx = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        rep = sc.finiteness_report(mx)
        assert rep.endo_sizes == (2, 2)
        for a in range(2):
            for b in range(2):
                assert len(mx.hom_set(a, b)) == 2

    def test_arrow_bound_not_asserted(self, arrow_category):
        rep = sc.finiteness_report(arrow_category)
        assert not rep.homset_strong
        assert rep.bound_satisfied is None

    def test_morphism_bound_on_strong_categories(self):
        for name in ("c2", "bool2", "transf2"):
            mx = sc.build_MX(corpus.MONOID_TABLES[name], 2)
            rep = sc.finiteness_report(mx)
            assert rep.morphism_count <= rep.object_count**2 * max(rep.endo_sizes)


class TestGeneratedInvariants:
    def test_random_groupoids_are_homset_strong(self):
        for i in range(40):
            g = fresh_category(corpus._groupoid_recipe(i))
            assert sc.is_groupoid(g).is_groupoid
            report = sc.homset_strong_report(g)
            assert report.strong and report.agree

    def test_random_categories_tri_equivalence(self):
        for i in range(60):
            c = fresh_category(corpus._category_recipe(i))
            assert sc.homset_strong_report(c).agree


# ---------------------------------------------------------------------------
# make_category against a literal copy of its exhaustive form


def reference_make_category(object_count, dom, cod, identity, compose) -> sc.SmallCategory:
    """make_category as it was before it compared definedness row by row and
    checked the identity laws over the composable pairs only."""
    p = int(object_count)
    dom = tuple(int(x) for x in dom)
    cod = tuple(int(x) for x in cod)
    identity = tuple(int(x) for x in identity)
    q = len(dom)
    if q > sc.MAX_MORPHISMS:
        raise CategoryTooLarge(q, sc.MAX_MORPHISMS)
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
    if any(not U <= x < q for row in table for x in row):
        raise ShapeMismatch("composition entry out of morphism range")

    for a in range(p):
        e = identity[a]
        if dom[e] != a or cod[e] != a:
            raise IdentityLawViolation(
                f"identity morphism of object {a} is not an endomorphism of {a}"
            )

    for kind, defined in (("overdefined", True), ("underdefined", False)):
        for g, row in enumerate(table):
            for h, gh in enumerate(row):
                if (gh != U) is defined and (dom[g] == cod[h]) is not defined:
                    raise CompositionDomainMismatch(g, h, kind)
    after = [[(h, gh) for h, gh in enumerate(row) if gh != U] for row in table]
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

    for g, pairs in enumerate(after):
        row_g = table[g]
        for h, gh in pairs:
            row_gh = table[gh]
            for k, hk in after[h]:
                if row_gh[k] != row_g[hk]:
                    raise NotAssociative((g, h, k))

    return sc.SmallCategory(p, dom, cod, identity, sc.CompositionTable(table))


def category_outcome(build, args) -> tuple:
    """Every field of the built category, or the error's class and message."""
    try:
        c = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return c.object_count, c.dom, c.cod, c.identity, c.compose.rows


@pytest.fixture(scope="module")
def driver_tables():
    """The arguments of every category the lattice-free drivers build at
    four suite seeds, the mutation matrix's rejected tables included."""
    return driver_calls(sc, "make_category", (1729, 1, 2, 3))


def _valid_categories() -> list[sc.SmallCategory]:
    found = [fresh_category(corpus._category_recipe(i)) for i in range(30)]
    found += [fresh_category(corpus._groupoid_recipe(i)) for i in range(15)]
    found += [fresh_category(corpus._thin_recipe(i)) for i in range(15)]
    found += [sc.build_MX(corpus.MONOID_TABLES[name], s)
              for name in ("c1", "c2", "bool2", "transf2", "leftzero3") for s in (1, 2, 3)]
    found.append(corpus.disjoint_union(found[:3]))
    return found


VALID_CATEGORIES = _valid_categories()
# a composite moved within its hom-set is the one mutation that can break
# associativity, and most such moves keep it, so it is drawn most often
MUTATIONS = (
    "entry", "overdefine", "underdefine", "endpoints", "identity", "dom", "cod",
) + ("same-endpoints",) * 4


@st.composite
def mutated_category(draw):
    """A valid category's raw tables, then up to two mutations: any entry,
    an overdefined or underdefined pair, a composite with wrong or with the
    same endpoints (breaking an identity law or associativity), a moved
    identity, domain or codomain, or a wrong shape."""
    c = draw(st.sampled_from(VALID_CATEGORIES))
    p, q = c.object_count, c.morphism_count
    dom, cod, identity = list(c.dom), list(c.cod), list(c.identity)
    table = [list(row) for row in c.compose.rows]
    pairs = [(g, h) for g in range(q) for h in range(q)]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        if kind == "entry":
            g, h = draw(st.sampled_from(pairs))
            table[g][h] = draw(st.integers(-3, q + 1))
        elif kind in ("overdefine", "underdefine", "endpoints", "same-endpoints"):
            defined = kind != "overdefine"
            chosen = [(g, h) for g, h in pairs if (table[g][h] != U) is defined]
            if not chosen:
                continue
            g, h = draw(st.sampled_from(chosen))
            if kind == "underdefine":
                table[g][h] = U
            elif kind == "same-endpoints":
                same = [k for k in range(q) if (dom[k], cod[k]) == (dom[h], cod[g])]
                table[g][h] = draw(st.sampled_from(same)) if same else table[g][h]
            else:
                table[g][h] = draw(st.integers(0, q - 1))
        elif kind == "identity":
            identity[draw(st.integers(0, p - 1))] = draw(st.integers(-1, q))
        elif kind in ("dom", "cod"):
            ends = dom if kind == "dom" else cod
            ends[draw(st.integers(0, q - 1))] = draw(st.integers(-1, p))
    # at most one wrong shape, last, so the mutations above index a full table
    if not draw(st.integers(0, 3)):
        where = draw(st.sampled_from(("rows", "row", "cod", "identity", "objects")))
        if where == "rows":
            table.pop()
        elif where == "row":
            table[draw(st.integers(0, q - 1))].append(U)
        elif where == "cod":
            cod.pop()
        elif where == "identity":
            identity.append(identity[0])
        else:
            p = draw(st.integers(-1, 0))
    return p, dom, cod, identity, table


class TestMakeCategoryPinned:
    def test_driver_tables_build_as_the_reference_builds_them(self, driver_tables):
        assert len(driver_tables) == 373
        assert len({content_key(args) for args in driver_tables}) == 358
        outcomes = [category_outcome(sc.make_category, args) for args in driver_tables]
        assert outcomes == [category_outcome(reference_make_category, args) for args in driver_tables]
        # the mutation matrix's three rejected tables are among them
        assert sum(len(o) == 2 for o in outcomes) == 3 * 4

    @settings(max_examples=600, deadline=None)
    @given(args=mutated_category())
    def test_mutated_tables_fail_as_the_reference_fails(self, args):
        assert category_outcome(sc.make_category, args) == category_outcome(
            reference_make_category, args
        )


class TestDriverTableTotals:
    def test_lattice_free_driver_tables_at_the_strength_seeds(self, driver_tables):
        # the work an exhaustive validation does on the categories the
        # lattice-free drivers build at suite seeds 1729, 1, 2 and 3: every
        # table entry, every composable pair and every composable triple
        entries = pairs = triples = 0
        built = 0
        for args in driver_tables:
            try:
                c = sc.make_category(*args)
            except WorkbenchError:  # the mutation matrix's rejected tables
                continue
            built += 1
            rows = c.compose.rows
            after = [[h for h, gh in enumerate(row) if gh != U] for row in rows]
            entries += len(rows) ** 2
            pairs += sum(map(len, after))
            triples += sum(len(after[h]) for hs in after for h in hs)
        assert (built, entries, pairs, triples) == (361, 117_502, 35_049, 334_081)


def left_zero_monoid(order: int) -> list[list[int]]:
    """The left-zero semigroup on 1..order-1 with an identity 0 adjoined:
    x y = x for every x != 0."""
    return [[y if x == 0 else x for y in range(order)] for x in range(order)]


def one_object(table) -> tuple:
    """make_category's arguments for a monoid table on one object, 0 its
    identity."""
    q = len(table)
    return 1, [0] * q, [0] * q, [0], table


def middles(c: sc.SmallCategory) -> list[int]:
    return sc._light_middles(
        c.compose.rows, c.dom, c.cod, c.identity, sc._ends(c.object_count, c.dom, c.cod)[1]
    )


class TestLightsTest:
    def test_chosen_middles_generate_the_driver_tables(self, driver_tables):
        # Light's test checks (x a) y == x (a y) only for the chosen middles
        # a: the triples through them, against 334,081 composable triples
        triples = 0
        for args in driver_tables:
            try:
                c = sc.make_category(*args)
            except WorkbenchError:
                continue
            rows, dom, cod = c.compose.rows, c.dom, c.cod
            chosen = middles(c)
            triples += sum(
                sum(dom[x] == cod[a] for x in range(len(dom)))
                * sum(cod[y] == dom[a] for y in range(len(dom)))
                for a in chosen
            )
            # the identities and the chosen middles, closed under composition
            reached = set(c.identity) | set(chosen)
            while True:
                new = {rows[g][h] for g in reached for h in reached if rows[g][h] != U} - reached
                if not new:
                    break
                reached |= new
            assert reached == set(range(len(dom)))
        assert triples == 56_495

    def test_first_failing_middle_not_chosen(self):
        # 1 and 2 are chosen and 2 2 = 3 is reached; the ordered scan's first
        # failing triple has middle 3.  A chosen middle fails as well (every
        # failing table has one), which sends make_category to that scan
        table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 3, 2], [3, 0, 0, 0]]
        args = one_object(table)
        c = sc.SmallCategory(*args[:4], sc.CompositionTable(tuple(map(tuple, table))))
        assert middles(c) == [1, 2]
        with pytest.raises(NotAssociative) as exc:
            sc.make_category(*args)
        assert exc.value.triple == (1, 3, 1)
        assert category_outcome(sc.make_category, args) == category_outcome(
            reference_make_category, args
        )

    def test_left_zero_monoid_chooses_every_non_identity(self):
        # x y = x for x != 0, so no composite of the chosen is new: every
        # middle but the identity is checked, the full q^3 scan
        for order in (2, 3, 7):
            c = sc.make_category(*one_object(left_zero_monoid(order)))
            assert middles(c) == list(range(1, order))

    def test_cyclic_group_chooses_its_generator(self):
        c = sc.make_category(*one_object([[(i + j) % 7 for j in range(7)] for i in range(7)]))
        assert middles(c) == [1]
