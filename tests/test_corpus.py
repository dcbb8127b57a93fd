"""Generator determinism, suite contracts, mutation targetedness."""

import gc
import hashlib
import json
import weakref

import pytest

from conftest import (
    LATTICE_FREE_DRIVERS, category_content, driver_calls, fresh_category, plain,
)
from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import howell
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench import strength, verify
from ringbench.errors import (
    CategoryNotHomSetStrong,
    NotComplete,
    NotObjectUnital,
    UnknownSuite,
)


class TestRecipes:
    """The constructive builders every instance comes from."""

    def test_matrix_ring_recipe(self):
        ring = corpus.matrix_units_ring(2, 2)
        assert ring.order == 16 and ring.basis_labels == ("E11", "E12", "E21", "E22")
        e = {lab: ring.basis_element(i) for i, lab in enumerate(ring.basis_labels)}
        assert e["E12"] * e["E21"] == e["E11"] and (e["E21"] * e["E21"]).is_zero()

    def test_mx_category_recipe(self):
        g = sc.build_MX(corpus.MONOID_TABLES["c2"], 2)
        assert g.morphism_count == 8
        assert sc.is_groupoid(g).is_groupoid

    def test_monoid_algebra_recipe(self):
        algebra = sk.build_category_algebra(
            corpus.cyclic_ring(3), corpus.one_object_monoid_category("bool2")
        )
        assert algebra.ring.modulus == 3 and algebra.ring.rank == 2

    def test_direct_product_recipe(self):
        algebra = sk.build_category_algebra(
            corpus.cyclic_ring(2), corpus.one_object_monoid_category("c1")
        )
        ring = fr.direct_product([corpus.matrix_units_ring(2, 2), algebra.ring])
        assert ring.rank == 5

    def test_corner_recipe(self):
        ring = corpus.matrix_units_ring(2, 2)
        corner = fr.corner_ring(ring, ring.element((1, 0, 0, 0)))
        assert corner.ring.order == 2

    def test_random_recipes_are_deterministic(self):
        for recipe in (corpus._groupoid_recipe, corpus._category_recipe):
            assert fresh_category(recipe(5)).compose == fresh_category(recipe(5)).compose

    def test_shared_memo_returns_the_fresh_content(self, monkeypatch):
        # one held memo over every seed and recipe function, as the suites
        # share it: a key that merged two recipes (say, a groupoid's parts
        # sorted) would hand one of them the other's category
        builds = []
        original = sc.make_category
        monkeypatch.setattr(sc, "make_category", lambda *args: builds.append(1) or original(*args))
        shared = []
        for seed in range(200):
            for draw in (corpus._thin_recipe, corpus._groupoid_recipe, corpus._category_recipe):
                recipe = draw(seed)
                first = corpus._category(recipe)
                count = len(builds)
                again = corpus._category(recipe)
                assert len(builds) == count
                # its own object, on the one build's tables
                assert again is not first and again.compose is first.compose
                shared.append((recipe, category_content(first)))
        for recipe, content in shared:
            assert content == category_content(fresh_category(recipe))

    def test_union_recipes_stay_within_the_suite_bounds(self):
        # a thin part on at most 2 objects beside a monoid-times-square part
        # on at most 2 objects and 8 morphisms, so no union needs a fallback
        # to stay within the prop-3.2 suite's 4 objects and 20 morphisms
        recipes = {corpus._category_recipe(seed) for seed in range(2000)}
        unions = [recipe for recipe in recipes if recipe[0] == "union"]
        assert len(unions) > 10
        for recipe in unions:
            c = corpus._category(recipe)
            assert c.object_count <= 4 and c.morphism_count <= 12

    def test_parameter_out_of_range(self):
        with pytest.raises(corpus.ParameterOutOfRange):
            corpus.matrix_units_ring(5, 3)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            corpus.generate_suite("nonsense")

    def test_prop24_suite_contract(self):
        suite = corpus.generate_suite("prop-2.4")
        assert len(suite) >= 200
        assert all(inst.ring.order <= 256 for inst in suite)
        assert all(len(inst.idempotents) <= 4 for inst in suite)
        kinds = {inst.expect_strong for inst in suite}
        assert True in kinds and False in kinds

    def test_prop24_instances_validate(self):
        suite = corpus.generate_suite("prop-2.4")
        for inst in suite[::25]:
            iset = idem.validate_complete_set(inst.ring, inst.idempotents)
            assert iset.size == len(inst.idempotents)

    def test_prop32_suite_contract(self):
        # the recipes alone keep every instance within 4 objects and 20
        # morphisms: the suite filters none out
        for seed in (None, *range(10)):
            suite = corpus.generate_suite("prop-3.2", seed)
            assert len(suite) == 503
            assert all(c.category.object_count <= 4 for c in suite)
            assert all(c.category.morphism_count <= 20 for c in suite)

    def test_groupoid_suite_contract(self):
        suite = corpus.generate_suite("groupoids")
        assert len(suite) >= 100
        for inst in suite[::10]:
            assert sc.is_groupoid(inst.category).is_groupoid

    def test_prop53_mixes_strong_and_non_strong_categories(self):
        suite = corpus.generate_suite("prop-5.3")
        verdicts = {
            sc.homset_strong_report(inst.algebra.category).strong for inst in suite
        }
        assert verdicts == {True, False}

    def test_suites_are_deterministic(self):
        # every hold is dropped before each second request, so two builds compare
        a = corpus.generate_suite("prop-2.4")
        corpus.forget_held_work()
        b = corpus.generate_suite("prop-2.4")
        assert [i.name for i in a] == [i.name for i in b]
        assert all(
            tuple(x.coords for x in ia.idempotents) == tuple(x.coords for x in ib.idempotents)
            for ia, ib in zip(a, b)
        )
        c = corpus.generate_suite("prop-3.2")
        corpus.forget_held_work()
        d = corpus.generate_suite("prop-3.2")
        assert all(x.category.compose == y.category.compose for x, y in zip(c, d))

    def test_seed_override_changes_random_instances(self):
        a = corpus.generate_suite("prop-3.2", seed=1)
        b = corpus.generate_suite("prop-3.2", seed=2)
        assert any(x.category.compose != y.category.compose for x, y in zip(a, b))


def recorded_builds(monkeypatch) -> list[tuple]:
    """The (name, seed) of every suite built from now on, in build order;
    a seedless suite's seed is None."""
    builds = []
    for name, build in corpus._SEEDED.items():
        def recording(seed, _name=name, _build=build):
            builds.append((_name, seed))
            return _build(seed)

        monkeypatch.setitem(corpus._SEEDED, name, recording)
    for name, build in corpus._SEEDLESS.items():
        def recording_seedless(_name=name, _build=build):
            builds.append((_name, None))
            return _build()

        monkeypatch.setitem(corpus._SEEDLESS, name, recording_seedless)
    return builds


def skew_builds(monkeypatch) -> list:
    """The system of every skew algebra built from now on."""
    calls = []
    build = sk.build_skew_algebra

    def counting(system):
        calls.append(system)
        return build(system)

    monkeypatch.setattr(sk, "build_skew_algebra", counting)
    return calls


def category_suite_content(suite) -> list:
    return [[inst.name, category_content(inst.category)] for inst in suite]


class TestSuiteMemo:
    """generate_suite holds each seedless suite and the last seeded suite
    built, and no other."""

    def test_consecutive_requests_build_once(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        a = corpus.generate_suite("prop-3.2", 5)
        b = corpus.generate_suite("prop-3.2", 5)
        assert builds == [("prop-3.2", 5)]
        assert a is not b and len(a) == len(b) == 503
        assert all(x is y for x, y in zip(a, b))
        a.clear()  # one caller's list is its own
        assert len(corpus.generate_suite("prop-3.2", 5)) == 503

    def test_default_seed_shares_the_entry_and_any_other_key_builds(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        corpus.generate_suite("groupoids")
        corpus.generate_suite("groupoids", corpus.DEFAULT_SUITE_SEED)
        corpus.generate_suite("groupoids", 2)
        corpus.generate_suite("prop-3.2", 2)
        corpus.generate_suite("groupoids", 2)  # no longer held
        assert builds == [
            ("groupoids", 1729), ("groupoids", 2), ("prop-3.2", 2), ("groupoids", 2),
        ]

    @pytest.mark.parametrize("name", ["prop-5.3", "mx-family", "gradings"])
    def test_a_seedless_suite_builds_once_for_every_seed(self, monkeypatch, name):
        builds = recorded_builds(monkeypatch)
        suites = [corpus.generate_suite(name, seed) for seed in (1729, 1, 2, 3)]
        corpus.generate_suite("prop-3.2", 1)  # a seeded build evicts no seedless suite
        suites.append(corpus.generate_suite(name))
        assert [b for b in builds if b[0] == name] == [(name, None)]
        assert all(len(s) == len(suites[0]) > 0 for s in suites)
        assert all(x is y for s in suites[1:] for x, y in zip(suites[0], s))

    def test_prop24_base_is_shared_across_seeds_and_variants_are_not(self):
        one, two = corpus.generate_suite("prop-2.4", 1), corpus.generate_suite("prop-2.4", 2)
        assert all(x is y for x, y in zip(one[:25], two[:25]))
        assert not any("_conj" in inst.name for inst in one[:25])
        assert not {id(inst) for inst in one[25:]} & {id(inst) for inst in two[25:]}

    def test_gradings_before_prop53_share_no_algebra(self, monkeypatch):
        # the CLI input writer's order: files named by object stay apart
        calls = skew_builds(monkeypatch)
        gradings = corpus.generate_suite("gradings", 1729)
        algebras = corpus.generate_suite("prop-5.3", 1729)
        assert len(calls) == 2 * len(algebras) == 56
        lent = {id(inst.grading.category) for inst in gradings}
        assert not lent & {id(inst.algebra.category) for inst in algebras}
        assert corpus.generate_suite("gradings", 1) == gradings

    def test_lattice_free_drivers_build_each_skew_algebra_once(self):
        # prop-2.4's base lends 7 algebras and prop-5.3 holds 28, which the
        # matrix-units-iso driver reads at every seed
        assert len(driver_calls(sk, "build_skew_algebra", (1729, 1, 2, 3))) == 35

    def test_gradings_read_the_held_prop53_algebras(self, monkeypatch):
        algebras = corpus.generate_suite("prop-5.3")
        calls = skew_builds(monkeypatch)
        gradings = corpus.generate_suite("gradings")
        assert not calls
        skew = [inst for inst in gradings if inst.name.startswith("skew_")]
        assert [inst.name for inst in skew] == [f"skew_{inst.name}" for inst in algebras]
        assert all(g.grading is a.algebra.grading for g, a in zip(skew, algebras))

    # _mix hashes str(seed): equal seeds of different types build different suites
    @pytest.mark.parametrize("held,seed", [(1, True), (1729, 1729.0)])
    def test_seeds_of_another_type_build_apart(self, monkeypatch, held, seed):
        builds = recorded_builds(monkeypatch)
        first = corpus.generate_suite("prop-3.2", held)
        suite = corpus.generate_suite("prop-3.2", seed)
        assert corpus.generate_suite("prop-3.2", seed) == suite  # now held
        assert [type(s) for _, s in builds] == [type(held), type(seed)]
        fresh = category_suite_content(corpus._suite_prop32(seed))
        assert category_suite_content(suite) == fresh != category_suite_content(first)

    def test_only_the_last_suite_is_held(self, monkeypatch):
        # a variant goes with the seeded suite that drew it; the base
        # instances, and the table the base ring's _Units holds for the
        # variant's set, stay and serve the next build of that seed
        weakly_referenced(monkeypatch, corpus, "RingWithIdempotents")
        suite = corpus.generate_suite("prop-2.4", 1729)
        variant = conjugate_variant(suite)
        base, table = weakref.ref(suite[0].table), weakref.ref(variant.table)
        instance = weakref.ref(variant)
        del suite, variant
        gc.collect()
        assert instance() is not None
        corpus.generate_suite("groupoids", 1729)
        gc.collect()
        assert instance() is None
        assert table() is not None and base() is not None
        assert conjugate_variant(corpus.generate_suite("prop-2.4", 1729)).table is table()

    def test_a_seeded_suite_goes_when_the_next_seeded_suite_is_built(self, monkeypatch):
        weakly_referenced(monkeypatch, corpus, "CategoryInstance")
        instance = weakref.ref(corpus.generate_suite("prop-3.2", 1729)[0])
        for name in ("prop-5.3", "mx-family", "gradings"):
            corpus.generate_suite(name, 1729)
            gc.collect()
            assert instance() is not None, name
        corpus.generate_suite("prop-2.4", 2)
        gc.collect()
        assert instance() is None

    def test_an_unknown_suite_caches_nothing(self, monkeypatch):
        builds = recorded_builds(monkeypatch)
        held = corpus.generate_suite("groupoids", 2)
        with pytest.raises(UnknownSuite):
            corpus.generate_suite("nonsense")
        assert corpus.generate_suite("groupoids", 2) == held
        assert builds == [("groupoids", 2)]

    def test_an_unhashable_seed_raises_and_holds_nothing(self, monkeypatch):
        # a seeded suite is held by its seed, so the seed must hash; a
        # seedless suite never reads it
        builds = recorded_builds(monkeypatch)
        held = corpus.generate_suite("groupoids", 2)
        with pytest.raises(TypeError):
            corpus.generate_suite("groupoids", [1])
        mx = corpus.generate_suite("mx-family")
        assert corpus.generate_suite("mx-family", [1]) == mx
        assert corpus.generate_suite("groupoids", 2) == held
        assert builds == [("groupoids", 2), ("mx-family", None)]

    def test_forget_held_work_frees_every_held_part(self, monkeypatch):
        categories = weakly_referenced(monkeypatch, sc, "SmallCategory")
        monkeypatch.setattr(strength, "report", lambda t, report=strength.report: Report(report(t)))
        variant_tables = []
        for seed in (1729, 2):
            for name in corpus.available_suites():
                corpus.generate_suite(name, seed)
            variant_tables.append(conjugate_variant(corpus.generate_suite("prop-2.4", seed)).table)
        compose = corpus.generate_suite("groupoids", 1729)[0].category.compose
        suite = corpus.generate_suite("prop-2.4", 2)  # the seeded suite held last
        held = [suite[0].table, *variant_tables, corpus._prop24_base()[0]._units]
        held += [inst.grading for inst in corpus.generate_suite("gradings")]
        held += [inst.algebra.grading for inst in corpus.generate_suite("prop-5.3")]
        held.append(next(iter(corpus._held["category recipes"].values()))._homset_report)
        held.append(corpus.generate_suite("prop-5.3")[0].algebra.grading.induced_table)
        refs = [weakref.ref(x) for x in held]
        del suite, held, variant_tables
        gc.collect()
        # the recipe's build outlives the dropped suite of its instance
        assert [c for c in categories if c() is not None and c().compose is compose]
        assert refs[-2]() is not None  # and so does its report
        assert refs[-1]() is not None  # a held grading holds its induced table
        assert fr._span.cache_info().currsize > 0
        corpus.forget_held_work()
        gc.collect()
        assert len(refs) == 4 + 34 + 28 + 1 + 1
        assert not [r for r in refs if r() is not None]
        assert not [c for c in categories if c() is not None]
        assert fr._span.cache_info().currsize == 0


# the suite seeds perfbench draws from
POOL_SEEDS = (1729, 1, 2, 3, 4, 5, 6, 7)


class TestHeldWorkAcrossSeeds:
    """Work held from one suite seed to the next: what the lattice-free
    drivers leave held after four seeds in one process is what a fresh build
    gives, and each category recipe and each idempotent set is built once."""

    def test_held_instances_read_as_fresh_builds(self, monkeypatch):
        suites = {}
        generate = corpus.generate_suite

        def recording(name, seed=None):
            suite = generate(name, seed)
            if name in corpus._SEEDED:
                suites[name, seed] = suite
            return suite

        monkeypatch.setattr(corpus, "generate_suite", recording)
        for seed in (1729, 1, 2, 3):
            for driver in LATTICE_FREE_DRIVERS:
                verify.run_check(driver, seed)
        prop24 = [inst for (name, _), suite in suites.items() if name == "prop-2.4" for inst in suite]
        assert len(prop24) == 4 * 250
        mismatched = [
            inst.name for inst in prop24
            if inst.table.report
            != idem.peirce_table(idem.validate_complete_set(inst.ring, inst.idempotents)).report
        ]
        assert mismatched == []
        categories = {key: suite for key, suite in suites.items() if key[0] != "prop-2.4"}
        assert sorted(categories) == sorted(
            (name, seed) for name in ("prop-3.2", "groupoids") for seed in (1729, 1, 2, 3)
        )
        # the prop-5.3 gradings, with the induced tables and graded reports
        # strong-equivalence left on them, and the gradings suite lent them
        held = (
            [sk.strong_idempotent_equivalence_check(inst.algebra)
             for inst in corpus.generate_suite("prop-5.3")],
            graded_reports(corpus.generate_suite("gradings")),
        )
        for (name, seed), suite in categories.items():
            corpus.forget_held_work()
            fresh = corpus._SEEDED[name](seed)
            assert category_suite_content(suite) == category_suite_content(fresh), (name, seed)
        corpus.forget_held_work()
        fresh_prop53 = corpus._suite_prop53()
        assert held[0] == [sk.strong_idempotent_equivalence_check(inst.algebra)
                           for inst in fresh_prop53]
        assert held[1] == graded_reports(corpus._suite_gradings())
        assert len(held[0]) == 28 and sum(type(r) is strength.StrongnessReport for r in held[1]) > 0

    def test_each_recipe_is_built_once_over_the_pool_seeds(self, monkeypatch):
        # a union recipe asks for its parts on its one build
        recipes = set()
        build = corpus._build
        monkeypatch.setattr(corpus, "_build", lambda recipe: recipes.add(recipe) or build(recipe))
        builds = counted(monkeypatch, sc, "make_category")
        passes = []
        for _ in range(2):
            for seed in POOL_SEEDS:
                for name in ("prop-3.2", "groupoids"):
                    corpus.generate_suite(name, seed)
            passes.append(len(builds))
        assert passes == [len(recipes)] * 2 == [526] * 2

    def test_every_instance_of_a_recipe_holds_its_own_category_and_one_report(self):
        # perfbench's CLI input writer keys its files on the category object
        for name in ("prop-3.2", "groupoids"):
            for seed in (1729, 3):
                suite = corpus.generate_suite(name, seed)
                assert len({id(inst.category) for inst in suite}) == len(suite)
                builds = {id(c.compose): c for c in corpus._held["category recipes"].values()}
                for inst in suite:
                    report = builds[id(inst.category.compose)]._homset_report
                    assert report is not None and inst.category._homset_report is report

    def test_mx_family_reads_the_held_recipe_builds(self):
        # the instances stay alive, so no id below is reused
        instances = corpus.generate_suite("prop-3.2", 1729) + corpus.generate_suite("groupoids", 1729)
        builds = corpus._held["category recipes"]
        held = len(builds)
        mx = corpus.generate_suite("mx-family")
        assert len(builds) == held + 1  # mx_transf2_s3 alone is new
        assert len({id(inst.category) for inst in mx}) == 15
        assert not {id(inst.category) for inst in mx} & {id(inst.category) for inst in instances}
        for inst in mx:
            build = builds["mx", inst.monoid, inst.set_size]
            assert inst.category is not build and inst.category.compose is build.compose
            assert inst.category._homset_report is build._homset_report

    def test_each_recipe_report_is_evaluated_once_over_the_strength_seeds(self, monkeypatch):
        # 361 recipe builds, parts and the 15 mx-family ones included (14
        # of those are prop-3.2 or groupoids recipes too); the categories of
        # the prop-5.3 algebras, the prop-2.4 base algebras and the mutation
        # matrix are recipes the seeded suites draw as well, so they add no
        # evaluation; a second pass evaluates none
        tables = []
        report = strength.report
        monkeypatch.setattr(strength, "report", lambda t: tables.append(t) or report(t))
        passes = []
        for _ in range(2):
            for seed in (1729, 1, 2, 3):
                for driver in LATTICE_FREE_DRIVERS:
                    verify.run_check(driver, seed)
            passes.append(sum(t.third_zero == "third hom-set is empty" for t in tables))
            tables.clear()
        assert len(corpus._held["category recipes"]) == 361
        assert passes == [361, 0]

    def test_each_idempotent_set_is_validated_once_over_the_pool_seeds(self, monkeypatch):
        tables = counted(monkeypatch, idem, "peirce_table")
        validations = counted(monkeypatch, idem, "validate_complete_set")
        sets = set()
        passes = []
        for _ in range(2):
            for seed in POOL_SEEDS:
                for inst in corpus.generate_suite("prop-2.4", seed):
                    inst.table
                    sets.add((id(inst.ring), tuple(e.coords for e in inst.idempotents)))
            passes.append((len(tables), len(validations)))
        assert passes == [(len(sets),) * 2] * 2 == [(142,) * 2] * 2


class TestOneRecipePath:
    """The fixed categories of prop-5.3, gradings and the named skew systems
    come from their recipes' one build, while each keeps the object sharing
    perfbench's CLI input writer names its files by."""

    def test_prop53_validates_each_recipe_once(self, monkeypatch):
        # 13 named categories, the union's thin part and c4 under a named
        # system; the union's c2 part is the two c2 systems' category
        builds = counted(monkeypatch, sc, "make_category")
        corpus.generate_suite("prop-5.3")
        assert len(builds) == len(corpus._held["category recipes"]) == 16

    def test_gradings_then_prop53_validate_each_recipe_once(self, monkeypatch):
        # the CLI input writer's order: gradings builds its own prop-5.3
        # algebras, over the builds the later prop-5.3 suite reads again
        builds = counted(monkeypatch, sc, "make_category")
        corpus.generate_suite("gradings")
        corpus.generate_suite("prop-5.3")
        assert len(builds) == 16

    def test_prop53_shares_a_category_object_only_within_one_named_category(self):
        gradings = corpus.generate_suite("gradings")
        algebras = {inst.name: inst.algebra for inst in corpus.generate_suite("prop-5.3")}
        category = {name: id(a.system.category) for name, a in algebras.items()}
        assert category["arrow_z2"] == category["arrow_z3"]
        # one object per named category, each of its own, and one per system
        assert len(set(category.values())) == 13 + len(corpus._NAMED_SYSTEMS) == 17
        assert not set(category.values()) & {id(inst.grading.category) for inst in gradings}

    def test_each_named_system_builds_its_own_ring_and_category(self):
        first = corpus._named_skew_algebra("c2_swap_z3z3").system
        second = corpus._named_skew_algebra("c2_swap_z3z3").system
        assert first.category is not second.category
        assert first.category.compose is second.category.compose
        assert not set(map(id, first.object_rings)) & set(map(id, second.object_rings))
        # one ring read by both objects; the cross arrows carry the Frobenius
        pair = corpus._named_skew_algebra("pair_groupoid_frobenius_f4").system
        assert pair.object_rings[0] is pair.object_rings[1]
        c = pair.category
        assert [tuple(map(tuple, m)) for m in pair.maps] == [
            corpus.EYE2 if c.dom[g] == c.cod[g] else corpus.FROBENIUS for g in range(4)
        ]

    def test_an_unknown_named_system_is_refused(self):
        with pytest.raises(corpus.ParameterOutOfRange, match="unknown named system"):
            corpus._named_skew_algebra("c3_swap_z3z3")


def graded_reports(suite) -> list:
    """Each grading's hom-set report, or the type and message of the
    hypothesis error it raises."""
    out = []
    for inst in suite:
        try:
            out.append(gr.homset_strongly_graded_report(inst.grading))
        except (NotObjectUnital, CategoryNotHomSetStrong) as exc:
            out.append((type(exc), str(exc)))
    return out


def counted(monkeypatch, module, name: str) -> list:
    """The arguments of every call to ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def conjugate_variant(suite) -> corpus.RingWithIdempotents:
    """The first prop-2.4 instance drawn from the seed."""
    return next(inst for inst in suite if "_conj" in inst.name)


def weakly_referenced(monkeypatch, module, name: str) -> list:
    """Weak references to every instance of ``module.name`` made from now
    on: the class, which has slots and takes none, is swapped for a subclass
    that takes them and records each instance."""
    refs = []
    cls = getattr(module, name)

    class Recorded(cls):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(module, name, Recorded)
    return refs


class Report:
    """A strength report that takes weak references (a NamedTuple takes
    none), reading every field and property through to the report."""

    __slots__ = ("report", "__weakref__")

    def __init__(self, report):
        self.report = report

    def __getattr__(self, name):
        return getattr(self.report, name)


class TestHeldTables:
    """A prop-2.4 instance holds the Peirce table of its validated set."""

    def test_a_set_that_fails_validation_raises_on_every_read(self, m2f2):
        inst = corpus.RingWithIdempotents("e11_alone", m2f2, (m2f2.basis_element(0),))
        for _ in range(2):
            with pytest.raises(NotComplete) as caught:
                inst.table
            assert caught.type is NotComplete and inst._table is None

    def test_held_work_goes_without_the_cyclic_collector(self, monkeypatch):
        # a table or category in a reference cycle (say, a table the ring
        # held) would outlive its hold until the cyclic collector ran, so
        # that collector is off
        categories = weakly_referenced(monkeypatch, sc, "SmallCategory")
        weakly_referenced(monkeypatch, corpus, "RingWithIdempotents")
        verify.verify_prop_24(1729)
        verify.verify_prop_lattice(1729)
        verify.verify_prop_32(1729)
        verify.verify_strong_equivalence(1729)
        induced = weakref.ref(corpus.generate_suite("prop-5.3")[0].algebra.grading.induced_table)
        variant = conjugate_variant(corpus.generate_suite("prop-2.4", 1729))
        instance, table = weakref.ref(variant), weakref.ref(variant.table)
        del variant
        enabled = gc.isenabled()
        gc.disable()
        try:
            corpus.generate_suite("groupoids", 1729)
            assert instance() is None
            assert table() is not None and induced() is not None
            assert [c for c in categories if c() is not None]
            corpus.forget_held_work()
            assert table() is None and induced() is None
            assert not [c for c in categories if c() is not None]
        finally:
            if enabled:
                gc.enable()


# every prop-2.4 instance's name, idempotent coordinates and expected verdict;
# a change to how a conjugate variant picks its unit changes these
PROP24_SUITE_DIGESTS = {
    1729: "df28d3364e34c7c2d45f0bce01e79fd01fffa0db92c59f956ad9ad8872cb34fc",
    1: "0f0e319901cbf4803613dfbd5296515ec233d04cbcee898b8c0a5f2900430dbf",
    2: "263d627c6211e3a3fbc63f95b17e72b07d5a348ac7f446016f8c45570e90488a",
    3: "db255e235c2c0c2f2488b5c962dfbcd636da1ec221f8157d977b553962849e8b",
    4: "facc4b9d7c54030337cd5e5f5bf3fa0cc137f129db8a3137d5e466efa4ddd182",
    5: "aeae740136b94a7e6833af2c9006368c21b64312ee65ab4708aef56955028702",
    6: "89c0faf89c4d326c97eb92c59dd62e5bc231ba060350af5cf54072a7d974d8d6",
    7: "71f7fb72da234dd72275e2b153ae595ce1687a4e3ab6ed042270680b01901fe2",
}


@pytest.mark.parametrize("seed", sorted(PROP24_SUITE_DIGESTS))
def test_prop24_suite_matches_recorded_digest(seed):
    h = hashlib.sha256()
    instances = corpus.generate_suite("prop-2.4", seed)
    for inst in instances:
        record = [inst.name, [list(e.coords) for e in inst.idempotents], inst.expect_strong]
        h.update(json.dumps(record).encode() + b"\n")
    assert (len(instances), h.hexdigest()) == (250, PROP24_SUITE_DIGESTS[seed])


# each monoid table written out; entry [i][j] is the index of the product of
# elements i and j (for s3 and transf2, the map i after the map j)
PINNED_MONOID_TABLES = {
    "c1": ((0,),),
    "c2": ((0, 1), (1, 0)),
    "c3": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    "c4": ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)),
    "c5": (
        (0, 1, 2, 3, 4), (1, 2, 3, 4, 0), (2, 3, 4, 0, 1), (3, 4, 0, 1, 2), (4, 0, 1, 2, 3),
    ),
    "c6": (
        (0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0), (2, 3, 4, 5, 0, 1),
        (3, 4, 5, 0, 1, 2), (4, 5, 0, 1, 2, 3), (5, 0, 1, 2, 3, 4),
    ),
    "v4": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    "s3": (
        (0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4),
        (3, 2, 5, 4, 0, 1), (4, 5, 1, 0, 3, 2), (5, 4, 3, 2, 1, 0),
    ),
    "bool2": ((0, 0), (0, 1)),
    "transf2": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 2, 2, 2), (3, 3, 3, 3)),
    "leftzero3": ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
}


@pytest.mark.parametrize("name", sorted(PINNED_MONOID_TABLES))
def test_monoid_table_matches_the_written_table(name):
    assert corpus.MONOID_TABLES[name] == PINNED_MONOID_TABLES[name]


def test_monoid_tables_are_the_written_ones():
    assert list(corpus.MONOID_TABLES) == list(PINNED_MONOID_TABLES)
    for table in corpus.MONOID_TABLES.values():
        assert type(table) is tuple and all(type(row) is tuple for row in table)


def test_skew_maps_are_the_written_ones():
    assert (corpus.EYE2, corpus.SWAP, corpus.FROBENIUS) == (
        ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1)),
    )


# every base instance of prop-2.4: name, modulus, structure constants,
# idempotent coordinates and expected verdict; a change to how a base ring or
# its set is built changes this, before any conjugate variant is drawn
PROP24_BASE_DIGEST = "4578e3bf2fb6460ca5cda3e834686bc681a47d36d8e4ad422390abf3a08f5b79"


def test_prop24_base_instances_match_recorded_digest():
    h = hashlib.sha256()
    instances = list(corpus._prop24_base())
    for inst in instances:
        coords = [list(e.coords) for e in inst.idempotents]
        record = [inst.name, inst.ring.modulus, inst.ring.constants, coords, inst.expect_strong]
        h.update(json.dumps(record).encode() + b"\n")
    assert (len(instances), h.hexdigest()) == (25, PROP24_BASE_DIGEST)


def pinned_inverse(units, idx):
    """Element ``idx``'s inverse as ``_Units.inverse`` found it by a solve:
    q with p * q = one from the Howell form of [L_p | I], then q * p = one
    rechecked; None for a non-unit."""
    ring, one, p = units.ring, units.one.coords, units.vectors[idx]
    q = howell.solve_row(ring.left_mul_matrix(p), one, ring.modulus)
    if q is not None and ring.mul_vec(q, p) != one:
        q = None
    return q


# every element of the 22 distinct base rings of prop-2.4: 1,276 elements, 406
# of them units
def test_inverses_match_the_pinned_solve():
    rings = {id(inst.ring): inst.ring for inst in corpus._prop24_base()}
    elements = units = 0
    for ring in rings.values():
        table = corpus._Units(ring)
        for idx in range(len(table.vectors)):
            q = table.inverse(idx)
            assert q == pinned_inverse(table, idx), (ring, table.vectors[idx])
            elements += 1
            units += q is not None
    assert (len(rings), elements, units) == (22, 1276, 406)


# every prop-3.2 and groupoids instance's name and category content; a change
# to how a suite builds or shares its categories that alters any of them
# changes these
CATEGORY_SUITE_DIGESTS = {
    ("prop-3.2", 1729): (503, "0a50b7f616529afdb1af4448e39bb41fc4b84bf6a4f2af4a9bc7875cb042f335"),
    ("prop-3.2", 3): (503, "34a8cb7f4627e94c9eae57ca03ef20a9ee04dc3a8a06e18bd3cc8cc16850da2e"),
    ("groupoids", 1729): (110, "a384e8b065dbc874ebd0a2969f0ca97016ecef9e278268755b43ab2055bc823a"),
    ("groupoids", 3): (110, "d06747d3ec0ad456db85047b61f2440c9ace2de7aefa292e2f162f81fe4cc8a8"),
}


@pytest.mark.parametrize("name,seed", sorted(CATEGORY_SUITE_DIGESTS))
def test_category_suite_matches_recorded_digest(name, seed):
    h = hashlib.sha256()
    instances = corpus.generate_suite(name, seed)
    for inst in instances:
        h.update(json.dumps([inst.name, category_content(inst.category)]).encode() + b"\n")
    assert (len(instances), h.hexdigest()) == CATEGORY_SUITE_DIGESTS[name, seed]


# the seeds and the CLI's input digests hash with the interpreter's built-in
# SHA-256; it must give hashlib's bytes on each side of the 55/56-byte padding
# boundary and of the 64-byte block, and on a long input
@pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 1 << 20])
def test_builtin_sha256_matches_hashlib(size):
    data = (bytes(range(251)) * (size // 251 + 1))[:size]
    assert corpus.sha256(data).digest() == hashlib.sha256(data).digest()


# every mutant's name, expected error and payload, with elements as coordinates
# and subgroups as their Howell rows
MUTATION_MATRIX_DIGEST = "d4032657728f1e4b9783bceafd31ee02eb8044ec85e3017db2656ece236d68f2"


class TestMutations:
    def test_matrix_covers_all_targets(self):
        cases = corpus.mutation_matrix()
        names = {name for name, _ in cases}
        assert len(cases) == len(names) == 15

    def test_each_mutant_fails_with_exact_error(self):
        for name, case in corpus.mutation_matrix():
            with pytest.raises(Exception) as exc:
                case.revalidate()
            assert type(exc.value) is case.expected_error, name

    def test_payloads_match_recorded_digest(self):
        h = hashlib.sha256()
        for name, case in corpus.mutation_matrix():
            record = [name, case.expected_error.__name__, plain(case.payload)]
            h.update(json.dumps(record).encode() + b"\n")
        assert h.hexdigest() == MUTATION_MATRIX_DIGEST


def fixpoint_closure(object_count, pairs):
    """The pairwise fixpoint the closure was first computed by, kept as the
    reference for it."""
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
    return tuple(sorted(rel))


class TestThinCategories:
    def test_closure_matches_the_fixpoint_on_every_small_relation(self):
        # every relation on 1 to 4 objects: 1 + 4 + 64 + 4,096
        relations = 0
        for p in range(1, 5):
            candidates = [(a, b) for a in range(p) for b in range(p) if a != b]
            for mask in range(1 << len(candidates)):
                pairs = [ab for i, ab in enumerate(candidates) if mask >> i & 1]
                assert corpus._closure(p, pairs) == fixpoint_closure(p, pairs), (p, pairs)
                relations += 1
        assert relations == 4165

    def test_relation_closure(self):
        cat = corpus.thin_category_from_relation(3, [(0, 1), (1, 2)])
        # reflexive (3) + given (2) + transitive (0,2) = 6 arrows
        assert cat.morphism_count == 6

    def test_equivalence_relation_is_homset_strong(self):
        cat = corpus.thin_category_from_relation(2, [(0, 1), (1, 0)])
        assert sc.homset_strong_report(cat).strong

    def test_one_way_relation_is_not_homset_strong(self):
        cat = corpus.thin_category_from_relation(2, [(0, 1)])
        assert not sc.homset_strong_report(cat).strong


class TestDisjointUnion:
    def test_union_of_groupoids_is_groupoid(self):
        a = sc.build_MX(corpus.MONOID_TABLES["c2"], 1)
        b = sc.build_MX(corpus.MONOID_TABLES["c1"], 2)
        u = corpus.disjoint_union([a, b])
        assert u.object_count == 3
        assert u.morphism_count == 6
        assert sc.is_groupoid(u).is_groupoid
        assert sc.homset_strong_report(u).strong
