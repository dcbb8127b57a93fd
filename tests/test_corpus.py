"""Generator determinism, suite contracts, mutation targetedness."""

import hashlib
import json

import pytest

from conftest import category_content, plain
from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench.errors import UnknownSuite


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
        assert corpus.random_groupoid(5).compose == corpus.random_groupoid(5).compose
        assert corpus.random_category(5).compose == corpus.random_category(5).compose

    def test_shared_memo_returns_the_fresh_content(self):
        # one memo over every seed and builder, as a suite build shares it:
        # a key that merged two recipes (say, a groupoid's parts sorted)
        # would hand one of them the other's category
        memo = {}
        for seed in range(200):
            for build in (
                corpus.random_thin_category, corpus.random_groupoid, corpus.random_category
            ):
                shared = build(seed, memo=memo)
                assert category_content(shared) == category_content(build(seed))
                assert build(seed, memo=memo) is shared

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
        a = corpus.generate_suite("prop-2.4")
        b = corpus.generate_suite("prop-2.4")
        assert [i.name for i in a] == [i.name for i in b]
        assert all(
            tuple(x.coords for x in ia.idempotents) == tuple(x.coords for x in ib.idempotents)
            for ia, ib in zip(a, b)
        )
        c = corpus.generate_suite("prop-3.2")
        d = corpus.generate_suite("prop-3.2")
        assert all(x.category.compose == y.category.compose for x, y in zip(c, d))

    def test_seed_override_changes_random_instances(self):
        a = corpus.generate_suite("prop-3.2", seed=1)
        b = corpus.generate_suite("prop-3.2", seed=2)
        assert any(x.category.compose != y.category.compose for x, y in zip(a, b))


# every prop-2.4 instance's name, idempotent coordinates and expected verdict;
# a change to how a conjugate variant picks its unit changes these
PROP24_SUITE_DIGESTS = {
    1729: "df28d3364e34c7c2d45f0bce01e79fd01fffa0db92c59f956ad9ad8872cb34fc",
    3: "db255e235c2c0c2f2488b5c962dfbcd636da1ec221f8157d977b553962849e8b",
}


@pytest.mark.parametrize("seed", sorted(PROP24_SUITE_DIGESTS))
def test_prop24_suite_matches_recorded_digest(seed):
    h = hashlib.sha256()
    instances = corpus.generate_suite("prop-2.4", seed)
    for inst in instances:
        record = [inst.name, [list(e.coords) for e in inst.idempotents], inst.expect_strong]
        h.update(json.dumps(record).encode() + b"\n")
    assert (len(instances), h.hexdigest()) == (250, PROP24_SUITE_DIGESTS[seed])


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


class TestThinCategories:
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
