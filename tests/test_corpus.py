"""Generator determinism, suite contracts, mutation targetedness."""

import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench.errors import CannotTarget, UnknownSuite


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
        suite = corpus.generate_suite("prop-3.2")
        assert len(suite) >= 500
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

    def test_cannot_target_orthogonality_of_singleton(self):
        ring = corpus.matrix_units_ring(2, 2)
        inst = corpus.RingWithIdempotents(
            "unit", ring, (fr.find_identity(ring),), True
        )
        with pytest.raises(CannotTarget):
            corpus.mutate(inst, corpus.Mutation("NotOrthogonal", "duplicate"))

    def test_cannot_break_associativity_of_rank_one_ring(self):
        ring = corpus.cyclic_ring(4)
        with pytest.raises(CannotTarget):
            corpus.mutate(ring, corpus.Mutation("NotAssociative", "perturb"))

    def test_mutate_is_deterministic(self):
        ring = corpus.matrix_units_ring(2, 2)
        a = corpus.mutate(ring, corpus.Mutation("NotAssociative", "perturb", seed=3))
        b = corpus.mutate(ring, corpus.Mutation("NotAssociative", "perturb", seed=3))
        assert a.payload == b.payload


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
