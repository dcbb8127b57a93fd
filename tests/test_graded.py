"""Grading validation, object unitality, strength, induced idempotents."""

import collections

import numpy as np
import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench import strength
from ringbench import verify
from ringbench.errors import (
    CategoryNotHomSetStrong,
    GradingViolation,
    InvariantViolation,
    NotComplete,
    NotDirectSum,
    NotObjectUnital,
    ShapeMismatch,
)


@pytest.fixture(scope="module")
def matrix_grading():
    return corpus._matrix_grading_m2(2)


@pytest.fixture(scope="module")
def arrow_grading():
    """Upper triangular matrices graded by the single-arrow category.

    Morphism order of the thin category is (0,0), (0,1), (1,1).  The arrow
    0 -> 1 carries span{E12}; the identity components carry the diagonal
    matrix units whose unit laws match the arrow's endpoints (E11 acts on
    E12 from the left, E22 from the right)."""
    ring = corpus.upper_triangular_ring(2, 2)
    arrow = corpus.thin_category_from_relation(2, [(0, 1)])
    comps = [
        ring.span([np.array([0, 0, 1])]),  # identity of object 0: E22
        ring.span([np.array([0, 1, 0])]),  # the arrow: E12
        ring.span([np.array([1, 0, 0])]),  # identity of object 1: E11
    ]
    return gr.attach_grading(ring, arrow, comps)


class TestAttachGrading:
    def test_matrix_grading_valid(self, matrix_grading):
        assert matrix_grading.ring.order == 16
        assert all(c.order == 2 for c in matrix_grading.components)

    def test_trivial_category_grading(self, trivial_category, m2f2):
        g = gr.attach_grading(m2f2, trivial_category, [m2f2.full_subgroup()])
        assert g.hom_component(0, 0).order == m2f2.order

    def test_misplaced_component_rejected(self, matrix_grading):
        comps = list(matrix_grading.components)
        comps[1], comps[2] = comps[2], comps[1]
        with pytest.raises(GradingViolation) as exc:
            gr.attach_grading(matrix_grading.ring, matrix_grading.category, comps)
        assert exc.value.witness is not None

    def test_no_product_subgroup_is_spanned(self, matrix_grading, monkeypatch):
        calls = []
        product = fr.product_subgroup
        monkeypatch.setattr(gr, "product_subgroup", lambda a, b: calls.append(1) or product(a, b))
        ring, category = matrix_grading.ring, matrix_grading.category
        gr.attach_grading(ring, category, matrix_grading.components)
        comps = list(matrix_grading.components)
        comps[1], comps[2] = comps[2], comps[1]
        with pytest.raises(GradingViolation):
            gr.attach_grading(ring, category, comps)
        assert calls == []

    def test_incomplete_components_rejected(self, matrix_grading):
        comps = list(matrix_grading.components)
        comps[1] = matrix_grading.ring.zero_subgroup()
        with pytest.raises(NotDirectSum):
            gr.attach_grading(matrix_grading.ring, matrix_grading.category, comps)

    def test_short_component_sequence_rejected(self, matrix_grading):
        with pytest.raises(ShapeMismatch, match="expected 4 components, got 1"):
            gr.attach_grading(
                matrix_grading.ring,
                matrix_grading.category,
                matrix_grading.components[:1],
            )

    def test_zero_components_allowed(self, pair_groupoid):
        ring = fr.direct_product([corpus.cyclic_ring(2), corpus.cyclic_ring(2)])
        comps = [
            ring.span([np.array([1, 0])]),
            ring.zero_subgroup(),
            ring.zero_subgroup(),
            ring.span([np.array([0, 1])]),
        ]
        g = gr.attach_grading(ring, pair_groupoid, comps)
        assert g.components[1].is_zero()


class TestObjectUnital:
    def test_matrix_grading_units(self, matrix_grading):
        result = gr.object_unital_check(matrix_grading)
        assert result.object_unital
        assert {u.coords for u in result.units} == {(1, 0, 0, 0), (0, 0, 0, 1)}

    def test_zero_multiplication_ring_fails(self, trivial_category, zero_ring_2):
        g = gr.attach_grading(zero_ring_2, trivial_category, [zero_ring_2.full_subgroup()])
        result = gr.object_unital_check(g)
        assert not result.object_unital
        assert result.witness is not None

    def test_unital_ring_trivial_grading(self, trivial_category, m2f2):
        g = gr.attach_grading(m2f2, trivial_category, [m2f2.full_subgroup()])
        result = gr.object_unital_check(g)
        assert result.object_unital
        assert result.units[0] == fr.find_identity(m2f2)


class TestStronglyGraded:
    def test_matrix_grading_is_strong(self, matrix_grading):
        assert gr.strongly_graded_check(matrix_grading)

    def test_arrow_grading_is_strong(self, arrow_grading):
        # all composable products surject; the failure mode of this grading is
        # hom-set strength of the category, not strong gradedness
        assert gr.strongly_graded_check(arrow_grading)

    def test_zero_component_on_invertible_morphism_fails(self, pair_groupoid):
        ring = fr.direct_product([corpus.cyclic_ring(2), corpus.cyclic_ring(2)])
        comps = [
            ring.span([np.array([1, 0])]),
            ring.zero_subgroup(),
            ring.zero_subgroup(),
            ring.span([np.array([0, 1])]),
        ]
        g = gr.attach_grading(ring, pair_groupoid, comps)
        assert not gr.strongly_graded_check(g)


class TestHomSetStronglyGraded:
    def test_matrix_grading_report(self, matrix_grading):
        report = gr.homset_strongly_graded_report(matrix_grading)
        assert report.strong and report.agree and gr.corner_identity_check(matrix_grading)[0]

    def test_trivial_grading_report(self, trivial_category, m2f2):
        g = gr.attach_grading(m2f2, trivial_category, [m2f2.full_subgroup()])
        report = gr.homset_strongly_graded_report(g)
        assert report.strong and gr.corner_identity_check(g)[0]

    def test_arrow_grading_rejected_for_category(self, arrow_grading):
        with pytest.raises(CategoryNotHomSetStrong):
            gr.homset_strongly_graded_report(arrow_grading)

    def test_not_object_unital_rejected(self, trivial_category, zero_ring_2):
        g = gr.attach_grading(zero_ring_2, trivial_category, [zero_ring_2.full_subgroup()])
        with pytest.raises(NotObjectUnital):
            gr.homset_strongly_graded_report(g)

    def test_each_product_formed_once_per_report(self, monkeypatch):
        calls = []
        product = fr.product_subgroup

        def counting(a, b):
            calls.append((id(a), id(b)))
            return product(a, b)

        monkeypatch.setattr(gr, "product_subgroup", counting)
        reports = 0
        for inst in corpus.generate_suite("gradings"):
            # the report's first evaluation, from no report held; neither
            # hypothesis check forms a product
            if not gr.object_unital_check(inst.grading).object_unital:
                continue
            if not sc.homset_strong_report(inst.grading.category).strong:
                continue
            assert "homset_report" not in vars(inst.grading), inst.name
            calls.clear()
            gr.homset_strongly_graded_report(inst.grading)
            assert calls and len(calls) == len(set(calls)), inst.name
            reports += 1
        assert reports > 0

    def test_corner_identity_without_strength_hypothesis(self, arrow_grading):
        ok, witness = gr.corner_identity_check(arrow_grading)
        assert ok and witness is None


class TestInducedIdempotents:
    def test_matrix_grading_induces_strong_set(self, matrix_grading):
        iset = gr.induced_idempotents(matrix_grading)
        assert iset.size == 2
        assert idem.is_strong(iset)

    def test_trivial_grading_induces_unit(self, trivial_category, m2f2):
        g = gr.attach_grading(m2f2, trivial_category, [m2f2.full_subgroup()])
        iset = gr.induced_idempotents(g)
        assert iset.elements == (fr.find_identity(m2f2),)

    def test_arrow_grading_induces_valid_but_not_strong(self, arrow_grading):
        iset = gr.induced_idempotents(arrow_grading)
        assert iset.size == 2
        assert not idem.is_strong(iset)

    def test_not_object_unital_raises(self, trivial_category, zero_ring_2):
        g = gr.attach_grading(zero_ring_2, trivial_category, [zero_ring_2.full_subgroup()])
        with pytest.raises(NotObjectUnital):
            gr.induced_idempotents(g)

    def test_a_grading_without_local_units_raises_on_every_read(self, trivial_category, zero_ring_2):
        g = gr.attach_grading(zero_ring_2, trivial_category, [zero_ring_2.full_subgroup()])
        for _ in range(2):
            with pytest.raises(NotObjectUnital):
                gr.induced_idempotents(g)
            with pytest.raises(NotObjectUnital):
                gr.homset_strongly_graded_report(g)
            assert not {"induced_set", "induced_table", "homset_report"} & vars(g).keys()

    def test_units_that_fail_validation_raise_on_every_read(self, monkeypatch):
        # no object unital grading reaches this path, so the validator is
        # made to refuse; the set, its table and the report stay unheld
        g = corpus._matrix_grading_m2(2)
        calls = []

        def refusing(ring, units):
            calls.append(units)
            raise NotComplete("left")

        monkeypatch.setattr(gr, "validate_complete_set", refusing)
        for _ in range(2):
            with pytest.raises(InvariantViolation) as caught:
                g.induced_table
            assert type(caught.value.__cause__) is NotComplete
            assert not {"induced_set", "induced_table"} & vars(g).keys()
        assert len(calls) == 2

    def test_a_category_that_is_not_homset_strong_raises_on_every_read(self, arrow_grading):
        for _ in range(2):
            with pytest.raises(CategoryNotHomSetStrong):
                gr.homset_strongly_graded_report(arrow_grading)
            assert "homset_report" not in vars(arrow_grading)

    def test_the_set_its_table_and_the_report_are_held(self):
        g = corpus._matrix_grading_m2(2)
        iset = gr.induced_idempotents(g)
        assert gr.induced_idempotents(g) is iset is g.induced_table.iset
        assert g.induced_table is g.induced_table
        assert gr.homset_strongly_graded_report(g) is gr.homset_strongly_graded_report(g)


class TestFlagsAndLinkage:
    def test_flags_for_matrix_grading(self, matrix_grading):
        flags = gr.compute_flags(matrix_grading)
        assert flags.object_unital and flags.strongly_graded
        assert flags.homset_strongly_graded is True
        assert flags.induced_set is not None

    def test_flags_for_arrow_grading(self, arrow_grading):
        flags = gr.compute_flags(arrow_grading)
        assert flags.object_unital and flags.strongly_graded
        assert flags.homset_strongly_graded is None  # category hypothesis fails

    def test_homset_verdict_equals_strongness_of_induced_set(self):
        for inst in corpus.generate_suite("gradings"):
            flags = gr.compute_flags(inst.grading)
            if flags.homset_strongly_graded is None:
                continue
            assert flags.homset_strongly_graded == idem.is_strong(flags.induced_set), inst.name

    def test_strongly_graded_object_unital_groupoid_gradings_are_homset_strong(self):
        for inst in corpus.generate_suite("gradings"):
            if not sc.is_groupoid(inst.grading.category).is_groupoid:
                continue
            flags = gr.compute_flags(inst.grading)
            if flags.object_unital and flags.strongly_graded:
                assert flags.homset_strongly_graded is True, inst.name

    def test_corner_identity_on_all_object_unital_gradings(self):
        for inst in corpus.generate_suite("gradings"):
            if gr.object_unital_check(inst.grading).object_unital:
                ok, witness = gr.corner_identity_check(inst.grading)
                assert ok, (inst.name, witness)

    def test_graded_tri_equivalence_on_admissible_instances(self):
        seen_false = False
        for inst in corpus.generate_suite("gradings"):
            if not gr.object_unital_check(inst.grading).object_unital:
                continue
            if not sc.homset_strong_report(inst.grading.category).strong:
                continue
            report = gr.homset_strongly_graded_report(inst.grading)
            assert report.agree, inst.name
            seen_false = seen_false or not report.strong
        assert seen_false  # the suite must exercise a negative admissible case

    def test_hom_components_decompose_the_ring(self):
        for inst in corpus.generate_suite("gradings"):
            g = inst.grading
            p = g.category.object_count
            total = g.ring.zero_subgroup()
            prod = 1
            for a in range(p):
                for b in range(p):
                    comp = g.hom_component(a, b)
                    total = total.join(comp)
                    prod *= comp.order
            assert prod == g.ring.order, inst.name
            assert total == g.ring.full_subgroup(), inst.name


class TestVerdictsOncePerGrading:
    def test_object_unitality_evaluated_once_per_grading(self, monkeypatch):
        calls = []
        identity = fr.subring_identity

        def counting(ring, sub):
            calls.append(sub)
            return identity(ring, sub)

        monkeypatch.setattr(gr, "subring_identity", counting)
        suite = corpus.generate_suite("gradings")
        calls.clear()
        for inst in suite:
            before = len(calls)
            if gr.compute_flags(inst.grading).object_unital:
                gr.corner_identity_check(inst.grading)
            # one unit search per identity component, unless the suite build
            # (a skew algebra's) made them already
            assert len(calls) - before in (0, inst.grading.category.object_count), inst.name
        assert calls
        calls.clear()
        for inst in suite:
            gr.object_unital_check(inst.grading)
        assert not calls

    def test_prop_53_driver_forms_only_the_builds_products(self, monkeypatch):
        calls = []
        product = fr.product_subgroup

        def counting(a, b):
            calls.append((a, b))
            return product(a, b)

        monkeypatch.setattr(gr, "product_subgroup", counting)
        corpus.generate_suite("prop-5.3", 1729)
        built = len(calls)
        # from no suite held, the driver builds its suite and forms no more
        corpus.forget_held_work()
        calls.clear()
        assert verify.verify_prop_53(1729).ok
        assert built > 0 and len(calls) == built
        # on the suite it just built, it forms none
        calls.clear()
        assert verify.verify_prop_53(1729).ok
        assert not calls

    def test_strong_equivalence_validates_and_tabulates_once_over_the_strength_seeds(
        self, monkeypatch
    ):
        # the 28 prop-5.3 algebras are held for the process, each grading
        # with its induced set and table
        validations, tables = [], []
        validate, table = gr.validate_complete_set, gr.peirce_table
        monkeypatch.setattr(
            gr, "validate_complete_set",
            lambda ring, units: validations.append(units) or validate(ring, units),
        )
        monkeypatch.setattr(gr, "peirce_table", lambda iset: tables.append(iset) or table(iset))
        per_seed = []
        for seed in (1729, 1, 2, 3):
            assert verify.verify_strong_equivalence(seed).ok
            per_seed.append((len(validations), len(tables)))
            validations.clear()
            tables.clear()
        assert per_seed == [(28, 28), (0, 0), (0, 0), (0, 0)]

    def test_hom_components_spanned_once_per_grading(self, monkeypatch):
        spans = collections.Counter()
        hom_component = gr.Grading.hom_component

        def counting(self, a, b):
            spans[self] += 1
            return hom_component(self, a, b)

        monkeypatch.setattr(gr.Grading, "hom_component", counting)
        reports = 0
        for inst in corpus.generate_suite("gradings"):
            # check-grading's path: the flags, then the corner law
            flags = gr.compute_flags(inst.grading)
            if flags.object_unital:
                gr.corner_identity_check(inst.grading)
            p = inst.grading.category.object_count
            assert spans[inst.grading] == (p * p if flags.object_unital else 0), inst.name
            reports += flags.homset_report is not None
        assert reports
        checked = 0
        for inst in corpus.generate_suite("prop-5.3"):
            record = sk.strong_idempotent_equivalence_check(inst.algebra)
            p = inst.algebra.category.object_count
            expected = p * p if record.graded_report_ok is not None else 0
            assert spans[inst.algebra.grading] == expected, inst.name
            checked += expected > 0
        assert checked

    def test_corner_identity_evaluated_once_per_grading(self, monkeypatch):
        # the gradings suite lends the held prop-5.3 gradings, so the
        # corner-identity driver reads what strong-equivalence evaluated
        rings = []
        sandwich = fr.FiniteRing.sandwich
        monkeypatch.setattr(
            fr.FiniteRing, "sandwich", lambda self, x, y: rings.append(self) or sandwich(self, x, y)
        )
        assert verify.verify_strong_equivalence(1729).ok
        evaluated = {id(ring) for ring in rings}
        rings.clear()
        result = verify.verify_corner_identity(1729)
        assert result.ok and result.checked
        lent = {id(inst.grading.ring) for inst in corpus.generate_suite("gradings", 1729)}
        assert evaluated and evaluated <= lent
        assert rings and not evaluated & {id(ring) for ring in rings}


def category_evaluations(monkeypatch) -> list:
    """The category tables strength.condition1 is asked to judge from now on."""
    calls = []
    condition1 = strength.condition1

    def counting(t):
        if t.third_zero == "third hom-set is empty":
            calls.append(t)
        return condition1(t)

    monkeypatch.setattr(strength, "condition1", counting)
    return calls


class TestReportOncePerCategory:
    def test_one_category_is_judged_once(self, monkeypatch):
        calls = category_evaluations(monkeypatch)
        grading = corpus._matrix_grading_m2(2)
        category = grading.category
        report = sc.homset_strong_report(category)
        assert sc.finiteness_report(category).homset_strong == report.strong
        flags = gr.compute_flags(grading)
        assert flags.homset_report is not None
        assert gr.homset_strongly_graded_report(grading) == flags.homset_report
        assert sc.homset_strong_report(category) is report
        assert len(calls) == 1

    def test_compute_flags_over_the_gradings_suite(self, monkeypatch):
        calls = category_evaluations(monkeypatch)
        suite = corpus.generate_suite("gradings", 1729)
        for inst in suite:
            gr.compute_flags(inst.grading)
        judged = {id(inst.grading.category) for inst in suite
                  if inst.grading.category._homset_report is not None}
        # one evaluation per recipe: the 21 category objects read the held
        # reports of 16 builds, prop-5.3's 13 categories, the two parts of
        # its union and c4 under a named system; the gradings' own trivial
        # and pair categories are two of them
        assert (len(calls), len(judged)) == (16, 21)
