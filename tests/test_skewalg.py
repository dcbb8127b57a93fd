"""System validation, algebra assembly, equivalence and chain reports."""

import tracemalloc

import numpy as np
import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench import verify
from ringbench.errors import (
    IdentityNotIdentity,
    ModulusMismatch,
    NotFunctorial,
    NotRingIso,
    NotUnital,
    RankTooLarge,
)


@pytest.fixture(scope="module")
def c2_category():
    return sc.build_MX(corpus.MONOID_TABLES["c2"], 1)


@pytest.fixture(scope="module")
def z3z3():
    z3 = corpus.cyclic_ring(3)
    return fr.direct_product([z3, z3])


SWAP = np.array([[0, 1], [1, 0]])
EYE2 = np.eye(2, dtype=np.int64)


class TestValidateSystem:
    def test_constant_functor(self, pair_groupoid, z2):
        eye = np.eye(1, dtype=np.int64)
        system = sk.validate_system(
            pair_groupoid, [z2] * 2, [eye] * pair_groupoid.morphism_count
        )
        assert system.modulus == 2

    def test_involution_swap(self, c2_category, z3z3):
        system = sk.validate_system(c2_category, [z3z3], [EYE2, SWAP])
        assert np.array_equal(system.maps[1], SWAP)

    def test_broken_functoriality(self, z3z3):
        c3 = sc.build_MX(corpus.MONOID_TABLES["c3"], 1)
        z333 = fr.direct_product([corpus.cyclic_ring(3)] * 3)
        eye3 = np.eye(3, dtype=np.int64)
        t01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(NotFunctorial):
            sk.validate_system(c3, [z333], [eye3, t01, cyc])

    def test_identity_must_be_identity(self, c2_category, z3z3):
        with pytest.raises(IdentityNotIdentity):
            sk.validate_system(c2_category, [z3z3], [SWAP, SWAP])

    def test_noninvertible_map_rejected(self, c2_category, z3z3):
        with pytest.raises(NotRingIso) as exc:
            sk.validate_system(c2_category, [z3z3], [EYE2, np.zeros((2, 2), dtype=np.int64)])
        assert "invertible" in exc.value.reason

    def test_invertible_but_not_multiplicative(self, c2_category):
        f4 = corpus.field4()
        basis_swap = np.array([[0, 1], [1, 0]])  # 1 <-> x is additive only
        with pytest.raises(NotRingIso) as exc:
            sk.validate_system(c2_category, [f4], [EYE2, basis_swap])
        assert "multiplicative" in exc.value.reason

    def test_frobenius_is_accepted(self, c2_category):
        f4 = corpus.field4()
        frob = np.array([[1, 0], [1, 1]])
        system = sk.validate_system(c2_category, [f4], [EYE2, frob])
        assert np.array_equal((np.array(system.maps[1]) @ system.maps[1]) % 2, EYE2)

    def test_nonunital_object_ring_rejected(self, c2_category, zero_ring_2):
        eye1 = np.eye(1, dtype=np.int64)
        with pytest.raises(NotUnital):
            sk.validate_system(c2_category, [zero_ring_2], [eye1, eye1])

    def test_one_unit_solve_per_distinct_ring(self, z2, zero_ring_2, monkeypatch):
        solved = []

        def counting(ring):
            solved.append(ring)
            return fr.find_identity(ring)

        monkeypatch.setattr(sk, "find_identity", counting)
        pair = sc.build_MX(corpus.MONOID_TABLES["c1"], 2)
        eye1 = np.eye(1, dtype=np.int64)
        sk.build_category_algebra(z2, pair)
        assert solved == [z2]
        # the first object whose ring has no unit is named
        with pytest.raises(NotUnital) as exc:
            sk.validate_system(pair, [z2, zero_ring_2], [eye1] * 4)
        assert exc.value.object_index == 1

    def test_each_distinct_map_and_composite_is_checked_once(self, z2, monkeypatch):
        # the constant system of 64 identity maps over Z/2 on build_MX(c1, 8),
        # with its 512 composable pairs; the unit solve is stubbed out, so
        # each combine is a map check (n^2 + 1 per distinct map: its basis
        # products and its unit) or a composite row (n per distinct composite)
        mx = sc.build_MX(corpus.MONOID_TABLES["c1"], 8)
        one = fr.find_identity(z2)
        calls = {"howell_form": 0, "combine": 0}
        for name in calls:
            original = getattr(fr.howell, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(fr.howell, name, counting)
        monkeypatch.setattr(sk, "find_identity", lambda ring: one)
        system = sk.validate_system(mx, [z2] * 8, [z2._basis_rows] * 64)
        assert system.maps == (z2._basis_rows,) * 64
        # one distinct map and one distinct composite: 1 + 1 combines for the
        # map, 1 for the composite; checked per morphism and per pair, these
        # were 64 reductions and 64 * 2 + 512 = 640 combines
        assert calls == {"howell_form": 1, "combine": 3}

    def test_mixed_moduli_rejected(self, z2, z3):
        pair = sc.build_MX(corpus.MONOID_TABLES["c1"], 2)
        eye1 = np.eye(1, dtype=np.int64)
        with pytest.raises(ModulusMismatch):
            sk.validate_system(pair, [z2, z3], [eye1] * 4)


class TestBuildSkewAlgebra:
    def test_pair_groupoid_gives_matrix_ring(self, z2):
        pair = sc.build_MX(corpus.MONOID_TABLES["c1"], 2)
        algebra = sk.build_category_algebra(z2, pair)
        target = corpus.matrix_units_ring(2, 2)
        assert np.array_equal(algebra.ring.sc, target.sc)
        assert gr.strongly_graded_check(algebra.grading)
        assert gr.object_unital_check(algebra.grading).object_unital

    def test_nonunital_ring_rejected_at_object_zero(self, zero_ring_2, c2_category):
        with pytest.raises(NotUnital) as exc:
            sk.build_category_algebra(zero_ring_2, c2_category)
        assert exc.value.object_index == 0

    def test_rank_cap_checked_before_allocation(self, z2):
        # 64 morphisms of rank-1 blocks: a 64^3 int64 table (2 MB) if built
        eye = np.eye(1, dtype=np.int64)
        system = sk.validate_system(sc.build_MX(corpus.MONOID_TABLES["c1"], 8), [z2] * 8, [eye] * 64)
        tracemalloc.start()
        try:
            with pytest.raises(RankTooLarge) as exc:
                sk.build_skew_algebra(system)
            assert exc.value.rank == 64
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_arrow_gives_triangular_ring(self, z2, arrow_category):
        algebra = sk.build_category_algebra(z2, arrow_category)
        target = corpus.upper_triangular_ring(2, 2)
        # block order: identity of 0, the arrow, identity of 1; relabel to
        # E22, E12, E11 respectively
        perm = [2, 1, 0]
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert algebra.ring.sc[i, j, k] == target.sc[perm[i], perm[j], perm[k]]

    def test_one_object_trivial_group_returns_base_structure(self, m2f2):
        triv = corpus.thin_category_from_relation(1, [])
        algebra = sk.build_category_algebra(m2f2, triv)
        assert np.array_equal(algebra.ring.sc, m2f2.sc)

    def test_group_algebra_c2(self, z2, c2_category):
        algebra = sk.build_category_algebra(z2, c2_category)
        assert algebra.ring.rank == 2
        one, g = algebra.ring.basis_element(0), algebra.ring.basis_element(1)
        assert g * g == one

    def test_monoid_algebra_bool2(self, z2):
        algebra = sk.build_category_algebra(z2, corpus.one_object_monoid_category("bool2"))
        assert algebra.ring.rank == 2

    def test_skew_swap_algebra(self, c2_category, z3z3):
        system = sk.validate_system(c2_category, [z3z3], [EYE2, SWAP])
        algebra = sk.build_skew_algebra(system)
        assert algebra.ring.order == 81
        # (r g)(r' g) = r swap(r') g^2: check on basis elements
        a_g = algebra.ring.basis_element(2)  # first basis vector of the g block
        b_g = algebra.ring.basis_element(3)
        prod = a_g * b_g
        # a*swap(b) = (1,0)*(1,0) = (1,0) placed in the identity block
        assert prod.coords == (1, 0, 0, 0)

    def test_canonical_grading_components_are_blocks(self, z2):
        pair = sc.build_MX(corpus.MONOID_TABLES["c1"], 2)
        algebra = sk.build_category_algebra(z2, pair)
        for g, comp in enumerate(algebra.grading.components):
            assert comp.order == 2
            vec = np.zeros(4, dtype=np.int64)
            vec[algebra.offsets[g]] = 1
            assert comp.contains(vec)


class TestStrongEquivalence:
    def test_pair_groupoid_both_true(self, z2):
        algebra = sk.build_category_algebra(z2, sc.build_MX(corpus.MONOID_TABLES["c1"], 2))
        record = sk.strong_idempotent_equivalence_check(algebra)
        assert record.idempotents_strong and record.category_homset_strong
        assert record.agree and record.graded_report_ok

    def test_arrow_both_false(self, z2, arrow_category):
        algebra = sk.build_category_algebra(z2, arrow_category)
        record = sk.strong_idempotent_equivalence_check(algebra)
        assert not record.idempotents_strong and not record.category_homset_strong
        assert record.agree

    def test_mx_bool2_strong_but_not_groupoid(self, z2):
        mx = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        algebra = sk.build_category_algebra(z2, mx)
        record = sk.strong_idempotent_equivalence_check(algebra)
        assert record.idempotents_strong and record.category_homset_strong
        assert record.graded_report_ok
        assert not sc.is_groupoid(mx).is_groupoid


def chain_data(algebra):
    """The left ideal lattice shape of the algebra and, for each object,
    (order, left shape, right shape) of the corner at its unit, read from
    the lattice engine."""
    ring = algebra.ring
    left = fr.enumerate_one_sided_ideals(ring, "left")
    corners = []
    for u in algebra.unit_elements:
        corner = ring.sandwich(u.coords, u.coords)
        corners.append((
            corner.order,
            idem.ideal_lattice_shape(corner, "left"),
            idem.ideal_lattice_shape(corner, "right"),
        ))
    return (left.size, left.height), corners


class TestArtinianCriteria:
    """The chain-condition data of category algebras: the ring's ideal
    lattice and each object's corner, which is its endomorphism component."""

    def test_pair_groupoid_algebra(self, z2):
        algebra = sk.build_category_algebra(z2, sc.build_MX(corpus.MONOID_TABLES["c1"], 2))
        (left_size, _), corners = chain_data(algebra)
        assert left_size == 5
        assert all(order == 2 and left[0] == 2 for order, left, _ in corners)

    def test_group_algebra_c2(self, z2, c2_category):
        algebra = sk.build_category_algebra(z2, c2_category)
        (left_size, _), corners = chain_data(algebra)
        # single corner is the whole ring: lattice {0, augmentation, all}
        assert corners[0][0] == 4
        assert left_size == 3 and corners[0][1][0] == 3

    def test_arrow_algebra(self, z2, arrow_category):
        algebra = sk.build_category_algebra(z2, arrow_category)
        left, corners = chain_data(algebra)
        assert all(order == 2 for order, _, _ in corners)
        oracle = verify.brute_force_one_sided_ideal_count(algebra.ring, "left")
        assert left == oracle == (7, 3)

    def test_corner_extraction_matches_endo_components(self, z2):
        for name in ("bool2", "c2"):
            algebra = sk.build_category_algebra(
                z2, sc.build_MX(corpus.MONOID_TABLES[name], 2)
            )
            ring = algebra.ring
            for a, u in enumerate(algebra.unit_elements):
                assert ring.sandwich(u.coords, u.coords) == algebra.grading.hom_component(a, a)


class TestMatrixIsoOverZ3:
    def test_pair_groupoid_over_z3(self, z3):
        algebra = sk.build_category_algebra(z3, sc.build_MX(corpus.MONOID_TABLES["c1"], 2))
        target = corpus.matrix_units_ring(3, 2)
        assert np.array_equal(algebra.ring.sc, target.sc)


class TestGradingClaimsAcrossSuite:
    def test_every_suite_algebra_strongly_graded_and_object_unital(self):
        for inst in corpus.generate_suite("prop-5.3"):
            assert gr.strongly_graded_check(inst.algebra.grading), inst.name
            assert gr.object_unital_check(inst.algebra.grading).object_unital, inst.name
