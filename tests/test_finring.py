"""Ring construction, arithmetic, subgroups, ideals, corners, products."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_span
from ringbench import corpus
from ringbench import finring as fr
from ringbench import verify
from ringbench.errors import (
    InvariantViolation,
    LatticeTooLarge,
    ModulusMismatch,
    ModulusTooSmall,
    NotAssociative,
    NotIdempotent,
    RankTooLarge,
    RingMismatch,
    ShapeMismatch,
    WorkTooLarge,
)


class TestMakeRing:
    def test_field_with_two_elements(self):
        ring = fr.make_ring(2, 1, [[[1]]])
        assert ring.order == 2
        x = ring.basis_element(0)
        assert x * x == x

    def test_matrix_units_accepted(self, m2f2):
        assert m2f2.order == 16
        assert m2f2.basis_labels == ("E11", "E12", "E21", "E22")

    def test_perturbed_constants_fail_associativity(self, m2f2):
        sc = np.array(m2f2.sc)
        sc[0, 1, 0] = 1  # E11*E12 gains an E11 term
        with pytest.raises(NotAssociative) as exc:
            fr.make_ring(2, 4, sc)
        i, j, k = exc.value.triple
        assert 0 <= i < 4 and 0 <= j < 4 and 0 <= k < 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fr.make_ring(2, 2, np.zeros((2, 2, 3), dtype=np.int64))
        with pytest.raises(ShapeMismatch):
            fr.make_ring(2, 0, np.zeros((0, 0, 0), dtype=np.int64))

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmall):
            fr.make_ring(1, 1, [[[0]]])

    def test_exact_at_modulus_ten_to_the_thirty(self):
        # far beyond int64: every product is still an exact residue
        m = 10**30
        ring = fr.make_ring(m, 1, [[[m - 1]]])  # b0 * b0 = -b0
        b0 = ring.basis_element(0)
        assert (-b0) * (-b0) == b0 * b0
        assert (b0 * b0).coords == (m - 1,)
        assert fr.find_identity(ring).coords == (m - 1,)  # (-b0) b0 = b0

    def test_oversized_constant_is_a_residue(self):
        big = 10**21  # beyond int64
        ring = fr.make_ring(7, 1, [[[big]]])
        assert np.array_equal(ring.sc, fr.make_ring(7, 1, [[[big % 7]]]).sc)
        # a mix numpy would hold only as float64 stays exact too
        m = 2**20
        ring = fr.make_ring(m, 2, [[[2**63 + 1, 0], [0, 0]], [[0, 0], [0, 1 - m]]])
        assert ring.sc.tolist() == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]

    def test_rank_cap_checked_before_allocation(self):
        tracemalloc.start()
        try:
            # None as constants: had the cap not come first, this would be a
            # ShapeMismatch, or an allocation of about 8 * 10^18 bytes
            with pytest.raises(RankTooLarge):
                fr.make_ring(2, 10**6, None)
            with pytest.raises(RankTooLarge):
                fr.make_ring(2, fr.MAX_RANK + 1, None)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestAssociativityWorkCap:
    @staticmethod
    def all_ones(n):
        # b_i b_j = b_0 + ... + b_{n-1}: associative, every constant nonzero
        return [[[1] * n for _ in range(n)] for _ in range(n)]

    def test_work_of_a_dense_ring(self):
        ring = fr.make_ring(2, 3, self.all_ones(3))
        # 27 triples; each of the 27 constants meets 9 + 9 nonzero constants
        assert fr.associativity_work(ring) == 27 + 27 * 18

    def test_cap_boundary(self, monkeypatch):
        work = fr.associativity_work(fr.make_ring(3, 5, self.all_ones(5)))
        monkeypatch.setattr(fr, "MAX_ASSOCIATIVITY_WORK", work)
        assert fr.make_ring(3, 5, self.all_ones(5)).order == 3**5
        monkeypatch.setattr(fr, "MAX_ASSOCIATIVITY_WORK", work - 1)
        with pytest.raises(WorkTooLarge) as exc:
            fr.make_ring(3, 5, self.all_ones(5))
        assert (exc.value.work, exc.value.cap) == (work, work - 1)

    def test_cap_checked_before_the_check_runs(self, monkeypatch):
        def never(ring):
            raise AssertionError("the associativity check ran")

        monkeypatch.setattr(fr, "_first_nonassociative_triple", never)
        for n in (22, fr.MAX_RANK):
            with pytest.raises(WorkTooLarge):
                fr.make_ring(2, n, self.all_ones(n))
        # a non-associative ring over the cap is refused for its cost alone
        sc = self.all_ones(fr.MAX_RANK)
        sc[0][0][0] = 0
        with pytest.raises(WorkTooLarge):
            fr.make_ring(2, fr.MAX_RANK, sc)

    def test_sparse_rank_48_group_algebra_accepted(self):
        n = fr.MAX_RANK  # Z/2[C48]: b_i b_j = b_{i+j mod 48}
        sc = [[[int(k == (i + j) % n) for k in range(n)] for j in range(n)] for i in range(n)]
        ring = fr.make_ring(2, n, sc)
        assert fr.associativity_work(ring) <= fr.MAX_ASSOCIATIVITY_WORK
        assert fr.find_identity(ring) == ring.basis_element(0)
        assert ring.basis_element(5) * ring.basis_element(45) == ring.basis_element(2)


class TestEvaluate:
    def test_matrix_unit_product(self, m2f2):
        e11, e12 = m2f2.basis_element(0), m2f2.basis_element(1)
        assert fr.evaluate(m2f2, ("prod", e11, e12)) == e12

    def test_additive_inverse(self, m2f2):
        for x in m2f2.elements():
            assert fr.evaluate(m2f2, ("sum", x, ("neg", x))).is_zero()

    def test_identity_absorbs_all_elements(self, m2f2):
        one = fr.find_identity(m2f2)
        for x in m2f2.elements():
            assert fr.evaluate(m2f2, ("prod", one, x)) == x

    def test_cross_ring_leaf_rejected(self, m2f2, z2):
        with pytest.raises(RingMismatch):
            fr.evaluate(m2f2, ("sum", z2.basis_element(0)))


class TestRingAxioms:
    @pytest.mark.parametrize(
        "ring_factory",
        [
            lambda: corpus.matrix_units_ring(2, 2),
            lambda: corpus.upper_triangular_ring(3, 2),
            lambda: corpus.field4(),
            lambda: corpus.cyclic_ring(6),
            lambda: fr.direct_product([corpus.cyclic_ring(4), corpus.cyclic_ring(4)]),
        ],
    )
    def test_associativity_and_distributivity_elementwise(self, ring_factory):
        ring = ring_factory()
        vectors = list(ring.element_vectors())
        if len(vectors) <= 32:
            triples = itertools.product(vectors, repeat=3)
        else:
            rng = np.random.default_rng(7)
            triples = (
                (vectors[rng.integers(len(vectors))],
                 vectors[rng.integers(len(vectors))],
                 vectors[rng.integers(len(vectors))])
                for _ in range(2000)
            )
        mul, m = ring.mul_vec, ring.modulus

        def add(a, b):
            return tuple((p + q) % m for p, q in zip(a, b))

        for x, y, z in triples:
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))


class TestSpanSubgroup:
    def test_empty_generators_give_zero(self, m2f2):
        sub = fr.span_subgroup(m2f2, [])
        assert sub.order == 1 and sub.is_zero()

    def test_two_matrix_units_span_order_four(self, m2f2):
        sub = fr.span_subgroup(m2f2, [m2f2.basis_element(0), m2f2.basis_element(1)])
        assert sub.order == 4
        oracle = brute_force_span(m2f2, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert sub.order == len(oracle)
        for v in oracle:
            assert sub.contains(np.array(v))

    def test_whole_basis_spans_everything(self, m2f2):
        sub = fr.span_subgroup(m2f2, m2f2.basis())
        assert sub.order == m2f2.order

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_span_is_idempotent(self, data):
        ring = corpus.cyclic_ring(8)
        prod = fr.direct_product([ring, corpus.cyclic_ring(8)])
        gens = data.draw(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=4
            )
        )
        sub = prod.span([np.array(g) for g in gens])
        again = prod.span(list(sub.basis))
        assert sub == again

    def test_meet_and_join(self, m2f2):
        a = fr.span_subgroup(m2f2, [m2f2.basis_element(0), m2f2.basis_element(1)])
        b = fr.span_subgroup(m2f2, [m2f2.basis_element(1), m2f2.basis_element(2)])
        assert len(set(a.elements()) & set(b.elements())) == 2
        assert a.join(b).order == 8


class TestIdealClosure:
    def test_left_ideal_of_e11(self, m2f2):
        ideal = fr.one_sided_ideal_closure(m2f2, [m2f2.basis_element(0)], "left")
        assert ideal.order == 4
        expected = brute_force_span(m2f2, [(1, 0, 0, 0), (0, 0, 1, 0)])
        assert {tuple(int(c) for c in v) for v in ideal.subgroup.element_vectors()} == expected

    def test_zero_generator(self, m2f2):
        assert fr.one_sided_ideal_closure(m2f2, [m2f2.zero()], "left").order == 1

    def test_unit_generates_improper_ideal(self, m2f2):
        one = fr.find_identity(m2f2)
        assert fr.one_sided_ideal_closure(m2f2, [one], "left").order == m2f2.order

    def test_nonunital_closure_contains_generator(self, zero_ring_2):
        x = zero_ring_2.basis_element(0)
        ideal = fr.one_sided_ideal_closure(zero_ring_2, [x], "left")
        assert ideal.subgroup.contains(x)

    def test_failed_closure_check_raises(self, m2f2, monkeypatch):
        monkeypatch.setattr(fr, "closed_under", lambda ring, subgroup, side: False)
        with pytest.raises(InvariantViolation):
            fr.one_sided_ideal_closure(m2f2, [m2f2.basis_element(0)], "left")


class TestIdealLattice:
    def test_m2f2_left_lattice(self, m2f2):
        lat = fr.enumerate_one_sided_ideals(m2f2, "left")
        assert lat.size == 5 and lat.height == 2
        orders = sorted(i.order for i in lat.ideals)
        assert orders == [1, 4, 4, 4, 16]

    def test_rank_one_field_lattice(self, z2):
        lat = fr.enumerate_one_sided_ideals(z2, "left")
        assert lat.size == 2 and lat.height == 1

    def test_zero_multiplication_ring_order_two(self, zero_ring_2):
        lat = fr.enumerate_one_sided_ideals(zero_ring_2, "left")
        assert lat.size == 2

    def test_direct_product_multiplies_ideal_counts(self, m2f2, z2):
        prod = fr.direct_product([m2f2, z2])
        lat = fr.enumerate_one_sided_ideals(prod, "left")
        assert lat.size == 5 * 2

    def test_matches_brute_force_oracle(self, m2f2, t2f2, z2):
        for ring in (m2f2, t2f2, z2, corpus.zero_multiplication_ring(2, 2)):
            for side in ("left", "right"):
                lat = fr.enumerate_one_sided_ideals(ring, side)
                size, height = verify.brute_force_one_sided_ideal_count(ring, side)
                assert (lat.size, lat.height) == (size, height)

    def test_join_and_meet_closed(self, t2f2):
        lat = fr.enumerate_one_sided_ideals(t2f2, "left")
        keys = {i.subgroup.key for i in lat.ideals}
        for a in lat.ideals:
            for b in lat.ideals:
                assert a.subgroup.join(b.subgroup).key in keys
                common = set(a.subgroup.element_vectors()) & set(b.subgroup.element_vectors())
                assert t2f2.span(common).key in keys

    def test_left_ideals_absorb_left_multiplication(self, t2f2):
        lat = fr.enumerate_one_sided_ideals(t2f2, "left")
        for ideal in lat.ideals:
            for s in t2f2.element_vectors():
                for x in ideal.subgroup.element_vectors():
                    assert ideal.subgroup.contains(t2f2.mul_vec(s, x))

    def test_height_invariant_under_relabeling(self, m2f2):
        perm = [2, 0, 3, 1]
        sc = np.zeros_like(np.array(m2f2.sc))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    sc[i, j, k] = m2f2.sc[perm[i], perm[j], perm[k]]
        relabeled = fr.make_ring(2, 4, sc)
        lat = fr.enumerate_one_sided_ideals(relabeled, "left")
        base = fr.enumerate_one_sided_ideals(m2f2, "left")
        assert (lat.size, lat.height) == (base.size, base.height)

    def test_cap_raises(self, m2f2):
        with pytest.raises(LatticeTooLarge):
            fr.enumerate_one_sided_ideals(m2f2, "left", cap=2)

    def test_principals_stream_before_the_cap(self):
        # 2^20 elements: listing them, or their 21 generator rows each, up
        # front would take hundreds of MB before the cap could act
        ring = fr.make_ring(2, 20, np.zeros((20, 20, 20), dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(LatticeTooLarge):
                fr.enumerate_one_sided_ideals(ring, "left", cap=100)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_contains_zero_and_improper(self, t2f2):
        lat = fr.enumerate_one_sided_ideals(t2f2, "right")
        assert lat.ideals[0].order == 1
        assert lat.ideals[-1].order == t2f2.order

    def test_cover_relation_is_transitive_reduction(self, m2f2):
        lat = fr.enumerate_one_sided_ideals(m2f2, "left")
        # zero is covered by the three order-4 ideals, each covered by the top
        assert lat.cover_relation[0] == (1, 2, 3)
        assert all(lat.cover_relation[i] == (4,) for i in (1, 2, 3))
        assert lat.cover_relation[4] == ()


class TestCorners:
    def test_corner_at_e11(self, m2f2):
        corner = fr.corner_ring(m2f2, m2f2.basis_element(0))
        assert corner.ring.order == 2
        one = fr.find_identity(corner.ring)
        assert one is not None
        assert corner.include(one) == m2f2.basis_element(0)

    def test_corner_at_identity_is_whole_ring(self, m2f2):
        one = fr.find_identity(m2f2)
        corner = fr.corner_ring(m2f2, one)
        assert corner.ring.order == m2f2.order
        assert corner.subgroup.order == m2f2.order

    def test_corner_at_zero_is_order_one(self, m2f2):
        corner = fr.corner_ring(m2f2, m2f2.zero())
        assert corner.ring.order == 1

    def test_non_idempotent_rejected(self, m2f2):
        with pytest.raises(NotIdempotent):
            fr.corner_ring(m2f2, m2f2.basis_element(1))

    def test_modulus_reduction_in_z6(self):
        z6 = corpus.cyclic_ring(6)
        corner = fr.corner_ring(z6, z6.element([3]))
        assert corner.ring.modulus == 2 and corner.ring.order == 2
        # 3 acts as the unit of the corner
        assert fr.find_identity(corner.ring) is not None

    def test_projection_round_trip(self, m2f2):
        corner = fr.corner_ring(m2f2, m2f2.basis_element(0))
        for x in corner.ring.elements():
            assert corner.project(corner.include(x)) == x


class TestDirectProduct:
    def test_componentwise_multiplication(self, z2):
        prod = fr.direct_product([z2, z2])
        a = prod.element([1, 0])
        b = prod.element([0, 1])
        assert (a * b).is_zero()
        assert a * a == a

    def test_single_factor_returns_same_object(self, m2f2):
        assert fr.direct_product([m2f2]) is m2f2

    def test_modulus_mismatch(self, z2, z3):
        with pytest.raises(ModulusMismatch):
            fr.direct_product([z2, z3])


class TestFindIdentity:
    def test_matrix_ring_identity(self, m2f2):
        assert fr.find_identity(m2f2).coords == (1, 0, 0, 1)

    def test_zero_multiplication_has_none(self, zero_ring_2):
        assert fr.find_identity(zero_ring_2) is None

    def test_rank_one_z6(self):
        z6 = corpus.cyclic_ring(6)
        assert fr.find_identity(z6).coords == (1,)


class TestElementBinding:
    def test_cross_ring_arithmetic_rejected(self, m2f2, z2):
        with pytest.raises(RingMismatch):
            m2f2.basis_element(0) * z2.basis_element(0)
        with pytest.raises(RingMismatch):
            m2f2.basis_element(0) + z2.basis_element(0)

    def test_integer_scaling(self, z3):
        x = z3.basis_element(0)
        assert (2 * x).coords == (2,)
        assert (x * 5).coords == (2,)
