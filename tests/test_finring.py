"""Ring construction, arithmetic, subgroups, ideals, corners, products."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_span, content_key, driver_calls
from ringbench import corpus
from ringbench import finring as fr
from ringbench import verify
from ringbench.errors import (
    LatticeTooLarge,
    ModulusMismatch,
    ModulusTooLarge,
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

    def test_modulus_bits_capped(self):
        m = 2**fr.MAX_MODULUS_BITS  # one bit past the cap
        assert fr.make_ring(m - 1, 1, [[[1]]]).modulus == m - 1
        for modulus in (m, -m):
            with pytest.raises(ModulusTooLarge) as exc:
                fr.make_ring(modulus, 1, [[[1]]])
            assert (exc.value.bits, exc.value.cap) == (fr.MAX_MODULUS_BITS + 1, fr.MAX_MODULUS_BITS)

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


def bilinear_product(ring: fr.FiniteRing, x, y) -> tuple[int, ...]:
    """sum_ij x_i y_j c[i][j][k] mod m, read from ring.constants: the
    product oracle, with no call into the product kernel."""
    n, m, c = ring.rank, ring.modulus, ring.constants
    return tuple(
        sum(x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)) % m
        for k in range(n)
    )


# moduli 2-12 and two past 2^64, where int64 arithmetic would wrap
KERNEL_MODULI = list(range(2, 13)) + [2**64 + 13, 2**100 - 1]


def _unchecked_ring(m: int, n: int, flat) -> fr.FiniteRing:
    """The structure-constant algebra over Z/m whose n^3 constants are the
    residues ``flat`` in (i, j, k) order, not validated: the kernel is
    bilinear whether or not the constants are associative."""
    constants = tuple(
        tuple(tuple(flat[(i * n + j) * n : (i * n + j + 1) * n]) for j in range(n))
        for i in range(n)
    )
    return fr.FiniteRing(m, n, constants, tuple(f"b{i}" for i in range(n)))


def _sparse_residues(draw, m: int, size: int, density):
    """``size`` residues mod m, each nonzero with probability ``density``."""
    return [
        draw(st.integers(0, m - 1)) if draw(st.floats(0, 1)) < density else 0
        for _ in range(size)
    ]


@st.composite
def kernel_case(draw):
    """An unchecked ring with zero, sparse or dense constants and two
    vectors, zero, sparse or dense."""
    m = draw(st.sampled_from(KERNEL_MODULI))
    n = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 1.0]))
    ring = _unchecked_ring(m, n, _sparse_residues(draw, m, n**3, density))
    x, y = (_sparse_residues(draw, m, n, draw(st.sampled_from([0.0, 0.3, 1.0]))) for _ in "xy")
    return ring, x, y


# SHA-256 over the products of KERNEL_DIGEST_CASES seeded random tables and
# vectors, recorded before the kernel was made row-sparse
KERNEL_DIGEST_CASES = 400
KERNEL_DIGEST = "fdf52539f800565383ef9130320ff8d6b0d69624a97adc58d6c0e5c74913f03f"


def kernel_digest() -> str:
    rng = random.Random(20)
    h = hashlib.sha256()
    for _ in range(KERNEL_DIGEST_CASES):
        m, n = rng.choice(KERNEL_MODULI), rng.randint(1, 6)
        density = rng.choice([0.1, 0.3, 1.0])

        def residues(size, p):
            return [rng.randrange(m) if rng.random() < p else 0 for _ in range(size)]

        ring = _unchecked_ring(m, n, residues(n**3, density))
        for _ in range(4):
            x, y = residues(n, rng.choice([0.0, 0.3, 1.0])), residues(n, 0.5)
            h.update(repr((m, ring.mul_vec(x, y))).encode())
    return h.hexdigest()


class TestProductKernel:
    """FiniteRing._mul, through mul_vec, against the bilinear formula.  The
    ring-axiom tests alone would pass a kernel that returned zero."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_case())
    def test_matches_the_bilinear_formula(self, case):
        ring, x, y = case
        assert ring.mul_vec(x, y) == bilinear_product(ring, x, y)
        assert ring.mul_vec(y, x) == bilinear_product(ring, y, x)

    @pytest.mark.parametrize(
        "ring_factory",
        [
            lambda: corpus.matrix_units_ring(3, 2),
            lambda: corpus.upper_triangular_ring(12, 3),
            lambda: corpus.field4(),
            lambda: fr.make_ring(2**64 + 13, 1, [[[2**64 + 12]]]),
        ],
    )
    def test_matches_on_whole_rings_with_zero_and_dense_vectors(self, ring_factory):
        ring = ring_factory()
        m, n = ring.modulus, ring.rank
        rng = np.random.default_rng(11)
        vectors = [(0,) * n, (m - 1,) * n] + [
            tuple(int(v) % m for v in rng.integers(0, 2**62, n)) for _ in range(12)
        ]
        for x, y in itertools.product(vectors, repeat=2):
            assert ring.mul_vec(x, y) == bilinear_product(ring, x, y)

    def test_unreduced_inputs_are_read_as_residues(self):
        ring = corpus.matrix_units_ring(5, 2)
        x, y = (7, -3, 12, 0), (-1, 5, 2**70, 9)
        residues = [tuple(v % 5 for v in w) for w in (x, y)]
        assert ring.mul_vec(x, y) == bilinear_product(ring, *residues)

    def test_products_match_recorded_digest(self):
        assert kernel_digest() == KERNEL_DIGEST


class TestSpanSubgroup:
    def test_empty_generators_give_zero(self, m2f2):
        sub = m2f2.span([])
        assert sub.order == 1 and sub.is_zero()

    def test_two_matrix_units_span_order_four(self, m2f2):
        sub = m2f2.span([(1, 0, 0, 0), (0, 1, 0, 0)])
        assert sub.order == 4
        oracle = brute_force_span(m2f2, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert sub.order == len(oracle)
        for v in oracle:
            assert sub.contains(np.array(v))

    def test_whole_basis_spans_everything(self, m2f2):
        sub = m2f2.span(b.coords for b in m2f2.basis())
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
        a = m2f2.span([(1, 0, 0, 0), (0, 1, 0, 0)])
        b = m2f2.span([(0, 1, 0, 0), (0, 0, 1, 0)])
        assert len(set(a.element_vectors()) & set(b.element_vectors())) == 2
        assert a.join(b).order == 8


def counted_reductions(monkeypatch) -> list:
    """One entry per howell_complete call from here on."""
    calls = []
    reduce = fr.howell.howell_complete
    monkeypatch.setattr(
        fr.howell, "howell_complete", lambda rows, m: calls.append(rows) or reduce(rows, m)
    )
    return calls


class TestSpanCache:
    """FiniteRing.span reduces each recent (ring object, rows) once."""

    def test_a_repeated_span_is_reduced_once(self, m2f2, monkeypatch):
        calls = counted_reductions(monkeypatch)
        rows = [(1, 0, 0, 0), (0, 1, 0, 0)]
        first = m2f2.span(rows)
        again = m2f2.span(np.array(rows))
        assert again == first and again.order == 4
        assert len(calls) == 1

    def test_a_wrong_length_row_raises_every_time_and_is_not_held(self, m2f2):
        for _ in range(2):
            with pytest.raises(ShapeMismatch):
                m2f2.span([(1, 0, 0, 0), (1, 0)])
        assert fr._span.cache_info().currsize == 0

    def test_equal_rings_built_apart_share_no_subgroup(self, monkeypatch):
        calls = counted_reductions(monkeypatch)
        a, b = corpus.cyclic_ring(4), corpus.cyclic_ring(4)
        sa, sb = a.span([(2,)]), b.span([(2,)])
        assert (sa.ring, sb.ring) == (a, b) and sa.ring is not sb.ring
        assert sa != sb and sa.rows == sb.rows
        assert len(calls) == 2

    def test_the_cache_stays_bounded_over_the_drivers(self):
        for name in verify.PROP_CHECKS:
            assert verify.run_check(name, 1729).ok, name
        info = fr._span.cache_info()
        assert info.maxsize == fr.SPAN_CACHE_SIZE
        assert info.currsize <= fr.SPAN_CACHE_SIZE < info.misses

    def test_strong_equivalence_halves_its_reductions(self, monkeypatch):
        # from no suite or span held; before the cache, 1,098 reductions
        calls = counted_reductions(monkeypatch)
        assert verify.run_check("strong-equivalence", 1729).ok
        assert len(calls) <= 505


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

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 2)
        with pytest.raises(LatticeTooLarge) as exc:
            fr.enumerate_one_sided_ideals(corpus.matrix_units_ring(2, 2), "left")
        # the first element's rank^2 = 16 steps already pass it
        assert (exc.value.work, exc.value.cap) == (16, 2)

    def test_principals_stream_before_the_budget(self):
        # 2^20 elements: listing them, or their 21 generator rows each, up
        # front would take hundreds of MB before the budget could act; what
        # is kept is the 2,500 principals the budget allows
        ring = fr.make_ring(2, 20, np.zeros((20, 20, 20), dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(LatticeTooLarge) as exc:
                fr.enumerate_one_sided_ideals(ring, "left")
            assert tracemalloc.get_traced_memory()[1] < 4 << 20
        finally:
            tracemalloc.stop()
        # refused at the first element whose 20^2 steps pass the budget
        assert exc.value.work == (fr.MAX_LATTICE_WORK // 400 + 1) * 400

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


class TestLatticeMemo:
    """submodule_lattice enumerates each (acting, ambient, side) once per ring."""

    @staticmethod
    def count_closures(monkeypatch) -> list[int]:
        """The scan work handed to every join_closure run from now on."""
        works: list[int] = []
        closure = fr.join_closure

        def counted(principals, work=0):
            works.append(work)
            return closure(principals, work)

        monkeypatch.setattr(fr, "join_closure", counted)
        return works

    def test_second_call_returns_the_same_immutable_result(self, monkeypatch):
        ring = corpus.matrix_units_ring(2, 2)
        works = self.count_closures(monkeypatch)
        full = ring.full_subgroup()
        subs, lt = fr.submodule_lattice(full, full, "left")
        # an equal subgroup built anew hits the same entry
        again = fr.submodule_lattice(ring.full_subgroup(), full, "left")
        assert again == (subs, lt) and again[0] is subs
        assert type(subs) is tuple and type(lt) is tuple
        # 16 elements of rank 4 scan 16 * 4^2 = 256 steps
        assert len(subs) == 5 and works == [256]
        right = fr.submodule_lattice(full, full, "right")
        assert right[0] is not subs and len(works) == 2

    def test_a_hit_is_a_plain_cache(self, monkeypatch):
        ring = corpus.matrix_units_ring(2, 2)
        works = self.count_closures(monkeypatch)
        lattice = fr.enumerate_one_sided_ideals(ring, "left")
        # a budget that no enumeration could meet: the hit is not re-checked
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 0)
        again = fr.enumerate_one_sided_ideals(ring, "left")
        assert again.size == lattice.size == 5 and again.ideals[0].subgroup is lattice.ideals[0].subgroup
        assert len(works) == 1

    def test_a_failure_is_not_memoized(self, monkeypatch):
        ring = corpus.matrix_units_ring(2, 2)
        works = self.count_closures(monkeypatch)
        # 256 steps of scan and one round of 5 x 5 pairs at 16 steps each
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 655)
        with pytest.raises(LatticeTooLarge) as exc:
            fr.enumerate_one_sided_ideals(ring, "left")
        assert (exc.value.work, exc.value.cap) == (656, 655)
        assert not ring._lattices
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 656)
        assert fr.enumerate_one_sided_ideals(ring, "left").size == 5
        assert works == [256, 256]


class TestLatticeWork:
    def test_budget_boundary_in_the_scan(self, monkeypatch):
        ring = corpus.matrix_units_ring(2, 2)
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 255)
        with pytest.raises(LatticeTooLarge) as exc:
            fr.enumerate_one_sided_ideals(ring, "left")
        assert (exc.value.work, exc.value.cap) == (256, 255)
        assert str(exc.value) == "lattice enumeration reached 256 steps, above the cap of 255"
        assert not ring._lattices

    def test_counted_during_the_scan(self, monkeypatch):
        # the budget is reached at the 65th of 2^20 elements, before any more
        # are formed into principals
        ring = fr.make_ring(2, 20, np.zeros((20, 20, 20), dtype=np.int64))
        full = ring.full_subgroup()
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 64 * 20**2)
        spans = []
        original = fr.FiniteRing.span
        monkeypatch.setattr(
            fr.FiniteRing, "span", lambda self, rows: spans.append(1) or original(self, rows)
        )
        with pytest.raises(LatticeTooLarge) as exc:
            fr.submodule_lattice(full, full, "left")
        assert exc.value.work == 65 * 20**2
        assert len(spans) == 64

    def test_a_round_is_charged_before_it_joins(self, monkeypatch):
        # (Z/2)^3 with zero product: 8 principals, one per element, and a
        # first round of 8 x 8 pairs after a scan of 8 elements, each at the
        # floor of 16 steps (rank^2 is 9)
        ring = corpus.zero_multiplication_ring(2, 3)
        assert fr._lattice_step(ring) == fr.LATTICE_STEP_FLOOR == 16
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 8 * 16 + 8 * 8 * 16 - 1)
        joins = []
        original = fr.AdditiveSubgroup.join
        monkeypatch.setattr(
            fr.AdditiveSubgroup, "join", lambda self, other: joins.append(1) or original(self, other)
        )
        with pytest.raises(LatticeTooLarge) as exc:
            fr.enumerate_one_sided_ideals(ring, "left")
        assert exc.value.work == 8 * 16 + 8 * 8 * 16
        assert not joins

    def test_join_closure_is_every_join_of_principals(self):
        ring = corpus.zero_multiplication_ring(2, 3)
        principals = [ring.span([v]) for v in ring.element_vectors()]
        family, inside = fr.join_closure(principals)
        # every subgroup of (Z/2)^3: 1 + 7 + 7 + 1
        assert [s.order for s in family] == [1] + [2] * 7 + [4] * 7 + [8]
        # the 8 principals are distinct: bit k of a member's bitset says
        # whether principals[k] lies inside it
        assert inside == [
            sum(1 << k for k, p in enumerate(principals) if p <= s) for s in family
        ]
        assert fr.join_closure(principals + principals) == (family, inside)
        assert fr.join_closure([]) == ([], [])

    def test_order_costs_one_containment_test_per_pair(self, monkeypatch):
        # every subgroup of (Z/2)^5 is an ideal: 374 of them, over 32
        # distinct principals.  The join rounds test each subgroup against
        # each principal at most once, and the order is read off those
        # tests; a second pass over the ordered pairs made 56,919 of them
        ring = corpus.zero_multiplication_ring(2, 5)
        calls = []
        le = fr.AdditiveSubgroup.__le__
        monkeypatch.setattr(fr.AdditiveSubgroup, "__le__", lambda a, b: calls.append(1) or le(a, b))
        lattice = fr.enumerate_one_sided_ideals(ring, "left")
        full = ring.full_subgroup()
        subs, lt = fr.submodule_lattice(full, full, "left")
        monkeypatch.undo()
        assert len(calls) <= 374 * 32
        oracle = verify.brute_force_one_sided_ideal_count(ring, "left")
        assert (lattice.size, lattice.height) == oracle == (374, 5)
        # the order written out pair by pair
        pairwise = [
            sum(1 << j for j, b in enumerate(subs) if a.order < b.order and a <= b) for a in subs
        ]
        assert list(lt) == pairwise
        # a subgroup has no strict order of its own; the lattice holds it
        with pytest.raises(TypeError):
            subs[0] < subs[1]

    def test_bound_sits_above_every_suite_lattice(self, monkeypatch):
        rings = [inst.ring for inst in corpus.generate_suite("prop-2.4")]
        assert max(r.order for r in rings) == 256
        works = []
        charged = fr._charged
        monkeypatch.setattr(fr, "_charged", lambda work: works.append(work) or charged(work))
        for ring in rings:
            for side in ("left", "right"):
                fr.enumerate_one_sided_ideals(ring, side)
        for name in ("prop-lattice", "fixture-counts"):
            assert verify.run_check(name).ok
        # the scan of the order-256 rank-8 ring alone is 16,384 steps; with
        # the joins no enumeration comes within a tenth of the bound
        assert max(works) >= 16_384
        assert max(works) * 10 < fr.MAX_LATTICE_WORK


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
        for v in corner.ring.element_vectors():
            x = corner.ring.element(v)
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

    def test_rank_cap_checked_before_the_table(self, monkeypatch):
        # five rank-40 factors: a 200^3 table of 66 MB if built
        zero = corpus.zero_multiplication_ring(2, 40)

        def no_build(*args):
            raise AssertionError("make_ring reached")

        monkeypatch.setattr(fr, "make_ring", no_build)
        tracemalloc.start()
        try:
            with pytest.raises(RankTooLarge) as exc:
                fr.direct_product([zero] * 5)
            assert (exc.value.rank, exc.value.cap) == (200, fr.MAX_RANK)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestFindIdentity:
    def test_matrix_ring_identity(self, m2f2):
        assert fr.find_identity(m2f2).coords == (1, 0, 0, 1)

    def test_zero_multiplication_has_none(self, zero_ring_2):
        assert fr.find_identity(zero_ring_2) is None

    def test_rank_one_z6(self):
        z6 = corpus.cyclic_ring(6)
        assert fr.find_identity(z6).coords == (1,)


@pytest.fixture(scope="module")
def suite_rings():
    """The distinct rings of the prop-2.4 and gradings suites."""
    rings = [inst.ring for inst in corpus.generate_suite("prop-2.4")]
    rings += [inst.grading.ring for inst in corpus.generate_suite("gradings")]
    return list({id(ring): ring for ring in rings}.values())


class TestSubringIdentity:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_solve_matches_element_scan(self, suite_rings, data):
        ring = data.draw(st.sampled_from(suite_rings))
        vector = st.tuples(*[st.integers(0, ring.modulus - 1)] * ring.rank)
        sub = ring.span(data.draw(st.lists(vector, max_size=3)))
        if sub.order > 4096:
            return
        # the subgroup need not be closed under multiplication
        mul = ring.mul_vec
        units = [
            u for u in sub.element_vectors()
            if sub.order > 1 and all(mul(u, v) == v == mul(v, u) for v in sub.rows)
        ]
        assert len(units) <= 1
        expected = fr.RingElement(ring, units[0]) if units else None
        assert fr.subring_identity(ring, sub) == expected

    def test_other_rings_subgroup_rejected(self, m2f2, z2):
        with pytest.raises(RingMismatch):
            fr.subring_identity(m2f2, z2.full_subgroup())


def reference_unit_of(ring: fr.FiniteRing, rows) -> fr.RingElement | None:
    """_unit_of as it was before it built its system over the rows' nonzero
    coordinates: the same system, through a dense n x 2n^2 tensor and two
    rounds of combine."""
    m, n, c = ring.modulus, ring.rank, ring.constants
    width = 2 * n
    by_row = [tuple(itertools.chain(*(c[a][b] + c[b][a] for a in range(n)))) for b in range(n)]
    blocks = [fr.howell.combine(r, by_row, m, width * n) for r in rows]
    by_basis = [
        tuple(itertools.chain(*(block[width * a : width * (a + 1)] for block in blocks)))
        for a in range(n)
    ]
    system = [fr.howell.combine(r, by_basis, m, width * len(rows)) for r in rows]
    x = fr.howell.solve_row(system, tuple(itertools.chain(*(r + r for r in rows))), m)
    if x is None:
        return None
    return fr.RingElement(ring, fr.howell.combine(x, rows, m, n))


class TestUnitSolvePinned:
    def test_driver_solves_match_the_dense_system(self):
        # every ring unit and identity-component unit the lattice-free
        # drivers solve for at two suite seeds: 74 distinct (modulus,
        # constants, rows), solved again wherever an equal ring was rebuilt
        solves = driver_calls(fr, "_unit_of", (1729, 3))
        assert len(solves) == 132
        assert len({content_key(call) for call in solves}) == 74
        found = [fr._unit_of(ring, rows) for ring, rows in solves]
        assert found == [reference_unit_of(ring, rows) for ring, rows in solves]

    def test_rank_48_zero_ring_has_no_unit_either_way(self):
        ring = corpus.zero_multiplication_ring(2, fr.MAX_RANK)
        rows = ring.full_subgroup().rows
        assert fr._unit_of(ring, rows) is None is reference_unit_of(ring, rows)


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


class TestMultiplicationMatrices:
    # every element of the 22 distinct base rings of prop-2.4
    def test_built_without_the_kernel_as_per_basis_products(self, monkeypatch):
        rings = {id(inst.ring): inst.ring for inst in corpus._prop24_base()}
        kernel = fr.FiniteRing._mul
        calls = []
        monkeypatch.setattr(
            fr.FiniteRing, "_mul", lambda self, x, y: calls.append(1) or kernel(self, x, y)
        )
        cases = [
            (ring, x, ring.left_mul_matrix(x), ring.right_mul_matrix(x))
            for ring in rings.values()
            for x in ring.element_vectors()
        ]
        assert (len(cases), len(calls)) == (1276, 0)
        for ring, x, left, right in cases:
            basis = ring._basis_rows
            assert left == tuple(kernel(ring, x, b) for b in basis)
            assert right == tuple(kernel(ring, b, x) for b in basis)
