"""Complete sets, component tables, strength conditions, poset certificates."""

import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import strength
from ringbench.errors import (
    CornerNotFree,
    LatticeTooLarge,
    NotComplete,
    NotIdempotent,
    NotOrthogonal,
    NotStrong,
    ShapeMismatch,
    ZeroComponent,
    ZeroIdempotent,
)


@pytest.fixture(scope="module")
def m2_setup():
    ring = corpus.matrix_units_ring(2, 2)
    iset = idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(3)])
    return ring, iset, idem.peirce_table(iset)


@pytest.fixture(scope="module")
def t2_setup():
    ring = corpus.upper_triangular_ring(2, 2)
    iset = idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(2)])
    return ring, iset, idem.peirce_table(iset)


@pytest.fixture(scope="module")
def z6z6_setup():
    # e_0 S e_0 = 3Z/6 x Z/6 = Z/2 + Z/6 is not free over one modulus
    ring = fr.direct_product([corpus.cyclic_ring(6)] * 2)
    iset = idem.validate_complete_set(ring, [ring.element([3, 1]), ring.element([4, 0])])
    return ring, iset, idem.peirce_table(iset)


class TestValidateCompleteSet:
    def test_matrix_units_are_complete(self, m2_setup):
        _, iset, _ = m2_setup
        assert iset.size == 2

    def test_single_e11_is_incomplete(self):
        ring = corpus.matrix_units_ring(2, 2)
        with pytest.raises(NotComplete) as exc:
            idem.validate_complete_set(ring, [ring.basis_element(0)])
        assert exc.value.side == "left"
        assert exc.value.defect.order == 4

    def test_unit_singleton_is_complete(self):
        ring = corpus.matrix_units_ring(2, 2)
        one = fr.find_identity(ring)
        iset = idem.validate_complete_set(ring, [one])
        assert iset.size == 1

    def test_zero_candidate(self):
        ring = corpus.matrix_units_ring(2, 2)
        with pytest.raises(ZeroIdempotent):
            idem.validate_complete_set(ring, [ring.zero(), ring.basis_element(0)])

    def test_non_idempotent_candidate(self):
        ring = corpus.matrix_units_ring(2, 2)
        with pytest.raises(NotIdempotent):
            idem.validate_complete_set(ring, [ring.basis_element(1), ring.basis_element(3)])

    def test_non_orthogonal_pair(self):
        ring = corpus.matrix_units_ring(2, 2)
        e = ring.basis_element(0)
        with pytest.raises(NotOrthogonal) as exc:
            idem.validate_complete_set(ring, [e, e])
        assert exc.value.pair == (0, 1)


class TestPeirceTable:
    def test_matrix_component_orders(self, m2_setup):
        _, _, table = m2_setup
        assert [[s.order for s in row] for row in table.components] == [[2, 2], [2, 2]]

    def test_orders_multiply_to_ring_order(self, m2_setup):
        ring, _, table = m2_setup
        prod = 1
        for row in table.components:
            for s in row:
                prod *= s.order
        assert prod == ring.order

    def test_triangular_lower_corner_vanishes(self, t2_setup):
        _, _, table = t2_setup
        assert table.components[1][0].is_zero()
        assert table.components[0][1].order == 2

    def test_unit_singleton_single_component(self):
        ring = corpus.matrix_units_ring(2, 2)
        iset = idem.validate_complete_set(ring, [fr.find_identity(ring)])
        table = idem.peirce_table(iset)
        assert table.components[0][0].order == ring.order

    def test_pairwise_intersections_trivial(self, m2_setup):
        _, _, table = m2_setup
        comps = [s for row in table.components for s in row]
        for i, a in enumerate(comps):
            for b in comps[i + 1 :]:
                assert len(set(a.element_vectors()) & set(b.element_vectors())) == 1

    def test_multiplication_lands_in_target_component(self, m2_setup):
        ring, iset, table = m2_setup
        k = iset.size
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    for x in table.components[i][j].element_vectors():
                        for y in table.components[j][l].element_vectors():
                            assert table.components[i][l].contains(ring.mul_vec(x, y))

    def test_units_act_as_identities_on_components(self, m2_setup):
        ring, iset, table = m2_setup
        for i in range(2):
            for j in range(2):
                ei, ej = iset.elements[i].coords, iset.elements[j].coords
                for x in table.components[i][j].element_vectors():
                    assert ring.mul_vec(ring.mul_vec(ei, x), ej) == x

    def test_corner_rings_carry_units(self, m2_setup):
        ring, iset, _ = m2_setup
        for e in iset.elements:
            assert fr.find_identity(fr.corner_ring(ring, e).ring) is not None


class TestStrongConditions:
    def test_matrix_ring_is_strong(self, m2_setup):
        _, _, table = m2_setup
        report = idem.strong_condition_report(table)
        assert report.condition1 and report.condition2 and report.condition3
        assert report.agree

    def test_triangular_fails_all_three(self, t2_setup):
        _, _, table = t2_setup
        report = idem.strong_condition_report(table)
        assert not (report.condition1 or report.condition2 or report.condition3)
        assert report.agree
        assert report.witness1 == ((0, 1, 0), "third component is zero")
        assert report.witness2 == ((0, 1), "opposed component is zero")
        assert report.witness3 == ((0, 1), "opposed component is zero")

    def test_singleton_is_strong(self):
        ring = corpus.matrix_units_ring(2, 2)
        iset = idem.validate_complete_set(ring, [fr.find_identity(ring)])
        assert idem.is_strong(iset)

    def test_each_condition_evaluated_once_per_table(self, monkeypatch):
        ring = corpus.matrix_units_ring(2, 2)
        iset = idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(3)])
        table = idem.peirce_table(iset)
        calls = []
        for name in ("condition1", "condition2", "condition3"):
            condition = getattr(strength, name)
            monkeypatch.setattr(
                strength, name,
                lambda t, name=name, condition=condition: calls.append(name) or condition(t),
            )
        report = idem.strong_condition_report(table)
        assert report.strong and table.strong
        assert idem.strong_condition_report(table) == report
        assert calls == ["condition1", "condition2", "condition3"]

    def test_each_product_formed_once_per_report(self, monkeypatch):
        """Condition 1's products at (p, q, p) are the ones conditions 2 and
        3 ask for again; one report forms each distinct product it asks for
        once."""
        calls, asked = [], set()
        product = fr.product_subgroup
        product_at = strength.ComponentTable.product_at

        def counting(a, b):
            calls.append((id(a), id(b)))
            return product(a, b)

        def asking(t, i, j, l):
            asked.add((i, j, l))
            return product_at(t, i, j, l)

        monkeypatch.setattr(idem, "product_subgroup", counting)
        monkeypatch.setattr(strength.ComponentTable, "product_at", asking)
        for inst in corpus.generate_suite("prop-2.4"):
            table = idem.peirce_table(idem.validate_complete_set(inst.ring, inst.idempotents))
            calls.clear()
            asked.clear()
            idem.strong_condition_report(table)
            assert len(calls) == len(set(calls)), inst.name
            assert len(calls) == len(asked), inst.name

    def test_is_strong_matches_the_report(self, m2_setup, t2_setup):
        _, m2_iset, m2_table = m2_setup
        _, t2_iset, t2_table = t2_setup
        assert idem.is_strong(m2_iset) == idem.strong_condition_report(m2_table).strong
        assert idem.is_strong(t2_iset) == idem.strong_condition_report(t2_table).strong


class TestCornerLatticeCorrespondence:
    def test_submodule_budget_holds_for_principals(self, monkeypatch):
        # e_1 S e_0 has two elements, each of rank^2 = 16 steps: the scan
        # passes a budget of 31 at its second element, before any join
        ring = corpus.matrix_units_ring(2, 2)
        table = idem.peirce_table(
            idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(3)])
        )
        monkeypatch.setattr(fr, "MAX_LATTICE_WORK", 31)
        with pytest.raises(LatticeTooLarge) as exc:
            fr.submodule_lattice(table.component(1, 1), table.component(1, 0), "left")
        assert (exc.value.work, exc.value.cap) == (32, 31)

    def test_matrix_off_diagonal(self, m2_setup):
        _, _, table = m2_setup
        cert = idem.corner_lattice_correspondence(table, 0, 1, "left")
        assert cert.ok
        assert cert.ideal_count == cert.submodule_count == 2
        assert cert.ideal_height == cert.submodule_height == 1

    def test_diagonal_is_identity_like(self, m2_setup):
        _, _, table = m2_setup
        cert = idem.corner_lattice_correspondence(table, 0, 0, "left")
        assert cert.ok

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_diagonal_images_are_formed_once(self, monkeypatch, side):
        # on the diagonal both families are the ideals of the corner Z/4 and
        # both operands the corner itself, so each image serves both ways
        ring = corpus.matrix_units_ring(4, 2)
        table = idem.peirce_table(
            idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(3)])
        )
        assert table.strong
        products = []
        monkeypatch.setattr(
            idem, "product_subgroup", lambda a, b: products.append(1) or fr.product_subgroup(a, b)
        )
        cert = idem.corner_lattice_correspondence(table, 0, 0, side)
        assert cert.ok and cert.ideal_count == cert.submodule_count == 3
        assert cert.pairs == ((0, 0), (1, 1), (2, 2))
        # one product per ideal; forward and backward apart, this was 6
        assert len(products) == 3

    def test_right_side(self, m2_setup):
        _, _, table = m2_setup
        cert = idem.corner_lattice_correspondence(table, 1, 0, "right")
        assert cert.ok

    @pytest.mark.parametrize(
        "operand,order,failure,pairs,round_trips",
        [
            # the forward image of the whole corner Z/4 (ideal 2): the pairs
            # stop before it, and no backward image is judged
            ((1, 0), 4, "image of ideal 2 is not a listed submodule", ((0, 0), (1, 1)),
             (True, True)),
            # the backward image of submodule 1, of order 2: every forward
            # pair is kept, and the one through submodule 1 does not return
            ((0, 1), 2, "image of submodule 1 is not a listed ideal", ((0, 0), (1, 1), (2, 2)),
             (False, True)),
        ],
        ids=["forward", "backward"],
    )
    def test_an_unlisted_image_is_the_failure(
        self, monkeypatch, operand, order, failure, pairs, round_trips
    ):
        # e_0 S e_0 and e_1 S e_0 of the 2x2 matrices over Z/4 are Z/4, with
        # ideals and submodules of orders 1, 2 and 4; the stub sends the
        # product of one operand with the subgroup of ``order`` to the whole
        # ring, which neither family lists
        ring = corpus.matrix_units_ring(4, 2)
        table = idem.peirce_table(
            idem.validate_complete_set(ring, [ring.basis_element(0), ring.basis_element(3)])
        )
        assert table.strong  # judged before the stub, on the true products
        by = table.component(*operand)

        def stub(a, b):
            if a is by and b.order == order:
                return ring.full_subgroup()
            return fr.product_subgroup(a, b)

        monkeypatch.setattr(idem, "product_subgroup", stub)
        cert = idem.corner_lattice_correspondence(table, 0, 1, "left")
        assert (cert.ok, cert.failure, cert.pairs) == (False, failure, pairs)
        assert (cert.forward_then_back_identity, cert.back_then_forward_identity) == round_trips

    def test_bad_side_rejected(self, m2_setup):
        _, _, table = m2_setup
        with pytest.raises(ShapeMismatch, match="side must be 'left' or 'right', got 'up'"):
            idem.corner_lattice_correspondence(table, 0, 1, "up")

    def test_not_strong_rejected(self, t2_setup):
        _, _, table = t2_setup
        with pytest.raises(NotStrong):
            idem.corner_lattice_correspondence(table, 0, 1, "left")

    def test_zero_component_rejected(self):
        ring = fr.direct_product([corpus.cyclic_ring(2), corpus.cyclic_ring(2)])
        iset = idem.validate_complete_set(
            ring, [ring.element([1, 0]), ring.element([0, 1])]
        )
        table = idem.peirce_table(iset)
        with pytest.raises(ZeroComponent):
            idem.corner_lattice_correspondence(table, 0, 1, "left")


def brute_force_submodules(ring, idempotents, i, j, side) -> set:
    """Element sets of every S_j-submodule of the certificate's ambient, by
    exhaustive subgroup search in plain tuple arithmetic: no Howell form."""
    m, n = ring.modulus, ring.rank
    sc = ring.sc.tolist()
    zero = (0,) * n

    def add(x, y):
        return tuple((a + b) % m for a, b in zip(x, y))

    def mul(x, y):
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if x[a] and y[b]:
                    for k in range(n):
                        out[k] = (out[k] + x[a] * y[b] * sc[a][b][k]) % m
        return tuple(out)

    def close(gens):
        seen = {zero}
        frontier = [zero]
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = add(v, g)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    elements = [tuple(int(c) for c in v) for v in ring.element_vectors()]
    e_i, e_j = (tuple(e.coords) for e in (idempotents[i], idempotents[j]))
    acting = {mul(mul(e_j, s), e_j) for s in elements}
    if side == "left":  # e_j S e_i under S_j on the left
        ambient = {mul(mul(e_j, s), e_i) for s in elements}
        absorbs = lambda H: all(mul(w, x) in H for w in acting for x in H)
    else:  # e_i S e_j under S_j on the right
        ambient = {mul(mul(e_i, s), e_j) for s in elements}
        absorbs = lambda H: all(mul(x, w) in H for w in acting for x in H)
    subgroups = {close([])}
    frontier = [close([])]
    while frontier:
        H = frontier.pop()
        for x in ambient - H:
            H2 = close(list(H) + [x])
            if H2 not in subgroups:
                subgroups.add(H2)
                frontier.append(H2)
    return {H for H in subgroups if absorbs(H)}


class TestSubmoduleLattice:
    @pytest.mark.parametrize(
        "ring, units",
        [
            (corpus.matrix_units_ring(2, 2), (0, 3)),
            (corpus.matrix_units_ring(3, 2), (0, 3)),
        ],
        ids=["matrix2_z2", "matrix2_z3"],
    )
    def test_matrix_units_match_brute_force(self, ring, units):
        iset = idem.validate_complete_set(ring, [ring.basis_element(u) for u in units])
        self.check_every_component(idem.peirce_table(iset))

    def test_unit_set_matches_brute_force(self, m2f2):
        # the ambient is the whole ring, so absorption keeps 5 of its 67
        # subgroups on each side
        iset = idem.validate_complete_set(m2f2, [fr.find_identity(m2f2)])
        self.check_every_component(idem.peirce_table(iset))

    def test_matrix2_z2_times_z2_matches_brute_force(self):
        (inst,) = [
            inst for inst in corpus.generate_suite("prop-2.4", 0)
            if inst.name == "matrix2_z2_times_z2"
        ]
        iset = idem.validate_complete_set(inst.ring, inst.idempotents)
        self.check_every_component(idem.peirce_table(iset))

    def test_non_free_corners_match_brute_force(self, z6z6_setup):
        self.check_every_component(z6z6_setup[2])

    def test_each_lattice_enumerated_once_per_table(self, monkeypatch):
        ring = fr.direct_product([corpus.matrix_units_ring(2, 2), corpus.cyclic_ring(2)])
        iset = idem.validate_complete_set(
            ring, [ring.element(v) for v in ([1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])]
        )
        table = idem.peirce_table(iset)
        closures = []
        closure = fr.join_closure
        monkeypatch.setattr(
            fr, "join_closure", lambda principals, work: closures.append(work) or closure(principals, work)
        )
        keys = set()
        certificates = 0
        for _ in range(2):
            for i in range(table.size):
                for j in range(table.size):
                    if table.component(i, j).is_zero():
                        continue
                    for side in ("left", "right"):
                        assert idem.corner_lattice_correspondence(table, i, j, side).ok
                        certificates += 1
                        corner, acting = table.component(i, i), table.component(j, j)
                        ambient = table.component(j, i) if side == "left" else table.component(i, j)
                        keys.add((corner.key, corner.key, side))
                        keys.add((acting.key, ambient.key, side))
        # two lattices per certificate, ten certificates per pass
        assert certificates == 20 and len(keys) == 10
        assert len(closures) == len(keys)

    @staticmethod
    def check_every_component(table):
        checked = 0
        for i in range(table.size):
            for j in range(table.size):
                if table.component(i, j).is_zero():
                    continue
                for side in ("left", "right"):
                    ambient = table.component(j, i) if side == "left" else table.component(i, j)
                    subs, lt = fr.submodule_lattice(table.component(j, j), ambient, side)
                    got = [
                        frozenset(tuple(int(c) for c in v) for v in s.element_vectors())
                        for s in subs
                    ]
                    expected = brute_force_submodules(
                        table.ring, table.iset.elements, i, j, side
                    )
                    assert len(got) == len(set(got))
                    assert set(got) == expected, (i, j, side)
                    assert [len(g) for g in got] == sorted(len(g) for g in got)
                    for a, A in enumerate(got):
                        for b, B in enumerate(got):
                            assert bool(lt[a] >> b & 1) == (A < B), (i, j, side, a, b)
                    checked += 1
        assert checked > 0


class TestChainProfile:
    def test_matrix_ring_profile(self, m2_setup):
        ring, iset, _ = m2_setup
        profile = idem.chain_profile(ring, iset)
        assert profile.index_size == 2
        assert profile.strong
        assert (profile.ring_left_size, profile.ring_left_height) == (5, 2)
        assert all((c.left_size, c.left_height) == (2, 1) for c in profile.corners)

    def test_rank_one_profile(self):
        ring = corpus.cyclic_ring(2)
        iset = idem.validate_complete_set(ring, [fr.find_identity(ring)])
        profile = idem.chain_profile(ring, iset)
        assert profile.index_size == 1
        assert (profile.ring_left_size, profile.corners[0].left_size) == (2, 2)

    def test_triangular_profile(self, t2_setup):
        ring, iset, _ = t2_setup
        profile = idem.chain_profile(ring, iset)
        assert not profile.strong
        # 7 left ideals, verified against the exhaustive subgroup oracle in
        # the acceptance suite
        assert profile.ring_left_size == 7
        assert profile.ring_right_size == 7


class TestNonFreeCorner:
    """A corner that is no free module over one modulus is still a subgroup
    of S, and every corner check works on it."""

    def test_peirce_table(self, z6z6_setup):
        _, _, table = z6z6_setup
        assert [table.component(i, i).order for i in range(2)] == [12, 3]

    def test_strong(self, z6z6_setup):
        _, _, table = z6z6_setup
        assert idem.strong_condition_report(table).strong

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_corner_certificates(self, z6z6_setup, side):
        _, _, table = z6z6_setup
        for i, count in ((0, 8), (1, 2)):
            cert = idem.corner_lattice_correspondence(table, i, i, side)
            assert cert.ok
            assert cert.ideal_count == count

    def test_chain_profile(self, z6z6_setup):
        ring, iset, _ = z6z6_setup
        profile = idem.chain_profile(ring, iset)
        assert [(c.corner_order, c.left_size, c.right_size) for c in profile.corners] == [
            (12, 8, 8),
            (3, 2, 2),
        ]

    def test_corner_ring_is_not_free(self, z6z6_setup):
        ring, _, _ = z6z6_setup
        with pytest.raises(CornerNotFree):
            fr.corner_ring(ring, ring.element([3, 1]))
