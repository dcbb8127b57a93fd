"""The lattice engine and the fixture-count oracle against copies of their
unpruned forms, kept here: every scanned element's principal spanned, every
pair of subgroups joined, and every subgroup adjunction reclosed from
scratch.

The engine must find the same subgroups, in the same first-appearance order
of principals, with the same strict-order matrix, and every work budget
below an enumeration's total must refuse it.  The oracle must give the same
(size, height) as the reclosing oracle.
"""

import itertools

import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import posets
from ringbench import skewalg as sk
from ringbench import verify
from ringbench.errors import LatticeTooLarge

# ---------------------------------------------------------------------------
# the unpruned engine


def unpruned_lattice(acting, ambient, side):
    """(subgroups, strict-order rows, principal keys in first-appearance
    order, elements scanned) by the unpruned engine, which closes the family
    under joins of every pair of subgroups found."""
    ring = ambient.ring
    principal = fr._principal_generators(ring, acting.rows, side)
    scanned, firsts = 0, {}
    for x in ambient.element_vectors():
        scanned += 1
        sub = ring.span(principal(x))
        firsts.setdefault(sub.key, sub)
    found = dict(firsts)
    fresh = list(found.values())
    while fresh:
        existing = sorted(found.values(), key=lambda s: s.key)
        batch = [a.join(b) for a, b in itertools.product(existing, fresh)]
        fresh = []
        for sub in batch:
            if sub.key not in found:
                found[sub.key] = sub
                fresh.append(sub)
    subs = tuple(sorted(found.values(), key=lambda s: (s.order, s.key)))
    lt = tuple(posets.strict_order_matrix(len(subs), lambda i, j: subs[i] < subs[j]))
    return subs, lt, list(firsts), scanned


@pytest.fixture
def engine(monkeypatch):
    """Runs submodule_lattice afresh and reports what the unpruned engine
    reports: the principal keys join_closure receives, in order, and the
    elements scanned, read off the scan's work of _lattice_step steps each."""
    closure = fr.join_closure

    def run(acting, ambient, side):
        ring = ambient.ring
        ring._lattices.clear()
        seen = {}

        def recorded(principals, work):
            seen["firsts"] = [sub.key for sub in principals]
            seen["scanned"] = work // fr._lattice_step(ring)
            return closure(principals, work)

        monkeypatch.setattr(fr, "join_closure", recorded)
        try:
            subs, lt = fr.submodule_lattice(acting, ambient, side)
        finally:
            monkeypatch.setattr(fr, "join_closure", closure)
        return subs, lt, seen["firsts"], seen["scanned"]

    return run


def same_outcome(got, want):
    """Equal lattices, first-appearance orders and elements scanned."""
    assert [s.key for s in got[0]] == [s.key for s in want[0]]
    assert got[1:] == want[1:]


def prop24_enumerations(seed):
    """(acting, ambient, side) of every corner and component lattice the
    prop-2.4 suite's complete sets give, each distinct one once."""
    seen = {}
    for inst in corpus.generate_suite("prop-2.4", seed):
        table = idem.peirce_table(idem.validate_complete_set(inst.ring, inst.idempotents))
        comps, k = table.components, table.size
        for i, j in itertools.product(range(k), repeat=2):
            if comps[i][j].is_zero():
                continue
            for side in ("left", "right"):
                ambient = comps[j][i] if side == "left" else comps[i][j]
                for acting, amb in ((comps[i][i], comps[i][i]), (comps[j][j], ambient)):
                    seen.setdefault((id(inst.ring), acting.key, amb.key, side), (acting, amb, side))
    return list(seen.values())


@pytest.mark.parametrize("seed", [1729, 3])
def test_prop24_lattices_match_the_unpruned_engine(engine, seed):
    enumerations = prop24_enumerations(seed)
    assert len(enumerations) > 100
    for acting, ambient, side in enumerations:
        same_outcome(engine(acting, ambient, side), unpruned_lattice(acting, ambient, side))


def small_modulus_rings():
    """Cyclic, triangular, C2 and (up to the corpus order cap) matrix rings
    over composite moduli, as test parameters."""
    out = []
    for m in (4, 6, 8, 9, 12):
        c2 = corpus.one_object_monoid_category("c2")
        out += [
            pytest.param(corpus.cyclic_ring(m), id=f"cyclic_z{m}"),
            pytest.param(corpus.upper_triangular_ring(m, 2), id=f"triangular2_z{m}"),
            pytest.param(
                sk.build_category_algebra(corpus.cyclic_ring(m), c2).ring, id=f"c2_algebra_z{m}"
            ),
        ]
        if m**4 <= corpus.MAX_RING_ORDER:
            out.append(pytest.param(corpus.matrix_units_ring(m, 2), id=f"matrix2_z{m}"))
    return out


@pytest.mark.parametrize("ring", small_modulus_rings())
def test_ideal_lattices_over_composite_moduli_match_the_unpruned_engine(engine, ring):
    full = ring.full_subgroup()
    for side in ("left", "right"):
        same_outcome(engine(full, full, side), unpruned_lattice(full, full, side))
        # a corner: the left ideal of the first basis idempotent
        e = ring.basis_element(0).coords
        corner = ring.sandwich(e, e)
        same_outcome(engine(corner, corner, side), unpruned_lattice(corner, corner, side))


@pytest.mark.parametrize(
    "ring, side",
    [
        pytest.param(corpus.upper_triangular_ring(6, 2), "left", id="triangular2_z6"),
        pytest.param(corpus.zero_multiplication_ring(2, 4), "right", id="zero4_z2"),
    ],
)
def test_every_budget_below_the_total_raises(monkeypatch, ring, side):
    full = ring.full_subgroup()
    charges = []
    charged = fr._charged
    monkeypatch.setattr(fr, "_charged", lambda work: charges.append(work) or charged(work))
    subs, lt = fr.submodule_lattice(full, full, side)
    monkeypatch.setattr(fr, "_charged", charged)
    step, total = fr._lattice_step(ring), charges[-1]
    # max(rank^2, 16) steps per element scanned, then one charge per round of
    # joins
    scan, rounds = charges[: ring.order], charges[ring.order :]
    assert scan == [step * (k + 1) for k in range(ring.order)]
    assert len(rounds) >= 2
    # each round charges its new subgroups against every principal, and
    # every subgroup is new in exactly one round
    principals = len(fr._principals(full, full, side)[0])
    gaps = [b - a for a, b in zip(charges[ring.order - 1 :], rounds)]
    assert all(gap % (principals * step) == 0 for gap in gaps)
    assert sum(gaps) == len(subs) * principals * step
    # between two charges every budget has the same outcome, so the budgets
    # at a charge and just below the next one cover every budget below total
    for before, at in zip([0] + charges, charges):
        for budget in {before, at - 1}:
            ring._lattices.clear()
            monkeypatch.setattr(fr, "MAX_LATTICE_WORK", budget)
            with pytest.raises(LatticeTooLarge) as exc:
                fr.submodule_lattice(full, full, side)
            assert (exc.value.work, exc.value.cap) == (at, budget)
            assert exc.value.work > exc.value.cap
            assert not ring._lattices
    monkeypatch.setattr(fr, "MAX_LATTICE_WORK", total)
    ring._lattices.clear()
    assert fr.submodule_lattice(full, full, side) == (subs, lt)


# ---------------------------------------------------------------------------
# the reclosing oracle


def reclose(gens, m, zero):
    """The subgroup generated by ``gens``, closed from scratch."""
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def reclosed_subgroups(ring):
    """Every additive subgroup, each adjunction <H, x> reclosed from H's
    elements and x."""
    m, zero = ring.modulus, (0,) * ring.rank
    elements = list(ring.element_vectors())
    subgroups = {reclose([], m, zero)}
    frontier = list(subgroups)
    while frontier:
        H = frontier.pop()
        for x in elements:
            if x not in H:
                H2 = reclose(list(H) + [x], m, zero)
                if H2 not in subgroups:
                    subgroups.add(H2)
                    frontier.append(H2)
    return subgroups


def reclosing_oracle(ring, side):
    """(count, height) of the one-sided ideals among the reclosed subgroups."""
    m, n = ring.modulus, ring.rank
    basis = list(ring._basis_rows)
    if side == "left":
        absorbs = lambda H: all(ring.mul_vec(b, x) in H for b in basis for x in H)  # noqa: E731
    else:
        absorbs = lambda H: all(ring.mul_vec(x, b) in H for b in basis for x in H)  # noqa: E731
    order = sorted((H for H in reclosed_subgroups(ring) if absorbs(H)), key=len)
    height = [0] * len(order)
    for i, j in itertools.combinations(range(len(order)), 2):
        if len(order[i]) < len(order[j]) and order[i] <= order[j]:
            height[j] = max(height[j], height[i] + 1)
    return len(order), max(height)


def oracle_rings():
    """The three fixture rings and the suite rings of order at most 27, as
    test parameters."""
    z2 = corpus.cyclic_ring(2)
    out = [
        pytest.param(corpus.matrix_units_ring(2, 2), id="matrix2_z2"),
        pytest.param(
            sk.build_category_algebra(z2, corpus.thin_category_from_relation(2, [(0, 1)])).ring,
            id="triangular2_z2",
        ),
        pytest.param(
            sk.build_category_algebra(z2, corpus.one_object_monoid_category("c2")).ring,
            id="group_algebra_c2_z2",
        ),
    ]
    rings = {}
    for inst in corpus.generate_suite("prop-2.4", 1729):
        rings.setdefault(id(inst.ring), inst)
    for inst in rings.values():
        if inst.ring.order <= 27:
            out.append(pytest.param(inst.ring, id=f"suite_{inst.name}"))
    return out


@pytest.mark.parametrize("ring", oracle_rings())
def test_oracle_matches_the_reclosing_oracle(ring):
    for side in ("left", "right"):
        assert verify.brute_force_one_sided_ideal_count(ring, side) == reclosing_oracle(ring, side)


@pytest.mark.parametrize("ring", oracle_rings())
def test_coset_adjunction_matches_reclosing(ring):
    m, zero = ring.modulus, (0,) * ring.rank
    elements = list(ring.element_vectors())
    for H in reclosed_subgroups(ring):
        for x in elements:
            assert verify._adjoin(H, x, m) == reclose(list(H) + [x], m, zero)
