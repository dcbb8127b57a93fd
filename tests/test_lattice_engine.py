"""The lattice engine and the fixture-count oracle against copies of their
unpruned forms, kept here: every scanned element's principal spanned, every
pair of subgroups joined, and every subgroup adjunction reclosed from
scratch.

The engine must find the same subgroups, in the same first-appearance order
of principals, with the same strict-order matrix, and must raise the same
error at the same scanned element under every cap.  The oracle must give the
same (size, height) as the reclosing oracle.
"""

import itertools

import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import posets
from ringbench import skewalg as sk
from ringbench import verify
from ringbench.errors import LatticeScanTooLarge, LatticeTooLarge

# ---------------------------------------------------------------------------
# the unpruned engine


def unpruned_lattice(acting, ambient, side, cap, log=None):
    """(subgroups, strict-order rows, principal keys in first-appearance
    order, elements scanned) by the unpruned engine, or
    (error, elements scanned) when a cap is reached.  ``log`` gets the
    elements scanned at each insertion of a new subgroup."""
    ring = ambient.ring
    principal = fr._principal_generators(ring, acting.rows, side)
    step, scanned, firsts = ring.rank**2, [0], {}

    def principals():
        for x in ambient.element_vectors():
            if (scanned[0] + 1) * step > fr.MAX_LATTICE_SCAN_WORK:
                raise LatticeScanTooLarge((scanned[0] + 1) * step, fr.MAX_LATTICE_SCAN_WORK)
            scanned[0] += 1
            sub = ring.span(principal(x))
            firsts.setdefault(sub.key, None)
            yield sub

    found = {}
    batch = principals()
    try:
        while True:
            fresh = []
            for sub in batch:
                if sub.key not in found:
                    found[sub.key] = sub
                    fresh.append(sub)
                    if log is not None:
                        log.append(scanned[0])
                    if len(found) > cap:
                        raise LatticeTooLarge(cap)
            if not fresh:
                break
            existing = sorted(found.values(), key=lambda s: s.key)
            batch = [a.join(b) for a, b in itertools.product(existing, fresh)]
    except (LatticeTooLarge, LatticeScanTooLarge) as exc:
        return exc, scanned[0]
    subs = tuple(sorted(found.values(), key=lambda s: (s.order, s.key)))
    lt = tuple(posets.strict_order_matrix(len(subs), lambda i, j: subs[i] < subs[j]))
    return subs, lt, list(firsts), scanned[0]


@pytest.fixture
def engine(monkeypatch):
    """Runs submodule_lattice afresh and reports what the unpruned engine
    reports: the principal keys join_closure receives, deduplicated in
    order, and the elements _scanned yields."""
    closure, scan = fr.join_closure, fr._scanned

    def run(acting, ambient, side, cap):
        ambient.ring._lattices.clear()
        scanned, firsts = [0], {}

        def counted(sub):
            for x in scan(sub):
                scanned[0] += 1
                yield x

        def recorded(principals, cap):
            def seen():
                for sub in principals:
                    firsts.setdefault(sub.key, None)
                    yield sub

            return closure(seen(), cap)

        monkeypatch.setattr(fr, "_scanned", counted)
        monkeypatch.setattr(fr, "join_closure", recorded)
        try:
            subs, lt = fr.submodule_lattice(acting, ambient, side, cap)
        except (LatticeTooLarge, LatticeScanTooLarge) as exc:
            return exc, scanned[0]
        finally:
            monkeypatch.setattr(fr, "_scanned", scan)
            monkeypatch.setattr(fr, "join_closure", closure)
        return subs, lt, list(firsts), scanned[0]

    return run


def same_outcome(got, want):
    """Equal lattices and first-appearance orders, or the same error class,
    message and attributes at the same scanned element."""
    if isinstance(want[0], Exception):
        assert isinstance(got[0], Exception), got
        assert type(got[0]) is type(want[0])
        assert str(got[0]) == str(want[0]) and vars(got[0]) == vars(want[0])
        assert got[1] == want[1]
    else:
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
        want = unpruned_lattice(acting, ambient, side, fr.DEFAULT_LATTICE_CAP)
        same_outcome(engine(acting, ambient, side, fr.DEFAULT_LATTICE_CAP), want)


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
        want = unpruned_lattice(full, full, side, fr.DEFAULT_LATTICE_CAP)
        same_outcome(engine(full, full, side, fr.DEFAULT_LATTICE_CAP), want)
        # a corner: the left ideal of the first basis idempotent
        e = ring.basis_element(0).coords
        corner = ring.sandwich(e, e)
        want = unpruned_lattice(corner, corner, side, fr.DEFAULT_LATTICE_CAP)
        same_outcome(engine(corner, corner, side, fr.DEFAULT_LATTICE_CAP), want)


def unpruned_outcome(log, total, cap, step):
    """What the unpruned engine does under ``cap``, from its insertion
    ``log`` and ``total`` elements: LatticeTooLarge at the element of the
    cap+1-th insertion, unless the scan cap stops the scan first."""
    limit = fr.MAX_LATTICE_SCAN_WORK // step  # the last element it scans
    scanned = log[cap] if cap < len(log) else total
    if scanned > limit:
        return LatticeScanTooLarge((limit + 1) * step, fr.MAX_LATTICE_SCAN_WORK), limit
    return LatticeTooLarge(cap), scanned


def test_every_cap_raises_where_the_unpruned_engine_does(engine, monkeypatch):
    ring = corpus.upper_triangular_ring(12, 2)
    full = ring.full_subgroup()
    log = []
    subs, _, _, total = unpruned_lattice(full, full, "left", fr.DEFAULT_LATTICE_CAP, log)
    assert len(subs) == len(log) == 208 and total == ring.order
    step = ring.rank**2
    # the outcome derived from the log is what a capped run gives
    for cap in (1, 50, 132, 133, 207):
        same_outcome(unpruned_lattice(full, full, "left", cap), unpruned_outcome(log, total, cap, step))
    for cap in range(1, len(subs)):
        same_outcome(engine(full, full, "left", cap), unpruned_outcome(log, total, cap, step))
    # the scan cap stops the scan at its 400th element: the smaller caps are
    # reached before it, the larger ones after
    monkeypatch.setattr(fr, "MAX_LATTICE_SCAN_WORK", 400 * step)
    raised = set()
    for cap in range(1, len(subs)):
        want = unpruned_outcome(log, total, cap, step)
        raised.add(type(want[0]))
        same_outcome(engine(full, full, "left", cap), want)
    for cap in (1, 20, 40, 100):
        same_outcome(unpruned_lattice(full, full, "left", cap), unpruned_outcome(log, total, cap, step))
    assert raised == {LatticeTooLarge, LatticeScanTooLarge}


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
