"""Canonical-form properties of the Howell row reduction over Z/m."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import content_key
from ringbench import howell
from test_corpus import pinned_inverse


def brute_span(rows, m, n):
    """All Z-combinations of the rows, by closure."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    gens = [tuple(int(x) for x in r) for r in rows]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def _span_order(H, m):
    """Elements in the row span of a Howell matrix: m // p for each pivot p."""
    return math.prod(m // p for _, p in howell.leading_entries(H))


@st.composite
def suite_like_rows(draw, entries, n: int, k: int):
    """k rows of n entries as the suites pass them to the reduction: about
    29% zero rows and 10% repeats of an earlier row, the rest drawn from
    ``entries``."""
    rows = []
    for _ in range(k):
        kind = draw(st.integers(min_value=0, max_value=99))
        if kind < 29:
            rows.append([0] * n)
        elif kind < 39 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows


small_matrix = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
).flatmap(
    lambda mnk: suite_like_rows(
        st.integers(min_value=0, max_value=mnk[0] - 1), mnk[1], mnk[2]
    ).map(lambda rows: (mnk[0], mnk[1], rows))
)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_howell_membership_matches_brute_force(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_complete(mat, m)
    expected = brute_span(rows, m, n)
    assert _span_order(H, m) == len(expected)
    import itertools

    for v in itertools.product(range(m), repeat=n):
        assert howell.contains_vector(H, np.array(v), m) == (v in expected)


@settings(max_examples=150, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_howell_is_canonical_under_generator_changes(case, rng):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_complete(mat, m)
    # shuffle rows, duplicate one, add a random combination of the others
    variants = [list(r) for r in rows]
    rng.shuffle(variants)
    if variants:
        variants.append(variants[0])
        combo = np.zeros(n, dtype=np.int64)
        for r in rows:
            combo = (combo + rng.randrange(m) * np.array(r)) % m
        variants.append([int(x) for x in combo])
    H2 = howell.howell_complete(np.array(variants, dtype=np.int64).reshape(len(variants), n), m)
    assert np.array_equal(H, H2)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_howell_is_idempotent(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_complete(mat, m)
    assert np.array_equal(howell.howell_complete(H, m), H)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_span_elements_enumerates_exactly_once(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_complete(mat, m)
    elems = list(howell.span_elements(H, m, n))
    assert len(elems) == len(set(elems)) == _span_order(H, m)
    assert set(elems) == brute_span(rows, m, n)


@settings(max_examples=150, deadline=None)
@given(small_matrix, st.data())
def test_solve_row_finds_and_verifies_solutions(case, data):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    if len(rows):
        coeffs = data.draw(
            st.lists(st.integers(min_value=0, max_value=m - 1), min_size=len(rows), max_size=len(rows))
        )
        b = (np.array(coeffs, dtype=np.int64) @ mat) % m
        x = howell.solve_row(mat, b, m)
        assert x is not None
        assert not ((x @ mat - b) % m).any()
    probe = np.array(
        data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    x = howell.solve_row(mat, probe, m)
    if tuple(int(v) for v in probe) in brute_span(rows, m, n):
        assert x is not None
    else:
        assert x is None


def test_transform_tracks_row_operations():
    m = 12
    mat = np.array([[8, 5, 5], [0, 9, 8], [0, 0, 10]], dtype=np.int64)
    H = howell.howell_complete(mat, m)
    for row in H:
        x = howell.solve_row(mat, row, m)
        assert tuple(int(v) for v in (x @ mat) % m) == row
    # pivot entries divide the modulus
    for row in H:
        p = int(row[np.flatnonzero(row)[0]])
        assert m % p == 0


def test_unit_normalizes_to_gcd():
    import math

    for m in range(2, 40):
        for a in range(1, m):
            u = howell.stabilizing_unit(a, m)
            assert math.gcd(u, m) == 1
            assert (u * a) % m == math.gcd(a, m)


# The shapes the suites actually reduce: up to 12 generators of length 6,
# entries drawn outside [0, m) too, with zero and repeated rows.
suite_matrix = st.tuples(
    st.sampled_from([4, 6, 8, 9, 12, 30]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=12),
).flatmap(
    lambda mnk: suite_like_rows(
        st.integers(min_value=-2 * mnk[0], max_value=3 * mnk[0]), mnk[1], mnk[2]
    ).map(lambda rows: (mnk[0], mnk[1], rows))
)


@settings(max_examples=200, deadline=None)
@given(suite_matrix)
def test_suite_shapes_reduce_to_howell_form(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    before = mat.copy()
    H = howell.howell_complete(mat, m)
    assert np.array_equal(mat, before)
    assert all(type(x) is int for row in H for x in row)
    assert howell.howell_complete(rows, m) == H  # the int rows FiniteRing.span passes
    for row in H:
        x = howell.solve_row(mat, row, m)
        assert all(type(v) is int for v in x)
        assert howell.combine(x, rows, m, n) == row
    Ha = np.array(H, dtype=np.int64).reshape(len(H), n)
    assert ((Ha >= 0) & (Ha < m)).all()
    pivots = [(int(np.flatnonzero(row)[0]), int(row[np.flatnonzero(row)[0]])) for row in Ha]
    assert all(a[0] < b[0] for a, b in zip(pivots, pivots[1:]))
    for i, (c, p) in enumerate(pivots):
        assert m % p == 0
        assert all(0 <= Ha[j, c] < p for j in range(i))
    if m**n <= 4096:
        assert _span_order(H, m) == len(brute_span(rows, m, n))


def test_solve_row_on_the_wide_identity_system():
    from ringbench import corpus, finring

    # find_identity's system for 3 x 3 matrices: x * b_i = b_i = b_i * x
    ring = corpus.matrix_units_ring(2, 3)
    n = ring.rank
    A = np.hstack([ring.sc.reshape(n, n * n), ring.sc.transpose(1, 0, 2).reshape(n, n * n)])
    assert A.shape == (9, 162)
    target = np.hstack([np.eye(n, dtype=np.int64).reshape(-1)] * 2)
    x = howell.solve_row(A, target, 2)
    unit = tuple(int(lab in ("E11", "E22", "E33")) for lab in ring.basis_labels)
    assert tuple(int(v) for v in x) == unit
    assert finring.find_identity(ring).coords == unit


# ---------------------------------------------------------------------------
# solve_row pinned against the transform path it replaced: a transform U with
# U @ A == H, tracked beside every row operation of the reduction, and the
# coefficients of b's greedy reduction against H, combined through U


def pinned_howell_transform(mat, m):
    """(H, U) with U @ mat == H mod m, by the row operations of the
    reduction, each applied to the transform rows too."""
    k = len(mat)
    n = len(mat[0]) if k else 0
    rows, kept = [], []
    for i, row in enumerate(mat):
        row = [int(x) % m for x in row]
        if any(row):
            rows.append(row)
            kept.append(i)
    urows = [[int(i == j) for j in range(k)] for i in kept]
    r = 0
    for c in range(n):
        for piv in range(r, len(rows)):
            if rows[piv][c]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        urows[r], urows[piv] = urows[piv], urows[r]
        if m % rows[r][c]:
            u = howell.stabilizing_unit(rows[r][c], m)
            rows[r] = [x * u % m for x in rows[r]]
            urows[r] = [x * u % m for x in urows[r]]
        for i in range(r + 1, len(rows)):
            b = rows[i][c]
            if not b:
                continue
            a = rows[r][c]
            q, rem = divmod(b, a)
            if not rem:
                rows[i] = [(y - q * x) % m for x, y in zip(rows[r], rows[i])]
                urows[i] = [(y - q * x) % m for x, y in zip(urows[r], urows[i])]
                continue
            g, s, t = howell.egcd(a, b)
            uu, vv = -(b // g), a // g
            top, low = rows[r], rows[i]
            rows[r] = [(s * x + t * y) % m for x, y in zip(top, low)]
            rows[i] = [(uu * x + vv * y) % m for x, y in zip(top, low)]
            top, low = urows[r], urows[i]
            urows[r] = [(s * x + t * y) % m for x, y in zip(top, low)]
            urows[i] = [(uu * x + vv * y) % m for x, y in zip(top, low)]
        b = rows[r][c]
        for i in range(r):
            q = rows[i][c] // b
            if q:
                rows[i] = [(x - q * y) % m for x, y in zip(rows[i], rows[r])]
                urows[i] = [(x - q * y) % m for x, y in zip(urows[i], urows[r])]
        if b > 1:
            a = m // b
            ann = [a * x % m for x in rows[r]]
            if any(ann):
                rows.append(ann)
                urows.append([a * x % m for x in urows[r]])
        r += 1
    assert not any(any(row) for row in rows[r:])
    return tuple(map(tuple, rows[:r])), tuple(map(tuple, urows[:r]))


def pinned_solve_row(A, b, m):
    """x = coeffs @ U for the coefficients of b's reduction against H."""
    H, U = pinned_howell_transform(A, m)
    w = [int(x) % m for x in b]
    coeffs = [0] * len(H)
    for i, ((c, p), row) in enumerate(zip(howell.leading_entries(H), H)):
        q, rem = divmod(w[c], p)
        if q and not rem:
            w = [(x - q * y) % m for x, y in zip(w, row)]
            coeffs[i] = q
    if any(w):
        return None
    return howell.combine(coeffs, U, m, len(A))


def assert_solves_as_pinned(A, b, m):
    """Solvability as the transform path's, a solution that solves, and the
    same solution when it is unique (the span of A has m^k elements)."""
    x, old = howell.solve_row(A, b, m), pinned_solve_row(A, b, m)
    assert (x is None) == (old is None)
    if x is None:
        return
    assert howell.combine(x, A, m, len(b)) == tuple(int(v) % m for v in b)
    if _span_order(pinned_howell_transform(A, m)[0], m) == m ** len(A):
        assert x == old


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_matrix, suite_matrix), st.data())
def test_solve_row_matches_the_transform_path(case, data):
    m, n, rows = case
    entries = st.integers(min_value=0, max_value=m - 1)
    if rows:
        coeffs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        assert_solves_as_pinned(rows, howell.combine(coeffs, rows, m, n), m)
    assert_solves_as_pinned(rows, data.draw(st.lists(entries, min_size=n, max_size=n)), m)


@pytest.fixture(scope="module")
def driver_solves():
    """Every solve_row input, ring unit and element inverse of the eleven
    drivers at two suite seeds, with the library's answers."""
    from ringbench import corpus, finring, verify

    corpus.forget_held_work()  # this fixture runs before empty_suite_memo
    solves, units, inverses = [], [], []
    solve, unit_of, inverse = howell.solve_row, finring._unit_of, corpus._Units.inverse

    def recording_solve(A, b, m):
        solves.append((A, b, m))
        return solve(A, b, m)

    def recording_unit_of(ring, rows):
        units.append((ring, rows, unit_of(ring, rows)))
        return units[-1][2]

    def recording_inverse(self, idx):
        inverses.append((self, idx, inverse(self, idx)))
        return inverses[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(howell, "solve_row", recording_solve)
        mp.setattr(finring, "_unit_of", recording_unit_of)
        mp.setattr(corpus._Units, "inverse", recording_inverse)
        for seed in (1729, 3):
            for name in verify.PROP_CHECKS:
                verify.run_check(name, seed)
    return solves, units, inverses


def test_driver_solves_match_the_transform_path(driver_solves):
    solves, _, _ = driver_solves
    assert len(solves) == 132  # the ring units; inverses are walked
    assert len({content_key(call) for call in solves}) == 56
    for A, b, m in solves:
        assert_solves_as_pinned(A, b, m)


def test_driver_units_and_inverses_match_the_transform_path(driver_solves, monkeypatch):
    from ringbench import finring

    _, units, inverses = driver_solves
    assert units and inverses
    for table, idx, q in inverses:
        assert pinned_inverse(table, idx) == q
    monkeypatch.setattr(howell, "solve_row", pinned_solve_row)
    for ring, rows, u in units:
        assert finring._unit_of(ring, rows) == u


def test_prop24_build_solves_only_for_units(monkeypatch):
    """Each element inverse is walked, not solved: building the prop-2.4
    suite calls solve_row once per ring unit it solves, and no more."""
    from ringbench import corpus, finring

    calls = {"solve_row": 0, "_unit_of": 0}
    for module, name in ((howell, "solve_row"), (finring, "_unit_of")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    corpus.generate_suite("prop-2.4", 1729)
    assert calls["solve_row"] == calls["_unit_of"] > 0
