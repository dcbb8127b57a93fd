"""Canonical-form properties of the Howell row reduction over Z/m."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbench import howell


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
    H = howell.howell_form(mat, m)
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
    H = howell.howell_form(mat, m)
    # shuffle rows, duplicate one, add a random combination of the others
    variants = [list(r) for r in rows]
    rng.shuffle(variants)
    if variants:
        variants.append(variants[0])
        combo = np.zeros(n, dtype=np.int64)
        for r in rows:
            combo = (combo + rng.randrange(m) * np.array(r)) % m
        variants.append([int(x) for x in combo])
    H2 = howell.howell_form(np.array(variants, dtype=np.int64).reshape(len(variants), n), m)
    assert np.array_equal(H, H2)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_howell_is_idempotent(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_form(mat, m)
    assert np.array_equal(howell.howell_form(H, m), H)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_span_elements_enumerates_exactly_once(case):
    m, n, rows = case
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    H = howell.howell_form(mat, m)
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
    H, U = howell.howell_complete(mat, m)
    assert np.array_equal((U @ mat) % m, H)
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
    H, U = howell.howell_complete(mat, m)
    assert np.array_equal(mat, before)
    assert all(type(x) is int for row in H + U for x in row)
    assert howell.howell_form(mat, m) == H
    assert howell.howell_form(rows, m) == H  # the int rows FiniteRing.span passes
    Ha = np.array(H, dtype=np.int64).reshape(len(H), n)
    Ua = np.array(U, dtype=np.int64).reshape(len(U), len(rows))
    assert np.array_equal((Ua @ mat) % m, Ha)
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
