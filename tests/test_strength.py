"""The strength conditions against literal copies of the loops they replaced,
and the work they do at the morphism cap.

The copies below visit every index triple and pair and test each entry for
zero on every visit.  strength's conditions must give the same verdict, the
same witness and the same products, formed in the same order, on drawn
tables and on every table the eleven drivers build at two suite seeds.
"""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import content_key
from ringbench import corpus
from ringbench import smallcat as sc
from ringbench import strength, verify


class LiteralTable:
    """The component table as the literal loops read it: the zero test is
    asked again on every visit."""

    def __init__(self, entries, is_zero, product, holds_unit, third_zero, product_misses,
                 opposed_zero, diagonal_missed, unit_missed):
        self.entries, self.is_zero, self.product = entries, is_zero, product
        self.holds_unit, self.third_zero = holds_unit, third_zero
        self.product_misses, self.opposed_zero = product_misses, opposed_zero
        self.diagonal_missed, self.unit_missed = diagonal_missed, unit_missed
        self.products = {}

    def product_at(self, i, j, l):
        key = (i, j, l)
        if key not in self.products:
            s = self.entries
            self.products[key] = self.product(s[i][j], s[j][l])
        return self.products[key]


def literal_condition1(t):
    s = t.entries
    k = len(s)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                nonzero = sum(not t.is_zero(c) for c in (s[i][j], s[j][l], s[i][l]))
                if nonzero < 2:
                    continue
                if nonzero == 2:
                    return False, ((i, j, l), t.third_zero)
                if t.product_at(i, j, l) != s[i][l]:
                    return False, ((i, j, l), t.product_misses)
    return True, None


def literal_condition2(t):
    s = t.entries
    k = len(s)
    for p in range(k):
        for q in range(k):
            zero_pq, zero_qp = t.is_zero(s[p][q]), t.is_zero(s[q][p])
            if zero_pq and zero_qp:
                continue
            if zero_pq or zero_qp:
                return False, ((p, q), t.opposed_zero)
            if t.product_at(p, q, p) != s[p][p]:
                return False, ((p, q), t.diagonal_missed)
    return True, None


def literal_condition3(t):
    s = t.entries
    k = len(s)
    for p in range(k):
        for q in range(k):
            zero_pq, zero_qp = t.is_zero(s[p][q]), t.is_zero(s[q][p])
            if zero_pq and zero_qp:
                continue
            if zero_pq or zero_qp:
                return False, ((p, q), t.opposed_zero)
            if not t.holds_unit(t.product_at(p, q, p), p):
                return False, ((p, q), t.unit_missed)
    return True, None


LITERAL = (literal_condition1, literal_condition2, literal_condition3)


def assert_same_evaluation(table_class, args, kwargs) -> list:
    """Run the three conditions in report order on one table of each kind;
    return the verdicts and witnesses."""
    old, new = LiteralTable(*args, **kwargs), table_class(*args, **kwargs)
    results = []
    for literal, name in zip(LITERAL, ("condition1", "condition2", "condition3")):
        result = getattr(strength, name)(new)
        assert result == literal(old), name
        assert list(new.products) == list(old.products), name
        results.append(result)
    return results


def category_table_arguments(category, entries) -> tuple[tuple, dict]:
    """homset_strong_report's arguments, over a possibly altered hom table."""
    return (entries,), dict(
        is_zero=lambda hs: not hs,
        product=lambda A, B: sc._set_product(category, A, B),
        holds_unit=lambda composites, x: category.identity[x] in composites,
        third_zero="third", product_misses="misses", opposed_zero="opposed",
        diagonal_missed="diagonal", unit_missed="unit",
    )


@functools.lru_cache(maxsize=None)
def mx_category(name: str, s: int) -> sc.SmallCategory:
    return sc.build_MX(corpus.MONOID_TABLES[name], s)


@st.composite
def altered_category_tables(draw):
    """The hom table of a small category (a preorder's, or an MX
    category's) with a few entries emptied or swapped, so that every
    branch of the three conditions is reached."""
    k = draw(st.integers(1, 8))
    names = [n for n, t in sorted(corpus.MONOID_TABLES.items()) if len(t) * k * k <= 64]
    if names and draw(st.booleans()):
        category = mx_category(draw(st.sampled_from(names)), k)
    else:
        index = st.integers(0, k - 1)
        pairs = draw(st.lists(st.tuples(index, index), max_size=2 * k))
        category = corpus.thin_category_from_relation(k, pairs)
    entries = [list(row) for row in sc._hom_table(category)]
    cell = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    for change in draw(st.lists(st.tuples(st.booleans(), cell, cell), max_size=3)):
        emptied, (i, j), (a, b) = change
        if emptied:
            entries[i][j] = frozenset()
        else:
            entries[i][j], entries[a][b] = entries[a][b], entries[i][j]
    return category_table_arguments(category, entries)


@settings(max_examples=300, deadline=None)
@given(altered_category_tables())
def test_conditions_match_the_literal_loops_on_drawn_tables(arguments):
    assert_same_evaluation(strength.ComponentTable, *arguments)


# Peirce, hom-set and hom-component tables built while the eleven drivers
# run (a category recipe's hom-set table once, on its build), and how many
# distinct (kind, entries) they hold
DRIVER_TABLES = {1729: (340, 263), 3: (344, 270)}


@pytest.mark.parametrize("seed", sorted(DRIVER_TABLES))
def test_conditions_match_the_literal_loops_on_every_driver_table(monkeypatch, seed):
    built = []
    table_class = strength.ComponentTable

    def recording(*args, **kwargs):
        built.append((args, kwargs))
        return table_class(*args, **kwargs)

    monkeypatch.setattr(strength, "ComponentTable", recording)
    for name in verify.PROP_CHECKS:
        verify.run_check(name, seed)
    monkeypatch.undo()
    distinct = {(kwargs["third_zero"], content_key(args[0])) for args, kwargs in built}
    assert (len(built), len(distinct)) == DRIVER_TABLES[seed]
    reasons = Counter()
    for args, kwargs in built:
        for verdict, witness in assert_same_evaluation(table_class, args, kwargs):
            reasons[witness[1] if witness else verdict] += 1
    # both verdicts; the driver tables fail only at their zero clauses, so the
    # product and unit branches are the drawn tables' to reach
    assert reasons[True] and len(reasons) > 1


def discrete_category(n: int) -> sc.SmallCategory:
    table = [[sc.UNDEFINED] * n for _ in range(n)]
    for a in range(n):
        table[a][a] = a
    return sc.make_category(n, range(n), range(n), range(n), table)


def test_discrete_category_at_the_cap_reads_each_entry_once(monkeypatch):
    """The 174 x 174 hom table has 174 nonzero entries: its zero pattern is
    read once, k^2 zero tests (15,925,176 when every visit asked again),
    and only the 174 diagonal products are formed."""
    n = sc.MAX_MORPHISMS
    counts = Counter()
    table_class = strength.ComponentTable

    def counting(entries, *, is_zero, product, **kwargs):
        def zero(c):
            counts["is_zero"] += 1
            return is_zero(c)

        def times(a, b):
            counts["product"] += 1
            return product(a, b)

        return table_class(entries, is_zero=zero, product=times, **kwargs)

    monkeypatch.setattr(strength, "ComponentTable", counting)
    report = sc.homset_strong_report(discrete_category(n))
    assert report.agree and report.strong
    assert counts == {"is_zero": n * n, "product": n}
