"""The corpus's draws against the interpreter's own.

Every seeded suite rests on ``corpus._below``, ``_randint``, ``_choice``,
``_sample`` and ``_shuffled``, copies of CPython's draws over a seeded
generator's ``getrandbits``.  Each copy is compared here with the method it
copies, on two generators seeded alike, over 2,000 seeds.  After each draw
the next ``getrandbits(32)`` of both generators must agree, which shows that
both consumed the same bits.  A Python whose own draw changes fails here and
the failure names the draw, while the suites stay the same.
"""

from __future__ import annotations

import random

import pytest

from ringbench import corpus
from ringbench.errors import InvariantViolation

SEEDS = range(2000)

# the ranges the recipes pass to randint: a thin recipe's object count (at
# most 4, or 2 in a union) and its relation size for p objects, and the
# monoid-times-square sizes s of the mx, union and groupoid recipes
RANDINT_RANGES = sorted(
    {(1, 4), (1, 2)}
    | {(0, min(p * (p - 1), 2 * p)) for p in range(1, 5)}
    | {(1, s) for s in (1, 2, 3)}
)

# the sequences the recipes pass to choice
CHOICE_SEQUENCES = (
    corpus._GROUPS,
    corpus._MONOIDS,
    ("thin", "mx", "monoid", "union"),
    ("c1", "c2", "bool2"),
)


def assert_same_draws(cases):
    """Each case is (label, copy, method): the copy draws from a getrandbits,
    the method from the Random it belongs to."""
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for label, copy, method in cases:
            assert copy(ours.getrandbits) == method(theirs), f"{label} differs at seed {seed}"
            assert ours.getrandbits(32) == theirs.getrandbits(32), (
                f"{label} consumed other bits at seed {seed}"
            )


def test_below_is_randbelow():
    assert_same_draws([
        (f"_below({n})", lambda bits, n=n: corpus._below(bits, n),
         lambda r, n=n: r._randbelow(n))
        for n in range(1, 14)
    ])


def test_randint_is_randint_on_the_recipe_ranges():
    assert (0, 0) in RANDINT_RANGES  # randint(0, 0) draws one bit too
    assert_same_draws([
        (f"_randint{ab}", lambda bits, ab=ab: corpus._randint(bits, *ab),
         lambda r, ab=ab: r.randint(*ab))
        for ab in RANDINT_RANGES
    ])


def test_choice_is_choice_on_the_recipe_sequences():
    assert corpus._GROUPS == tuple(sorted(corpus.GROUP_NAMES))
    assert corpus._MONOIDS == tuple(sorted(corpus.MONOID_TABLES))
    assert_same_draws([
        (f"_choice({seq})", lambda bits, seq=seq: corpus._choice(bits, seq),
         lambda r, seq=seq: r.choice(seq))
        for seq in CHOICE_SEQUENCES
    ])


def test_sample_is_sample_on_every_population_up_to_12():
    cases = []
    for n in range(13):
        population = [(n, x) for x in range(n)]
        for k in range(n + 1):
            cases.append((f"_sample({n}, {k})",
                          lambda bits, p=population, k=k: corpus._sample(bits, p, k),
                          lambda r, p=population, k=k: r.sample(p, k)))
    assert_same_draws(cases)


def test_sample_refuses_what_the_pool_branch_does_not_cover():
    bits = random.Random(0).getrandbits
    assert len(corpus._sample(bits, range(21), 21)) == 21
    for population, k in ((range(22), 1), (range(3), 4), (range(3), -1)):
        with pytest.raises(InvariantViolation):
            corpus._sample(bits, population, k)


def test_shuffled_is_shuffle_on_the_prop24_ring_orders():
    orders = sorted({len(inst._units.vectors) for inst in corpus._prop24_base()})
    assert (orders[0], orders[-1]) == (2, 256)

    def shuffled(r, n):
        order = list(range(n))
        r.shuffle(order)
        return order

    assert_same_draws([
        (f"_shuffled({n})", lambda bits, n=n: corpus._shuffled(bits, n),
         lambda r, n=n: shuffled(r, n))
        for n in orders
    ])


def test_no_seeded_suite_calls_a_random_draw_method(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a random.Random draw method was called")

    for name in ("shuffle", "sample", "choice", "randint", "randrange", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refuse)
    corpus.forget_held_work()
    for name in ("prop-2.4", "prop-3.2", "groupoids"):
        assert corpus.generate_suite(name, 1729)
