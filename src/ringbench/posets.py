"""Finite poset helpers: covering relations and longest chains.

A strict order on items 0..n-1 is held as row bitsets: bit j of row i is set
iff item i < item j.  Callers supply items in a linear extension of the order
(here: sorted by subgroup order), so chain lengths can be computed with a
single forward pass.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InvariantViolation


def bits(row: int) -> Iterator[int]:
    """The set bits of a bitset, in increasing order."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def strict_order_matrix(count: int, below: Sequence[int]) -> list[int]:
    """Row bitsets of the strict order of ``count`` items, each the join of
    the generators below it, given as the bitset ``below[i]`` of those
    generators: item i < item j iff i != j and below[i] is a subset of
    below[j].  So the strict up-set of i is the AND, over the generators
    below i, of the items above each, minus i: items times generators of
    work, not a test per pair."""
    above: dict[int, int] = {}  # by generator: the bitset of items above it
    for j, mask in enumerate(below):
        for k in bits(mask):
            above[k] = above.get(k, 0) | 1 << j
    every = (1 << count) - 1
    rows = []
    for i, mask in enumerate(below):
        up = every
        for k in bits(mask):
            up &= above[k]
        rows.append(up & ~(1 << i))
    return rows


def cover_matrix(lt: Sequence[int]) -> list[int]:
    """Covering relation (transitive reduction) of a strict order."""
    cover = []
    for row in lt:
        reach2 = 0
        for j in bits(row):
            reach2 |= lt[j]
        cover.append(row & ~reach2)
    return cover


def longest_chain_length(lt: Sequence[int]) -> int:
    """Edge count of a longest chain; requires i < j whenever item i < item j."""
    height = [0] * len(lt)
    for i, row in enumerate(lt):
        if row & ((2 << i) - 1):
            raise InvariantViolation("items are not topologically sorted")
        for j in bits(row):
            height[j] = max(height[j], height[i] + 1)
    return max(height, default=0)


def is_monotone(lt: Sequence[int], image: list[int], target_lt: Sequence[int]) -> bool:
    """Whether a < b always gives image[a] <= image[b] in the target order."""
    return all(
        image[a] == image[b] or target_lt[image[a]] >> image[b] & 1
        for a, row in enumerate(lt)
        for b in bits(row)
    )


def adjacency_lists(cover: list[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(bits(row)) for row in cover)
