"""Finite poset helpers: covering relations and longest chains.

Callers supply items in a linear extension of the order (here: sorted by
subgroup order), so chain lengths can be computed with a single forward pass.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation


def strict_order_matrix(count: int, lt) -> np.ndarray:
    """Boolean matrix M with M[i, j] true iff item i < item j."""
    M = np.zeros((count, count), dtype=bool)
    for i in range(count):
        for j in range(count):
            if i != j and lt(i, j):
                M[i, j] = True
    return M


def cover_matrix(lt: np.ndarray) -> np.ndarray:
    """Covering relation (transitive reduction) of a strict order matrix."""
    if lt.size == 0:
        return lt.copy()
    reach2 = (lt.astype(np.uint8) @ lt.astype(np.uint8)) > 0
    return lt & ~reach2


def longest_chain_length(lt: np.ndarray) -> int:
    """Edge count of a longest chain; requires lt[i, j] => i < j."""
    n = lt.shape[0]
    if n == 0:
        return 0
    if lt[np.tril_indices(n)].any():
        raise InvariantViolation("items are not topologically sorted")
    height = np.zeros(n, dtype=np.int64)
    for j in range(n):
        preds = np.flatnonzero(lt[:, j])
        if preds.size:
            height[j] = height[preds].max() + 1
    return int(height.max())


def adjacency_lists(cover: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(j) for j in np.flatnonzero(cover[i])) for i in range(cover.shape[0]))
