"""The three equivalent strength conditions, evaluated over a component table.

The same three conditions are asked of a ring's Peirce components e_i S e_j,
of a category's hom-sets and of a grading's hom-components.  Each caller
supplies its k x k table together with the operations the conditions need
(a zero test, a product, and whether a product holds the local unit at an
index); components are compared with ``==``.  The table makes its k^2 zero
tests once; condition 1 walks the zero pattern in its own triple loop, and
conditions 2 and 3 share one pair walk.  Each condition makes its own pass
and reports its own witness, so the agreement of the three verdicts stays a
checked fact on every instance rather than an assumption.  The passes share
products: S_ij S_jl is formed once per table, as condition 1 meets it at
(p, q, p) and conditions 2 and 3 ask for S_pq S_qp again.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from .posets import bits


class StrongnessReport(NamedTuple):
    """Independent verdicts for the three equivalent strength conditions.

    A false verdict carries the smallest lexicographic witness: the failing
    index tuple plus a short reason.  ``agree`` records whether the three
    verdicts coincide; their equivalence is re-checked on every instance
    rather than assumed.
    """

    condition1: bool
    condition2: bool
    condition3: bool
    witness1: tuple | None
    witness2: tuple | None
    witness3: tuple | None

    @property
    def agree(self) -> bool:
        return self.condition1 == self.condition2 == self.condition3

    @property
    def strong(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3


class ComponentTable:
    """A k x k table of components and its zero pattern, the operations on them,
    and the witness reasons, each worded by the caller for its own kind of component."""

    __slots__ = (
        "entries", "nonzero", "product", "holds_unit", "third_zero", "product_misses",
        "opposed_zero", "diagonal_missed", "unit_missed", "products",
    )

    def __init__(
        self,
        entries: Sequence[Sequence[Any]],
        is_zero: Callable[[Any], bool],
        product: Callable[[Any, Any], Any],
        holds_unit: Callable[[Any, int], bool],  # (product, p) -> local unit at p inside
        third_zero: str,  # condition 1: two of S_ij, S_jl, S_il nonzero, the third zero
        product_misses: str,  # condition 1: S_ij S_jl differs from S_il
        opposed_zero: str,  # conditions 2 and 3: exactly one of S_pq, S_qp is zero
        diagonal_missed: str,  # condition 2: S_pq S_qp differs from S_pp
        unit_missed: str,  # condition 3: S_pq S_qp misses the local unit at p
    ):
        self.entries, self.product = entries, product
        self.holds_unit, self.third_zero = holds_unit, third_zero
        self.product_misses, self.opposed_zero = product_misses, opposed_zero
        self.diagonal_missed, self.unit_missed = diagonal_missed, unit_missed
        # the table's only zero tests: bit j of row bitset nonzero[i] iff S_ij is nonzero
        self.nonzero = [sum(1 << j for j, c in enumerate(row) if not is_zero(c)) for row in entries]
        self.products: dict = {}  # S_ij S_jl by (i, j, l), filled by product_at

    def product_at(self, i: int, j: int, l: int) -> Any:
        """S_ij S_jl, formed on first use and then read from ``products``."""
        key = (i, j, l)
        if key not in self.products:
            s = self.entries
            self.products[key] = self.product(s[i][j], s[j][l])
        return self.products[key]


def condition1(t: ComponentTable) -> tuple[bool, tuple | None]:
    """For every triple (i, j, l): if two of S_ij, S_jl, S_il are nonzero,
    so is the third, and then S_ij S_jl = S_il.  Only the l where two of the
    three are nonzero are visited, in increasing order."""
    s, nonzero = t.entries, t.nonzero
    for i, row in enumerate(nonzero):
        for j, row_j in enumerate(nonzero):
            both = row & row_j  # S_jl and S_il nonzero; with S_ij nonzero, either is enough
            visit, full = (row | row_j, both) if row >> j & 1 else (both, 0)
            for l in bits(visit):
                if not full >> l & 1:
                    return False, ((i, j, l), t.third_zero)
                if t.product_at(i, j, l) != s[i][l]:
                    return False, ((i, j, l), t.product_misses)
    return True, None


def _pair_walk(t: ComponentTable, holds: Callable[[Any, int], bool],
               missed: str) -> tuple[bool, tuple | None]:
    """For every pair (p, q): S_pq and S_qp are both zero or both nonzero,
    and then ``holds(S_pq S_qp, p)``."""
    for p, row in enumerate(t.nonzero):
        for q, row_q in enumerate(t.nonzero):
            pq = row >> q & 1
            if pq != row_q >> p & 1:
                return False, ((p, q), t.opposed_zero)
            if pq and not holds(t.product_at(p, q, p), p):
                return False, ((p, q), missed)
    return True, None


def condition2(t: ComponentTable) -> tuple[bool, tuple | None]:
    """The pair walk, ending in S_pq S_qp = S_pp."""
    return _pair_walk(t, lambda prod, p: prod == t.entries[p][p], t.diagonal_missed)


def condition3(t: ComponentTable) -> tuple[bool, tuple | None]:
    """The pair walk, ending in S_pq S_qp holding the local unit at p."""
    return _pair_walk(t, t.holds_unit, t.unit_missed)


def report(t: ComponentTable) -> StrongnessReport:
    """All three conditions, each evaluated by its own pass."""
    c1, w1 = condition1(t)
    c2, w2 = condition2(t)
    c3, w3 = condition3(t)
    return StrongnessReport(c1, c2, c3, w1, w2, w3)
