"""The three equivalent strength conditions, evaluated over a component table.

The same three conditions are asked of a ring's Peirce components e_i S e_j,
of a category's hom-sets and of a grading's hom-components.  Each caller
supplies its k x k table together with the operations the conditions need
(a zero test, a product, and whether a product holds the local unit at an
index); components are compared with ``==``.  Each condition keeps its own
literal loop, so the agreement of the three verdicts stays a checked fact
on every instance rather than an assumption.  The loops share the table's
products: S_ij S_jl is formed once per table, as condition 1 meets it at
(p, q, p) and conditions 2 and 3 ask for S_pq S_qp again.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


class StrongnessReport:
    """Independent verdicts for the three equivalent strength conditions.

    A false verdict carries the smallest lexicographic witness: the failing
    index tuple plus a short reason.  ``agree`` records whether the three
    verdicts coincide; their equivalence is re-checked on every instance
    rather than assumed.  Reports compare and hash by their read-only fields.
    """

    __slots__ = _fields = (
        "condition1", "condition2", "condition3", "witness1", "witness2", "witness3"
    )

    def __init__(self, condition1: bool, condition2: bool, condition3: bool,
                 witness1: tuple | None, witness2: tuple | None, witness3: tuple | None):
        init = object.__setattr__
        init(self, "condition1", condition1)
        init(self, "condition2", condition2)
        init(self, "condition3", condition3)
        init(self, "witness1", witness1)
        init(self, "witness2", witness2)
        init(self, "witness3", witness3)

    @property
    def agree(self) -> bool:
        return self.condition1 == self.condition2 == self.condition3

    @property
    def strong(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3

    def _values(self) -> tuple:
        """The field values, in ``_fields`` order."""
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ComponentTable:
    """A k x k table of components, the operations on them, and the witness
    reasons, each worded by the caller for its own kind of component."""

    __slots__ = (
        "entries", "is_zero", "product", "holds_unit", "third_zero", "product_misses",
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
        self.entries, self.is_zero, self.product = entries, is_zero, product
        self.holds_unit, self.third_zero = holds_unit, third_zero
        self.product_misses, self.opposed_zero = product_misses, opposed_zero
        self.diagonal_missed, self.unit_missed = diagonal_missed, unit_missed
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
    so is the third, and then S_ij S_jl = S_il."""
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


def condition2(t: ComponentTable) -> tuple[bool, tuple | None]:
    """For every pair (p, q): S_pq and S_qp are both zero or both nonzero,
    and then S_pq S_qp = S_pp."""
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


def condition3(t: ComponentTable) -> tuple[bool, tuple | None]:
    """For every pair (p, q): S_pq and S_qp are both zero or both nonzero,
    and then S_pq S_qp holds the local unit at p."""
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


def report(t: ComponentTable) -> StrongnessReport:
    """All three conditions, each evaluated by its own loop."""
    c1, w1 = condition1(t)
    c2, w2 = condition2(t)
    c3, w3 = condition3(t)
    return StrongnessReport(c1, c2, c3, w1, w2, w3)
