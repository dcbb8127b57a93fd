"""Complete sets of idempotents, their component tables, and strength checks.

A complete set of idempotents for S is a family of nonzero orthogonal
idempotents e_0, ..., e_{k-1} whose one-sided multiples decompose S on both
sides: S = (+)_i S e_i = (+)_i e_i S.  The k x k component table has entry
(i, j) = e_i S e_j; diagonal entries are the corners e_i S e_i, subrings with
unit e_i.

A complete set is *strong* when the mixed components interlock: whenever one
of e_i S e_j, e_j S e_i is nonzero, so is the other, and their product
recovers the diagonal.  Three equivalent formulations of this condition are
evaluated independently and literally, so their agreement is itself a
checkable fact on every instance.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from . import posets, strength
from .errors import (
    InvariantViolation,
    NotComplete,
    NotIdempotent,
    NotOrthogonal,
    NotStrong,
    RingMismatch,
    ShapeMismatch,
    ZeroComponent,
    ZeroIdempotent,
)
from .finring import (
    AdditiveSubgroup,
    FiniteRing,
    RingElement,
    _check_side,
    direct_sum_defect,
    product_subgroup,
)
# the submodule lattice of S_j on a component and of a corner on itself, under
# the name the perfbench tracer scopes its join counts by
from .finring import submodule_lattice as _submodules
from .strength import StrongnessReport


class IdempotentSet:
    """A validated complete set: the idempotents e_j and, kept from the
    validation, their left multiples S e_j, which peirce_table reads."""

    __slots__ = ("ring", "elements", "left_multiples")

    def __init__(self, ring: FiniteRing, elements: tuple[RingElement, ...],
                 left_multiples: tuple[AdditiveSubgroup, ...]):
        self.ring, self.elements = ring, elements
        self.left_multiples = left_multiples

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"IdempotentSet(size {self.size} in {self.ring!r})"


def _one_sided_multiples(ring: FiniteRing, e: RingElement, side: str) -> AdditiveSubgroup:
    if side == "left":  # S e
        return ring.span(ring.right_mul_matrix(e.coords))
    return ring.span(ring.left_mul_matrix(e.coords))  # e S


def validate_complete_set(
    ring: FiniteRing, candidates: Sequence[RingElement]
) -> IdempotentSet:
    """Check the complete-set axioms and return the validated set.

    Axioms are checked in order (nonzero, idempotent, orthogonal, complete
    on each side) and the first failure raises with the smallest
    lexicographic witness.
    """
    elems = tuple(candidates)
    for e in elems:
        if e.ring is not ring:
            raise RingMismatch("candidate bound to a different ring")
    for i, e in enumerate(elems):
        if e.is_zero():
            raise ZeroIdempotent(i)
    for i, e in enumerate(elems):
        if e * e != e:
            raise NotIdempotent(i)
    for i in range(len(elems)):
        for j in range(len(elems)):
            if i != j and not (elems[i] * elems[j]).is_zero():
                raise NotOrthogonal(i, j)
    left = tuple(_one_sided_multiples(ring, e, "left") for e in elems)
    for side in ("left", "right"):
        parts = left if side == "left" else [_one_sided_multiples(ring, e, side) for e in elems]
        defect = direct_sum_defect(ring, parts)
        if defect is not None:
            raise NotComplete(side, defect=defect)
    return IdempotentSet(ring, elems, left)


# ---------------------------------------------------------------------------
# component tables


class PeirceTable:
    """All k^2 components e_i S e_j as subgroups of S.  The diagonal
    component (i, i) is the corner e_i S e_i, a subring with unit e_i; it is
    never repackaged as a standalone ring."""

    def __init__(self, ring: FiniteRing, iset: IdempotentSet,
                 components: tuple[tuple[AdditiveSubgroup, ...], ...]):
        self.ring, self.iset, self.components = ring, iset, components

    @property
    def size(self) -> int:
        return self.iset.size

    def component(self, i: int, j: int) -> AdditiveSubgroup:
        return self.components[i][j]

    @cached_property
    def report(self) -> StrongnessReport:
        """The three strength conditions, evaluated once per table on first
        use; ``strong`` and strong_condition_report both read it."""
        return strength.report(strength.ComponentTable(
            self.components,
            is_zero=AdditiveSubgroup.is_zero,
            product=product_subgroup,
            holds_unit=lambda prod, p: prod.contains(self.iset.elements[p]),
            third_zero="third component is zero",
            product_misses="product does not recover the component",
            opposed_zero="opposed component is zero",
            diagonal_missed="product does not recover the diagonal",
            unit_missed="idempotent not reached by the product",
        ))

    @property
    def strong(self) -> bool:
        return self.report.strong


def peirce_table(iset: IdempotentSet) -> PeirceTable:
    """Compute every component e_i S e_j.

    Each is e_i (S e_j), spanned by e_i * y over the Howell rows y of the
    left multiples S e_j the validation kept.  The component orders must
    multiply to |S| (the two-sided decomposition refines both one-sided
    ones); this is re-verified over all k^2 components on every call.
    """
    ring, mul = iset.ring, iset.ring._mul
    table = tuple(
        tuple(ring.span([mul(ei.coords, y) for y in sej.rows]) for sej in iset.left_multiples)
        for ei in iset.elements
    )
    if direct_sum_defect(ring, [sub for row in table for sub in row]) is not None:
        raise InvariantViolation("component table does not decompose the ring")
    return PeirceTable(ring, iset, table)


# ---------------------------------------------------------------------------
# strength conditions


def strong_condition_report(table: PeirceTable) -> StrongnessReport:
    """Evaluate the three strength conditions independently and literally.

    Condition 1 quantifies over all ordered index triples including repeats;
    the degenerate triple (i, i, i) amounts to S_i S_i = S_i.  The report is
    the table's own, evaluated once per table, and all three conditions read
    one memo of the table's products.
    """
    return table.report


def is_strong(iset: IdempotentSet) -> bool:
    """Whether the set is strong: the verdict of its Peirce table's one
    report, so the decomposition is re-verified on this path too."""
    return peirce_table(iset).strong


# ---------------------------------------------------------------------------
# corner/ideal poset correspondence


class CornerLatticeCertificate(NamedTuple):
    """Certificate for the poset isomorphism between corner ideals and
    component submodules.

    For side=left and indices (i, j): the poset of left ideals of the corner
    S_i = e_i S e_i against the poset of left S_j-submodules of e_j S e_i,
    with the maps  ideal I -> e_j S I  and  submodule M -> e_i S M.  For
    side=right the mirror image is used: right ideals of S_i against right
    S_j-submodules of e_i S e_j, with I -> I S e_j and M -> M S e_i.  Both
    posets are subgroups of S from one engine: the ideals of S_i are its
    submodule lattice acting on itself.
    """

    side: str
    i: int
    j: int
    ideal_count: int
    submodule_count: int
    ideal_height: int
    submodule_height: int
    forward_then_back_identity: bool
    back_then_forward_identity: bool
    forward_monotone: bool
    back_monotone: bool
    pairs: tuple[tuple[int, int], ...]
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.failure is None and (
            self.forward_then_back_identity
            and self.back_then_forward_identity
            and self.forward_monotone
            and self.back_monotone
            and self.ideal_count == self.submodule_count
            and self.ideal_height == self.submodule_height
        )


def corner_lattice_correspondence(
    table: PeirceTable, i: int, j: int, side: str
) -> CornerLatticeCertificate:
    """Materialize both posets and certify the inclusion-preserving bijection.

    Requires indices in 0..k-1 (ShapeMismatch otherwise), a strong set
    (NotStrong otherwise) and a nonzero mixed component e_i S e_j
    (ZeroComponent otherwise).  Verdict failures are recorded in the
    certificate, never raised.
    """
    _check_side(side)
    if not (0 <= i < table.size and 0 <= j < table.size):
        raise ShapeMismatch(f"component ({i}, {j}) out of range for {table.size} idempotents")
    if not table.strong:
        raise NotStrong("the idempotent set is not strong")
    if table.components[i][j].is_zero():
        raise ZeroComponent(f"component ({i}, {j}) is zero")

    comps = table.components
    corner = comps[i][i]
    ideals, ideal_lt = _submodules(corner, corner, side)
    # e_j S e_i on the left, e_i S e_j on the right; S_j acts on both
    ambient, opposed = (comps[j][i], comps[i][j]) if side == "left" else (comps[i][j], comps[j][i])
    submodules, sub_lt = _submodules(comps[j][j], ambient, side)

    # each image once, as an index into the other family.  On the left
    # I = e_i I and M = e_j M, so e_j S I = S_ji I and e_i S M = S_ij M; on
    # the right I S e_j = I S_ij and M S e_i = M S_ji.
    def images(subs, by, family):
        index = {s.key: idx for idx, s in enumerate(family)}
        if side == "left":
            return [index.get(product_subgroup(by, s).key) for s in subs]
        return [index.get(product_subgroup(s, by).key) for s in subs]

    fwd = images(ideals, ambient, submodules)
    # on the diagonal both families are the corner's ideals and both
    # operands the corner, so the backward images are the forward ones
    bwd = fwd if i == j else images(submodules, opposed, ideals)

    # the first unlisted image is the failure; the round trips are judged
    # on the images met before it, and monotonicity only without a failure
    failure = None
    n_fwd, n_bwd = len(fwd), len(bwd)
    if None in fwd:
        n_fwd = fwd.index(None)
        n_bwd = 0
        failure = f"image of ideal {n_fwd} is not a listed submodule"
    elif None in bwd:
        n_bwd = bwd.index(None)
        failure = f"image of submodule {n_bwd} is not a listed ideal"
    pairs = tuple((idx, fwd[idx]) for idx in range(n_fwd))
    fwd_back = all(bwd[s] == idx for idx, s in pairs)
    back_fwd = all(fwd[bwd[s]] == s for s in range(n_bwd))
    fwd_monotone = back_monotone = True
    if failure is None:
        fwd_monotone = posets.is_monotone(ideal_lt, fwd, sub_lt)
        back_monotone = posets.is_monotone(sub_lt, bwd, ideal_lt)

    return CornerLatticeCertificate(
        side=side,
        i=i,
        j=j,
        ideal_count=len(ideals),
        submodule_count=len(submodules),
        ideal_height=posets.longest_chain_length(ideal_lt),
        submodule_height=posets.longest_chain_length(sub_lt),
        forward_then_back_identity=fwd_back,
        back_then_forward_identity=back_fwd,
        forward_monotone=fwd_monotone,
        back_monotone=back_monotone,
        pairs=pairs,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# lattice analytics


def ideal_lattice_shape(subring: AdditiveSubgroup, side: str) -> tuple[int, int]:
    """(size, height) of the one-sided ideal lattice of a subring such as a
    corner: its submodule lattice acting on itself."""
    ideals, lt = _submodules(subring, subring, side)
    return len(ideals), posets.longest_chain_length(lt)
