"""Finite rings presented by structure constants over Z/m.

A ring here is a free (Z/m)-module of rank n whose multiplication is the
bilinear extension of an n x n x n tensor of residues: basis products are
b_i * b_j = sum_k c[i][j][k] b_k.  Associativity is verified on every basis
triple before a ring is accepted, and rings need not be unital.

All arithmetic runs on Python ints, so it is exact at every modulus; a
modulus is capped at MAX_MODULUS_BITS bits.
Elements and subgroup bases are tuples of residues, and every product inside
the package goes through one kernel, FiniteRing._mul, which reads a
row-sparse table of the nonzero structure constants.  Inputs from callers (structure
constants, coordinates, generators) are read with int() and reduced mod m.

Additive subgroups are kept in Howell normal form, which is a true canonical
form over Z/m, so subgroup equality is decided by comparing bases.  One-sided
ideals are generated nonunitally (the ideal of x is Z x + S x, never just
S x) and whole lattices of one-sided ideals are enumerated by closing the
principal ideals, one per unit class of generators, under joins with each
principal, once per ring: each ring memoizes its submodule lattices, with
their order read off the principals each member contains.  An enumeration
counts its work as it goes and stops past MAX_LATTICE_WORK steps.

Every span goes through one bounded cache: the SPAN_CACHE_SIZE most recent
spans are held by (ring object, generator rows), so a span repeated on the
same ring object is reduced once while it stays recent.  Rings hash by
identity, so no subgroup is shared between separately built rings, and a
span that raises is not held.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

from . import howell, posets
from .errors import (
    CornerNotFree,
    InvariantViolation,
    LatticeTooLarge,
    ModulusMismatch,
    ModulusTooLarge,
    ModulusTooSmall,
    NotAssociative,
    NotIdempotent,
    RankTooLarge,
    RingMismatch,
    ShapeMismatch,
    WorkTooLarge,
)

# Bits a modulus may have, checked before the constants are read.  A step on
# a 256-bit residue costs about what it costs on a small one, and the order
# m^rank of a ring of rank up to MAX_RANK has at most 3,700 decimal digits.
MAX_MODULUS_BITS = 256
# Bounds what is allocated before a ring is validated: the parser reads
# rank^3 constants, and a skew algebra fills a rank^3 table.
MAX_RANK = 48
# Steps the associativity check may take (associativity_work), checked before
# it runs: about a second of work.  A ring whose constants are all nonzero
# reaches it at rank 22; sparse rings stay far below it up to MAX_RANK.
MAX_ASSOCIATIVITY_WORK = 10_000_000
# Steps a lattice enumeration may take, counted as it goes: rank^2 per
# element scanned and per pair of subgroups to be joined, each about one
# Howell reduction, but never fewer than LATTICE_STEP_FLOOR.  A step is
# about a microsecond, so this is about a second of work.  The suites'
# lattices take at most 57,722 (both sides of every prop-2.4 ring at eight
# suite seeds; prop-lattice and fixture-counts take at most 7,696).
MAX_LATTICE_WORK = 1_000_000
# One join costs about 15-30 microseconds at every rank from 2 to 8 (zero
# rings over Z/2 to Z/128, 2-vCPU x86 host), so a pair is charged at least
# as much as at rank 4; at rank^2 alone, (Z/128)^2 ran three seconds of
# rank-2 joins before it was refused.
LATTICE_STEP_FLOOR = 16
# Spans _span holds, the least recently used dropped first.  Each entry holds
# its subgroup and keeps its ring alive.  Over the nine lattice-free drivers
# at four suite seeds, 256 entries cut the Howell reductions 12,498 -> 6,742
# and add under 0.1 MB to peak memory; 1,024 entries reach 6,119 for 0.7 MB
# more, and 4,096 no further for 3.6 MB more.
SPAN_CACHE_SIZE = 256


class FiniteRing:
    """A structure-constant algebra over Z/m.  Construct via make_ring."""

    __slots__ = (
        "modulus", "rank", "basis_labels", "constants", "_table", "_basis_rows", "_lattices"
    )

    def __init__(self, modulus: int, rank: int, constants, basis_labels: tuple[str, ...]):
        """``constants`` holds the residues c[i][j][k] as nested tuples."""
        self.modulus = modulus
        self.rank = rank
        self.constants = constants
        self.basis_labels = basis_labels
        # row-sparse: _table[i] holds a pair (j, cell) for each j with
        # b_i * b_j != 0, in increasing j, and cell holds the nonzero
        # (k, c[i][j][k]) of that product, in increasing k
        self._table = tuple(
            tuple(
                (j, tuple((k, c) for k, c in enumerate(cell) if c))
                for j, cell in enumerate(row)
                if any(cell)
            )
            for row in constants
        )
        self._basis_rows = tuple(
            tuple(int(i == j) for j in range(rank)) for i in range(rank)
        )
        # submodule_lattice's results, by (acting key, ambient key, side)
        self._lattices: dict[tuple, tuple] = {}

    @property
    def sc(self):
        """The structure constants as a read-only int64 array of shape
        (rank, rank, rank), built on each read for callers outside the
        package; ``constants`` holds them exactly."""
        import numpy as np

        array = np.array(self.constants, dtype=np.int64).reshape((self.rank,) * 3)
        array.setflags(write=False)
        return array

    # -- basic data ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.modulus**self.rank

    def __repr__(self) -> str:
        return f"FiniteRing(mod {self.modulus}, rank {self.rank}, order {self.order})"

    # -- elements ------------------------------------------------------------

    def _residues(self, coords) -> tuple[int, ...]:
        m = self.modulus
        return tuple([int(c) % m for c in coords])

    def element(self, coords: Sequence[int]) -> "RingElement":
        if len(coords) != self.rank:
            raise ShapeMismatch(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return RingElement(self, self._residues(coords))

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.rank)

    def basis_element(self, i: int) -> "RingElement":
        if not 0 <= i < self.rank:
            raise ShapeMismatch(f"basis index {i} out of range")
        return RingElement(self, self._basis_rows[i])

    def basis(self) -> list["RingElement"]:
        return [RingElement(self, b) for b in self._basis_rows]

    def element_vectors(self) -> Iterator[tuple[int, ...]]:
        """All coordinate vectors, in lexicographic order."""
        return itertools.product(range(self.modulus), repeat=self.rank)

    # -- arithmetic on raw vectors -------------------------------------------

    def _mul(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """x * y for vectors of residues: the one product kernel.  It visits
        the nonzero x_i, the nonzero basis products b_i * b_j of each, and
        among those the ones with y_j nonzero; it sums only the coordinates
        they touch and reduces each of those mod m once."""
        table = self._table
        out: dict[int, int] = {}
        for i, a in enumerate(x):
            if a:
                for j, cell in table[i]:
                    b = y[j]
                    if b:
                        ab = a * b
                        for k, c in cell:
                            out[k] = out.get(k, 0) + ab * c
        if not out:  # about a third of the products the suites take
            return (0,) * self.rank
        product = [0] * self.rank
        m = self.modulus
        for k, v in out.items():
            product[k] = v % m
        return tuple(product)

    def mul_vec(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return self._mul(self._residues(x), self._residues(y))

    def left_mul_matrix(self, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Matrix of y -> x * y acting on row vectors: row j is x * b_j,
        the sum of x_i (b_i * b_j), built in one pass over the table."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for a, products in zip(self._residues(x), self._table):
            if a:
                for j, cell in products:
                    row = rows[j]
                    for k, c in cell:
                        row[k] += a * c
        return self._reduced(rows)

    def right_mul_matrix(self, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Matrix of y -> y * x acting on row vectors: row i is b_i * x,
        the sum of x_j (b_i * b_j), built in one pass over the table."""
        x = self._residues(x)
        rows = [[0] * self.rank for _ in range(self.rank)]
        for row, products in zip(rows, self._table):
            for j, cell in products:
                b = x[j]
                if b:
                    for k, c in cell:
                        row[k] += b * c
        return self._reduced(rows)

    def _reduced(self, rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
        m = self.modulus
        return tuple(tuple([v % m for v in row]) for row in rows)

    def sandwich(self, x: Sequence[int], y: Sequence[int]) -> "AdditiveSubgroup":
        """The subgroup x S y, spanned by x * b_l * y over the basis."""
        y, mul = self._residues(y), self._mul
        return self.span([mul(xb, y) for xb in self.left_mul_matrix(x)])

    # -- subgroups -----------------------------------------------------------

    def span(self, vectors: Iterable[Sequence[int]]) -> "AdditiveSubgroup":
        """Subgroup generated by coordinate vectors (sequences of integers).

        The rows are checked on every call, then reduced by _span, which
        returns the subgroup it already holds for this ring object and these
        rows, if any; subgroups never reassign a field, so one can be shared.
        """
        rows = tuple(map(tuple, vectors))
        for v in rows:
            if len(v) != self.rank:
                raise ShapeMismatch(f"expected vectors of length {self.rank}, got {len(v)}")
        return _span(self, rows)

    def zero_subgroup(self) -> "AdditiveSubgroup":
        return self.span([])

    def full_subgroup(self) -> "AdditiveSubgroup":
        return self.span(self._basis_rows)


class RingElement:
    """An element of a specific FiniteRing, as reduced coordinates.

    Elements are bound to exactly one ring; combining elements of different
    rings raises RingMismatch rather than coercing.  Elements compare and
    hash by their read-only (ring, coords).
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring: FiniteRing, coords: tuple[int, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not RingElement:
            return NotImplemented
        return (self.ring, self.coords) == (other.ring, other.coords)

    def __hash__(self):
        return hash((self.ring, self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other: "RingElement") -> None:
        if not isinstance(other, RingElement):
            raise TypeError(f"cannot combine RingElement with {type(other).__name__}")
        if other.ring is not self.ring:
            raise RingMismatch("elements bound to different rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        m = self.ring.modulus
        return RingElement(self.ring, tuple((a + b) % m for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        m = self.ring.modulus
        return RingElement(self.ring, tuple((a - b) % m for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RingElement":
        m = self.ring.modulus
        return RingElement(self.ring, tuple((-a) % m for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.modulus
            return RingElement(self.ring, tuple((a * other) % m for a in self.coords))
        self._check(other)
        # both coordinate tuples are already reduced residues
        return RingElement(self.ring, self.ring._mul(self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        if self.is_zero():
            return "<0>"
        parts = []
        for c, label in zip(self.coords, self.ring.basis_labels):
            if c == 1:
                parts.append(label)
            elif c:
                parts.append(f"{c}*{label}")
        return "<" + " + ".join(parts) + ">"


class AdditiveSubgroup:
    """A subgroup of the ring's additive group, held in Howell normal form.

    Two subgroups of the same ring are equal iff their canonical bases are
    identical; membership testing by reduction against the basis is sound
    and complete.  ``rows`` is the canonical basis, as tuples of residues.
    """

    __slots__ = ("ring", "rows", "order", "_leads", "_key")

    def __init__(self, ring: FiniteRing, rows: tuple[tuple[int, ...], ...]):
        self.ring = ring
        self.rows = rows
        self._leads = howell.leading_entries(rows)
        self.order = math.prod(ring.modulus // p for _, p in self._leads)
        self._key = (len(rows),) + tuple(itertools.chain.from_iterable(rows))

    @property
    def basis(self):
        """The canonical basis as a read-only int64 array with ``rank``
        columns, built on each read for callers outside the package."""
        import numpy as np

        array = np.array(self.rows, dtype=np.int64).reshape(len(self.rows), self.ring.rank)
        array.setflags(write=False)
        return array

    @property
    def key(self) -> tuple:
        """Hashable canonical identifier within the ring."""
        return self._key

    def is_zero(self) -> bool:
        return self.order == 1

    def contains(self, x) -> bool:
        if isinstance(x, RingElement):
            if x.ring is not self.ring:
                raise RingMismatch("element bound to a different ring")
            x = x.coords
        return howell.contains_vector(self.rows, x, self.ring.modulus, self._leads)

    def element_vectors(self) -> Iterator[tuple[int, ...]]:
        return howell.span_elements(self.rows, self.ring.modulus, self.ring.rank)

    def _check(self, other: "AdditiveSubgroup") -> None:
        if other.ring is not self.ring:
            raise RingMismatch("subgroups bound to different rings")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdditiveSubgroup)
            and other.ring is self.ring
            and other._key == self._key
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self._key))

    def __le__(self, other: "AdditiveSubgroup") -> bool:
        self._check(other)
        return all(other.contains(row) for row in self.rows)

    def join(self, other: "AdditiveSubgroup") -> "AdditiveSubgroup":
        self._check(other)
        return self.ring.span(self.rows + other.rows)

    def __repr__(self) -> str:
        return f"AdditiveSubgroup(order {self.order} of {self.ring!r})"


@functools.lru_cache(maxsize=SPAN_CACHE_SIZE)
def _span(ring: FiniteRing, rows: tuple[tuple, ...]) -> AdditiveSubgroup:
    """The subgroup of ``ring`` spanned by ``rows``, in Howell form; the
    SPAN_CACHE_SIZE most recent results are held by (ring object, rows)."""
    return AdditiveSubgroup(ring, howell.howell_complete(rows, ring.modulus))


def product_subgroup(a: AdditiveSubgroup, b: AdditiveSubgroup) -> AdditiveSubgroup:
    """Additive span of {x*y : x in a, y in b}.

    Basis-by-basis products suffice: by bilinearity the span of basis products
    equals the span of all products.
    """
    if a.ring is not b.ring:
        raise RingMismatch("subgroups bound to different rings")
    mul = a.ring._mul
    return a.ring.span([mul(x, y) for x in a.rows for y in b.rows])


def direct_sum_defect(
    ring: FiniteRing, parts: Sequence[AdditiveSubgroup]
) -> AdditiveSubgroup | None:
    """None when the parts decompose the ring as a direct sum, else their sum.

    The parts are spanned together in one reduction.  Their sum lies in S,
    so it is S exactly when its order is |S|, and it is direct exactly when
    the parts' orders also multiply to |S|.
    """
    total = ring.span([row for part in parts for row in part.rows])
    if total.order == ring.order == math.prod(part.order for part in parts):
        return None
    return total


# ---------------------------------------------------------------------------
# ring construction


def _residue_table(data, rank: int, m: int):
    """Structure constants of shape (rank, rank, rank) as nested tuples of
    residues; ShapeMismatch for any other shape."""
    try:
        if len(data) == rank and all(
            len(row) == rank and all(len(cell) == rank for cell in row) for row in data
        ):
            return tuple(
                tuple(tuple([int(c) % m for c in cell]) for cell in row) for row in data
            )
    except TypeError:  # a row or cell that is no sequence, or a constant that is
        pass
    raise ShapeMismatch(f"structure constants must have shape {(rank, rank, rank)}")


def associativity_work(ring: FiniteRing) -> int:
    """An upper bound on the steps the associativity check takes, counted
    from the nonzero pattern in time linear in its size: one per basis
    triple (i, j, k), plus one per product of two nonzero constants.  The
    left sides multiply every nonzero c[i][j][l] by each nonzero c[l][k][t];
    the right sides multiply every nonzero c[j][k][l] by each nonzero
    c[i][l][t].  The check skips each triple with b_i b_j = 0 = b_j b_k,
    whose two sides are zero, so it takes fewer steps on sparse rings."""
    n, table = ring.rank, ring._table
    first = [0] * n  # nonzero constants c[l][k][t], by l
    second = [0] * n  # nonzero constants c[i][l][t], by l
    for i, row in enumerate(table):
        for j, cell in row:
            first[i] += len(cell)
            second[j] += len(cell)
    return n**3 + sum(
        first[l] + second[l] for row in table for _, cell in row for l, _ in cell
    )


def _first_nonassociative_triple(ring: FiniteRing) -> tuple[int, int, int] | None:
    """The first basis triple (i, j, k) in lexicographic order with
    (b_i b_j) b_k != b_i (b_j b_k), or None.

    When b_i b_j = 0 the left side is zero, so only the k with b_j b_k != 0
    can fail; the other triples are skipped."""
    n, m = ring.rank, ring.modulus
    table = [[()] * n for _ in range(n)]  # table[i][j]: the cell of b_i b_j
    nonzero_k = []
    for i, row in enumerate(ring._table):
        for j, cell in row:
            table[i][j] = cell
        nonzero_k.append([j for j, _ in row])
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            ij, row_j = row_i[j], table[j]
            for k in range(n) if ij else nonzero_k[j]:
                diff: dict[int, int] = {}
                for l, c in ij:  # (b_i b_j) b_k
                    for t, d in table[l][k]:
                        diff[t] = diff.get(t, 0) + c * d
                for l, c in row_j[k]:  # minus b_i (b_j b_k)
                    for t, d in row_i[l]:
                        diff[t] = diff.get(t, 0) - c * d
                if any(v % m for v in diff.values()):
                    return i, j, k
    return None


def _build_ring(
    modulus: int,
    rank: int,
    structure_constants,
    basis_labels: Sequence[str] | None,
) -> FiniteRing:
    modulus, rank = int(modulus), int(rank)
    if modulus.bit_length() > MAX_MODULUS_BITS:
        raise ModulusTooLarge(modulus.bit_length(), MAX_MODULUS_BITS)
    if modulus < 2:
        raise ModulusTooSmall(f"modulus must be >= 2, got {modulus}")
    if rank < 0:
        raise ShapeMismatch(f"rank must be >= 0, got {rank}")
    if rank > MAX_RANK:
        raise RankTooLarge(rank, MAX_RANK)
    constants = _residue_table(structure_constants, rank, modulus)
    if basis_labels is None:
        basis_labels = tuple(f"b{i}" for i in range(rank))
    else:
        basis_labels = tuple(str(s) for s in basis_labels)
        if len(basis_labels) != rank:
            raise ShapeMismatch(
                f"expected {rank} basis labels, got {len(basis_labels)}"
            )
    ring = FiniteRing(modulus, rank, constants, basis_labels)
    work = associativity_work(ring)
    if work > MAX_ASSOCIATIVITY_WORK:
        raise WorkTooLarge(work, MAX_ASSOCIATIVITY_WORK)
    bad = _first_nonassociative_triple(ring)
    if bad is not None:
        raise NotAssociative(bad)
    return ring


def make_ring(
    modulus: int,
    rank: int,
    structure_constants,
    basis_labels: Sequence[str] | None = None,
) -> FiniteRing:
    """Validate and build a finite ring from structure constants.

    Associativity is checked on all rank^3 basis triples (a triple with
    b_i b_j = 0 = b_j b_k passes without arithmetic); the first failing
    triple is reported in the NotAssociative error.
    """
    if rank < 1:
        raise ShapeMismatch(f"rank must be >= 1, got {rank}")
    return _build_ring(modulus, rank, structure_constants, basis_labels)


# ---------------------------------------------------------------------------
# subgroups and ideals


class OneSidedIdeal:
    """A one-sided ideal, as its canonical additive subgroup plus side tag."""

    __slots__ = ("subgroup", "side")

    def __init__(self, subgroup: AdditiveSubgroup, side: str):
        self.subgroup, self.side = subgroup, side

    @property
    def ring(self) -> FiniteRing:
        return self.subgroup.ring

    @property
    def order(self) -> int:
        return self.subgroup.order

    def __repr__(self) -> str:
        return f"OneSidedIdeal({self.side}, order {self.order})"


def _check_side(side: str) -> str:
    if side not in ("left", "right"):
        raise ShapeMismatch(f"side must be 'left' or 'right', got {side!r}")
    return side


def _principal_generators(ring: FiniteRing, acting, side: str):
    """The map x -> generator rows of Z x + A x (left) or Z x + x A (right),
    for A spanned by the rows ``acting``."""
    _check_side(side)
    mul = ring._mul
    if side == "left":
        return lambda x: [x] + [mul(w, x) for w in acting]
    return lambda x: [x] + [mul(x, w) for w in acting]


class IdealLattice:
    """All one-sided ideals of a ring on one side, with their inclusion order.

    Ideals are canonically sorted by (order, basis); cover_relation is the
    transitive reduction of strict inclusion and height the edge count of a
    longest chain.
    """

    __slots__ = ("ring", "side", "ideals", "cover_relation", "height", "size")

    def __init__(self, ring: FiniteRing, side: str, ideals: tuple[OneSidedIdeal, ...],
                 cover_relation: tuple[tuple[int, ...], ...], height: int, size: int):
        self.ring, self.side, self.ideals = ring, side, ideals
        self.cover_relation, self.height, self.size = cover_relation, height, size


def _lattice_step(ring: FiniteRing) -> int:
    """The steps charged per element scanned and per pair to be joined:
    rank^2, but at least LATTICE_STEP_FLOOR."""
    return max(ring.rank**2, LATTICE_STEP_FLOOR)


def _charged(work: int) -> int:
    """``work``, or LatticeTooLarge when it passes MAX_LATTICE_WORK."""
    if work > MAX_LATTICE_WORK:
        raise LatticeTooLarge(work, MAX_LATTICE_WORK)
    return work


def join_closure(
    principals: Sequence[AdditiveSubgroup], work: int = 0
) -> tuple[list[AdditiveSubgroup], list[int]]:
    """The joins of every nonempty family of ``principals``, sorted by
    (order, basis), and beside each the bitset of the principals inside it
    (bit k for the k-th distinct one).

    Each round joins the subgroups new since the last round with every
    principal, since every join of principals is reached one principal at
    a time.  A round charges _lattice_step steps per pair it will test
    before it tests any, on top of the ``work`` already done, and
    LatticeTooLarge is raised past MAX_LATTICE_WORK; a truncated family is
    never returned.  Each pair has one containment test, after the smaller
    order divides the larger: a nested pair is not joined, since its join
    is the larger one, already found.  Each subgroup meets every principal
    in the round it is new in, so its bitset is complete.
    """
    found = {p.key: p for p in principals}
    principals = frontier = list(found.values())
    inside: dict[tuple, int] = {}
    step = _lattice_step(frontier[0].ring) if frontier else 0
    while frontier:
        work = _charged(work + len(frontier) * len(principals) * step)
        fresh = []
        for a in frontier:
            mask = 0
            for k, p in enumerate(principals):
                lo, hi = (p, a) if p.order <= a.order else (a, p)
                if hi.order % lo.order == 0 and lo <= hi:
                    mask |= (lo is p) << k
                elif (b := a.join(p)).key not in found:
                    found[b.key] = b
                    fresh.append(b)
            inside[a.key] = mask
        frontier = fresh
    family = sorted(found.values(), key=lambda s: (s.order, s.key))
    return family, [inside[s.key] for s in family]


def _lead_divides(x: tuple[int, ...], m: int) -> bool:
    """Whether the first nonzero coordinate of x divides m; true of zero."""
    for c in x:
        if c:
            return m % c == 0
    return True


def _principals(
    acting: AdditiveSubgroup, ambient: AdditiveSubgroup, side: str
) -> tuple[list[AdditiveSubgroup], int]:
    """The distinct principal submodules Z x + acting*x (or Z x + x*acting)
    for x in ``ambient``, in order of first appearance, and the work of the
    scan: _lattice_step steps per element, charged as it is scanned.

    The principal of u x is that of x for every unit u of Z/m, so only the
    x whose first nonzero coordinate divides m are spanned.  The scan runs
    in lexicographic coefficient order over the Howell rows, where the
    members of a unit class with that leading coordinate come first, so
    every principal is still met first at the element that first gives it.
    """
    ring = ambient.ring
    principal, m = _principal_generators(ring, acting.rows, side), ring.modulus
    step = _lattice_step(ring)
    found: dict[tuple, AdditiveSubgroup] = {}
    work = 0
    for x in ambient.element_vectors():
        work = _charged(work + step)
        if _lead_divides(x, m):
            sub = ring.span(principal(x))
            found.setdefault(sub.key, sub)
    return list(found.values()), work


def submodule_lattice(
    acting: AdditiveSubgroup, ambient: AdditiveSubgroup, side: str
) -> tuple[tuple[AdditiveSubgroup, ...], tuple[int, ...]]:
    """All subgroups M of ``ambient`` with acting*M inside M (left) or
    M*acting inside M (right), sorted by (order, basis), and their strict
    inclusion relation as row bitsets.

    Every such M is the join of the principals inside it, found by one scan
    of ``ambient`` and closed under joins with them; so M <= N exactly when
    the principals inside M are inside N, as join_closure's bitsets record.
    The scan and the joins share one budget of MAX_LATTICE_WORK steps, and
    LatticeTooLarge is raised as soon as they pass it.  Every subgroup kept
    comes from a charged element or a charged pair, so the budget also
    bounds the family at MAX_LATTICE_WORK / _lattice_step(ring) subgroups.

    Each lattice is enumerated once per ring: the ring memoizes the result,
    keyed by (acting, ambient, side); a raised error is never memoized.
    """
    if acting.ring is not ambient.ring:
        raise RingMismatch("subgroups bound to different rings")
    ring = ambient.ring
    key = (acting.key, ambient.key, side)
    lattice = ring._lattices.get(key)
    if lattice is None:
        subs, inside = join_closure(*_principals(acting, ambient, side))
        lt = posets.strict_order_matrix(len(subs), inside)
        lattice = ring._lattices[key] = tuple(subs), tuple(lt)
    return lattice


def enumerate_one_sided_ideals(ring: FiniteRing, side: str) -> IdealLattice:
    """Materialize the poset of all one-sided ideals of the given side: the
    submodule lattice of S acting on itself.  Raises LatticeTooLarge past
    MAX_LATTICE_WORK steps.
    """
    full = ring.full_subgroup()
    subs, lt = submodule_lattice(full, full, side)
    return IdealLattice(
        ring,
        side,
        tuple(OneSidedIdeal(s, side) for s in subs),
        posets.adjacency_lists(posets.cover_matrix(lt)),
        posets.longest_chain_length(lt),
        len(subs),
    )


# ---------------------------------------------------------------------------
# corners, products, identities


def _additive_order(v: Sequence[int], m: int) -> int:
    return m // math.gcd(m, *v)


class CornerRing:
    """A corner e*S*e repackaged as a standalone ring, with coordinate maps.

    ``inclusion`` holds the parent coordinates of the corner's basis; the
    corner's own modulus may be a proper divisor of the parent's when the
    corner subgroup has smaller exponent.
    """

    __slots__ = ("ring", "parent", "idempotent", "subgroup", "inclusion", "_coord_index")

    def __init__(self, ring: FiniteRing, parent: FiniteRing, idempotent: RingElement,
                 subgroup: AdditiveSubgroup, inclusion: tuple[tuple[int, ...], ...],
                 _coord_index: dict):
        self.ring, self.parent, self.idempotent = ring, parent, idempotent
        self.subgroup, self.inclusion, self._coord_index = subgroup, inclusion, _coord_index

    def include(self, x: RingElement) -> RingElement:
        if x.ring is not self.ring:
            raise RingMismatch("element is not a corner element")
        parent = self.parent
        return parent.element(
            howell.combine(x.coords, self.inclusion, parent.modulus, parent.rank)
        )

    def project(self, x: RingElement) -> RingElement:
        """Corner coordinates of e*x*e."""
        if x.ring is not self.parent:
            raise RingMismatch("element is not a parent-ring element")
        e = self.idempotent.coords
        v = self.parent.mul_vec(self.parent.mul_vec(e, x.coords), e)
        return self.ring.element(self._coord_index[v])


def _free_module_structure(
    subgroup: AdditiveSubgroup,
) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """Exponent, rank and a free basis of a subgroup that is free over
    Z/exponent; raises CornerNotFree otherwise."""
    ring = subgroup.ring
    m = ring.modulus
    if subgroup.order == 1:
        return 1, 0, ()
    exponent = math.lcm(*(_additive_order(row, m) for row in subgroup.rows))
    k = 0
    total = subgroup.order
    while total > 1:
        if total % exponent:
            raise CornerNotFree(
                f"subgroup of order {subgroup.order} is not free over Z/{exponent}"
            )
        total //= exponent
        k += 1
    basis_rows = []
    span = ring.zero_subgroup()
    for v in subgroup.element_vectors():
        if span.order == subgroup.order:
            break
        if _additive_order(v, m) != exponent:
            continue
        cand = span.join(ring.span([v]))
        if cand.order == span.order * exponent:
            basis_rows.append(v)
            span = cand
    if span.order != subgroup.order:
        raise CornerNotFree(
            f"subgroup of order {subgroup.order} has no free basis over Z/{exponent}"
        )
    return exponent, k, tuple(basis_rows)


def corner_ring(ring: FiniteRing, e: RingElement) -> CornerRing:
    """Package e*S*e as a standalone ring with inclusion/projection maps.

    e must be idempotent (zero is allowed and yields the order-1 ring).
    """
    if e.ring is not ring:
        raise RingMismatch("idempotent bound to a different ring")
    if e * e != e:
        raise NotIdempotent(message=f"element {e.coords} is not idempotent")
    subgroup = ring.sandwich(e.coords, e.coords)

    exponent, k, basis_rows = _free_module_structure(subgroup)
    if k == 0:
        corner = FiniteRing(ring.modulus, 0, (), ())
        return CornerRing(corner, ring, e, subgroup, basis_rows, {(0,) * ring.rank: ()})

    coord_index: dict[tuple, tuple] = {}
    for coeffs in itertools.product(range(exponent), repeat=k):
        coord_index[howell.combine(coeffs, basis_rows, ring.modulus, ring.rank)] = coeffs
    if len(coord_index) != subgroup.order:
        raise InvariantViolation("free basis does not reach every corner element")

    sc = [[coord_index[ring.mul_vec(x, y)] for y in basis_rows] for x in basis_rows]
    labels = tuple(f"c{i}" for i in range(k))
    corner = _build_ring(exponent, k, sc, labels)
    return CornerRing(corner, ring, e, subgroup, basis_rows, coord_index)


def direct_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Block-diagonal product of rings over one modulus."""
    if not rings:
        raise ShapeMismatch("direct product of no rings")
    if len(rings) == 1:
        return rings[0]
    m = rings[0].modulus
    for r in rings[1:]:
        if r.modulus != m:
            raise ModulusMismatch(
                f"moduli differ: {m} vs {r.modulus}"
            )
    total = sum(r.rank for r in rings)
    # the rank cap _build_ring applies, before the total^3 table exists
    if total > MAX_RANK:
        raise RankTooLarge(total, MAX_RANK)
    sc = [[[0] * total for _ in range(total)] for _ in range(total)]
    labels = []
    offset = 0
    for idx, r in enumerate(rings):
        for i, row in enumerate(r.constants):
            for j, cell in enumerate(row):
                sc[offset + i][offset + j][offset : offset + r.rank] = cell
        labels.extend(f"p{idx}:{lab}" for lab in r.basis_labels)
        offset += r.rank
    return make_ring(m, total, sc, labels)


def _unit_of(ring: FiniteRing, rows: Sequence[tuple[int, ...]]) -> RingElement | None:
    """The u = sum_i c_i r_i with u * r_j = r_j = r_j * u for every row r_j,
    or None when there is none.

    Such a u is unique (u = u * u' = u'), so one solve over Z/m finds it.
    The r x 2nr system is read from the structure constants, over the
    nonzero coordinates of the rows: row i holds the coordinates of
    r_i * r_j, then of r_j * r_i, for each j in turn.  The unit law is then
    rechecked with the product kernel, which never built the system.
    """
    m, n, c = ring.modulus, ring.rank, ring.constants
    support = [[(a, x) for a, x in enumerate(r) if x] for r in rows]
    system = []
    for left in support:
        line: list[int] = []
        for right in support:
            ij, ji = [0] * n, [0] * n  # r_i * r_j and r_j * r_i
            for a, x in left:
                for b, y in right:
                    xy, ab, ba = x * y, c[a][b], c[b][a]
                    if any(ab):
                        ij = [s + xy * t for s, t in zip(ij, ab)]
                    if any(ba):
                        ji = [s + xy * t for s, t in zip(ji, ba)]
            line += ij
            line += ji
        system.append(tuple([v % m for v in line]))
    x = howell.solve_row(system, tuple(itertools.chain(*(r + r for r in rows))), m)
    if x is None:
        return None
    u, mul = howell.combine(x, rows, m, n), ring._mul
    for r in rows:
        if mul(u, r) != r or mul(r, u) != r:
            raise InvariantViolation("solved unit fails the unit law")
    return RingElement(ring, u)


def find_identity(ring: FiniteRing) -> RingElement | None:
    """The two-sided multiplicative unit, if the ring has one: solved on the
    basis rows.  Order-1 rings report no unit (unital rings are nonzero by
    convention).
    """
    if ring.order == 1:
        return None
    return _unit_of(ring, ring._basis_rows)


def subring_identity(ring: FiniteRing, subgroup: AdditiveSubgroup) -> RingElement | None:
    """The element of the subgroup that is a two-sided unit on it, if there
    is one: solved on its Howell rows.  The subgroup need not be closed
    under multiplication; order-1 subgroups report none.
    """
    if subgroup.ring is not ring:
        raise RingMismatch("subgroup bound to a different ring")
    if subgroup.order == 1:
        return None
    return _unit_of(ring, subgroup.rows)
