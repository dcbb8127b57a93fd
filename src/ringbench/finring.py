"""Finite rings presented by structure constants over Z/m.

A ring here is a free (Z/m)-module of rank n whose multiplication is the
bilinear extension of an n x n x n tensor of residues: basis products are
b_i * b_j = sum_k c[i][j][k] b_k.  Associativity is verified on every basis
triple before a ring is accepted, and rings need not be unital.

Additive subgroups are kept in Howell normal form, which is a true canonical
form over Z/m, so subgroup equality is decided by comparing bases.  One-sided
ideals are generated nonunitally (the ideal of x is Z x + S x, never just
S x) and whole lattices of one-sided ideals are enumerated by closing the
principal ideals under pairwise joins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

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
)

DEFAULT_LATTICE_CAP = 100_000
# Associativity is checked on two rank^4 int64 tensors; at rank 48 each
# stays under 43 MB.
MAX_RANK = 48


class FiniteRing:
    """A structure-constant algebra over Z/m.  Construct via make_ring."""

    __slots__ = ("modulus", "rank", "basis_labels", "sc", "_sc_flat")

    def __init__(self, modulus: int, rank: int, sc: np.ndarray, basis_labels: tuple[str, ...]):
        self.modulus = int(modulus)
        self.rank = int(rank)
        self.sc = sc
        self.sc.setflags(write=False)
        self.basis_labels = basis_labels
        self._sc_flat = sc.reshape(rank, rank * rank) if rank else sc.reshape(0, 0)

    # -- basic data ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.modulus**self.rank

    def __repr__(self) -> str:
        return f"FiniteRing(mod {self.modulus}, rank {self.rank}, order {self.order})"

    # -- elements ------------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "RingElement":
        if len(coords) != self.rank:
            raise ShapeMismatch(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return RingElement(self, tuple(int(c) % self.modulus for c in coords))

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.rank)

    def basis_element(self, i: int) -> "RingElement":
        if not 0 <= i < self.rank:
            raise ShapeMismatch(f"basis index {i} out of range")
        return RingElement(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def basis(self) -> list["RingElement"]:
        return [self.basis_element(i) for i in range(self.rank)]

    def element_vectors(self) -> Iterator[np.ndarray]:
        """All coordinate vectors, in lexicographic order."""
        for coords in itertools.product(range(self.modulus), repeat=self.rank):
            yield np.asarray(coords, dtype=np.int64)

    def elements(self) -> Iterator["RingElement"]:
        for v in self.element_vectors():
            yield RingElement(self, tuple(int(c) for c in v))

    # -- arithmetic on raw vectors -------------------------------------------

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(0, dtype=np.int64)
        t = (np.asarray(x) @ self._sc_flat).reshape(self.rank, self.rank)
        return (np.asarray(y) @ t) % self.modulus

    def left_mul_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x * y acting on row vectors: row j is x * b_j."""
        if self.rank == 0:
            return np.zeros((0, 0), dtype=np.int64)
        return (x @ self._sc_flat).reshape(self.rank, self.rank) % self.modulus

    def right_mul_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> y * x acting on row vectors: row i is b_i * x."""
        if self.rank == 0:
            return np.zeros((0, 0), dtype=np.int64)
        return np.tensordot(self.sc, x, axes=([1], [0])) % self.modulus

    def sandwich(self, x: np.ndarray, y: np.ndarray) -> "AdditiveSubgroup":
        """The subgroup x S y, spanned by x * b_l * y over the basis."""
        return self.span((self.left_mul_matrix(x) @ self.right_mul_matrix(y)) % self.modulus)

    # -- subgroups -----------------------------------------------------------

    def span(self, vectors: Iterable[Sequence[int]]) -> "AdditiveSubgroup":
        """Subgroup generated by coordinate vectors: a 2-D array, or rows that
        are arrays or sequences of ints."""
        if isinstance(vectors, np.ndarray):
            rows = vectors.tolist()
        else:
            rows = [v.tolist() if isinstance(v, np.ndarray) else v for v in vectors]
        H = howell.howell_form(rows or np.zeros((0, self.rank), dtype=np.int64), self.modulus)
        if H.shape[1] != self.rank:
            raise ShapeMismatch(f"expected vectors of length {self.rank}, got {H.shape[1]}")
        return AdditiveSubgroup(self, H)

    def zero_subgroup(self) -> "AdditiveSubgroup":
        return self.span([])

    def full_subgroup(self) -> "AdditiveSubgroup":
        return self.span(np.eye(self.rank, dtype=np.int64))


@dataclass(frozen=True)
class RingElement:
    """An element of a specific FiniteRing, as reduced coordinates.

    Elements are bound to exactly one ring; combining elements of different
    rings raises RingMismatch rather than coercing.
    """

    ring: FiniteRing
    coords: tuple[int, ...]

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.int64)

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
        prod = self.ring.mul_vec(self.vec, other.vec)
        return RingElement(self.ring, tuple(int(c) for c in prod))

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
    and complete.
    """

    __slots__ = ("ring", "basis", "order", "_rows", "_leads", "_key")

    def __init__(self, ring: FiniteRing, basis: np.ndarray):
        self.ring = ring
        self.basis = basis
        self.basis.setflags(write=False)
        rows = basis.tolist()
        self._rows = rows
        self._leads = howell.leading_entries(rows)
        self.order = math.prod(ring.modulus // p for _, p in self._leads)
        self._key = (len(rows),) + tuple(itertools.chain.from_iterable(rows))

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
        return howell.contains_vector(self._rows, x, self.ring.modulus, self._leads)

    def element_vectors(self) -> Iterator[np.ndarray]:
        return howell.span_elements(self.basis, self.ring.modulus)

    def elements(self) -> Iterator[RingElement]:
        for v in self.element_vectors():
            yield RingElement(self.ring, tuple(int(c) for c in v))

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
        return all(other.contains(row) for row in self._rows)

    def __lt__(self, other: "AdditiveSubgroup") -> bool:
        return self.order < other.order and self <= other

    def join(self, other: "AdditiveSubgroup") -> "AdditiveSubgroup":
        self._check(other)
        return self.ring.span(self._rows + other._rows)

    def meet(self, other: "AdditiveSubgroup") -> "AdditiveSubgroup":
        """Intersection, by filtering the smaller subgroup's elements."""
        self._check(other)
        small, big = (self, other) if self.order <= other.order else (other, self)
        rows = [v for v in small.element_vectors() if big.contains(v)]
        return self.ring.span(rows)

    def __repr__(self) -> str:
        return f"AdditiveSubgroup(order {self.order} of {self.ring!r})"


def product_subgroup(a: AdditiveSubgroup, b: AdditiveSubgroup) -> AdditiveSubgroup:
    """Additive span of {x*y : x in a, y in b}.

    Basis-by-basis products suffice: by bilinearity the span of basis products
    equals the span of all products.
    """
    if a.ring is not b.ring:
        raise RingMismatch("subgroups bound to different rings")
    ring = a.ring
    if a.basis.shape[0] == 0 or b.basis.shape[0] == 0:
        return ring.zero_subgroup()
    # rows[r, s] = a.basis[r] * b.basis[s]
    t = np.einsum("ri,ijk->rjk", a.basis, ring.sc)
    prods = np.einsum("rjk,sj->rsk", t, b.basis) % ring.modulus
    return ring.span(prods.reshape(-1, ring.rank))


# ---------------------------------------------------------------------------
# ring construction


def _build_ring(
    modulus: int,
    rank: int,
    structure_constants,
    basis_labels: Sequence[str] | None,
) -> FiniteRing:
    if modulus < 2:
        raise ModulusTooSmall(f"modulus must be >= 2, got {modulus}")
    if rank < 0:
        raise ShapeMismatch(f"rank must be >= 0, got {rank}")
    if rank > MAX_RANK:
        raise RankTooLarge(rank, MAX_RANK)
    # products are reduced only after each einsum; the largest unreduced
    # intermediate, rank^2 * (m-1)^3 in mul_vec and product_subgroup, must fit
    if rank * rank * (modulus - 1) ** 3 >= 2**63:
        raise ModulusTooLarge(
            f"modulus {modulus} at rank {rank}: rank^2 * (modulus-1)^3 must stay below 2^63"
        )
    sc = np.asarray(structure_constants)
    if sc.dtype.kind not in "iu":
        # numpy keeps ints beyond int64 as objects or floats: reduce exactly
        sc = np.array(structure_constants, dtype=object)
    if sc.shape != (rank, rank, rank):
        raise ShapeMismatch(
            f"structure constants must have shape {(rank, rank, rank)}, got {sc.shape}"
        )
    sc = (sc % modulus).astype(np.int64, copy=False)
    if basis_labels is None:
        basis_labels = tuple(f"b{i}" for i in range(rank))
    else:
        basis_labels = tuple(str(s) for s in basis_labels)
        if len(basis_labels) != rank:
            raise ShapeMismatch(
                f"expected {rank} basis labels, got {len(basis_labels)}"
            )
    if rank:
        left = np.einsum("ijl,lkm->ijkm", sc, sc) % modulus
        right = np.einsum("jkl,ilm->ijkm", sc, sc) % modulus
        bad = np.argwhere((left != right).any(axis=3))
        if bad.size:
            i, j, k = (int(x) for x in bad[0])
            raise NotAssociative((i, j, k))
    return FiniteRing(modulus, rank, sc, basis_labels)


def make_ring(
    modulus: int,
    rank: int,
    structure_constants,
    basis_labels: Sequence[str] | None = None,
) -> FiniteRing:
    """Validate and build a finite ring from structure constants.

    Associativity is checked on all rank^3 basis triples; the first failing
    triple is reported in the NotAssociative error.
    """
    if rank < 1:
        raise ShapeMismatch(f"rank must be >= 1, got {rank}")
    return _build_ring(modulus, rank, structure_constants, basis_labels)


# ---------------------------------------------------------------------------
# expression evaluation


def evaluate(ring: FiniteRing, expr) -> RingElement:
    """Evaluate a sum/product tree over ring elements.

    Nodes are either RingElement leaves or tuples ("sum", *args),
    ("prod", *args), ("neg", arg).  The empty sum is zero.
    """
    if isinstance(expr, RingElement):
        if expr.ring is not ring:
            raise RingMismatch("leaf element bound to a different ring")
        return expr
    if not isinstance(expr, (tuple, list)) or not expr:
        raise ValueError(f"malformed expression node: {expr!r}")
    tag, *args = expr
    if tag == "sum":
        acc = ring.zero()
        for a in args:
            acc = acc + evaluate(ring, a)
        return acc
    if tag == "prod":
        if not args:
            raise ValueError("empty product has no value in a nonunital ring")
        acc = evaluate(ring, args[0])
        for a in args[1:]:
            acc = acc * evaluate(ring, a)
        return acc
    if tag == "neg":
        (a,) = args
        return -evaluate(ring, a)
    raise ValueError(f"unknown expression tag: {tag!r}")


# ---------------------------------------------------------------------------
# subgroups and ideals


def span_subgroup(ring: FiniteRing, generators: Sequence[RingElement]) -> AdditiveSubgroup:
    for g in generators:
        if g.ring is not ring:
            raise RingMismatch("generator bound to a different ring")
    return ring.span([g.vec for g in generators])


@dataclass(frozen=True, eq=False)
class OneSidedIdeal:
    """A one-sided ideal, as its canonical additive subgroup plus side tag."""

    subgroup: AdditiveSubgroup
    side: str

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


def closed_under(ring: FiniteRing, subgroup: AdditiveSubgroup, side: str) -> bool:
    """Whether the subgroup absorbs ring multiplication on the given side."""
    _check_side(side)
    if subgroup.ring is not ring:
        raise RingMismatch("subgroup bound to a different ring")
    V = subgroup.basis
    if V.shape[0] == 0:
        return True
    if side == "left":
        prods = np.einsum("rj,ljk->lrk", V, ring.sc) % ring.modulus
    else:
        prods = np.einsum("rj,jlk->lrk", V, ring.sc) % ring.modulus
    return all(subgroup.contains(row) for row in prods.reshape(-1, ring.rank).tolist())


def _principal_generators(ring: FiniteRing, acting: np.ndarray, side: str):
    """The map x -> generator rows of Z x + A x (left) or Z x + x A (right),
    for A spanned by the rows of ``acting``.

    The products of x with every row of A are read off one product matrix,
    built once here, so each element costs a single vector-matrix product.
    """
    _check_side(side)
    n, m, a = ring.rank, ring.modulus, acting.shape[0]
    if side == "left":  # (w x)_k = sum_ij w_i x_j c_ijk
        P = np.einsum("wi,ijk->jwk", acting, ring.sc)
    else:  # (x w)_k = sum_ij x_i w_j c_ijk
        P = np.einsum("wj,ijk->iwk", acting, ring.sc)
    P = P.reshape(n, a * n) % m

    def generators(x: np.ndarray) -> list:
        return [x.tolist()] + ((x @ P) % m).reshape(a, n).tolist()

    return generators


def one_sided_ideal_closure(
    ring: FiniteRing, generators: Sequence[RingElement], side: str
) -> OneSidedIdeal:
    """Smallest one-sided ideal containing the generators.

    The ring may lack a unit, so the ideal of x is Z x + S x (or x S): the
    additive span of each generator together with its basis multiples.
    """
    principal = _principal_generators(ring, np.eye(ring.rank, dtype=np.int64), side)
    rows: list = []
    for g in generators:
        if g.ring is not ring:
            raise RingMismatch("generator bound to a different ring")
        rows.extend(principal(g.vec))
    subgroup = ring.span(rows)
    if not closed_under(ring, subgroup, side):
        raise InvariantViolation(f"generated {side} ideal is not closed under multiplication")
    return OneSidedIdeal(subgroup, side)


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """All one-sided ideals of a ring on one side, with their inclusion order.

    Ideals are canonically sorted by (order, basis); cover_relation is the
    transitive reduction of strict inclusion and height the edge count of a
    longest chain.
    """

    ring: FiniteRing
    side: str
    ideals: tuple[OneSidedIdeal, ...]
    cover_relation: tuple[tuple[int, ...], ...]
    height: int
    size: int


def join_closure(
    principals: Iterable[AdditiveSubgroup], cap: int
) -> list[AdditiveSubgroup]:
    """Close a family of subgroups under pairwise joins until a fixpoint.

    Returns the distinct subgroups sorted by (order, basis).  Raises
    LatticeTooLarge as soon as more than ``cap`` distinct subgroups are
    found, while collecting the principals or while joining; a truncated
    family is never returned.
    """
    found: dict[tuple, AdditiveSubgroup] = {}
    batch = principals
    while True:
        fresh: list[AdditiveSubgroup] = []
        for sub in batch:
            if sub.key not in found:
                found[sub.key] = sub
                fresh.append(sub)
                if len(found) > cap:
                    raise LatticeTooLarge(cap)
        if not fresh:
            return sorted(found.values(), key=lambda s: (s.order, s.key))
        # every subgroup found so far against each one new since last round
        existing = sorted(found.values(), key=lambda s: s.key)
        batch = (a.join(b) for a, b in itertools.product(existing, fresh))


def submodule_lattice(
    acting: AdditiveSubgroup, ambient: AdditiveSubgroup, side: str, cap: int
) -> tuple[list[AdditiveSubgroup], np.ndarray]:
    """All subgroups M of ``ambient`` with acting*M inside M (left) or
    M*acting inside M (right), sorted by (order, basis), and their strict
    inclusion matrix.

    Every such M is a finite join of principal ones, Z x + acting*x (or
    Z x + x*acting) for x in ``ambient``; the principals are formed one
    element at a time and closed under pairwise joins.  Raises
    LatticeTooLarge past ``cap`` subgroups; a truncated family is never
    returned.
    """
    if acting.ring is not ambient.ring:
        raise RingMismatch("subgroups bound to different rings")
    ring = ambient.ring
    principal = _principal_generators(ring, acting.basis, side)
    subs = join_closure((ring.span(principal(x)) for x in ambient.element_vectors()), cap)
    return subs, posets.strict_order_matrix(len(subs), lambda i, j: subs[i] < subs[j])


def enumerate_one_sided_ideals(
    ring: FiniteRing, side: str, cap: int = DEFAULT_LATTICE_CAP
) -> IdealLattice:
    """Materialize the poset of all one-sided ideals of the given side: the
    submodule lattice of S acting on itself.  Raises LatticeTooLarge past
    ``cap`` ideals.
    """
    full = ring.full_subgroup()
    subs, lt = submodule_lattice(full, full, side, cap)
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


def _additive_order(v: np.ndarray, m: int) -> int:
    g = m
    for x in v:
        g = math.gcd(g, int(x))
    return m // g


@dataclass(frozen=True, eq=False)
class CornerRing:
    """A corner e*S*e repackaged as a standalone ring, with coordinate maps.

    ``inclusion`` holds the parent coordinates of the corner's basis; the
    corner's own modulus may be a proper divisor of the parent's when the
    corner subgroup has smaller exponent.
    """

    ring: FiniteRing
    parent: FiniteRing
    idempotent: RingElement
    subgroup: AdditiveSubgroup
    inclusion: np.ndarray
    _coord_index: dict

    def include(self, x: RingElement) -> RingElement:
        if x.ring is not self.ring:
            raise RingMismatch("element is not a corner element")
        v = (x.vec @ self.inclusion) % self.parent.modulus if self.ring.rank else np.zeros(
            self.parent.rank, dtype=np.int64
        )
        return self.parent.element(v)

    def project(self, x: RingElement) -> RingElement:
        """Corner coordinates of e*x*e."""
        if x.ring is not self.parent:
            raise RingMismatch("element is not a parent-ring element")
        e = self.idempotent.vec
        v = self.parent.mul_vec(self.parent.mul_vec(e, x.vec), e)
        return self.ring.element(self._coord_index[tuple(int(c) for c in v)])


def _free_module_structure(
    subgroup: AdditiveSubgroup,
) -> tuple[int, int, np.ndarray]:
    """Exponent, rank and a free basis of a subgroup that is free over
    Z/exponent; raises CornerNotFree otherwise."""
    ring = subgroup.ring
    m = ring.modulus
    if subgroup.order == 1:
        return 1, 0, np.zeros((0, ring.rank), dtype=np.int64)
    exponent = 1
    for row in subgroup.basis:
        o = _additive_order(row, m)
        exponent = exponent * o // math.gcd(exponent, o)
    k = 0
    total = subgroup.order
    while total > 1:
        if total % exponent:
            raise CornerNotFree(
                f"subgroup of order {subgroup.order} is not free over Z/{exponent}"
            )
        total //= exponent
        k += 1
    basis_rows: list[np.ndarray] = []
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
    return exponent, k, np.array(basis_rows, dtype=np.int64)


def corner_ring(ring: FiniteRing, e: RingElement) -> CornerRing:
    """Package e*S*e as a standalone ring with inclusion/projection maps.

    e must be idempotent (zero is allowed and yields the order-1 ring).
    """
    if e.ring is not ring:
        raise RingMismatch("idempotent bound to a different ring")
    if e * e != e:
        raise NotIdempotent(message=f"element {e.coords} is not idempotent")
    subgroup = ring.sandwich(e.vec, e.vec)

    exponent, k, basis_rows = _free_module_structure(subgroup)
    if k == 0:
        corner = FiniteRing(ring.modulus, 0, np.zeros((0, 0, 0), dtype=np.int64), ())
        return CornerRing(corner, ring, e, subgroup, basis_rows, {(0,) * ring.rank: ()})

    coord_index: dict[tuple, tuple] = {}
    for coeffs in itertools.product(range(exponent), repeat=k):
        v = (np.asarray(coeffs, dtype=np.int64) @ basis_rows) % ring.modulus
        coord_index[tuple(int(c) for c in v)] = coeffs
    if len(coord_index) != subgroup.order:
        raise InvariantViolation("free basis does not reach every corner element")

    sc = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod = ring.mul_vec(basis_rows[i], basis_rows[j])
            sc[i, j] = coord_index[tuple(int(c) for c in prod)]
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
    sc = np.zeros((total, total, total), dtype=np.int64)
    labels = []
    offset = 0
    for idx, r in enumerate(rings):
        n = r.rank
        sc[offset : offset + n, offset : offset + n, offset : offset + n] = r.sc
        labels.extend(f"p{idx}:{lab}" for lab in r.basis_labels)
        offset += n
    return make_ring(m, total, sc, labels)


def find_identity(ring: FiniteRing) -> RingElement | None:
    """The two-sided multiplicative unit, if the ring has one.

    Found by solving x * b_i = b_i = b_i * x over Z/m.  Order-1 rings report
    no unit (unital rings are nonzero by convention).
    """
    n = ring.rank
    if n == 0 or ring.order == 1:
        return None
    left_block = ring.sc.reshape(n, n * n)
    right_block = ring.sc.transpose(1, 0, 2).reshape(n, n * n)
    A = np.hstack([left_block, right_block])
    target = np.hstack([np.eye(n, dtype=np.int64).reshape(-1)] * 2)
    x = howell.solve_row(A, target, ring.modulus)
    if x is None:
        return None
    e = ring.element(x)
    for b in ring.basis():
        if e * b != b or b * e != b:
            raise InvariantViolation("solved identity fails the unit law")
    return e


def subring_identity(ring: FiniteRing, subgroup: AdditiveSubgroup) -> RingElement | None:
    """Unit of a multiplicatively closed subgroup, as a ring element.

    Scans the subgroup's elements for a two-sided unit on its basis rows;
    order-1 subgroups report none.
    """
    if subgroup.ring is not ring:
        raise RingMismatch("subgroup bound to a different ring")
    if subgroup.order == 1:
        return None
    rows = subgroup.basis
    for u in subgroup.element_vectors():
        ok = True
        for v in rows:
            if (ring.mul_vec(u, v) != v % ring.modulus).any() or (
                ring.mul_vec(v, u) != v % ring.modulus
            ).any():
                ok = False
                break
        if ok:
            return ring.element(u)
    return None

