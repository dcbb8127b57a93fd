"""Exception types shared across the workbench.

Every error raised by a validator carries a concrete, reproducible witness
(indices, coordinate vectors, or a short reason string) so that a failing
check is self-diagnosing.
"""

from __future__ import annotations


# the longest token or figure a message quotes whole
ECHO_CHARS = 32


def cut(text: str) -> str:
    """``text``, or for a longer one its first ECHO_CHARS characters and its
    length: no message echoes a whole oversized token."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class InvariantViolation(Exception):
    """A result the workbench re-verifies failed its check: a defect in the
    workbench itself, never a property of the input.  Deliberately not a
    WorkbenchError, so it cannot be mistaken for bad input."""


# ---------------------------------------------------------------------------
# ring construction and arithmetic


class ShapeMismatch(WorkbenchError):
    """Input data has the wrong shape or an index out of range."""


class ModulusTooSmall(WorkbenchError):
    """Coefficient modulus must be at least 2."""


class ModulusTooLarge(WorkbenchError):
    """Modulus of more bits than the cap that keeps each exact step, and
    each integer a report prints, small; checked before the constants are
    read."""

    def __init__(self, bits: int, cap: int):
        self.bits = bits
        self.cap = cap
        super().__init__(f"modulus of {bits} bits exceeds the cap of {cap} bits")


class RankTooLarge(WorkbenchError):
    """Ring rank above the cap that bounds what is allocated before a ring
    is validated."""

    def __init__(self, rank: int, cap: int):
        self.rank = rank
        self.cap = cap
        super().__init__(f"rank {cut(str(rank))} exceeds the cap of {cap}")


class WorkTooLarge(WorkbenchError):
    """The associativity check would take more steps than its cap; counted
    from the nonzero structure constants before the check runs."""

    def __init__(self, work: int, cap: int):
        self.work = work
        self.cap = cap
        super().__init__(f"associativity check needs {work} steps, above the cap of {cap}")


class ModulusMismatch(WorkbenchError):
    """Operands live over different coefficient moduli."""


class NotAssociative(WorkbenchError):
    """Associativity fails; carries the offending triple of indices."""

    def __init__(self, triple: tuple[int, int, int]):
        self.triple = tuple(int(t) for t in triple)
        super().__init__(f"associativity fails at triple {self.triple}")


class RingMismatch(WorkbenchError):
    """Elements or subgroups bound to different rings were combined."""


class LatticeTooLarge(WorkbenchError):
    """A lattice enumeration passed its work budget (rank^2 steps, at least
    16, per element scanned and per pair of subgroups to be joined); counted
    as it goes, so the refusal comes before the work."""

    def __init__(self, work: int, cap: int):
        self.work = work
        self.cap = cap
        super().__init__(f"lattice enumeration reached {work} steps, above the cap of {cap}")


class CornerNotFree(WorkbenchError):
    """A corner subgroup is not a free module over any single modulus,
    so it cannot be repackaged as a standalone structure-constant ring."""


# ---------------------------------------------------------------------------
# idempotent sets


class ZeroIdempotent(WorkbenchError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"candidate idempotent {index} is zero")


class NotIdempotent(WorkbenchError):
    def __init__(self, index: int | None = None, message: str = ""):
        self.index = index
        super().__init__(message or f"element {index} is not idempotent")


class NotOrthogonal(WorkbenchError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"idempotents {i} and {j} are not orthogonal")


class NotComplete(WorkbenchError):
    """Completeness fails on one side; carries the defective sum subgroup."""

    def __init__(self, side: str, defect=None):
        self.side = side
        self.defect = defect
        super().__init__(f"idempotent set is not complete on the {side}")


class NotStrong(WorkbenchError):
    """An operation required a strong complete set of idempotents."""


class ZeroComponent(WorkbenchError):
    """The mixed component fixed by the operation's hypothesis is zero."""


# ---------------------------------------------------------------------------
# small categories


class CompositionDomainMismatch(WorkbenchError):
    """Composition table definedness disagrees with domain/codomain data.

    ``kind`` is one of ``overdefined`` (entry present for a non-composable
    pair), ``underdefined`` (entry missing for a composable pair) or
    ``endpoints`` (composite has the wrong domain or codomain).
    """

    def __init__(self, g: int, h: int, kind: str):
        self.pair = (g, h)
        self.kind = kind
        super().__init__(f"composition table {kind} at pair ({g}, {h})")


class IdentityLawViolation(WorkbenchError):
    """An identity morphism is not an endomorphism of its object, or fails
    the left or right unit law on some morphism."""


class CategoryTooLarge(WorkbenchError):
    """Morphism count above the cap that bounds the composition tables'
    memory."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"{cut(str(count))} morphisms exceed the cap of {cap}")


class NotAMonoid(WorkbenchError):
    """The supplied multiplication table is not an associative table with a
    two-sided identity; carries a witness."""


# ---------------------------------------------------------------------------
# gradings


class NotDirectSum(WorkbenchError):
    """Components do not decompose the ring's additive group."""


class GradingViolation(WorkbenchError):
    """A product of homogeneous elements lands outside the target component."""

    def __init__(self, g: int, h: int, witness=None, message: str = ""):
        self.pair = (g, h)
        self.witness = witness
        super().__init__(message or f"grading violated on morphism pair ({g}, {h})")


class NotObjectUnital(WorkbenchError):
    """The grading is not object unital, so the operation does not apply."""


class CategoryNotHomSetStrong(WorkbenchError):
    """The grading category fails the hom-set strength hypothesis."""


# ---------------------------------------------------------------------------
# skew category systems


class NotUnital(WorkbenchError):
    def __init__(self, obj: int):
        self.object_index = obj
        super().__init__(f"object ring {obj} has no multiplicative unit")


class NotRingIso(WorkbenchError):
    """A morphism map is not a unit-preserving ring isomorphism."""

    def __init__(self, g: int, reason: str, witness=None):
        self.morphism = g
        self.reason = reason
        self.witness = witness
        super().__init__(f"map for morphism {g} is not a ring isomorphism: {reason}")


class NotFunctorial(WorkbenchError):
    def __init__(self, g: int, h: int):
        self.pair = (g, h)
        super().__init__(
            f"maps violate functoriality on composable pair ({g}, {h})"
        )


class IdentityNotIdentity(WorkbenchError):
    def __init__(self, obj: int):
        self.object_index = obj
        super().__init__(f"map for the identity morphism of object {obj} is not the identity")


# ---------------------------------------------------------------------------
# corpus and CLI


class ParameterOutOfRange(WorkbenchError):
    """A recipe parameter falls outside its documented range."""


class UnknownSuite(WorkbenchError):
    def __init__(self, name: str, known):
        self.name = name
        super().__init__(f"unknown suite {name!r}; known suites: {', '.join(sorted(known))}")


class UsageError(WorkbenchError):
    """Bad command line: an unknown flag, a missing subcommand or argument,
    or an argument value of the wrong form."""


class ParseError(WorkbenchError):
    """Malformed input file; carries line and column of the offending token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
