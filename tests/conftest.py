import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import smallcat as sc


@pytest.fixture(scope="session")
def m2f2():
    """2x2 matrices over Z/2 on the matrix-unit basis E11, E12, E21, E22."""
    return corpus.matrix_units_ring(2, 2)


@pytest.fixture(scope="session")
def t2f2():
    """Upper triangular 2x2 matrices over Z/2 on E11, E12, E22."""
    return corpus.upper_triangular_ring(2, 2)


@pytest.fixture(scope="session")
def z2():
    return corpus.cyclic_ring(2)


@pytest.fixture(scope="session")
def z3():
    return corpus.cyclic_ring(3)


@pytest.fixture(scope="session")
def zero_ring_2():
    """Order-2 ring with zero multiplication."""
    return corpus.zero_multiplication_ring(2)


@pytest.fixture(scope="session")
def arrow_category():
    """Two objects with a single arrow 0 -> 1."""
    return corpus.thin_category_from_relation(2, [(0, 1)])


@pytest.fixture(scope="session")
def pair_groupoid():
    """The two-object groupoid with exactly one arrow in each direction."""
    return sc.build_MX(corpus.MONOID_TABLES["c1"], 2)


@pytest.fixture(scope="session")
def trivial_category():
    return corpus.thin_category_from_relation(1, [])


def brute_force_span(ring: fr.FiniteRing, generators) -> frozenset:
    """All sums of generators, by closure; the membership oracle for spans."""
    m = ring.modulus
    zero = (0,) * ring.rank
    gens = [tuple(int(c) for c in g) for g in generators]
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b in zip(v, g))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def plain(x):
    """JSON-ready data: elements as coordinates, subgroups as Howell rows."""
    if isinstance(x, fr.RingElement):
        return list(x.coords)
    if isinstance(x, fr.AdditiveSubgroup):
        return [list(row) for row in x.rows]
    if isinstance(x, (list, tuple)):
        return [plain(y) for y in x]
    return x
