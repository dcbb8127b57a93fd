import pytest

from ringbench import corpus
from ringbench import finring as fr
from ringbench import smallcat as sc
from ringbench import verify

# the nine drivers that enumerate no ideal lattice, in acceptance order
LATTICE_FREE_DRIVERS = tuple(
    name for name in verify.PROP_CHECKS if name not in ("prop-lattice", "fixture-counts")
)


@pytest.fixture(autouse=True)
def empty_suite_memo():
    """Each test starts with no suite, base or span held, so what it counts or
    shares does not depend on the test that ran before it."""
    corpus.forget_held_work()


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


def category_content(c) -> list:
    """JSON-ready content of a category: object count, dom, cod, identities
    and every composition-table entry."""
    return [
        c.object_count, list(c.dom), list(c.cod), list(c.identity), sorted(c.compose.items())
    ]


def fresh_category(recipe: tuple):
    """The category of a corpus recipe from a build of its own: every held
    build is dropped first, so nothing held serves it."""
    corpus.forget_held_work()
    return corpus._category(recipe)


def content_key(x):
    """A hashable copy of a driver input's content: rings as their modulus
    and structure constants, subgroups as their ring and Howell rows, sets
    sorted and sequences as tuples; equal inputs built as separate objects
    get one key."""
    if isinstance(x, fr.FiniteRing):
        return x.modulus, content_key(x.constants)
    if isinstance(x, fr.AdditiveSubgroup):
        return content_key(x.ring), content_key(x.rows)
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, (list, tuple)):
        return tuple(content_key(y) for y in x)
    return x


def counted(monkeypatch, module, name: str) -> list:
    """The arguments of every call to ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def driver_calls(module, name: str, seeds) -> list[tuple]:
    """The arguments of every call to ``module.name`` while the lattice-free
    drivers run at each suite seed, in call order, from no suite or span
    held."""
    corpus.forget_held_work()  # a module-scoped caller runs before empty_suite_memo
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    setattr(module, name, recording)
    try:
        for seed in seeds:
            for driver in LATTICE_FREE_DRIVERS:
                verify.run_check(driver, seed)
    finally:
        setattr(module, name, original)
    return calls
