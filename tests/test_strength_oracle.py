"""Oracles for the strength verdicts of the prop-2.4 suite and of the
category suites, with no Howell form, no code from the strength module and
no call of homset_strong_report: only the library's reports they are
checked against come from there.

For prop-2.4, products come from the structure constants alone, each Peirce
component e_i S e_j is the set of its elements, and a product of two
components is the additive closure of their pairwise products.  No verdict
here reads the ring's product kernel, a Howell form, a span, a lattice or a
held table.  For prop-3.2 and groupoids, each hom-set is the set of
morphisms read off ``dom`` and ``cod``, and a product of two hom-sets is the
set of their composites read off ``compose.rows``.  The three conditions are
re-derived as defined and the library's report on each instance is checked
against them: every verdict, and for every false verdict the witness, which
must be the first index where the condition fails, with the reason it fails
there.

The lattice certificates of the small strong prop-2.4 sets are checked the
same way: each corner's one-sided ideals and each component's submodules are
element sets, found as sums of cyclic submodules from the zero one up, and
each map between them is the additive closure of a set of element products,
with no Howell form, span, lattice or certificate code of the library.
"""

import pytest

from conftest import brute_force_span
from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem
from ringbench import smallcat as sc

MAX_ORDER = 64


def multiply(ring, x, y) -> tuple:
    """x * y from the structure constants: b_i b_j = sum_k c[i][j][k] b_k."""
    out = [0] * ring.rank
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(ring.constants[i][j]):
                    out[k] += xi * yj * c
    return tuple(v % ring.modulus for v in out)


class OracleTable:
    """The components e_i S e_j of one instance as element sets, and their
    products as additive closures."""

    def __init__(self, ring, idempotents):
        self.ring = ring
        self.units = [e.coords for e in idempotents]
        elements = list(ring.element_vectors())
        left = [{multiply(ring, e, s) for s in elements} for e in self.units]
        self.s = [[frozenset(multiply(ring, x, f) for x in eS) for f in self.units] for eS in left]
        self.zero = frozenset([(0,) * ring.rank])
        self.products = {}

    def nonzero(self, i, j) -> bool:
        return self.s[i][j] != self.zero

    def product(self, i, j, l) -> frozenset:
        """S_ij S_jl: the additive closure of every x * y."""
        if (i, j, l) not in self.products:
            pairs = {multiply(self.ring, x, y) for x in self.s[i][j] for y in self.s[j][l]}
            self.products[i, j, l] = brute_force_span(self.ring, pairs)
        return self.products[i, j, l]

    def condition1(self, i, j, l) -> str | None:
        """Why condition 1 fails at the triple (i, j, l), or None."""
        nonzero = [self.nonzero(i, j), self.nonzero(j, l), self.nonzero(i, l)]
        if sum(nonzero) < 2:
            return None
        if not all(nonzero):
            return "third component is zero"
        if self.product(i, j, l) != self.s[i][l]:
            return "product does not recover the component"
        return None

    def opposed(self, p, q) -> str | None:
        if self.nonzero(p, q) != self.nonzero(q, p):
            return "opposed component is zero"
        return None

    def condition2(self, p, q) -> str | None:
        """Why condition 2 fails at the pair (p, q), or None."""
        if self.opposed(p, q) or not self.nonzero(p, q):
            return self.opposed(p, q)
        if self.product(p, q, p) != self.s[p][p]:
            return "product does not recover the diagonal"
        return None

    def condition3(self, p, q) -> str | None:
        """Why condition 3 fails at the pair (p, q), or None."""
        if self.opposed(p, q) or not self.nonzero(p, q):
            return self.opposed(p, q)
        if self.units[p] not in self.product(p, q, p):
            return "idempotent not reached by the product"
        return None

    def first_failures(self) -> list:
        return first_failures(len(self.units), self.condition1, self.condition2, self.condition3)


def first_failures(size, *conditions) -> list:
    """For each of the three conditions on a size x size table, its first
    failing index in lexicographic order with the reason, or None where it
    holds everywhere."""
    k = range(size)
    triples = [(i, j, l) for i in k for j in k for l in k]
    pairs = [(p, q) for p in k for q in k]
    return [
        next(((index, why) for index in indices if (why := condition(*index))), None)
        for condition, indices in zip(conditions, (triples, pairs, pairs))
    ]


def small_instances(seed):
    return [inst for inst in corpus.generate_suite("prop-2.4", seed) if inst.ring.order <= MAX_ORDER]


@pytest.mark.parametrize("seed", [corpus.DEFAULT_SUITE_SEED, 3])
def test_every_small_prop24_verdict_and_witness_matches_the_oracle(seed):
    instances = small_instances(seed)
    for inst in instances:
        report = inst.table.report
        verdicts = (report.condition1, report.condition2, report.condition3)
        witnesses = (report.witness1, report.witness2, report.witness3)
        expected = OracleTable(inst.ring, inst.idempotents).first_failures()
        assert verdicts == tuple(f is None for f in expected), inst.name
        assert witnesses == tuple(expected), inst.name
    assert len(instances) == 170


def test_the_small_instances_hold_strong_and_non_strong_sets():
    # a suite of only strong or only non-strong sets would test one branch
    verdicts = {inst.table.report.strong for inst in small_instances(corpus.DEFAULT_SUITE_SEED)}
    assert verdicts == {True, False}


def zero_pairing_ring():
    """[[F2, F2], [F2, F2]] on the basis e1, x, y, e2, with x = e1 x e2 and
    y = e2 y e1 as in the matrix units but x y = y x = 0: the components
    S_12 and S_21 are nonzero and their product is zero."""
    e1, x, y, e2 = range(4)
    constants = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a, b, ab in ((e1, e1, e1), (e1, x, x), (x, e2, x), (e2, y, y), (y, e1, y), (e2, e2, e2)):
        constants[a][b][ab] = 1
    return fr.make_ring(2, 4, constants, ["e1", "x", "y", "e2"])


def test_a_zero_pairing_fails_each_condition_on_its_product():
    # no prop-2.4 instance fails a condition on a product, only on a zero
    # component, so this ring is where the product branches meet the oracle
    ring = zero_pairing_ring()
    units = (ring.basis_element(0), ring.basis_element(3))
    report = idem.peirce_table(idem.validate_complete_set(ring, units)).report
    expected = OracleTable(ring, units).first_failures()
    assert (report.witness1, report.witness2, report.witness3) == tuple(expected) == (
        ((0, 1, 0), "product does not recover the component"),
        ((0, 1), "product does not recover the diagonal"),
        ((0, 1), "idempotent not reached by the product"),
    )
    assert not (report.condition1 or report.condition2 or report.condition3)


class HomSetOracle:
    """The hom-sets of one category as morphism sets, hom[a][b] holding the
    arrows b -> a, and their products as sets of composites."""

    def __init__(self, category):
        self.identity, self.rows = category.identity, category.compose.rows
        k = range(category.object_count)
        ends = list(zip(category.cod, category.dom))
        self.hom = [[frozenset(g for g, ab in enumerate(ends) if ab == (a, b)) for b in k] for a in k]

    def product(self, i, j, l) -> frozenset:
        """hom(i, j) hom(j, l): every composite g h, h an arrow l -> j and g
        an arrow j -> i."""
        return frozenset(self.rows[g][h] for g in self.hom[i][j] for h in self.hom[j][l])

    def condition1(self, i, j, l) -> str | None:
        nonempty = [bool(self.hom[i][j]), bool(self.hom[j][l]), bool(self.hom[i][l])]
        if sum(nonempty) < 2:
            return None
        if not all(nonempty):
            return "third hom-set is empty"
        if self.product(i, j, l) != self.hom[i][l]:
            return "composite set misses morphisms"
        return None

    def opposed(self, p, q) -> str | None:
        if bool(self.hom[p][q]) != bool(self.hom[q][p]):
            return "opposed hom-set is empty"
        return None

    def condition2(self, p, q) -> str | None:
        if self.opposed(p, q) or not self.hom[p][q]:
            return self.opposed(p, q)
        if self.product(p, q, p) != self.hom[p][p]:
            return "endo set not recovered"
        return None

    def condition3(self, p, q) -> str | None:
        if self.opposed(p, q) or not self.hom[p][q]:
            return self.opposed(p, q)
        if self.identity[p] not in self.product(p, q, p):
            return "identity not reached"
        return None

    def first_failures(self) -> list:
        return first_failures(len(self.hom), self.condition1, self.condition2, self.condition3)


@pytest.mark.parametrize("seed", [corpus.DEFAULT_SUITE_SEED, 3])
@pytest.mark.parametrize("suite,size", [("prop-3.2", 503), ("groupoids", 110)])
def test_every_category_verdict_and_witness_matches_the_oracle(suite, size, seed):
    instances = corpus.generate_suite(suite, seed)
    for inst in instances:
        report = inst.category._homset_report  # evaluated on its recipe's build
        verdicts = (report.condition1, report.condition2, report.condition3)
        witnesses = (report.witness1, report.witness2, report.witness3)
        expected = HomSetOracle(inst.category).first_failures()
        assert verdicts == tuple(f is None for f in expected), inst.name
        assert witnesses == tuple(expected), inst.name
    assert len(instances) == size


def split_idempotent_category():
    """Objects 0 and 1, arrows f: 0 -> 1 and g: 1 -> 0 with g f = 1_0, and
    the idempotent e = f g != 1_1: hom(1, 0) hom(0, 1) = {e} recovers
    neither hom(1, 1) = {1_1, e} nor its identity."""
    U = sc.UNDEFINED
    # morphisms 1_0, 1_1, f, g, e; row x holds x h for each h into dom(x)
    rows = [
        [0, U, U, 3, U],
        [U, 1, 2, U, 4],
        [2, U, U, 4, U],
        [U, 3, 0, U, 3],
        [U, 4, 2, U, 4],
    ]
    return sc.make_category(2, (0, 1, 0, 1, 1), (0, 1, 1, 0, 1), (0, 1), rows)


def test_a_split_idempotent_fails_each_condition_on_its_composites():
    # no prop-3.2 or groupoids instance fails a condition on a composite set,
    # only on an empty hom-set, so this category is where the composite
    # branches meet the oracle
    category = split_idempotent_category()
    report = sc.homset_strong_report(category)
    expected = HomSetOracle(category).first_failures()
    assert (report.witness1, report.witness2, report.witness3) == tuple(expected) == (
        ((1, 0, 1), "composite set misses morphisms"),
        ((1, 0), "endo set not recovered"),
        ((1, 0), "identity not reached"),
    )
    assert not (report.condition1 or report.condition2 or report.condition3)


class LatticeOracle(OracleTable):
    """The ideals of each corner S_ii and the submodules of each component
    as element sets, and the maps of the corner lattice correspondence
    between them, from a product table of the ring's elements."""

    def __init__(self, ring, idempotents):
        super().__init__(ring, idempotents)
        elements = list(ring.element_vectors())
        self.times = {(x, y): multiply(ring, x, y) for x in elements for y in elements}
        self.left_multiples = [{self.times[e, s] for s in elements} for e in self.units]
        self.right_multiples = [{self.times[s, e] for s in elements} for e in self.units]

    def add(self, x, y) -> tuple:
        return tuple((a + b) % self.ring.modulus for a, b in zip(x, y))

    def closure(self, elements) -> frozenset:
        """The additive subgroup the elements generate: each one not yet
        inside joins with all its multiples."""
        group = set(self.zero)
        for g in elements:
            if g not in group:
                multiples = {tuple(k * c % self.ring.modulus for c in g) for k in range(self.ring.modulus)}
                group = {self.add(h, kg) for h in group for kg in multiples}
        return frozenset(group)

    def submodules(self, acting, ambient, side) -> list:
        """Every subgroup of ``ambient`` that ``acting`` maps into itself
        from ``side``, smallest first.  Each is the sum of the cyclic
        submodules closure(acting x), x in it, since acting holds a unit for
        the ambient, so sums from the zero submodule up reach them all."""
        times = self.times
        act = (lambda a, x: times[a, x]) if side == "left" else (lambda a, x: times[x, a])
        cyclic = {self.closure(act(a, x) for a in acting) for x in ambient}
        found, frontier = {self.zero}, [self.zero]
        while frontier:
            m = frontier.pop()
            for c in cyclic:
                if not c <= m:
                    n = frozenset(self.add(x, y) for x in m for y in c)
                    if n not in found:
                        found.add(n)
                        frontier.append(n)
        return sorted(found, key=len)

    def image(self, subgroup, k, side) -> frozenset:
        """e_k S X on the left and X S e_k on the right, for X the subgroup."""
        if side == "left":
            return self.closure(self.times[a, x] for a in self.left_multiples[k] for x in subgroup)
        return self.closure(self.times[x, a] for x in subgroup for a in self.right_multiples[k])

    def certificate(self, i, j, side) -> tuple:
        """The ideal and submodule counts, their heights, the two round
        trips, the two monotonicity flags and ok of the certificate for the
        ideals of S_ii against the S_jj-submodules of S_ji (left) or S_ij
        (right), under I -> e_j S I, M -> e_i S M or I -> I S e_j, M -> M S e_i."""
        s = self.s
        ideals = self.submodules(s[i][i], s[i][i], side)
        modules = self.submodules(s[j][j], s[j][i] if side == "left" else s[i][j], side)
        forward = {ideal: self.image(ideal, j, side) for ideal in ideals}
        back = {module: self.image(module, i, side) for module in modules}
        counts = (len(ideals), len(modules))
        heights = (height(ideals), height(modules))
        round_trips = (
            all(back.get(forward[ideal]) == ideal for ideal in ideals),
            all(forward.get(back[module]) == module for module in modules),
        )
        monotone = tuple(all(f[a] <= f[b] for a in f for b in f if a < b) for f in (forward, back))
        listed = set(forward.values()) <= set(back) and set(back.values()) <= set(forward)
        ok = (listed and all(round_trips) and all(monotone)
              and counts[0] == counts[1] and heights[0] == heights[1])
        return (*counts, *heights, *round_trips, *monotone, ok)


def height(family) -> int:
    """The edge count of a longest chain of strict inclusions in a family
    sorted by size."""
    heights = []
    for m in family:
        heights.append(max((h + 1 for n, h in zip(family, heights) if n < m), default=0))
    return max(heights)


# every certificate of every distinct strong set of order at most MAX_ORDER
SMALL_CERTIFICATES = {corpus.DEFAULT_SUITE_SEED: 170, 3: 154}


@pytest.mark.parametrize("seed", sorted(SMALL_CERTIFICATES))
def test_every_small_strong_certificate_matches_the_oracle(seed):
    tables = {}
    for inst in small_instances(seed):
        if inst.table.report.strong:
            tables.setdefault(inst.table, inst)  # the suite's instances on one set share it
    checked = 0
    for table, inst in tables.items():
        oracle = LatticeOracle(inst.ring, inst.idempotents)
        k = range(len(oracle.units))
        for i, j, side in [(i, j, side) for i in k for j in k for side in ("left", "right")]:
            if not oracle.nonzero(i, j):
                continue
            cert = idem.corner_lattice_correspondence(table, i, j, side)
            fields = (
                cert.ideal_count, cert.submodule_count, cert.ideal_height, cert.submodule_height,
                cert.forward_then_back_identity, cert.back_then_forward_identity,
                cert.forward_monotone, cert.back_monotone, cert.ok,
            )
            assert fields == oracle.certificate(i, j, side), (inst.name, i, j, side)
            checked += 1
    assert checked == SMALL_CERTIFICATES[seed]
