"""A Howell-free oracle for the strength verdicts of the prop-2.4 suite.

Products come from the structure constants alone, each Peirce component
e_i S e_j is the set of its elements, and a product of two components is
the additive closure of their pairwise products.  No verdict here reads the
ring's product kernel, a Howell form, a span, a lattice or a held table, so
the three conditions are re-derived as defined and the library's report on
each instance is checked against them: every verdict, and for every false
verdict the witness, which must be the first index where the condition
fails, with the reason it fails there.
"""

import pytest

from conftest import brute_force_span
from ringbench import corpus
from ringbench import finring as fr
from ringbench import idempotents as idem

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
        """For each condition, its first failing index in lexicographic
        order with the reason, or None where it holds everywhere."""
        k = range(len(self.units))
        triples = [(i, j, l) for i in k for j in k for l in k]
        pairs = [(p, q) for p in k for q in k]
        out = []
        for condition, indices in (
            (self.condition1, triples), (self.condition2, pairs), (self.condition3, pairs),
        ):
            out.append(next(
                ((index, why) for index in indices if (why := condition(*index))), None
            ))
        return out


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
