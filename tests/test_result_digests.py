"""Suites, strength reports and validator errors, pinned by SHA-256 digests.

Each digest covers every field a verdict or witness carries, so a change to
how gradings, strength tables or associativity are checked that alters any
result (a constant, a component, a verdict, a witness, the first failing
triple, an error's type, message, pair or witness) changes it.  The
perturbations are fixed data derived from the suites: swapped, zeroed and
cyclically shifted grading components, and single structure constants
raised by one, on the rings of the `gradings` suite (which holds every
`prop-5.3` algebra).
"""

import hashlib
import json
import random

import pytest

from conftest import plain
from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import idempotents as idem
from ringbench.errors import WorkbenchError

SEEDS = (1729, 3)

# the prop-5.3 and gradings suites, and the strength verdicts and witnesses,
# do not depend on the suite seed; the perturbations' random flips do
SUITE_DIGESTS = {
    1729: (62, "c7e66e798e374b71b5936a1d1a015926615156ff9189a4233a2ec0021e4103dd"),
    3: (62, "c7e66e798e374b71b5936a1d1a015926615156ff9189a4233a2ec0021e4103dd"),
}
REPORT_DIGESTS = {
    1729: (284, "d0d715b5510dfdeae1e2bdee8e9a75228e7b820d6255f29651e8fa8142d72733"),
    3: (284, "d0d715b5510dfdeae1e2bdee8e9a75228e7b820d6255f29651e8fa8142d72733"),
}
PERTURBATION_DIGESTS = {
    1729: (774, "e5e7da495baf1f912052f2bfe9260ce2b2589ffccafece702855bc707f40840e"),
    3: (774, "c71d604f8bf18f3afef6c11d81a705603f6d5ce2989fb669ffe83fc1aa235692"),
}


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.count = 0

    def add(self, *record):
        self.h.update(json.dumps(plain(record)).encode() + b"\n")
        self.count += 1

    def result(self) -> tuple[int, str]:
        return self.count, self.h.hexdigest()


def suite_digest(seed: int) -> tuple[int, str]:
    """The prop-5.3 algebras (constants, component keys, offsets, units) and
    the gradings suite (constants, component keys)."""
    d = _Digest()
    for inst in corpus.generate_suite("prop-5.3", seed):
        alg = inst.algebra
        d.add(
            inst.name,
            alg.ring.modulus,
            alg.ring.constants,
            [c.key for c in alg.grading.components],
            alg.offsets,
            alg.unit_elements,
        )
    for inst in corpus.generate_suite("gradings", seed):
        ring = inst.grading.ring
        d.add(inst.name, ring.modulus, ring.constants, [c.key for c in inst.grading.components])
    return d.result()


def report_digest(seed: int) -> tuple[int, str]:
    """Every strong_condition_report over prop-2.4, and every grading's
    flags, hom-set-level report and corner-identity verdict."""
    d = _Digest()
    for inst in corpus.generate_suite("prop-2.4", seed):
        table = idem.peirce_table(idem.validate_complete_set(inst.ring, inst.idempotents))
        report = idem.strong_condition_report(table)
        d.add(inst.name, report.agree, [[name, getattr(report, name)] for name in report._fields])
    for inst in corpus.generate_suite("gradings", seed):
        flags = gr.compute_flags(inst.grading)
        report = flags.homset_report
        d.add(
            inst.name,
            flags.object_unital,
            flags.strongly_graded,
            flags.homset_strongly_graded,
            None if report is None else [[name, getattr(report, name)] for name in report._fields],
            None if flags.induced_set is None else flags.induced_set.elements,
            gr.corner_identity_check(inst.grading) if flags.object_unital else None,
        )
    return d.result()


def _outcome(check, *args):
    """(error name, message, pair, witness, triple) of a validator call;
    all None when it accepts."""
    try:
        check(*args)
    except WorkbenchError as exc:
        return (
            type(exc).__name__,
            str(exc),
            getattr(exc, "pair", None),
            getattr(exc, "witness", None),
            getattr(exc, "triple", None),
        )
    return None, None, None, None, None


def _perturbed_components(comps):
    q = len(comps)
    for g in range(q):
        for h in sorted({(g + 1) % q, q - 1 - g}):
            if g < h:
                swapped = list(comps)
                swapped[g], swapped[h] = swapped[h], swapped[g]
                yield ("swap", g, h), swapped
    for g in range(q):
        zeroed = list(comps)
        zeroed[g] = comps[g].ring.zero_subgroup()
        yield ("zero", g), zeroed
    for k in range(1, q):
        yield ("shift", k), list(comps[k:] + comps[:k])


def perturbation_digest(seed: int) -> tuple[int, str]:
    """attach_grading's outcome on perturbed components, and make_ring's
    (then attach_grading's) on single raised constants."""
    d = _Digest()
    for inst in corpus.generate_suite("gradings", seed):
        grading = inst.grading
        ring, category, comps = grading.ring, grading.category, grading.components
        for label, perturbed in _perturbed_components(comps):
            d.add(inst.name, label, _outcome(gr.attach_grading, ring, category, perturbed))
        n, m = ring.rank, ring.modulus
        rng = random.Random(f"{seed}:{inst.name}")
        for _ in range(12):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            constants = [[list(cell) for cell in row] for row in ring.constants]
            constants[i][j][k] = (constants[i][j][k] + 1) % m
            outcome = _outcome(fr.make_ring, m, n, constants)
            if outcome[0] is None:
                flipped = fr.make_ring(m, n, constants)
                respanned = [flipped.span(c.rows) for c in comps]
                outcome = _outcome(gr.attach_grading, flipped, category, respanned)
            d.add(inst.name, ("flip", i, j, k), outcome)
    return d.result()


@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_recorded_digest(seed):
    assert suite_digest(seed) == SUITE_DIGESTS[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_strength_reports_match_recorded_digest(seed):
    assert report_digest(seed) == REPORT_DIGESTS[seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_validator_errors_match_recorded_digest(seed):
    assert perturbation_digest(seed) == PERTURBATION_DIGESTS[seed]
