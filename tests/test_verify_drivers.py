"""The prop-2.4, prop-lattice, prop-3.2 and groupoid-homset drivers, pinned
by SHA-256 digests of their whole VerificationResult.

The drivers judge every instance directly; what instances share is decided
by the suite.  The conjugate variants often repeat their base instance
exactly (a central set conjugates to itself), and every instance on one set
reads the one Peirce table its ring holds, so prop-lattice on a held suite
reads the tables prop-2.4 built.  The category suites repeat recipes too:
each is built once, its hom-set report evaluated once on that build, and
every instance of it reads that report.
Every instance must still be reported under its own name, in suite order:
the digests cover ``ok``, ``checked``, every failure line and ``details``,
and the injected faults make every instance on one ring, or with one
category content, fail, repeats included.  Every other failure line of the
eleven drivers is pinned word for word under a fault injected into the
verdict it reads.
"""

import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import category_content, counted
from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import idempotents as idem
from ringbench import skewalg as sk
from ringbench import smallcat as cat
from ringbench import verify
from ringbench.errors import ModulusTooSmall

RESULT_DIGESTS = {
    ("prop-2.4", 1729): "527993c96d67f5a66e884b0829a2b543c145e00a2c80ad98f6c05d12f664adfd",
    ("prop-2.4", 3): "527993c96d67f5a66e884b0829a2b543c145e00a2c80ad98f6c05d12f664adfd",
    ("prop-lattice", 1729): "5b6899ad0a1ffc27a0b850b42e1946a87742702f5b2fa6f04d3c4d7fb5906203",
    ("prop-lattice", 3): "5b6899ad0a1ffc27a0b850b42e1946a87742702f5b2fa6f04d3c4d7fb5906203",
    ("prop-3.2", 1729): "774dc804a8619caf13cf11e2bcfc8c3bc65732514e63dee2be174721718d2fe4",
    ("prop-3.2", 3): "774dc804a8619caf13cf11e2bcfc8c3bc65732514e63dee2be174721718d2fe4",
    ("groupoid-homset", 1729): "919f8612beb3ddf6ab7246468c782c23492445e8d54a90bfcd478a05c2901656",
    ("groupoid-homset", 3): "919f8612beb3ddf6ab7246468c782c23492445e8d54a90bfcd478a05c2901656",
}
# (failure count, digest of the failure lines) with every instance on the
# matrix2_z2 ring made to fail, at suite seed 1729
INJECTED_REPORT_FAILURES = (
    40, "a6299e1d9ddf15708022c45960209c79427dbcdbd6ce049b975d6542cbf558ad"
)
INJECTED_CERTIFICATE_FAILURES = (
    100, "ce7db005eed0747971761ea91049c5594209376b21d8d2e35e167005c15cffe7"
)
# the same with every category whose content is the one-object c2 category's
# made to fail, at suite seed 1729
INJECTED_CATEGORY_REPORT_FAILURES = (
    5, "57f13c9851412bff2b5ce2432797de2fa7e3f9e0a36307882531626ff835a24a"
)
INJECTED_GROUPOID_FAILURES = (
    5, "131b3da68e3535608263210c42ef258c8c712475a571f9e6902422815f8430f0"
)

FAULTY_BASE = "matrix2_z2"
FAULTY_CONTENT = category_content(corpus.one_object_monoid_category("c2"))


def result_digest(result: verify.VerificationResult) -> str:
    record = [result.name, result.ok, result.checked, result.failures, result.details]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def failures_digest(failures: list[str]) -> tuple[int, str]:
    return len(failures), hashlib.sha256("\n".join(failures).encode()).hexdigest()


def _record_suite(monkeypatch) -> list:
    """The instances of the next suite a driver builds, filled on its build:
    each build makes new ring objects, so the faulty ring is found there."""
    built = []
    original = corpus.generate_suite

    def recording(name, seed=None):
        suite = original(name, seed)
        built.extend(suite)
        return suite

    monkeypatch.setattr(corpus, "generate_suite", recording)
    return built


def _faulty_ring(built):
    return next(inst.ring for inst in built if inst.name == FAULTY_BASE)


def _names_on_ring(built) -> list[str]:
    ring = _faulty_ring(built)
    return [inst.name for inst in built if inst.ring is ring]


def _names_with_faulty_content(built) -> list[str]:
    return [inst.name for inst in built if category_content(inst.category) == FAULTY_CONTENT]


def _failing_names(failures: list[str]) -> list[str]:
    """The instance named by each failure line, consecutive repeats merged."""
    names = []
    for line in failures:
        name = line.split(":", 1)[0]
        if not names or names[-1] != name:
            names.append(name)
    return names


@pytest.mark.parametrize("name,seed", sorted(RESULT_DIGESTS))
def test_driver_results_match_recorded_digest(name, seed):
    assert result_digest(verify.run_check(name, seed)) == RESULT_DIGESTS[name, seed]


def test_injected_report_fault_names_every_instance(monkeypatch):
    built = _record_suite(monkeypatch)
    original = idem.strong_condition_report

    def faulty(table):
        report = original(table)
        if table.ring is _faulty_ring(built):
            return report._replace(condition1=not report.condition1)
        return report

    monkeypatch.setattr(idem, "strong_condition_report", faulty)
    result = verify.verify_prop_24(1729)
    assert result.checked == 250
    assert _failing_names(result.failures) == _names_on_ring(built)
    assert failures_digest(result.failures) == INJECTED_REPORT_FAILURES


def test_injected_certificate_fault_names_every_instance(monkeypatch):
    built = _record_suite(monkeypatch)
    original = idem.corner_lattice_correspondence

    def faulty(table, i, j, side):
        cert = original(table, i, j, side)
        if table.ring is _faulty_ring(built):
            fields = {name: getattr(cert, name) for name in cert._fields}
            return idem.CornerLatticeCertificate(**{**fields, "failure": "injected"})
        return cert

    monkeypatch.setattr(idem, "corner_lattice_correspondence", faulty)
    result = verify.verify_prop_lattice(1729)
    assert result.checked == 700
    # every instance on the ring holds a strong set, so each is certified
    assert _failing_names(result.failures) == _names_on_ring(built)
    assert failures_digest(result.failures) == INJECTED_CERTIFICATE_FAILURES


def test_each_distinct_instance_is_validated_once(monkeypatch):
    instances = corpus.generate_suite("prop-2.4", 1729)
    distinct = {(id(inst.ring), inst.idempotents) for inst in instances}
    assert (len(instances), len(distinct)) == (250, 87)
    calls = []
    original = idem.validate_complete_set

    def counting(ring, candidates):
        calls.append(ring)
        return original(ring, candidates)

    monkeypatch.setattr(idem, "validate_complete_set", counting)
    result = verify.verify_prop_24(1729)
    assert (len(calls), result.checked) == (87, 250)


def counted_table_builds(monkeypatch) -> Counter:
    """Calls of validate_complete_set and peirce_table from now on, by name."""
    counts = Counter()
    for name in ("validate_complete_set", "peirce_table"):
        def counting(*args, _name=name, _original=getattr(idem, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(idem, name, counting)
    return counts


# (validate_complete_set, peirce_table) calls of prop-2.4 and then of
# prop-lattice on the suite prop-2.4 left held, at suite seed 1729: each
# first instance of a distinct set holds its table, which prop-lattice reads
HELD_SUITE_TABLE_BUILDS = [(87, 87), (0, 0)]


def test_consecutive_drivers_validate_each_distinct_set(monkeypatch):
    counts = counted_table_builds(monkeypatch)
    builds = []
    for driver in (verify.verify_prop_24, verify.verify_prop_lattice):
        driver(1729)
        builds.append((counts["validate_complete_set"], counts["peirce_table"]))
        counts.clear()
    assert builds == HELD_SUITE_TABLE_BUILDS


def test_prop_lattice_alone_validates_each_distinct_set(monkeypatch):
    counts = counted_table_builds(monkeypatch)
    result = verify.verify_prop_lattice(1729)
    assert (counts["validate_complete_set"], counts["peirce_table"]) == (87, 87)
    assert result.checked == 700


@pytest.mark.parametrize("seed", [1729, 3])
def test_fixture_counts_reads_the_held_prop24_rings(monkeypatch, seed):
    # the acceptance order; the skew builder takes _build_ring by name, and
    # matrix2_z2's set {E11, E22} is read validated with its Peirce table
    # from its held table
    verify.verify_prop_24(seed)
    verify.verify_prop_lattice(seed)
    builds = {
        (module.__name__, name): counted(monkeypatch, module, name)
        for module, name in (
            (fr, "_build_ring"), (sk, "_build_ring"), (cat, "make_category"),
            (sk, "build_skew_algebra"), (idem, "validate_complete_set"),
            (idem, "peirce_table"),
        )
    }
    result = verify.verify_fixture_counts(seed)
    assert result.ok and result.checked == 4
    assert {key: len(calls) for key, calls in builds.items()} == dict.fromkeys(builds, 0)


def test_injected_category_report_fault_names_every_instance(monkeypatch):
    # the fault is made where a report is evaluated, so every instance that
    # reads the faulty recipe's report fails
    built = _record_suite(monkeypatch)
    original = cat.homset_strong_report

    def faulty(category):
        evaluating = category._homset_report is None
        report = original(category)
        if evaluating and category_content(category) == FAULTY_CONTENT:
            category._homset_report = report._replace(condition1=not report.condition1)
        return category._homset_report

    monkeypatch.setattr(cat, "homset_strong_report", faulty)
    result = verify.verify_prop_32(1729)
    assert result.checked == 503
    assert _failing_names(result.failures) == _names_with_faulty_content(built)
    assert failures_digest(result.failures) == INJECTED_CATEGORY_REPORT_FAILURES


def test_injected_groupoid_fault_names_every_instance(monkeypatch):
    built = _record_suite(monkeypatch)
    original = cat.is_groupoid

    def faulty(category):
        check = original(category)
        if category_content(category) == FAULTY_CONTENT:
            return check._replace(is_groupoid=not check.is_groupoid)
        return check

    monkeypatch.setattr(cat, "is_groupoid", faulty)
    result = verify.verify_groupoid_homset(1729)
    assert result.checked == 110
    assert _failing_names(result.failures) == _names_with_faulty_content(built)
    assert failures_digest(result.failures) == INJECTED_GROUPOID_FAILURES


@pytest.mark.parametrize(
    "suite,seed,size,recipes",
    [
        ("prop-3.2", 1729, 503, 120),
        ("prop-3.2", 3, 503, 116),
        ("groupoids", 1729, 110, 59),
        ("groupoids", 3, 110, 68),
    ],
)
def test_each_distinct_recipe_is_built_once(monkeypatch, suite, seed, size, recipes):
    built = []
    original = cat.make_category

    def counting(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(cat, "make_category", counting)
    instances = corpus.generate_suite(suite, seed)
    # every instance holds its own object, on the tables of one build, and
    # every build serves some instance
    assert len({id(inst.category) for inst in instances}) == len(instances) == size
    tables = {id(c.compose) for c in built}
    assert {id(inst.category.compose) for inst in instances} == tables
    assert len(built) == len(tables) == recipes


@pytest.mark.parametrize(
    "check,size,recipes", [("prop-3.2", 503, 120), ("groupoid-homset", 110, 59)]
)
def test_each_distinct_category_is_judged_once(monkeypatch, check, size, recipes):
    # each recipe's hom-set report is evaluated once per process, on its held
    # build, and read by every instance of it, over two runs of the driver;
    # is_groupoid runs on every instance of every run
    built = _record_suite(monkeypatch)
    evaluated, groupoid_checks = [], []
    report, is_groupoid = cat.homset_strong_report, cat.is_groupoid

    def evaluating(c):
        if c._homset_report is None:
            evaluated.append(c)
        return report(c)

    monkeypatch.setattr(cat, "homset_strong_report", evaluating)
    monkeypatch.setattr(cat, "is_groupoid", lambda c: groupoid_checks.append(c) or is_groupoid(c))
    results = [verify.run_check(check, 1729) for _ in range(2)]
    held = list(corpus._held["category recipes"].values())
    assert [id(c) for c in evaluated] == [id(c) for c in held]
    assert {id(inst.category._homset_report) for inst in built} <= {
        id(c._homset_report) for c in held
    }
    assert results[0] == results[1]
    assert (results[0].checked, len(built), len(evaluated)) == (size, 2 * size, recipes)
    assert len(groupoid_checks) == (2 * size if check == "groupoid-homset" else 0)


# ---------------------------------------------------------------------------
# every other failure line, each made by a fault in the verdict it reads


def inject(monkeypatch, module, name: str, faults: dict) -> None:
    """Rebind ``module.name`` so that a call whose first argument is a key
    of ``faults`` (by id) returns that fault applied to the true result;
    every other call is unchanged."""
    original = getattr(module, name)

    def faulty(arg, *rest):
        result = original(arg, *rest)
        fault = faults.get(id(arg))
        return result if fault is None else fault(result)

    monkeypatch.setattr(module, name, faulty)


def _by_name(suite: str, seed: int | None = None) -> dict:
    return {inst.name: inst for inst in corpus.generate_suite(suite, seed)}


def test_injected_prop_24_faults_leave_no_non_strong_instance(monkeypatch):
    suite = corpus.generate_suite("prop-2.4", 1729)
    strong = idem.strong_condition_report(suite[0].table)
    assert strong.strong
    monkeypatch.setattr(idem, "strong_condition_report", lambda table: strong)
    result = verify.verify_prop_24(1729)
    assert result.ok is False and result.checked == 250
    expected = [f"{inst.name}: expected strong=False, got True"
                for inst in suite if inst.expect_strong is False]
    assert len(expected) == 90
    assert result.failures == expected + ["suite does not mix strong and non-strong instances"]
    assert result.details == {"strong": 250, "non_strong": 0}


def test_injected_groupoid_report_fault_names_every_instance(monkeypatch):
    built = _record_suite(monkeypatch)
    original = cat.homset_strong_report

    def faulty(category):
        report = original(category)
        if category_content(category) == FAULTY_CONTENT:
            return report._replace(condition1=False)
        return report

    monkeypatch.setattr(cat, "homset_strong_report", faulty)
    result = verify.verify_groupoid_homset(1729)
    assert result.ok is False and result.checked == 110
    assert result.failures == [
        f"{name}: groupoid fails hom-set strength" for name in _names_with_faulty_content(built)
    ]
    assert len(result.failures) == 5


def test_injected_mx_family_faults(monkeypatch):
    suite = _by_name("mx-family")
    inject(monkeypatch, cat, "homset_strong_report", {
        id(suite["mx_c2_s2"].category): lambda report: report._replace(condition1=False),
    })
    inject(monkeypatch, cat, "is_groupoid", {
        id(suite["mx_bool2_s2"].category): lambda check: check._replace(is_groupoid=True),
    })
    result = verify.verify_mx_family(1729)
    assert result.ok is False and result.checked == 15
    assert result.failures == [
        "mx_c2_s2: not hom-set strong",
        "mx_bool2_s2: groupoid=True but group table=False",
    ]


def test_injected_prop_53_faults(monkeypatch):
    suite = _by_name("prop-5.3")
    inject(monkeypatch, gr, "strongly_graded_check", {
        id(suite["pair_z2"].algebra.grading): lambda verdict: False,
    })
    inject(monkeypatch, gr, "object_unital_check", {
        id(suite["s3_z3"].algebra.grading): lambda ou: ou._replace(object_unital=False),
    })
    result = verify.verify_prop_53(1729)
    assert result.ok is False and result.checked == 28
    assert result.failures == ["pair_z2: not strongly graded", "s3_z3: not object unital"]


def test_injected_strong_equivalence_faults(monkeypatch):
    suite = _by_name("prop-5.3")
    inject(monkeypatch, sk, "strong_idempotent_equivalence_check", {
        id(suite["arrow_z2"].algebra):
            lambda record: record._replace(idempotents_strong=not record.idempotents_strong),
        id(suite["pair_z3"].algebra): lambda record: record._replace(graded_report_ok=False),
    })
    result = verify.verify_strong_equivalence(1729)
    assert result.ok is False and result.checked == 28
    assert result.failures == [
        "arrow_z2: idempotent side True vs category side False",
        "pair_z3: graded-level report failed",
    ]


def test_injected_corner_identity_fault(monkeypatch):
    suite = _by_name("gradings")
    inject(monkeypatch, gr, "corner_identity_check", {
        id(suite["matrix_pair_z3"].grading): lambda verdict: (False, ((0, 1), 3, 9)),
    })
    result = verify.verify_corner_identity(1729)
    assert result.ok is False and result.checked == 34
    assert result.failures == ["matrix_pair_z3: sandwich law fails at ((0, 1), 3, 9)"]


def test_injected_fixture_count_faults(monkeypatch):
    # matrix2_z2's oracle is off by one; group_algebra_c2_z2's enumeration
    # and oracle agree on a count other than the frozen one; one corner of
    # matrix2_z2 has a lattice of size 3
    suite = _by_name("prop-2.4", 1729)
    matrix, group_algebra = suite["matrix2_z2"].ring, suite["c2_algebra_z2"].ring

    def one_more(shape):
        return shape[0] + 1, shape[1]

    inject(monkeypatch, verify, "brute_force_one_sided_ideal_count", {
        id(matrix): one_more, id(group_algebra): one_more,
    })
    inject(monkeypatch, fr, "enumerate_one_sided_ideals", {
        id(group_algebra): lambda lattice: SimpleNamespace(size=lattice.size + 1,
                                                           height=lattice.height),
    })
    inject(monkeypatch, idem, "ideal_lattice_shape", {
        id(suite["matrix2_z2"].table.component(0, 0)): lambda shape: (3, shape[1]),
    })
    result = verify.verify_fixture_counts(1729)
    assert result.ok is False and result.checked == 4
    assert result.failures == [
        "matrix2_z2/left: enumeration (5, 2) != oracle (6, 2)",
        "group_algebra_c2_z2/left: got (4, 2), frozen (3, 2)",
        "matrix2_z2 corners do not have size-2 lattices",
    ]


def test_injected_matrix_units_fault(monkeypatch):
    matrix_units_ring = corpus.matrix_units_ring
    monkeypatch.setattr(
        corpus, "matrix_units_ring",
        lambda m, n: corpus.upper_triangular_ring(m, n) if m == 3 else matrix_units_ring(m, n),
    )
    result = verify.verify_matrix_units_iso(1729)
    assert result.ok is False and result.checked == 2
    assert result.failures == ["modulus 3: structure constants differ"]


def test_injected_mutation_matrix_faults(monkeypatch):
    cases = corpus.mutation_matrix()
    (accepted, first), (mistyped, second) = cases[:2]
    assert (accepted, mistyped) == ("ring-not-associative", "ring-shape")
    faulty = [
        (accepted, first._replace(revalidate=lambda: None)),
        (mistyped, second._replace(expected_error=ModulusTooSmall)),
        *cases[2:],
    ]
    monkeypatch.setattr(corpus, "mutation_matrix", lambda: faulty)
    result = verify.verify_mutation_matrix(1729)
    assert result.ok is False and result.checked == len(cases)
    assert result.failures == [
        "ring-not-associative: mutant was accepted",
        "ring-shape: raised ShapeMismatch, expected ModulusTooSmall",
    ]
