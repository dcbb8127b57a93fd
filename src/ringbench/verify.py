"""Suite-level verification drivers.

Each driver runs one named check over its instance suite and returns a
VerificationResult with per-instance failure details.  The drivers back both
the command line's verify-prop subcommand and the acceptance test module, so
there is a single source of truth for what each named check means.

The fixture-count driver carries its own brute-force oracle: it enumerates
every additive subgroup of a small ring by adjoining one element at a time,
each adjunction <H, x> formed as the union of the cosets H + k x, and
filters by the absorption property, sharing no code with the Howell-form
pipeline it cross-checks.
"""

from __future__ import annotations

from . import corpus
from . import finring as fr
from . import graded as gr
from . import idempotents as idem
from . import skewalg as sk
from . import smallcat as cat
from .errors import UnknownSuite


class VerificationResult:
    """One driver's verdict, check count, failure lines and details;
    results compare by value."""

    __slots__ = ("name", "ok", "checked", "failures", "details")

    def __init__(self, name: str, ok: bool, checked: int, failures: list[str] | None = None,
                 details: dict | None = None):
        self.name, self.ok, self.checked = name, ok, checked
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    def _values(self) -> tuple:
        return self.name, self.ok, self.checked, self.failures, self.details

    def __eq__(self, other):
        if other.__class__ is not VerificationResult:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        return (f"VerificationResult(name={self.name!r}, ok={self.ok!r}, checked={self.checked!r}, "
                f"failures={self.failures!r}, details={self.details!r})")


# ---------------------------------------------------------------------------
# independent brute-force oracle for small ideal lattices


def _adjoin(H: frozenset, x: tuple[int, ...], m: int) -> frozenset:
    """The subgroup <H, x> = H + Z x, as the union of the cosets H + k x for
    k = 0, 1, ... up to the first k x that falls in H."""
    out = set(H)
    kx = x
    while kx not in H:
        out.update(tuple([(a + b) % m for a, b in zip(h, kx)]) for h in H)
        kx = tuple([(a + b) % m for a, b in zip(kx, x)])
    return frozenset(out)


def brute_force_one_sided_ideal_count(ring: fr.FiniteRing, side: str) -> tuple[int, int]:
    """(count, height) of all one-sided ideals, by exhaustive subgroup search.

    Enumerates every additive subgroup from the zero subgroup by adjoining
    one element at a time, each adjunction formed as a union of cosets with
    plain tuple arithmetic, then filters by basis absorption.  Only suitable
    for rings of order a few hundred.
    """
    m, n = ring.modulus, ring.rank

    def mul(x, y):
        out = [0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                row = ring.constants[i][j]
                for k in range(n):
                    out[k] = (out[k] + x[i] * y[j] * row[k]) % m
        return tuple(out)

    elements = list(ring.element_vectors())
    subgroups = {frozenset([(0,) * n])}
    frontier = list(subgroups)
    while frontier:
        H = frontier.pop()
        for x in elements:
            if x not in H:
                H2 = _adjoin(H, x, m)
                if H2 not in subgroups:
                    subgroups.add(H2)
                    frontier.append(H2)

    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    if side == "left":
        ideals = [H for H in subgroups if all(mul(b, x) in H for b in basis for x in H)]
    else:
        ideals = [H for H in subgroups if all(mul(x, b) in H for b in basis for x in H)]

    order = sorted(ideals, key=len)
    height = [0] * len(order)
    best = 0
    for i, I in enumerate(order):
        for j in range(i):
            if len(order[j]) < len(I) and order[j] <= I:
                height[i] = max(height[i], height[j] + 1)
        best = max(best, height[i])
    return len(ideals), best


# ---------------------------------------------------------------------------
# drivers


def verify_prop_24(seed: int | None = None) -> VerificationResult:
    """Tri-equivalence of the three strength conditions on every instance."""
    instances = corpus.generate_suite("prop-2.4", seed)
    failures = []
    strong_seen = nonstrong_seen = 0
    for inst in instances:
        report = idem.strong_condition_report(inst.table)
        if not report.agree:
            failures.append(f"{inst.name}: verdicts disagree "
                            f"({report.condition1}, {report.condition2}, {report.condition3})")
        if inst.expect_strong is not None and report.strong != inst.expect_strong:
            failures.append(f"{inst.name}: expected strong={inst.expect_strong}, got {report.strong}")
        if report.strong:
            strong_seen += 1
        else:
            nonstrong_seen += 1
    if strong_seen == 0 or nonstrong_seen == 0:
        failures.append("suite does not mix strong and non-strong instances")
    return VerificationResult(
        "prop-2.4", not failures, len(instances), failures,
        {"strong": strong_seen, "non_strong": nonstrong_seen},
    )


def _lattice_certificates(table: idem.PeirceTable) -> list[tuple[int, int, str, bool, str | None]]:
    """(i, j, side, ok, failure) of every certificate on a strong set, none
    on a set that is not strong."""
    if not idem.strong_condition_report(table).strong:
        return []
    k = table.size
    out = []
    for i in range(k):
        for j in range(k):
            if table.components[i][j].is_zero():
                continue
            for side in ("left", "right"):
                cert = idem.corner_lattice_correspondence(table, i, j, side)
                out.append((i, j, side, cert.ok, cert.failure))
    return out


def verify_prop_lattice(seed: int | None = None) -> VerificationResult:
    """Corner-ideal/submodule poset isomorphism on every strong instance and
    every nonzero component, both sides.  The suite's instances on one set
    share its held table, and each table is certified once."""
    instances = corpus.generate_suite("prop-2.4", seed)
    failures = []
    checked = 0
    certificates: dict[idem.PeirceTable, list] = {}
    for inst in instances:
        table = inst.table
        if table not in certificates:
            certificates[table] = _lattice_certificates(table)
        for i, j, side, ok, failure in certificates[table]:
            checked += 1
            if not ok:
                failures.append(
                    f"{inst.name}: ({i},{j},{side}) failed ({failure or 'map or order mismatch'})"
                )
    return VerificationResult("prop-lattice", not failures, checked, failures)


def verify_prop_32(seed: int | None = None) -> VerificationResult:
    instances = corpus.generate_suite("prop-3.2", seed)
    failures = []
    for inst in instances:
        if not cat.homset_strong_report(inst.category).agree:
            failures.append(f"{inst.name}: verdicts disagree")
    return VerificationResult("prop-3.2", not failures, len(instances), failures)


def verify_groupoid_homset(seed: int | None = None) -> VerificationResult:
    instances = corpus.generate_suite("groupoids", seed)
    failures = []
    for inst in instances:
        if not cat.is_groupoid(inst.category).is_groupoid:
            failures.append(f"{inst.name}: generator emitted a non-groupoid")
            continue
        report = cat.homset_strong_report(inst.category)
        if not (report.strong and report.agree):
            failures.append(f"{inst.name}: groupoid fails hom-set strength")
    return VerificationResult("groupoid-homset", not failures, len(instances), failures)


def verify_mx_family(seed: int | None = None) -> VerificationResult:
    instances = corpus.generate_suite("mx-family", seed)
    failures = []
    for inst in instances:
        report = cat.homset_strong_report(inst.category)
        if not (report.strong and report.agree):
            failures.append(f"{inst.name}: not hom-set strong")
        gcheck = cat.is_groupoid(inst.category)
        if gcheck.is_groupoid != inst.monoid_is_group:
            failures.append(
                f"{inst.name}: groupoid={gcheck.is_groupoid} but group table={inst.monoid_is_group}"
            )
    return VerificationResult("mx-family", not failures, len(instances), failures)


def verify_prop_53(seed: int | None = None) -> VerificationResult:
    """Construction claims for every suite algebra: validated associativity,
    strongly graded, object unital."""
    instances = corpus.generate_suite("prop-5.3", seed)
    failures = []
    for inst in instances:
        alg = inst.algebra
        if not gr.strongly_graded_check(alg.grading):
            failures.append(f"{inst.name}: not strongly graded")
        if not gr.object_unital_check(alg.grading).object_unital:
            failures.append(f"{inst.name}: not object unital")
    return VerificationResult("prop-5.3", not failures, len(instances), failures)


def verify_strong_equivalence(seed: int | None = None) -> VerificationResult:
    """Strong canonical idempotents iff hom-set strong category, on every
    suite algebra; when both hold the graded-level report must also pass."""
    instances = corpus.generate_suite("prop-5.3", seed)
    failures = []
    for inst in instances:
        record = sk.strong_idempotent_equivalence_check(inst.algebra)
        if not record.agree:
            failures.append(
                f"{inst.name}: idempotent side {record.idempotents_strong} vs "
                f"category side {record.category_homset_strong}"
            )
        elif record.idempotents_strong and record.graded_report_ok is not True:
            failures.append(f"{inst.name}: graded-level report failed")
    return VerificationResult("strong-equivalence", not failures, len(instances), failures)


def verify_corner_identity(seed: int | None = None) -> VerificationResult:
    """The sandwich law (unit at a) S (unit at b) = S over hom(a, b) on every
    object unital grading in the grading suite."""
    instances = corpus.generate_suite("gradings", seed)
    failures = []
    checked = 0
    for inst in instances:
        ou = gr.object_unital_check(inst.grading)
        if not ou.object_unital:
            continue
        checked += 1
        ok, witness = gr.corner_identity_check(inst.grading)
        if not ok:
            failures.append(f"{inst.name}: sandwich law fails at {witness}")
    return VerificationResult("corner-identity", not failures, checked, failures)


EXPECTED_FIXTURE_COUNTS = {
    # (name, side): (lattice size, height); frozen from the brute-force
    # subgroup oracle and re-derived by it on every run
    ("matrix2_z2", "left"): (5, 2),
    ("triangular2_z2", "left"): (7, 3),
    ("group_algebra_c2_z2", "left"): (3, 2),
}


def verify_fixture_counts(seed: int | None = None) -> VerificationResult:
    """Exact lattice counts on three prop-2.4 suite rings, against both the
    frozen values and a fresh run of the independent subgroup oracle."""
    suite = {inst.name: inst for inst in corpus.generate_suite("prop-2.4", seed)}
    fixtures = {
        "matrix2_z2": suite["matrix2_z2"].ring,
        "triangular2_z2": suite["arrow_algebra_z2"].ring,
        "group_algebra_c2_z2": suite["c2_algebra_z2"].ring,
    }
    failures = []
    checked = 0
    details = {}
    for (name, side), (size, height) in EXPECTED_FIXTURE_COUNTS.items():
        ring = fixtures[name]
        lattice = fr.enumerate_one_sided_ideals(ring, side)
        oracle_size, oracle_height = brute_force_one_sided_ideal_count(ring, side)
        checked += 1
        details[name] = {
            "lattice": (lattice.size, lattice.height),
            "oracle": (oracle_size, oracle_height),
        }
        if (lattice.size, lattice.height) != (oracle_size, oracle_height):
            failures.append(
                f"{name}/{side}: enumeration {(lattice.size, lattice.height)} "
                f"!= oracle {(oracle_size, oracle_height)}"
            )
        if (lattice.size, lattice.height) != (size, height):
            failures.append(
                f"{name}/{side}: got {(lattice.size, lattice.height)}, frozen {(size, height)}"
            )
    table = suite["matrix2_z2"].table  # the held table of its set {E11, E22}
    checked += 1
    corners = [table.component(i, i) for i in range(table.iset.size)]
    if any(idem.ideal_lattice_shape(c, side)[0] != 2 for c in corners for side in ("left", "right")):
        failures.append("matrix2_z2 corners do not have size-2 lattices")
    return VerificationResult("fixture-counts", not failures, checked, failures, details)


def verify_matrix_units_iso(seed: int | None = None) -> VerificationResult:
    """Pair-groupoid algebra constants match the matrix-unit ring exactly
    under the stated relabeling, over Z/2 and Z/3.  The algebras are the
    held prop-5.3 suite's pair_z2 and pair_z3, the same at every seed."""
    failures = []
    pairs = {inst.name: inst.algebra for inst in corpus.generate_suite("prop-5.3")}
    for m in (2, 3):
        algebra = pairs[f"pair_z{m}"]
        target = corpus.matrix_units_ring(m, 2)
        # morphism (x, y), the arrow y -> x, carries basis label E_{(x+1)(y+1)};
        # lexicographic morphism order lines up with the matrix-unit order,
        # so the relabeling is the identity permutation on indices
        if algebra.ring.constants != target.constants:
            failures.append(f"modulus {m}: structure constants differ")
    return VerificationResult("matrix-units-iso", not failures, 2, failures)


def verify_mutation_matrix(seed: int | None = None) -> VerificationResult:
    cases = corpus.mutation_matrix()
    failures = []
    for name, case in cases:
        try:
            case.revalidate()
            failures.append(f"{name}: mutant was accepted")
        except Exception as exc:  # noqa: BLE001 - verifying exact class
            if type(exc) is not case.expected_error:
                failures.append(
                    f"{name}: raised {type(exc).__name__}, expected {case.expected_error.__name__}"
                )
    return VerificationResult("mutation-matrix", not failures, len(cases), failures)


PROP_CHECKS = {
    "prop-2.4": verify_prop_24,
    "prop-lattice": verify_prop_lattice,
    "prop-3.2": verify_prop_32,
    "groupoid-homset": verify_groupoid_homset,
    "mx-family": verify_mx_family,
    "prop-5.3": verify_prop_53,
    "strong-equivalence": verify_strong_equivalence,
    "corner-identity": verify_corner_identity,
    "fixture-counts": verify_fixture_counts,
    "matrix-units-iso": verify_matrix_units_iso,
    "mutation-matrix": verify_mutation_matrix,
}


def run_check(name: str, seed: int | None = None) -> VerificationResult:
    if name not in PROP_CHECKS:
        raise UnknownSuite(name, PROP_CHECKS)
    return PROP_CHECKS[name](seed)
