"""Known answers, workload definitions and the per-layer metric list.

Stdlib only: the parent harness imports this without importing ringbench.
Expected verdicts, counts and exit codes come from how an input was built,
never from running the checker on it, so a wrong verdict shows as a failure.
Output digests were recorded once, from outputs that already matched them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Suite seeds a run may use.  ``--seed n`` picks from this pool, so every seed
# the harness can be given maps to suites whose CLI output digests are
# recorded in digests.json.  All eleven drivers pass at each of these with the
# checked counts below.
SUITE_SEEDS = (1729, 1, 2, 3, 4, 5, 6, 7)

# Acceptance order, as tests/test_acceptance.py runs the criteria.
ACCEPTANCE_DRIVERS = (
    "prop-2.4",
    "prop-lattice",
    "fixture-counts",
    "prop-3.2",
    "groupoid-homset",
    "mx-family",
    "prop-5.3",
    "strong-equivalence",
    "corner-identity",
    "matrix-units-iso",
    "mutation-matrix",
)

# The drivers that never enumerate an ideal lattice.
STRENGTH_DRIVERS = tuple(
    d for d in ACCEPTANCE_DRIVERS if d not in ("prop-lattice", "fixture-counts")
)
STRENGTH_SEEDS_PER_REP = 4

# Checked count each driver reports: the suite length for the suite-backed
# drivers, 700 corner certificates for prop-lattice (350 nonzero components
# of strong instances, both sides), the 34 object-unital gradings for
# corner-identity, 3 lattices plus one chain profile for fixture-counts.
# The same at every seed in SUITE_SEEDS.
EXPECTED_CHECKED = {
    "prop-2.4": 250,
    "prop-lattice": 700,
    "fixture-counts": 4,
    "prop-3.2": 503,
    "groupoid-homset": 110,
    "mx-family": 15,
    "prop-5.3": 28,
    "strong-equivalence": 28,
    "corner-identity": 34,
    "matrix-units-iso": 2,
    "mutation-matrix": 15,
}

WORKLOADS = ("acceptance", "strength", "cli")

# (size, height) of the left ideal lattice of each fixture ring, frozen from
# the brute-force subgroup oracle.
FIXTURE_LATTICES = {
    "matrix2_z2": (5, 2),
    "triangular2_z2": (7, 3),
    "group_algebra_c2_z2": (3, 2),
}


def suite_seed(seed: int) -> int:
    return SUITE_SEEDS[seed % len(SUITE_SEEDS)]


def strength_seeds(seed: int) -> list[int]:
    return [suite_seed(seed + i) for i in range(STRENGTH_SEEDS_PER_REP)]


def check_driver(op: dict) -> str | None:
    """Why a driver result misses its known answer, or None when it matches.

    ``op`` is one entry of a child's ``ops`` list: name, ok, checked, error.
    """
    if op.get("error"):
        return f"{op['name']}: raised {op['error']}"
    if op["ok"] is not True:
        return f"{op['name']}: FAIL"
    want = EXPECTED_CHECKED[op["name"]]
    if op["checked"] != want:
        return f"{op['name']}: checked {op['checked']}, expected {want}"
    return None


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def check_answer(cmd: dict, code: int, out: bytes) -> str | None:
    """Why one CLI command misses its known answer, or None when it matches.

    ``cmd`` is a manifest entry: label, argv, expect_exit and optional
    expect_error (error type) or expect_lattice ([size, height]).
    """
    label = cmd["label"]
    if code != cmd["expect_exit"]:
        return f"{label}: exit {code}, expected {cmd['expect_exit']}"
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    if not isinstance(report, dict):
        return f"{label}: stdout is not one JSON report"
    if "expect_error" in cmd:
        got = report.get("error", {}).get("type")
        if got != cmd["expect_error"]:
            return f"{label}: error {got}, expected {cmd['expect_error']}"
    if "expect_lattice" in cmd:
        got = [report.get("size"), report.get("height")]
        if got != cmd["expect_lattice"]:
            return f"{label}: lattice {got}, expected {cmd['expect_lattice']}"
    return None


def check_command(cmd: dict, code: int, out: bytes, digests: dict) -> str | None:
    """check_answer, plus the ``--no-timings`` stdout against ``digests``
    (label -> sha256 recorded at the commit that defined the benchmark)."""
    reason = check_answer(cmd, code, out)
    if reason is not None:
        return reason
    want = digests.get(cmd["label"])
    if want is None:
        return f"{cmd['label']}: no recorded digest"
    if hashlib.sha256(out).hexdigest() != want:
        return f"{cmd['label']}: output bytes differ from the recorded digest"
    return None


# Per-layer metrics of a traced run: (name, unit, better).  Layers are named
# by module.  Every one is reported on every workload, 0 where a layer idles.
def _timed(prefix: str) -> list[tuple[str, str, str]]:
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]


PER_LAYER = [
    ("howell.calls", "count", "lower"),
    ("howell.rows", "count", "lower"),
    ("howell.self_s", "s", "lower"),
    *_timed("finring.span"),
    ("finring.join.calls", "count", "lower"),
    ("finring.join.useful_ratio", "ratio", "higher"),
    *_timed("finring.contains"),
    ("finring.le.calls", "count", "lower"),
    *_timed("finring.product_subgroup"),
    *_timed("finring.make_ring"),
    *_timed("finring.corner_ring"),
    *_timed("finring.find_identity"),
    *_timed("finring.mul_vec"),
    *_timed("finring.lattice"),
    ("finring.lattice.elements_scanned", "count", "lower"),
    ("finring.lattice.distinct_ratio", "ratio", "higher"),
    *_timed("posets.order_matrix"),
    ("posets.order_matrix.pairs", "count", "lower"),
    *_timed("idempotents.validate"),
    *_timed("idempotents.peirce"),
    *_timed("idempotents.strength"),
    *_timed("idempotents.certificate"),
    *_timed("smallcat.homset_strong"),
    *_timed("smallcat.groupoid"),
    *_timed("graded.object_unital"),
    *_timed("graded.strongly_graded"),
    *_timed("graded.homset_report"),
    *_timed("graded.corner_identity"),
    *_timed("skewalg.build"),
    *_timed("skewalg.strong_equivalence"),
    *_timed("corpus.suite"),
    *[(f"verify.{d}.s", "s", "lower") for d in ACCEPTANCE_DRIVERS],
    *_timed("cli.parse"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Metrics that count work rather than time it: two traced runs at one seed
# must report them identically.
EXACT_METRICS = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit == "count" or name.endswith(("useful_ratio", "distinct_ratio"))
)
