"""Outside-in tracing of ringbench's layers.

Wraps each traced function in a span that counts calls and accumulates self
time (the span's duration minus the time its child spans cover).  A function
is rebound under every name that refers to it in every ringbench module,
because modules bind helpers by name (``from .finring import
product_subgroup``) and wrapping only the defining module would miss those
calls.  Methods are wrapped on their classes.  Nothing inside the program
changes; install() must run after ringbench and its submodules are imported.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

# (span name, module, class or None, attribute).  Several entries may share a
# span name; their calls and self times add up.
SPANS = [
    ("howell", "ringbench.howell", None, "howell_complete"),
    ("finring.span", "ringbench.finring", "FiniteRing", "span"),
    ("finring.join", "ringbench.finring", "AdditiveSubgroup", "join"),
    ("finring.contains", "ringbench.finring", "AdditiveSubgroup", "contains"),
    ("finring.le", "ringbench.finring", "AdditiveSubgroup", "__le__"),
    ("finring.product_subgroup", "ringbench.finring", None, "product_subgroup"),
    # every validated ring (make_ring, corners, skew algebras) is built here
    ("finring.make_ring", "ringbench.finring", None, "_build_ring"),
    ("finring.corner_ring", "ringbench.finring", None, "corner_ring"),
    ("finring.find_identity", "ringbench.finring", None, "find_identity"),
    ("finring.mul_vec", "ringbench.finring", "FiniteRing", "mul_vec"),
    ("finring.lattice", "ringbench.finring", None, "enumerate_one_sided_ideals"),
    ("posets.order_matrix", "ringbench.posets", None, "strict_order_matrix"),
    ("idempotents.validate", "ringbench.idempotents", None, "validate_complete_set"),
    ("idempotents.peirce", "ringbench.idempotents", None, "peirce_table"),
    ("idempotents.strength", "ringbench.idempotents", None, "strong_condition_report"),
    ("idempotents.strength", "ringbench.idempotents", None, "is_strong"),
    ("idempotents.certificate", "ringbench.idempotents", None, "corner_lattice_correspondence"),
    ("smallcat.homset_strong", "ringbench.smallcat", None, "homset_strong_report"),
    ("smallcat.groupoid", "ringbench.smallcat", None, "is_groupoid"),
    ("graded.object_unital", "ringbench.graded", None, "object_unital_check"),
    ("graded.strongly_graded", "ringbench.graded", None, "strongly_graded_check"),
    ("graded.homset_report", "ringbench.graded", None, "homset_strongly_graded_report"),
    ("graded.corner_identity", "ringbench.graded", None, "corner_identity_check"),
    # build_category_algebra reaches build_skew_algebra through its global
    ("skewalg.build", "ringbench.skewalg", None, "build_skew_algebra"),
    ("skewalg.strong_equivalence", "ringbench.skewalg", None, "strong_idempotent_equivalence_check"),
    ("corpus.suite", "ringbench.corpus", None, "generate_suite"),
    ("cli.parse", "ringbench.cli", None, "parse_ring_file"),
    ("cli.parse", "ringbench.cli", None, "parse_idempotent_file"),
    ("cli.parse", "ringbench.cli", None, "parse_category_file"),
    ("cli.parse", "ringbench.cli", None, "parse_grading_file"),
    ("cli.parse", "ringbench.cli", None, "parse_system_file"),
    ("cli.emit", "ringbench.cli", "Reporter", "emit"),
    ("cli.emit", "ringbench.cli", None, "_emit_error"),
]

# Join-closure enumerations: the joins made inside one are scored for the
# join useful ratio.  _submodules is the second copy of the closure loop.
ENUMERATIONS = [
    ("ringbench.finring", "enumerate_one_sided_ideals"),
    ("ringbench.idempotents", "_submodules"),
]


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ringbench" or name.startswith("ringbench."))]


def rebind(original, replacement) -> None:
    """Replace every module-level name bound to ``original``."""
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def bindings_of(original) -> list[str]:
    """Every module global and class attribute still bound to ``original``."""
    found = []
    for mod in _modules():
        for name, value in vars(mod).items():
            if value is original:
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if member is original:
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Span and counter recorder.  Counts repeat exactly from run to run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.lattice_keys: set[str] = set()
        self._stack: list[float] = []  # child time covered, per open span
        self._scopes: list[list] = []  # [joins, set of result keys], per enumeration
        self.originals: list = []

    def _span(self, name, fn, before=None, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def _scope(self, fn):
        scopes, counts = self._scopes, self.counts

        def wrapper(*args, **kwargs):
            scopes.append([0, set()])
            try:
                return fn(*args, **kwargs)
            finally:
                joins, keys = scopes.pop()
                counts["join.scoped"] += joins
                counts["join.distinct"] += len(keys)

        return wrapper

    # per-layer counters beyond calls ----------------------------------------

    def _howell_rows(self, args, kwargs):
        self.counts["howell.rows"] += len(args[0])

    def _lattice(self, args, kwargs):
        ring = args[0]
        side = args[1] if len(args) > 1 else kwargs["side"]
        self.counts["finring.lattice.elements_scanned"] += ring.order
        key = f"{ring.modulus}|{ring.rank}|{side}|".encode() + ring.sc.tobytes()
        self.lattice_keys.add(hashlib.sha1(key).hexdigest())

    def _order_pairs(self, args, kwargs):
        count = args[0]
        self.counts["posets.order_matrix.pairs"] += count * (count - 1)

    def _join_result(self, result):
        if self._scopes:
            scope = self._scopes[-1]
            scope[0] += 1
            scope[1].add(result.key)

    def install(self) -> None:
        before = {
            "howell": self._howell_rows,
            "finring.lattice": self._lattice,
            "posets.order_matrix": self._order_pairs,
        }
        after = {"finring.join": self._join_result}
        # scopes first: the lattice span then wraps the scoped function
        for modname, attr in ENUMERATIONS:
            original = getattr(sys.modules[modname], attr)
            rebind(original, self._scope(original))
            self.originals.append(original)
        for name, modname, clsname, attr in SPANS:
            owner = sys.modules[modname]
            if clsname is not None:
                owner = getattr(owner, clsname)
            original = getattr(owner, attr)
            wrapper = self._span(name, original, before.get(name), after.get(name))
            if clsname is not None:
                setattr(owner, attr, wrapper)
            else:
                rebind(original, wrapper)
            if original not in self.originals:
                self.originals.append(original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "lattice_keys": sorted(self.lattice_keys),
        }
