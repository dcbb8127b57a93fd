"""Command line interface: file ingestion, subcommand dispatch, JSON reports.

Input files are UTF-8 text (any other byte, or a NUL byte in a path, is a
ParseError at its line and column).  Input formats are whitespace-insensitive
token streams with ``#`` line comments; all integers are decimal.  Each
declaration is given at most once: a second ``compose g h``, ``component g``,
``object a`` or ``map g`` for the same index is a ParseError at the repeated
keyword.  The schemas:

Ring file::

    modulus 2
    rank 4
    labels E11 E12 E21 E22      # optional, exactly rank names
    constants
    <rank^3 residues, row-major over (i, j, k)>

Idempotent-set file::

    ring <path relative to this file>
    idempotent <rank residues>   # one line per candidate

Category file (composition entries may appear in any order, each pair at
most once; omitted pairs mean undefined)::

    objects 2
    morphisms 3
    arrow 0 0      # one per morphism: dom cod
    arrow 1 1
    arrow 0 1
    identity 0 1   # one identity morphism index per object
    compose 2 0 2  # g h gh
    ...

Grading file::

    ring <path>
    category <path>
    component <morphism> <generator count>   # omitted: the zero subgroup
    <generator count rows of rank residues>
    ...

System file::

    category <path>
    object <index> ring <path>   # one per object; one parse per path
    map <morphism>               # one per morphism
    <rank x rank residues, row-major>
    ...

Integers up to Python's digit limit for integer strings (4,300 digits by
default) are read as exact residues modulo the ring's modulus; a longer one
is a ParseError of its own at its line and column, and no message quotes
more than a short prefix of a token.  These are rejected as bad input
before the work they would bound: a modulus of more than
finring.MAX_MODULUS_BITS (256) bits (ModulusTooLarge) as soon as it is
read; a rank above finring.MAX_RANK (RankTooLarge) before the constants
are read; a ring whose associativity check would take more
than finring.MAX_ASSOCIATIVITY_WORK steps (WorkTooLarge) before the check
runs; a category file's morphism count above smallcat.MAX_MORPHISMS
(CategoryTooLarge) before its arrows are read; a skew algebra rank, the sum
over morphisms g of the rank of the ring at cod(g), above finring.MAX_RANK
(RankTooLarge) before a system file's maps are read.  A lattice enumeration
stops past finring.MAX_LATTICE_WORK steps (LatticeTooLarge), counted as it
scans elements and before each round of joins.

Every invocation prints one JSON report to standard output (suppress the
timings block with --no-timings for byte-identical reruns).  Exit codes:
0 all verdicts positive, 1 a checked property is false, 2 malformed input,
a validation error or a bad command line (UsageError), or an unreadable
file (reported under its OSError class, such as FileNotFoundError), 3 an
internal invariant failed (InvariantViolation, a defect in the workbench,
reported as an error report).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    CategoryTooLarge,
    InvariantViolation,
    ModulusTooLarge,
    ParseError,
    RankTooLarge,
    ShapeMismatch,
    UsageError,
    WorkbenchError,
    cut,
    sha256,
)

# Each parser and handler imports the library modules it uses, so that a
# command runs only its own (check-ring never runs the suite generator);
# these names serve the annotations alone.
if TYPE_CHECKING:
    from . import finring as fr
    from . import graded as gr
    from . import skewalg as sk
    from . import smallcat as cat

LIBRARY_MODULES = (
    "corpus", "finring", "graded", "howell", "idempotents", "posets",
    "skewalg", "smallcat", "strength", "verify",
)


def _register_library() -> None:
    """Put every library module in sys.modules, as an eager import of them
    all would, but run none: each module's code runs on its first attribute
    access or import.  Tools that look modules up by name after importing
    cli, such as a tracer that rebinds library functions, find them all.
    The package gets no attribute here: its __getattr__ runs a registered
    module when ``from . import name`` or ``ringbench.name`` asks for it."""
    for name in LIBRARY_MODULES:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)


_register_library()


# ---------------------------------------------------------------------------
# tokenizer


class TokenStream:
    """The token texts of one input file, read as UTF-8 text.  A token is
    known by its index; ``error`` works out its line and column."""

    def __init__(self, path: Path):
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the sentinel stands for the bad byte: the last line is its line
            lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
            raise ParseError(f"{path} is not UTF-8 text", len(lines), len(lines[-1])) from None
        self.parent = path.parent
        self.bodies = [raw.split("#", 1)[0] for raw in text.splitlines()]
        self.texts = [piece for body in self.bodies for piece in body.split()]
        self.pos = 0

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the line and column of token ``index``: the last
        token when ``index`` is past the end, (1, 1) in a file without one."""
        index = min(index, len(self.texts) - 1)
        for ln, body in enumerate(self.bodies, start=1):
            pieces = body.split()
            if 0 <= index < len(pieces):
                # each piece starts at its first occurrence past the one before
                end = 0
                for piece in pieces[: index + 1]:
                    start = body.index(piece, end)
                    end = start + len(piece)
                return ParseError(message, ln, start + 1)
            index -= len(pieces)
        return ParseError(message, 1, 1)

    def peek(self) -> str | None:
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def next(self, what: str) -> str:
        if self.pos >= len(self.texts):
            raise self.error(f"unexpected end of file, expected {what}", self.pos)
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, keyword: str) -> int:
        """Reads ``keyword``; returns its index, for an error at it."""
        text = self.next(f"keyword {keyword!r}")
        if text != keyword:
            raise self.error(f"expected {keyword!r}, found {cut(text)!r}", self.pos - 1)
        return self.pos - 1

    def not_an_integer(self, what: str, index: int) -> ParseError:
        """The error for token ``index``, which int() refused: either more
        digits than Python converts, or not an integer at all."""
        text = self.texts[index]
        digits = text[1:] if text[0] in "+-" else text
        if digits.isdecimal():  # int() reads every such text up to the limit
            return self.error(f"integer of {len(digits)} digits exceeds the "
                              f"{sys.get_int_max_str_digits()}-digit limit", index)
        return self.error(f"expected integer {what}, found {cut(text)!r}", index)

    def integer(self, what: str) -> int:
        text = self.next(what)
        try:
            return int(text)
        except ValueError:
            raise self.not_an_integer(what, self.pos - 1) from None

    def integers(self, what: str, count: int) -> list[int]:
        """The next ``count`` integers; an error names the i-th ``what i``."""
        values: list[int] = []
        for text in self.texts[self.pos : self.pos + count]:
            try:
                values.append(int(text))
            except ValueError:
                raise self.not_an_integer(f"{what} {len(values)}", self.pos + len(values)) from None
        self.pos += len(values)
        if len(values) < count:
            self.next(f"{what} {len(values)}")  # past the last token: raises
        return values

    def integer_in(self, what: str, low: int, high: int) -> int:
        value = self.integer(what)
        if not low <= value < high:
            raise self.error(f"{what} {cut(str(value))} out of range [{low}, {high})", self.pos - 1)
        return value

    def relative_path(self, keyword: str) -> Path:
        """Reads ``<keyword> <path>``; the path is relative to this file."""
        self.expect(keyword)
        text = self.next(f"{keyword} path")
        if "\0" in text:  # no file system takes it
            raise self.error(f"{keyword} path contains a NUL byte", self.pos - 1)
        return self.parent / text

    def done(self) -> bool:
        return self.pos >= len(self.texts)


# ---------------------------------------------------------------------------
# parsers


def parse_ring_file(path: str | Path) -> fr.FiniteRing:
    from . import finring as fr

    ts = TokenStream(Path(path))
    ts.expect("modulus")
    modulus = ts.integer("modulus")
    if modulus.bit_length() > fr.MAX_MODULUS_BITS:
        raise ModulusTooLarge(modulus.bit_length(), fr.MAX_MODULUS_BITS)
    ts.expect("rank")
    rank = ts.integer_in("rank", 1, math.inf)
    if rank > fr.MAX_RANK:
        raise RankTooLarge(rank, fr.MAX_RANK)
    labels = None
    if ts.peek() == "labels":
        ts.expect("labels")
        labels = [ts.next(f"label {i}") for i in range(rank)]
    ts.expect("constants")
    flat = ts.integers("constant", rank * rank * rank)
    if not ts.done():
        raise ts.error(f"trailing input {cut(ts.peek())!r}", ts.pos)
    # Python ints of any size: make_ring reduces them exactly
    cells = [flat[k : k + rank] for k in range(0, len(flat), rank)]
    sc = [cells[i * rank : (i + 1) * rank] for i in range(rank)]
    return fr.make_ring(modulus, rank, sc, labels)


def parse_idempotent_file(path: str | Path) -> tuple[fr.FiniteRing, list[fr.RingElement]]:
    ts = TokenStream(Path(path))
    ring = parse_ring_file(ts.relative_path("ring"))
    elements = []
    while not ts.done():
        ts.expect("idempotent")
        coords = ts.integers("coordinate", ring.rank)
        elements.append(ring.element(coords))
    return ring, elements


def parse_category_file(path: str | Path) -> cat.SmallCategory:
    from . import smallcat as cat

    ts = TokenStream(Path(path))
    ts.expect("objects")
    p = ts.integer("object count")
    ts.expect("morphisms")
    q = ts.integer_in("morphism count", 0, math.inf)
    if q > cat.MAX_MORPHISMS:
        raise CategoryTooLarge(q, cat.MAX_MORPHISMS)
    dom, cod = [], []
    for g in range(q):
        ts.expect("arrow")
        dom.append(ts.integer_in(f"dom of morphism {g}", 0, p))
        cod.append(ts.integer_in(f"cod of morphism {g}", 0, p))
    ts.expect("identity")
    identity = [ts.integer_in(f"identity of object {a}", 0, q) for a in range(p)]
    table = [[cat.UNDEFINED] * q for _ in range(q)]
    while not ts.done():
        at = ts.expect("compose")
        g = ts.integer_in("composition row", 0, q)
        h = ts.integer_in("composition column", 0, q)
        if table[g][h] != cat.UNDEFINED:
            raise ts.error(f"composite of ({g}, {h}) given twice", at)
        table[g][h] = ts.integer_in("composite", 0, q)
    return cat.make_category(p, dom, cod, identity, table)


def parse_grading_file(path: str | Path) -> gr.Grading:
    from . import graded as gr

    ts = TokenStream(Path(path))
    ring = parse_ring_file(ts.relative_path("ring"))
    category = parse_category_file(ts.relative_path("category"))
    components: list[fr.AdditiveSubgroup | None] = [None] * category.morphism_count
    while not ts.done():
        at = ts.expect("component")
        g = ts.integer_in("morphism index", 0, category.morphism_count)
        if components[g] is not None:
            raise ts.error(f"component {g} given twice", at)
        count = ts.integer_in("generator count", 0, math.inf)
        rows = []
        for r in range(count):
            rows.append(ts.integers("coordinate", ring.rank))
        components[g] = ring.span(rows)
    components = [ring.zero_subgroup() if c is None else c for c in components]
    return gr.attach_grading(ring, category, components)


def parse_system_file(path: str | Path) -> sk.SkewCategorySystem:
    from . import skewalg as sk

    ts = TokenStream(Path(path))
    category = parse_category_file(ts.relative_path("category"))
    rings: list[fr.FiniteRing | None] = [None] * category.object_count
    parsed: dict[Path, fr.FiniteRing] = {}  # objects that name one file share its ring
    while ts.peek() == "object":
        at = ts.expect("object")
        a = ts.integer_in("object index", 0, category.object_count)
        if rings[a] is not None:
            raise ts.error(f"object {a} given twice", at)
        path = ts.relative_path("ring")
        if path not in parsed:
            parsed[path] = parse_ring_file(path)
        rings[a] = parsed[path]
    missing = [a for a, ring in enumerate(rings) if ring is None]
    if missing:
        raise ParseError(f"object rings missing for objects {missing}", 1, 1)
    sk.algebra_rank(category, rings)  # refused before any map is read
    maps: list[list[list[int]] | None] = [None] * category.morphism_count
    while not ts.done():
        at = ts.expect("map")
        g = ts.integer_in("morphism index", 0, category.morphism_count)
        if maps[g] is not None:
            raise ts.error(f"map {g} given twice", at)
        nd = rings[category.dom[g]].rank
        nc = rings[category.cod[g]].rank
        flat = ts.integers("entry", nd * nc)
        maps[g] = [flat[r * nc : (r + 1) * nc] for r in range(nd)]
    missing = [g for g, rows in enumerate(maps) if rows is None]
    if missing:
        raise ShapeMismatch(f"morphism maps missing for indices {missing}")
    return sk.validate_system(category, rings, maps)


# ---------------------------------------------------------------------------
# reports


def _digest(path: str | Path) -> dict:
    data = Path(path).read_bytes()
    return {"path": str(path), "sha256": sha256(data).hexdigest()}


class Reporter:
    def __init__(self, command: str, quiet: bool, no_timings: bool):
        self.report: dict = {
            "command": command,
            "tool": {"name": "ringbench", "version": __version__},
            "inputs": [],
            "verdicts": {},
            "witnesses": [],
        }
        self.quiet = quiet
        self.timings = not no_timings
        self.start = time.perf_counter()

    def add_input(self, path) -> None:
        self.report["inputs"].append(_digest(path))

    def verdict(self, key: str, value) -> None:
        self.report["verdicts"][key] = value

    def witness(self, **fields) -> None:
        self.report["witnesses"].append(fields)

    def info(self, key: str, value) -> None:
        self.report[key] = value

    def emit(self) -> int:
        if self.timings:
            self.report["timings"] = {
                "total_seconds": round(time.perf_counter() - self.start, 6)
            }
        verdicts = self.report["verdicts"]
        ok = all(v is not False for v in verdicts.values())
        if self.quiet:
            for key, value in verdicts.items():
                print(f"{key} {str(value).lower()}")
        else:
            # an order m^rank may pass the interpreter's int-to-string limit,
            # which stays in force for parsing
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                text = json.dumps(self.report, indent=2, default=str)
            finally:
                sys.set_int_max_str_digits(limit)
            print(text)
        return 0 if ok else 1


def _emit_error(command: str, exc: Exception, quiet: bool, code: int = 2) -> int:
    message = str(exc)
    if isinstance(exc, OSError) and exc.filename is not None:
        # the path came from an input file or the command line
        message = message.replace(repr(exc.filename), cut(repr(exc.filename)))
    payload = {
        "command": command,
        "tool": {"name": "ringbench", "version": __version__},
        "error": {"type": type(exc).__name__, "message": message},
    }
    if isinstance(exc, ParseError):
        payload["error"]["line"] = exc.line
        payload["error"]["column"] = exc.column
    if quiet:
        print(f"error {type(exc).__name__}", file=sys.stdout)
    else:
        print(json.dumps(payload, indent=2))
    return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_ring(args, rep: Reporter) -> None:
    from . import finring as fr

    ring = parse_ring_file(args.ring)
    rep.add_input(args.ring)
    rep.verdict("associative", True)
    one = fr.find_identity(ring)
    rep.info("ring", {"modulus": ring.modulus, "rank": ring.rank, "order": ring.order})
    rep.info("unital", one is not None)
    if one is not None:
        rep.info("identity", list(one.coords))


def _cmd_peirce(args, rep: Reporter) -> None:
    from . import idempotents as idem

    ring, candidates = parse_idempotent_file(args.idempotents)
    rep.add_input(args.idempotents)
    iset = idem.validate_complete_set(ring, candidates)
    table = idem.peirce_table(iset)
    rep.verdict("complete_set", True)
    rep.info(
        "component_orders",
        [[sub.order for sub in row] for row in table.components],
    )
    rep.info("corner_orders", [table.component(i, i).order for i in range(table.size)])


def _cmd_check_strong(args, rep: Reporter) -> None:
    from . import idempotents as idem

    ring, candidates = parse_idempotent_file(args.idempotents)
    rep.add_input(args.idempotents)
    iset = idem.validate_complete_set(ring, candidates)
    table = idem.peirce_table(iset)
    report = idem.strong_condition_report(table)
    rep.verdict("condition1", report.condition1)
    rep.verdict("condition2", report.condition2)
    rep.verdict("condition3", report.condition3)
    rep.verdict("agree", report.agree)
    for i, witness in enumerate((report.witness1, report.witness2, report.witness3), 1):
        if witness is not None:
            rep.witness(condition=i, indices=list(witness[0]), reason=witness[1])


def _cmd_ideal_lattice(args, rep: Reporter) -> None:
    from . import finring as fr

    ring = parse_ring_file(args.ring)
    rep.add_input(args.ring)
    lattice = fr.enumerate_one_sided_ideals(ring, args.side)
    rep.verdict("enumerated", True)
    rep.info("size", lattice.size)
    rep.info("height", lattice.height)
    rep.info("ideal_orders", [i.order for i in lattice.ideals])
    rep.info("cover_relation", [list(row) for row in lattice.cover_relation])


def _cmd_check_category(args, rep: Reporter) -> None:
    from . import smallcat as cat

    category = parse_category_file(args.category)
    rep.add_input(args.category)
    rep.verdict("valid", True)
    report = cat.homset_strong_report(category)
    rep.verdict("agree", report.agree)
    rep.info("homset_strong", report.strong)
    gcheck = cat.is_groupoid(category)
    rep.info("groupoid", gcheck.is_groupoid)
    fin = cat.finiteness_report(category)
    rep.info(
        "finiteness",
        {
            "objects": fin.object_count,
            "morphisms": fin.morphism_count,
            "endo_sizes": list(fin.endo_sizes),
            "bound_satisfied": fin.bound_satisfied,
        },
    )
    for i, witness in enumerate((report.witness1, report.witness2, report.witness3), 1):
        if witness is not None:
            rep.witness(condition=i, objects=list(witness[0]), reason=witness[1])


def _cmd_build_mx(args, rep: Reporter) -> None:
    from . import corpus
    from . import smallcat as cat

    if args.monoid not in corpus.MONOID_TABLES:  # a command-line argument: no line or column
        known = ", ".join(sorted(corpus.MONOID_TABLES))
        raise UsageError(f"unknown monoid {cut(args.monoid)!r}; known: {known}")
    category = cat.build_MX(corpus.MONOID_TABLES[args.monoid], args.size)
    rep.verdict("valid", True)
    rep.info("objects", category.object_count)
    rep.info("morphisms", category.morphism_count)
    rep.info("homset_strong", cat.homset_strong_report(category).strong)
    rep.info("groupoid", cat.is_groupoid(category).is_groupoid)
    if args.save:
        lines = [
            f"objects {category.object_count}",
            f"morphisms {category.morphism_count}",
        ]
        for g in range(category.morphism_count):
            lines.append(f"arrow {category.dom[g]} {category.cod[g]}")
        lines.append("identity " + " ".join(str(e) for e in category.identity))
        for g, row in enumerate(category.compose.rows):
            for h, gh in enumerate(row):
                if gh != cat.UNDEFINED:
                    lines.append(f"compose {g} {h} {gh}")
        Path(args.save).write_text("\n".join(lines) + "\n")
        rep.info("saved", str(args.save))


def _cmd_check_grading(args, rep: Reporter) -> None:
    from . import graded as gr

    grading = parse_grading_file(args.grading)
    rep.add_input(args.grading)
    rep.verdict("valid", True)
    flags = gr.compute_flags(grading)
    rep.verdict("object_unital", flags.object_unital)
    rep.info("strongly_graded", flags.strongly_graded)
    if flags.object_unital:
        ok, witness = gr.corner_identity_check(grading)
        rep.verdict("corner_identity", ok)
        if witness is not None:
            rep.witness(objects=list(witness[0]), reason="sandwich law fails")
    if flags.homset_strongly_graded is not None:
        rep.verdict("homset_strongly_graded", flags.homset_strongly_graded)
        rep.verdict("conditions_agree", flags.homset_report.agree)


def _cmd_build_skew(args, rep: Reporter) -> None:
    from . import skewalg as sk

    system = parse_system_file(args.system)
    rep.add_input(args.system)
    algebra = sk.build_skew_algebra(system)
    rep.verdict("system_valid", True)
    # build_skew_algebra raises InvariantViolation unless both hold
    rep.verdict("strongly_graded", True)
    rep.verdict("object_unital", True)
    record = sk.strong_idempotent_equivalence_check(algebra)
    rep.verdict("strong_equivalence_agree", record.agree)
    rep.info(
        "algebra",
        {"modulus": algebra.ring.modulus, "rank": algebra.ring.rank, "order": algebra.ring.order},
    )
    rep.info("idempotents_strong", record.idempotents_strong)
    rep.info("category_homset_strong", record.category_homset_strong)


def _env_seed() -> int | None:
    """The suite seed from WORKBENCH_SEED, or None when it is unset."""
    text = os.environ.get("WORKBENCH_SEED")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"WORKBENCH_SEED must be an integer, found {cut(text)!r}") from None


def _cmd_verify_prop(args, rep: Reporter) -> None:
    from . import verify

    result = verify.run_check(args.name, _env_seed())
    rep.verdict(result.name, result.ok)
    rep.info("checked", result.checked)
    for failure in result.failures:
        rep.witness(failure=failure)


def _cmd_gen_suite(args, rep: Reporter) -> None:
    from . import corpus

    instances = corpus.generate_suite(args.name, _env_seed())
    rep.verdict("generated", True)
    rep.info("suite", args.name)
    rep.info("count", len(instances))
    rep.info("instances", [getattr(inst, "name", repr(inst)) for inst in instances])


# ---------------------------------------------------------------------------
# entry point

# sorted(verify.PROP_CHECKS) and corpus.available_suites(), written out so that
# the parser loads neither module; argparse reads choices as each argument is
# added, so they cannot be looked up lazily.  A test pins both copies.
PROP_NAMES = (
    "corner-identity", "fixture-counts", "groupoid-homset", "matrix-units-iso",
    "mutation-matrix", "mx-family", "prop-2.4", "prop-3.2", "prop-5.3",
    "prop-lattice", "strong-equivalence",
)
SUITE_NAMES = ("gradings", "groupoids", "mx-family", "prop-2.4", "prop-3.2", "prop-5.3")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main reports them as JSON with exit 2;
    subcommand parsers are made from this class too."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringbench",
        description="Finite-scale checks for rings with enough idempotents, "
        "category gradings, and skew category algebras.",
    )
    parser.add_argument("--quiet", action="store_true", help="emit verdict lines only")
    parser.add_argument(
        "--no-timings", action="store_true", help="omit the timings block for reproducible output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-ring", help="validate a ring file")
    s.add_argument("ring")
    s.set_defaults(func=_cmd_check_ring)

    s = sub.add_parser("peirce", help="validate an idempotent set and compute its components")
    s.add_argument("idempotents")
    s.set_defaults(func=_cmd_peirce)

    s = sub.add_parser("check-strong", help="evaluate the three strength conditions")
    s.add_argument("idempotents")
    s.set_defaults(func=_cmd_check_strong)

    s = sub.add_parser("ideal-lattice", help="enumerate all one-sided ideals")
    s.add_argument("ring")
    s.add_argument("--side", choices=["left", "right"], default="left")
    s.set_defaults(func=_cmd_ideal_lattice)

    s = sub.add_parser("check-category", help="validate a category file and report its checks")
    s.add_argument("category")
    s.set_defaults(func=_cmd_check_category)

    s = sub.add_parser("build-mx", help="build the monoid-times-square category")
    s.add_argument("monoid", help="named monoid table, e.g. c2 or bool2")
    s.add_argument("size", type=int)
    s.add_argument("--save", help="write the category file here")
    s.set_defaults(func=_cmd_build_mx)

    s = sub.add_parser("check-grading", help="validate a grading file and its predicates")
    s.add_argument("grading")
    s.set_defaults(func=_cmd_check_grading)

    s = sub.add_parser("build-skew", help="validate a system file and build its algebra")
    s.add_argument("system")
    s.set_defaults(func=_cmd_build_skew)

    s = sub.add_parser("verify-prop", help="run one named verification suite")
    s.add_argument("name", choices=PROP_NAMES)
    s.set_defaults(func=_cmd_verify_prop)

    s = sub.add_parser("gen-suite", help="emit a suite manifest")
    s.add_argument("name", choices=SUITE_NAMES)
    s.set_defaults(func=_cmd_gen_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # filled as parsing goes, so a usage error still sees --quiet and the
    # subcommand when they came before it
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
        rep = Reporter(args.command, args.quiet, args.no_timings)
        args.func(args, rep)
        return rep.emit()
    except (WorkbenchError, OSError) as exc:
        return _emit_error(args.command, exc, args.quiet)
    except InvariantViolation as exc:
        return _emit_error(args.command, exc, args.quiet, code=3)


if __name__ == "__main__":
    sys.exit(main())
