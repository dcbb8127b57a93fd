"""End-to-end command line checks: parsing, exit codes, report determinism."""

import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringbench import cli
from ringbench import corpus
from ringbench import finring as fr
from ringbench import graded as gr
from ringbench import skewalg as sk
from ringbench import smallcat as sc
from ringbench import verify
from ringbench.errors import (
    CategoryTooLarge,
    InvariantViolation,
    LatticeTooLarge,
    NotComplete,
    ParseError,
    cut,
)

M2_RING = """\
# 2x2 matrices over Z/2 on matrix units
modulus 2
rank 4
labels E11 E12 E21 E22
constants
1 0 0 0  0 1 0 0  0 0 0 0  0 0 0 0
0 0 0 0  0 0 0 0  1 0 0 0  0 1 0 0
0 0 1 0  0 0 0 1  0 0 0 0  0 0 0 0
0 0 0 0  0 0 0 0  0 0 1 0  0 0 0 1
"""

T2_RING = """\
modulus 2
rank 3
labels E11 E12 E22
constants
1 0 0  0 1 0  0 0 0
0 0 0  0 0 0  0 1 0
0 0 0  0 0 0  0 0 1
"""

# check-category --no-timings on the discrete category with 174 objects,
# recorded before its strength conditions stopped visiting every triple
DISCRETE_CATEGORY_REPORT = "1f9a16f8208ee83d218d134e72899772ac037dbad49b8dd2b38a86310409a372"

# verify-prop --no-timings with an unknown driver name, as printed before the
# parser wrote out the names verify.PROP_CHECKS defines
UNKNOWN_DRIVER_REPORT = """\
{
  "command": "verify-prop",
  "tool": {
    "name": "ringbench",
    "version": "0.1.0"
  },
  "error": {
    "type": "UsageError",
    "message": "argument name: invalid choice: 'nonsense' (choose from 'corner-identity', \
'fixture-counts', 'groupoid-homset', 'matrix-units-iso', 'mutation-matrix', 'mx-family', \
'prop-2.4', 'prop-3.2', 'prop-5.3', 'prop-lattice', 'strong-equivalence')"
  }
}
"""

Z6Z6_RING = """\
modulus 6
rank 2
constants
1 0  0 0
0 0  0 1
"""

# A Morita context over Z/2 on e1, e2, x, y: e1 and e2 are orthogonal
# idempotents, x = e1 x e2 and y = e2 y e1, and every other basis product,
# x y and y x included, is 0.  The off-diagonal products vanish, so each
# strength condition fails at a product rather than at a zero clause.
MORITA_RING = """\
modulus 2
rank 4
labels e1 e2 x y
constants
1 0 0 0  0 0 0 0  0 0 1 0  0 0 0 0
0 0 0 0  0 1 0 0  0 0 0 0  0 0 0 1
0 0 0 0  0 0 1 0  0 0 0 0  0 0 0 0
0 0 0 1  0 0 0 0  0 0 0 0  0 0 0 0
"""

# Two objects with f: 0 -> 1 and g: 1 -> 0 where f g f = f and g f g = g:
# morphisms id0, id1, f, g, e0 = g f and e1 = f g.  The composites through
# the other object give e0 and e1 but never the identities.
SPLIT_CATEGORY = """\
objects 2
morphisms 6
arrow 0 0
arrow 1 1
arrow 0 1
arrow 1 0
arrow 0 0
arrow 1 1
identity 0 1
compose 0 0 0
compose 0 3 3
compose 0 4 4
compose 1 1 1
compose 1 2 2
compose 1 5 5
compose 2 0 2
compose 2 3 5
compose 2 4 2
compose 3 1 3
compose 3 2 4
compose 3 5 3
compose 4 0 4
compose 4 3 3
compose 4 4 4
compose 5 1 5
compose 5 2 2
compose 5 5 5
"""


def _write_inputs(path: Path) -> Path:
    (path / "m2.ring").write_text(M2_RING)
    (path / "t2.ring").write_text(T2_RING)
    (path / "m2_idems.txt").write_text(
        "ring m2.ring\nidempotent 1 0 0 0\nidempotent 0 0 0 1\n"
    )
    (path / "t2_idems.txt").write_text(
        "ring t2.ring\nidempotent 1 0 0\nidempotent 0 0 1\n"
    )
    (path / "z6z6.ring").write_text(Z6Z6_RING)
    # the corner at (3, 1) is Z/2 + Z/6, not free over one modulus
    (path / "z6z6_idems.txt").write_text(
        "ring z6z6.ring\nidempotent 3 1\nidempotent 4 0\n"
    )
    return path


def _write_discrete_system(path: Path, n: int, p: int) -> None:
    """diag.system: the discrete category on p objects, every object naming
    diag48.ring, the diagonal ring (Z/2)^n, and every map the identity."""
    (path / "diag48.ring").write_text(
        f"modulus 2\nrank {n}\nconstants\n"
        + "\n".join(" ".join("01"[i == j == k] for k in range(n)) for i in range(n) for j in range(n))
        + "\n"
    )
    (path / "discrete.cat").write_text(
        "\n".join([f"objects {p}", f"morphisms {p}"] + [f"arrow {a} {a}" for a in range(p)]
                  + ["identity " + " ".join(map(str, range(p)))]
                  + [f"compose {a} {a} {a}" for a in range(p)]) + "\n"
    )
    eye = "\n".join(" ".join("01"[i == j] for j in range(n)) for i in range(n))
    (path / "diag.system").write_text(
        "category discrete.cat\n"
        + "".join(f"object {a} ring diag48.ring\n" for a in range(p))
        + "".join(f"map {a}\n{eye}\n" for a in range(p))
    )

@pytest.fixture
def workdir(tmp_path):
    return _write_inputs(tmp_path)


def _write_zero_ring(path: Path, n: int, m: int = 2) -> None:
    """The zero-multiplication ring of rank n over Z/m."""
    zeros = "  ".join([" ".join(["0"] * n)] * n)
    path.write_text(f"modulus {m}\nrank {n}\nconstants\n" + "\n".join([zeros] * n) + "\n")


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def choices_of(command: str):
    """The choices of ``command``'s one positional argument, ``name``."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    return next(a for a in commands.choices[command]._actions if a.dest == "name").choices


class TestParsers:
    def test_ring_round_trip(self, workdir):
        ring = cli.parse_ring_file(workdir / "m2.ring")
        assert ring.order == 16
        assert ring.basis_labels == ("E11", "E12", "E21", "E22")

    def test_whitespace_insensitivity(self, workdir):
        squashed = " ".join(M2_RING.split("\n")[1:])
        (workdir / "squashed.ring").write_text(squashed + "\n")
        a = cli.parse_ring_file(workdir / "m2.ring")
        b = cli.parse_ring_file(workdir / "squashed.ring")
        assert np.array_equal(a.sc, b.sc)

    def test_truncated_constants(self, workdir):
        (workdir / "bad.ring").write_text("modulus 2\nrank 2\nconstants\n1 0 0\n")
        with pytest.raises(ParseError):
            cli.parse_ring_file(workdir / "bad.ring")

    @pytest.mark.parametrize(
        "name,text,parse,message,line,column",
        [
            (
                "word.ring",
                "modulus 2\nrank 2\nconstants\n1 0 0 0\n0 x 0 1\n",
                cli.parse_ring_file,
                "expected integer constant 5, found 'x'",
                5, 3,
            ),
            (
                "cut.ring",
                "modulus 2\nrank 2\nconstants\n1 0 0 0\n0 0\n",
                cli.parse_ring_file,
                "unexpected end of file, expected constant 6",
                5, 3,
            ),
            (
                "bad.idem",
                "ring m2.ring\nidempotent 1 0 0 0\nidempotent 0 0 1.5 1\n",
                cli.parse_idempotent_file,
                "expected integer coordinate 2, found '1.5'",
                3, 16,
            ),
            (
                "bad.system",
                "category one.cat\nobject 0 ring z3.ring\nmap 0\n  one\n",
                cli.parse_system_file,
                "expected integer entry 0, found 'one'",
                4, 3,
            ),
            # the same text earlier on the line must not be taken for it
            (
                "trailing.ring",
                "modulus 2\nrank 1\nconstants\n1 1\n",
                cli.parse_ring_file,
                "trailing input '1'",
                4, 3,
            ),
            (
                "comments.ring",
                "# header\n\nmodulus 2\n   # rank next\n\nrank x\n",
                cli.parse_ring_file,
                "expected integer rank, found 'x'",
                6, 6,
            ),
            (
                "tabs.ring",
                "modulus\t2\nrank\t2\nconstants\n1\t0\t0\t0\t0\t1\tz\t0\n",
                cli.parse_ring_file,
                "expected integer constant 6, found 'z'",
                4, 13,
            ),
            # at the last token, not on the comment line after it
            (
                "ends.ring",
                "modulus 2\nrank 2\nconstants\n1 0  1\n# the rest is missing\n",
                cli.parse_ring_file,
                "unexpected end of file, expected constant 3",
                4, 6,
            ),
            (
                "map.system",
                "category one.cat\nobject 0 ring z3.ring\nmap 0\n1 map 0\n1\n",
                cli.parse_system_file,
                "map 0 given twice",
                4, 3,
            ),
        ],
    )
    def test_parse_error_message_and_position(
        self, workdir, name, text, parse, message, line, column
    ):
        (workdir / "z3.ring").write_text("modulus 3\nrank 1\nconstants\n1\n")
        (workdir / "one.cat").write_text(
            "objects 1\nmorphisms 1\narrow 0 0\nidentity 0\ncompose 0 0 0\n"
        )
        (workdir / name).write_text(text)
        with pytest.raises(ParseError) as exc:
            parse(workdir / name)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"{message} (line {line}, column {column})", line, column
        )

    def test_tokens_keep_no_positions(self, tmp_path):
        # a token's line and column are worked out only for an error, so
        # the rank-48 ring's 110,597 tokens keep only their texts
        path = tmp_path / "zero.ring"
        _write_zero_ring(path, fr.MAX_RANK)
        tracemalloc.start()
        try:
            ts = cli.TokenStream(path)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not ts.done()
        assert kept < 3 << 20

    def test_dangling_object_index(self, workdir):
        (workdir / "bad.cat").write_text(
            "objects 2\nmorphisms 1\narrow 0 5\nidentity 0 0\n"
        )
        with pytest.raises(ParseError) as exc:
            cli.parse_category_file(workdir / "bad.cat")
        assert exc.value.line == 3

    def test_category_round_trip(self, workdir, capsys):
        code, _ = run(capsys, "--quiet", "build-mx", "bool2", "2", "--save", workdir / "mx.cat")
        assert code == 0
        cat = cli.parse_category_file(workdir / "mx.cat")
        ref = sc.build_MX(corpus.MONOID_TABLES["bool2"], 2)
        assert cat.compose == ref.compose


class TestExitCodes:
    def test_check_ring_ok(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "check-ring", workdir / "m2.ring")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["associative"] is True
        assert report["identity"] == [1, 0, 0, 1]

    def test_check_strong_positive(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "check-strong", workdir / "m2_idems.txt")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {
            "condition1": True,
            "condition2": True,
            "condition3": True,
            "agree": True,
        }

    def test_check_strong_with_non_free_corner(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "check-strong", workdir / "z6z6_idems.txt")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {
            "condition1": True,
            "condition2": True,
            "condition3": True,
            "agree": True,
        }

    def test_check_strong_negative_with_witness(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "check-strong", workdir / "t2_idems.txt")
        assert code == 1
        report = json.loads(out)
        assert report["verdicts"]["condition3"] is False
        witness_pairs = [w["indices"] for w in report["witnesses"] if w["condition"] == 3]
        assert witness_pairs == [[0, 1]]

    def test_malformed_input_exits_two(self, workdir, capsys):
        (workdir / "bad.ring").write_text("modulus 2\nrank 2\nconstants\n1 0 0\n")
        code, out = run(capsys, "check-ring", workdir / "bad.ring")
        assert code == 2
        report = json.loads(out)
        assert report["error"]["type"] == "ParseError"

    def test_semantic_validation_exits_two(self, workdir, capsys):
        (workdir / "bad_idems.txt").write_text(
            "ring m2.ring\nidempotent 1 0 0 0\nidempotent 1 0 0 0\n"
        )
        code, out = run(capsys, "check-strong", workdir / "bad_idems.txt")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotOrthogonal"

    def test_missing_file_exits_two(self, workdir, capsys):
        code, out = run(capsys, "check-ring", workdir / "absent.ring")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    def test_directory_exits_two(self, workdir, capsys):
        code, out = run(capsys, "check-ring", workdir)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "IsADirectoryError"
        assert "line" not in error and "column" not in error

    def test_non_utf8_file_exits_two_at_the_bad_byte(self, workdir, capsys):
        (workdir / "latin1.ring").write_bytes(M2_RING.replace("E22", "E2\xb2").encode("latin-1"))
        (workdir / "latin1_idems.txt").write_text("ring latin1.ring\nidempotent 1 0 0 0\n")
        for command, path in (
            ("check-ring", "latin1.ring"),
            ("check-strong", "latin1_idems.txt"),
        ):
            code, out = run(capsys, command, workdir / path)
            assert code == 2, command
            error = json.loads(out)["error"]
            assert error["type"] == "ParseError", command
            assert (error["line"], error["column"]) == (4, 22), command

    @pytest.mark.skipif(
        not (os.path.exists("/dev/zero") and stat.S_ISCHR(os.stat("/dev/zero").st_mode)),
        reason="/dev/zero is not a character device here",
    )
    def test_endless_file_exits_two_at_the_byte_cap(self, workdir, capsys):
        # once read whole, it ended in a MemoryError traceback with exit 1
        (workdir / "zero_idems.txt").write_text("ring /dev/zero\n")
        for command, path in (("check-ring", "/dev/zero"), ("check-strong", "zero_idems.txt")):
            code, out = run(capsys, "--no-timings", command, workdir / path)
            assert code == 2, command
            assert json.loads(out)["error"] == {
                "type": "ParseError",
                "message": f"/dev/zero exceeds the {cli.MAX_INPUT_BYTES}-byte input cap",
                "line": 0,
                "column": 0,
            }, command

    def test_a_file_one_byte_past_the_cap_exits_two(self, workdir, capsys, monkeypatch):
        path = workdir / "m2.ring"
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", path.stat().st_size)
        code, out = run(capsys, "--no-timings", "check-ring", path)
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert json.loads(out)["inputs"][0]["sha256"] == digest
        path.write_text(M2_RING + "\n")
        code, out = run(capsys, "--no-timings", "check-ring", path)
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"{cut(str(path))} exceeds the {cli.MAX_INPUT_BYTES}-byte input cap"
        )

    def _assert_parse_error_at(self, capsys, command, path, line, column):
        code, out = run(capsys, command, path)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError"
        assert (error["line"], error["column"]) == (line, column)

    def test_repeated_compose_exits_two(self, workdir, capsys):
        (workdir / "twice.cat").write_text(
            "objects 1\nmorphisms 1\narrow 0 0\nidentity 0\ncompose 0 0 0\n  compose 0 0 0\n"
        )
        self._assert_parse_error_at(capsys, "check-category", workdir / "twice.cat", 6, 3)

    def test_repeated_component_exits_two(self, workdir, capsys):
        run(capsys, "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        # the zero component first, then the matrix unit E11: either order
        # was once accepted or rejected by which entry came last
        (workdir / "twice.grading").write_text(
            "ring m2.ring\ncategory pair.cat\ncomponent 0 0\ncomponent 0 1\n1 0 0 0\n"
            "component 1 1\n0 1 0 0\ncomponent 2 1\n0 0 1 0\ncomponent 3 1\n0 0 0 1\n"
        )
        self._assert_parse_error_at(capsys, "check-grading", workdir / "twice.grading", 4, 1)

    def test_repeated_object_exits_two(self, workdir, capsys):
        (workdir / "z3.ring").write_text("modulus 3\nrank 1\nconstants\n1\n")
        (workdir / "one.cat").write_text(
            "objects 1\nmorphisms 1\narrow 0 0\nidentity 0\ncompose 0 0 0\n"
        )
        (workdir / "twice.system").write_text(
            "category one.cat\nobject 0 ring z3.ring\nobject 0 ring z3.ring\nmap 0\n1\n"
        )
        self._assert_parse_error_at(capsys, "build-skew", workdir / "twice.system", 3, 1)

    def test_repeated_map_exits_two(self, workdir, capsys):
        (workdir / "z3.ring").write_text("modulus 3\nrank 1\nconstants\n1\n")
        (workdir / "one.cat").write_text(
            "objects 1\nmorphisms 1\narrow 0 0\nidentity 0\ncompose 0 0 0\n"
        )
        # 2 is not a ring map of Z/3; the later valid map must not hide it
        (workdir / "twice.system").write_text(
            "category one.cat\nobject 0 ring z3.ring\nmap 0\n2\nmap 0 1\n"
        )
        self._assert_parse_error_at(capsys, "build-skew", workdir / "twice.system", 5, 1)

    def test_nul_byte_in_a_path_exits_two_at_its_token(self, workdir, capsys):
        # Path.read_bytes raised ValueError, a traceback with exit 1
        (workdir / "nul_idems.txt").write_text("ring mo\0rita.ring\nidempotent 1 0 0 0\n")
        self._assert_parse_error_at(capsys, "check-strong", workdir / "nul_idems.txt", 1, 6)
        (workdir / "nul.system").write_text("category a\0b.cat\nobject 0 ring z3.ring\nmap 0\n1\n")
        self._assert_parse_error_at(capsys, "build-skew", workdir / "nul.system", 1, 10)

    def test_missing_map_exits_two(self, workdir, capsys):
        (workdir / "z3.ring").write_text("modulus 3\nrank 1\nconstants\n1\n")
        run(capsys, "--quiet", "build-mx", "c2", "1", "--save", workdir / "c2.cat")
        (workdir / "half.system").write_text("category c2.cat\nobject 0 ring z3.ring\nmap 0\n1\n")
        code, out = run(capsys, "build-skew", workdir / "half.system")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ShapeMismatch",
            "message": "morphism maps missing for indices [1]",
        }

    def test_oversized_system_exits_two_after_one_ring_parse(self, tmp_path, capsys, monkeypatch):
        # the discrete category on 174 objects, each naming one file of the
        # rank-48 ring (Z/2)^48 and carrying its identity map: about 808 kB
        # whose 174 ring parses and unit solves ran 28.6 s before the refusal
        n, p = fr.MAX_RANK, sc.MAX_MORPHISMS
        _write_discrete_system(tmp_path, n, p)
        parses, parse_ring_file = [], cli.parse_ring_file

        def counted_parse(path):
            parses.append(path)
            return parse_ring_file(path)

        def no_solve(ring):
            raise AssertionError("unit solve")

        monkeypatch.setattr(cli, "parse_ring_file", counted_parse)
        monkeypatch.setattr(fr, "find_identity", no_solve)
        monkeypatch.setattr(sk, "find_identity", no_solve)
        code, out = run(capsys, "build-skew", tmp_path / "diag.system")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "RankTooLarge",
            "message": f"rank {n * p} exceeds the cap of {n}",
        }
        assert parses == [tmp_path / "diag48.ring"]

    def test_malformed_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("WORKBENCH_SEED", "abc")
        code, out = run(capsys, "verify-prop", "mx-family")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_huge_modulus_exits_zero(self, workdir, capsys):
        m = 10**30  # b0 * b0 = -b0, so -b0 is the unit
        (workdir / "huge.ring").write_text(f"modulus {m}\nrank 1\nconstants\n{m - 1}\n")
        code, out = run(capsys, "--no-timings", "check-ring", workdir / "huge.ring")
        assert code == 0
        report = json.loads(out)
        assert report["ring"] == {"modulus": m, "rank": 1, "order": m}
        assert report["identity"] == [m - 1]

    def test_oversized_constant_is_a_residue(self, workdir, capsys):
        big = 10**21  # beyond int64: read as the residue big % 7
        (workdir / "big.ring").write_text(f"modulus 7\nrank 1\nconstants\n{big}\n")
        (workdir / "small.ring").write_text(f"modulus 7\nrank 1\nconstants\n{big % 7}\n")
        ring = cli.parse_ring_file(workdir / "big.ring")
        assert np.array_equal(ring.sc, cli.parse_ring_file(workdir / "small.ring").sc)
        code, out = run(capsys, "--no-timings", "check-ring", workdir / "big.ring")
        assert code == 0
        assert json.loads(out)["ring"] == {"modulus": 7, "rank": 1, "order": 7}

    def test_oversized_grading_and_map_entries_are_residues(self, workdir, capsys):
        big = 10**21
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        (workdir / "grading.txt").write_text(
            "ring m2.ring\ncategory pair.cat\n"
            f"component 0 1\n{2 * big + 1} 0 0 0\n"
            "component 1 1\n0 1 0 0\n"
            "component 2 1\n0 0 1 0\n"
            f"component 3 1\n0 0 0 {-2 * big + 1}\n"
        )
        code, out = run(capsys, "--no-timings", "check-grading", workdir / "grading.txt")
        assert code == 0
        run(capsys, "--quiet", "build-mx", "c2", "1", "--save", workdir / "c2.cat")
        (workdir / "z33.ring").write_text("modulus 3\nrank 2\nconstants\n1 0 0 0\n0 0 0 1\n")
        (workdir / "system.txt").write_text(
            "category c2.cat\nobject 0 ring z33.ring\n"
            f"map 0\n{3 * big + 1} 0\n0 1\nmap 1\n0 {3 * big + 1}\n1 0\n"
        )
        code, out = run(capsys, "--no-timings", "build-skew", workdir / "system.txt")
        assert code == 0

    def test_modulus_above_cap_exits_two_before_reading_constants(self, workdir, capsys):
        # rank 5 over a 1,001-digit modulus: the order m^5 has 5,001 digits,
        # past the limit json.dumps converts, and was a traceback with exit 1
        m = 10**1000 + 1
        zeros = " ".join(["0"] * 125)
        for name, text in (
            ("full.ring", f"modulus {m}\nrank 5\nconstants\n{zeros}\n"),
            # no constants follow: reading them would be a ParseError instead
            ("bare.ring", f"modulus {m}\n"),
            ("negative.ring", f"modulus {-m}\nrank 5\nconstants\n"),
        ):
            (workdir / name).write_text(text)
            start = time.perf_counter()
            code, out = run(capsys, "check-ring", workdir / name)
            assert time.perf_counter() - start < 5
            assert code == 2
            assert json.loads(out)["error"] == {
                "type": "ModulusTooLarge",
                "message": f"modulus of {m.bit_length()} bits exceeds the cap of {fr.MAX_MODULUS_BITS} bits",
            }

    def test_modulus_at_cap_reports_every_order(self, workdir, capsys):
        # the largest modulus at the largest rank: m^48 has 3,699 digits
        m = 2**fr.MAX_MODULUS_BITS - 1
        _write_zero_ring(workdir / "zero.ring", fr.MAX_RANK)
        text = (workdir / "zero.ring").read_text().replace("modulus 2", f"modulus {m}", 1)
        (workdir / "zero.ring").write_text(text)
        start = time.perf_counter()
        code, out = run(capsys, "--no-timings", "check-ring", workdir / "zero.ring")
        assert time.perf_counter() - start < 10
        assert code == 0
        assert json.loads(out)["ring"] == {"modulus": m, "rank": fr.MAX_RANK, "order": m**fr.MAX_RANK}

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        m=st.sampled_from([2, 3, 2**64 + 1, 2**256 - 1, 2**256, 10**90 + 1]),
        n=st.sampled_from([1, 2, 9, 48]),
        unit=st.booleans(),
    )
    def test_size_ladder_exits_zero_or_two(self, tmp_path_factory, m, n, unit):
        # zero constants, or the single constant c[0][0][0] = 1
        constants = ["0"] * n**3
        constants[0] = "1" if unit else "0"
        path = tmp_path_factory.mktemp("ladder") / "ladder.ring"
        path.write_text(f"modulus {m}\nrank {n}\nconstants\n{' '.join(constants)}\n")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["--no-timings", "check-ring", str(path)])
        report = json.loads(out.getvalue())
        if m.bit_length() <= fr.MAX_MODULUS_BITS:
            assert code == 0
            assert report["ring"] == {"modulus": m, "rank": n, "order": m**n}
        else:
            assert code == 2
            assert report["error"]["type"] == "ModulusTooLarge"

    def test_report_integers_print_under_a_lowered_digit_limit(self, workdir):
        # the order of a rank-9 ring over 2^256 - 1 has 694 digits
        m = 2**256 - 1
        zeros = " ".join(["0"] * 9**3)
        (workdir / "zero.ring").write_text(f"modulus {m}\nrank 9\nconstants\n{zeros}\n")
        argv = [sys.executable, "-m", "ringbench.cli", "--no-timings", "check-ring", "zero.ring"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        runs = [
            subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=60),
            subprocess.run(argv, cwd=workdir, env=dict(env, PYTHONINTMAXSTRDIGITS="640"),
                           capture_output=True, timeout=60),
        ]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["ring"]["order"] == m**9
        # the report lifts the limit only while it prints: parsing keeps it
        (workdir / "long.ring").write_text(f"modulus 7\nrank 1\nconstants\n{'1' * 700}\n")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as report:
                assert cli.main(["--no-timings", "check-ring", str(workdir / "zero.ring")]) == 0
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["check-ring", str(workdir / "long.ring")]) == 2
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(report.getvalue())["ring"]["order"] == m**9
        error = json.loads(out.getvalue())["error"]
        assert error["message"].startswith("integer of 700 digits exceeds the 640-digit limit")

    def test_integer_past_the_digit_limit_exits_two_with_a_short_message(self, workdir, capsys):
        # the message quoted all 5,000 digits as "expected integer constant 0"
        (workdir / "long.ring").write_text(f"modulus 7\nrank 1\nconstants\n  {'1' * 5000}\n")
        start = time.perf_counter()
        code, out = run(capsys, "check-ring", workdir / "long.ring")
        assert time.perf_counter() - start < 5
        assert code == 2
        limit = sys.get_int_max_str_digits()
        assert json.loads(out)["error"] == {
            "type": "ParseError",
            "message": f"integer of 5000 digits exceeds the {limit}-digit limit (line 4, column 3)",
            "line": 4,
            "column": 3,
        }

    def test_messages_quote_a_prefix_of_a_long_token(self, workdir, capsys):
        word = "x" * 5000
        prefix = f"{'x' * 32}... (5000 characters)"
        for text, message, column in (
            (f"modulus 7\nrank 1\nconstants\n{word}\n", f"expected integer constant 0, found '{prefix}'", 1),
            (f"modulus 7\nrank 1\nconstants\n1 {word}\n", f"trailing input '{prefix}'", 3),
            (f"modulus 7\n{word} 1\n", f"expected 'rank', found '{prefix}'", 1),
            (f"modulus 7\nrank -{'9' * 4000}\n", f"rank -{'9' * 31}... (4001 characters) out of range [1, inf)", 6),
        ):
            (workdir / "long.ring").write_text(text)
            code, out = run(capsys, "check-ring", workdir / "long.ring")
            assert code == 2
            error = json.loads(out)["error"]
            assert error["message"] == f"{message} (line {error['line']}, column {column})"
            assert error["column"] == column
        # a path too long to open: the OS error quoted all 3,000 characters
        (workdir / "long.idem").write_text(f"ring {'a' * 3000}.ring\n")
        code, out = run(capsys, "peirce", workdir / "long.idem")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "OSError" and len(error["message"]) < 100
        quoted = repr(str(workdir / f"{'a' * 3000}.ring"))
        assert error["message"].endswith(f": {quoted[:32]}... ({len(quoted)} characters)")
        (workdir / "wide.ring").write_text(f"modulus 7\nrank {'9' * 4000}\n")
        code, out = run(capsys, "check-ring", workdir / "wide.ring")
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            f"rank {'9' * 32}... (4000 characters) exceeds the cap of {fr.MAX_RANK}"
        )

    def test_rank_above_cap_exits_two_before_reading_constants(self, workdir, capsys):
        # no constants follow: reading them would be a ParseError instead
        (workdir / "wide.ring").write_text(f"modulus 2\nrank {fr.MAX_RANK + 1}\nconstants\n")
        code, out = run(capsys, "check-ring", workdir / "wide.ring")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "RankTooLarge"
        (workdir / "negative.ring").write_text("modulus 2\nrank -1\nconstants\n")
        code, out = run(capsys, "check-ring", workdir / "negative.ring")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_category_above_cap_exits_two_before_reading_arrows(self, workdir, capsys):
        # no arrows follow: reading them would be a ParseError instead
        for q in (sc.MAX_MORPHISMS + 1, 10**12):
            (workdir / "wide.cat").write_text(f"objects 1\nmorphisms {q}\n")
            tracemalloc.start()
            try:
                with pytest.raises(CategoryTooLarge):
                    cli.parse_category_file(workdir / "wide.cat")
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()
            code, out = run(capsys, "check-category", workdir / "wide.cat")
            assert code == 2
            assert json.loads(out)["error"]["type"] == "CategoryTooLarge"
        code, out = run(capsys, "build-mx", "c1", "14")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "CategoryTooLarge"
        # a negative count was a ValueError traceback from the table allocation
        (workdir / "negative.cat").write_text("objects 1\nmorphisms -1\nidentity 0\n")
        code, out = run(capsys, "check-category", workdir / "negative.cat")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_more_objects_than_morphisms_is_refused_before_the_identities(
        self, workdir, capsys, monkeypatch
    ):
        # 1,000,060 bytes: one arrow and 500,000 identities; each object
        # needs an identity of its own, so no category is validated
        p = 500_000
        text = f"objects {p}\nmorphisms 1\narrow 0 0\nidentity{' 0' * p}\ncompose 0 0 0\n"
        (workdir / "many.cat").write_text(text)
        assert len(text) == 1_000_060
        calls = []
        monkeypatch.setattr(sc, "make_category", lambda *args: calls.append(args))
        message = f"object count {p} exceeds the morphism count 1"
        with pytest.raises(ParseError, match=message) as exc:
            cli.parse_category_file(workdir / "many.cat")
        assert (exc.value.line, exc.value.column) == (1, 9)
        code, out = run(capsys, "check-category", workdir / "many.cat")
        assert code == 2 and json.loads(out)["error"]["type"] == "ParseError"
        # a count of any length is quoted cut
        (workdir / "huge.cat").write_text(f"objects {10**40}\nmorphisms 0\n")
        with pytest.raises(ParseError, match=r"object count 1000\S* \(41 characters\)"):
            cli.parse_category_file(workdir / "huge.cat")
        assert calls == []

    def test_discrete_category_at_the_cap_exits_zero(self, tmp_path, capsys, monkeypatch):
        # 174 objects with identities only, 5,987 bytes: the strength
        # conditions once visited all 174^3 object triples here
        n = sc.MAX_MORPHISMS
        text = "\n".join(
            [f"objects {n}", f"morphisms {n}"]
            + [f"arrow {a} {a}" for a in range(n)]
            + ["identity " + " ".join(map(str, range(n)))]
            + [f"compose {a} {a} {a}" for a in range(n)]
        )
        (tmp_path / "discrete.cat").write_text(text + "\n")
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "--no-timings", "check-category", "discrete.cat")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["agree"] is True and report["homset_strong"] is True
        assert hashlib.sha256(out.encode()).hexdigest() == DISCRETE_CATEGORY_REPORT

    def test_lattice_scan_above_budget_exits_two(self, workdir, capsys):
        # F_2[x]/(x^16 + x^3 + 1) has only two left ideals, but listing them
        # scans all 2^16 elements: 37 s before the scan was capped
        n = 16
        powers = []
        for e in range(2 * n - 1):
            v = [0] * (2 * n)
            v[e] = 1
            for d in range(2 * n - 1, n - 1, -1):
                if v[d]:
                    v[d] = 0
                    v[d - n] ^= 1
                    v[d - n + 3] ^= 1
            powers.append(" ".join(map(str, v[:n])))
        rows = ("  ".join(powers[i + j] for j in range(n)) for i in range(n))
        (workdir / "f2x16.ring").write_text(f"modulus 2\nrank {n}\nconstants\n" + "\n".join(rows))
        start = time.perf_counter()
        code, out = run(capsys, "ideal-lattice", workdir / "f2x16.ring", "--side", "left")
        assert time.perf_counter() - start < 10
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "LatticeTooLarge"
        # refused at the first element whose n^2 steps pass the budget
        work = (fr.MAX_LATTICE_WORK // (n * n) + 1) * n * n
        assert error["message"] == str(LatticeTooLarge(work, fr.MAX_LATTICE_WORK))

    @pytest.mark.parametrize("m, n", [(2, 6), (4, 4), (8, 3), (128, 2)])
    def test_lattice_joins_above_budget_exit_two(self, tmp_path, m, n):
        # every additive subgroup of a zero ring is an ideal: (Z/2)^6 has
        # 2,825, and joining every pair of them ran past a minute.  The
        # scan fits the budget and the rounds of joins pass it
        _write_zero_ring(tmp_path / "zero.ring", n, m)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ringbench.cli", "--no-timings", "ideal-lattice", "zero.ring"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "LatticeTooLarge"
        assert m**n * max(n * n, fr.LATTICE_STEP_FLOOR) < fr.MAX_LATTICE_WORK

    @pytest.mark.parametrize("m, n, most", [(128, 2, 0), (8, 3, 91_938 // 4)])
    def test_small_rank_joins_are_charged_the_floor(self, tmp_path, capsys, monkeypatch, m, n, most):
        # a join costs about as much at rank 2 or 3 as at rank 4.  At rank^2
        # steps a pair, (Z/128)^2 made 140,928 joins and (Z/8)^3 91,938
        # before the refusal, about 3 s each; at the floor of 16, (Z/128)^2
        # is refused before its first round of joins
        joins = []
        join = fr.AdditiveSubgroup.join
        monkeypatch.setattr(fr.AdditiveSubgroup, "join", lambda a, b: joins.append(1) or join(a, b))
        _write_zero_ring(tmp_path / "zero.ring", n, m)
        code, out = run(capsys, "--no-timings", "ideal-lattice", tmp_path / "zero.ring")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "LatticeTooLarge"
        assert len(joins) <= most

    def test_zero_ring_of_rank_five_is_enumerated(self, tmp_path, capsys, monkeypatch):
        # every subgroup of (Z/2)^5 is an ideal.  Joining each new subgroup
        # with the 32 principals tests at most 374 x 32 pairs; joining every
        # pair of subgroups found made 93,496 joins
        joins = []
        join = fr.AdditiveSubgroup.join
        monkeypatch.setattr(fr.AdditiveSubgroup, "join", lambda a, b: joins.append(1) or join(a, b))
        _write_zero_ring(tmp_path / "zero.ring", 5)
        code, out = run(capsys, "--no-timings", "ideal-lattice", tmp_path / "zero.ring")
        assert code == 0
        assert len(joins) <= 374 * 32
        monkeypatch.undo()
        report = json.loads(out)
        oracle = verify.brute_force_one_sided_ideal_count(corpus.zero_multiplication_ring(2, 5), "left")
        assert (report["size"], report["height"]) == oracle == (374, 5)

    def test_usage_error_exits_two_with_json(self, capsys):
        code, out = run(capsys, "--bogus")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UsageError"
        code, out = run(capsys, "--no-timings", "check-ring", "a.ring", "--bogus")
        assert code == 2
        report = json.loads(out)
        assert report["command"] == "check-ring"
        assert report["error"]["type"] == "UsageError"
        code, out = run(capsys, "--quiet", "build-mx", "c2", "abc")
        assert (code, out) == (2, "error UsageError\n")

    def test_unknown_monoid_is_a_usage_error(self, capsys):
        # a command-line argument, like a bad size: no line or column
        code, out = run(capsys, "--no-timings", "build-mx", "nosuch", "2")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "UsageError",
            "message": "unknown monoid 'nosuch'; known: "
            "bool2, c1, c2, c3, c4, c5, c6, leftzero3, s3, transf2, v4",
        }
        code, out = run(capsys, "--no-timings", "build-mx", "x" * 100, "2")
        assert json.loads(out)["error"]["message"].startswith(f"unknown monoid '{'x' * 32}... (100 ")

    def test_max_lattice_is_not_an_option(self, capsys):
        # the lattice's one bound is finring.MAX_LATTICE_WORK; the flag that
        # set a size cap is refused while parsing, before any file is read
        code, out = run(capsys, "--max-lattice=5", "ideal-lattice", "missing.ring")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "UsageError",
            "message": "unrecognized arguments: --max-lattice=5",
        }

    def test_written_out_choices_match_the_library(self):
        """The parser writes out the driver and suite names, so that it loads
        neither verify nor corpus; they must stay the names those modules
        define."""
        assert list(choices_of("verify-prop")) == sorted(verify.PROP_CHECKS)
        assert tuple(choices_of("gen-suite")) == corpus.available_suites()

    def test_unknown_driver_report_is_unchanged(self, capsys):
        assert run(capsys, "--no-timings", "verify-prop", "nonsense") == (2, UNKNOWN_DRIVER_REPORT)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: ringbench" in capsys.readouterr().out

    def test_invariant_violation_exits_three(self, workdir, capsys, monkeypatch):
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        (workdir / "grading.txt").write_text(
            "ring m2.ring\ncategory pair.cat\n"
            + "".join(f"component {g} 1\n{' '.join('01'[g == i] for i in range(4))}\n" for g in range(4))
        )
        # a broken product kernel makes the unit-law recheck fail, both for
        # the ring's unit and for the units of the identity components
        monkeypatch.setattr(fr.FiniteRing, "_mul", lambda self, x, y: (0,) * self.rank)
        for argv in (["check-ring", "m2.ring"], ["check-grading", "grading.txt"]):
            code, out = run(capsys, argv[0], workdir / argv[1])
            assert code == 3
            assert json.loads(out)["error"]["type"] == "InvariantViolation"

    def test_local_units_that_fail_validation_exit_three(self, workdir, capsys, monkeypatch):
        # the local units of an object unital grading always form a complete
        # set, so a set that fails validation is a defect, not bad input
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        (workdir / "grading.txt").write_text(
            "ring m2.ring\ncategory pair.cat\n"
            + "".join(f"component {g} 1\n{' '.join('01'[g == i] for i in range(4))}\n" for g in range(4))
        )
        code, out = run(capsys, "--no-timings", "check-grading", workdir / "grading.txt")
        assert (code, json.loads(out)["verdicts"]["object_unital"]) == (0, True)

        def incomplete(ring, candidates):
            raise NotComplete("left")

        monkeypatch.setattr(gr, "validate_complete_set", incomplete)
        code, out = run(capsys, "--no-timings", "check-grading", workdir / "grading.txt")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "InvariantViolation"
        grading = cli.parse_grading_file(workdir / "grading.txt")
        with pytest.raises(InvariantViolation) as exc:
            gr.induced_idempotents(grading)
        assert isinstance(exc.value.__cause__, NotComplete)

    def test_identity_component_unit_is_solved_not_scanned(self, workdir, capsys, monkeypatch):
        # the rank-48 zero-multiplication ring over Z/2, graded by the
        # one-morphism category with the whole ring as identity component:
        # listing its 2^48 elements for a unit would never finish
        n = fr.MAX_RANK
        _write_zero_ring(workdir / "zero.ring", n)
        run(capsys, "--quiet", "build-mx", "c1", "1", "--save", workdir / "one.cat")
        rows = (" ".join("01"[i == j] for j in range(n)) for i in range(n))
        path = workdir / "zero.grading"
        path.write_text(
            f"ring zero.ring\ncategory one.cat\ncomponent 0 {n}\n" + "\n".join(rows) + "\n"
        )

        def no_scan(self):
            raise AssertionError("element scan")

        monkeypatch.setattr(fr.AdditiveSubgroup, "element_vectors", no_scan)
        monkeypatch.setattr(fr.FiniteRing, "element_vectors", no_scan)
        code, out = run(capsys, "--no-timings", "check-grading", path)
        assert code == 1
        assert json.loads(out)["verdicts"]["object_unital"] is False
        monkeypatch.undo()
        proc = subprocess.run(
            [sys.executable, "-m", "ringbench.cli", "--quiet", "check-grading", str(path)],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "object_unital false" in proc.stdout.splitlines()


class TestReports:
    def test_reports_are_deterministic(self, workdir, capsys):
        _, out1 = run(capsys, "--no-timings", "check-strong", workdir / "m2_idems.txt")
        _, out2 = run(capsys, "--no-timings", "check-strong", workdir / "m2_idems.txt")
        assert out1 == out2

    def test_timings_block_toggle(self, workdir, capsys):
        _, out = run(capsys, "check-ring", workdir / "m2.ring")
        assert "timings" in json.loads(out)
        _, out = run(capsys, "--no-timings", "check-ring", workdir / "m2.ring")
        assert "timings" not in json.loads(out)

    def test_quiet_mode(self, workdir, capsys):
        code, out = run(capsys, "--quiet", "check-strong", workdir / "m2_idems.txt")
        assert code == 0
        assert out.splitlines() == [
            "condition1 true",
            "condition2 true",
            "condition3 true",
            "agree true",
        ]

    def test_input_digest_present(self, workdir, capsys):
        _, out = run(capsys, "--no-timings", "check-ring", workdir / "m2.ring")
        report = json.loads(out)
        assert len(report["inputs"]) == 1
        assert len(report["inputs"][0]["sha256"]) == 64


# Runs cli.main on every argv list given as JSON, in one of three modes: plain;
# numpy blocked; or the built-in SHA-256 modules blocked, as on an interpreter
# built without them.  Prints each exit code and output, and whether numpy and
# OpenSSL's _hashlib got loaded.
CLI_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
elif sys.argv[1] == "hashlib":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from ringbench import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--no-timings", *argv])
    results.append([argv, code, out.getvalue()])
print(json.dumps({
    "results": results,
    "numpy": sys.modules.get("numpy") is not None,
    "hashlib": sys.modules.get("_hashlib") is not None,
}))
"""


def fresh_process(cwd: Path, code: str, *args: str) -> str:
    """Standard output of `code` run with `args` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


def run_cli_script(cwd: Path, mode: str, commands: list) -> dict:
    return json.loads(fresh_process(cwd, CLI_SCRIPT, mode, json.dumps(commands)))


# each file command, on the input files subcommand_dir writes, and the
# library modules it does not use
UNUSED_MODULES = {
    ("check-ring", "m2.ring"): {"corpus", "verify", "idempotents", "smallcat", "graded", "skewalg"},
    ("ideal-lattice", "t2.ring"): {"corpus", "verify", "idempotents", "smallcat", "graded", "skewalg"},
    ("peirce", "z6z6_idems.txt"): {"corpus", "verify", "graded", "skewalg"},
    ("check-strong", "m2_idems.txt"): {"corpus", "verify", "graded", "skewalg"},
    ("check-category", "pair.cat"): {"finring", "corpus", "verify"},
    ("check-grading", "grading.txt"): {"corpus", "verify", "skewalg"},
    ("build-skew", "system.txt"): {"corpus", "verify"},
}


class TestStartUp:
    def test_import_loads_no_code_generation(self, tmp_path):
        """A fresh import of the CLI and the drivers loads neither dataclasses
        nor the inspect module it pulls in."""
        code = "import sys, ringbench.cli, ringbench.verify; print(*sorted(sys.modules))"
        loaded = set(fresh_process(tmp_path, code).split())
        assert "ringbench.verify" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect"})

    def test_seeds_and_input_digests_load_no_openssl(self, workdir):
        """A seeded suite and a report's input digest hash with the
        interpreter's built-in SHA-256: OpenSSL's _hashlib stays unloaded."""
        code = (
            "import contextlib, io, json, sys, ringbench.cli, ringbench.verify\n"
            "ringbench.corpus.generate_suite('prop-3.2', 1729)\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    ringbench.cli.main(['--no-timings', 'check-ring', 'm2.ring'])\n"
            "print(json.dumps({'report': json.loads(out.getvalue()), 'modules': sorted(sys.modules)}))"
        )
        record = json.loads(fresh_process(workdir, code))
        digest = hashlib.sha256(M2_RING.encode()).hexdigest()
        assert record["report"]["inputs"] == [{"path": "m2.ring", "sha256": digest}]
        assert "ringbench.verify" in record["modules"]
        assert set(record["modules"]).isdisjoint({"dataclasses", "inspect", "_hashlib"})

    def test_import_registers_every_module_and_runs_none(self, tmp_path):
        """A fresh import of the CLI puts every library module in sys.modules,
        where tools look modules up by name, but runs none of them; a module's
        first attribute access runs it."""
        code = (
            "import json, sys, types\n"
            "import ringbench.cli\n"
            "names = [f'ringbench.{n}' for n in ringbench.cli.LIBRARY_MODULES]\n"
            "ran = [n for n in names if type(sys.modules[n]) is types.ModuleType]\n"
            "suite = sys.modules['ringbench.corpus'].generate_suite\n"
            "after = type(sys.modules['ringbench.corpus']) is types.ModuleType\n"
            "print(json.dumps([ran, after, suite is ringbench.corpus.generate_suite]))"
        )
        assert json.loads(fresh_process(tmp_path, code)) == [[], True, True]

    @pytest.mark.parametrize("argv", UNUSED_MODULES, ids=" ".join)
    def test_a_command_loads_only_its_modules(self, subcommand_dir, argv):
        """Each file command, run in a fresh interpreter, leaves the library
        modules it does not use unrun: the suite generator and the drivers
        above all.  They stay registered in sys.modules; a module whose code
        has run is a plain module object there."""
        code = (
            "import contextlib, io, json, sys, types\n"
            "from ringbench import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    exit_code = cli.main(['--no-timings', *sys.argv[1:]])\n"
            "ran = sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)\n"
            "print(json.dumps([exit_code, sorted(sys.modules), ran]))"
        )
        exit_code, modules, ran = json.loads(fresh_process(subcommand_dir, code, *argv))
        unused = {f"ringbench.{name}" for name in UNUSED_MODULES[argv]}
        assert exit_code == 0
        assert unused <= set(modules)
        assert unused.isdisjoint(ran)


# every subcommand, on the input files subcommand_dir writes
SUBCOMMANDS = [
    ["check-ring", "m2.ring"],
    ["check-ring", "huge.ring"],
    ["check-ring", "absent.ring"],
    ["peirce", "z6z6_idems.txt"],
    ["check-strong", "m2_idems.txt"],
    ["check-strong", "t2_idems.txt"],
    ["ideal-lattice", "t2.ring", "--side", "right"],
    ["check-category", "pair.cat"],
    ["build-mx", "bool2", "2"],
    ["check-grading", "grading.txt"],
    ["build-skew", "system.txt"],
    ["gen-suite", "gradings"],
] + [
    ["verify-prop", name]
    for name in (
        "prop-2.4", "fixture-counts", "prop-3.2", "groupoid-homset", "mx-family",
        "prop-5.3", "strong-equivalence", "corner-identity", "matrix-units-iso",
        "mutation-matrix",
    )
]


@pytest.fixture(scope="module")
def subcommand_dir(tmp_path_factory):
    """The input files SUBCOMMANDS read."""
    path = _write_inputs(tmp_path_factory.mktemp("subcommands"))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--quiet", "build-mx", "c1", "2", "--save", str(path / "pair.cat")])
        cli.main(["--quiet", "build-mx", "c2", "1", "--save", str(path / "c2.cat")])
    (path / "grading.txt").write_text(
        "ring m2.ring\ncategory pair.cat\n"
        + "".join(f"component {g} 1\n{' '.join('01'[g == i] for i in range(4))}\n" for g in range(4))
    )
    (path / "z33.ring").write_text("modulus 3\nrank 2\nconstants\n1 0 0 0\n0 0 0 1\n")
    (path / "system.txt").write_text(
        "category c2.cat\nobject 0 ring z33.ring\nmap 0\n1 0\n0 1\nmap 1\n0 1\n1 0\n"
    )
    (path / "huge.ring").write_text(f"modulus {10**30}\nrank 1\nconstants\n{10**30 - 1}\n")
    return path


@pytest.fixture(scope="module")
def plain_run(subcommand_dir):
    return run_cli_script(subcommand_dir, "plain", SUBCOMMANDS)


class TestWithoutNumpy:
    def test_import_leaves_numpy_out(self, tmp_path):
        assert run_cli_script(tmp_path, "plain", []) == {
            "results": [], "numpy": False, "hashlib": False,
        }

    def test_every_subcommand_runs_with_numpy_blocked(self, subcommand_dir, plain_run):
        blocked = run_cli_script(subcommand_dir, "blocked", SUBCOMMANDS)
        assert blocked == plain_run
        assert [code for _, code, _ in plain_run["results"]] == [0, 0, 2] + [0, 0, 1] + [0] * 16
        assert not plain_run["numpy"]


class TestWithoutBuiltinSha256:
    def test_every_subcommand_falls_back_to_hashlib(self, subcommand_dir, plain_run):
        """Without the built-in SHA-256 modules the package hashes through
        hashlib, and every output, input digests and seeded suites and
        verdicts included, is byte-identical."""
        fallback = run_cli_script(subcommand_dir, "hashlib", SUBCOMMANDS)
        assert fallback["results"] == plain_run["results"]
        assert any('"sha256"' in out for _, _, out in plain_run["results"])
        assert fallback["hashlib"] and not plain_run["hashlib"]


# the commands each valid input file of subcommand_dir is mutated for
FUZZ_COMMANDS = {
    "m2.ring": ("check-ring", "ideal-lattice"),
    "t2.ring": ("check-ring", "ideal-lattice"),
    "z33.ring": ("check-ring", "ideal-lattice"),
    "m2_idems.txt": ("peirce", "check-strong"),
    "t2_idems.txt": ("peirce", "check-strong"),
    "z6z6_idems.txt": ("peirce", "check-strong"),
    "pair.cat": ("check-category",),
    "c2.cat": ("check-category",),
    "grading.txt": ("check-grading",),
    "system.txt": ("build-skew",),
}

# tokens a mutation may put in beside those of the valid files: a negative,
# a modulus just past the 256-bit cap, an integer past the digit limit, a
# directory, a missing path, a non-UTF-8 byte and a comment mark
HOSTILE_TOKENS = ("-1", str(2**256 + 1), "9" * 5000, ".", "absent.ring", "\udcff", "#")

# the most Howell reductions one mutant's command may make: work is bounded
# by a count, not a clock.  The valid inputs need at most 37, and the ideal
# lattice of m2.ring with its modulus mutated to 4 needs 274.
FUZZ_HOWELL_CAP = 2_000


def _subclass_names(cls) -> set[str]:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


def _mutate(data, text: str, tokens) -> str:
    """``text`` after one or two token or line mutations drawn from ``data``:
    replace, delete or insert a token (drawn from ``tokens``), or duplicate
    or drop a line."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(("replace", "delete", "insert", "duplicate", "drop")))
        if op == "duplicate":
            lines.insert(i, list(lines[i]))
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "insert" or not lines[i]:
            lines[i].insert(data.draw(st.integers(0, len(lines[i]))), data.draw(tokens))
        else:
            j = data.draw(st.integers(0, len(lines[i]) - 1))
            if op == "delete":
                del lines[i][j]
            else:
                lines[i][j] = data.draw(tokens)
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestHostileInputs:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_inputs_keep_the_exit_contract(self, subcommand_dir, data):
        """A valid input file, mutated by tokens and lines, exits 0, 1 or 2
        with one JSON report; an error report names a WorkbenchError or an
        OSError (a mutated path is a FileNotFoundError), and no run makes more
        than FUZZ_HOWELL_CAP Howell reductions."""
        from ringbench import errors, howell

        texts = {name: (subcommand_dir / name).read_text() for name in FUZZ_COMMANDS}
        others = sorted({tok for text in texts.values() for tok in text.split()} | set(HOSTILE_TOKENS))
        name = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
        command = data.draw(st.sampled_from(FUZZ_COMMANDS[name]))
        # a token of the same file, as often as it occurs there, or any other
        tokens = st.sampled_from(texts[name].split()) | st.sampled_from(others)
        mutant = subcommand_dir / f"mutant{Path(name).suffix}"
        mutant.write_bytes(_mutate(data, texts[name], tokens).encode("utf-8", "surrogateescape"))
        calls = []
        reduce = howell.howell_complete
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setattr(howell, "howell_complete", lambda *args: calls.append(1) or reduce(*args))
            code = cli.main(["--no-timings", command, str(mutant)])
        report = json.loads(out.getvalue())
        assert code in (0, 1, 2)
        assert isinstance(report, dict)
        if code == 2:
            allowed = _subclass_names(errors.WorkbenchError) | _subclass_names(OSError)
            assert report["error"]["type"] in allowed
        assert len(calls) <= FUZZ_HOWELL_CAP


class TestSubcommands:
    def test_peirce(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "peirce", workdir / "m2_idems.txt")
        assert code == 0
        report = json.loads(out)
        assert report["component_orders"] == [[2, 2], [2, 2]]
        assert report["corner_orders"] == [2, 2]

    def test_peirce_with_non_free_corner(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "peirce", workdir / "z6z6_idems.txt")
        assert code == 0
        assert json.loads(out)["corner_orders"] == [12, 3]

    def test_ideal_lattice(self, workdir, capsys):
        code, out = run(capsys, "--no-timings", "ideal-lattice", workdir / "m2.ring")
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 5 and report["height"] == 2

    def test_check_category(self, workdir, capsys):
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        code, out = run(capsys, "--no-timings", "check-category", workdir / "pair.cat")
        assert code == 0
        report = json.loads(out)
        assert report["homset_strong"] is True and report["groupoid"] is True

    def test_check_grading(self, workdir, capsys):
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        (workdir / "grading.txt").write_text(
            "ring m2.ring\ncategory pair.cat\n"
            "component 0 1\n1 0 0 0\n"
            "component 1 1\n0 1 0 0\n"
            "component 2 1\n0 0 1 0\n"
            "component 3 1\n0 0 0 1\n"
        )
        code, out = run(capsys, "--no-timings", "check-grading", workdir / "grading.txt")
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["object_unital"] is True
        assert report["verdicts"]["homset_strongly_graded"] is True

    def test_build_skew(self, workdir, capsys):
        run(capsys, "--quiet", "build-mx", "c2", "1", "--save", workdir / "c2.cat")
        (workdir / "z33.ring").write_text(
            "modulus 3\nrank 2\nconstants\n1 0 0 0\n0 0 0 1\n"
        )
        (workdir / "system.txt").write_text(
            "category c2.cat\nobject 0 ring z33.ring\n"
            "map 0\n1 0\n0 1\nmap 1\n0 1\n1 0\n"
        )
        code, out = run(capsys, "--no-timings", "build-skew", workdir / "system.txt")
        assert code == 0
        report = json.loads(out)
        assert report["algebra"]["order"] == 81
        assert report["verdicts"]["strong_equivalence_agree"] is True

    def test_verify_prop(self, capsys):
        code, out = run(capsys, "--no-timings", "verify-prop", "mx-family")
        assert code == 0
        assert json.loads(out)["verdicts"]["mx-family"] is True

    def test_gen_suite(self, capsys):
        code, out = run(capsys, "--no-timings", "gen-suite", "mx-family")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 15
        assert "mx_c2_s2" in report["instances"]


def pinned(report: dict) -> str:
    """The bytes the CLI prints for ``report``, keys in the order given."""
    return json.dumps(report, indent=2) + "\n"


class TestFailingProducts:
    """The whole --no-timings report of a run that fails each strength
    condition at a product: no acceptance driver reaches these branches."""

    def test_check_strong_on_a_morita_context(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("morita.ring").write_text(MORITA_RING)
        Path("morita.idem").write_text("ring morita.ring\nidempotent 1 0 0 0\nidempotent 0 1 0 0\n")
        code, out = run(capsys, "--no-timings", "check-strong", "morita.idem")
        assert code == 1
        assert out == pinned({
            "command": "check-strong",
            "tool": {"name": "ringbench", "version": "0.1.0"},
            "inputs": [{
                "path": "morita.idem",
                "sha256": "a8fe07e2bac5b6e578eaeec19f14aad84c0870c1eb25db15d83ae2c1902e83c0",
            }],
            "verdicts": {"condition1": False, "condition2": False, "condition3": False, "agree": True},
            "witnesses": [
                {"condition": 1, "indices": [0, 1, 0],
                 "reason": "product does not recover the component"},
                {"condition": 2, "indices": [0, 1],
                 "reason": "product does not recover the diagonal"},
                {"condition": 3, "indices": [0, 1],
                 "reason": "idempotent not reached by the product"},
            ],
        })

    def test_check_category_on_a_split_pair(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("split.cat").write_text(SPLIT_CATEGORY)
        code, out = run(capsys, "--no-timings", "check-category", "split.cat")
        assert code == 0
        assert out == pinned({
            "command": "check-category",
            "tool": {"name": "ringbench", "version": "0.1.0"},
            "inputs": [{
                "path": "split.cat",
                "sha256": "8155f389684eadbb639f30d7089d5fe29a0f387600d89eabb08f41544f32fdb3",
            }],
            "verdicts": {"valid": True, "agree": True},
            "witnesses": [
                {"condition": 1, "objects": [0, 1, 0], "reason": "composite set misses morphisms"},
                {"condition": 2, "objects": [0, 1], "reason": "endo set not recovered"},
                {"condition": 3, "objects": [0, 1], "reason": "identity not reached"},
            ],
            "homset_strong": False,
            "groupoid": False,
            "finiteness": {
                "objects": 2, "morphisms": 6, "endo_sizes": [2, 2], "bound_satisfied": None,
            },
        })
