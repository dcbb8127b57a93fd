"""End-to-end command line checks: parsing, exit codes, report determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ringbench import cli
from ringbench import corpus
from ringbench import finring as fr
from ringbench import smallcat as sc
from ringbench.errors import CategoryTooLarge, ParseError

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

Z6Z6_RING = """\
modulus 6
rank 2
constants
1 0  0 0
0 0  0 1
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "m2.ring").write_text(M2_RING)
    (tmp_path / "t2.ring").write_text(T2_RING)
    (tmp_path / "m2_idems.txt").write_text(
        "ring m2.ring\nidempotent 1 0 0 0\nidempotent 0 0 0 1\n"
    )
    (tmp_path / "t2_idems.txt").write_text(
        "ring t2.ring\nidempotent 1 0 0\nidempotent 0 0 1\n"
    )
    (tmp_path / "z6z6.ring").write_text(Z6Z6_RING)
    # the corner at (3, 1) is Z/2 + Z/6, not free over one modulus
    (tmp_path / "z6z6_idems.txt").write_text(
        "ring z6z6.ring\nidempotent 3 1\nidempotent 4 0\n"
    )
    return tmp_path


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


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

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: ringbench" in capsys.readouterr().out

    def test_invariant_violation_exits_three(self, workdir, capsys, monkeypatch):
        # a broken product kernel makes find_identity's unit-law recheck fail
        monkeypatch.setattr(fr.FiniteRing, "_mul", lambda self, x, y: (0,) * self.rank)
        code, out = run(capsys, "check-ring", workdir / "m2.ring")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "InvariantViolation"


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


# Runs cli.main on every argv list given as JSON, with numpy importable or
# blocked, and prints each exit code and output plus whether numpy was loaded.
CLI_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
from ringbench import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--no-timings", *argv])
    results.append([argv, code, out.getvalue()])
print(json.dumps({"results": results, "numpy": sys.modules.get("numpy") is not None}))
"""


def run_cli_script(cwd: Path, mode: str, commands: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, mode, json.dumps(commands)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


class TestWithoutNumpy:
    def test_import_leaves_numpy_out(self, tmp_path):
        assert run_cli_script(tmp_path, "plain", []) == {"results": [], "numpy": False}

    def test_every_subcommand_runs_with_numpy_blocked(self, workdir, capsys):
        run(capsys, "--quiet", "build-mx", "c1", "2", "--save", workdir / "pair.cat")
        run(capsys, "--quiet", "build-mx", "c2", "1", "--save", workdir / "c2.cat")
        (workdir / "grading.txt").write_text(
            "ring m2.ring\ncategory pair.cat\n"
            + "".join(f"component {g} 1\n{' '.join('01'[g == i] for i in range(4))}\n" for g in range(4))
        )
        (workdir / "z33.ring").write_text("modulus 3\nrank 2\nconstants\n1 0 0 0\n0 0 0 1\n")
        (workdir / "system.txt").write_text(
            "category c2.cat\nobject 0 ring z33.ring\nmap 0\n1 0\n0 1\nmap 1\n0 1\n1 0\n"
        )
        (workdir / "huge.ring").write_text(f"modulus {10**30}\nrank 1\nconstants\n{10**30 - 1}\n")
        commands = [
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
        blocked = run_cli_script(workdir, "blocked", commands)
        plain = run_cli_script(workdir, "plain", commands)
        assert blocked == plain
        assert [code for _, code, _ in plain["results"]] == [0, 0, 2] + [0, 0, 1] + [0] * 16
        assert not plain["numpy"]


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
