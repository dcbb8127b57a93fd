"""Write the ``cli`` workload's input files and its command manifest.

Runs in a child interpreter, before any timing.  The files come from the
seeded suites; each command's expected answer comes from how its input was
built: the suite's ``expect_strong`` for check-strong, frozen lattice sizes
for the fixture rings, exit 2 with ParseError for a truncated file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ringbench import corpus
from ringbench import skewalg as sk
from ringbench import smallcat as cat

from known import FIXTURE_LATTICES

# Built with a zero cross component over the pair groupoid: object unital,
# yet not hom-set-strongly graded, so check-grading exits 1.
NOT_HOMSET_STRONG_GRADINGS = {"lopsided_pair_t2"}


def _rows(matrix) -> list[str]:
    return [" ".join(str(int(x)) for x in row) for row in matrix]


def ring_text(ring) -> str:
    lines = [f"modulus {ring.modulus}", f"rank {ring.rank}"]
    lines.append("labels " + " ".join(ring.basis_labels))
    lines.append("constants")
    lines.extend(_rows(ring.sc.reshape(ring.rank * ring.rank, ring.rank)))
    return "\n".join(lines) + "\n"


def category_text(c) -> str:
    lines = [f"objects {c.object_count}", f"morphisms {c.morphism_count}"]
    lines.extend(f"arrow {c.dom[g]} {c.cod[g]}" for g in range(c.morphism_count))
    lines.append("identity " + " ".join(str(e) for e in c.identity))
    for g in range(c.morphism_count):
        for h in range(c.morphism_count):
            gh = int(c.compose[g, h])
            if gh != cat.UNDEFINED:
                lines.append(f"compose {g} {h} {gh}")
    return "\n".join(lines) + "\n"


class InputWriter:
    """Writes files into one directory, once per distinct object."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[int, tuple[object, str]] = {}  # holds obj so its id stays unique
        self.commands: list[dict] = []

    def _file(self, obj, name: str, text: str) -> str:
        if id(obj) not in self.files:
            (self.root / name).write_text(text)
            self.files[id(obj)] = (obj, name)
        return self.files[id(obj)][1]

    def ring(self, ring, name: str) -> str:
        return self._file(ring, f"{name}.ring", ring_text(ring))

    def category(self, c, name: str) -> str:
        return self._file(c, f"{name}.cat", category_text(c))

    def idempotents(self, inst) -> str:
        ring_file = self.ring(inst.ring, inst.name)
        lines = [f"ring {ring_file}"]
        lines += ["idempotent " + " ".join(str(x) for x in e.coords) for e in inst.idempotents]
        return self._file(inst, f"{inst.name}.idem", "\n".join(lines) + "\n")

    def grading(self, g, name: str) -> str:
        lines = [f"ring {self.ring(g.ring, name)}", f"category {self.category(g.category, name)}"]
        for m, comp in enumerate(g.components):
            if comp.basis.shape[0]:
                lines.append(f"component {m} {comp.basis.shape[0]}")
                lines.extend(_rows(comp.basis))
        return self._file(g, f"{name}.grading", "\n".join(lines) + "\n")

    def system(self, s, name: str) -> str:
        lines = [f"category {self.category(s.category, name)}"]
        for a, ring in enumerate(s.object_rings):
            lines.append(f"object {a} ring {self.ring(ring, f'{name}_obj{a}')}")
        for g, matrix in enumerate(s.maps):
            lines.append(f"map {g}")
            lines.extend(_rows(matrix))
        return self._file(s, f"{name}.system", "\n".join(lines) + "\n")

    def command(self, label: str, argv: list[str], expect_exit: int, **expect) -> None:
        self.commands.append({"label": label, "argv": argv, "expect_exit": expect_exit, **expect})


def write_inputs(root: Path, suite_seed: int) -> list[dict]:
    """Write every input file under ``root``; return the command manifest."""
    rng = random.Random(suite_seed)
    w = InputWriter(root)

    prop24 = corpus.generate_suite("prop-2.4", suite_seed)
    rings = {}
    for inst in prop24:
        rings.setdefault(id(inst.ring), inst)
    by_order = sorted(rings.values(), key=lambda inst: (-inst.ring.order, inst.name))
    largest = by_order[:3]
    for inst in [largest[0], rng.choice(by_order[1:])]:
        w.command(f"check-ring:{inst.name}", ["check-ring", w.ring(inst.ring, inst.name)], 0)
    for inst in largest:
        for side in ("left", "right"):
            w.command(
                f"ideal-lattice:{inst.name}:{side}",
                ["ideal-lattice", w.ring(inst.ring, inst.name), "--side", side],
                0,
            )

    z2 = corpus.cyclic_ring(2)
    fixtures = {
        "matrix2_z2": corpus.matrix_units_ring(2, 2),
        "triangular2_z2": sk.build_category_algebra(
            z2, corpus.thin_category_from_relation(2, [(0, 1)])
        ).ring,
        "group_algebra_c2_z2": sk.build_category_algebra(
            z2, corpus.one_object_monoid_category("c2")
        ).ring,
    }
    for name, ring in fixtures.items():
        size, height = FIXTURE_LATTICES[name]
        w.command(
            f"ideal-lattice:fixture_{name}:left",
            ["ideal-lattice", w.ring(ring, f"fixture_{name}"), "--side", "left"],
            0,
            expect_lattice=[size, height],
        )

    strong = [inst for inst in prop24 if inst.expect_strong is True]
    weak = [inst for inst in prop24 if inst.expect_strong is False]
    for inst in rng.sample(strong, 2) + rng.sample(weak, 2):
        w.command(
            f"check-strong:{inst.name}",
            ["check-strong", w.idempotents(inst)],
            0 if inst.expect_strong else 1,
        )
    for inst in rng.sample(prop24, 2):
        w.command(f"peirce:{inst.name}", ["peirce", w.idempotents(inst)], 0)

    for inst in rng.sample(corpus.generate_suite("prop-3.2", suite_seed), 3):
        w.command(
            f"check-category:{inst.name}", ["check-category", w.category(inst.category, inst.name)], 0
        )

    gradings = {g.name: g for g in corpus.generate_suite("gradings", suite_seed)}
    others = sorted(n for n in gradings if n not in NOT_HOMSET_STRONG_GRADINGS)
    for name in sorted(NOT_HOMSET_STRONG_GRADINGS) + [rng.choice(others)]:
        w.command(
            f"check-grading:{name}",
            ["check-grading", w.grading(gradings[name].grading, name)],
            1 if name in NOT_HOMSET_STRONG_GRADINGS else 0,
        )

    algebras = {a.name: a.algebra for a in corpus.generate_suite("prop-5.3", suite_seed)}
    for name in rng.sample(sorted(algebras), 2):
        w.command(f"build-skew:{name}", ["build-skew", w.system(algebras[name].system, name)], 0)

    # truncated files: cut inside the constants / inside an idempotent row
    big = largest[0]
    text = ring_text(big.ring)
    (root / "truncated.ring").write_text(text[: len(text) // 2])
    w.command("check-ring:truncated", ["check-ring", "truncated.ring"], 2, expect_error="ParseError")
    idem_text = (root / w.idempotents(strong[0])).read_text()
    (root / "truncated.idem").write_text(idem_text[: idem_text.rindex(" ")])
    w.command(
        "check-strong:truncated", ["check-strong", "truncated.idem"], 2, expect_error="ParseError"
    )

    manifest = w.commands
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
