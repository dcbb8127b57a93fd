"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench      (or: python3 -m unittest discover perfbench)

They spawn a few short-lived interpreters but run no workload.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402


def cli_command(cwd: Path, *argv: str):
    cmd = [sys.executable, "-m", "ringbench.cli", "--no-timings", *argv]
    return run.run_command(cmd, cwd, cwd)


class KnownAnswerTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        # the 2x2 matrix ring over Z/2 and its diagonal matrix units (strong)
        sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    sc[2 * i + j][2 * j + k][2 * i + k] = 1
        flat = " ".join(str(sc[a][b][c]) for a in range(4) for b in range(4) for c in range(4))
        (self.dir / "m2.ring").write_text(f"modulus 2\nrank 4\nconstants\n{flat}\n")
        (self.dir / "m2.idem").write_text("ring m2.ring\nidempotent 1 0 0 0\nidempotent 0 0 0 1\n")

    def tearDown(self):
        self.tmp.cleanup()

    def test_right_answer_passes_and_wrong_answer_fails(self):
        code, out, _, _ = cli_command(self.dir, "check-strong", "m2.idem")
        right = {"label": "check-strong:m2", "argv": [], "expect_exit": 0}
        digests = {right["label"]: hashlib.sha256(out).hexdigest()}
        self.assertIsNone(known.check_command(right, code, out, digests))

        tally = run.Tally()
        wrong_exit = dict(right, expect_exit=1)
        tally.record(known.check_command(wrong_exit, code, out, digests))
        tally.record(known.check_command(right, code, out + b" ", digests))
        tally.record(known.check_command(right, code, out, {}))
        self.assertEqual((tally.attempted, len(tally.reasons)), (3, 3))

    def test_wrong_lattice_and_error_type_fail(self):
        code, out, _, _ = cli_command(self.dir, "ideal-lattice", "m2.ring")
        cmd = {"label": "lat", "argv": [], "expect_exit": 0, "expect_lattice": [5, 2]}
        self.assertIsNone(known.check_answer(cmd, code, out))
        self.assertIsNotNone(known.check_answer(dict(cmd, expect_lattice=[6, 2]), code, out))

        (self.dir / "cut.ring").write_text("modulus 2\nrank 4\nconstants\n1 0 0\n")
        code, out, _, _ = cli_command(self.dir, "check-ring", "cut.ring")
        cmd = {"label": "cut", "argv": [], "expect_exit": 2, "expect_error": "ParseError"}
        self.assertIsNone(known.check_answer(cmd, code, out))
        self.assertIsNotNone(known.check_answer(dict(cmd, expect_error="NotAssociative"), code, out))

    def test_wrong_driver_count_fails(self):
        op = {"name": "mx-family", "ok": True, "checked": 15, "error": None}
        self.assertIsNone(known.check_driver(op))
        self.assertIsNotNone(known.check_driver(dict(op, checked=14)))
        self.assertIsNotNone(known.check_driver(dict(op, ok=False)))
        self.assertIsNotNone(known.check_driver(dict(op, error="ValueError: boom")))


class TraceTests(unittest.TestCase):
    DRIVERS = "mx-family,matrix-units-iso,mutation-matrix,fixture-counts"

    def traced(self) -> dict:
        out = run.run_child("drivers", "1729", self.DRIVERS, "--trace")
        return run.layer_metrics(out["trace"], {})

    def test_counts_repeat_across_processes(self):
        a, b = self.traced(), self.traced()
        self.assertEqual({n: a[n] for n in known.EXACT_METRICS}, {n: b[n] for n in known.EXACT_METRICS})
        self.assertGreater(a["howell.calls"], 0)
        self.assertGreater(a["finring.lattice.calls"], 0)
        self.assertEqual(a["cli.parse.calls"], 0)

    def test_every_binding_is_wrapped(self):
        probe = (
            "import ringbench.cli, tracer\n"
            "t = tracer.Tracer(); t.install()\n"
            "left = [b for f in t.originals for b in tracer.bindings_of(f)]\n"
            "print(left)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=run.child_env(), cwd=run.HERE, check=True,
        )
        self.assertEqual(proc.stdout.strip(), "[]")


class HostSpeedTests(unittest.TestCase):
    def test_factor_scales_by_probe_speed(self):
        n = hostspeed.CHUNK_NOMINAL_S
        self.assertEqual(hostspeed.factor([n, n], n), 1.0)
        self.assertEqual(hostspeed.factor([2 * n], n), 0.5)

    def test_sampler_excludes_its_chunks_and_corrects_the_rest(self):
        sampler = hostspeed.Sampler()
        sampler.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1 = time.perf_counter()
        sampler.stop()
        inside = [s for at, s in sampler.samples if t0 <= at < t1]
        self.assertGreaterEqual(len(inside), 2)
        self.assertAlmostEqual(sampler.raw(t0, t1), (t1 - t0) - sum(inside))
        near = [s for _, s in sampler.samples]
        self.assertAlmostEqual(
            sampler.corrected(t0, t1),
            sampler.raw(t0, t1) * hostspeed.factor(near, hostspeed.CHUNK_NOMINAL_S),
        )

    def test_spawn_probe_runs(self):
        self.assertGreater(hostspeed.timed_spawn(), 0.0)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(known.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], known.PER_LAYER
        )

    def test_digests_cover_every_suite_seed(self):
        self.assertEqual(sorted(known.load_digests()), sorted(map(str, known.SUITE_SEEDS)))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for f in run.HERE.glob("*.py"):
                (bench / f.name).write_bytes(f.read_bytes())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
