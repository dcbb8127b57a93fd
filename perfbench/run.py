"""ringbench benchmark harness (stdlib only).

    python3 perfbench/run.py --workload acceptance|strength|cli \\
        --seed N --seconds S --trace 0|1

ringbench is imported from the src/ directory beside perfbench/.
Every repetition runs in a fresh interpreter, so no process-wide cache
carries over from one repetition to the next.  Everything runs sequentially:
the cli workload is a closed loop with one client.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced repetitions.  With ``--trace 1`` it reports the per-layer metrics
of two traced repetitions (timed from outside the program by tracer.py),
whose counts must repeat exactly, plus the tracing overhead against one
untraced repetition.  The harness and its children stay on one core, and
every end-to-end time is corrected to nominal host speed by calibration
probes timed on that core beside the work (hostspeed.py); the raw figures
go to stderr.  Every verdict, exit code and ``--no-timings`` output
is checked against its known answer; a miss counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import known

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

SETUP_PROBES = 16  # import-only children per run; setup_s is their median
MIN_REPS = 2  # wall_s is a median of at least this many repetitions
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "latency_p50_ms": "ms"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(*args: str) -> dict:
    """Run child.py in a fresh interpreter and parse its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            capture_output=True,
            env=child_env(),
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {args[0]} timed out") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise HarnessError(f"child {args[0]} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []
        self.broken: list[str] = []  # failed checks of the run itself

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.reasons.append(reason)


# ---------------------------------------------------------------------------
# traced repetitions -> per-layer metrics


def merge_traces(traces: list[dict]) -> dict:
    """Sum the snapshots of several traced processes into one."""
    total = {"calls": {}, "self_s": {}, "counts": {}, "lattice_keys": set()}
    for t in traces:
        for part in ("calls", "self_s", "counts"):
            for k, v in t[part].items():
                total[part][k] = total[part].get(k, 0) + v
        total["lattice_keys"].update(t["lattice_keys"])
    return total


def layer_metrics(trace: dict, driver_s: dict) -> dict:
    """Per-layer metric values of one traced repetition (overhead excluded)."""
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    values = {}
    for name, _, _ in known.PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(prefix, 0)
        elif kind == "self_s":
            values[name] = self_s.get(prefix, 0.0)
        elif kind in ("rows", "pairs", "elements_scanned"):
            values[name] = counts.get(name, 0)
    lattice_calls = calls.get("finring.lattice", 0)
    values["finring.lattice.distinct_ratio"] = (
        len(trace["lattice_keys"]) / lattice_calls if lattice_calls else 0.0
    )
    scoped = counts.get("join.scoped", 0)
    values["finring.join.useful_ratio"] = (
        counts.get("join.distinct", 0) / scoped if scoped else 0.0
    )
    for d in known.ACCEPTANCE_DRIVERS:
        values[f"verify.{d}.s"] = driver_s.get(d, 0.0)
    return values


def summarize_traced(reps: list[dict], untraced_wall: float, tally: Tally) -> dict:
    """Per-layer metrics over traced repetitions; counts must repeat exactly."""
    per_rep = [layer_metrics(r["trace"], r["driver_s"]) for r in reps]
    first = per_rep[0]
    for other in per_rep[1:]:
        diff = [n for n in known.EXACT_METRICS if other[n] != first[n]]
        if diff:
            tally.broken.append(f"counts differ between traced runs: {diff}")
    metrics = {}
    for name, unit, _ in known.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(r["wall_s"] for r in reps) / untraced_wall
        elif name in known.EXACT_METRICS:
            value = first[name]
        else:
            value = statistics.median(m[name] for m in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# ---------------------------------------------------------------------------
# driver workloads: acceptance and strength


def driver_rep(seeds: list[int], names: tuple[str, ...], trace: bool, tally: Tally) -> dict:
    args = ["drivers", ",".join(map(str, seeds)), ",".join(names)]
    out = run_child(*args, *(["--trace"] if trace else []))
    driver_s: dict[str, float] = {}
    for op in out["ops"]:
        reason = known.check_driver(op)
        tally.record(None if reason is None else f"seed {op['seed']}: {reason}")
        driver_s[op["name"]] = driver_s.get(op["name"], 0.0) + op["seconds"]
    out["latencies_ms"] = [op["seconds"] * 1000.0 for op in out["ops"]]
    out["driver_s"] = driver_s
    return out


def measure(rep, seconds: float, trace: bool, tally: Tally) -> dict:
    """Run repetitions (``rep(traced)`` returns one) and summarize them.

    Untraced: import-only probes, each corrected by the spawn probes timed
    right before and after it; then at least MIN_REPS repetitions, and more
    until the next one would overrun ``seconds`` by more than half its
    length.  Traced: one untraced repetition for the overhead baseline (its
    raw time), then two traced ones whose counts must agree.
    """
    if trace:
        untraced = rep(False)
        return summarize_traced([rep(True), rep(True)], untraced["raw_wall_s"], tally)
    start = time.perf_counter()
    setups, raw_setups = [], []
    before = hostspeed.timed_spawn()
    for _ in range(SETUP_PROBES):
        raw_setups.append(run_child("probe")["setup_s"])
        after = hostspeed.timed_spawn()
        setups.append(raw_setups[-1] * hostspeed.factor([before, after], hostspeed.SPAWN_NOMINAL_S))
        before = after
    reps = []
    while True:
        t0 = time.perf_counter()
        reps.append(rep(False))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now + (now - t0) / 2 > start + seconds:
            break
    print(
        "perfbench: raw medians: wall_s %.4f, setup_s %.4f; %d repetitions"
        % (
            statistics.median(r["raw_wall_s"] for r in reps),
            statistics.median(raw_setups),
            len(reps),
        ),
        file=sys.stderr,
    )
    return e2e_metrics(reps, setups)


def e2e_metrics(reps: list[dict], setups: list[float]) -> dict:
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "latency_p50_ms": statistics.median(x for r in reps for x in r["latencies_ms"]),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# cli workload


def run_command(argv: list[str], cwd: Path, scratch: Path) -> tuple[int, bytes, float, float]:
    """Spawn one command; return (exit code, stdout, seconds, peak RSS in MB).

    The peak RSS is the command's own, as the kernel reports it at exit.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise HarnessError(f"{argv} died from signal {-proc.returncode}")
    return proc.returncode, out_path.read_bytes(), seconds, usage.ru_maxrss / 1024.0


def calibrate(trace: bool) -> list[float]:
    return [] if trace else [hostspeed.timed_spawn()]


def cli_rep(commands, inputs: Path, scratch: Path, digests: dict, trace: bool, tally: Tally):
    """One pass over the commands.  Untraced, each command's time is
    corrected by the spawn probes timed right before and right after it."""
    latencies, raw, rss, traces = [], [], [], []
    trace_out = scratch / "trace.json"
    before = calibrate(trace)
    for cmd in commands:
        trace_out.unlink(missing_ok=True)
        if trace:
            argv = [sys.executable, str(CHILD), "shim", str(trace_out), "--no-timings", *cmd["argv"]]
        else:
            argv = [sys.executable, "-m", "ringbench.cli", "--no-timings", *cmd["argv"]]
        code, out, seconds, peak = run_command(argv, inputs, scratch)
        after = calibrate(trace)
        tally.record(known.check_command(cmd, code, out, digests))
        raw.append(seconds)
        if not trace:
            seconds *= hostspeed.factor(before + after, hostspeed.SPAWN_NOMINAL_S)
        latencies.append(seconds * 1000.0)
        before = after
        rss.append(peak)
        if trace:
            if not trace_out.is_file():
                raise HarnessError(f"traced {cmd['label']} wrote no trace")
            traces.append(json.loads(trace_out.read_text()))
    rep = {
        "wall_s": sum(latencies) / 1000.0,
        "raw_wall_s": sum(raw),
        "latencies_ms": latencies,
        "peak_rss_mb": max(rss),
    }
    if trace:
        rep["trace"] = merge_traces(traces)
        rep["driver_s"] = {}
    return rep


def cli_workload(seed: int, seconds: float, trace: bool, tally: Tally) -> dict:
    s = known.suite_seed(seed)
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"cli-{os.getpid()}"
    inputs = scratch / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        run_child("inputs", str(inputs), str(s))  # kept out of every metric
        commands = json.loads((inputs / "manifest.json").read_text())
        random.Random(seed).shuffle(commands)
        digests = known.load_digests().get(str(s), {})
        return measure(
            lambda traced: cli_rep(commands, inputs, scratch, digests, traced, tally),
            seconds, trace, tally,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "ringbench" / "__init__.py").is_file():
        raise HarnessError(f"no ringbench sources under {SRC}: perfbench/ must sit in a checkout")
    hostspeed.pin_to_one_core()
    tally = Tally()
    if workload == "cli":
        metrics = cli_workload(seed, seconds, trace, tally)
    else:
        if workload == "acceptance":
            seeds, names = [known.suite_seed(seed)], known.ACCEPTANCE_DRIVERS
        else:
            seeds, names = known.strength_seeds(seed), known.STRENGTH_DRIVERS
        metrics = measure(
            lambda traced: driver_rep(seeds, names, traced, tally), seconds, trace, tally
        )
    for reason in tally.broken + tally.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    failed = len(tally.reasons)
    return {
        "correct": failed == 0 and not tally.broken,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=known.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
