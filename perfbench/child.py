"""One fresh interpreter of the benchmark.  Run by run.py, never imported.

    child.py probe
    child.py drivers SEEDS NAMES [--trace]
    child.py inputs DIR SUITE_SEED
    child.py shim TRACE_OUT CLI_ARG...

``probe`` and ``drivers`` print one JSON line.  Set-up time and peak memory
are measured here, in the child: set-up from this file's first statement
until ringbench and all its submodules are imported (the harness corrects it
to nominal host speed).  Untraced ``drivers`` runs correct every driver's
time to nominal host speed from chunks sampled while it runs
(hostspeed.py); traced runs take raw times.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import ringbench  # noqa: E402,F401
import ringbench.cli  # noqa: E402  (imports every other submodule)
import ringbench.verify  # noqa: E402

SETUP_S = time.perf_counter() - T0

import hostspeed  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_drivers(seeds: list[int], names: list[str], trace: bool) -> dict:
    tracer = sampler = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = hostspeed.Sampler()
        sampler.start()
    ops, spans = [], []
    start = time.perf_counter()
    for seed in seeds:
        for name in names:
            op = {"name": name, "seed": seed, "ok": None, "checked": None, "error": None}
            t0 = time.perf_counter()
            try:
                result = ringbench.verify.PROP_CHECKS[name](seed)
                op["ok"], op["checked"] = result.ok, result.checked
            except Exception as exc:  # counted as a failed operation by the parent
                op["error"] = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            ops.append(op)
    end = time.perf_counter()
    out = {"peak_rss_mb": peak_rss_mb(), "ops": ops}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["raw_wall_s"] = out["wall_s"] = end - start
        for op, (t0, t1) in zip(ops, spans):
            op["seconds"] = t1 - t0
        return out
    sampler.stop()
    out.update(
        wall_s=sampler.corrected(start, end),
        raw_wall_s=sampler.raw(start, end),
    )
    for op, (t0, t1) in zip(ops, spans):
        op["seconds"] = sampler.corrected(t0, t1)
    return out


def run_shim(trace_out: str, argv: list[str]) -> int:
    """Trace one CLI command: install the wrappers, then call cli.main."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return ringbench.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        print(json.dumps({"setup_s": SETUP_S}))
    elif mode == "drivers":
        seeds = [int(s) for s in argv[1].split(",")]
        names = argv[2].split(",")
        print(json.dumps(run_drivers(seeds, names, "--trace" in argv[3:])))
    elif mode == "inputs":
        from pathlib import Path

        from cli_inputs import write_inputs

        write_inputs(Path(argv[1]), int(argv[2]))
    elif mode == "shim":
        return run_shim(argv[1], argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
