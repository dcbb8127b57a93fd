"""Record the sha256 of every cli-workload command's ``--no-timings`` output.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json for every seed in known.SUITE_SEEDS.  A
command is recorded only when its exit code and report match the known
answer, so the digests pin outputs that were already correct.  Re-record
only on purpose: the benchmark compares later outputs byte for byte with
these, which is how it guards the rule that ``--no-timings`` reruns stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import known
import run


def main() -> int:
    scratch = run.WORK / "record"
    inputs = scratch / "inputs"
    digests = {}
    try:
        for seed in known.SUITE_SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            inputs.mkdir(parents=True)
            run.run_child("inputs", str(inputs), str(seed))
            commands = json.loads((inputs / "manifest.json").read_text())
            recorded = {}
            for cmd in commands:
                argv = [sys.executable, "-m", "ringbench.cli", "--no-timings", *cmd["argv"]]
                code, out, _, _ = run.run_command(argv, inputs, scratch)
                reason = known.check_answer(cmd, code, out)
                if reason is not None:
                    print(f"seed {seed}: {reason}", file=sys.stderr)
                    return 1
                recorded[cmd["label"]] = hashlib.sha256(out).hexdigest()
            digests[str(seed)] = recorded
            print(f"seed {seed}: {len(recorded)} commands", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (known.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
