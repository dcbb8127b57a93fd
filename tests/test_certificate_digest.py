"""Every field of every prop-lattice certificate, pinned by a SHA-256 digest.

The digests were recorded from the int64 implementation; any change to a
count, height, round-trip or monotonicity verdict, pair index or failure
string of any of the 700 certificates per suite seed changes them.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from ringbench import corpus
from ringbench import idempotents as idem

CERTIFICATE_DIGESTS = {
    1729: "bee6eb5d24872970a0533f0bfc5661f2733d9e905d5efdda010fb471942d8f5d",
    3: "70d01dc3e073fcab27914f9bf50baf95b45e391f0b2adb18ee72fd378672767c",
}


def certificate_digest(seed: int) -> tuple[int, str]:
    """(certificate count, digest) over the prop-lattice loop at ``seed``."""
    h = hashlib.sha256()
    count = 0
    for inst in corpus.generate_suite("prop-2.4", seed):
        table = idem.peirce_table(idem.validate_complete_set(inst.ring, inst.idempotents))
        if not idem.strong_condition_report(table).strong:
            continue
        for i in range(table.size):
            for j in range(table.size):
                if table.components[i][j].is_zero():
                    continue
                for side in ("left", "right"):
                    cert = idem.corner_lattice_correspondence(table, i, j, side)
                    record = [inst.name, cert.ok] + [
                        [f.name, getattr(cert, f.name)] for f in fields(cert)
                    ]
                    h.update(json.dumps(record).encode() + b"\n")
                    count += 1
    return count, h.hexdigest()


@pytest.mark.parametrize("seed", sorted(CERTIFICATE_DIGESTS))
def test_certificates_match_recorded_digest(seed):
    assert certificate_digest(seed) == (700, CERTIFICATE_DIGESTS[seed])
