"""Output checks: recorded result digests per (workload, seed).

``digests.json`` maps workload -> seed -> {cell or request id: digest},
where a digest is the state digest :func:`repro.service.http.encode_result`
gives a simulation result.  A run compares every result it produces with
the digest recorded for its (workload, seed), and every repeat of a cell
with its first run.  ``python3 perfbench/run.py --record ...`` writes the
record for one (workload, seed).
"""

from __future__ import annotations

import json
import os

from repro.service.http import encode_result

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

#: The seed perf work is tuned on, and one kept out of tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729


def result_digest(result) -> str:
    return encode_result(result)["digest"]


def load_record(workload: str, seed: int, path: str = DIGESTS_PATH):
    """The recorded ``{id: digest}`` for (workload, seed), or None."""
    try:
        with open(path) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def save_record(workload: str, seed: int, digests: dict,
                path: str = DIGESTS_PATH) -> None:
    try:
        with open(path) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    with open(path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


class DigestCheck:
    """Counts results whose digest differs from the expected one.

    The expected digest of an id is the recorded one when the (workload,
    seed) has a record, else the first digest seen for that id in the run.
    """

    def __init__(self, record: dict | None) -> None:
        self.record = record
        self.seen: dict = {}
        self.checked = 0
        self.mismatches: list = []

    def check(self, ident: str, digest: str) -> bool:
        self.checked += 1
        expected = self.seen.setdefault(ident, digest)
        if self.record is not None:
            expected = self.record.get(ident)
        if digest != expected:
            self.mismatches.append((ident, digest, expected))
            return False
        return True

    def missing(self) -> list:
        """Recorded ids the run never produced."""
        if self.record is None:
            return []
        return sorted(set(self.record) - set(self.seen))

    def settle(self, outcome) -> None:
        """Count recorded ids never produced as failed; note mismatches."""
        missing = self.missing()
        outcome.failed += len(missing)
        outcome.attempted += len(missing)
        outcome.notes.extend("recorded id %s never ran" % i for i in missing)
        outcome.notes.extend("digest mismatch %s: %s != %s" % m
                             for m in self.mismatches[:5])
