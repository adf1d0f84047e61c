"""Content-addressed, versioned, crash-safe result cache.

One completed simulation result per file, keyed by the request's
canonical digest (:func:`repro.service.request.request_digest`) and
sharded by the digest's first byte::

    <root>/ab/abcdef...0123.res

Each file holds one pickled envelope::

    {
        "store_version": RESULT_STORE_VERSION,
        "digest": "<request digest>",     # must match the filename key
        "fingerprint": {...},             # canonical request tree
        "checksum": "<blake2b of body>",  # integrity of the result bytes
        "meta": {...},                    # elapsed seconds, mode, ...
        "result": <pickle bytes of the result object>,
    }

Writes follow the repo's atomic-replace idiom (same-directory temp file,
fsync, ``os.replace``): a reader only ever sees a complete entry.  Reads
validate everything — version, key, checksum, and (when the caller
passes one) the request fingerprint — and treat any mismatch as a miss.
A cache must never be load-bearing for correctness: the worst a damaged
entry may cause is recomputation.

**Damaged entries are quarantined, never deleted.**  An entry that fails
validation is moved to ``<root>/quarantine/`` with a JSON *reason
sidecar* (failure code, human reason, timestamp) instead of being
unlinked: corruption is evidence — of a dying disk, a torn writer, a
version skew — and deleting it silently destroys the forensics while
looking identical to a plain miss.  Quarantined files never match a
shard path, so they can never poison later lookups; reclaiming the disk
is an explicit operator action (empty the quarantine directory).

:meth:`ResultStore.scrub` is the proactive form of the same discipline:
sweep every shard, checksum-verify every entry, quarantine failures, and
optionally *repair* them — an entry whose envelope still carries a
readable request fingerprint names its own recomputation, so a repair
callback (the service, in ``repro-serve scrub --repair``) can resubmit
the fingerprinted request and refill the slot.  Truncated-beyond-parsing
entries are unrepairable from the store alone and simply degrade to a
future cache miss.

Invalidation is by version, not by deletion sweeps:
:data:`RESULT_STORE_VERSION` guards this file format, while
``RESULT_SCHEMA_VERSION`` (hashed into every digest) guards what results
*mean*.  Bumping either orphans old entries; :meth:`ResultStore.prune`
sweeps them into quarantine.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field

__all__ = [
    "QUARANTINE_DIRNAME",
    "RESULT_STORE_VERSION",
    "ResultStore",
    "ScrubReport",
    "StoreStats",
    "atomic_write_json",
]

#: Bump when the envelope layout above changes incompatibly.
RESULT_STORE_VERSION = 1

_SUFFIX = ".res"
_HEXDIGITS = set("0123456789abcdef")

#: Subdirectory (under the store root) damaged entries are moved into.
QUARANTINE_DIRNAME = "quarantine"

# Failure-taxonomy codes for store-entry damage (the store-side half of
# the taxonomy in :mod:`repro.failures`).
CODE_UNREADABLE = "unreadable"
CODE_BAD_ENVELOPE = "bad_envelope"
CODE_VERSION_MISMATCH = "version_mismatch"
CODE_WRONG_DIGEST = "wrong_digest"
CODE_CHECKSUM_MISMATCH = "checksum_mismatch"
CODE_FINGERPRINT_MISMATCH = "fingerprint_mismatch"
CODE_UNDECODABLE_RESULT = "undecodable_result"


def _checksum(body: bytes) -> str:
    return hashlib.blake2b(body, digest_size=16).hexdigest()


def atomic_write_json(path: str, tree) -> None:
    """Write *tree* as JSON with the store's crash-safe idiom.

    Same-directory temp file, fsync, then ``os.replace``: a reader (or a
    scrub after a crash) only ever sees the old file, the new file, or a
    stray ``*.tmp.<pid>`` it knows to ignore — never a torn JSON body.
    Every JSON sidecar in the serving tier (quarantine reasons, poison-job
    records, the stats sidecar) goes through here.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "w") as handle:
            json.dump(tree, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


@dataclass
class StoreStats:
    """Lookup/write counters since this store object was created."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Entries quarantined on read or scrub: corrupt, wrong version,
    #: checksum or fingerprint mismatch.  Read-path quarantines are
    #: always also counted as a miss.
    invalidated: int = 0
    #: Quarantine counts by failure code (``checksum_mismatch``, ...).
    quarantined: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidated": self.invalidated,
            "quarantined": dict(self.quarantined),
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class ScrubReport:
    """Outcome of one :meth:`ResultStore.scrub` pass."""

    scanned: int = 0
    ok: int = 0
    #: Quarantined during this pass, by failure code.
    quarantined: dict = field(default_factory=dict)
    repaired: int = 0
    #: Damaged entries with no recoverable fingerprint (or whose repair
    #: failed): they stay quarantined and will recompute on next demand.
    unrepaired: int = 0
    #: Per-entry detail: {digest, code, reason, repaired}.
    entries: list = field(default_factory=list)

    @property
    def corrupt(self) -> int:
        return sum(self.quarantined.values())

    @property
    def clean(self) -> bool:
        return self.corrupt == 0

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": self.corrupt,
            "quarantined": dict(self.quarantined),
            "repaired": self.repaired,
            "unrepaired": self.unrepaired,
            "entries": list(self.entries),
        }

    def render(self) -> str:
        lines = [
            "scrub: %d scanned, %d ok, %d corrupt (%d repaired, %d left "
            "quarantined)"
            % (self.scanned, self.ok, self.corrupt, self.repaired,
               self.unrepaired),
        ]
        for code in sorted(self.quarantined):
            lines.append("  %-22s %d" % (code, self.quarantined[code]))
        for entry in self.entries:
            lines.append(
                "  %s %s%s"
                % (entry["digest"][:12], entry["code"],
                   " (repaired)" if entry["repaired"] else "")
            )
        return "\n".join(lines)


class ResultStore:
    """Digest-keyed result cache rooted at *directory* (created lazily)."""

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self.stats = StoreStats()

    def path(self, digest: str) -> str:
        if not digest or any(c not in _HEXDIGITS for c in digest):
            raise ValueError("not a hex digest: %r" % (digest,))
        return os.path.join(self.directory, digest[:2], digest + _SUFFIX)

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self.path(digest))

    # -- lookups --------------------------------------------------------------

    def get(self, digest: str, fingerprint: dict | None = None):
        """The cached result object for *digest*, or ``None`` on a miss.

        Every returned object passed its checksum; an entry that fails
        validation is quarantined (counted in ``stats.invalidated`` and
        by code in ``stats.quarantined``) and reported as a miss.
        """
        envelope, code, reason = self._load(digest, fingerprint)
        if envelope is None and code is None:
            self.stats.misses += 1
            return None
        if code is not None:
            self._quarantine(self.path(digest), code, reason)
            self.stats.misses += 1
            return None
        try:
            result = pickle.loads(envelope["result"])
        except Exception as exc:  # noqa: BLE001
            self._quarantine(
                self.path(digest), CODE_UNDECODABLE_RESULT,
                "result bytes undecodable: %s" % exc,
            )
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _load(self, digest: str, fingerprint: dict | None = None):
        """Read and validate one entry without touching hit/miss stats.

        Returns ``(envelope, code, reason)``: a clean entry is
        ``(envelope, None, None)``; a missing one ``(None, None, None)``;
        damage is ``(envelope_or_None, code, reason)`` — the envelope is
        included when it parsed (its fingerprint may still direct a
        repair) and ``None`` when the file itself was unreadable.
        """
        try:
            with open(self.path(digest), "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None, None, None
        except Exception as exc:  # noqa: BLE001 - any damage is damage
            return None, CODE_UNREADABLE, (
                "unreadable: %s: %s" % (type(exc).__name__, exc)
            )
        code, reason = self._validate(envelope, digest, fingerprint)
        return envelope, code, reason

    def _validate(self, envelope, digest, fingerprint):
        if not isinstance(envelope, dict) or "result" not in envelope:
            return CODE_BAD_ENVELOPE, "not a result envelope"
        version = envelope.get("store_version")
        if version != RESULT_STORE_VERSION:
            return CODE_VERSION_MISMATCH, (
                "store version %r (this build reads %d)"
                % (version, RESULT_STORE_VERSION)
            )
        if envelope.get("digest") != digest:
            return CODE_WRONG_DIGEST, "filed under the wrong digest"
        body = envelope["result"]
        if not isinstance(body, bytes):
            return CODE_BAD_ENVELOPE, "result body is not bytes"
        if _checksum(body) != envelope.get("checksum"):
            return CODE_CHECKSUM_MISMATCH, (
                "checksum mismatch (torn or corrupted entry)"
            )
        if (fingerprint is not None
                and envelope.get("fingerprint") != fingerprint):
            return CODE_FINGERPRINT_MISMATCH, "request fingerprint mismatch"
        return None, None

    # -- quarantine -----------------------------------------------------------

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIRNAME)

    def _quarantine(self, path: str, code: str, reason: str) -> str | None:
        """Move a damaged entry into quarantine with a reason sidecar.

        Returns the quarantined path (``None`` if the entry vanished —
        a concurrent reader already moved it; their sidecar stands).
        """
        self.stats.invalidated += 1
        self.stats.quarantined[code] = (
            self.stats.quarantined.get(code, 0) + 1
        )
        self.stats.errors.append(
            "%s: %s" % (os.path.basename(path), reason)
        )
        os.makedirs(self.quarantine_dir, exist_ok=True)
        name = os.path.basename(path)
        dest = os.path.join(self.quarantine_dir, name)
        suffix = 0
        while os.path.exists(dest):
            suffix += 1
            dest = os.path.join(self.quarantine_dir,
                                "%s.%d" % (name, suffix))
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return None
        except OSError:
            # Can't move (permissions, dead dir): fall back to unlink so
            # the damage at least cannot poison later lookups.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        sidecar = {
            "file": os.path.basename(dest),
            "code": code,
            "reason": reason,
            "quarantined_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        }
        try:
            atomic_write_json(dest + ".reason.json", sidecar)
        except OSError:
            pass  # forensics are best-effort; the move already happened
        return dest

    def quarantine_summary(self) -> dict:
        """On-disk quarantine census: ``{"total": n, "by_code": {...}}``.

        Reads the reason sidecars, so it reflects every quarantine ever
        performed against this directory, not just this process's.
        """
        total = 0
        by_code: dict = {}
        qdir = self.quarantine_dir
        if os.path.isdir(qdir):
            for name in sorted(os.listdir(qdir)):
                if not name.endswith(".reason.json"):
                    continue
                total += 1
                try:
                    with open(os.path.join(qdir, name)) as handle:
                        code = json.load(handle).get("code", "unknown")
                except (OSError, ValueError):
                    code = "unknown"
                by_code[code] = by_code.get(code, 0) + 1
        return {"total": total, "by_code": by_code}

    # -- writes ---------------------------------------------------------------

    def put(
        self,
        digest: str,
        result,
        fingerprint: dict | None = None,
        meta: dict | None = None,
    ) -> str:
        """Atomically cache *result* under *digest*; returns the path."""
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "store_version": RESULT_STORE_VERSION,
            "digest": digest,
            "fingerprint": fingerprint,
            "checksum": _checksum(body),
            "meta": dict(meta or {}),
            "result": body,
        }
        path = self.path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(envelope, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.stats.puts += 1
        return path

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list:
        """Digests currently on disk (unvalidated).

        Only two-hex-char shard directories are swept: the quarantine
        (and any snapshot) directory under the root never contributes.
        """
        found = []
        if not os.path.isdir(self.directory):
            return found
        for shard in sorted(os.listdir(self.directory)):
            if len(shard) != 2 or any(c not in _HEXDIGITS for c in shard):
                continue
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(_SUFFIX):
                    found.append(name[: -len(_SUFFIX)])
        return found

    def invalidate(self, digest: str) -> bool:
        """Drop one entry; returns whether it existed."""
        try:
            os.unlink(self.path(digest))
            return True
        except FileNotFoundError:
            return False

    def scrub(self, repair=None) -> ScrubReport:
        """Sweep every shard, quarantine damage, optionally repair it.

        *repair*, when given, is called as ``repair(digest,
        fingerprint)`` for each quarantined entry whose envelope still
        carried a readable request fingerprint; it should recompute the
        fingerprinted request, re-``put`` the result, and return truthy.
        The refilled entry is re-validated before being counted as
        repaired.  Entries with no recoverable fingerprint (truncated
        files) stay quarantined and degrade to a future cache miss —
        which the content-addressed design makes correctness-neutral.
        """
        report = ScrubReport()
        for digest in self.entries():
            report.scanned += 1
            envelope, code, reason = self._load(digest)
            if code is None:
                if envelope is None:
                    continue  # raced away between listing and reading
                report.ok += 1
                continue
            self._quarantine(self.path(digest), code, reason)
            report.quarantined[code] = report.quarantined.get(code, 0) + 1
            fingerprint = None
            if isinstance(envelope, dict):
                candidate = envelope.get("fingerprint")
                if isinstance(candidate, dict):
                    fingerprint = candidate
            repaired = False
            if repair is not None and fingerprint is not None:
                try:
                    repaired = bool(repair(digest, fingerprint))
                except Exception:  # noqa: BLE001 - repair is best-effort
                    repaired = False
                if repaired:
                    _, recheck, _ = self._load(digest)
                    repaired = recheck is None and digest in self
            if repaired:
                report.repaired += 1
            else:
                report.unrepaired += 1
            report.entries.append({
                "digest": digest,
                "code": code,
                "reason": reason,
                "repaired": repaired,
            })
        return report

    def prune(self) -> int:
        """Quarantine every entry that fails validation; returns the count.

        Equivalent to ``scrub()`` without repair, kept for callers that
        only want the count.
        """
        return self.scrub().corrupt
