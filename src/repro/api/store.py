"""Persistent certificate store: certify once, re-verify many times.

A :class:`CertificateStore` is a directory of certified instances keyed
by ``(graph fingerprint, property key)``.  Each entry persists exactly
what a verification round needs — the configuration (graph + vertex
identifiers), the verifier half of the scheme, and the labeling in
**wire form** (the shared :class:`~repro.codec.WireHeader` plus one
encoded byte string per edge; see ``docs/FORMAT.md``) — so a fresh
process can :meth:`load` the entry and run
:meth:`~repro.api.runtime.VerificationEngine.verify` (or
``session.verify(report)``) without ever re-running a prover stage.

    store = CertificateStore("certs/")
    report = certify(graph, "connected", k=2, store=store)   # saved
    ...
    # later, possibly in another process:
    loaded = store.load(graph.fingerprint(), "connected")
    verification = store_session.verify(loaded)              # no proving

The on-disk envelope is a pickled manifest (magic-prefixed, versioned):
graphs, identifiers, and algebra states are arbitrary Python values, so
the *container* uses pickle while the certificate payloads themselves
stay raw codec bytes — the part whose size the paper bounds and the
reports measure.  Entries record the graph fingerprint they were proven
against and :meth:`load` recomputes it, so a corrupted or swapped graph
is rejected instead of silently verified.

What :meth:`load` checks eagerly: the manifest (magic, version, fields,
property key, fingerprint), the stored graph's fingerprint, and each
label's framing (its ``bit_length`` fits its bytes).  It also stamps the
labeling's wire digest over the raw bytes.  The certificate fields are
decoded on first read of ``report.labeling.mapping``, so a round that
attaches a persisted compiled round by that digest decodes nothing.  A
field-level decode error surfaces at that first read, as the same
:class:`StoreError` ("corrupted certificate payload in ...").  Bytes
that fail to decode can never attach: the digest covers every label
byte and bit length, so no compiled round was ever stored under them.

Layout (v2, service-grade)
--------------------------
Entries live in **fingerprint-prefix shards**: ``<root>/<fp[:2]>/<fp
prefix>-<property slug>.cert``.  256 shards keep directory listings
short under millions of entries and let concurrent writers touch
disjoint directories (see ``docs/FORMAT.md`` § "Sharded store layout").

Concurrent-writer safety: :meth:`save` writes to a uniquely named temp
file in the destination shard and publishes it with :func:`os.replace`,
so readers never observe half an entry and two processes saving the same
key cannot interleave bytes — last writer wins wholesale.  A crash
between write and publish leaves only a ``*.tmp`` orphan, which
:meth:`clean_orphans` (called by :meth:`compact`) removes once stale.

Capacity: pass ``byte_budget=`` to bound the store's on-disk size.
:meth:`compact` (triggered by :meth:`save` when a budget is set) evicts
least-recently-used entries — :meth:`load` bumps an entry's mtime, so
recency is observable across processes — until the budget holds.  A
:class:`StoreMetrics` instance counts hits/misses/saves/evictions for
the service layer's observability snapshot.
"""

from __future__ import annotations

import itertools
import os
import pickle
import re
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Optional

from repro.codec import (
    WIRE_VERSION,
    CodecError,
    EncodedLabel,
    EncodedLabeling,
    decode_labeling_columnar,
    stamp_wire_digest,
)
# Bound under this module-level name because it is the name the
# benchmark tracer wraps for the codec.encode span.
from repro.codec import encode_labeling as encode_labeling_columnar
from repro.core.scheme import CertifyingScheme
from repro.courcelle.registry import resolve_algebra
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling

#: File magic + envelope version; bumped when the manifest layout changes
#: (the label payload format is versioned separately by WIRE_VERSION).
STORE_MAGIC = b"repro-cert\x00"
STORE_VERSION = 1

#: Shard name length: 2 hex characters of the fingerprint = 256 shards.
SHARD_PREFIX_LEN = 2

#: Temp files older than this are crash orphans, not writes in flight.
ORPHAN_AGE_SECONDS = 300.0

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")
_SHARD_RE = re.compile(r"^[0-9a-f]{%d}$" % SHARD_PREFIX_LEN)
_TMP_COUNTER = itertools.count()


class StoreError(ValueError):
    """Raised on missing, corrupted, or mismatched store entries."""


class StoreMetrics:
    """Lifetime counters for one store (thread-safe increments).

    ``hits``/``misses`` count :meth:`CertificateStore.load` outcomes
    (a miss is a lookup of an absent entry; corruption raises *and*
    counts as a miss — the entry is unusable either way), ``saves``
    successful publishes, ``evictions``/``bytes_evicted`` what
    :meth:`~CertificateStore.compact` removed, and ``orphans_cleaned``
    stale temp files removed.  The incremental layer
    (:mod:`repro.incremental`) records its reuse against the store that
    backs it — :data:`INCREMENTAL_FIELDS`: ``updates`` edit batches
    applied, ``bags_dirtied`` by their decomposition repairs,
    ``artifacts_reused`` resolved from the artifact cache instead of
    re-proven, and ``full_fallbacks`` (repairs that gave up and re-ran
    the full search).  :meth:`snapshot` returns a JSON-safe dict; the
    service layer embeds it in its own metrics snapshot.
    """

    INCREMENTAL_FIELDS = (
        "updates",
        "bags_dirtied",
        "artifacts_reused",
        "full_fallbacks",
    )

    FIELDS = (
        "hits",
        "misses",
        "saves",
        "evictions",
        "bytes_evicted",
        "orphans_cleaned",
    ) + INCREMENTAL_FIELDS

    def __init__(self):
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"StoreMetrics({pairs})"


class _DecodeOnRead(Mapping):
    """``labeling.mapping`` of a loaded entry: decodes on first read.

    A read-only mapping over the entry's :class:`EncodedLabeling`.
    Keys and ``len`` come from the wire form; the first item access
    runs the bulk decoder once and serves every later read from its
    result.  A round that attaches a persisted compiled round
    reads no certificate, so it never pays for the decode.  A
    :class:`CodecError` surfaces as the same :class:`StoreError` an
    eager load raised.
    """

    __slots__ = ("_encoded", "_path", "_decoded")

    def __init__(self, encoded: EncodedLabeling, path: Path):
        self._encoded = encoded
        self._path = path
        self._decoded = None

    def _labels(self) -> dict:
        decoded = self._decoded
        if decoded is None:
            try:
                # Bulk decode: equal to encoded.decode(), with shared
                # sub-structure interned across edges.
                decoded = decode_labeling_columnar(self._encoded).mapping
            except CodecError as exc:
                raise StoreError(
                    f"corrupted certificate payload in {self._path}: {exc}"
                ) from exc
            self._decoded = decoded
        return decoded

    def __getitem__(self, key):
        return self._labels()[key]

    def get(self, key, default=None):
        # The verifier resolves its certificate column through get.
        return self._labels().get(key, default)

    def __iter__(self):
        return iter(self._encoded.labels)

    def __len__(self) -> int:
        return len(self._encoded.labels)


def _slug(text: str) -> str:
    """Human-readable filename stem for a property key.

    Distinct keys can collide after slugging (e.g. the session's
    duplicate suffix ``colorable#2`` vs a real ``colorable-2`` key), so
    the stem always ends with a short digest of the *exact* key — two
    different keys never share an entry path.
    """
    import hashlib

    stem = _SLUG_RE.sub("-", text) or "property"
    digest = hashlib.blake2b(text.encode(), digest_size=4).hexdigest()
    return f"{stem}-{digest}"


class CertificateStore:
    """A sharded directory of persisted certificates, one file per entry.

    Parameters
    ----------
    root:
        Directory holding the entries (created on first use).  Entry
        files are named ``<fingerprint prefix>-<property slug>-<key
        digest>.cert`` inside the ``<fingerprint[:2]>`` shard — the
        digest keeps distinct property keys on distinct paths even when
        they slug identically; the full fingerprint lives inside the
        envelope and is what :meth:`load` matches on.
    byte_budget:
        Optional cap on the summed size of entry files.  When set,
        :meth:`save` triggers :meth:`compact`, which evicts
        least-recently-used entries until the store fits.  ``None``
        (default) never evicts.
    metrics:
        Optional :class:`StoreMetrics` to count against (a fresh one is
        created otherwise) — share one instance to aggregate several
        stores, or read ``store.metrics.snapshot()``.

    Writers are concurrent-safe (unique temp file + ``os.replace``);
    there is still no cross-process *index*, because the workload is
    append-mostly and fingerprint-addressed — the filesystem is the
    index.
    """

    suffix = ".cert"

    def __init__(self, root, byte_budget: Optional[int] = None, metrics=None):
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError("byte_budget must be positive (or None)")
        self.root = Path(root)
        self.byte_budget = byte_budget
        self.metrics = metrics if metrics is not None else StoreMetrics()
        self._artifact_cache = None

    # ------------------------------------------------------------------
    def artifact_cache(self):
        """The store's persistent prover-artifact cache (lazy, shared).

        Structural artifacts (decomposition, lanes, completion,
        hierarchy) and per-property evaluations live under
        ``<root>/artifacts/``, next to the certificates — see
        :mod:`repro.api.artifacts` and ``docs/FORMAT.md`` § "Artifact
        envelopes".  Sessions carrying this store adopt the cache
        automatically, so a fresh process certifying a previously seen
        graph runs zero structural prover stages.
        """
        if self._artifact_cache is None:
            from repro.api.artifacts import ArtifactCache

            self._artifact_cache = ArtifactCache(self.root / "artifacts")
        return self._artifact_cache

    # ------------------------------------------------------------------
    # Layout: shards.
    # ------------------------------------------------------------------
    def shard_for(self, fingerprint: str) -> Path:
        """The shard directory owning ``fingerprint``."""
        return self.root / fingerprint[:SHARD_PREFIX_LEN]

    def _entry_name(self, fingerprint: str, property_key: str) -> str:
        return f"{fingerprint[:16]}-{_slug(property_key)}{self.suffix}"

    def path_for(self, fingerprint: str, property_key: str) -> Path:
        """Canonical (sharded) entry path for one ``(graph, property)``."""
        return self.shard_for(fingerprint) / self._entry_name(
            fingerprint, property_key
        )

    def _entry_paths(self) -> list:
        """Every entry file, sorted."""
        if not self.root.is_dir():
            return []
        paths = []
        for shard in self.root.iterdir():
            if shard.is_dir() and _SHARD_RE.match(shard.name):
                paths.extend(shard.glob(f"*{self.suffix}"))
        return sorted(paths)

    # ------------------------------------------------------------------
    # Enumeration and accounting.
    # ------------------------------------------------------------------
    def __contains__(self, key) -> bool:
        fingerprint, property_key = key
        return self.path_for(fingerprint, property_key).exists()

    def __len__(self) -> int:
        return len(self._entry_paths())

    def entries(self) -> list:
        """Return ``(fingerprint, property_key, path)`` for every entry."""
        out = []
        for path in self._entry_paths():
            manifest = self._read(path)
            out.append((manifest["fingerprint"], manifest["property_key"], path))
        return out

    def stats(self) -> dict:
        """Layout accounting: entry count, bytes, shards, temp orphans.

        Pure filesystem arithmetic (no envelope is parsed), so it is
        cheap enough for the service metrics snapshot.  Lifetime
        counters (hits/misses/evictions/...) live on :attr:`metrics`.
        """
        paths = self._entry_paths()
        total = 0
        shards = set()
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                continue  # evicted/replaced underneath us mid-walk
            shards.add(path.parent.name)
        orphans = len(self._orphan_paths(max_age_seconds=None))
        snapshot = self.metrics.snapshot()
        return {
            "entries": len(paths),
            "bytes": total,
            "shards": len(shards),
            "tmp_orphans": orphans,
            "byte_budget": self.byte_budget,
            # Edit-stream accounting (repro.incremental) rides along so
            # one stats() call answers "how much work did reuse save".
            "incremental": {
                name: snapshot[name]
                for name in StoreMetrics.INCREMENTAL_FIELDS
            },
        }

    # ------------------------------------------------------------------
    # Eviction / compaction / orphan cleanup.
    # ------------------------------------------------------------------
    def _orphan_paths(self, max_age_seconds: Optional[float]) -> list:
        """Temp files (optionally: older than ``max_age_seconds``)."""
        if not self.root.is_dir():
            return []
        candidates = list(self.root.glob("*.tmp"))
        for shard in self.root.iterdir():
            if shard.is_dir() and _SHARD_RE.match(shard.name):
                candidates.extend(shard.glob("*.tmp"))
        if max_age_seconds is None:
            return sorted(candidates)
        deadline = time.time() - max_age_seconds
        stale = []
        for path in candidates:
            try:
                if path.stat().st_mtime <= deadline:
                    stale.append(path)
            except OSError:
                continue  # the writer finished (or another cleaner won)
        return sorted(stale)

    def clean_orphans(
        self, max_age_seconds: float = ORPHAN_AGE_SECONDS
    ) -> int:
        """Remove stale ``*.tmp`` crash orphans; return how many.

        A temp file younger than ``max_age_seconds`` may be another
        process's write in flight and is left alone — pass ``0`` only
        when no writer can be active (tests, offline compaction).
        """
        removed = 0
        for path in self._orphan_paths(max_age_seconds):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        if removed:
            self.metrics.add("orphans_cleaned", removed)
        return removed

    def compact(self, byte_budget: Optional[int] = None) -> list:
        """Evict least-recently-used entries until the budget holds.

        ``byte_budget`` defaults to the store's own; with neither set
        only orphan cleanup runs.  Recency is the entry file's mtime —
        :meth:`save` writes it fresh and :meth:`load` bumps it, so "used"
        means served, across processes.  Returns the evicted paths.
        The store's own artifact cache directory is never touched: a
        prover artifact miss is a recompute, priced separately.
        """
        self.clean_orphans()
        budget = self.byte_budget if byte_budget is None else byte_budget
        if budget is None:
            return []
        aged = []  # (mtime, size, path)
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        aged.sort()
        evicted = []
        for mtime, size, path in aged:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue  # concurrent eviction/replacement: already gone
            total -= size
            evicted.append(path)
            self.metrics.add("evictions")
            self.metrics.add("bytes_evicted", size)
        return evicted

    # ------------------------------------------------------------------
    def save(self, report) -> Path:
        """Persist one certified report; return the entry path.

        The report must carry its artifacts (``config`` + ``labeling``,
        i.e. it came from a live ``certify`` call, not from JSON) and
        must not be a prover refusal.  The labeling is persisted in wire
        form — ``report.encoded`` when the session already encoded it,
        else encoded here — and the structured report metadata rides
        along so :meth:`load` can hand back a fully populated
        :class:`~repro.api.results.CertificationReport`.

        The write is atomic and concurrent-safe: the envelope goes to a
        uniquely named ``*.tmp`` in the destination shard, then is
        published with :func:`os.replace`.  A reader never sees a
        partial entry; a crash mid-write leaves only a temp orphan for
        :meth:`clean_orphans`.
        """
        if report.refused:
            raise StoreError("cannot store a refused report (no labeling)")
        if report.config is None or report.labeling is None:
            raise StoreError(
                "report carries no artifacts to store (was it rebuilt "
                "from JSON?)"
            )
        encoded = getattr(report, "encoded", None)
        if encoded is None:
            encoded = encode_labeling_columnar(report.labeling)
        config = report.config
        fingerprint = config.graph.fingerprint()
        scheme = report.scheme
        algebra = getattr(scheme, "algebra", None)
        if algebra is None or getattr(scheme, "max_width", None) is None:
            raise StoreError(
                "report scheme must expose the verifier half "
                "(algebra + max_width) to be storable"
            )
        manifest = {
            "store_version": STORE_VERSION,
            "wire_version": WIRE_VERSION,
            "fingerprint": fingerprint,
            "property_key": report.property_key,
            "graph": config.graph,
            "ids": dict(config.ids),
            "algebra_key": getattr(algebra, "key", None),
            "algebra": algebra,
            "max_width": scheme.max_width,
            "header": encoded.header,
            "labels": {
                key: (enc.data, enc.bit_length)
                for key, enc in encoded.labels.items()
            },
            "location": encoded.location,
            "report": report.to_dict(),
        }
        path = self.path_for(fingerprint, report.property_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = STORE_MAGIC + pickle.dumps(manifest, protocol=4)
        # Unique temp name: two concurrent writers of the same entry
        # never share a temp file, so neither can publish the other's
        # half-written bytes.  Deliberately matches the "*.tmp" orphan
        # glob and not the "*.cert" entry glob.
        tmp = path.parent / (
            f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER):x}.tmp"
        )
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.metrics.add("saves")
        if self.byte_budget is not None:
            self.compact()
        return path

    # ------------------------------------------------------------------
    def _read(self, path: Path) -> dict:
        try:
            payload = Path(path).read_bytes()
        except OSError as exc:
            raise StoreError(f"cannot read store entry {path}: {exc}") from exc
        if not payload.startswith(STORE_MAGIC):
            raise StoreError(f"{path} is not a certificate store entry")
        try:
            manifest = pickle.loads(payload[len(STORE_MAGIC):])
        except Exception as exc:
            # Truncated/bit-flipped envelopes must surface as the
            # documented StoreError, not a raw pickle exception.
            raise StoreError(
                f"corrupted store envelope in {path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise StoreError(f"corrupted store envelope in {path}")
        if manifest.get("store_version") != STORE_VERSION:
            raise StoreError(
                f"unsupported store version {manifest.get('store_version')} "
                f"in {path} (this build speaks v{STORE_VERSION})"
            )
        missing = [
            key
            for key in (
                "fingerprint",
                "property_key",
                "graph",
                "ids",
                "algebra",
                "algebra_key",
                "max_width",
                "header",
                "labels",
                "location",
                "report",
            )
            if key not in manifest
        ]
        if missing:
            raise StoreError(
                f"store entry {path} is missing fields: {', '.join(missing)}"
            )
        return manifest

    def load(
        self,
        fingerprint: str,
        property_key: str,
        path: Optional[Path] = None,
        decode: bool = True,
    ):
        """Rehydrate one entry as a ready-to-verify report.

        Returns a :class:`~repro.api.results.CertificationReport` whose
        artifacts (``config``, verifier-half ``scheme``, ``labeling``,
        and the wire-form ``encoded``) are reconstructed from disk:
        ``session.verify(report)`` or a bare
        :class:`~repro.api.runtime.VerificationEngine` can run the round
        immediately, with zero prover stages.  The stored graph is
        re-fingerprinted on load and must match both the requested and
        the recorded fingerprint.

        Validated here: the manifest, the graph fingerprint, and each
        label's framing (``bit_length`` within its bytes); the wire
        digest is stamped on the labeling.  The labeling's mapping
        decodes the certificates on first read, once; a field-level
        decode error raises :class:`StoreError` ("corrupted certificate
        payload") at that read — inside the verification round — not
        here.

        ``decode=False`` returns ``report.labeling = None`` and skips
        the framing check and the digest, while ``report.encoded`` and
        the report metadata are fully populated: the path for callers
        that serve the certificate without replaying the round (the
        service layer's ``verify: false`` certify requests);
        completeness makes that safe, and ``reverify`` replays the
        round on demand.

        Serving an entry bumps its mtime, which is the recency signal
        :meth:`compact` evicts against.
        """
        path = path or self.path_for(fingerprint, property_key)
        try:
            manifest = self._read(path)
        except StoreError:
            self.metrics.add("misses")
            raise
        if manifest["property_key"] != property_key:
            self.metrics.add("misses")
            raise StoreError(
                f"{path} holds property {manifest['property_key']!r}, "
                f"not {property_key!r}"
            )
        if manifest["fingerprint"] != fingerprint:
            self.metrics.add("misses")
            raise StoreError(
                f"{path} holds fingerprint "
                f"{manifest['fingerprint'][:16]}..., caller asked for "
                f"{fingerprint[:16]}..."
            )
        report = self._rehydrate(manifest, path, decode=decode)
        self.metrics.add("hits")
        try:
            os.utime(path)  # LRU recency bump (shared, cross-process)
        except OSError:
            pass  # read-only store: eviction recency degrades to save time
        return report

    def _rehydrate(self, manifest: dict, path: Path, decode: bool = True):
        """Build the ready-to-verify report from a validated manifest."""
        from repro.api.results import CertificationReport

        graph = manifest["graph"]
        observed = graph.fingerprint()
        if observed != manifest["fingerprint"]:
            raise StoreError(
                f"graph fingerprint mismatch in {path}: entry claims "
                f"{manifest['fingerprint'][:16]}..., graph hashes to "
                f"{observed[:16]}..."
            )
        encoded = EncodedLabeling(
            header=manifest["header"],
            labels={
                key: EncodedLabel(data=data, bit_length=bits)
                for key, (data, bits) in manifest["labels"].items()
            },
            location=manifest["location"],
        )
        labeling = None
        if decode:
            # Framing is O(1) a label and checked here; the fields are
            # decoded on first read (see _DecodeOnRead).
            for label in encoded.labels.values():
                bits = label.bit_length
                if bits is not None and bits > 8 * len(label.data):
                    raise StoreError(
                        f"corrupted certificate payload in {path}: "
                        "malformed label encoding: bit_length exceeds "
                        "the supplied data"
                    )
            labeling = Labeling(
                location=encoded.location,
                mapping=_DecodeOnRead(encoded, path),
                size_context=encoded.header.size_context(),
            )
            # Stamp the wire identity so a reverify round can attach a
            # persisted compiled round without decoding or compiling.
            stamp_wire_digest(labeling, encoded)
        algebra = manifest["algebra"]
        if algebra is None and manifest["algebra_key"] is not None:
            algebra = resolve_algebra(manifest["algebra_key"])
        config = Configuration(graph, manifest["ids"])
        scheme = CertifyingScheme(algebra, manifest["max_width"])
        report = CertificationReport.from_dict(manifest["report"])
        report.config = config
        report.scheme = scheme
        report.labeling = labeling
        report.encoded = encoded
        return report

    def load_path(self, path) -> "CertificationReport":
        """Rehydrate an entry from an explicit file path.

        The manifest is read and validated once (no double parse); the
        recorded fingerprint is still checked against the stored graph.
        """
        path = Path(path)
        return self._rehydrate(self._read(path), path)

    # ------------------------------------------------------------------
    def reverify(
        self,
        fingerprint: str,
        property_key: str,
        engine=None,
    ):
        """Load one entry and run the verification round on it.

        Returns the loaded report with ``report.verification`` /
        ``report.accepted`` refreshed by the round — the certify-once /
        re-verify-many fast path, with no prover stage anywhere.
        """
        from repro.api.runtime import VerificationEngine

        report = self.load(fingerprint, property_key)
        engine = engine or VerificationEngine()
        verification = engine.verify(
            report.config, report.scheme, report.labeling
        )
        report.verification = verification
        report.result = verification.as_result()
        report.accepted = verification.accepted
        return report
