"""Content-addressed on-disk cache for compiled VPC traces.

Trace *execution* is vectorized and trace *lowering* is batched, which
leaves recompilation as the remaining repeated cost: every figure,
sweep point and fault-campaign repetition lowers the identical workload
again.  This module stores compiled traces on disk under a
content-derived key so that any run which would compile the same trace
loads it instead:

* **Key** — SHA-256 over a canonical JSON of everything the trace bytes
  depend on: workload identity (name, operation fingerprint, scale,
  seed), device geometry, placement policy, and a lowering version
  stamp (:data:`repro.core.compile.LOWERING_VERSION`).  Change any
  input and the key changes, so stale entries are unreachable rather
  than invalidated in place.
* **Value** — one file per entry: a magic header, a JSON metadata block
  (payload checksum plus any auxiliary JSON the caller attaches, e.g.
  the serialized placement plan), and the raw columnar trace bytes.
  Writes are atomic (temp file + ``os.replace``); reads verify the
  checksum and treat any mismatch, truncation or undecodable payload as
  a miss — the corrupt file is deleted and the caller recompiles, so an
  entry is never half-loaded.
* **Front** — a small in-process LRU keeps recently used entries live
  (a campaign's repeated runs hit memory, not disk).

Hit/miss/byte counters go to a
:class:`~repro.obs.metrics.MetricsRegistry` and are also persisted to
``stats.json`` in the cache directory, which is what
``repro-streampim cache stats`` reports across processes.  An
in-memory hit touches no file; its counts are added to ``stats.json``
with the instance's next disk access, ``stats()`` call or finalizer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import TraceFormatError
from repro.obs.metrics import MetricsRegistry

#: Bump when the entry file layout changes (not when lowering changes —
#: that is :data:`repro.core.compile.LOWERING_VERSION`'s job).
TRACE_CACHE_FORMAT = 1

#: Magic prefix of one cache entry file.
_ENTRY_MAGIC = b"SPTC\x01"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_STREAMPIM_CACHE_DIR"

#: Shared registry the CLI and benchmarks read in-process counters from.
CACHE_METRICS = MetricsRegistry()

_STATS_FIELDS = (
    "hits",
    "memory_hits",
    "misses",
    "corrupt",
    "puts",
    "bytes_read",
    "bytes_written",
)


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_STREAMPIM_CACHE_DIR`` or
    ``~/.cache/repro-streampim``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-streampim"


def make_cache_key(**fields: object) -> str:
    """SHA-256 hex digest of a canonical JSON of ``fields``.

    Every field that influences the compiled trace bytes must be
    passed; two calls with equal fields produce equal keys regardless
    of dict ordering.
    """
    canonical = json.dumps(
        fields, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class InflightTracker:
    """Crash-safe record of compiles currently in flight.

    Long-lived serving needs to know which cache keys are being
    compiled *right now* — both for observability and so a worker
    crash mid-compile cannot poison future runs.  Each in-flight
    compile drops a marker file (``inflight/<key>.json`` with the
    owner's pid and start time, written atomically); the marker is
    removed when the compile finishes, successfully or not.

    Crash safety is structural: a marker whose owner pid is dead (or
    which is older than ``max_age_s``) is *stale* and is deleted on
    the next scan, so a killed worker leaves no permanent residue and
    never blocks anything — markers are advisory, correctness still
    comes from the cache's atomic entry writes.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        max_age_s: float = 3600.0,
    ) -> None:
        root = Path(cache_dir) if cache_dir else default_cache_dir()
        self.inflight_dir = root / "inflight"
        if max_age_s <= 0:
            raise ValueError(f"max_age_s must be positive, got {max_age_s}")
        self.max_age_s = max_age_s

    def _marker_path(self, key: str) -> Path:
        return self.inflight_dir / f"{key}.json"

    def mark(self, key: str) -> Path:
        """Record ``key`` as in flight by this process (atomic write)."""
        import time

        path = self._marker_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"key": key, "pid": os.getpid(), "started": time.time()},
            sort_keys=True,
        ).encode("utf-8")
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self, key: str) -> None:
        """Remove ``key``'s marker (compile finished or gave up)."""
        try:
            self._marker_path(key).unlink()
        except OSError:
            pass

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True
        return True

    def active(self) -> Dict[str, Dict[str, object]]:
        """Live in-flight markers, pruning stale ones as a side effect.

        Stale = owner pid no longer running, or marker older than
        ``max_age_s``, or the marker file itself is unreadable (a
        crash mid-write) — all are deleted, never raised.
        """
        import time

        now = time.time()
        live: Dict[str, Dict[str, object]] = {}
        if not self.inflight_dir.is_dir():
            return live
        for path in sorted(self.inflight_dir.glob("*.json")):
            stale = False
            info: Dict[str, object] = {}
            try:
                data = json.loads(path.read_text("utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                data = None
            if not isinstance(data, dict):
                stale = True
            else:
                pid = data.get("pid")
                started = data.get("started")
                if not isinstance(pid, int) or not self._pid_alive(pid):
                    stale = True
                elif (
                    isinstance(started, (int, float))
                    and now - started > self.max_age_s
                ):
                    stale = True
                else:
                    info = {"pid": pid, "started": started}
            if stale:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            live[path.stem] = info
        return live

    def is_inflight(self, key: str) -> bool:
        return key in self.active()


@dataclass
class CacheEntry:
    """One loaded cache entry: the trace plus its attached metadata."""

    key: str
    trace: ColumnarTrace
    aux: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)


class TraceCache:
    """Content-addressed trace store with an in-process LRU front.

    Args:
        cache_dir: entry directory (created lazily); defaults to
            :func:`default_cache_dir`.
        registry: metrics sink; defaults to the module-wide
            :data:`CACHE_METRICS`.
        memory_entries: LRU capacity (0 disables the memory front).
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        registry: Optional[MetricsRegistry] = None,
        memory_entries: int = 8,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.registry = CACHE_METRICS if registry is None else registry
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Counter increments not yet added to ``stats.json``.
        self._pending: Dict[str, int] = {}
        weakref.finalize(self, _flush_at_exit, self.cache_dir, self._pending)

    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        """On-disk path of ``key`` (sharded by the first key byte)."""
        return self.cache_dir / key[:2] / f"{key}.sptc"

    def get(self, key: str) -> Optional[CacheEntry]:
        """Load an entry, or None on miss/corruption (never partial)."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._count("hits", memory=True)
            return entry
        path = self.entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        entry = self._decode_entry(key, blob)
        if entry is None:
            # Checksum/format failure: drop the file so the recompiled
            # entry replaces it, and report a miss to the caller.
            try:
                path.unlink()
            except OSError:
                pass
            self._count("corrupt")
            self._count("misses")
            return None
        self._count("hits", bytes_read=len(blob))
        self._remember(entry)
        return entry

    def put(
        self,
        key: str,
        trace: ColumnarTrace,
        aux: Optional[Dict[str, object]] = None,
        provenance: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Store an entry atomically; returns the entry path."""
        payload = trace.to_bytes()
        meta = {
            "format": TRACE_CACHE_FORMAT,
            "key": key,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "aux": aux or {},
            "provenance": provenance or {},
        }
        meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        blob = (
            _ENTRY_MAGIC
            + len(meta_blob).to_bytes(8, "little")
            + meta_blob
            + payload
        )
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._count("puts", bytes_written=len(blob))
        entry = CacheEntry(
            key=key,
            trace=trace,
            aux=dict(meta["aux"]),
            provenance=dict(meta["provenance"]),
        )
        self._remember(entry)
        return path

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Persistent counters plus the current on-disk footprint."""
        self._flush_stats()
        counters = _read_stats(self.cache_dir)
        entries = 0
        total_bytes = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*/*.sptc"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        counters["entries"] = entries
        counters["entry_bytes"] = total_bytes
        counters["cache_dir"] = str(self.cache_dir)
        return counters

    def clear(self) -> int:
        """Delete every entry (and the persistent counters); returns the
        number of entries removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*/*.sptc"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            try:
                _stats_path(self.cache_dir).unlink()
            except OSError:
                pass
        self._memory.clear()
        self._pending.clear()
        return removed

    # ------------------------------------------------------------------
    def _remember(self, entry: CacheEntry) -> None:
        if self.memory_entries == 0:
            return
        self._memory[entry.key] = entry
        self._memory.move_to_end(entry.key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _decode_entry(self, key: str, blob: bytes) -> Optional[CacheEntry]:
        header = len(_ENTRY_MAGIC) + 8
        if len(blob) < header or not blob.startswith(_ENTRY_MAGIC):
            return None
        meta_len = int.from_bytes(blob[len(_ENTRY_MAGIC) : header], "little")
        if len(blob) < header + meta_len:
            return None
        try:
            meta = json.loads(blob[header : header + meta_len])
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict):
            return None
        if meta.get("format") != TRACE_CACHE_FORMAT or meta.get("key") != key:
            return None
        payload = blob[header + meta_len :]
        if len(payload) != meta.get("payload_bytes"):
            return None
        if hashlib.sha256(payload).hexdigest() != meta.get("payload_sha256"):
            return None
        try:
            trace = ColumnarTrace.from_bytes(payload)
        except TraceFormatError:
            return None
        return CacheEntry(
            key=key,
            trace=trace,
            aux=dict(meta.get("aux") or {}),
            provenance=dict(meta.get("provenance") or {}),
        )

    # ------------------------------------------------------------------
    # Counters: in-process metrics plus a persistent stats.json
    # ------------------------------------------------------------------
    def _count(
        self,
        kind: str,
        memory: bool = False,
        bytes_read: int = 0,
        bytes_written: int = 0,
    ) -> None:
        increments = {kind: 1}
        if memory:
            increments["memory_hits"] = 1
        if bytes_read:
            increments["bytes_read"] = bytes_read
        if bytes_written:
            increments["bytes_written"] = bytes_written
        for name, amount in increments.items():
            self.registry.counter(f"trace_cache.{name}").inc(amount)
        for name, amount in increments.items():
            self._pending[name] = self._pending.get(name, 0) + amount
        if not memory:
            # A memory hit reads no file, so it does not write one
            # either: its counts ride along with this instance's next
            # disk access, its next stats() call, or its finalizer.
            self._flush_stats()

    def _flush_stats(self) -> None:
        _bump_stats(self.cache_dir, self._pending)


# ----------------------------------------------------------------------
# stats.json: best-effort cross-process counters
# ----------------------------------------------------------------------
def _stats_path(cache_dir: Path) -> Path:
    return cache_dir / "stats.json"


def _read_stats(cache_dir: Path) -> Dict[str, int]:
    """Load the persistent counters, tolerating a damaged file.

    A truncated, corrupt, or wrong-shaped ``stats.json`` (a crash
    mid-write on a filesystem without atomic replace, a partial copy,
    manual editing) is treated as *zero counters* and atomically
    regenerated — it must never raise into a caller that only wanted
    to compile a trace.
    """
    counters = {name: 0 for name in _STATS_FIELDS}
    try:
        raw = _stats_path(cache_dir).read_bytes()
    except OSError:
        return counters
    damaged = False
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        data = None
        damaged = True
    if isinstance(data, dict):
        for name in _STATS_FIELDS:
            value = data.get(name)
            if isinstance(value, int) and value >= 0:
                counters[name] = value
            elif name in data:
                damaged = True
    elif data is not None:
        damaged = True
    if damaged:
        # Regenerate a clean file so the damage is not re-read on every
        # future stats bump.
        _write_stats(cache_dir, counters)
    return counters


def _write_stats(cache_dir: Path, counters: Dict[str, int]) -> None:
    """Atomically replace ``stats.json`` (write-temp + replace)."""
    temp_name = None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=cache_dir, prefix=".stats.", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(counters, handle, sort_keys=True)
        os.replace(temp_name, _stats_path(cache_dir))
        temp_name = None
    except OSError:
        pass
    finally:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass


def _bump_stats(cache_dir: Path, pending: Dict[str, int]) -> None:
    """Add ``pending`` to ``stats.json`` and empty it.

    Read-modify-write with an atomic replace.  Concurrent writers may
    drop increments, which is acceptable for operational stats
    (correctness never depends on them).
    """
    if not pending:
        return
    counters = _read_stats(cache_dir)
    for name, amount in pending.items():
        counters[name] = counters.get(name, 0) + amount
    pending.clear()
    _write_stats(cache_dir, counters)


def _flush_at_exit(cache_dir: Path, pending: Dict[str, int]) -> None:
    """A dropped cache's last memory-hit counts, written only while its
    directory still exists (a removed cache stays removed)."""
    if pending and cache_dir.is_dir():
        _bump_stats(cache_dir, pending)
