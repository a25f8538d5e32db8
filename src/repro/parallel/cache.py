"""Content-addressed on-disk result cache.

Layout (all JSON, human-inspectable)::

    <root>/
      <key[:2]>/<key>.json         one cached cell result
      <key[:2]>/<key>.prof         optional cProfile dump (``--profile``)
      <key[:2]>/<key>.trace.jsonl  optional repro.obs trace (``--trace``)
      manifest.json                last sweep's summary + failure ledger

An entry stores the task spec it answers for, the code-version token it
was computed under, the result payload, and a SHA-256 checksum over the
canonical JSON of ``(task, code_version, result)``.  :meth:`ResultCache.get`
verifies that checksum on every read: a corrupted or truncated entry is
*evicted* (unlinked) and reported as a miss, never trusted — the
orchestrator then simply recomputes the cell.

Writes are atomic (:mod:`repro.util.io`) so a crashed or killed worker
can never leave a half-written entry that later reads as valid.  The
manifest additionally goes through an advisory-locked read-modify-write
merge, so two sweeps sharing one ``REPRO_CACHE_DIR`` union their
outcome ledgers instead of the last writer clobbering the first.

:meth:`ResultCache.purge` also removes ``<key>.ckpt`` files, which caches
written by older versions of this package may still hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro.parallel.tasks import SimTask, canonical_json
from repro.util.io import FileLock, atomic_write_text, sha256_hex

__all__ = ["CacheEntry", "CacheStats", "ResultCache"]

_ENTRY_SUFFIX = ".json"
#: mid-cell checkpoints written by older versions; purge still removes them.
_CHECKPOINT_SUFFIX = ".ckpt"
_MANIFEST_NAME = "manifest.json"


def _payload_checksum(task: dict, version: str, result: dict) -> str:
    blob = canonical_json({"task": task, "code_version": version, "result": result})
    return sha256_hex(blob)


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored cell (result omitted unless requested)."""

    key: str
    kind: str
    label: str
    code_version: str
    size_bytes: int
    path: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "code_version": self.code_version,
            "size_bytes": self.size_bytes,
            "path": self.path,
        }


@dataclass
class CacheStats:
    """Read/write counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_evicted: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_evicted": self.corrupt_evicted,
        }


@dataclass
class ResultCache:
    """Content-addressed store of sweep-cell results under ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- paths ----------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_ENTRY_SUFFIX}"

    def profile_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.prof"

    def trace_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.trace.jsonl"

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    # -- read -----------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or None (miss / evicted)."""
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        entry = self._validate(key, raw)
        if entry is None:
            # Corrupted: evict so the next sweep recomputes instead of
            # tripping over the same bad bytes forever.
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.corrupt_evicted += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["result"]

    @staticmethod
    def _validate(key: str, raw: str) -> Optional[dict]:
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            return None
        if not isinstance(entry, dict):
            return None
        required = ("key", "task", "code_version", "result", "checksum")
        if any(name not in entry for name in required):
            return None
        if entry["key"] != key:
            return None
        expected = _payload_checksum(
            entry["task"], entry["code_version"], entry["result"]
        )
        if entry["checksum"] != expected:
            return None
        return entry

    # -- write ----------------------------------------------------------
    def put(self, key: str, task: SimTask, version: str, result: dict) -> Path:
        """Store ``result`` for ``key``; atomic, returns the entry path."""
        task_dict = task.to_dict()
        entry = {
            "key": key,
            "task": task_dict,
            "code_version": version,
            "result": result,
            "checksum": _payload_checksum(task_dict, version, result),
        }
        path = self.path_for(key)
        atomic_write_text(path, canonical_json(entry))
        self.stats.writes += 1
        return path

    # -- inspection / maintenance ---------------------------------------
    def entries(self) -> Iterator[CacheEntry]:
        """Iterate stored entries (validating each; corrupt ones skipped)."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"??/*{_ENTRY_SUFFIX}")):
            key = path.stem
            try:
                raw = path.read_text(encoding="utf-8")
            except OSError:
                continue
            entry = self._validate(key, raw)
            if entry is None:
                continue
            task = entry.get("task", {})
            yield CacheEntry(
                key=key,
                kind=str(task.get("kind", "?")),
                label=str(task.get("label", "")),
                code_version=str(entry.get("code_version", "")),
                size_bytes=len(raw),
                path=str(path),
            )

    def purge(self) -> int:
        """Remove every entry (and profile dump); returns entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        suffixes = (
            _ENTRY_SUFFIX, _CHECKPOINT_SUFFIX, ".prof", ".tmp", ".txt", ".jsonl"
        )
        for path in sorted(self.root.glob("??/*")):
            if path.suffix in suffixes or ".tmp." in path.name:
                try:
                    path.unlink()
                except OSError:
                    continue
                if path.suffix == _ENTRY_SUFFIX:
                    removed += 1
        for sub in sorted(self.root.glob("??")):
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed

    # -- manifest -------------------------------------------------------
    def write_manifest(self, manifest: dict) -> Path:
        """Merge ``manifest`` into the on-disk manifest under a file lock.

        Two orchestrators sharing a cache directory finish at arbitrary
        times; a plain overwrite would drop whichever sweep landed first.
        The whole read-merge-write cycle holds an advisory lock
        (:class:`repro.util.io.FileLock`), so concurrent sweeps union
        their outcome ledgers — per cell key, the newest result wins.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with FileLock(self.manifest_path):
            merged = _merge_manifests(self.read_manifest(), manifest)
            atomic_write_text(
                self.manifest_path,
                json.dumps(merged, indent=2, sort_keys=True),
            )
        return self.manifest_path

    def read_manifest(self) -> Optional[dict]:
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None


def _merge_manifests(existing: Optional[dict], new: dict) -> dict:
    """Union two sweep manifests; ``new`` wins per cell key.

    Merging only applies when both sides carry an ``outcomes`` ledger —
    anything else (first write, hand-rolled manifests in tests) passes
    through untouched.  Stale failure events for cells the new sweep
    re-ran are dropped along with their superseded outcomes; the
    aggregate counters are recomputed over the merged ledger so
    ``status`` reports the union, not the last sweep.
    """
    if (
        not isinstance(existing, dict)
        or "outcomes" not in existing
        or "outcomes" not in new
    ):
        return new
    new_keys = {o.get("key") for o in new.get("outcomes", [])}
    outcomes = [
        o for o in existing.get("outcomes", []) if o.get("key") not in new_keys
    ] + list(new.get("outcomes", []))
    failures = [
        f for f in existing.get("failures", []) if f.get("key") not in new_keys
    ] + list(new.get("failures", []))
    merged = dict(new)
    merged["outcomes"] = outcomes
    merged["failures"] = failures
    merged["executed"] = sum(1 for o in outcomes if o.get("status") == "ok")
    merged["cache_hits"] = sum(1 for o in outcomes if o.get("status") == "cached")
    merged["all_ok"] = all(o.get("status") != "failed" for o in outcomes)
    return merged
