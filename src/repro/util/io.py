"""Crash-safe file I/O primitives shared across the repo.

Three concerns, one module:

* **Atomic writes** — :func:`atomic_write_bytes` / :func:`atomic_write_text`
  write to a same-directory temporary file and ``os.replace`` it into
  place.  On POSIX the rename is atomic, so readers observe either the
  old content or the complete new content — never a torn write.  A
  process killed mid-write leaves at most a stale ``*.tmp`` file.
* **Checksums** — :func:`sha256_hex` over bytes/str, used by the result
  cache's payload checksums.
* **Advisory locking** — :class:`FileLock`, a blocking ``fcntl.flock``
  wrapper guarding read-modify-write cycles on shared files (two sweep
  orchestrators sharing one ``REPRO_CACHE_DIR`` race on the manifest
  without it).  Advisory only: every writer must take the lock; readers
  that skip it still see a consistent file thanks to the atomic replace.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Union

__all__ = [
    "FileLock",
    "atomic_write_bytes",
    "atomic_write_text",
    "sha256_hex",
]

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (locking off)
    fcntl = None  # type: ignore[assignment]


def sha256_hex(payload: Union[bytes, str]) -> str:
    """Hex SHA-256 of ``payload`` (str is encoded as UTF-8)."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file lives next to the target so the replace never
    crosses filesystems.  Parent directories are created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if tmp.exists():  # replace failed or write raised
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomic text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


class FileLock:
    """Blocking advisory lock on ``path`` (``with FileLock(p): ...``).

    Implemented with ``fcntl.flock`` on a sibling ``<name>.lock`` file so
    the guarded file itself can be atomically replaced while the lock is
    held.  Re-entrant use within one process is not supported (and not
    needed here).  On platforms without ``fcntl`` the lock degrades to a
    no-op — single-writer behavior is unchanged, concurrent writers are
    unprotected there.
    """

    def __init__(self, path: Union[str, Path]):
        target = Path(path)
        self.lock_path = target.with_name(target.name + ".lock")
        self._handle = None

    def acquire(self) -> "FileLock":
        if fcntl is None:  # pragma: no cover - non-POSIX
            return self
        self.lock_path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.lock_path, "a+")
        fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def release(self) -> None:
        if self._handle is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        finally:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
