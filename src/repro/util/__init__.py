"""Shared low-level utilities (no simulation semantics).

:mod:`repro.util.io` — crash-safe file I/O: atomic replace writes,
checksum helpers, and an advisory file lock.  The result cache writes its
entries and merges its manifest through it, so a mid-write kill can never
leave a loadable-but-corrupt artifact behind.
"""
