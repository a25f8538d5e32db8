"""Class-level span wrappers: call counts and self time per layer.

The traced run of the benchmark installs these wrappers on the public
entry points of each ``repro`` module *before* the scenario is built
(``Fabric`` and ``Topology.enable_route_cache`` capture bound methods at
construction, so a wrapper installed later would be bypassed).  Nothing
under ``src/`` is edited: the wrappers are set on the classes at run time
and :meth:`SpanProfiler.uninstall` puts the originals back.

A span's *self time* is its duration minus the duration of the wrapped
spans nested inside it, so the self times of all spans on one thread
never add up to more than that thread's wall time.  A span nested
directly in a span of the same name (``PRDRBPolicy.on_ack`` calling
``DRBPolicy.on_ack``) counts as one call.

Every wrapper only observes: it calls the original with the same
arguments and returns its result, so traced and untraced runs execute the
same events (the benchmark checks their pinned outputs are equal).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Optional

_clock = time.perf_counter


class SpanProfiler:
    """Installs span wrappers and folds their timings per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._intervals: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Per-thread accumulation
    # ------------------------------------------------------------------
    def _state(self) -> tuple[dict, list, list]:
        local = self._local
        totals = getattr(local, "totals", None)
        if totals is None:
            totals = local.totals = {}
            local.stack = []
            local.intervals = []
            with self._lock:
                self._per_thread.append(totals)
                self._intervals.append(local.intervals)
        return totals, local.stack, local.intervals

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (a span with no time)."""
        totals, _, _ = self._state()
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0.0, 0.0]
        entry[0] += n

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, self_s, total_s)}`` summed over every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, (calls, self_s, total_s) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
        return {name: tuple(entry) for name, entry in merged.items()}

    def busy(self) -> list[tuple[float, float]]:
        """Sorted, merged ``(start, end)`` intervals during which some
        thread was inside an outermost span."""
        with self._lock:
            spans = sorted(span for table in self._intervals for span in list(table))
        merged: list[list[float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return [(start, end) for start, end in merged]

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        skip: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``skip(*args)`` returning True runs ``fn`` untimed (the SSE stream
        handler shares ``do_GET`` with the short requests).
        """
        state = self._state

        def span(*args, **kwargs):
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            totals, stack, intervals = state()
            outer = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0, 0.0]
                entry[1] += elapsed - frame[1]
                if outer is None or outer[0] != name:
                    entry[0] += 1
                    entry[2] += elapsed
                if outer is not None:
                    outer[1] += elapsed
                else:
                    intervals.append((start, start + elapsed))

        functools.update_wrapper(span, fn)
        return span

    def tap(
        self,
        fn: Callable,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Return ``fn`` with untimed observers: ``before(*args)`` and
        ``after(result, *args)``."""

        def tapped(*args, **kwargs):
            if before is not None:
                before(*args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        functools.update_wrapper(tapped, fn)
        return tapped

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper_factory: Callable) -> bool:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with
        ``wrapper_factory(original)``; returns False when absent."""
        original = vars(owner).get(attr)
        if original is None or not callable(original):
            return False
        if getattr(original, "__isabstractmethod__", False):
            return False
        setattr(owner, attr, wrapper_factory(original))
        self._patches.append((owner, attr, original))
        return True

    def span_on(self, owner: Any, attr: str, name: str, skip=None) -> bool:
        return self.patch(owner, attr, lambda fn: self.wrap(name, fn, skip))

    def tap_on(self, owner: Any, attr: str, before=None, after=None) -> bool:
        return self.patch(owner, attr, lambda fn: self.tap(fn, before, after))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def subclasses(cls: type) -> list[type]:
    """``cls`` and every (transitively) imported subclass of it."""
    seen: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.append(current)
        pending.extend(current.__subclasses__())
    return seen
