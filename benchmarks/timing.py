"""The one timing routine behind every ``BENCH_*.json`` rate and latency.

The benchmarks share a host whose other tenants slow every instruction
down, in phases of seconds to minutes and by up to half
(perfbench/README.md), so raw CPU seconds move with the neighbours.
:func:`timed` runs a callable between two samples of perfbench's
``HostSpeed`` (four fixed kernels in ``perfbench/calibrate.py``): a
normalised rate is events / CPU seconds x the mean slowdown, a
normalised time CPU seconds / slowdown, both in units of a quiet host.
A :class:`Timing` reports the median of its normalised samples, as
perfbench does, beside every raw sample and slowdown factor.

The calibration is perfbench's own, imported rather than copied: this
module puts ``perfbench/`` on ``sys.path`` the way ``perfbench/tests``
does.  A bench's ``main`` calls :func:`pin_to_one_cpu` first, so the
kernels and the timed run share a core (the slowdown differs between
cores).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from calibrate import HostSpeed, between, pin_to_one_cpu  # noqa: E402,F401
from run import git_commit  # noqa: E402


def _sample(speed: HostSpeed) -> float:
    # A full collection first, so none lands in the kernels: with the
    # timed scenarios kept alive one takes 0.1 s, three times a sample.
    gc.collect()
    return speed.sample()


def timed(fn: Callable[[], object], speed: HostSpeed) -> tuple[object, float, float]:
    """``(fn(), its CPU seconds, the mean slowdown of the samples around it)``.

    ``process_time`` counts every thread of the process, so a caller
    stops its helper threads before the next timed call.
    """
    before = _sample(speed)
    start = time.process_time()
    result = fn()
    cpu_s = time.process_time() - start
    return result, cpu_s, between(before, _sample(speed))


@dataclass
class Timing:
    """Samples of one timed operation; ``+`` concatenates two timings.

    ``events`` holds each run's executed events for a rate
    (:func:`measure`) and is empty for a latency (:func:`repeat`);
    ``results`` holds what each sample returned.
    """

    cpu_s: list[float] = field(default_factory=list)
    slowdown: list[float] = field(default_factory=list)
    events: list[int] = field(default_factory=list)
    results: list = field(default_factory=list)

    def __add__(self, other: Timing) -> Timing:
        return Timing(self.cpu_s + other.cpu_s, self.slowdown + other.slowdown,
                      self.events + other.events, self.results + other.results)

    def rates(self, normalised: bool = True) -> list[float]:
        return [n / s * (f if normalised else 1.0)
                for n, s, f in zip(self.events, self.cpu_s, self.slowdown)]

    @property
    def events_per_s(self) -> float:
        """Median normalised rate."""
        return statistics.median(self.rates())

    @property
    def seconds(self) -> float:
        """Median normalised time."""
        return statistics.median(s / f for s, f in zip(self.cpu_s, self.slowdown))

    def report(self) -> dict:
        """The medians and every raw sample behind them."""
        out = {"cpu_s": [round(s, 6) for s in self.cpu_s],
               "slowdown": [round(f, 4) for f in self.slowdown]}
        if self.events:
            out.update(events=self.events, events_per_s=round(self.events_per_s, 1),
                       raw_events_per_s=round(statistics.median(self.rates(False)), 1))
        else:
            out.update(seconds=round(self.seconds, 6),
                       raw_seconds=round(statistics.median(self.cpu_s), 6))
        return out


def repeat(fn: Callable[[], object], *, repeats: int) -> Timing:
    """``fn`` timed ``repeats`` times: a latency."""
    speed, timing = HostSpeed(), Timing()
    for _ in range(repeats):
        result, cpu_s, slowdown = timed(fn, speed)
        timing += Timing([cpu_s], [slowdown], [], [result])
    return timing


def measure(make: Callable[[], object], *, repeats: int,
            max_events: Optional[int] = None) -> Timing:
    """Rate ``repeats`` runs of the scenario ``make()`` builds.

    ``make`` runs outside the timed region; only
    ``scenario.sim.run(until=scenario.until, max_events=max_events)`` is
    timed.  Each run's scenario stays in ``results``, so callers check
    counters and digests on the very runs they timed.
    """
    speed, timing = HostSpeed(), Timing()
    for _ in range(repeats):
        scenario = make()
        start = scenario.sim.events_executed
        _, cpu_s, slowdown = timed(
            lambda: scenario.sim.run(until=scenario.until, max_events=max_events), speed
        )
        executed = scenario.sim.events_executed - start
        timing += Timing([cpu_s], [slowdown], [executed], [scenario])
    return timing


def write_report(path, report: dict) -> dict:
    """Write ``report`` as sorted JSON with the provenance block every
    ledger file carries: cores, Python, ``code_version`` and commit."""
    from repro.parallel.tasks import code_version

    report = {**report, "provenance": {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "code_version": code_version(),
        "git_commit": git_commit(),
    }}
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return report
