"""Host speed, measured next to every timed sample.

The benchmark runs on a shared host whose other tenants slow every
instruction down, in phases of seconds to minutes, by up to half; a
phase longer than a run moves any statistic of that run's raw times.
``HostSpeed.sample`` times four fixed pure-Python kernels that live in
this file and never change with the program under test, and returns
their slowdown against fixed reference times (about 1 when the host is
quiet, 1.5 when every instruction takes half as long again).  The
benchmark divides each time it measures by the mean slowdown sampled
around it (and, for a served cold job, during it), so a reported time
reads in seconds of a quiet host.

The slowdown differs between the host's cores, so ``pin_to_one_cpu``
keeps the benchmark and every process it starts on one core: the
kernels then measure the core that does the work.

The kernels mix the kinds of work the simulator does: an event heap
with small slotted objects, integer arithmetic, object and dict
allocation over a routing table, and JSON record encoding.  On the host
this was built on, their geometric mean tracked the simulator's own
slowdown on both simulation workloads, where each kernel alone tracked
it well on one workload and poorly on the other.
"""

from __future__ import annotations

import heapq
import io
import json
import math
import os
import time

_clock = time.perf_counter


class _Node:
    __slots__ = ("ident", "busy", "links", "count")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.busy = 0.0
        self.links: dict = {}
        self.count = 0

    def forward(self, now: float, dst: int):
        self.count += 1
        start = now if now > self.busy else self.busy
        self.busy = start + 1e-6
        return self.links.get(dst % 8, self), start + 2e-6


def _events(n: int = 6500) -> int:
    nodes = [_Node(i) for i in range(64)]
    for node in nodes:
        node.links = {k: nodes[(node.ident * 7 + k) % 64] for k in range(8)}
    heap = [(i * 1e-7, i, nodes[i], i) for i in range(64)]
    heapq.heapify(heap)
    seq, x, done = 64, 12345, 0
    while heap and done < n:
        now, _, node, dst = heapq.heappop(heap)
        done += 1
        nxt, when = node.forward(now, dst)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (when + (x % 100) * 1e-9, seq, nxt, x % 64))
        seq += 1
    return done


def _arith(n: int = 125_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class _Packet:
    __slots__ = ("src", "dst", "size", "hops", "born")

    def __init__(self, src: int, dst: int, size: int, born: float) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.hops: list = []
        self.born = born


_ROUTES: dict = {}


def _objects(n: int = 4500) -> int:
    if not _ROUTES:
        _ROUTES.update({
            (s, d): [(s + k) % 1024 for k in range(6)]
            for s in range(0, 1024, 7) for d in range(0, 1024, 97)
        })
    keys = list(_ROUTES)
    load: dict = {}
    window: list = []
    x, out = 1, 0
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[x % len(keys)]
        packet = _Packet(key[0], key[1], 64 + x % 1000, i * 1e-9)
        for hop in _ROUTES[key]:
            packet.hops.append(hop)
            load[hop] = load.get(hop, 0) + packet.size
        window.append(packet)
        if len(window) > 2000:
            out += len(window.pop(0).hops)
        record = {"id": i, "lat": i * 1e-9 - packet.born, "src": packet.src}
        out += len(record)
    return out


def _records(n: int = 1500) -> int:
    sink = io.StringIO()
    for i in range(n):
        sink.write(json.dumps({
            "ts": i * 1.25e-7, "name": "link.busy", "track": f"r{i % 64}",
            "args": {"port": i % 5, "queue": (i * 31) % 17, "util": (i % 100) / 100.0},
        }, separators=(",", ":")))
        sink.write("\n")
    return sink.tell()


#: (kernel, seconds it takes on a quiet host: 2-core Xeon VM, Python 3.11)
KERNELS = (
    (_events, 0.0080),
    (_arith, 0.0080),
    (_objects, 0.0080),
    (_records, 0.0080),
)


class HostSpeed:
    """Slowdown samples of this host; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        for kernel, _ in KERNELS:
            kernel()  # warm-up: tables, allocator and bytecode caches

    def sample(self) -> float:
        """Time every kernel once; the geometric mean of their slowdowns."""
        logs = 0.0
        for kernel, reference_s in KERNELS:
            start = _clock()
            kernel()
            logs += math.log((_clock() - start) / reference_s)
        slowdown = math.exp(logs / len(KERNELS))
        self.samples.append(slowdown)
        return slowdown


def between(before: float, after: float) -> float:
    """The slowdown that applies to a sample timed between two readings."""
    return (before + after) / 2.0


def pin_to_one_cpu() -> int:
    """Restrict this process, and the processes it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
