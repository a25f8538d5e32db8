"""Seeded-replay determinism regression (tier 1).

Runs the reference hot-spot scenario through
:func:`repro.analysis.replay.run_scenario` and asserts bit-identical
event-trace and metric digests across repeated same-seed runs — the
property every engine/routing change must preserve.
"""

import functools
import hashlib
import json
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

from repro.analysis.replay import EventTraceDigest, run_scenario
from repro.sim.engine import FN, PRIORITY, SEQUENCE, TIME, EventView
from repro.topology import make_topology


def test_same_seed_runs_are_bit_identical():
    first = run_scenario(seed=0, policy="pr-drb", mesh_side=4)
    second = run_scenario(seed=0, policy="pr-drb", mesh_side=4)
    assert first.events == second.events
    assert first.metrics == second.metrics
    assert first.events_executed == second.events_executed
    assert first.packets_delivered == second.packets_delivered
    # A digest over an empty run would vacuously "match".
    assert first.events_executed > 100
    assert first.packets_delivered > 0


def test_different_seeds_diverge():
    base = run_scenario(seed=0)
    other = run_scenario(seed=1)
    assert base.metrics != other.metrics
    assert base.events != other.events


def test_invariant_hook_does_not_perturb_the_trace():
    plain = run_scenario(seed=0)
    checked = run_scenario(seed=0, with_invariants=True)
    assert plain.events == checked.events
    assert plain.metrics == checked.metrics


# ---------------------------------------------------------------------------
# EventTraceDigest bytes, checked against a reference written here
# ---------------------------------------------------------------------------
def _reference_digest(records) -> str:
    """SHA-256 chain of ``pack("<dii", time, priority, sequence) + label``,
    folded every 4,096 events; the label is the callback's ``__qualname__``,
    or its ``repr`` when it has none."""
    chain, block = b"", b""
    for count, (time, priority, sequence, fn) in enumerate(records, 1):
        label = getattr(fn, "__qualname__", None) or repr(fn)
        block += struct.pack("<dii", time, priority, sequence) + label.encode("utf-8")
        if count % 4096 == 0:
            chain, block = hashlib.sha256(chain + block).digest(), b""
    return hashlib.sha256(chain + block).hexdigest()


def _tick(sim, remaining) -> None:
    """Module-level callback: reschedules itself ``remaining`` times."""
    if remaining:
        sim.schedule(1e-6, _tick, sim, remaining - 1)


class _Clock:
    def __init__(self, sim) -> None:
        self.sim = sim

    def fire(self, remaining) -> None:
        if remaining:
            self.sim.schedule(2e-6, self.fire, remaining - 1, priority=1)


def _mixed_callback_run():
    """A run of >4,096 events whose callbacks are bound methods, a module
    function, lambdas, closures and a ``functools.partial`` (no
    ``__qualname__``); returns the digest, the digested copies and the
    event count."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    digest = EventTraceDigest().install(sim)
    seen = []
    sim.add_observer(lambda event: seen.append(list(event.entry)))

    def closure(remaining) -> None:
        if remaining:
            sim.schedule(3e-6, closure, remaining - 1)
            sim.schedule(1.5e-6, lambda: None, priority=-1)

    sim.schedule(0.0, _tick, sim, 2500)
    sim.schedule(0.0, _Clock(sim).fire, 1200)
    sim.schedule(0.0, closure, 700)
    for k in range(5):
        sim.schedule(k * 1e-4, functools.partial(_tick, sim, 0))
    executed = sim.run()
    return digest, seen, executed


def test_event_digest_matches_an_independent_reference():
    digest, seen, executed = _mixed_callback_run()
    assert executed == digest.events == len(seen) > 4096
    labels = {getattr(event[FN], "__qualname__", None) for event in seen}
    assert {"_tick", "_Clock.fire", "_mixed_callback_run.<locals>.closure",
            "_mixed_callback_run.<locals>.closure.<locals>.<lambda>", None} <= labels
    records = [(e[TIME], e[PRIORITY], e[SEQUENCE], e[FN]) for e in seen]
    assert digest.hexdigest() == _reference_digest(records)


def test_event_digest_pickled_mid_block_continues_exactly():
    digest, seen, _ = _mixed_callback_run()
    cut = 4096 + 1000  # past one fold, mid-block
    first = EventTraceDigest()
    for event in seen[:cut]:
        first.update(EventView(event))
    resumed = pickle.loads(pickle.dumps(first))
    for event in seen[cut:]:
        resumed.update(EventView(event))
    assert resumed.events == len(seen)
    assert resumed.hexdigest() == digest.hexdigest()


# ---------------------------------------------------------------------------
# Interned topologies: a cell's digests do not depend on earlier cells
# ---------------------------------------------------------------------------
_CELLS = ("pr-drb", "ugal")


def _cell_digests(policies) -> dict:
    return {p: run_scenario(seed=0, policy=p, mesh_side=8).to_dict() for p in policies}


def test_cells_digest_the_same_cold_and_after_warm_cells():
    code = (
        "import json, sys\n"
        "from tests.test_determinism_replay import _CELLS, _cell_digests\n"
        "json.dump(_cell_digests(_CELLS), sys.stdout)\n"
    )
    root = Path(__file__).resolve().parent.parent
    cold = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=str(root),
        env={"PYTHONPATH": f"src{os.pathsep}.", "PATH": "/usr/bin:/bin"}, timeout=300,
    )
    assert cold.returncode == 0, cold.stderr
    # Other policies' cells fill the shared mesh:8 route memos first.
    _cell_digests(("deterministic", "drb", "notified-adaptive"))
    assert make_topology("mesh:8") is make_topology("mesh:8")
    assert _cell_digests(_CELLS) == json.loads(cold.stdout)
