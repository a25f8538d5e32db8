"""Pins of the metrics snapshot stream: its count and contents.

No committed digest covers what a cadence snapshot holds (the event and
metrics digests do not read the registry, and perfbench checks only the
number of snapshots), so these pins, recorded before the cadence moved
from a per-event observer to an engine deadline, hold the stream byte
for byte: the same stamps, gauges read after the event is popped and
before its callback runs, no snapshot for a cancelled event or one past
``until``, and every registry on a simulator firing.
"""

import hashlib
import json

import pytest

from repro.analysis.replay import build, replay_spec
from repro.faults.campaign import FaultCampaignSpec
from repro.obs import MetricsRegistry
from repro.obs.instrument import register_fabric_metrics


def stream(registry: MetricsRegistry) -> tuple[int, str]:
    """The snapshot count and a SHA-256 of the snapshots' canonical JSON."""
    text = json.dumps(registry.snapshots, sort_keys=True, default=repr)
    return len(registry.snapshots), hashlib.sha256(text.encode()).hexdigest()


def cadenced(spec, cadence_s: float):
    metrics = MetricsRegistry()
    return build(spec, metrics=metrics, metrics_cadence_s=cadence_s), metrics


@pytest.mark.parametrize(("policy", "pin"), [
    ("pr-drb", (10, "a2229561b744b07d0560ea6ef297c95ba1f9620490751cd1c12c9ced625452a1")),
    ("ugal", (10, "daf601bffd1edf847441f2d5886cd6466336235328264fac6fe6ff9a80a7564f")),
    ("adaptive-hop", (10, "7341929fa78b412933a5eb467a79f00a7399a482ce49201122ca58d64c19a492")),
])
def test_replay_cells_at_a_1e4_cadence(policy, pin):
    scenario, metrics = cadenced(replay_spec(policy, 1, 8, 3), 1e-4)
    scenario.sim.run(until=scenario.until)
    assert stream(metrics) == pin


@pytest.mark.parametrize(("policy", "pin"), [
    ("pr-drb", (23, "e7e029664fa9871837c8577af2c2ddca355c35a713cbac0adc4c6436c348c15d")),
    ("fr-drb", (26, "c71892a90ce01759d97e7937bae30a274dfbeaf8de325ecc26d918a99b7a86e7")),
])
def test_fault_runs_with_cancelled_timers(policy, pin):
    scenario, metrics = cadenced(FaultCampaignSpec().scenario(policy), 5e-5)
    sim, cancelled = scenario.sim, []
    cancel = sim.cancel
    sim.cancel = lambda event: (cancelled.append(event), cancel(event))[1]
    sim.run(until=scenario.until)
    assert cancelled, "the pin no longer covers cancelled timers"
    assert stream(metrics) == pin


def test_sliced_run_with_steps():
    scenario, metrics = cadenced(replay_spec("pr-drb", 0, 4, 3), 2e-5)
    sim, k = scenario.sim, 0
    while sim.now < scenario.until:
        k += 1
        sim.run(until=k * 7.3e-5)
        for _ in range(5):
            sim.step()
    assert stream(metrics) == (
        50, "54b3ea5f7315a7f958158fd668ba255841d985b4df2fe238e03ec0bde96e0c9c"
    )


def test_two_registries_on_one_simulator():
    scenario, first = cadenced(replay_spec("drb", 0, 4, 3), 3e-5)
    second = MetricsRegistry()
    register_fabric_metrics(second, scenario.fabric)
    second.attach(scenario.sim, 5e-5)
    scenario.sim.run(until=scenario.until)
    assert stream(first) == (
        33, "683b700ca4d85ecd455cc479ea3c7fb3e0f7d2dedc0a60b0863d065474651330"
    )
    assert stream(second) == (
        20, "8ced3f663c57f6ad0570f8b7bc16de158a95b262e3a7e26cf2c5801b0f38d5b2"
    )
