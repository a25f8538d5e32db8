"""Tests for the router forwarding pipeline (§3.3.2)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.replay import (
    RECORDER_WINDOW_S,
    EventTraceDigest,
    build,
    digest_metrics,
    finish,
    replay_spec,
)
from repro.api import build_network
from repro.metrics.recorder import StatsRecorder
from repro.network.config import NetworkConfig
from repro.network.packet import ACK, DATA, ContendingFlow, Packet
from repro.network.router import CFD_COOLDOWN_S, Router
from repro.sim.rng import RandomStreams
from repro.traffic.generators import HotSpotFlow, HotSpotWorkload


def make_router(threshold=4e-6, handler=None):
    cfg = NetworkConfig(router_threshold_s=threshold)
    return Router(0, cfg, congestion_handler=handler), cfg


def pkt(src=1, dst=5, size=1024, kind=DATA):
    return Packet(src=src, dst=dst, size_bytes=size, kind=kind, path=(0, 1))


def test_idle_port_forwards_without_wait():
    router, cfg = make_router()
    port = router.port_to("router", 1)
    p = pkt()
    depart = router.forward(p, port, now=0.0)
    assert p.path_latency == 0.0
    assert depart == pytest.approx(cfg.routing_delay_s + cfg.packet_tx_time_s)
    assert port.busy_until == depart


def test_busy_port_accumulates_contention():
    router, cfg = make_router(threshold=1.0)  # CFD disabled
    port = router.port_to("router", 1)
    p1, p2 = pkt(), pkt(src=2)
    d1 = router.forward(p1, port, now=0.0)
    router.forward(p2, port, now=0.0)
    expected_wait = d1 - cfg.routing_delay_s
    assert p2.path_latency == pytest.approx(expected_wait)
    assert router.total_wait_s == pytest.approx(expected_wait)
    assert router.packets_forwarded == 2


def test_mean_contention_latency():
    router, _ = make_router(threshold=1.0)
    port = router.port_to("router", 1)
    for i in range(4):
        router.forward(pkt(src=i), port, now=0.0)
    assert router.mean_contention_latency_s == pytest.approx(router.total_wait_s / 4)


def test_cfd_records_contending_flows_destination_based():
    router, cfg = make_router(threshold=1e-9)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1, dst=5), port, now=0.0)
    victim = pkt(src=2, dst=7)
    router.forward(victim, port, now=0.0)
    assert victim.reporting_router == 0
    flows = set(victim.contending)
    assert ContendingFlow(1, 5) in flows
    assert ContendingFlow(2, 7) in flows
    assert not victim.predictive_bit


def test_cfd_cooldown_suppresses_repeat_reports():
    router, _ = make_router(threshold=1e-9)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    first = pkt(src=2)
    router.forward(first, port, now=0.0)
    second = pkt(src=3)
    router.forward(second, port, now=0.0)
    assert first.contending and not second.contending
    # After the cooldown, reporting resumes.
    later = pkt(src=4)
    t = CFD_COOLDOWN_S + 1e-6
    router.forward(pkt(src=1), port, now=t)
    router.forward(later, port, now=t)
    assert later.contending


def test_cfd_skips_ack_packets():
    router, _ = make_router(threshold=1e-9)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    ack = pkt(src=2, kind=ACK)
    router.forward(ack, port, now=0.0)
    assert not ack.contending


def test_router_based_handler_sets_predictive_bit():
    calls = []

    def handler(router, port, packet, wait, flows, now):
        calls.append((packet.src, tuple(flows)))
        return True

    router, _ = make_router(threshold=1e-9, handler=handler)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    victim = pkt(src=2)
    router.forward(victim, port, now=0.0)
    assert calls and calls[0][0] == 2
    assert victim.predictive_bit
    assert not victim.contending  # handler took over notification


def test_handler_returning_false_falls_back_to_destination():
    router, _ = make_router(threshold=1e-9, handler=lambda *a: False)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    victim = pkt(src=2)
    router.forward(victim, port, now=0.0)
    assert victim.contending and not victim.predictive_bit


def test_contending_flows_ranked_by_bytes_and_capped():
    router, cfg = make_router(threshold=1.0)
    cfg.max_contending_flows = 2
    port = router.port_to("router", 1)
    router.forward(pkt(src=1, dst=5, size=4096), port, now=0.0)
    router.forward(pkt(src=2, dst=7, size=1024), port, now=0.0)
    router.forward(pkt(src=3, dst=8, size=2048), port, now=0.0)
    flows = router._contending_flows(port, pkt(src=9, dst=9, size=16))
    assert len(flows) == 2
    assert flows[0] == ContendingFlow(1, 5)
    assert flows[1] == ContendingFlow(3, 8)


def test_queue_purge_frees_occupancy():
    router, cfg = make_router(threshold=1.0)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    assert port.occupancy_bytes == 1024
    # Far in the future the queue has drained.
    router.forward(pkt(src=2), port, now=1.0)
    assert port.occupancy_bytes == 1024  # only the new packet remains


def test_buffer_overflow_counter():
    cfg = NetworkConfig(buffer_size_bytes=1024, router_threshold_s=1.0)
    router = Router(0, cfg)
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    router.forward(pkt(src=2), port, now=0.0)
    assert port.overflows == 1


def test_wait_observer_called():
    seen = []
    router, _ = make_router(threshold=1.0)
    router.wait_observer = lambda rid, now, wait: seen.append((rid, now, wait))
    port = router.port_to("router", 1)
    router.forward(pkt(src=1), port, now=0.0)
    router.forward(pkt(src=2), port, now=0.0)
    assert len(seen) == 2
    assert seen[0][2] == 0.0
    assert seen[1][2] > 0.0


def test_port_cache_reuse():
    router, _ = make_router()
    assert router.port_to("router", 1) is router.port_to("router", 1)
    assert router.port_to("host", 1) is not router.port_to("router", 1)


# ---------------------------------------------------------------------------
# _contending_flows against a reference written from §3.2.7's rule
# ---------------------------------------------------------------------------
_PAIRS = [(1, 5), (2, 5), (3, 7), (4, 7), (6, 2)]

_hops = st.lists(
    st.tuples(
        st.integers(0, len(_PAIRS) - 1),
        st.integers(1, NetworkConfig().packet_size_bytes),
        st.one_of(st.just(0.0), st.floats(0.0, 1e-5)),
        st.booleans(),  # read the shares after this hop
    ),
    min_size=1,
    max_size=40,
)


def _reference_flows(entries, now, sufferer, min_share, limit):
    """Bytes per flow over the entries still queued at ``now`` (the
    sufferer's included), shares under ``min_share`` of the total
    dropped, the rest ranked by bytes then flow and cut at ``limit``."""
    shares = {}
    for depart, flow, size in entries:
        if depart > now:
            shares[flow] = shares.get(flow, 0) + size
    total = sum(shares.values())
    kept = [(flow, b) for flow, b in shares.items() if b >= total * min_share]
    kept.sort(key=lambda kv: (-kv[1], kv[0].src, kv[0].dst))
    return [flow for flow, _ in kept[:limit]] or [sufferer]


@settings(max_examples=200, deadline=None)
@given(
    hops=_hops,
    min_share=st.sampled_from([0.0, 0.05, 0.12, 0.3, 0.5, 0.9]),
    limit=st.integers(1, 4),
)
def test_contending_flows_match_the_reference(hops, min_share, limit):
    router, cfg = make_router(threshold=1.0)  # CFD off; the test calls it
    cfg.cfd_min_share = min_share
    cfg.max_contending_flows = limit
    port = router.port_to("router", 1)
    entries, busy, now = [], 0.0, 0.0
    for i, (pair, size, dt, read) in enumerate(hops):
        now += dt
        packet = pkt(*_PAIRS[pair], size=size)
        router.forward(packet, port, now)
        start = max(busy, now + cfg.routing_delay_s)
        busy = start + size * 8 / cfg.link_bandwidth_bps
        assert port.busy_until == busy
        entries.append((busy, ContendingFlow(*_PAIRS[pair]), size))
        if read or i == len(hops) - 1:
            assert router._contending_flows(port, packet) == _reference_flows(
                entries, now, packet.flow(), min_share, limit
            )


# ---------------------------------------------------------------------------
# Digest pins for the hop paths repro.perf does not run: the VC
# dispatcher's occupy/account and On/Off flow control's buffer check
# ---------------------------------------------------------------------------
@pytest.fixture
def cfd_reads(monkeypatch):
    reads = []
    cfd = Router._cfd

    def counted(self, packet, port, wait, now):
        reads.append(now)
        cfd(self, packet, port, wait, now)

    monkeypatch.setattr(Router, "_cfd", counted)
    return reads


def test_virtual_channel_hops_pin_their_digests(cfd_reads):
    spec = dataclasses.replace(replay_spec("pr-drb", 0, 8, 3), virtual_channels=4)
    scenario = build(spec, digest=True)
    scenario.sim.run(until=scenario.until)
    digest = finish(scenario)
    assert len(cfd_reads) == 54
    assert digest.events == "3cfcee4e94f3ce7026a6448d5aa335101a0621189e407e45a79d7780e50153f8"
    assert digest.metrics == "a63beba915c62867f01c7cf6b3429d136e92f21d060f105a040f5525c37ab35e"


def test_onoff_hops_pin_their_digests(cfd_reads):
    spec = replay_spec("pr-drb", 0, 8, 3)
    streams = RandomStreams(spec.seed)
    net = build_network(
        spec.topology, spec.policy,
        NetworkConfig(flow_control="onoff", buffer_size_bytes=2048), "router",
        StatsRecorder(window_s=RECORDER_WINDOW_S), rng=streams.stream("routing"),
    )
    trace = EventTraceDigest().install(net.sim)
    schedule = spec.burst_schedule()
    HotSpotWorkload(
        net.fabric, [HotSpotFlow(src, dst) for src, dst in spec.flows],
        rate_bps=spec.rate_bps, schedule=schedule, stop_s=schedule.end_time(),
        noise_hosts=range(net.topology.num_hosts), noise_rate_bps=spec.noise_rate_bps,
        rng=streams.stream("noise"), idle_rate_bps=spec.idle_rate_bps,
    ).start()
    net.sim.run(until=schedule.end_time() + spec.drain_s)
    stalls = sum(port.stalls for router in net.fabric.routers for port in router.ports.values())
    assert (stalls, len(cfd_reads)) == (65, 50)
    assert trace.hexdigest() == "ef4d181f094a8e61664e9472a91f0ed7cc646c3c74711d17eb69a3eb57dd099a"
    assert digest_metrics(net.fabric, net.recorder, net.policy) == (
        "76dfc12a6336ea1d689e9ace5216cb49bca83c11b3a6165b60cb37c1a9832053"
    )
