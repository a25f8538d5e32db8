"""The scenario spine and its digests.

The predictive claim of the paper is only measurable if a scenario replayed
with the same seed is *bit-identical*: every figure averages repeated
bursts across seeds, and PR-DRB's solution reuse compares congestion
signatures across repetitions.  Every scenario cell is a
:class:`ScenarioSpec` built by :func:`build`, and :func:`finish` digests
it twice:

* the **event-trace digest** — a SHA-256 over every executed event's
  ``(time, priority, sequence, callback)`` tuple, captured through
  :meth:`Simulator.add_observer`.  Any divergence in scheduling order or
  timing shows up here first.
* the **metrics digest** — a SHA-256 over the recorder's per-packet
  latencies, windowed series, fabric counters and policy statistics (the
  quantities the evaluation chapter actually plots).

:func:`run_scenario` runs and digests the small-mesh hot-spot of
:func:`replay_spec`.  The tier-1 tests hold same-seed runs to identical
digests (``tests/test_determinism_replay.py``), and ``python -m
repro.perf`` holds them to the committed ``baseline.json``: a digest
compared against a file also catches what two runs in one process share,
such as a salted ``hash()``.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import numbers
import reprlib
import struct
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import FN, PRIORITY, SEQUENCE, TIME

if TYPE_CHECKING:
    from repro.faults.campaign import FaultPlan
    from repro.metrics.recorder import StatsRecorder
    from repro.mpi.trace import Trace
    from repro.network.fabric import Fabric
    from repro.routing.base import RoutingPolicy
    from repro.sim.engine import Simulator
    from repro.traffic.bursty import BurstSchedule

__all__ = [
    "RunDigest",
    "EventTraceDigest",
    "Scenario",
    "ScenarioSpec",
    "APP_TIMEOUT_S",
    "CELL_FIELDS",
    "MAX_APP_REPEATS",
    "RECORDER_WINDOW_S",
    "app_spec",
    "build",
    "cell_params",
    "digest_metrics",
    "finish",
    "replay_spec",
    "run_scenario",
    "scenario_spec",
    "task_result",
]


@dataclass(frozen=True)
class RunDigest:
    """Fingerprint of one complete simulation run."""

    seed: int
    policy: str
    events: str
    metrics: str
    events_executed: int
    packets_delivered: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "policy": self.policy,
            "events": self.events,
            "metrics": self.metrics,
            "events_executed": self.events_executed,
            "packets_delivered": self.packets_delivered,
        }


#: events per chain fold; boundaries depend only on the event *count*.
_DIGEST_BLOCK_EVENTS = 4096

#: an event record's head: ``(time, priority, sequence)``.
_EVENT_HEAD = struct.Struct("<dii")

#: callback label bytes by ``__qualname__``: one entry per distinct
#: qualname in the program.  Never keyed by the callback object, since
#: every bound method, closure or lambda instance is a new object.
_LABELS: dict[str, bytes] = {}


class EventTraceDigest:
    """Block-chained SHA-256 over the executed event sequence.

    Each event adds ``struct.pack("<dii", time, priority, sequence)``
    plus its callback's UTF-8 ``__qualname__`` (its ``repr`` when it has
    none) to a byte buffer; every :data:`_DIGEST_BLOCK_EVENTS` events
    the buffer is folded into a running 32-byte chain value
    (``chain = sha256(chain + block)``).  The final digest is
    ``sha256(chain + tail)``.  The fold is a fixed format:
    ``src/repro/perf/baseline.json`` and ``perfbench/reference.json``
    commit digests in it, so changing it re-baselines every one of them.
    """

    def __init__(self) -> None:
        self.events = 0
        self._chain = b""
        self._buffer = bytearray()

    def install(self, sim) -> "EventTraceDigest":
        sim.add_observer(self.update)
        return self

    def update(self, event) -> None:
        # Read the event list by offset: four property calls cost more.
        entry = event.entry
        self.events += 1
        fn = entry[FN]
        qualname = getattr(fn, "__qualname__", None)
        if qualname is None:
            label = repr(fn).encode("utf-8")
        else:
            label = _LABELS.get(qualname)
            if label is None:
                label = _LABELS[qualname] = qualname.encode("utf-8")
        buffer = self._buffer
        buffer += _EVENT_HEAD.pack(entry[TIME], entry[PRIORITY], entry[SEQUENCE])
        buffer += label
        if self.events % _DIGEST_BLOCK_EVENTS == 0:
            self._chain = hashlib.sha256(self._chain + buffer).digest()
            del buffer[:]

    def hexdigest(self) -> str:
        return hashlib.sha256(self._chain + bytes(self._buffer)).hexdigest()


def digest_metrics(fabric, recorder, policy) -> str:
    """Canonical SHA-256 over everything the evaluation would plot.

    Floats are hashed via their exact IEEE-754 bits (``struct.pack``):
    determinism here means *bit*-stability, not approximate equality.
    """
    sha = hashlib.sha256()

    def add_floats(values) -> None:
        for v in values:
            sha.update(struct.pack("<d", float(v)))

    def add_text(text: str) -> None:
        sha.update(text.encode("utf-8"))

    add_text(
        f"injected={fabric.data_packets_injected};"
        f"delivered={fabric.data_packets_delivered};"
        f"bytes={fabric.data_bytes_delivered};"
        f"acks={fabric.acks_delivered};"
        f"packs={fabric.predictive_acks_delivered};"
        f"dropped={fabric.packets_dropped};"
    )
    add_floats(recorder.latencies)
    times, values = recorder.latency_series.finalize()
    add_floats(times)
    add_floats(values)
    add_floats([recorder.global_average_latency_s])
    # Policy statistics: a plain dict of counters/floats; sort for a
    # canonical order and hash floats exactly.
    stats = policy.stats()
    for key in sorted(stats):
        value = stats[key]
        add_text(f"{key}=")
        if isinstance(value, float):
            add_floats([value])
        else:
            add_text(repr(value))
    contention = fabric.contention_map()
    for router_id in sorted(contention):
        add_text(f"router{router_id}=")
        add_floats([contention[router_id]])
    return sha.hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded scenario, as plain picklable data.

    The ``replay`` cells (:func:`replay_spec`), the fault campaign
    (:meth:`repro.faults.campaign.FaultCampaignSpec.scenario`), the
    pinned runs of :mod:`repro.perf` and every hot-spot, permutation and
    application-trace cell of :mod:`repro.experiments.scenarios` are all
    values of this type; :func:`build` turns one into a live
    :class:`Scenario`.  A spec carries ``flows``, a ``pattern`` or an
    ``app`` (:func:`app_spec`), one at most.
    """

    policy: str
    seed: int
    #: a :func:`repro.topology.make_topology` spec string.
    topology: str
    #: ``(src, dst)`` host pairs of the colliding hot-spot flows.
    flows: tuple[tuple[int, int], ...]
    rate_bps: float
    burst_on_s: float
    burst_off_s: float
    repetitions: int
    #: background rate of every host that is not a flow source.
    noise_rate_bps: float
    #: flow sources' trickle rate between bursts.
    idle_rate_bps: float
    notification: str
    #: run this long past the last burst; ``None``: until ``max_events``.
    drain_s: Optional[float]
    faults: Optional[FaultPlan] = None
    #: a :func:`repro.traffic.patterns.make_pattern` name: permutation
    #: traffic among hosts ``0 .. hosts - 1`` instead of ``flows``.
    pattern: Optional[str] = None
    #: the pattern's host count, a power of two.
    hosts: Optional[int] = None
    #: :attr:`repro.network.config.NetworkConfig.virtual_channels`.
    virtual_channels: int = 1
    #: a :data:`repro.apps.APP_TRACES` name: replay its trace through
    #: :class:`repro.mpi.runtime.TraceRuntime`, ranks on hosts ``0 ..``.
    app: Optional[str] = None
    #: the trace factory's keyword arguments as sorted ``(name, value)``
    #: pairs; a factory taking a ``seed`` gets the spec's.
    app_args: tuple = ()
    #: record per-router latency series (F4.22-23).
    router_series: bool = False

    def __post_init__(self) -> None:
        if (bool(self.flows) + (self.pattern is not None) + (self.app is not None)) > 1:
            raise ValueError("a spec carries 'flows', a 'pattern' or an 'app', one at most")

    def burst_schedule(self) -> BurstSchedule:
        """The on/off envelope every source follows; it ends the traffic."""
        from repro.traffic.bursty import BurstSchedule

        return BurstSchedule(
            on_s=self.burst_on_s, off_s=self.burst_off_s, repetitions=self.repetitions
        )


def replay_spec(
    policy: str = "pr-drb", seed: int = 0, mesh_side: int = 4, repetitions: int = 3
) -> ScenarioSpec:
    """The seeded small-mesh hot-spot of a ``replay`` cell and of
    :func:`run_scenario`.

    A ``mesh_side`` x ``mesh_side`` mesh carries three colliding flows plus
    uniform background noise through repeated bursts — small enough for a
    sub-second run, busy enough to exercise ACK notification, metapath
    expansion and (for ``pr-drb``) solution save/replay.
    """
    n = mesh_side * mesh_side
    return ScenarioSpec(
        policy=policy, seed=seed, topology=f"mesh:{mesh_side}",
        # Colliding flows: two columns funnel into the same destination column.
        flows=((0, n - mesh_side + 1), (mesh_side, n - mesh_side + 1), (1, n - 1)),
        rate_bps=1.2e9, burst_on_s=1.5e-4, burst_off_s=1.5e-4, repetitions=repetitions,
        noise_rate_bps=3e7, idle_rate_bps=2e8, notification="router", drain_s=4e-4,
    )


#: the longest simulated time an application cell may take to finish.
APP_TIMEOUT_S = 60.0
#: the most repeated rounds an app cell's trace may hold: its ``iterations``,
#: or POP's ``steps`` x ``solver_iterations``.  FULL ships at most 6
#: iterations and POP 3 x 6; POP's defaults are 4 x 6.
MAX_APP_REPEATS = 24
#: the trace-factory arguments whose product :data:`MAX_APP_REPEATS` bounds.
_REPEAT_ARGS = ("iterations", "steps", "solver_iterations")
#: the latency-series window of every spine-built run (and of EXT-mapping's runs).
RECORDER_WINDOW_S = 2.5e-5


def app_spec(
    app: str, policy: str, seed: int, topology: str, notification: str,
    app_args: Optional[dict] = None, router_series: bool = False,
) -> ScenarioSpec:
    """The application-trace cell replaying ``app``'s trace, built with
    ``app_args``, on ``topology`` (§4.8)."""
    return ScenarioSpec(
        policy=policy, seed=seed, topology=topology, flows=(), rate_bps=0.0,
        burst_on_s=0.0, burst_off_s=0.0, repetitions=1, noise_rate_bps=0.0,
        idle_rate_bps=0.0, notification=notification, drain_s=None, app=app,
        app_args=tuple(sorted((app_args or {}).items())), router_series=router_series,
    )


def _int_param(params: dict, name: str, default: int, least: int = 0) -> int:
    value = params.get(name, default)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name!r} must be an integer, got {reprlib.repr(value)}")
    if value < least:
        raise ValueError(f"{name!r} must be >= {least}, got {value}")
    return int(value)


def _float_param(params: dict, name: str, default: float = 0.0) -> float:
    value = params.get(name, default)
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not 0 <= value < float("inf")):
        raise ValueError(f"{name!r} must be a finite number >= 0, got {reprlib.repr(value)}")
    return float(value)


def _text_param(params: dict, name: str, default: str) -> str:
    value = params.get(name, default)
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string, got {reprlib.repr(value)}")
    return value


def _known_fields(params, allowed, what: str) -> dict:
    """A copy of ``params``, refused unless it is a dict of ``allowed``
    fields (names, or a dataclass whose field names are allowed)."""
    if isinstance(allowed, type):
        allowed = [f.name for f in fields(allowed)]
    if not isinstance(params, dict):
        raise ValueError(f"{what} must be an object, got {reprlib.repr(params)}")
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}; expected some of {list(allowed)}")
    return dict(params)


def _typed_fields(params, schema: type, what: str) -> dict:
    """:func:`_known_fields`, plus each ``int``/``float``/``bool``/``str``
    field of the dataclass ``schema`` refused unless of its type."""
    params = _known_fields(params, schema, what)
    for f in fields(schema):
        if f.name not in params:
            continue
        kind = f.type if isinstance(f.type, str) else f.type.__name__
        if kind == "int":
            _int_param(params, f.name, 0)
        elif kind == "float":
            _float_param(params, f.name)
        elif kind == "str":
            _text_param(params, f.name, "")
        elif kind == "bool" and not isinstance(params[f.name], bool):
            raise ValueError(
                f"{f.name!r} must be true or false, got {reprlib.repr(params[f.name])}"
            )
    return params


#: the params of a ``hotspot`` / ``pattern`` / ``app`` task: the spec's
#: own fields (an app's ``app_args`` as an object).
CELL_FIELDS = {
    "hotspot": ("policy", "seed", "topology", "flows", "rate_bps", "burst_on_s",
                "burst_off_s", "repetitions", "noise_rate_bps", "idle_rate_bps",
                "notification", "drain_s", "virtual_channels"),
    "pattern": ("policy", "seed", "topology", "pattern", "hosts", "rate_bps", "burst_on_s",
                "burst_off_s", "repetitions", "idle_rate_bps", "notification", "drain_s",
                "virtual_channels"),
    "app": ("policy", "seed", "topology", "app", "app_args", "notification", "router_series"),
}
#: the cell fields a task may leave out, and their values then.
_CELL_DEFAULTS = {"seed": 0, "burst_off_s": 0.0, "noise_rate_bps": 0.0, "idle_rate_bps": 0.0,
                  "notification": "destination", "drain_s": 1e-3, "virtual_channels": 1,
                  "app_args": {}, "router_series": False}


def _cell_spec(kind: str, params: dict) -> ScenarioSpec:
    params = _known_fields(params, CELL_FIELDS[kind], f"{kind} params")
    missing = [name for name in CELL_FIELDS[kind]
               if name not in params and name not in _CELL_DEFAULTS]
    if missing:
        raise ValueError(f"missing required {kind} field(s) {missing}")
    p = {**_CELL_DEFAULTS, **params}
    if kind == "app":
        p = _typed_fields(p, ScenarioSpec, "app params")
        if not isinstance(p["app_args"], dict):
            raise ValueError(f"'app_args' must be an object, got {reprlib.repr(p['app_args'])}")
        return app_spec(_text_param(p, "app", ""), p["policy"], p["seed"], p["topology"],
                        p["notification"], p["app_args"], p["router_series"])
    flows = p.get("flows", [])
    if not isinstance(flows, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and all(isinstance(h, int) and not isinstance(h, bool) for h in pair)
        for pair in flows
    ):
        raise ValueError(
            f"'flows' must be a list of [src, dst] host pairs, got {reprlib.repr(flows)}"
        )
    pattern = _text_param(p, "pattern", "") if kind == "pattern" else None
    return ScenarioSpec(
        policy=_text_param(p, "policy", ""), seed=_int_param(p, "seed", 0),
        topology=_text_param(p, "topology", ""),
        flows=tuple((src, dst) for src, dst in flows),
        rate_bps=_float_param(p, "rate_bps"), burst_on_s=_float_param(p, "burst_on_s"),
        burst_off_s=_float_param(p, "burst_off_s"),
        repetitions=_int_param(p, "repetitions", 1, least=1),
        noise_rate_bps=_float_param(p, "noise_rate_bps"),
        idle_rate_bps=_float_param(p, "idle_rate_bps"),
        notification=_text_param(p, "notification", ""), drain_s=_float_param(p, "drain_s"),
        pattern=pattern, hosts=_int_param(p, "hosts", 0) if kind == "pattern" else None,
        virtual_channels=_int_param(p, "virtual_channels", 1, least=1),
    )


def _check_values(spec: ScenarioSpec) -> None:
    """Refuse, naming the field, a spec whose run could not complete."""
    from repro.routing import check_policy_spec
    from repro.topology import make_topology
    from repro.traffic.patterns import PATTERNS

    try:
        check_policy_spec(spec.policy)
    except ValueError as exc:
        raise ValueError(f"'policy': {exc}") from exc
    try:
        topology = make_topology(spec.topology)
    except ValueError as exc:
        raise ValueError(f"'topology': {exc}") from exc
    if spec.notification not in ("destination", "router"):
        raise ValueError(f"'notification' must be 'destination' or 'router', "
                         f"got {reprlib.repr(spec.notification)}")
    if spec.app is not None:
        _check_app(spec, topology.num_hosts)
        return
    if spec.rate_bps <= 0 or spec.burst_on_s <= 0:
        raise ValueError("'rate_bps' and 'burst_on_s' must be > 0")
    bad = [pair for pair in spec.flows
           if pair[0] == pair[1] or not all(0 <= h < topology.num_hosts for h in pair)]
    if bad:
        raise ValueError(f"'flows' {bad} need two distinct hosts of the "
                         f"{topology.num_hosts} on {spec.topology}")
    if spec.pattern is None:
        return
    if spec.pattern not in (*PATTERNS, "uniform"):
        raise ValueError(f"'pattern' {reprlib.repr(spec.pattern)} is not one of "
                         f"{sorted(PATTERNS)} + uniform")
    hosts = spec.hosts or 0
    if hosts < 2 or hosts & (hosts - 1) or hosts > topology.num_hosts:
        raise ValueError(f"'hosts' must be a power of two from 2 to the "
                         f"{topology.num_hosts} on {spec.topology}, got {spec.hosts}")


def _check_app(spec: ScenarioSpec, hosts: int) -> None:
    """Refuse an unknown app, an argument its trace factory does not take
    (``seed`` and ``rng`` included), a value not of the argument's
    annotated type, more rounds than :data:`MAX_APP_REPEATS` (before any
    trace is built), and arguments whose trace no run could complete: the
    factory fails on them, the trace holds a message under one byte, or
    its ranks are none or more than the topology's hosts."""
    from repro.apps import APP_TRACES
    from repro.routing.registry import spec_params

    app, args = spec.app, dict(spec.app_args)
    factory = APP_TRACES.get(app)
    if factory is None:
        raise ValueError(f"'app' {reprlib.repr(app)} is not one of {sorted(APP_TRACES)}")
    takes = {name: check for name, check in (spec_params(factory) or {}).items()
             if name != "seed"}
    for name, value in args.items():
        if name not in takes:
            raise ValueError(f"'app_args': {app} takes no argument {name!r}; "
                             f"it takes {sorted(takes)}")
        check = takes[name]
        if check is not None and not check[0](value):
            raise ValueError(f"'app_args': {name!r} must be {check[1]}, "
                             f"got {reprlib.repr(value)}")
    off_hosts = f"'app_args': num_ranks must be from 1 to the {hosts} hosts on {spec.topology}"
    if args.get("num_ranks", 1) > hosts:  # refused before a trace that wide is built
        raise ValueError(f"{off_hosts}, got {args['num_ranks']}")
    defaults = inspect.signature(factory).parameters
    repeats = {name: args.get(name, defaults[name].default)
               for name in _REPEAT_ARGS if name in defaults}
    if math.prod(max(1, value or 1) for value in repeats.values()) > MAX_APP_REPEATS:
        raise ValueError(f"'app_args': {app}'s {' x '.join(repeats)} must be at most "
                         f"{MAX_APP_REPEATS}, got {' x '.join(map(str, repeats.values()))}")
    try:
        trace = _app_trace(spec)
    except Exception as exc:  # the factory's own refusal, whatever its type
        raise ValueError(f"'app_args': {app} builds no trace from {args}: "
                         f"{type(exc).__name__}: {exc}") from exc
    if not 1 <= trace.num_ranks <= hosts:
        raise ValueError(f"{off_hosts}, got {trace.num_ranks}")
    smallest = min((event.size_bytes for events in trace.events.values() for event in events
                    if hasattr(event, "size_bytes")), default=1)
    if smallest < 1:
        raise ValueError(f"'app_args': {app} builds a {smallest}-byte message from {args}; "
                         f"every message needs at least 1 byte")


def _app_trace(spec: ScenarioSpec) -> "Trace":
    """``spec.app``'s trace from its ``app_args``, and from the spec's
    seed when the factory takes a ``seed``."""
    from repro.apps import APP_TRACES

    factory = APP_TRACES[spec.app]
    args = dict(spec.app_args)
    if "seed" in inspect.signature(factory).parameters:
        args["seed"] = spec.seed
    return factory(**args)


def scenario_spec(kind: str, params: dict) -> ScenarioSpec:
    """Parse a task's params into its spec: the one parser for every kind.

    ``replay`` params are ``{"policy", "seed", "mesh_side",
    "repetitions"}``; ``fault`` params are ``{"policy", "spec": {...}}``
    with a :meth:`repro.faults.campaign.FaultCampaignSpec.to_dict` body;
    ``hotspot``, ``pattern`` and ``app`` params are the spec's own fields
    (:data:`CELL_FIELDS`).  Missing fields take their defaults.  Unknown
    and missing required fields, mistyped values, and values no run
    could complete (an unregistered policy or app, a host off the
    topology, a negative rate) raise ``ValueError`` naming the field.
    """
    if kind in CELL_FIELDS:
        spec = _cell_spec(kind, params)
    elif kind == "replay":
        params = _known_fields(params, ("policy", "seed", "mesh_side", "repetitions"), kind)
        spec = replay_spec(
            _text_param(params, "policy", "pr-drb"),
            _int_param(params, "seed", 0),
            _int_param(params, "mesh_side", 4, least=2),
            _int_param(params, "repetitions", 3, least=1),
        )
    elif kind == "fault":
        from repro.faults.campaign import FaultCampaignSpec
        from repro.network.config import ReliabilityConfig

        params = _known_fields(params, ("policy", "spec"), kind)
        data = _typed_fields(params.get("spec", {}), FaultCampaignSpec, "fault spec")
        if "reliability" in data:
            data["reliability"] = ReliabilityConfig(
                **_typed_fields(data["reliability"], ReliabilityConfig, "reliability")
            )
        spec = FaultCampaignSpec(**data).scenario(_text_param(params, "policy", "pr-drb"))
    else:
        raise ValueError(
            f"unknown scenario kind {kind!r} (expected one of replay, fault, "
            f"{', '.join(CELL_FIELDS)})"
        )
    _check_values(spec)
    return spec


def cell_params(spec: ScenarioSpec) -> tuple[str, dict]:
    """The ``(kind, params)`` of the ``hotspot``, ``pattern`` or ``app``
    task that :func:`scenario_spec` parses back into ``spec``."""
    kind = "app" if spec.app is not None else "hotspot" if spec.pattern is None else "pattern"
    params = {name: getattr(spec, name) for name in CELL_FIELDS[kind]}
    if kind == "hotspot":
        params["flows"] = [list(pair) for pair in spec.flows]
    elif kind == "app":
        params["app_args"] = dict(spec.app_args)
    return kind, params


@dataclass
class Scenario:
    """A built scenario: workload started, clock not yet run to the end.

    ``run_scenario`` is :func:`build` → ``sim.run(until)`` →
    :func:`finish`; the split lets the throughput timers
    (``benchmarks/timing.py``, perfbench) time ``sim.run`` alone.
    """

    spec: ScenarioSpec
    #: simulated stop time: the drain's end, an app's :data:`APP_TIMEOUT_S`,
    #: or ``None`` when the spec has no drain.
    until: Optional[float]
    sim: Simulator
    trace: Optional[EventTraceDigest]
    recorder: StatsRecorder
    policy_obj: RoutingPolicy
    fabric: Fabric
    workload: object
    transport: object = None
    injector: object = None
    invariants: object = None


def build(
    spec: ScenarioSpec,
    *,
    digest: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
    with_invariants: bool = False,
) -> Scenario:
    """Construct (but do not run) ``spec``'s scenario.

    The network comes from :func:`repro.api.build_network`, its policy
    drawing from the seed's ``routing`` stream.  Construction order is
    load-bearing: the initial event schedule fixes the event digests.
    The observers never perturb the run: ``digest`` installs the
    event-trace digest :func:`finish` reads (the throughput timers leave
    it off), ``tracer``/``metrics`` install :mod:`repro.obs` and
    ``with_invariants`` installs :class:`~repro.analysis.invariants.DebugInvariants`.
    An app spec's trace starts at time 0 and runs until its last rank
    finishes, at most :data:`APP_TIMEOUT_S`.
    """
    from repro.api import build_network, start_pattern
    from repro.metrics.recorder import StatsRecorder
    from repro.network.config import NetworkConfig
    from repro.sim.rng import RandomStreams
    from repro.traffic.generators import HotSpotFlow, HotSpotWorkload

    streams = RandomStreams(spec.seed)
    net = build_network(
        spec.topology, spec.policy, NetworkConfig(virtual_channels=spec.virtual_channels),
        spec.notification,
        StatsRecorder(window_s=RECORDER_WINDOW_S, track_router_series=spec.router_series),
        rng=streams.stream("routing"),
    )
    sim, fabric = net.sim, net.fabric
    # Building the network scheduled no event, so the digest still sees
    # every event the run executes.
    trace = EventTraceDigest().install(sim) if digest else None
    if tracer is not None or metrics is not None:
        from repro.obs import instrument

        instrument(fabric, tracer, metrics, cadence_s=metrics_cadence_s)
    faults = spec.faults
    transport = injector = invariants = None
    if faults is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import ReliableTransport

        transport = ReliableTransport(fabric, faults.reliability)
        injector = FaultInjector(fabric, rng=streams.stream("faults"))
    if with_invariants:
        from repro.analysis.invariants import DebugInvariants

        invariants = DebugInvariants(fabric).install()
    workload: object
    until: Optional[float] = APP_TIMEOUT_S
    if spec.app is not None:
        from repro.mpi.runtime import TraceRuntime

        runtime = TraceRuntime(fabric, _app_trace(spec))
        runtime.start()
        workload = runtime
    else:
        schedule = spec.burst_schedule()
        stop = schedule.end_time()
        until = None if spec.drain_s is None else stop + spec.drain_s
        if spec.pattern is not None:
            workload = start_pattern(
                fabric, spec.pattern, range(spec.hosts or 0), spec.rate_bps, schedule, stop,
                streams, idle_rate_bps=spec.idle_rate_bps,
            )
        else:
            flows = [HotSpotFlow(src, dst) for src, dst in spec.flows]
            if faults is not None and injector is not None:
                injector.apply(*faults.models(fabric.topology, flows, schedule))
            hotspot = HotSpotWorkload(
                fabric, flows, rate_bps=spec.rate_bps, schedule=schedule, stop_s=stop,
                noise_hosts=range(fabric.topology.num_hosts),
                noise_rate_bps=spec.noise_rate_bps, rng=streams.stream("noise"),
                idle_rate_bps=spec.idle_rate_bps,
            )
            hotspot.start()
            workload = hotspot
    return Scenario(
        spec=spec, until=until, sim=sim, trace=trace, recorder=net.recorder,
        policy_obj=net.policy, fabric=fabric, workload=workload,
        transport=transport, injector=injector, invariants=invariants,
    )


def finish(scenario: Scenario) -> RunDigest:
    """Digest a scenario built with ``digest=True`` whose clock has run."""
    if scenario.trace is None:
        raise ValueError("finish() needs a scenario built with digest=True")
    if scenario.invariants is not None:
        scenario.invariants.check()
    return RunDigest(
        seed=scenario.spec.seed,
        policy=scenario.spec.policy,
        events=scenario.trace.hexdigest(),
        metrics=digest_metrics(scenario.fabric, scenario.recorder, scenario.policy_obj),
        events_executed=scenario.sim.events_executed,
        packets_delivered=scenario.fabric.data_packets_delivered,
    )


def task_result(scenario: Scenario) -> dict:
    """The JSON result of a finished ``replay`` or ``fault`` task."""
    if scenario.spec.faults is None:
        return finish(scenario).to_dict()
    from repro.faults.campaign import fault_result

    return fault_result(scenario).to_dict()


def run_scenario(
    seed: int = 0,
    policy: str = "pr-drb",
    mesh_side: int = 4,
    repetitions: int = 3,
    with_invariants: bool = False,
    tracer=None,
    metrics=None,
    metrics_cadence_s: float | None = None,
) -> RunDigest:
    """One complete :func:`replay_spec` run, fully seeded, digested.

    Observation never perturbs behavior, so the digests are identical
    with or without ``tracer``/``metrics`` —
    ``tests/test_obs_instrument.py::TestNonPerturbation`` checks exactly
    that through this entry point.
    """
    scenario = build(
        replay_spec(policy, seed, mesh_side, repetitions), digest=True,
        tracer=tracer, metrics=metrics, metrics_cadence_s=metrics_cadence_s,
        with_invariants=with_invariants,
    )
    scenario.sim.run(until=scenario.until)
    return finish(scenario)
