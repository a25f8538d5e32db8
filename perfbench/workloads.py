"""The benchmark's three workloads: inputs, execution and output checks.

Two simulation workloads run in the benchmark's own process (or in a
fresh interpreter for the cold samples); ``served-grid`` drives
``python -m repro.serve`` over HTTP.  Inputs come only from the workload
seed: ``--seed n`` selects pinned input set ``n % PINNED_SEEDS``, whose
outputs ``reference.json`` pins, so every run checks what it simulated.

Importing this module imports no ``repro`` code: the cold samples time
those imports themselves.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

_clock = time.perf_counter

HOTSPOT = "hotspot-mesh8-prdrb"
DRAGONFLY = "dragonfly-noise-traced"
SERVED = "served-grid"
SIM_WORKLOADS = (HOTSPOT, DRAGONFLY)
WORKLOADS = SIM_WORKLOADS + (SERVED,)

#: ``--seed n`` runs pinned input set ``n % PINNED_SEEDS``.
PINNED_SEEDS = 8

#: the four colliding hot-spot flows of the paper's 8x8 mesh scenario.
HOTSPOT_FLOWS = ((0, 37), (8, 45), (16, 53), (24, 61))

GRID_POLICIES = ("deterministic", "drb", "fr-drb", "pr-drb", "notified-adaptive", "ugal")


@dataclass(frozen=True)
class Size:
    """Work per run.  ``full`` is the benchmark; ``tiny`` the smoke test."""

    hotspot_bursts: int
    dragonfly_bursts: int
    mesh_side: int
    policies: tuple
    seeds_per_policy: int
    cold_probes: int
    min_warm: int
    min_sessions: int
    cached_per_session: int


SIZES = {
    "full": Size(
        hotspot_bursts=5, dragonfly_bursts=3, mesh_side=8,
        policies=GRID_POLICIES, seeds_per_policy=4,
        cold_probes=21, min_warm=100, min_sessions=8, cached_per_session=16,
    ),
    "tiny": Size(
        hotspot_bursts=1, dragonfly_bursts=1, mesh_side=4,
        policies=("deterministic", "pr-drb"), seeds_per_policy=2,
        cold_probes=1, min_warm=2, min_sessions=1, cached_per_session=3,
    ),
}


def workload_seed(seed: int) -> int:
    return seed % PINNED_SEEDS


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def _exact(value):
    """JSON-safe output value; floats keep every bit as ``float.hex``."""
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    return float(value).hex()


class Scenario:
    """One simulation workload, built and ready to run."""

    def __init__(self, workload: str, wseed: int, size: Size, scratch: Path) -> None:
        from repro.metrics.recorder import StatsRecorder
        from repro.network.config import NetworkConfig
        from repro.network.fabric import Fabric
        from repro.parallel.tasks import make_topology
        from repro.routing import make_policy
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams
        from repro.traffic.bursty import BurstSchedule
        from repro.traffic.generators import HotSpotFlow, HotSpotWorkload

        streams = RandomStreams(wseed)
        self.sim = Simulator()
        self.recorder = StatsRecorder()
        self.tracer = None
        self.metrics = None
        self.trace_path: Optional[Path] = None
        if workload == HOTSPOT:
            self.policy = make_policy("pr-drb", rng=streams.stream("routing"))
            self.fabric = Fabric(
                make_topology("mesh:8"), NetworkConfig(), self.policy, self.sim,
                recorder=self.recorder,
            )
            schedule = BurstSchedule(
                on_s=3e-4, off_s=3e-4, repetitions=size.hotspot_bursts
            )
            HotSpotWorkload(
                self.fabric,
                [HotSpotFlow(src, dst) for src, dst in HOTSPOT_FLOWS],
                rate_bps=1.3e9,
                schedule=schedule,
                stop_s=schedule.end_time(),
                idle_rate_bps=250e6,
                rng=streams.stream("noise"),
            ).start()
        elif workload == DRAGONFLY:
            from repro.obs import JsonlSink, MetricsRegistry, Tracer, instrument

            self.policy = make_policy("notified-adaptive", rng=streams.stream("routing"))
            self.fabric = Fabric(
                make_topology("dragonfly:4,2,2"), NetworkConfig(), self.policy,
                self.sim, recorder=self.recorder, notification="router",
            )
            scratch.mkdir(parents=True, exist_ok=True)
            self.trace_path = scratch / f"trace-{os.getpid()}-{time.perf_counter_ns()}.jsonl"
            self.tracer = Tracer(sinks=[JsonlSink(str(self.trace_path), label=workload)])
            self.metrics = MetricsRegistry()
            instrument(self.fabric, self.tracer, self.metrics, cadence_s=1e-4)
            schedule = BurstSchedule(
                on_s=3e-4, off_s=1e-4, repetitions=size.dragonfly_bursts
            )
            HotSpotWorkload(
                self.fabric,
                [HotSpotFlow(h, h + 8) for h in range(8)],
                rate_bps=1.3e9,
                schedule=schedule,
                stop_s=schedule.end_time(),
                noise_hosts=range(self.fabric.topology.num_hosts),
                noise_rate_bps=30e6,
                rng=streams.stream("noise"),
            ).start()
        else:
            raise ValueError(f"not a simulation workload: {workload!r}")

    def run(self) -> None:
        """Run until the event queue drains."""
        self.sim.run()

    def outputs(self) -> dict:
        """The pinned outputs; closes the tracer so its file is complete."""
        fabric = self.fabric
        out = {
            "events": self.sim.events_executed,
            "injected": fabric.data_packets_injected,
            "delivered": fabric.data_packets_delivered,
            "acks": fabric.acks_delivered,
            "predictive_acks": fabric.predictive_acks_delivered,
            "policy_stats": _exact(self.policy.stats()),
            "mean_latency": _exact(self.recorder.mean_latency_s),
        }
        if self.tracer is not None:
            self.tracer.close()
            out["trace_records"] = self.tracer.emitted
            out["snapshots"] = len(self.metrics.snapshots)
        return out

    def discard(self) -> None:
        """Delete the trace file (outside any timed region)."""
        if self.trace_path is not None:
            self.trace_path.unlink(missing_ok=True)


@dataclass
class Execution:
    """Timings and outputs of one in-process execution."""

    outputs: dict
    run_s: float
    run_cpu_s: float
    job_s: float


def execute(workload: str, wseed: int, size: Size, scratch: Path) -> Execution:
    """Build, run to drain and read outputs, timing each phase."""
    start = _clock()
    scenario = Scenario(workload, wseed, size, scratch)
    built = _clock()
    cpu = time.process_time()
    scenario.run()
    cpu = time.process_time() - cpu
    ran = _clock()
    outputs = scenario.outputs()
    done = _clock()
    scenario.discard()
    return Execution(
        outputs=outputs, run_s=ran - built, run_cpu_s=cpu, job_s=done - start,
    )


def probe_main(workload: str, wseed: int, size: Size, scratch: Path) -> None:
    """Child side of a cold sample: build, say ready, run, print outputs."""
    scenario = Scenario(workload, wseed, size, scratch)
    print("ready", flush=True)
    scenario.run()
    outputs = scenario.outputs()
    print(json.dumps(outputs, sort_keys=True), flush=True)
    scenario.discard()


@dataclass
class ColdSample:
    outputs: Optional[dict]
    setup_s: float
    job_s: float


def cold_probe(
    run_py: Path, root: Path, env: dict, workload: str, seed: int, size_name: str,
) -> ColdSample:
    """Time a fresh interpreter from spawn to ready and to outputs."""
    cmd = [
        sys.executable, str(run_py), "--probe", "--workload", workload,
        "--seed", str(seed), "--size", size_name,
    ]
    start = _clock()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready_line = proc.stdout.readline()
        ready = _clock()
        result_line = proc.stdout.readline()
        done = _clock()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"cold probe exited with {proc.returncode}")
    if ready_line.strip() != "ready" or not result_line:
        raise RuntimeError("cold probe printed no result")
    return ColdSample(json.loads(result_line), ready - start, done - start)


# ----------------------------------------------------------------------
# Served grid
# ----------------------------------------------------------------------
def grid_spec(wseed: int, size: Size) -> dict:
    n = size.seeds_per_policy
    return {
        "kind": "replay",
        "mesh_side": size.mesh_side,
        "policies": list(size.policies),
        "seeds": [n * wseed + i for i in range(n)],
    }


def reference_cells(wseed: int, size: Size) -> dict:
    """Each cell's digests from a direct in-process run (no service)."""
    from repro.analysis.replay import run_scenario

    spec = grid_spec(wseed, size)
    cells = {}
    for policy in spec["policies"]:
        for seed in spec["seeds"]:
            digest = run_scenario(seed=seed, policy=policy, mesh_side=spec["mesh_side"])
            cells[f"replay:{policy}/seed{seed}"] = {
                "events": digest.events,
                "metrics": digest.metrics,
                "events_executed": digest.events_executed,
            }
    return cells


class ServiceClient:
    """One kept-alive JSON connection plus per-job SSE streams."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
        #: ``(start, end)`` of every JSON request; the traced run takes
        #: transport time from the parts no server span covers.
        self.round_trips: list[tuple[float, float]] = []

    def call(self, method: str, path: str, payload: Optional[dict] = None):
        body = None if payload is None else json.dumps(payload)
        headers = {} if body is None else {"Content-Type": "application/json"}
        start = _clock()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.round_trips.append((start, _clock()))
        return response.status, (json.loads(data) if data else None)

    def follow(self, job_id: str, on_cell_done: Optional[Callable[[int], None]] = None):
        """Read the job's SSE stream until its terminal frame.

        ``on_cell_done(completed)`` is called on each finished-cell
        progress frame.  Returns ``(job record, frame id, receive time)``,
        or None when the stream ends without one.
        """
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout_s)
        try:
            conn.request("GET", f"/jobs/{job_id}/events?idle=3")
            response = conn.getresponse()
            if response.status != 200:
                return None
            event, seq = None, 0
            while True:
                line = response.readline()
                if not line:
                    return None
                line = line.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("id: "):
                    seq = int(line[len("id: "):])
                elif line.startswith("data: ") and event in ("state", "job"):
                    payload = json.loads(line[len("data: "):])
                    job = payload.get("job") if event == "state" else payload["data"].get("job")
                    if job is not None and job["state"] in ("done", "failed"):
                        return job, seq, _clock()
                elif line.startswith("data: ") and event == "progress" and on_cell_done:
                    progress = json.loads(line[len("data: "):])["data"]
                    if progress.get("event") == "done":
                        on_cell_done(progress["completed"])
        finally:
            conn.close()

    def close(self) -> None:
        self.conn.close()


@dataclass
class JobOutcome:
    """One POST-to-results cycle and what was wrong with it."""

    terminal_s: float = 0.0
    total_s: float = 0.0
    job: Optional[dict] = None
    cells: Optional[dict] = None
    problems: list = field(default_factory=list)
    terminal_seq: int = 0
    terminal_at: float = 0.0
    cpu_s: Optional[float] = None


def run_job(
    client: ServiceClient, spec: dict, cpu_reader: Optional[Callable[[], float]] = None,
    on_cell_done: Optional[Callable[[int], None]] = None,
) -> JobOutcome:
    """POST ``spec``, follow its SSE stream to the terminal frame, GET results."""
    outcome = JobOutcome()
    cpu_start = cpu_reader() if cpu_reader is not None else None
    start = _clock()
    status, posted = client.call("POST", "/jobs", spec)
    if not 200 <= status < 300:
        outcome.problems.append(f"POST /jobs answered {status}")
        return outcome
    job_id = posted["job"]["id"]
    terminal = client.follow(job_id, on_cell_done)
    if terminal is None:
        outcome.problems.append("no terminal SSE frame")
    else:
        outcome.job, outcome.terminal_seq, outcome.terminal_at = terminal
        outcome.terminal_s = outcome.terminal_at - start
        if cpu_start is not None:
            outcome.cpu_s = cpu_reader() - cpu_start
    status, results = client.call("GET", f"/jobs/{job_id}/results")
    outcome.total_s = _clock() - start
    if not 200 <= status < 300:
        outcome.problems.append(f"GET results answered {status}")
        return outcome
    outcome.cells = {cell["label"]: cell for cell in results["cells"]}
    return outcome


def check_job(outcome: JobOutcome, reference: dict, cold: Optional[JobOutcome]) -> list:
    """Problems with a finished job; ``cold`` is None for the cold job."""
    problems = list(outcome.problems)
    job = outcome.job
    if job is not None:
        if job["state"] != "done" or job["failed_cells"]:
            problems.append(f"job {job['state']} with {job['failed_cells']} failed cells")
        expected = "executed" if cold is None else "cache_hits"
        if job[expected] != len(reference):
            problems.append(f"{expected}={job[expected]}, want {len(reference)}")
    if outcome.cells is None:
        return problems
    if sorted(outcome.cells) != sorted(reference):
        problems.append("result cells differ from the reference grid")
        return problems
    for label, want in reference.items():
        got = outcome.cells[label].get("result") or {}
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{label}: {key} differs from the reference")
        if cold is not None and cold.cells is not None:
            if got != cold.cells[label].get("result"):
                problems.append(f"{label}: cached result differs from the cold result")
    return problems


@dataclass
class Session:
    """A cold job then ``cached`` re-POSTs, against one running service."""

    cold: JobOutcome
    cached: list
    round_trips: list


def run_session(
    port: int, spec: dict, cached: int,
    cpu_reader: Optional[Callable[[], float]] = None, probe=None,
) -> Session:
    """The cold job, then the re-POSTs.

    ``probe`` (optional) has ``start()`` and ``end()``, called untimed
    just before the cold job's POST and after its results, and
    ``cell_done(completed)``, called on each of its finished cells.
    """
    client = ServiceClient(port)
    try:
        if probe is not None:
            probe.start()
        try:
            cold = run_job(client, spec, cpu_reader, probe and probe.cell_done)
        finally:
            if probe is not None:
                probe.end()
        outcomes = [run_job(client, spec) for _ in range(cached)]
        return Session(cold=cold, cached=outcomes, round_trips=client.round_trips)
    finally:
        client.close()


class ServerProcess:
    """``python -m repro.serve --port 0`` with a fresh cache directory."""

    def __init__(self, root: Path, env: dict, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "serve.log"
        start = _clock()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--port", "0",
                 "--cache-dir", str(workdir / "cache")],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.port = self._wait_port(deadline=start + 60)
            self._wait_healthy(deadline=start + 60)
        except BaseException:
            self.stop()
            raise
        #: process start to the first answered ``/healthz``.
        self.setup_s = _clock() - start

    def _wait_port(self, deadline: float) -> int:
        while _clock() < deadline:
            text = self.log_path.read_text(encoding="utf-8")
            marker = text.find("http://127.0.0.1:")
            if marker >= 0 and " " in text[marker:]:
                return int(text[marker:].split(" ", 1)[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro.serve exited early:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("repro.serve never reported its port")

    def _wait_healthy(self, deadline: float) -> None:
        while _clock() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                conn.close()
        raise RuntimeError("repro.serve never answered /healthz")

    def pause(self) -> None:
        """Stop the server process; returns once it has stopped."""
        self.proc.send_signal(signal.SIGSTOP)
        _, status = os.waitpid(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            raise RuntimeError(f"repro.serve exited while paused (status {status})")

    def resume(self) -> None:
        self.proc.send_signal(signal.SIGCONT)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGCONT)  # in case a pause was cut short
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
