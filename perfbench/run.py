"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hotspot-mesh8-prdrb --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no span wrappers installed; ``--trace 1`` makes an untraced pass and a
traced pass and reports the per-layer metrics.  Every run checks the
simulated outputs against ``reference.json``; a mismatch is a failed
operation.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full report,
with provenance and every sample behind an end-to-end metric, is also
written to ``.perfbench_results/``.  End-to-end times are divided by
the host slowdown ``calibrate.py`` samples around them.

``--record-reference`` re-pins ``reference.json`` (a conscious act:
only after a change that is meant to alter simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import workloads as wl
from calibrate import HostSpeed, between, pin_to_one_cpu

_clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

#: wall-clock cap on the measured loops, so a slow machine still exits
#: well inside the 180-second limit.
HARD_LIMIT_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_cold_s", "s"),
    ("job_cached_s", "s"),
    ("job_cached_p90_s", "s"),
)


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def load_reference(workload: str, size_name: str, wseed: int):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(size_name, {}).get(str(wseed))


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems)[:300])


def sim_problems(outputs, reference) -> list:
    if reference is None:
        return ["no pinned reference for this input set"]
    if outputs != reference:
        keys = sorted(k for k in set(outputs) | set(reference)
                      if outputs.get(k) != reference.get(k))
        return [f"outputs differ from the reference in {keys}"]
    return []


def served_problems(session, reference) -> list:
    """One problem list per job of ``session`` (cold job first)."""
    outcomes = [session.cold] + session.cached
    out = []
    for index, outcome in enumerate(outcomes):
        problems = wl.check_job(
            outcome, reference or {}, None if index == 0 else session.cold
        )
        if reference is None:
            problems.append("no pinned reference for this input set")
        out.append(problems)
    return out


# ----------------------------------------------------------------------
# End-to-end (untraced) runs
# ----------------------------------------------------------------------
def measure_sim(workload, seed, size_name, seconds, scratch, reference):
    size = wl.SIZES[size_name]
    wseed = wl.workload_seed(seed)
    tally = Tally()
    speed = HostSpeed()
    start = _clock()
    # One unsampled execution first: the process-wide caches fill here.
    tally.add(sim_problems(wl.execute(workload, wseed, size, scratch).outputs, reference))
    cold, cold_slow, warm, warm_slow = [], [], [], []
    # Cold probes are spread evenly over the run, between warm executions,
    # so both kinds of sample see the same phases of the host.
    probe_every = seconds / size.cold_probes
    deadline = start + seconds
    before = speed.sample()
    while (len(warm) < size.min_warm or len(cold) < size.cold_probes
           or _clock() < deadline):
        if len(cold) < size.cold_probes and _clock() - start >= len(cold) * probe_every:
            sample = wl.cold_probe(
                HERE / "run.py", ROOT, subprocess_env(), workload, seed, size_name
            )
            after = speed.sample()
            tally.add(sim_problems(sample.outputs, reference))
            cold.append(sample)
            cold_slow.append(between(before, after))
        else:
            execution = wl.execute(workload, wseed, size, scratch)
            after = speed.sample()
            tally.add(sim_problems(execution.outputs, reference))
            warm.append(execution)
            warm_slow.append(between(before, after))
        before = after
        if _clock() - start > HARD_LIMIT_S:
            break
    jobs = [e.job_s / f for e, f in zip(warm, warm_slow)]
    series = {
        "setup_s": [s.setup_s / f for s, f in zip(cold, cold_slow)],
        "run_s": [e.run_s / f for e, f in zip(warm, warm_slow)],
        "events_per_s": [
            e.outputs["events"] / e.run_cpu_s * f for e, f in zip(warm, warm_slow)
        ],
        "job_cold_s": [s.job_s / f for s, f in zip(cold, cold_slow)],
        "job_cached_s": jobs,
    }
    metrics = {name: median(values) for name, values in series.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["job_cached_p90_s"] = p90(jobs)
    series["slowdown"] = speed.samples
    return metrics, tally, series


class ColdJobProbe:
    """Host-speed samples through a served cold job.

    A cold job outlasts the host's phases, so one sample before and one
    after it do not tell how fast the host ran meanwhile.  On each
    finished cell the server process is stopped for one sample on its
    (pinned) core and then resumed; the job's times are reported less
    the time it spent stopped.  The last two cells' frames are left
    alone: one of them may arrive after the sweep has ended, when a
    pause would not count against the sweep's wall time.
    """

    def __init__(self, speed: HostSpeed, server, cells: int) -> None:
        self.speed = speed
        self.server = server
        self.cells = cells
        self.samples: list[float] = []
        self.paused_s = 0.0

    def start(self) -> None:
        self.samples.append(self.speed.sample())

    def cell_done(self, completed: int) -> None:
        if completed > self.cells - 2:
            return
        began = _clock()
        self.server.pause()
        try:
            self.samples.append(self.speed.sample())
        finally:
            self.server.resume()
        self.paused_s += _clock() - began

    def end(self) -> None:
        self.samples.append(self.speed.sample())

    def slowdown(self) -> float:
        return statistics.fmean(self.samples)


def measure_served(seed, size_name, seconds, scratch, reference):
    size = wl.SIZES[size_name]
    spec = wl.grid_spec(wl.workload_seed(seed), size)
    env = subprocess_env()
    tally = Tally()
    speed = HostSpeed()
    setups, colds, runs, rates, rss, cached = [], [], [], [], [], []
    start = _clock()
    deadline = start + seconds
    session_s = 0.0
    sessions = 0
    while sessions < size.min_sessions or _clock() + session_s < deadline:
        began = _clock()
        before = speed.sample()
        server = wl.ServerProcess(ROOT, env, scratch / f"serve-{sessions}")
        try:
            setups.append(server.setup_s / between(before, speed.sample()))
            probe = ColdJobProbe(speed, server, len(spec["policies"]) * len(spec["seeds"]))
            session = wl.run_session(
                server.port, spec, size.cached_per_session, cpu_reader=server.cpu_s,
                probe=probe,
            )
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        sessions += 1
        session_s = _clock() - began
        for problems in served_problems(session, reference):
            tally.add(problems)
        cold = session.cold
        if cold.job is not None and cold.cells is not None and cold.cpu_s:
            slow = probe.slowdown()
            colds.append((cold.terminal_s - probe.paused_s) / slow)
            runs.append((cold.job["wall_s"] - probe.paused_s) / slow)
            events = sum(c["result"]["events_executed"] for c in cold.cells.values())
            rates.append(events / cold.cpu_s * slow)
        cached.extend(o.total_s for o in session.cached if not o.problems)
        if _clock() - start > HARD_LIMIT_S:
            break
    if not colds or not cached:
        raise RuntimeError(f"no successful served jobs: {tally.reasons}")
    series = {
        "setup_s": setups, "run_s": runs, "events_per_s": rates,
        "peak_rss_mb": rss, "job_cold_s": colds, "job_cached_s": cached,
    }
    metrics = {name: median(values) for name, values in series.items()}
    metrics["job_cached_p90_s"] = p90(cached)
    series["slowdown"] = speed.samples
    return metrics, tally, series


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def trace_sim(workload, seed, size_name, seconds, scratch, reference):
    from layers import install, layer_metrics
    from spans import SpanProfiler

    size = wl.SIZES[size_name]
    wseed = wl.workload_seed(seed)
    tally = Tally()

    def loop(budget_s, minimum):
        runs = []
        began = _clock()
        while len(runs) < minimum or _clock() - began < budget_s:
            runs.append(wl.execute(workload, wseed, size, scratch))
        return runs

    untraced = loop(seconds / 3, 3)
    profiler = SpanProfiler()
    state = install(profiler)
    try:
        traced = loop(2 * seconds / 3, 2)
    finally:
        profiler.uninstall()
    baseline = untraced[0].outputs
    for execution in untraced:
        tally.add(sim_problems(execution.outputs, reference))
    for execution in traced:
        problems = sim_problems(execution.outputs, reference)
        if execution.outputs != baseline:
            problems.append("traced outputs differ from untraced outputs")
        tally.add(problems)
    overhead = median([e.run_s for e in traced]) / median([e.run_s for e in untraced])
    metrics = layer_metrics(
        profiler, state, wall_s=sum(e.job_s for e in traced), units=len(traced),
        overhead=overhead,
    )
    return metrics, tally, {"untraced": len(untraced), "traced": len(traced)}


def trace_served(seed, size_name, seconds, scratch, reference):
    from layers import install, layer_metrics
    from spans import SpanProfiler

    size = wl.SIZES[size_name]
    spec = wl.grid_spec(wl.workload_seed(seed), size)
    tally = Tally()

    def in_process_session(workdir: Path):
        from repro.serve.http import make_server
        from repro.serve.service import SimulationService

        workdir.mkdir(parents=True, exist_ok=True)
        service = SimulationService(
            cache_dir=str(workdir / "cache"), journal_path=str(workdir / "jobs.jsonl"),
        )
        server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            began = _clock()
            session = wl.run_session(server.server_address[1], spec, size.cached_per_session)
            return session, _clock() - began
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            thread.join(timeout=10)

    untraced, _ = in_process_session(scratch / "untraced")
    profiler = SpanProfiler()
    state = install(profiler)
    try:
        traced, wall_s = in_process_session(scratch / "traced")
    finally:
        profiler.uninstall()
    for problems in served_problems(untraced, reference):
        tally.add(problems)
    for index, problems in enumerate(served_problems(traced, reference)):
        if index == 0 and traced.cold.cells != untraced.cold.cells:
            problems.append("traced outputs differ from untraced outputs")
        tally.add(problems)
    if traced.cold.job is None or untraced.cold.job is None:
        raise RuntimeError(f"cold job did not finish: {tally.reasons}")
    lags = tuple(
        outcome.terminal_at - state.publish_times[outcome.terminal_seq]
        for outcome in [traced.cold] + traced.cached
        if outcome.terminal_seq in state.publish_times
    )
    metrics = layer_metrics(
        profiler, state, wall_s=wall_s, units=1,
        overhead=traced.cold.job["wall_s"] / untraced.cold.job["wall_s"],
        round_trips=tuple(traced.round_trips), sse_lags=lags,
    )
    jobs = 1 + len(traced.cached)
    return metrics, tally, {"untraced_jobs": jobs, "traced_jobs": jobs}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown".

    Read from ``.git`` directly, so nothing outside the checkout is
    consulted.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload, seed, size_name, seconds, trace) -> dict:
    from repro.parallel.tasks import code_version

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "code_version": code_version(),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "workload_seed": wl.workload_seed(seed),
        "size": size_name,
        "seconds": seconds,
        "trace": trace,
    }


def units_for(trace: int) -> dict:
    if trace:
        from layers import PER_LAYER

        return dict(PER_LAYER)
    return dict(END_TO_END)


def record_reference() -> int:
    scratch = ROOT / ".perfbench_tmp" / f"record-{os.getpid()}"
    reference: dict = {}
    try:
        for workload in wl.WORKLOADS:
            for size_name, size in wl.SIZES.items():
                pinned = reference.setdefault(workload, {}).setdefault(size_name, {})
                for wseed in range(wl.PINNED_SEEDS):
                    if workload == wl.SERVED:
                        pinned[str(wseed)] = wl.reference_cells(wseed, size)
                    else:
                        pinned[str(wseed)] = wl.execute(workload, wseed, size, scratch).outputs
                print(f"pinned {workload} ({size_name})", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                        help="work per run; 'tiny' is the smoke-test size")
    parser.add_argument("--probe", action="store_true",
                        help="internal: one cold execution in this fresh process")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-pin reference.json from this checkout")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    size = wl.SIZES[args.size]
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    if args.probe:
        wl.probe_main(args.workload, wl.workload_seed(args.seed), size, scratch)
        return 0

    reference = load_reference(args.workload, args.size, wl.workload_seed(args.seed))
    pin_to_one_cpu()
    try:
        if args.workload == wl.SERVED:
            run = trace_served if args.trace else measure_served
            metrics, tally, series = run(
                args.seed, args.size, args.seconds, scratch, reference
            )
        else:
            run = trace_sim if args.trace else measure_sim
            metrics, tally, series = run(
                args.workload, args.seed, args.size, args.seconds, scratch, reference
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = units_for(args.trace)
    samples = {k: len(v) if isinstance(v, list) else v for k, v in series.items()}
    report = {
        "provenance": provenance(
            args.workload, args.seed, args.size, args.seconds, args.trace
        ),
        "samples": samples,
        "failures": tally.reasons,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "series": {k: v for k, v in series.items() if isinstance(v, list)},
    }
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for metric, entry in report["metrics"].items():
        print(f"{metric:<42} {entry['value']:>16.6g} {entry['unit']}")
    print(f"samples: {json.dumps(samples)}")
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
