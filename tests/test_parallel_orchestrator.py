"""Sweep orchestrator: determinism, caching, supervision, crash isolation.

The pooled tests spawn real worker processes; they are kept few and
small because each spawn-context worker pays the interpreter+numpy
import cost.
"""

import pytest

from repro.analysis.replay import run_scenario
from repro.parallel import (
    SimTask,
    SweepConfig,
    SweepExecutor,
    run_sweep,
)

VERSION = "orchtest000000001"


def replay_task(policy, seed):
    return SimTask(
        kind="replay",
        params={"policy": policy, "seed": seed, "mesh_side": 4, "repetitions": 2},
        label=f"{policy}/s{seed}",
    )


def selftest(mode, **extra):
    return SimTask(kind="selftest", params={"mode": mode, **extra})


class TestInlineSweep:
    def test_matches_direct_execution(self):
        tasks = [replay_task("pr-drb", 0), replay_task("drb", 1)]
        report = run_sweep(tasks, SweepConfig(code_version=VERSION))
        assert report.all_ok
        direct = [
            run_scenario(seed=0, policy="pr-drb", mesh_side=4, repetitions=2),
            run_scenario(seed=1, policy="drb", mesh_side=4, repetitions=2),
        ]
        for result, digest in zip(report.results, direct):
            assert result["events"] == digest.events
            assert result["metrics"] == digest.metrics
            assert result["events_executed"] == digest.events_executed

    def test_deduplicates_identical_specs(self):
        task = replay_task("pr-drb", 0)
        clone = replay_task("pr-drb", 0)
        report = run_sweep([task, clone], SweepConfig(code_version=VERSION))
        assert len(report.outcomes) == 1
        assert report.index_of == [0, 0]
        assert report.results[0] == report.results[1]

    def test_failure_does_not_poison_other_cells(self):
        tasks = [selftest("ok", value=1), selftest("fail"), selftest("ok", value=2)]
        report = run_sweep(
            tasks, SweepConfig(code_version=VERSION, max_retries=1)
        )
        assert not report.all_ok
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.results[0] == {"value": 1}
        assert report.results[1] is None
        assert report.results[2] == {"value": 2}
        # ledger: one transient + one final event for the failing cell.
        assert [f.final for f in report.failures] == [False, True]
        assert all(f.reason == "error" for f in report.failures)
        assert "ValueError" in report.failures[-1].error

    def test_retry_budget_consumed_before_final(self):
        report = run_sweep(
            [selftest("fail")], SweepConfig(code_version=VERSION, max_retries=2)
        )
        assert report.outcomes[0].attempts == 3  # first try + 2 retries

    def test_progress_events(self):
        events = []
        run_sweep(
            [selftest("ok")], SweepConfig(code_version=VERSION),
            progress=events.append,
        )
        assert [e["event"] for e in events] == ["done"]
        assert events[0]["total"] == 1

    def test_run_strict_raises_on_failure(self):
        executor = SweepExecutor(
            config=SweepConfig(code_version=VERSION, max_retries=0)
        )
        with pytest.raises(RuntimeError, match="1 sweep cell"):
            executor.run_strict([selftest("fail")])


class TestCaching:
    def test_second_sweep_runs_zero_simulations(self, tmp_path):
        config = SweepConfig(code_version=VERSION, cache_dir=str(tmp_path))
        tasks = [replay_task("pr-drb", 0), replay_task("drb", 0)]
        first = run_sweep(tasks, config)
        assert (first.executed, first.cache_hits) == (2, 0)
        second = run_sweep(tasks, config)
        assert (second.executed, second.cache_hits) == (0, 2)
        # bit-identical replay digests straight from the cache.
        for a, b in zip(first.results, second.results):
            assert a == b

    def test_code_version_bump_invalidates(self, tmp_path):
        tasks = [replay_task("pr-drb", 0)]
        run_sweep(tasks, SweepConfig(code_version="v1", cache_dir=str(tmp_path)))
        report = run_sweep(
            tasks, SweepConfig(code_version="v2", cache_dir=str(tmp_path))
        )
        assert report.cache_hits == 0
        assert report.executed == 1

    def test_corrupted_entry_recomputed(self, tmp_path):
        from repro.parallel.cache import ResultCache

        config = SweepConfig(code_version=VERSION, cache_dir=str(tmp_path))
        tasks = [replay_task("pr-drb", 0)]
        first = run_sweep(tasks, config)
        cache = ResultCache(tmp_path)
        entry_path = next(tmp_path.glob("??/*.json"))
        entry_path.write_text(entry_path.read_text()[:-10], encoding="utf-8")
        second = run_sweep(tasks, config)
        assert second.executed == 1  # detected, evicted, recomputed
        assert second.results == first.results
        assert cache.get(next(tmp_path.glob("??/*.json")).stem) is not None

    def test_manifest_written(self, tmp_path):
        from repro.parallel.cache import ResultCache

        run_sweep(
            [selftest("ok")],
            SweepConfig(code_version=VERSION, cache_dir=str(tmp_path)),
        )
        manifest = ResultCache(tmp_path).read_manifest()
        assert manifest["executed"] == 1
        assert manifest["code_version"] == VERSION
        assert "cache_stats" in manifest
        assert "result" not in manifest["outcomes"][0]


@pytest.mark.slow
class TestPooledSweep:
    def test_parallel_digests_bit_identical_to_serial(self):
        tasks = [replay_task(policy, seed) for policy in ("pr-drb", "drb") for seed in (0, 1)]
        serial = run_sweep(tasks, SweepConfig(code_version=VERSION))
        parallel = run_sweep(
            tasks, SweepConfig(workers=2, code_version=VERSION)
        )
        assert parallel.all_ok
        assert serial.results == parallel.results

    def test_worker_crash_retried_and_ledgered(self, tmp_path):
        flag = tmp_path / "crashed.flag"
        tasks = [
            selftest("crash-once", flag_path=str(flag)),
            selftest("ok", value=42),
        ]
        report = run_sweep(
            tasks, SweepConfig(workers=2, code_version=VERSION, max_retries=3)
        )
        assert report.all_ok  # crash recovered, neighbour unharmed
        assert report.results[0] == {"value": "recovered"}
        assert report.results[1] == {"value": 42}
        assert flag.exists()
        assert any(f.reason == "worker-crash" for f in report.failures)
        assert not any(f.final for f in report.failures)

    def test_timeout_kills_and_ledgers(self):
        tasks = [selftest("spin")]
        report = run_sweep(
            tasks,
            SweepConfig(
                workers=2, code_version=VERSION, timeout_s=0.75, max_retries=0
            ),
        )
        assert not report.all_ok
        assert report.outcomes[0].status == "failed"
        assert report.failures[-1].reason == "timeout"
        assert report.failures[-1].final

    def test_inline_sweep_refuses_a_timeout(self):
        # An inline cell runs in this process and cannot be stopped, so a
        # timeout there is refused instead of silently ignored.
        with pytest.raises(ValueError, match="timeout_s"):
            run_sweep(
                [selftest("ok")],
                SweepConfig(workers=1, code_version=VERSION, timeout_s=0.001),
            )


class TestDefaultExecutor:
    """Environment-driven executor config, including the cpu_count clamp."""

    def test_disabled_without_env(self, monkeypatch):
        from repro.parallel import default_executor

        monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
        assert default_executor() is None

    def test_bad_value_raises_naming_the_variable(self, monkeypatch):
        from repro.parallel import default_executor

        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS.*'lots'"):
            default_executor()

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        import os

        from repro.parallel import default_executor

        cpu_count = os.cpu_count() or 1
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", str(cpu_count + 64))
        executor = default_executor()
        assert executor is not None
        # Never oversubscribe, but keep the >= 2 floor that makes a pool
        # a pool even on a single-core box.
        assert executor.config.workers == max(2, cpu_count)

    def test_workers_within_cpu_count_untouched(self, monkeypatch):
        from repro.parallel import default_executor

        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
        executor = default_executor()
        assert executor is not None
        assert executor.config.workers == 2
