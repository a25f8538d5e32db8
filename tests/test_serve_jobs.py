"""Job grid expansion, content-addressed job identity, journal replay."""

import json

import pytest

from repro.parallel.tasks import workload_kwargs
from repro.serve.jobs import Job, JobStore, expand_grid, grid_key


SCHEDULE = {"on_s": 1e-4, "off_s": 1e-4, "repetitions": 2}
HOTSPOT = {"topology": "mesh:4", "flows": [[0, 15]], "rate_mbps": 400, "schedule": SCHEDULE}
PATTERN = {"topology": "mesh:4", "pattern": "bit-reversal", "rate_mbps": 400}


class TestExpandGrid:
    def test_replay_grid_mirrors_parallel_cli(self):
        tasks = expand_grid({
            "kind": "replay", "policies": ["pr-drb", "drb"], "seeds": [0, 1],
            "mesh_side": 4, "repetitions": 2,
        })
        assert len(tasks) == 4
        assert tasks[0].kind == "replay"
        assert tasks[0].params == {
            "policy": "pr-drb", "seed": 0, "mesh_side": 4, "repetitions": 2,
        }
        assert tasks[0].label == "replay:pr-drb/seed0"

    def test_seed_count_expands_to_range(self):
        tasks = expand_grid({"kind": "replay", "policies": ["drb"], "seeds": 3})
        assert [t.params["seed"] for t in tasks] == [0, 1, 2]

    def test_fault_grid_nests_spec(self):
        tasks = expand_grid({
            "kind": "fault", "policies": ["pr-drb"], "seeds": [7],
            "ack_loss": 0.25,
        })
        assert tasks[0].params["spec"]["ack_loss"] == 0.25
        assert tasks[0].params["spec"]["seed"] == 7

    def test_hotspot_requires_topology(self):
        with pytest.raises(ValueError, match="topology"):
            expand_grid({"kind": "hotspot", "policies": ["drb"], "seeds": 1})

    def test_workload_grid_params_pass_through_unchanged(self):
        for kind, extra in (("hotspot", HOTSPOT), ("pattern", PATTERN)):
            tasks = expand_grid({"kind": kind, "policies": ["drb"], "seeds": 1,
                                 "params": extra})
            assert tasks[0].params == {**extra, "policy": "drb", "seed": 0}
            parsed = workload_kwargs(kind, tasks[0].params)
            assert (parsed["policies"], parsed["seeds"]) == (["drb"], (0,))

    def test_explicit_task_list_passthrough(self):
        tasks = expand_grid({
            "tasks": [
                {"kind": "replay", "params": {"policy": "drb", "seed": 0},
                 "label": "cell-a"},
            ],
        })
        assert len(tasks) == 1
        assert tasks[0].label == "cell-a"

    def test_selftest_kind_rejected(self):
        with pytest.raises(ValueError, match="not servable"):
            expand_grid({"tasks": [{"kind": "selftest", "params": {}}]})
        with pytest.raises(ValueError, match="not servable"):
            expand_grid({"kind": "selftest"})

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            expand_grid([])  # not an object
        with pytest.raises(ValueError):
            expand_grid({"tasks": []})
        with pytest.raises(ValueError):
            expand_grid({"kind": "replay", "policies": []})
        with pytest.raises(ValueError):
            expand_grid({"kind": "replay", "seeds": 0})
        # wrong JSON types: a ValueError naming the field, never a TypeError
        for spec, field in [
            ({"policies": 5}, "policies"),
            ({"policies": "drb"}, "policies"),
            ({"params": 5}, "params"),
            ({"params": [1]}, "params"),
            ({"mesh_side": None}, "mesh_side"),
            ({"seeds": [None]}, "seeds"),
            ({"repetitions": [1]}, "repetitions"),
            ({"kind": "fault", "ack_loss": None}, "ack_loss"),
            ({"tasks": [{"kind": "replay", "params": 5}]}, r"tasks\[0\]\.params"),
            # unknown or mistyped scenario fields: refused, never dropped
            ({"kind": "replay", "params": {"mesh_sid": 8}}, "mesh_sid"),
            ({"kind": "fault", "params": {"ack_los": 0.2}}, "ack_los"),
            ({"kind": "fault", "params": {"reliability": {"max_retries": 2, "bogus": 1}}},
             "bogus"),
            ({"tasks": [{"kind": "replay", "params": {"sed": 1}}]},
             r"tasks\[0\]\.params.*sed"),
            ({"tasks": [{"kind": "fault", "params": {"policy": "drb", "seed": 1}}]},
             "seed"),
            ({"tasks": [{"kind": "replay", "params": {"mesh_side": 4.5}}]}, "mesh_side"),
            # hotspot / pattern cells: refused at POST, not failed in the worker
            ({"kind": "hotspot", "params": {"topology": "mesh:8"}}, "flows"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "rate_mbps": "fast"}}, "rate_mbps"),
            ({"kind": "pattern", "params": {**PATTERN, "bogus": 1}}, "bogus"),
            ({"kind": "pattern", "params": {**PATTERN, "windw_s": 1.0}}, "windw_s"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "schedule": {"on_s": 1e-4, "off_s": 0.0}}},
             "repetitions"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "schedule": {**SCHEDULE, "on": 1}}},
             "on"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "schedule": {**SCHEDULE, "off_s": "x"}}},
             r"schedule\.off_s"),
            ({"kind": "pattern", "params": {**PATTERN, "config": {"bogus": 1}}}, "bogus"),
            ({"kind": "pattern", "params": {**PATTERN, "config": {"cut_through": 1}}},
             r"config\.cut_through"),
            ({"tasks": [{"kind": "hotspot",
                         "params": {**HOTSPOT, "policy": "drb", "flows": [[0]]}}]},
             r"tasks\[0\]\.params.*flows"),
        ]:
            with pytest.raises(ValueError, match=field):
                expand_grid(spec)


class TestGridKey:
    def test_same_cells_same_key_regardless_of_spelling(self):
        one = expand_grid({"kind": "replay", "policies": ["drb", "pr-drb"], "seeds": 2})
        # different spec spelling, same expanded cell set (order differs)
        two = expand_grid({"kind": "replay", "policies": ["pr-drb", "drb"],
                           "seeds": [1, 0]})
        assert grid_key(one, "v1") == grid_key(two, "v1")

    def test_code_version_forks_identity(self):
        tasks = expand_grid({"kind": "replay", "policies": ["drb"], "seeds": 1})
        assert grid_key(tasks, "v1") != grid_key(tasks, "v2")

    def test_different_params_fork_identity(self):
        a = expand_grid({"kind": "replay", "policies": ["drb"], "seeds": 1,
                         "repetitions": 2})
        b = expand_grid({"kind": "replay", "policies": ["drb"], "seeds": 1,
                         "repetitions": 3})
        assert grid_key(a, "v1") != grid_key(b, "v1")


class TestJobStore:
    def test_create_update_get_list(self):
        store = JobStore()
        job = store.create({"kind": "replay"}, "abcd1234deadbeef", total=4)
        assert job.id.startswith("job-000001-abcd1234")
        store.update(job.id, state="running", completed=2)
        assert store.get(job.id).completed == 2
        assert [j.id for j in store.list()] == [job.id]

    def test_find_active_only_matches_live_states(self):
        store = JobStore()
        job = store.create({}, "aaaa", total=1)
        assert store.find_active("aaaa") is job
        store.update(job.id, state="done")
        assert store.find_active("aaaa") is None

    def test_unknown_field_rejected(self):
        store = JobStore()
        job = store.create({}, "aaaa", total=1)
        with pytest.raises(AttributeError):
            store.update(job.id, nonsense=1)

    def test_journal_replay_restores_jobs(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        job = store.create({"kind": "replay"}, "abcd", total=2)
        store.update(job.id, state="done", completed=2, executed=2)
        store.close()

        reloaded = JobStore(journal)
        restored = reloaded.get(job.id)
        assert restored.state == "done"
        assert restored.executed == 2
        reloaded.close()

    def test_running_jobs_requeue_on_replay(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        job = store.create({"kind": "replay"}, "abcd", total=2)
        store.update(job.id, state="running", completed=1)
        store.close()  # process "dies" mid-job

        reloaded = JobStore(journal)
        restored = reloaded.get(job.id)
        assert restored.state == "queued"
        assert restored.completed == 0
        assert [j.id for j in reloaded.pending()] == [job.id]
        reloaded.close()

    def test_torn_tail_line_tolerated(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        job = store.create({}, "abcd", total=1)
        store.close()
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"op": "job", "job": {"id": "job-trunc')  # crash mid-write

        reloaded = JobStore(journal)
        assert reloaded.get(job.id) is not None
        assert len(reloaded.list()) == 1
        reloaded.close()

    def test_new_ids_continue_after_replay(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        store.create({}, "aaaa", total=1)
        store.close()
        reloaded = JobStore(journal)
        second = reloaded.create({}, "bbbb", total=1)
        assert second.id.startswith("job-000002-")
        reloaded.close()

    def test_job_roundtrip(self):
        job = Job(id="job-1", spec={"kind": "replay"}, grid_key="aa",
                  state="done", total=2, completed=2, executed=1, cache_hits=1,
                  cells=[{"key": "k", "label": "l", "status": "ok"}])
        assert Job.from_dict(json.loads(json.dumps(job.to_dict()))) == job
