"""Job grid expansion, content-addressed job identity, journal replay."""

import functools
import json
import re

import pytest

from repro.analysis.replay import MAX_APP_REPEATS, scenario_spec
from repro.apps import APP_TRACES, pop_trace
from repro.parallel.tasks import MAX_CELLS
from repro.serve.jobs import Job, JobStore, expand_grid, grid_key


SCHEDULE = {"burst_on_s": 1e-4, "burst_off_s": 1e-4, "repetitions": 2}
HOTSPOT = {"topology": "mesh:4", "flows": [[0, 15]], "rate_bps": 4e8, **SCHEDULE}
PATTERN = {"topology": "mesh:4", "pattern": "bit-reversal", "hosts": 16, "rate_bps": 4e8,
           **SCHEDULE}
APP = {"topology": "fattree:4,2", "app": "pop", "app_args": {"num_ranks": 16}}


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

    def test_a_grid_of_max_cells_is_accepted(self):
        tasks = expand_grid({"policies": ["drb", "pr-drb"], "seeds": MAX_CELLS // 2})
        assert len(tasks) == MAX_CELLS

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
        for kind, extra in (("hotspot", HOTSPOT), ("pattern", PATTERN), ("app", APP)):
            tasks = expand_grid({"kind": kind, "policies": ["drb"], "seeds": 1,
                                 "params": extra})
            assert tasks[0].params == {**extra, "policy": "drb", "seed": 0}
            spec = scenario_spec(kind, tasks[0].params)
            assert (spec.policy, spec.seed) == ("drb", 0)

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
            ({"kind": "hotspot", "params": {**HOTSPOT, "rate_bps": "fast"}}, "rate_bps"),
            ({"kind": "pattern", "params": {**PATTERN, "bogus": 1}}, "bogus"),
            ({"kind": "pattern", "params": {**PATTERN, "windw_s": 1.0}}, "windw_s"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "repetitions": None}}, "repetitions"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "on": 1}}, r"\['on'\]"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "burst_off_s": "x"}}, "burst_off_s"),
            ({"kind": "pattern", "params": {**PATTERN, "config": {"bogus": 1}}}, "config"),
            ({"kind": "pattern", "params": {**PATTERN, "virtual_channels": "4"}},
             "virtual_channels"),
            ({"tasks": [{"kind": "hotspot",
                         "params": {**HOTSPOT, "policy": "drb", "flows": [[0]]}}]},
             r"tasks\[0\]\.params.*flows"),
            # values no run could complete: refused at POST too
            ({"policies": ["bogus"]}, "policies.*bogus"),
            ({"policies": ["drb:nope=1"]}, "policies.*nope"),
            ({"tasks": [{"kind": "replay", "params": {"policy": 5}}]}, "'policy'"),
            ({"mesh_side": 0}, "mesh_side"),
            ({"seeds": [-1]}, "seeds"),
            ({"seeds": []}, "seeds"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "topology": "mesh:abc"}}, "topology"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "flows": [[0, 99]]}}, "flows"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "rate_bps": -4e8}}, "rate_bps"),
            ({"kind": "hotspot", "params": {**HOTSPOT, "notification": "bogus"}},
             "notification"),
            ({"kind": "pattern", "params": {**PATTERN, "pattern": "nope"}}, "pattern"),
            ({"tasks": [{"kind": "fault", "params": {"spec": {"ack_loss": "x"}}}]}, "ack_loss"),
            ({"kind": "fault", "params": {"reliability": {"retx_timeout_s": "x"}}},
             "retx_timeout_s"),
            # app cells: an unknown app, an argument its factory does not
            # take, a mistyped one, more ranks (the factory's 64) than hosts
            ({"kind": "app", "params": {**APP, "app": "nosuch"}}, "'app'.*nosuch"),
            ({"kind": "app", "params": {**APP, "app_args": {"rng": 1}}}, "'app_args'.*'rng'"),
            ({"kind": "app", "params": {**APP, "app_args": {"steps": 2.5}}},
             "'steps' must be an integer"),
            ({"kind": "app", "params": {**APP, "app_args": {}}}, "got 64"),
            ({"kind": "app", "params": {**APP, "app_args": {"num_ranks": 0}}}, "got 0"),
            ({"kind": "app", "params": {**APP, "app_args": {"num_ranks": 10**9}}},
             "got 1000000000"),
            # ... and arguments the factory takes but builds no runnable
            # trace from: it fails on them, or a message is under a byte
            ({"kind": "app", "params": {**APP, "app": "nas-mg",
                                        "app_args": {"num_ranks": 16, "problem_class": "Z"}}},
             "'app_args': nas-mg builds no trace.*KeyError"),
            ({"kind": "app", "params": {**APP, "app": "lammps-chain",
                                        "app_args": {"num_ranks": 1}}},
             "'app_args': lammps-chain builds no trace"),
            ({"kind": "app", "params": {**APP, "app": "sweep3d",
                                        "app_args": {"num_ranks": 16, "message_bytes": -8}}},
             "'app_args': sweep3d builds a -8-byte message"),
            ({"kind": "app", "params": {**APP, "app": "lammps-comb",
                                        "app_args": {"num_ranks": 16, "message_bytes": 0}}},
             "'app_args': lammps-comb builds a 0-byte message"),
            ({"kind": "app", "params": {**APP, "app_args": {"num_ranks": 16, "halo_bytes": 3}}},
             "'app_args': pop builds a 0-byte message"),
            ({"kind": "app", "params": {**APP, "app_args": [16]}}, "'app_args'"),
            # more repeated rounds than MAX_APP_REPEATS: refused before
            # the trace is built
            ({"kind": "app", "params": {**APP, "app_args": {"num_ranks": 16, "steps": 400}}},
             "'app_args': pop's steps x solver_iterations must be at most 24, got 400 x 6"),
            ({"kind": "app", "params": {**APP, "app_args": {"num_ranks": 16, "steps": 10**9,
                                                           "solver_iterations": 0}}},
             "pop's steps x solver_iterations .* got 1000000000 x 0"),
            ({"kind": "app", "params": {**APP, "app": "nas-ft",
                                        "app_args": {"num_ranks": 16, "iterations": 25}}},
             "'app_args': nas-ft's iterations must be at most 24, got 25"),
            # spec and task fields the expansion would not read: refused,
            # never dropped
            ({"bogus": 1}, "bogus"),
            ({"kind": "replay", "ack_loss": 0.2}, "ack_loss"),
            ({"kind": "hotspot", "mesh_side": 8, "params": HOTSPOT}, "mesh_side"),
            ({"kind": "pattern", "repetitions": 2, "params": PATTERN}, "repetitions"),
            ({"kind": "app", "ack_loss": 0.1, "params": APP}, "ack_loss"),
            ({"tasks": [{"kind": "replay", "parms": {"policy": "drb", "seed": 5}}]},
             r"tasks\[0\].*parms"),
            ({"tasks": [{"kind": "replay"}], "seeds": 2}, "seeds"),
            # more cells than one job may hold: refused before any is built
            ({"seeds": 10**9}, "'seeds'.*4,000,000,000 cells"),  # 4 default policies
            ({"policies": ["drb", "pr-drb"], "seeds": list(range(5001))}, "'seeds'.*10,002"),
            ({"tasks": [{"kind": "replay"}] * (MAX_CELLS + 1)}, "'tasks'.*10,001 cells"),
        ]:
            with pytest.raises(ValueError, match=field):
                expand_grid(spec)


    def test_app_repeats_are_bounded_before_the_trace_is_built(self, monkeypatch):
        built = []

        @functools.wraps(pop_trace)
        def counted(*args, **kwargs):
            built.append(kwargs)
            return pop_trace(*args, **kwargs)

        monkeypatch.setitem(APP_TRACES, "pop", counted)
        at_bound = {"num_ranks": 16, "steps": MAX_APP_REPEATS // 6}  # 6 solver iterations
        assert len(expand_grid({"kind": "app", "params": {**APP, "app_args": at_bound}})) == 4
        assert built
        built.clear()
        over = {"num_ranks": 16, "steps": MAX_APP_REPEATS, "solver_iterations": 2}
        with pytest.raises(ValueError, match="steps x solver_iterations"):
            expand_grid({"kind": "app", "params": {**APP, "app_args": over}})
        assert built == []


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

    def test_torn_tail_does_not_swallow_the_next_job(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        JobStore(journal).close()
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"op":"job","job":{"id":"j0')  # crash mid-write
        restarted = JobStore(journal)
        job = restarted.create({"kind": "replay"}, "abcd", total=1)
        restarted.close()

        reloaded = JobStore(journal)
        assert [j.id for j in reloaded.list()] == [job.id]
        assert reloaded.get(job.id).state == "queued"
        reloaded.close()

    @pytest.mark.parametrize("line, message", [
        ("[1]", "must be an object"),
        ('{"op":"job"}', "must be an object"),
        ('{"op":"job","job":{"id":"j","spec":[1],"grid_key":"g"}}', "'spec' has type list"),
        ('{"op":"job","job":{"id":"j","spec":{},"grid_key":"g","state":"gone"}}', "'state'"),
        ('{"op":"note"}', '"op": "job"'),
        ("not json", "not a JSON line"),
    ])
    def test_malformed_journal_line_names_path_and_line(self, tmp_path, line, message):
        journal = tmp_path / "jobs.jsonl"
        store = JobStore(journal)
        store.create({}, "abcd", total=1)
        store.close()
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(line + '\n{"op":"jo')
        before = journal.read_bytes()
        with pytest.raises(ValueError, match=f"jobs.jsonl:2: .*{re.escape(message)}"):
            JobStore(journal)
        assert journal.read_bytes() == before  # a refused file is left as it was

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
