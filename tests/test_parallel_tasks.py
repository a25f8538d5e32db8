"""Task specs, canonical serialization, and content-addressed keys."""

import numpy as np
import pytest

from repro.parallel.tasks import (
    SimTask,
    canonical_json,
    json_safe,
    make_topology,
    task_key,
)


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_compact_no_whitespace(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_floats_round_trip_exactly(self):
        import json

        value = 2.0295953816324108e-05
        assert json.loads(canonical_json({"v": value}))["v"] == value

    def test_numpy_coercion(self):
        coerced = json_safe(
            {
                "arr": np.array([1.5, 2.5]),
                "i": np.int64(3),
                "f": np.float64(0.25),
                "b": np.bool_(True),
                "t": (1, 2),
            }
        )
        assert coerced == {"arr": [1.5, 2.5], "i": 3, "f": 0.25, "b": True, "t": [1, 2]}
        assert isinstance(coerced["i"], int)
        assert isinstance(coerced["f"], float)
        assert isinstance(coerced["b"], bool)


class TestSimTask:
    def test_round_trip(self):
        task = SimTask(kind="replay", params={"seed": 3, "policy": "drb"}, label="x")
        assert SimTask.from_dict(task.to_dict()) == task

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError):
            SimTask(kind="replay", params={"fn": lambda: None})

    def test_display_falls_back_to_spec(self):
        task = SimTask(kind="replay", params={"seed": 1})
        assert "replay" in task.display()
        assert SimTask(kind="replay", params={}, label="nice").display() == "nice"


class TestTaskKey:
    TASK = SimTask(kind="replay", params={"seed": 0, "policy": "pr-drb"})

    def test_stable_across_calls(self):
        assert task_key(self.TASK, "v1") == task_key(self.TASK, "v1")

    def test_equal_specs_equal_keys(self):
        clone = SimTask(kind="replay", params={"policy": "pr-drb", "seed": 0})
        assert task_key(clone, "v1") == task_key(self.TASK, "v1")

    @pytest.mark.parametrize(
        "params",
        [
            {"seed": 1, "policy": "pr-drb"},      # seed change
            {"seed": 0, "policy": "drb"},         # policy change
            {"seed": 0, "policy": "pr-drb", "mesh_side": 8},  # added field
        ],
    )
    def test_any_field_change_changes_key(self, params):
        assert task_key(SimTask(kind="replay", params=params), "v1") != task_key(
            self.TASK, "v1"
        )

    def test_kind_change_changes_key(self):
        other = SimTask(kind="fault", params=dict(self.TASK.params))
        assert task_key(other, "v1") != task_key(self.TASK, "v1")

    def test_code_version_bump_changes_key(self):
        assert task_key(self.TASK, "v1") != task_key(self.TASK, "v2")

    def test_label_does_not_affect_key(self):
        labelled = SimTask(kind="replay", params=dict(self.TASK.params), label="zz")
        assert task_key(labelled, "v1") == task_key(self.TASK, "v1")

    def test_env_override_pins_version(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        assert task_key(self.TASK) == task_key(self.TASK, "pinned")


class TestMakeTopology:
    @pytest.mark.parametrize(
        "spec, cls_name, hosts",
        [
            ("mesh:4", "Mesh2D", 16),
            ("torus:4", "Torus2D", 16),
            ("fattree:4,2", "KaryNTree", 16),
            ("slimtree:4,2,0.5", "SlimmedKaryNTree", 16),
            ("hypercube:4", "Hypercube", 16),
            ("dragonfly:4,2,2", "Dragonfly", 72),
            ("karyncube:4,3", "KaryNCube", 64),
        ],
    )
    def test_builds_each_family(self, spec, cls_name, hosts):
        topo = make_topology(spec)
        assert type(topo).__name__ == cls_name
        assert topo.num_hosts == hosts

    def test_factory_semantics_fresh_instances(self):
        assert make_topology("mesh:4") is not make_topology("mesh:4")

    def test_spec_arguments_preserve_int_vs_float(self):
        # "4" must reach builders as int 4 (dragonfly validates types),
        # while "0.5" stays a float (slimtree's thinning ratio).
        d = make_topology("dragonfly:4,2,2")
        assert (d.a, d.p, d.h) == (4, 2, 2)
        assert all(isinstance(v, int) for v in (d.a, d.p, d.h))
        slim = make_topology("slimtree:4,2,0.5")
        assert slim.num_hosts == 16

    @pytest.mark.parametrize(
        "spec",
        [
            "ring:4", "mesh", "mesh:abc", "fattree:4",
            # wrong arity or a non-integer where an integer belongs
            "mesh:4,2", "mesh:4.5", "torus:4.9", "hypercube:6,1", "fattree:4,3,1",
            "karyncube:4",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            make_topology(spec)
