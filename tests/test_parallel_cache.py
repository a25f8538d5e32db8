"""Content-addressed result cache: hits, corruption eviction, purge,
the crash-safe I/O under it, the locked manifest merge, and cell-by-cell
resume of an interrupted sweep."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.parallel.cache import ResultCache, _merge_manifests
from repro.parallel.orchestrator import SweepConfig, run_sweep
from repro.parallel.tasks import SimTask, expand_grid, task_key
from repro.util.io import FileLock, atomic_write_bytes, atomic_write_text, sha256_hex

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

TASK = SimTask(kind="selftest", params={"mode": "ok", "value": 7}, label="cell")
VERSION = "testver0000000000"
RESULT = {"value": 7, "nested": {"pi": 3.141592653589793}}


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def put_one(cache):
    key = task_key(TASK, VERSION)
    cache.put(key, TASK, VERSION, RESULT)
    return key


class TestPutGet:
    def test_miss_on_empty(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_round_trip(self, cache):
        key = put_one(cache)
        assert cache.get(key) == RESULT
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_float_bit_exact(self, cache):
        key = put_one(cache)
        assert cache.get(key)["nested"]["pi"] == 3.141592653589793

    def test_sharded_layout(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.exists()

    def test_no_tmp_left_behind(self, cache):
        put_one(cache)
        assert not list(cache.root.rglob("*.tmp"))


class TestCorruption:
    def test_truncated_entry_evicted(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt_evicted == 1
        assert not path.exists()  # evicted, next sweep recomputes

    def test_tampered_result_fails_checksum(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["value"] = 999  # bit-flip the payload
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt_evicted == 1

    def test_wrong_key_slot_rejected(self, cache):
        key = put_one(cache)
        raw = cache.path_for(key).read_text(encoding="utf-8")
        other = "f" * 64
        other_path = cache.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_text(raw, encoding="utf-8")
        assert cache.get(other) is None

    def test_recompute_after_eviction(self, cache):
        key = put_one(cache)
        cache.path_for(key).write_text("{", encoding="utf-8")
        assert cache.get(key) is None
        cache.put(key, TASK, VERSION, RESULT)  # the orchestrator's recompute
        assert cache.get(key) == RESULT


class TestInspection:
    def test_entries_lists_valid_only(self, cache):
        key = put_one(cache)
        bad = cache.path_for("e" * 64)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("not json", encoding="utf-8")
        entries = list(cache.entries())
        assert [e.key for e in entries] == [key]
        assert entries[0].kind == "selftest"
        assert entries[0].label == "cell"
        assert entries[0].code_version == VERSION

    def test_purge_removes_everything(self, cache):
        key = put_one(cache)
        profile = cache.profile_path_for(key)
        profile.write_bytes(b"profdata")
        # A mid-cell checkpoint left by an older version of the package.
        stale = cache.path_for(key).with_suffix(".ckpt")
        stale.write_bytes(b"old checkpoint")
        assert cache.purge() == 1
        assert cache.get(key) is None
        assert not profile.exists()
        assert not stale.exists()

    def test_manifest_round_trip(self, cache):
        assert cache.read_manifest() is None
        cache.write_manifest({"executed": 3, "failures": []})
        assert cache.read_manifest() == {"executed": 3, "failures": []}


# ----------------------------------------------------------------------
# repro.util.io: the crash-safe writes and lock the cache is built on
# ----------------------------------------------------------------------
def test_atomic_write_replaces_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "deep" / "file.json"
    atomic_write_text(target, "first")
    atomic_write_bytes(target, b"second")
    assert target.read_text() == "second"
    assert [p.name for p in target.parent.iterdir()] == ["file.json"]


def test_sha256_hex_str_bytes_agree():
    assert sha256_hex("abc") == sha256_hex(b"abc")
    assert len(sha256_hex(b"")) == 64


def test_file_lock_serializes_read_modify_write(tmp_path):
    target = tmp_path / "counter.txt"
    atomic_write_text(target, "0")

    def bump():
        for _ in range(50):
            with FileLock(target):
                value = int(target.read_text())
                atomic_write_text(target, str(value + 1))

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert target.read_text() == "200"


# ----------------------------------------------------------------------
# Manifest merge: concurrent sweeps sharing one cache directory
# ----------------------------------------------------------------------
def _manifest(outcomes, failures=(), cache_hits=0):
    executed = sum(1 for o in outcomes if o.get("status") == "ok")
    return {
        "outcomes": list(outcomes),
        "failures": list(failures),
        "executed": executed,
        "cache_hits": cache_hits,
        "all_ok": all(o.get("status") != "failed" for o in outcomes),
        "workers": 1,
    }


def test_merge_unions_disjoint_outcomes():
    left = _manifest([{"key": "a", "status": "ok"}])
    right = _manifest([{"key": "b", "status": "ok"}])
    merged = _merge_manifests(left, right)
    assert {o["key"] for o in merged["outcomes"]} == {"a", "b"}
    assert merged["executed"] == 2
    assert merged["all_ok"] is True


def test_merge_newest_outcome_wins_and_drops_stale_failures():
    left = _manifest(
        [{"key": "a", "status": "failed"}],
        failures=[{"key": "a", "reason": "worker-crash"}],
    )
    right = _manifest([{"key": "a", "status": "ok"}])
    merged = _merge_manifests(left, right)
    assert merged["outcomes"] == [{"key": "a", "status": "ok"}]
    assert merged["failures"] == []
    assert merged["all_ok"] is True


def test_merge_passes_through_without_outcomes():
    new = {"note": "no outcomes key"}
    assert _merge_manifests({"outcomes": []}, new) == new
    assert _merge_manifests(None, new) == new


def test_concurrent_manifest_writes_do_not_clobber(tmp_path):
    """Two sweeps sharing a cache dir must union, not last-writer-wins."""
    cache = ResultCache(tmp_path / "cache")
    cache.write_manifest(_manifest([{"key": "sweep1", "status": "ok"}]))
    cache.write_manifest(_manifest([{"key": "sweep2", "status": "ok"}]))
    manifest = cache.read_manifest()
    assert {o["key"] for o in manifest["outcomes"]} == {"sweep1", "sweep2"}
    assert manifest["executed"] == 2


def test_concurrent_manifest_writes_from_processes(tmp_path):
    """N processes append disjoint outcomes under the advisory lock."""
    cache_dir = tmp_path / "cache"
    ResultCache(cache_dir)  # create root
    writer = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {REPO_SRC!r})
        from repro.parallel.cache import ResultCache
        which = sys.argv[1]
        cache = ResultCache({str(cache_dir)!r})
        cache.write_manifest({{
            "outcomes": [{{"key": "proc-" + which, "status": "ok"}}],
            "failures": [], "executed": 1, "cache_hits": 0, "all_ok": True,
        }})
        """
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", writer, str(i)])
        for i in range(4)
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    manifest = ResultCache(cache_dir).read_manifest()
    assert {o["key"] for o in manifest["outcomes"]} == {
        f"proc-{i}" for i in range(4)
    }
    assert manifest["executed"] == 4


# ----------------------------------------------------------------------
# Cell-level resume: a stopped sweep re-runs only its missing cells
# ----------------------------------------------------------------------
#: 16 replay cells of about 0.1 s each, so the sweep is still running
#: well after its first entry lands.
RESUME_GRID = {
    "kind": "replay", "policies": ["deterministic", "drb", "pr-drb", "fr-drb"],
    "seeds": 4, "mesh_side": 8, "repetitions": 4,
}


def _sweep_cli(cache_dir) -> list[str]:
    return [
        sys.executable, "-m", "repro.parallel", "run", "--workers", "1",
        "--cache-dir", str(cache_dir), "--json",
        "--policies", *RESUME_GRID["policies"], "--seeds", str(RESUME_GRID["seeds"]),
        "--mesh-side", str(RESUME_GRID["mesh_side"]),
        "--repetitions", str(RESUME_GRID["repetitions"]),
    ]


def _results_by_label(cache: ResultCache) -> dict:
    return {entry.label: cache.get(entry.key) for entry in cache.entries()}


def test_sigterm_mid_sweep_resumes_cell_by_cell_from_the_cache(tmp_path):
    tasks = expand_grid(RESUME_GRID)
    assert len(tasks) == 16
    reference = run_sweep(tasks, SweepConfig(workers=1))
    assert reference.all_ok
    expected = {task.label: result for task, result in zip(tasks, reference.results)}

    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_CODE_VERSION="resumetest0000001")
    proc = subprocess.Popen(_sweep_cli(cache_dir), env=env, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while not any(cache_dir.glob("??/*.json")):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            pytest.fail("the sweep wrote no cache entry before it ended")
        time.sleep(0.005)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == -signal.SIGTERM
    present = _results_by_label(cache)
    assert 1 <= len(present) < len(tasks), "stop the sweep part-way"

    resumed = subprocess.run(
        _sweep_cli(cache_dir), env=env, stdout=subprocess.PIPE, text=True,
        timeout=300, check=True,
    )
    report = json.loads(resumed.stdout)
    assert report["all_ok"] is True
    assert report["cache_hits"] == len(present)
    assert report["executed"] == len(tasks) - len(present)
    assert _results_by_label(cache) == expected
