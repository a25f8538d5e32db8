"""Interrupt-anywhere: snapshot mid-run, restore, finish bit-identically.

Per policy and scenario kind: run an uninterrupted reference, then run a
second instance to a mid-point, checkpoint it to disk, restore (into a
context whose process-global packet-id counter has been perturbed, as a
fresh process would present), run to the end, and require the digests to
match byte for byte.  The exhaustive fresh-process variant is
``python -m repro.checkpoint verify`` (a CI step); here one cell runs
through the CLI end-to-end as a smoke.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint.runner import (
    build_context,
    code_version,
    finish_context,
    load_scenario_checkpoint,
    save_scenario_checkpoint,
    scenario_kinds,
)
from repro.checkpoint.state import SnapshotError

REPO_ROOT = Path(__file__).resolve().parent.parent

POLICIES = ("deterministic", "drb", "fr-drb", "pr-drb")


def _params(kind, policy, mesh_side=4, repetitions=3):
    """Task params as the worker takes them: ``fault`` nests its scenario."""
    scenario = {"seed": 0, "mesh_side": mesh_side, "repetitions": repetitions}
    if kind == "fault":
        return {"policy": policy, "spec": scenario}
    return {"policy": policy, **scenario}


@pytest.mark.parametrize("kind", ("replay", "fault"))
@pytest.mark.parametrize("policy", POLICIES)
def test_interrupt_anywhere_bit_identical(tmp_path, kind, policy):
    params = _params(kind, policy)
    reference_context = build_context(kind, params)
    reference_context.sim.run(until=reference_context.until)
    reference = finish_context(reference_context)

    interrupted = build_context(kind, params)
    interrupted.sim.run(until=interrupted.until / 2)
    ckpt = tmp_path / "mid.ckpt"
    header = save_scenario_checkpoint(interrupted, ckpt, meta={"policy": policy})
    assert header.kind == kind
    assert header.code_version == code_version()
    assert header.events_executed == interrupted.sim.events_executed

    loaded_header, resumed = load_scenario_checkpoint(ckpt)
    assert loaded_header == header
    resumed.sim.run(until=resumed.until)
    assert finish_context(resumed) == reference


def test_scenario_kinds_are_the_resumable_set():
    from repro.parallel.worker import RESUMABLE_KINDS

    assert scenario_kinds() == RESUMABLE_KINDS


def test_unknown_kind_rejected():
    with pytest.raises(SnapshotError, match="unknown scenario kind"):
        build_context("mystery", {})


def test_unknown_params_rejected():
    # Flat scenario fields on a fault task used to be dropped silently.
    with pytest.raises(SnapshotError, match="mesh_side"):
        build_context("fault", {"policy": "drb", "seed": 0, "mesh_side": 6})
    with pytest.raises(SnapshotError, match="mesh_sid"):
        build_context("replay", {"mesh_sid": 6})


def test_cli_save_fault_honours_scenario_flags(tmp_path, capsys):
    """``save --kind fault --mesh-side 6`` used to build a 4x4 mesh."""
    from repro.checkpoint.__main__ import main

    ckpt = tmp_path / "c.ckpt"
    assert main([
        "save", "--kind", "fault", "--mesh-side", "6", "--repetitions", "5",
        "--fraction", "0.25", str(ckpt),
    ]) == 0
    capsys.readouterr()
    _header, resumed = load_scenario_checkpoint(ckpt)
    assert resumed.fabric.topology.num_hosts == 36
    assert resumed.workload.schedule.repetitions == 5


def test_restore_is_oblivious_to_global_pid_counter(tmp_path):
    """A fresh process starts its packet-id counter at zero; a long-lived
    one has it far advanced.  Restore must pin it from the checkpoint so
    both resume identically."""
    from repro.network.packet import pid_counter_value, set_pid_counter

    params = _params("replay", "pr-drb")
    context = build_context("replay", params)
    context.sim.run(until=context.until / 2)
    ckpt = tmp_path / "mid.ckpt"
    save_scenario_checkpoint(context, ckpt)
    saved_counter = pid_counter_value()

    set_pid_counter(saved_counter + 100_000)  # simulate a dirty process
    _header, resumed = load_scenario_checkpoint(ckpt)
    assert pid_counter_value() == saved_counter
    resumed.sim.run(until=resumed.until)

    reference_context = build_context("replay", params)
    reference_context.sim.run(until=reference_context.until)
    assert finish_context(resumed) == finish_context(reference_context)


def test_cli_save_info_restore_roundtrip(tmp_path):
    """One cell through the actual CLI in fresh processes."""
    import os

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env_cmd = [sys.executable, "-m", "repro.checkpoint"]
    ckpt = tmp_path / "cli.ckpt"
    common = ["--policy", "pr-drb", "--mesh-side", "4", "--repetitions", "2"]

    save = subprocess.run(
        env_cmd + ["save", "--fraction", "0.5"] + common + [str(ckpt)],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert save.returncode == 0, save.stderr
    assert json.loads(save.stdout)["kind"] == "replay"

    info = subprocess.run(
        env_cmd + ["info", str(ckpt)], capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert info.returncode == 0, info.stderr
    assert json.loads(info.stdout)["code_version"] == code_version()

    restore = subprocess.run(
        env_cmd + ["restore", str(ckpt), "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert restore.returncode == 0, restore.stderr
    resumed = json.loads(restore.stdout)

    reference_context = build_context("replay", {"policy": "pr-drb", "seed": 0,
                                                 "mesh_side": 4, "repetitions": 2})
    reference_context.sim.run(until=reference_context.until)
    assert resumed == finish_context(reference_context)
