"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    from repro.experiments.scenarios import ALL_SCENARIOS
    from repro.routing import registered_policies

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig_4_13_14" in out
    assert "pr-drb" in out
    assert "perfect-shuffle" in out
    words = set(out.replace(",", " ").replace(")", " ").split())
    missing = [name for name in registered_policies() if name not in words]
    assert not missing, f"policies missing from `repro list`: {missing}"
    # Every scenario line carries its description.
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  ")}
    blank = [name for name in ALL_SCENARIOS if len(lines[name].split()) < 2]
    assert not blank, f"scenarios without a description: {blank}"


def test_simulate_command(capsys):
    code = main([
        "simulate", "--topology", "mesh:4",
        "--policy", "drb", "--pattern", "bit-reversal",
        "--rate-mbps", "300", "--duration-us", "200",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_latency_s" in out
    assert "accepted_ratio" in out


def test_simulate_bursty(capsys):
    code = main([
        "simulate", "--topology", "mesh:4",
        "--policy", "pr-drb", "--bursts", "2",
        "--burst-on-us", "100", "--burst-off-us", "100",
        "--rate-mbps", "400",
    ])
    assert code == 0
    assert "policy: pr-drb" in capsys.readouterr().out


def test_simulate_rejects_malformed_topology(capsys):
    assert main(["simulate", "--topology", "mesh:4.5"]) == 2
    assert "bad topology spec" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--width", "4"])


def test_experiment_command(capsys):
    assert main(["experiment", "table_4_1"]) == 0
    out = capsys.readouterr().out
    assert "T4.1" in out and "[ok]" in out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "fig_9_99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_analyze_synthesized_app(capsys):
    assert main(["analyze", "sweep3d", "--ranks", "16"]) == 0
    out = capsys.readouterr().out
    assert "MPI call breakdown" in out
    assert "mean TDC" in out


def test_analyze_trace_file(tmp_path, capsys):
    from repro.apps.sweep3d import sweep3d_trace
    from repro.mpi.traceio import save_trace

    path = tmp_path / "t.json"
    save_trace(sweep3d_trace(num_ranks=16, iterations=1), path)
    assert main(["analyze", str(path)]) == 0
    assert "sweep3d.16" in capsys.readouterr().out


def test_replay_command(capsys):
    assert main(["replay", "sweep3d", "--ranks", "16", "--policy", "drb"]) == 0
    out = capsys.readouterr().out
    assert "execution time" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
