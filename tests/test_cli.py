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


def test_replay_prints_the_same_lines_for_an_app_name_and_its_trace_file(tmp_path, capsys):
    """A trace saved to a file replays exactly as the app it came from."""
    from repro.apps.sweep3d import sweep3d_trace
    from repro.mpi.traceio import save_trace

    path = tmp_path / "sweep3d.json"
    save_trace(sweep3d_trace(num_ranks=16), path)
    assert main(["replay", "sweep3d", "--ranks", "16", "--policy", "drb"]) == 0
    by_name = capsys.readouterr().out
    assert main(["replay", str(path), "--policy", "drb"]) == 0
    assert capsys.readouterr().out == by_name
    assert by_name.startswith("policy: drb\nexecution time: ")


@pytest.mark.parametrize("argv, message", [
    (["replay", "sweep3d", "--ranks", "16", "--policy", "nosuch"], "unknown routing policy"),
    (["replay", "{tmp}/missing.json"], "No such file"),
    (["analyze", "{tmp}/missing.json"], "No such file"),
    (["replay", "pop", "--ranks", "128"], "more ranks than hosts"),
    (["replay", "pop", "--ranks", "0"], "--ranks must be >= 1"),
    (["analyze", "pop", "--ranks", "-3"], "--ranks must be >= 1"),
    (["replay", "{tmp}/big.json"], "more ranks than hosts"),
    (["replay", "{tmp}/bad.json", "--policy", "drb"], "rank 0 event 0"),
    (["analyze", "{tmp}/bad.json"], "rank 0 event 0"),
    (["replay", "{tmp}/deadlock.json"], "blocked ranks: [0]"),
])
def test_replay_and_analyze_usage_errors_exit_2(argv, message, tmp_path, capsys):
    """A bad flag or trace file is a usage error, as for ``simulate``."""
    from repro.apps.pop import pop_trace
    from repro.mpi.traceio import save_trace

    save_trace(pop_trace(num_ranks=128, steps=1), tmp_path / "big.json")
    (tmp_path / "bad.json").write_text(
        '{"name": "bad", "num_ranks": 2, "events": {"0": [["send", 7, 64, 0]]}}')
    (tmp_path / "deadlock.json").write_text(
        '{"name": "deadlock", "num_ranks": 2, "metadata": {}, '
        '"events": {"0": [["recv", 1, 0]], "1": [["compute", 1e-6]]}}')
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
