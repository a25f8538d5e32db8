"""``python -m repro.parallel`` CLI: run, status, cache."""

import json

import pytest

from repro.parallel import __main__ as cli


@pytest.fixture(autouse=True)
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "clitest0000000001")


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    ARGS = (
        "run", "--kind", "replay", "--policies", "pr-drb", "--seeds", "2",
        "--repetitions", "2", "--workers", "1",
    )

    def test_run_and_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert run_cli(*self.ARGS, "--cache-dir", cache_dir) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 from cache" in first
        # Second invocation completes entirely from cache.
        assert run_cli(*self.ARGS, "--cache-dir", cache_dir) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 from cache" in second
        # The reported digests are identical either way.
        digests = [line for line in first.splitlines() if "events=" in line]
        cached = [line.replace("cached", "ok    ", 1)
                  for line in second.splitlines() if "events=" in line]
        assert [d.split()[-2:] for d in digests] == [c.split()[-2:] for c in cached]

    def test_json_output(self, tmp_path, capsys):
        assert run_cli(*self.ARGS, "--seeds", "1", "--no-cache", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert payload["executed"] == 1

    def test_fault_kind(self, tmp_path, capsys):
        assert run_cli(
            "run", "--kind", "fault", "--policies", "pr-drb", "--seeds", "1",
            "--repetitions", "2", "--workers", "1", "--no-cache",
        ) == 0
        assert "delivered_ratio" in capsys.readouterr().out

    def test_explicit_seed_list(self, tmp_path, capsys):
        assert run_cli(*self.ARGS, "--seeds", "5,9", "--no-cache") == 0
        out = capsys.readouterr().out
        assert "seed5" in out and "seed9" in out

    def test_profile_drops_stats_next_to_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert run_cli(
            *self.ARGS, "--seeds", "1", "--cache-dir", str(cache_dir), "--profile",
        ) == 0
        profs = list(cache_dir.glob("??/*.prof"))
        assert len(profs) == 1
        assert (profs[0].parent / (profs[0].name + ".txt")).exists()


class TestStatusAndCache:
    def test_status_reports_last_sweep(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_cli(*TestRun.ARGS, "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("status", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "failure ledger: empty" in out

    def test_status_without_manifest_fails(self, tmp_path, capsys):
        assert run_cli("status", "--cache-dir", str(tmp_path / "nope")) == 1

    def test_cache_inspect_and_purge(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_cli(*TestRun.ARGS, "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("cache", "inspect", "--cache-dir", cache_dir) == 0
        assert "2 entries" in capsys.readouterr().out
        assert run_cli("cache", "purge", "--cache-dir", cache_dir) == 0
        assert "purged 2 entries" in capsys.readouterr().out
        assert run_cli("cache", "inspect", "--cache-dir", cache_dir) == 0
        assert "0 entries" in capsys.readouterr().out


class TestBadInputs:
    @pytest.mark.parametrize("argv, flag", [
        (("--seeds", "abc"), "--seeds"),
        (("--seeds", "0"), "--seeds"),
        (("--mesh-side", "1"), "--mesh-side"),
        (("--workers", "-1"), "--workers"),
        (("--timeout", "-1"), "--timeout"),
        (("--retries", "-1"), "--retries"),
        (("--kind", "fault", "--ack-loss", "2"), "--ack-loss"),
        (("--workers", "1", "--timeout", "0.001"), "--timeout"),
        (("--kind", "replay", "--ack-loss", "0.5"), "--ack-loss"),
    ])
    def test_bad_value_is_a_usage_error_naming_the_flag(
        self, argv, flag, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # a sweep that ran anyway caches here
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", *argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
