"""End-to-end service smoke over real HTTP: jobs, SSE, dedup, digests.

One server fixture serves the whole module (each test run simulates only
a handful of mesh:4 cells).  Everything talks to it over loopback HTTP
exactly like an external client would.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse

import pytest

from repro.serve import SimulationService, make_server

SPEC = {
    "kind": "replay",
    "policies": ["pr-drb", "deterministic"],
    "seeds": [0],
    "mesh_side": 4,
    "repetitions": 2,
}

#: the digest gate's pinned POP cell (``repro.perf.pinned_app_spec``).
APP_SPEC = {
    "kind": "app", "policies": ["drb"], "seeds": [0],
    "params": {"app": "pop", "app_args": {"num_ranks": 16, "steps": 2},
               "topology": "fattree:4,2", "notification": "router"},
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    service = SimulationService(
        cache_dir=str(tmp / "cache"), journal_path=str(tmp / "jobs.jsonl")
    )
    httpd = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _wait_terminal(base, job_id, max_s=30.0):
    deadline = time.monotonic() + max_s
    while time.monotonic() < deadline:
        job = _get(base, f"/jobs/{job_id}")
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _read_sse(base, path, max_s=30.0, frames=None, opened=None, until=None):
    """``(type, payload)`` frames until the server ends the stream or
    ``until(type, payload)`` holds; sets ``opened`` at the first frame."""
    frames = [] if frames is None else frames
    with urllib.request.urlopen(base + path, timeout=max_s) as response:
        event_type = data = None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("event: "):
                event_type = line[7:]
            elif line.startswith("data: "):
                data = line[6:]
            elif line == "" and event_type is not None:
                frames.append((event_type, json.loads(data)))
                event_type = data = None
                if opened is not None:
                    opened.set()
                if until is not None and until(*frames[-1]):
                    break
    return frames


def _subscribe_sse(base, path, until=None):
    """Read ``path`` on a thread; returns ``(frames, thread)`` once the
    opening ``state`` frame arrived, so the stream's bus subscription is
    live before the caller publishes anything.  No stream replays history."""
    frames, opened = [], threading.Event()
    thread = threading.Thread(
        target=_read_sse, args=(base, path),
        kwargs={"frames": frames, "opened": opened, "until": until}, daemon=True,
    )
    thread.start()
    assert opened.wait(10), f"{path} sent no opening frame"
    return frames, thread


def _is_terminal_job_frame(kind, event):
    return kind == "job" and event["data"]["state"] in ("done", "failed")


class TestEndToEnd:
    def test_health_and_dashboard(self, server):
        base, _service = server
        assert _get(base, "/healthz") == {"ok": True}
        with urllib.request.urlopen(base + "/", timeout=10) as response:
            html = response.read().decode("utf-8")
        assert response.headers["Content-Type"].startswith("text/html")
        assert "EventSource" in html and "/events" in html

    def test_submit_stream_and_terminal_state(self, server):
        base, _service = server
        frames, reader = _subscribe_sse(
            base, "/events?idle=3", until=_is_terminal_job_frame
        )
        submitted = _post(base, "/jobs", SPEC)
        assert submitted["created"] is True
        job_id = submitted["job"]["id"]
        reader.join(timeout=30)
        assert not reader.is_alive()
        ours = [(kind, event) for kind, event in frames[1:] if event["job"] == job_id]
        kinds = [kind for kind, _ in ours]
        assert frames[0][0] == "state"
        assert "progress" in kinds
        assert "cell.metrics" in kinds
        assert kinds[-1] == "job" and ours[-1][1]["data"]["state"] == "done"

        # A job's own stream opens with its state: here, the terminal record.
        opening = _read_sse(base, f"/jobs/{job_id}/events?idle=0.5")
        assert opening[0][0] == "state"
        assert opening[0][1]["job"]["state"] == "done"
        job = _wait_terminal(base, job_id)
        assert job["state"] == "done"
        assert job["executed"] == 2
        assert job["completed"] == job["total"] == 2
        assert {c["status"] for c in job["cells"]} == {"ok"}

    def test_repost_answers_entirely_from_cache(self, server):
        base, _service = server
        job = _wait_terminal(base, _post(base, "/jobs", SPEC)["job"]["id"])
        assert job["state"] == "done"
        assert job["executed"] == 0
        assert job["cache_hits"] == 2

    def test_served_digests_match_direct_run(self, server):
        from repro.analysis.replay import run_scenario

        base, _service = server
        job = _wait_terminal(base, _post(base, "/jobs", SPEC)["job"]["id"])
        results = _get(base, f"/jobs/{job['id']}/results")
        by_label = {c["label"]: c["result"] for c in results["cells"]}
        for policy in SPEC["policies"]:
            direct = run_scenario(
                seed=0, policy=policy, mesh_side=4, repetitions=2
            ).to_dict()
            served = by_label[f"replay:{policy}/seed0"]
            assert served["events"] == direct["events"]
            assert served["metrics"] == direct["metrics"]

    def test_metrics_prometheus_grammar(self, server):
        import re

        base, _service = server
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
            content_type = response.headers["Content-Type"]
        assert content_type.startswith("text/plain")
        line_re = re.compile(
            r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
            r"[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$"
        )
        bad = [ln for ln in text.splitlines() if ln and not line_re.match(ln)]
        assert bad == []
        assert "repro_serve_jobs_submitted_total" in text
        assert "repro_bus_published" in text

    def test_slow_subscriber_drops_without_stalling(self, server):
        base, service = server
        stalled = service.bus.subscribe(maxsize=1)
        try:
            spec = dict(SPEC, seeds=[2])
            job = _wait_terminal(base, _post(base, "/jobs", spec)["job"]["id"])
            assert job["state"] == "done"  # simulation finished regardless
            assert stalled.dropped > 0  # the only symptom is the counter
        finally:
            service.bus.unsubscribe(stalled)

    def test_sse_limit_closes_stream(self, server):
        base, _service = server
        frames, reader = _subscribe_sse(base, "/events?limit=2&idle=5")
        _post(base, "/jobs", dict(SPEC, seeds=[3]))
        reader.join(timeout=30)
        assert not reader.is_alive()
        # opening state frame + exactly `limit` bus events
        assert len(frames) == 3
        assert frames[0][0] == "state"

    def test_errors(self, server):
        base, _service = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/jobs/job-does-not-exist")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {"kind": "nope"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/definitely/not/a/route")
        assert err.value.code == 404
        # a wrongly typed field is a 400 naming it, not a dropped connection
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {"policies": 5})
        assert err.value.code == 400
        assert "policies" in json.loads(err.value.read())["error"]
        # an empty seed list is a 400, not a dropped connection
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {"seeds": []})
        assert err.value.code == 400
        assert "seeds" in json.loads(err.value.read())["error"]
        # a field the expansion would not read is a 400 naming it
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {**SPEC, "ack_loss": 0.2})
        assert err.value.code == 400
        assert "ack_loss" in json.loads(err.value.read())["error"]
        # a grid past the cell limit is a 400 naming it, answered before
        # list(range(10**9)) could be built
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {**SPEC, "seeds": 10**9})
        assert err.value.code == 400
        assert "'seeds'" in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize("body, field", [
        ({"kind": "fault", "ack_loss": 2.0}, "ack_loss"),
        ({"kind": "fault", "params": {"stochastic": True, "mtbf_s": 0}}, "mtbf_s"),
    ])
    def test_bad_fault_values_are_a_400_naming_the_field(self, server, body, field):
        base, _service = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", body)
        assert err.value.code == 400
        assert f"'{field}'" in json.loads(err.value.read())["error"]

    def test_app_job_runs_the_pinned_cell(self, server):
        """An ``app`` grid runs through the service like any scenario kind,
        and each cell is the run_cell result of its spec."""
        from repro.experiments.runner import run_cell
        from repro.perf import pinned_app_spec

        base, _service = server
        job = _wait_terminal(base, _post(base, "/jobs", APP_SPEC)["job"]["id"])
        assert job["state"] == "done" and job["executed"] == 1
        (cell,) = _get(base, f"/jobs/{job['id']}/results")["cells"]
        assert cell["result"] == run_cell(pinned_app_spec("drb")).to_dict()

    @pytest.mark.parametrize("params, field", [
        ({"app": "nosuch"}, "'app'"),
        ({"app_args": {"num_ranks": 16, "stepz": 2}}, "stepz"),
        ({"app_args": {"num_ranks": 16, "seed": 3}}, "'seed'"),
        ({"app_args": {"num_ranks": "16"}}, "'num_ranks'"),
        ({"app_args": {"steps": 2}}, "num_ranks must be from 1 to the 16 hosts"),
        ({"app": "nas-mg", "app_args": {"num_ranks": 16, "problem_class": "Z"}},
         "'app_args': nas-mg builds no trace"),
        ({"app_args": {"num_ranks": 16, "halo_bytes": -4}}, "'app_args': pop builds a -4-byte"),
        ({"app_args": {"num_ranks": 16, "steps": 10**6}},
         "'app_args': pop's steps x solver_iterations must be at most"),
    ])
    def test_bad_app_cells_are_a_400_naming_the_field(self, server, params, field):
        base, _service = server
        body = {**APP_SPEC, "params": {**APP_SPEC["params"], **params}}
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", body)
        assert err.value.code == 400
        assert field in json.loads(err.value.read())["error"]

    @pytest.mark.parametrize(
        "path, length_header, status",
        [("/jobs", "Content-Length: abc\r\n", 400), ("/jobs", "", 400),
         ("/jobs", f"Content-Length: {2 << 20}\r\n", 413),
         ("/nowhere", "Content-Length: 2\r\n", 404)],
        ids=["unparseable", "missing", "over-cap", "unknown-path"],
    )
    def test_rejected_body_closes_connection(self, server, path, length_header, status):
        # The refused body is never read, so whatever follows it must not
        # be parsed as a second request: one answer, then EOF.
        base, _service = server
        request = (
            f"POST {path} HTTP/1.1\r\nHost: x\r\n{length_header}\r\n"
            "GET /definitely/unknown HTTP/1.1\r\nHost: x\r\n\r\n"
        ).encode("ascii")
        address = ("127.0.0.1", urlparse(base).port)
        received = b""
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                received += chunk
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert b"Connection: close" in received

    def test_kept_alive_requests_do_not_stall(self, server):
        # Headers and body leave in separate writes; with Nagle's algorithm
        # on, the body waits out the client's 40 ms delayed ACK.
        base, _service = server
        conn = http.client.HTTPConnection("127.0.0.1", urlparse(base).port, timeout=10)
        round_trips = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read()) == {"ok": True}
                round_trips.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(round_trips) < 0.010

    def test_journal_survives_restart(self, server, tmp_path):
        # A fresh service over the same journal sees completed jobs.
        base, service = server
        done_ids = {j.id for j in service.store.list() if j.state == "done"}
        assert done_ids
        from repro.serve.jobs import JobStore

        reloaded = JobStore(service.store._journal_path)
        assert done_ids <= {j.id for j in reloaded.list()}
        reloaded.close()
