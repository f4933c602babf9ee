"""HTTP surface of the daemon: routes, errors, admission, deadlines."""

import json
import time

from repro.serve.client import http_request


def _wait_done(client, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = client.job(job_id).json()
        if view["state"] in ("done", "failed"):
            return view
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not done within {timeout_s}s")


class TestHealth:
    def test_healthz_and_readyz(self, daemon):
        client = daemon().client
        assert client.healthz().status == 200
        assert client.healthz().json()["ok"] is True
        assert client.readyz().status == 200

    def test_endpoint_file_written(self, daemon, tmp_path):
        server = daemon(spool=tmp_path / "ep-spool")
        endpoint = json.loads(
            (tmp_path / "ep-spool" / "endpoint.json").read_bytes()
        )
        assert endpoint["port"] == server.port
        assert endpoint["host"] == "127.0.0.1"


class TestJobLifecycle:
    def test_submit_poll_result(self, daemon):
        client = daemon().client
        response = client.submit(
            {"verb": "check", "protocol": "parity-arbiter", "n": 3}
        )
        assert response.status == 202
        assert response.json()["kind"] == "accepted"
        job_id = response.json()["job_id"]

        view = _wait_done(client, job_id)
        assert view["state"] == "done"
        assert view["partial"] is None

        result = client.result(job_id)
        assert result.status == 200
        payload = json.loads(result.body)
        assert payload["verb"] == "check"
        assert payload["result"]["complete"] is True
        assert payload["result"]["census_fingerprint"]
        assert payload["partial"] is None

    def test_jobs_listing(self, daemon):
        client = daemon().client
        job_id = client.submit(
            {"verb": "check", "protocol": "parity-arbiter", "n": 3}
        ).json()["job_id"]
        _wait_done(client, job_id)
        jobs = client.jobs()
        assert [job["id"] for job in jobs] == [job_id]

    def test_query_waits_for_result(self, daemon):
        client = daemon().client
        response = client.query(
            {"verb": "check", "protocol": "parity-arbiter", "n": 3}
        )
        assert response.status == 200
        assert response.headers["x-repro-cache"] == "accepted"
        assert json.loads(response.body)["result"]["complete"] is True

    def test_survive_job(self, daemon):
        client = daemon().client
        response = client.query(
            {
                "verb": "survive",
                "protocol": "parity-arbiter",
                "max_steps": 200,
            }
        )
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["result"]["expectations_ok"] is True
        assert payload["result"]["cells"]

    def test_attack_job(self, daemon):
        client = daemon().client
        response = client.query(
            {
                "verb": "attack",
                "protocol": "parity-arbiter",
                "n": 3,
                "stages": 5,
            }
        )
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["result"]["verified"] is True
        assert payload["result"]["schedule_length"] >= 5


class TestErrors:
    def test_malformed_json_is_400(self, daemon):
        server = daemon()
        response = http_request(
            "127.0.0.1", server.port, "POST", "/jobs", b"{nope"
        )
        assert response.status == 400

    def test_unknown_field_is_400(self, daemon):
        response = daemon().client.submit(
            {"verb": "check", "protocol": "parity-arbiter", "bogus": 1}
        )
        assert response.status == 400
        assert "unknown job fields" in response.json()["error"]

    def test_unknown_route_is_404(self, daemon):
        server = daemon()
        assert (
            http_request("127.0.0.1", server.port, "GET", "/nope").status
            == 404
        )

    def test_unknown_job_is_404(self, daemon):
        assert daemon().client.result("j-missing").status == 404

    def test_wrong_method_is_405(self, daemon):
        server = daemon()
        response = http_request(
            "127.0.0.1", server.port, "POST", "/healthz", b"{}"
        )
        assert response.status == 405

    def test_result_before_done_is_404(self, daemon):
        client = daemon().client
        job_id = client.submit(
            {"verb": "check", "protocol": "benor", "n": 3, "budget": 30_000}
        ).json()["job_id"]
        assert client.result(job_id).status == 404
        _wait_done(client, job_id, timeout_s=120.0)


class TestAdmissionControl:
    def test_full_queue_answers_429_with_retry_after(self, daemon):
        client = daemon(max_pending=1, job_workers=1).client
        first = client.submit(
            {"verb": "check", "protocol": "benor", "n": 3, "budget": 30_000}
        )
        assert first.status == 202
        # A *different* spec (distinct cache key) while the queue is
        # full must bounce; identical specs would join, not queue.
        second = client.submit(
            {"verb": "check", "protocol": "benor", "n": 3, "budget": 30_001}
        )
        assert second.status == 429
        assert "retry-after" in second.headers
        stats = client.stats()
        assert stats["counters"]["rejected"] == 1
        _wait_done(client, first.json()["job_id"], timeout_s=120.0)
        # Queue drained: the same spec is admitted now.
        third = client.submit(
            {"verb": "check", "protocol": "benor", "n": 3, "budget": 30_001}
        )
        assert third.status == 202
        _wait_done(client, third.json()["job_id"], timeout_s=120.0)


class TestDeadlines:
    def test_deadline_degrades_to_partial_with_checkpoint(self, daemon):
        client = daemon(checkpoint_every_s=0.1).client
        # benor's reachable graph dwarfs this budget; 0.5s of wall
        # clock cannot finish it, so the deadline watchdog must stop
        # the engine at a consistency point.
        response = client.query(
            {
                "verb": "check",
                "protocol": "benor",
                "n": 3,
                "budget": 500_000,
                "max_seconds": 0.5,
            }
        )
        assert response.status == 200
        assert response.headers["x-repro-partial"]
        payload = json.loads(response.body)
        assert payload["partial"] is not None
        assert payload["partial"]["reason"] == "deadline"
        assert payload["result"]["complete"] is False
        assert payload["result"]["nodes"] > 0
        job = client.jobs()[0]
        assert job["has_checkpoint"] is True
        # Partial answers must never be cached.
        assert client.stats()["cache_entries"] == 0
