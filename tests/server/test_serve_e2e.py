"""End-to-end tests of the serving stack over real sockets.

Every test here talks to a live :class:`ExtractionServer` through plain
``http.client`` -- the request crosses HTTP framing, routing, admission
control, and the extraction pipeline exactly as production traffic
would.
"""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.observability.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
)
from tests.server.conftest import FORM_HTML, heavy_form_html

_REQUEST_ID = re.compile(r"^[0-9a-f]{6}-[0-9a-f]{6}(\.\d+)?$")


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestHealthz:
    def test_reports_pool_and_queue_state(self, live_server):
        live = live_server()
        status, _, payload = live.get_json("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        assert payload["queue_depth"] == 0
        assert payload["max_queue"] == live.config.max_queue
        assert payload["cache"] is True


class TestExtract:
    def test_json_body_returns_model_and_request_id(self, live_server):
        live = live_server()
        status, _, payload = live.post_json("/extract", {"html": FORM_HTML})
        assert status == 200
        assert _REQUEST_ID.match(payload["request_id"])
        assert payload["error"] is None
        assert payload["degrade"]["level"] == "full"
        assert payload["cached"] is False
        assert payload["model"] is not None
        assert payload["elapsed_seconds"] > 0

    def test_raw_html_body_with_query_knobs(self, live_server):
        live = live_server()
        status, _, body = live.request(
            "POST",
            "/extract?form_index=0",
            body=FORM_HTML.encode("utf-8"),
            headers={"Content-Type": "text/html"},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["model"] is not None
        assert payload["degrade"]["level"] == "full"

    def test_cache_hit_replays_without_reextracting(self, live_server):
        live = live_server()
        status, _, first = live.post_json("/extract", {"html": FORM_HTML})
        assert status == 200 and first["cached"] is False
        status, _, second = live.post_json("/extract", {"html": FORM_HTML})
        assert status == 200 and second["cached"] is True
        assert second["model"] == first["model"]
        counters = live.metrics.to_dict()["counters"]
        assert counters["serve.cache.hits"] == 1
        # A hit never touches the extraction pipeline again: exactly one
        # html-parse span was ever recorded.
        assert counters["serve.requests"] == 2

    def test_concurrent_extracts_all_succeed(self, live_server):
        live = live_server()
        outcomes: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def post(index: int) -> None:
            html = FORM_HTML.replace("name=\"author\"", f'name="author{index}"')
            status, _, payload = live.post_json("/extract", {"html": html})
            with lock:
                outcomes.append((status, payload))

        threads = [
            threading.Thread(target=post, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes) == 8
        assert all(status == 200 for status, _ in outcomes)
        ids = {payload["request_id"] for _, payload in outcomes}
        assert len(ids) == 8  # every request got its own id
        counters = live.metrics.to_dict()["counters"]
        assert counters["serve.requests"] == 8

    def test_tight_deadline_degrades_but_still_200(self, live_server):
        live = live_server()
        status, _, payload = live.post_json(
            "/extract",
            {"html": heavy_form_html(), "deadline_seconds": 0.005},
        )
        assert status == 200
        assert payload["error"] is None
        assert payload["degrade"]["level"] != "full"
        assert payload["model"] is not None  # best-effort, never empty-handed
        counters = live.metrics.to_dict()["counters"]
        assert counters["serve.degraded"] >= 1
        # Degraded results are never cached: the same payload re-runs.
        status, _, again = live.post_json(
            "/extract",
            {"html": heavy_form_html(), "deadline_seconds": 0.005},
        )
        assert status == 200 and again["cached"] is False

    def test_form_index_out_of_range_is_client_error(self, live_server):
        live = live_server()
        status, _, payload = live.post_json(
            "/extract", {"html": FORM_HTML, "form_index": 5}
        )
        assert status == 404
        assert "FormNotFoundError" in payload["error"]


class TestSaturation:
    def test_queue_overflow_sheds_with_429_and_retry_after(self, live_server):
        live = live_server(max_queue=2, cache=False)
        # Park the single worker thread so admitted requests stay queued.
        blocker = live.service._thread.submit(time.sleep, 1.5)
        results: list[int] = []
        lock = threading.Lock()

        def post(index: int) -> None:
            html = FORM_HTML.replace("/search", f"/search{index}")
            status, _, _ = live.post_json("/extract", {"html": html})
            with lock:
                results.append(status)

        threads = [
            threading.Thread(target=post, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        assert _wait_until(lambda: live.service.queue_depth == 2)
        status, headers, payload = live.post_json(
            "/extract", {"html": FORM_HTML}
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "request_id" in payload
        blocker.result(timeout=10)
        for thread in threads:
            thread.join(timeout=120)
        assert results == [200, 200]
        samples = parse_prometheus(
            live.request("GET", "/metrics")[2].decode()
        )
        assert samples["repro_serve_shed_total"] >= 1
        assert samples["repro_serve_http_429_total"] >= 1

    def test_batch_is_admitted_or_shed_atomically(self, live_server):
        live = live_server(max_queue=2, cache=False)
        status, _, payload = live.post_json(
            "/batch", {"items": [FORM_HTML] * 3}
        )
        assert status == 429
        assert live.service.queue_depth == 0  # nothing half-admitted
        assert "max_queue" in payload["error"]

    def test_batch_size_ceiling(self, live_server):
        live = live_server(max_batch_items=2, max_queue=64)
        status, _, payload = live.post_json(
            "/batch", {"items": ["<form></form>"] * 3}
        )
        assert status == 429
        assert "max_batch_items" in payload["error"]


class TestBatch:
    def test_records_come_back_in_input_order(self, live_server):
        live = live_server(cache=False)
        items = [FORM_HTML, "<html><body><p>no form here</p></body></html>"]
        status, _, payload = live.post_json("/batch", {"items": items})
        assert status == 200
        assert payload["count"] == 2
        assert [record["index"] for record in payload["records"]] == [0, 1]
        assert payload["records"][0]["model"] is not None
        # The no-form page goes through the whole-page fallback: still a
        # record, not an HTTP error.
        assert payload["records"][1]["error"] is None

    def test_batch_shares_the_cache_with_singles(self, live_server):
        live = live_server()
        live.post_json("/extract", {"html": FORM_HTML})
        status, _, payload = live.post_json(
            "/batch", {"items": [FORM_HTML]}
        )
        assert status == 200
        assert payload["records"][0]["cached"] is True


class TestMetricsEndpoint:
    def test_prometheus_text_parses_and_counts_requests(self, live_server):
        live = live_server()
        live.post_json("/extract", {"html": FORM_HTML})
        status, headers, body = live.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples = parse_prometheus(body.decode("utf-8"))
        assert samples["repro_serve_requests_total"] == 1
        assert samples["repro_serve_latency_seconds_count"] == 1
        assert samples["repro_serve_http_200_total"] >= 1


class TestProtocolEdges:
    def test_unknown_route_is_404(self, live_server):
        live = live_server()
        status, _, payload = live.get_json("/nope")
        assert status == 404 and "request_id" in payload

    def test_wrong_method_is_405(self, live_server):
        live = live_server()
        status, _, _ = live.request("GET", "/extract")
        assert status == 405

    def test_malformed_json_is_400(self, live_server):
        live = live_server()
        status, _, body = live.request(
            "POST",
            "/extract",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_oversized_body_is_413(self, live_server):
        live = live_server(max_body_bytes=512)
        status, _, _ = live.request(
            "POST",
            "/extract",
            body=b"x" * 2048,
            headers={"Content-Type": "text/html"},
        )
        assert status == 413


class TestGracefulShutdown:
    def test_inflight_request_completes_before_close(self, live_server):
        live = live_server(cache=False)
        outcome: dict = {}

        def post() -> None:
            status, _, payload = live.post_json(
                "/extract", {"html": heavy_form_html()}, timeout=120
            )
            outcome["status"] = status
            outcome["payload"] = payload

        thread = threading.Thread(target=post)
        thread.start()
        assert _wait_until(lambda: live.service.queue_depth == 1)
        drained = live.stop()
        thread.join(timeout=120)
        assert drained is True
        assert outcome["status"] == 200
        assert outcome["payload"]["model"] is not None
        with pytest.raises(OSError):
            live.request("GET", "/healthz", timeout=2)


class TestPooledMode:
    def test_extract_and_batch_on_the_fork_warmed_pool(self, live_server):
        live = live_server(jobs=2, cache=False)
        assert live.service.workers == 2
        status, _, payload = live.post_json(
            "/extract", {"html": FORM_HTML}, timeout=120
        )
        assert status == 200
        assert payload["degrade"]["level"] == "full"
        status, _, payload = live.post_json(
            "/batch", {"items": [FORM_HTML, FORM_HTML]}, timeout=120
        )
        assert status == 200
        assert all(
            record["error"] is None for record in payload["records"]
        )

    def test_tight_deadline_degrades_on_the_pool(self, live_server):
        live = live_server(jobs=2, cache=False)
        status, _, payload = live.post_json(
            "/extract",
            {"html": heavy_form_html(), "deadline_seconds": 0.005},
            timeout=120,
        )
        assert status == 200
        assert payload["error"] is None
        assert payload["degrade"]["level"] != "full"


class TestHealthEndpoints:
    def test_livez_is_alive_and_readyz_is_ok(self, live_server):
        live = live_server()
        status, _, payload = live.get_json("/livez")
        assert status == 200
        assert payload["status"] == "alive"
        status, _, payload = live.get_json("/readyz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["breaker"] == "closed"
        assert payload["draining"] is False
        assert payload["cache_generation"].startswith("g2p:")
        assert payload["fairness"]["clients"] == 0

    def test_readyz_is_503_while_draining_but_livez_stays_200(
        self, live_server
    ):
        live = live_server()

        async def set_draining(value: bool) -> None:
            live.service._draining = value

        live.submit(set_draining(True)).result(timeout=10)
        try:
            status, _, payload = live.get_json("/readyz")
            assert status == 503
            assert payload["status"] == "draining"
            status, _, payload = live.get_json("/livez")
            assert status == 200
            assert payload["status"] == "alive"
        finally:
            live.submit(set_draining(False)).result(timeout=10)

    def test_readyz_is_503_with_the_breaker_open(self, live_server):
        live = live_server(breaker_threshold=1, breaker_reset_seconds=60.0)

        async def trip() -> None:
            live.service.breaker.record_failure()

        live.submit(trip()).result(timeout=10)
        status, _, payload = live.get_json("/readyz")
        assert status == 503
        assert payload["status"] == "breaker-open"
        assert payload["breaker"] == "open"
        # Liveness is not the breaker's business.
        assert live.get_json("/livez")[0] == 200


class TestCacheInvalidation:
    def test_delete_cache_makes_cached_signatures_miss(self, live_server):
        live = live_server()
        assert live.post_json("/extract", {"html": FORM_HTML})[2][
            "cached"
        ] is False
        assert live.post_json("/extract", {"html": FORM_HTML})[2][
            "cached"
        ] is True
        status, _, payload = live.request("DELETE", "/cache")
        body = json.loads(payload)
        assert status == 200
        assert body["invalidated"] is True
        assert body["generation"] != body["previous_generation"]
        # The very same document misses now: its old key is unreachable.
        assert live.post_json("/extract", {"html": FORM_HTML})[2][
            "cached"
        ] is False
        status, _, payload = live.get_json("/healthz")
        assert payload["cache_generation"] == body["generation"]

    def test_delete_cache_leaves_the_disk_file_untouched(
        self, live_server, tmp_path
    ):
        live = live_server(cache_dir=str(tmp_path))
        live.post_json("/extract", {"html": FORM_HTML})
        cache_file = tmp_path / "extraction-cache.jsonl"
        before = cache_file.read_bytes()
        assert live.request("DELETE", "/cache")[0] == 200
        assert cache_file.read_bytes() == before

    def test_delete_cache_is_404_when_caching_is_off(self, live_server):
        live = live_server(cache=False)
        status, _, _ = live.request("DELETE", "/cache")
        assert status == 404


class TestFairnessE2E:
    def test_greedy_client_sheds_while_the_polite_one_completes(
        self, live_server
    ):
        live = live_server(client_max_inflight=2, max_queue=8, cache=False)
        # Park the single worker so admitted requests stay in the queue:
        # admission decisions are then fully deterministic.
        blocker = live.service._thread.submit(time.sleep, 1.5)
        results: list[int] = []
        lock = threading.Lock()

        def greedy_post(index: int) -> None:
            html = FORM_HTML.replace("/search", f"/greedy{index}")
            status, _, _ = live.request(
                "POST",
                "/extract",
                body=json.dumps({"html": html}).encode(),
                headers={
                    "Content-Type": "application/json",
                    "X-Client-Id": "greedy",
                },
            )
            with lock:
                results.append(status)

        threads = [
            threading.Thread(target=greedy_post, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        # All 8 decisions resolve immediately: 2 slots admit, 6 shed 429.
        assert _wait_until(
            lambda: len([s for s in results if s == 429]) == 6, timeout=10
        )
        assert live.service.queue_depth == 2
        # The polite client is untouched by greedy's saturation and its
        # request completes well inside the deadline.
        started = time.perf_counter()
        status, _, payload = live.request(
            "POST",
            "/extract",
            body=json.dumps({"html": FORM_HTML}).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Client-Id": "polite",
            },
            timeout=120,
        )
        assert status == 200
        assert time.perf_counter() - started < 60
        blocker.result(timeout=10)
        for thread in threads:
            thread.join(timeout=120)
        assert sorted(results) == [200, 200, 429, 429, 429, 429, 429, 429]
        samples = parse_prometheus(
            live.request("GET", "/metrics")[2].decode()
        )
        assert samples["repro_serve_fairness_shed_total"] == 6
        assert samples["repro_serve_fairness_shed_slots_total"] == 6

    def test_rate_limited_client_gets_retry_after(self, live_server):
        live = live_server(client_rate=0.001, client_burst=1.0)
        headers = {
            "Content-Type": "application/json",
            "X-Client-Id": "chatty",
        }
        body = json.dumps({"html": FORM_HTML}).encode()
        assert live.request("POST", "/extract", body=body, headers=headers)[
            0
        ] == 200
        # Token spent; at 0.001/s the refill is far away: shed with the
        # real shortfall as Retry-After.
        html2 = FORM_HTML.replace("/search", "/other")
        status, response_headers, _ = live.request(
            "POST",
            "/extract",
            body=json.dumps({"html": html2}).encode(),
            headers=headers,
        )
        assert status == 429
        assert int(response_headers["Retry-After"]) >= 60


class TestDrainWithParkedConnections:
    def test_drain_completes_with_an_idle_keep_alive_connection(
        self, live_server
    ):
        import socket

        live = live_server()
        sock = socket.create_connection(("127.0.0.1", live.port), timeout=10)
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            first = sock.recv(65536)
            assert first.startswith(b"HTTP/1.1 200")
            # The connection now sits idle in keep-alive, parked on the
            # server's request-line read.  Drain must not wait for it.
            started = time.perf_counter()
            assert live.stop() is True
            assert time.perf_counter() - started < live.config.drain_seconds
            # The parked connection is closed out, not leaked.
            sock.settimeout(10)
            rest = sock.recv(65536)
            assert rest == b""
        finally:
            sock.close()

    def test_drain_completes_with_a_half_sent_request_in_flight(
        self, live_server
    ):
        import socket

        live = live_server()
        sock = socket.create_connection(("127.0.0.1", live.port), timeout=10)
        try:
            # Half a request head, then silence: the server is mid-read.
            sock.sendall(b"POST /extract HTTP/1.1\r\nContent-Le")
            time.sleep(0.1)
            started = time.perf_counter()
            assert live.stop() is True
            assert time.perf_counter() - started < live.config.drain_seconds
            sock.settimeout(10)
            # Whatever arrives (nothing or an error response), the
            # connection must reach EOF -- no wedge, no leak.
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
        finally:
            sock.close()
