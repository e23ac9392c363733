"""Tests for the memoizing benchmark service (in-process and over HTTP)."""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.errors import ServiceError
from repro.service import (
    BenchmarkService,
    CampaignRequest,
    ServiceClient,
    ServiceHTTPServer,
    encode_event,
)
from repro.service import server as server_module

pytestmark = pytest.mark.tier2


def _request(**overrides):
    payload = {
        "graphs": ("urand",),
        "kernels": ("bfs", "cc"),
        "frameworks": ("gap",),
        "modes": ("baseline",),
        "scale": 6,
    }
    payload.update(overrides)
    return CampaignRequest(**payload)


@pytest.fixture()
def service(tmp_path):
    svc = BenchmarkService(
        archive_dir=tmp_path / "archive", cache_dir=tmp_path / "graphs", jobs=1
    )
    yield svc
    svc.shutdown()


def _cells(events):
    return [e for e in events if e["event"] == "cell"]


class TestProtocol:
    def test_from_dict_round_trip(self):
        request = CampaignRequest.from_dict(
            {
                "graphs": "urand,kron",
                "kernels": ["bfs"],
                "frameworks": "gap",
                "modes": "baseline",
                "scale": 8,
            }
        )
        assert request.graphs == ("urand", "kron")
        assert CampaignRequest.from_dict(request.as_dict()) == request

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            CampaignRequest.from_dict(
                {"graphs": "urand", "kernels": "bfs", "frameworks": "gap", "jobs": 4}
            )

    def test_unknown_axis_value_rejected(self):
        with pytest.raises(ServiceError, match="unknown graphs"):
            _request(graphs=("nonexistent",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ServiceError, match="no kernels"):
            _request(kernels=())

    def test_scale_bounds(self):
        with pytest.raises(ServiceError, match="out of range"):
            _request(scale=30)

    def test_campaign_id_is_stable(self):
        assert _request().campaign_id == _request().campaign_id
        assert _request().campaign_id != _request(scale=7).campaign_id

    def test_cell_keys_match_executor_enumeration(self):
        request = _request(kernels=("bfs", "cc"), modes=("baseline", "optimized"))
        keys = request.cell_keys()
        # graphs outermost, then modes, kernels, frameworks.
        assert keys[0] == ("urand", "baseline", "bfs", "gap")
        assert keys[1] == ("urand", "baseline", "cc", "gap")
        assert keys[2] == ("urand", "optimized", "bfs", "gap")


class TestMemoization:
    def test_miss_then_hit(self, service):
        request = _request()
        first = service.submit_collect(request)
        assert first[0]["event"] == "accepted"
        assert first[0]["hits"] == 0
        assert all(not c["cached"] for c in _cells(first))
        assert first[-1]["event"] == "done"
        assert first[-1]["executed"] == 2
        run_id = first[-1]["fresh_run_id"]
        assert run_id

        second = service.submit_collect(request)
        assert second[0]["hits"] == 2
        assert all(c["cached"] for c in _cells(second))
        assert all(c["run_id"] == run_id for c in _cells(second))
        assert second[-1]["executed"] == 0
        assert second[-1]["fresh_run_id"] is None

    def test_resubmission_results_byte_identical(self, service):
        request = _request()
        first = service.submit_collect(request)
        second = service.submit_collect(request)
        payload = lambda events: json.dumps(  # noqa: E731
            [c["result"] for c in _cells(events)], sort_keys=True
        )
        assert payload(first) == payload(second)

    def test_partial_overlap_executes_only_new_cells(self, service):
        service.submit_collect(_request(kernels=("bfs",)))
        events = service.submit_collect(_request(kernels=("bfs", "cc")))
        assert events[0]["hits"] == 1
        assert events[-1]["executed"] == 1
        cached = {tuple(c["cell"]): c["cached"] for c in _cells(events)}
        assert cached[("urand", "baseline", "bfs", "gap")] is True
        assert cached[("urand", "baseline", "cc", "gap")] is False

    def test_axis_order_does_not_cold_start_cells(self, service):
        service.submit_collect(_request(kernels=("bfs", "cc")))
        events = service.submit_collect(_request(kernels=("cc", "bfs")))
        assert events[-1]["executed"] == 0

    def test_topology_invisible_to_dedup(self, service, tmp_path):
        """A serial server and a parallel server share cache entries."""
        request = _request()
        service.submit_collect(request)
        other = BenchmarkService(
            archive_dir=service.archive.root, cache_dir=tmp_path / "graphs", jobs=2
        )
        try:
            events = other.submit_collect(request)
            assert events[-1]["executed"] == 0
        finally:
            other.shutdown()

    def test_cold_start_hits_via_persistent_index(self, service, tmp_path):
        """A fresh service over the same archive serves hits from disk."""
        request = _request()
        first = service.submit_collect(request)
        reborn = BenchmarkService(
            archive_dir=service.archive.root, cache_dir=tmp_path / "graphs"
        )
        try:
            events = reborn.submit_collect(request)
            assert events[0]["hits"] == 2
            assert events[-1]["executed"] == 0
            assert {c["run_id"] for c in _cells(events)} == {
                first[-1]["fresh_run_id"]
            }
        finally:
            reborn.shutdown()

    def test_failed_cells_are_not_memoized(self, service):
        request = _request(kernels=("bfs",), trial_timeout=1e-9)
        first = service.submit_collect(request)
        statuses = {c["result"]["status"] for c in _cells(first)}
        assert statuses == {"timeout"}
        second = service.submit_collect(request)
        assert second[0]["hits"] == 0
        assert second[-1]["executed"] == 1


class TestEventBlocks:
    """How a submission's events are grouped into writes."""

    def test_all_hit_submission_is_one_final_block(self, service):
        service.submit_collect(_request())
        blocks = list(service.submit_events(_request()))
        assert len(blocks) == 1
        block, final = blocks[0]
        assert final is True
        kinds = [json.loads(line)["event"] for line in block.splitlines()]
        assert kinds == ["accepted", "cell", "cell", "done"]

    def test_executed_cells_stream_one_block_each(self, service):
        blocks = list(service.submit_events(_request()))
        kinds = [
            [json.loads(line)["event"] for line in block.splitlines()]
            for block, _ in blocks
        ]
        assert kinds == [["accepted"], ["cell"], ["cell"], ["done"]]
        assert [final for _, final in blocks] == [False, False, False, True]


class TestAdmissionCheck:
    def test_no_memory_floor_never_reads_meminfo(self, service, monkeypatch):
        calls = []

        def reading():
            calls.append(1)
            return 1 << 40

        monkeypatch.setattr(server_module, "available_memory_bytes", reading)
        service.min_available_memory_bytes = 0
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "done"
        assert calls == []
        # /health still reports the reading.
        assert service.health()["watermarks"]["memory_available_bytes"] == 1 << 40

    def test_memory_floor_still_rejects_misses(self, service, monkeypatch):
        calls = []

        def reading():
            calls.append(1)
            return 1024

        monkeypatch.setattr(server_module, "available_memory_bytes", reading)
        service.min_available_memory_bytes = 1 << 20
        events = service.submit_collect(_request())
        assert events[-1]["event"] == "degraded"
        assert events[-1]["rejected"] == 2
        assert any("memory critically low" in r for r in events[-1]["reasons"])
        assert calls
        assert service.stats["cells_executed"] == 0


class TestCoalescing:
    def test_concurrent_identical_submissions_execute_once(self, service):
        request = _request()
        outcomes = [None] * 4

        def submit(i):
            outcomes[i] = service.submit_collect(request)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(outcomes))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert all(o is not None for o in outcomes)
        for events in outcomes:
            assert events[-1]["event"] == "done"
            assert len(_cells(events)) == 2
        # All four submissions were served by at most one execution per cell.
        assert service.stats["cells_executed"] == 2
        assert service.stats["jobs_executed"] <= 2
        assert (
            service.stats["cells_hit"] + service.stats["cells_coalesced"]
            == 4 * 2 - 2
        )

    def test_queue_full_rejects_with_error_event(self, tmp_path):
        svc = BenchmarkService(
            archive_dir=tmp_path / "archive",
            cache_dir=tmp_path / "graphs",
            max_pending_jobs=1,
        )
        try:
            # Saturate the engine: one executing + one queued.
            t1 = threading.Thread(
                target=svc.submit_collect, args=(_request(kernels=("pr",)),)
            )
            t2 = threading.Thread(
                target=svc.submit_collect, args=(_request(kernels=("cc",)),)
            )
            t1.start()
            t2.start()
            rejected = None
            for _ in range(50):
                events = svc.submit_collect(_request(kernels=("bfs",)))
                if events[0]["event"] == "error":
                    rejected = events
                    break
            t1.join(120.0)
            t2.join(120.0)
            if rejected is None:
                pytest.skip("engine drained faster than submissions arrived")
            assert "capacity" in rejected[0]["message"]
            # A rejected campaign leaves no inflight residue.
            assert svc.status()["inflight_cells"] == 0 or t1.is_alive()
        finally:
            svc.shutdown()


class TestHTTP:
    @pytest.fixture()
    def endpoint(self, service):
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[:2]
        server.shutdown()
        server.server_close()

    def test_submit_streams_ndjson(self, endpoint, service):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            events = client.submit_and_collect(_request())
            assert events[0]["event"] == "accepted"
            assert events[-1]["event"] == "done"
            again = client.submit_and_collect(_request())
            assert again[-1]["executed"] == 0

    def test_status_and_healthz(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            assert client.healthz() == {"ok": True}
            status = client.status()
            assert "indexed_cells" in status
            assert "hit_rate" in status

    def test_malformed_submission_is_400(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="rejected"):
                client.submit_and_collect({"graphs": "urand"})
            with pytest.raises(ServiceError, match="rejected"):
                client.submit_and_collect({"graphs": "urand", "kernels": "bfs",
                                           "frameworks": "gap", "bogus": 1})

    def test_unknown_path_is_404(self, endpoint):
        host, port = endpoint
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="404"):
                client._json("GET", "/nope")

    def test_unreachable_server_raises_service_error(self):
        client = ServiceClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(ServiceError, match="unreachable"):
            client.status()

    @pytest.fixture()
    def connects(self, monkeypatch):
        """Every ``HTTPConnection.connect`` made during the test."""
        made = []
        connect = http.client.HTTPConnection.connect

        def counted(conn):
            made.append(conn)
            return connect(conn)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counted)
        return made

    def test_hits_reuse_one_connection(self, endpoint, service, connects):
        """One submission, one POST: the keep-alive connection is reused."""
        service.submit_collect(_request())
        before = service.stats["submissions"]
        host, port = endpoint
        with ServiceClient(host, port) as client:
            payloads = [
                json.dumps(client.submit_and_collect(_request()), sort_keys=True)
                for _ in range(20)
            ]
        assert len(connects) == 1
        assert service.stats["submissions"] - before == 20
        assert all(payload == payloads[0] for payload in payloads)
        assert json.loads(payloads[0])[-1]["executed"] == 0

    def test_miss_on_reused_connection_streams_each_cell(
        self, endpoint, service, connects
    ):
        service.submit_collect(_request(kernels=("bfs",)))
        host, port = endpoint
        with ServiceClient(host, port) as client:
            client.submit_and_collect(_request(kernels=("bfs",)))
            events = client.submit_and_collect(_request(kernels=("cc", "pr")))
        assert len(connects) == 1
        assert [e["event"] for e in events] == ["accepted", "cell", "cell", "done"]
        assert events[0]["pending"] == 2
        assert all(not c["cached"] for c in _cells(events))
        assert events[-1]["executed"] == 2

    def test_stream_torn_after_terminal_event_is_not_resubmitted(self):
        """A response cut before its last chunk still yields one submission."""
        events = [
            {"event": "accepted", "campaign": "c", "cells": 1, "hits": 1, "pending": 0},
            {"event": "cell", "digest": "d", "cell": ["urand", "baseline", "bfs", "gap"]},
            {"event": "done", "campaign": "c", "cells": 1, "hits": 1, "executed": 0},
        ]
        posts = []

        class TornTail(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                posts.append(self.path)
                self.send_response(200)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                for event in events:
                    line = encode_event(event)
                    self.wfile.write(b"%X\r\n%s\r\n" % (len(line), line))
                self.close_connection = True  # hang up before the last chunk

        server = HTTPServer(("127.0.0.1", 0), TornTail)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with ServiceClient(host, port, backoff=0.01) as client:
                got = client.submit_and_collect(_request())
                # The dropped connection is replaced on the next call.
                again = client.submit_and_collect(_request())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)
        assert got == again == events
        assert posts == ["/submit", "/submit"]

    def test_client_hanging_up_is_counted_not_printed(
        self, endpoint, service, capsys
    ):
        host, port = endpoint
        body = json.dumps(_request().as_dict()).encode()
        sock = socket.create_connection((host, port))
        sock.sendall(
            b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        # Linger 0: close with a reset, as a killed client would.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        deadline = time.monotonic() + 60
        while service.stats["client_disconnects"] < 1:
            assert time.monotonic() < deadline, "disconnect never counted"
            time.sleep(0.01)
        # Let the campaign the dropped request started finish.
        while service.status()["inflight_cells"]:
            assert time.monotonic() < deadline, "campaign never finished"
            time.sleep(0.01)
        assert service.stats["client_disconnects"] == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_other_handler_errors_still_print(self, service, capsys):
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        try:
            try:
                raise RuntimeError("handler bug")
            except RuntimeError:
                server.handle_error(None, ("127.0.0.1", 1))
        finally:
            server.server_close()
        err = capsys.readouterr().err
        assert "Traceback" in err and "handler bug" in err
        assert service.stats["client_disconnects"] == 0
