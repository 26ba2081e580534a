"""Wire-compat and causal-context propagation across the Master protocol.

The ``ctx`` message key is optional in both directions: a v1 client
talking to a v2 server, and a v2 client talking to a v1 server, must
both complete their exchanges untouched.  When both ends speak v2, the
Lamport clocks max-merge on every hop and Master-side fault events are
stamped with the requester's trace identity.
"""

import socket
import threading

import pytest

from repro.core.master import MasterNode
from repro.core.master_client import MasterClient
from repro.core.master_server import MasterServer
from repro.core.protocol import ProtocolError, read_message, send_message
from repro.faults import FaultPlan, MasterOutage
from repro.faults.plan import MasterCrash
from repro.obs import TraceContext, observe

OUTAGE_PLAN = FaultPlan(
    master_outages=(MasterOutage(start_s=10.0, duration_s=30.0),)
)


def _session():
    return observe(trace=True, metrics=False)


class TestServerSideCtx:
    def test_reply_echoes_ctx_with_server_span_and_merged_clock(
        self, grid_16
    ):
        with _session() as s:
            server_ctx = TraceContext.root("drill:1").child("epoch-1")
            s.recorder.set_context(server_ctx)
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(master) as server:
                sock = socket.create_connection(server.address)
                try:
                    client_ctx = (
                        TraceContext.root("worker").child("w0").with_lam(500)
                    )
                    send_message(
                        sock, {"type": "status", "ctx": client_ctx.to_wire()}
                    )
                    response = read_message(sock)
                finally:
                    sock.close()
        assert response["type"] == "status_ok"
        echoed = response["ctx"]
        assert echoed["trace"] == client_ctx.trace_id
        assert echoed["span"] == server_ctx.span_id
        assert echoed["parent"] == client_ctx.span_id
        # Receive merge (max with 500) then send tick: strictly after
        # everything the client had seen.
        assert echoed["lam"] > 500

    def test_old_client_without_ctx_gets_plain_reply(self, grid_16):
        with _session():
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(master) as server:
                sock = socket.create_connection(server.address)
                try:
                    send_message(sock, {"type": "status"})
                    response = read_message(sock)
                finally:
                    sock.close()
        assert response["type"] == "status_ok"
        assert "ctx" not in response

    def test_garbage_ctx_tolerated(self, grid_16):
        with _session():
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(master) as server:
                sock = socket.create_connection(server.address)
                try:
                    send_message(
                        sock, {"type": "status", "ctx": ["not", "a", "dict"]}
                    )
                    response = read_message(sock)
                finally:
                    sock.close()
        assert response["type"] == "status_ok"
        assert "ctx" not in response


class TestClientSideCtx:
    def test_new_client_against_old_server(self, monkeypatch):
        """A v1 server never echoes ``ctx``; the exchange still works."""

        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        seen = {}

        def old_server():
            conn, _ = srv.accept()
            with conn:
                msg = read_message(conn)
                seen.update(msg)
                # Old dispatch: unknown keys ignored, no ctx in reply.
                send_message(conn, {"type": "status_ok", "operators": 0})

        thread = threading.Thread(target=old_server, daemon=True)
        thread.start()
        with _session() as s:
            s.recorder.set_context(TraceContext.root("worker").child("w0"))
            lam_before = s.recorder.lamport
            with MasterClient(srv.getsockname(), timeout_s=2.0) as client:
                status = client.status()
            lam_after = s.recorder.lamport
        thread.join(timeout=5.0)
        srv.close()
        assert status["operators"] == 0
        # The request carried the context even though the server was old.
        assert seen["ctx"]["trace"] == TraceContext.root("worker").trace_id
        assert lam_after > lam_before

    def test_clocks_merge_across_real_roundtrip(self, grid_16):
        with _session() as s:
            s.recorder.set_context(TraceContext.root("pair").child("both"))
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(master) as server:
                with MasterClient(server.address, timeout_s=2.0) as client:
                    client.register("op-1")
            events = [e.to_dict() for e in s.recorder.events]
        reqs = [e for e in events if e["type"] == "master.request"]
        assert reqs, "client must emit master.request"
        # Every event carries the Lamport stamp assigned at enqueue.
        assert all(isinstance(e.get("lam"), int) for e in events)
        assert [e["lam"] for e in events] == sorted(e["lam"] for e in events)


class TestFaultEventStamps:
    def test_dropped_request_carries_trace_identity(self, grid_16):
        clock = [20.0]  # inside the outage window
        with _session() as s:
            ctx = TraceContext.root("worker").child("w0")
            s.recorder.set_context(ctx)
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(
                master, fault_plan=OUTAGE_PLAN, clock=lambda: clock[0]
            ) as server:
                with MasterClient(server.address, timeout_s=2.0) as client:
                    with pytest.raises(ProtocolError):
                        client.register("op-1")
            events = [e.to_dict() for e in s.recorder.events]
        drops = [e for e in events if e["type"] == "master.dropped"]
        assert drops
        assert drops[0]["trace"] == ctx.trace_id
        assert drops[0]["pspan"] == ctx.span_id

    def test_crash_event_carries_trace_identity(self, grid_16):
        plan = FaultPlan(master_crashes=(MasterCrash(at_request=1),))
        with _session() as s:
            ctx = TraceContext.root("worker").child("w0")
            s.recorder.set_context(ctx)
            master = MasterNode(grid_16, expected_networks=2)
            with MasterServer(master, fault_plan=plan) as server:
                with MasterClient(server.address, timeout_s=2.0) as client:
                    with pytest.raises((ProtocolError, OSError)):
                        client.register("op-1")
            events = [e.to_dict() for e in s.recorder.events]
        crashes = [e for e in events if e["type"] == "master.crash"]
        assert crashes
        assert crashes[0]["trace"] == ctx.trace_id
        assert crashes[0]["pspan"] == ctx.span_id
