"""The shared serve loop: every loopback server starts and closes fast,
leaves no serving thread behind, and drops peers that never speak."""

from __future__ import annotations

import socket
import threading
import time
from datetime import datetime, timezone
from types import SimpleNamespace

import pytest

from iotpki.acme.ca import TestCa, TestCaState
from iotpki.acme.challenges import TokenShelf, _ShelfHandler
from iotpki.certs import build_csr, cert_to_pem, generate_key
from iotpki.dnsauth import DnsUdpServer, Zone
from iotpki.errors import BindFailure
from iotpki.peer_auth import EchoServer, TrustContext
from iotpki.serving import BackgroundServer

SERVE_THREADS = {"dns-udp", "token-shelf", "acme-ca", "mtls-echo"}


@pytest.fixture(scope="module")
def echo_args():
    ca = TestCaState(clock=lambda: datetime.now(timezone.utc))
    key = generate_key()
    _, cert = ca.issue(build_csr(key, "serving.camera.vendor.test"))
    bundle = SimpleNamespace(
        private_key=key, certificate_chain=cert_to_pem(cert) + cert_to_pem(ca.root_cert)
    )
    return bundle, TrustContext(roots=(ca.root_cert,), filters={})


def serve_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name in SERVE_THREADS}


def test_every_server_shares_the_serve_loop():
    for cls in (DnsUdpServer, TokenShelf, TestCa, EchoServer):
        assert issubclass(cls, BackgroundServer)


def test_start_close_cycles_are_fast_and_leave_no_thread(echo_args):
    makers = {
        "dns": lambda: DnsUdpServer(Zone("vendor.test"), ("127.0.0.1", 0)),
        "shelf": TokenShelf,
        "ca": TestCa,
        "echo": lambda: EchoServer(*echo_args),
    }
    before = serve_threads()
    spent = 0.0
    for _ in range(5):
        for make in makers.values():
            server = make()
            started = time.perf_counter()
            server.start()
            server.close()
            spent += time.perf_counter() - started
            assert not server._thread.is_alive()
    assert spent < 0.5
    assert serve_threads() <= before


def test_token_shelf_drops_idle_peer(monkeypatch):
    monkeypatch.setattr(_ShelfHandler, "timeout", 0.3)
    with TokenShelf() as shelf, socket.create_connection(shelf.address, timeout=3) as idle:
        assert idle.recv(1) == b""


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda addr, echo_args: TestCa(bind_addr=addr), id="ca"),
        pytest.param(lambda addr, echo_args: EchoServer(*echo_args, bind_addr=addr), id="echo"),
    ],
)
def test_tls_server_on_busy_port_is_bind_failure(echo_args, make):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        with pytest.raises(BindFailure, match="cannot bind"):
            make(holder.getsockname(), echo_args)
