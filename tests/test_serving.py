"""The shared serve loop: every loopback server starts and closes fast,
leaves no serving or connection thread behind, and drops peers that
never speak."""

from __future__ import annotations

import gc
import io
import json
import socket
import ssl
import threading
import time
import weakref
from datetime import datetime, timezone
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotpki import peer_auth
from iotpki.acme.ca import ERROR_NS, TestCa, TestCaState
from iotpki.acme.challenges import TokenShelf, _ShelfHandler
from iotpki.certs import cert_to_pem, generate_key
from iotpki.dnsauth import DnsUdpServer, Zone
from iotpki.errors import BindFailure
from iotpki.identity import DeviceSecret, DeviceUrn, VendorNamespace, derive_device_uuid
from iotpki.peer_auth import EchoServer, TrustContext, _EchoHandler, echo_once
from iotpki.serving import (
    MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE, BackgroundServer, BadHead, read_body, read_headers,
)

SERVE_THREADS = {"dns-udp", "token-shelf", "acme-ca", "mtls-echo"}


@pytest.fixture(scope="module")
def echo_ca() -> TestCaState:
    return TestCaState(clock=lambda: datetime.now(timezone.utc))


def device_bundle(ca: TestCaState, tag: str) -> SimpleNamespace:
    ns = VendorNamespace("vendor.test", "camera")
    urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(f"serving-test-secret-{tag}".encode())), ns)
    key = generate_key()
    cert = ca.issue(key.public_key(), [str(urn)])
    return SimpleNamespace(private_key=key, certificate_chain=cert_to_pem(cert) + cert_to_pem(ca.root_cert))


@pytest.fixture(scope="module")
def echo_args(echo_ca):
    return device_bundle(echo_ca, "serving"), TrustContext(roots=(echo_ca.root_cert,), filters={})


def serve_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name in SERVE_THREADS}


def test_every_server_shares_the_serve_loop():
    for cls in (DnsUdpServer, TokenShelf, TestCa, EchoServer):
        assert issubclass(cls, BackgroundServer)


def test_start_close_cycles_are_fast_and_leave_no_thread(echo_args):
    makers = {
        "dns": lambda: DnsUdpServer(Zone("vendor.test"), ("127.0.0.1", 0)),
        "shelf": TokenShelf,
        "ca": lambda: TestCa(dns_addr=("127.0.0.1", 0), http01_port=0),
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


TCP_SERVERS = {
    "ca": lambda echo_args: TestCa(dns_addr=("127.0.0.1", 0), http01_port=0),
    "shelf": lambda echo_args: TokenShelf(),
    "echo": lambda echo_args: EchoServer(*echo_args),
}


@pytest.mark.parametrize("kind", TCP_SERVERS)
def test_close_ends_an_idle_peer_and_joins_its_thread(echo_args, kind):
    before = set(threading.enumerate())
    with socket.socket() as idle:
        idle.settimeout(3)
        with TCP_SERVERS[kind](echo_args) as server:
            idle.connect(server.address)
            deadline = time.monotonic() + 3
            while not server._server._live:  # until its connection thread runs
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert idle.recv(1) == b""
    assert set(threading.enumerate()) <= before


def test_close_waits_for_a_lingering_echo_handler(echo_ca, monkeypatch):
    handle, lingered = _EchoHandler.handle, threading.Event()

    def handle_then_linger(self):
        handle(self)
        time.sleep(0.3)
        lingered.set()

    monkeypatch.setattr(_EchoHandler, "handle", handle_then_linger)
    client = device_bundle(echo_ca, "linger-client")
    trust = TrustContext(roots=(echo_ca.root_cert,), filters={})
    with EchoServer(device_bundle(echo_ca, "linger-server"), trust) as echo:
        assert echo_once(echo.address, client, trust, b"x").payload_echoed == b"x"
    assert lingered.is_set()
    # No handler thread is left to hold the trust, so its client context goes with it.
    context = weakref.ref(peer_auth._client_side(client, trust).ctx)
    del trust, echo
    gc.collect()
    assert context() is None


def test_token_shelf_drops_idle_peer(monkeypatch):
    monkeypatch.setattr(_ShelfHandler, "timeout", 0.3)
    with TokenShelf() as shelf, socket.create_connection(shelf.address, timeout=3) as idle:
        assert idle.recv(1) == b""


@pytest.fixture(scope="module")
def http_servers():
    with TestCa(dns_addr=("127.0.0.1", 0), http01_port=0) as ca, TokenShelf() as shelf:
        yield {"ca": ca, "shelf": shelf}


def exchange(server, request: bytes) -> bytes:
    """Send raw bytes to ``server`` (over TLS to the CA) and read until it
    closes; the 3 s timeout fails a caller the server keeps waiting."""
    with socket.create_connection(server.address, timeout=3) as sock:
        if isinstance(server, TestCa):
            ctx = ssl.create_default_context(cadata=server.service_cert_pem)
            ctx.check_hostname = False
            sock = ctx.wrap_socket(sock)
        with sock:
            sock.sendall(request)
            return b"".join(iter(lambda: sock.recv(4096), b""))


# Requests whose head the shared readers refuse, and the status it gets.
REFUSED_HEADS = {
    "repeated-length": (b"GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab", 400),
    "chunked": (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 400),
    "space-before-colon": (b"GET / HTTP/1.1\r\nHost : x\r\n\r\n", 400),
    "101-fields": (b"GET / HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n", 431),
    "long-request-line": (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 431),
    "two-word-request-line": (b"GET /\r\n\r\n", 400),
    "http-2": (b"GET / HTTP/2.0\r\n\r\n", 505),
}


@pytest.mark.parametrize("case", REFUSED_HEADS)
@pytest.mark.parametrize("server", ["ca", "shelf"])
def test_refused_head_gets_one_answer_from_every_http_server(http_servers, server, case):
    request, status = REFUSED_HEADS[case]
    head, _, body = exchange(http_servers[server], request).partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    assert lines[0].split()[1] == str(status).encode()
    assert b"Connection: close" in lines
    if server == "ca":
        assert b"Content-Type: application/problem+json" in lines
        assert json.loads(body)["type"] == ERROR_NS + "malformed"
    else:
        assert body == b""


def test_nonce_204_has_no_length_and_keeps_the_connection(http_servers):
    ca = http_servers["ca"]
    ctx = ssl.create_default_context(cadata=ca.service_cert_pem)
    ctx.check_hostname = False
    with ctx.wrap_socket(socket.create_connection(ca.address, timeout=3)) as sock, sock.makefile("rb") as rfile:
        sock.sendall(b"GET /acme/new-nonce HTTP/1.1\r\nHost: ca\r\n\r\n")
        assert rfile.readline() == b"HTTP/1.1 204 No Content\r\n"
        assert "content-length" not in read_headers(rfile)
        # The connection stays open, and the next request on it is answered.
        sock.sendall(b"GET /directory HTTP/1.1\r\nHost: ca\r\nConnection: close\r\n\r\n")
        assert rfile.readline() == b"HTTP/1.1 200 OK\r\n"
        assert json.loads(read_body(rfile, read_headers(rfile))) == ca.directory()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda addr, echo_args: TestCa(bind_addr=addr, dns_addr=("127.0.0.1", 0), http01_port=0), id="ca"
        ),
        pytest.param(lambda addr, echo_args: EchoServer(*echo_args, bind_addr=addr), id="echo"),
    ],
)
def test_tls_server_on_busy_port_is_bind_failure(echo_args, make):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        with pytest.raises(BindFailure, match="cannot bind"):
            make(holder.getsockname(), echo_args)


FIELD_NAMES = st.sampled_from(
    [b"Host", b"content-length", b"Content-Length", b"Transfer-Encoding", b"X-A", b"x-a", b"Bad Name", b""]
)
FIELD_LINES = st.builds(
    lambda name, value, end: name + b":" + value + end,
    FIELD_NAMES,
    st.binary(max_size=12),
    st.sampled_from([b"\r\n", b"\n"]),
)
# Field lines, stray bytes among them, then a head's end or a cut-off.
HEADS = st.builds(
    lambda lines, tail: b"".join(lines) + tail,
    st.lists(st.one_of(FIELD_LINES, st.binary(max_size=20)), max_size=8),
    st.sampled_from([b"\r\n", b"\n", b"", b"\r\n{}"]),
)


class TestHeadReader:
    @given(st.one_of(st.binary(), HEADS))
    @example(b"Content-Length: 2\r\ncontent-length: 2\r\n\r\n")
    @example(b"Transfer-Encoding: chunked\r\n\r\n")
    @example(b" folded\r\n\r\n")
    @example(b"X-A: 1\r\n")
    def test_any_bytes_give_headers_or_bad_head(self, data):
        rfile = io.BytesIO(data)
        try:
            headers = read_headers(rfile)
        except BadHead as exc:
            assert exc.status in (400, 431)
            return
        # The reader stops at the empty line: before it, the field lines.
        head = data[: rfile.tell()]
        lines = head.split(b"\n")[:-2]
        assert head.endswith(b"\n") and len(lines) <= MAX_HEADERS
        assert all(name == name.lower() for name in headers)
        assert "transfer-encoding" not in headers
        assert sum(line.lower().startswith(b"content-length:") for line in lines) <= 1

    def test_names_lower_cased_and_last_value_kept(self):
        headers = read_headers(io.BytesIO(b"Replay-Nonce:  abc \r\nX-A: 1\r\nx-a: 2\r\n\r\nbody"))
        assert headers == {"replay-nonce": "abc", "x-a": "2"}

    @pytest.mark.parametrize("fields, status", [(MAX_HEADERS, None), (MAX_HEADERS + 1, 431)])
    def test_header_count_limit(self, fields, status):
        head = b"".join(b"X-%d: 1\r\n" % i for i in range(fields)) + b"\r\n"
        self.assert_reads(head, status)

    @pytest.mark.parametrize("size, status", [(MAX_LINE, None), (MAX_LINE + 1, 431)])
    def test_line_length_limit(self, size, status):
        line = b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"
        assert len(line) == size
        self.assert_reads(line + b"\r\n", status)

    @staticmethod
    def assert_reads(head: bytes, status):
        if status is None:
            read_headers(io.BytesIO(head))
        else:
            with pytest.raises(BadHead) as excinfo:
                read_headers(io.BytesIO(head))
            assert excinfo.value.status == status


# Content-Length values: small lengths, the cap's edges, and text that is
# no length at all.
DECLARED = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from([str(MAX_BODY_BYTES), str(MAX_BODY_BYTES + 1), "-1", "+2", " 2", "0x10", "\u0663", ""]),
    st.text(max_size=4),
)


class TestBodyReader:
    @given(st.one_of(st.none(), DECLARED), st.binary(max_size=48))
    @example(str(MAX_BODY_BYTES), bytes(MAX_BODY_BYTES))
    @example(str(MAX_BODY_BYTES + 1), bytes(MAX_BODY_BYTES + 1))
    def test_body_is_exactly_content_length_or_bad_head(self, declared, data):
        headers = {} if declared is None else {"content-length": declared}
        try:
            body = read_body(io.BytesIO(data), headers)
        except BadHead as exc:
            assert exc.status in (400, 413)
            return
        assert body == data[: int(declared)] and len(body) == int(declared) <= MAX_BODY_BYTES
