"""Relying-party validation for device-to-device mTLS.

The policy lives in pure functions: RFC 5280 path validation to a
trusted root, validity window, the URN from the first DNS SAN, vendor
matching, and a revocation-filter lookup, applied in that fixed order so
the reject reason is deterministic. The echo harness wires the same
policy into a real TLS 1.3 session over loopback with mandatory client
certificates: OpenSSL verifies the chain during the handshake, then each
side checks the issuing root's window and runs ``check_leaf`` on the
peer's leaf, so both layers must agree before any payload flows.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import ssl
import struct
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Callable, Mapping, NamedTuple

from cryptography import x509
from cryptography.x509.verification import PolicyBuilder, Store, VerificationError

from .certs import (
    cert_to_pem, key_to_pem, load_cert_chain_in_memory, san_dns_names, serial_hex, split_pem_chain,
)
from .errors import IotPkiError
from .identity import DeviceUrn, MalformedUrn, parse_urn
from .inventory import utcnow
from .revocation import RevocationFilter, query
from .serving import BackgroundServer, ConnectionServer

log = logging.getLogger(__name__)

MAX_FRAME = 1 << 20

# OpenSSL's X509_V_FLAG_NO_CHECK_TIME, which Python's ssl does not name.
# With it set, the handshake still verifies the chain and signatures to a
# trusted root, and validity windows are left to _live_verdict, which reads
# TrustContext.clock instead of the wall clock.
X509_V_FLAG_NO_CHECK_TIME = 0x200000

# Bound on the servers each echo_once client context remembers. One-shot
# servers on fresh ports would otherwise add an entry per contact for as
# long as the context lives.
MAX_PEERS_PER_CONTEXT = 16

# Vendors already warned about a missing revocation filter: the warning
# is logged once per vendor per process, not on every handshake.
_unfiltered_vendors: set[str] = set()
_unfiltered_lock = threading.Lock()


class HandshakeRejected(IotPkiError):
    def __init__(self, side: str, verdict: "PeerVerdict") -> None:
        reason = verdict.reject_reason.value if verdict.reject_reason else None
        super().__init__(f"{side} rejected peer: {reason}")
        self.side = side
        self.verdict = verdict


class RejectReason(str, Enum):
    CHAIN = "chain"
    EXPIRED = "expired"
    NOT_YET_VALID = "not_yet_valid"
    SAN_MISMATCH = "san_mismatch"
    REVOKED = "revoked"
    MALFORMED = "malformed"


@dataclass(frozen=True)
class TrustContext:
    roots: tuple[x509.Certificate, ...]
    filters: Mapping[str, RevocationFilter]
    clock: Callable[[], datetime] = utcnow
    # Device private key -> that device's echo_once client side under this
    # trust; bounded by the live device keys and freed with the trust.
    _clients: dict[object, _ClientSide] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.roots:
            raise IotPkiError("trust context needs at least one root")


@dataclass(frozen=True)
class PeerVerdict:
    accepted: bool
    urn: DeviceUrn | None = None
    reject_reason: RejectReason | None = None

    def __post_init__(self) -> None:
        if self.accepted and (self.urn is None or self.reject_reason is not None):
            raise IotPkiError("accepted verdict must carry a urn and no reject reason")

    def to_json(self) -> str:
        return json.dumps(
            {
                "accepted": self.accepted,
                "urn": str(self.urn) if self.urn else None,
                "reject_reason": self.reject_reason.value if self.reject_reason else None,
            }
        )


def extract_urn(cert: x509.Certificate) -> DeviceUrn:
    """Device URN from the first DNS SAN, the one place a leaf names its
    device; the subject is never read. No DNS SAN is MalformedUrn."""
    names = san_dns_names(cert)
    if not names:
        raise MalformedUrn("certificate has no DNS SAN")
    return parse_urn(names[0])


def validate_peer(
    chain: list[x509.Certificate],
    ctx: TrustContext,
    expected_vendor: str | None = None,
) -> PeerVerdict:
    """Apply the five checks in fixed order; the first failure names the
    reject reason. RFC 5280 path validation to a trusted root comes first,
    then ``check_leaf``. The path is checked at the trust time clamped
    into the leaf's own window, so a leaf that is only outside that window
    reads ``expired`` or ``not_yet_valid``, while an in-window leaf is
    checked at the true trust time, its root's window included."""
    if not chain:
        return PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)
    leaf = chain[0]
    at = _path_time(leaf, ctx)
    verifier = PolicyBuilder().store(Store(list(ctx.roots))).time(at).build_client_verifier()
    try:
        verifier.verify(leaf, chain[1:])
    except VerificationError:
        return PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)
    return check_leaf(leaf, ctx, expected_vendor)


def _path_time(leaf: x509.Certificate, ctx: TrustContext) -> datetime:
    """The trust time clamped into the leaf's own window."""
    return min(max(ctx.clock(), leaf.not_valid_before_utc), leaf.not_valid_after_utc)


def _live_verdict(tls, ctx: TrustContext) -> PeerVerdict:
    """Verdict on a live session's peer, whose chain OpenSSL checked with no
    time check: ``chain`` if its leaf names a trust root and no root of that
    name is valid at the path time (as in ``validate_peer``), else ``check_leaf``."""
    leaf = x509.load_der_x509_certificate(tls.getpeercert(binary_form=True))
    at = _path_time(leaf, ctx)
    issuers = [root for root in ctx.roots if root.subject == leaf.issuer]
    if issuers and not any(r.not_valid_before_utc <= at <= r.not_valid_after_utc for r in issuers):
        return PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)
    return check_leaf(leaf, ctx)


def check_leaf(
    leaf: x509.Certificate,
    ctx: TrustContext,
    expected_vendor: str | None = None,
) -> PeerVerdict:
    """The four checks after the chain, in order: validity window by
    ``ctx.clock``, URN, vendor, revocation. Live TLS sessions reach it
    through ``_live_verdict``, as OpenSSL verified the chain in the handshake.
    Missing vendor filter fails open (with a warning, once per vendor):
    distributing filters is deployment policy, not protocol."""
    now = ctx.clock()
    if now < leaf.not_valid_before_utc:
        return PeerVerdict(accepted=False, reject_reason=RejectReason.NOT_YET_VALID)
    if now > leaf.not_valid_after_utc:
        return PeerVerdict(accepted=False, reject_reason=RejectReason.EXPIRED)
    try:
        urn = extract_urn(leaf)
    except MalformedUrn:
        return PeerVerdict(accepted=False, reject_reason=RejectReason.MALFORMED)
    if expected_vendor is not None and urn.namespace.root_domain != expected_vendor.lower():
        return PeerVerdict(accepted=False, reject_reason=RejectReason.SAN_MISMATCH)
    vendor = urn.namespace.root_domain
    filter_ = ctx.filters.get(vendor)
    if filter_ is None:
        _warn_unfiltered(vendor)
    elif query(filter_, serial_hex(leaf)):
        return PeerVerdict(accepted=False, reject_reason=RejectReason.REVOKED)
    return PeerVerdict(accepted=True, urn=urn)


def _warn_unfiltered(vendor: str) -> None:
    with _unfiltered_lock:
        if vendor in _unfiltered_vendors:
            return
        _unfiltered_vendors.add(vendor)
    log.warning("no revocation filter for vendor %s; failing open", vendor)


@dataclass(frozen=True)
class EchoResult:
    payload_echoed: bytes
    client_verdict: PeerVerdict
    server_verdict: PeerVerdict
    handshake_ms: float
    resumed: bool


def _tls13_context(purpose: ssl.Purpose, bundle, roots: tuple[x509.Certificate, ...]) -> ssl.SSLContext:
    ctx = ssl.SSLContext(
        ssl.PROTOCOL_TLS_SERVER if purpose is ssl.Purpose.CLIENT_AUTH else ssl.PROTOCOL_TLS_CLIENT
    )
    ctx.minimum_version = ssl.TLSVersion.TLSv1_3
    ctx.maximum_version = ssl.TLSVersion.TLSv1_3
    ctx.verify_mode = ssl.CERT_REQUIRED
    ctx.check_hostname = False
    ctx.verify_flags |= X509_V_FLAG_NO_CHECK_TIME
    load_cert_chain_in_memory(ctx, bundle.certificate_chain, key_to_pem(bundle.private_key))
    ctx.load_verify_locations(cadata="".join(cert_to_pem(root) for root in roots))
    return ctx


class _ClientSide(NamedTuple):
    chain_pem: str
    ctx: ssl.SSLContext
    # The device's own URN; None if its SAN names none, which any echo
    # server refuses as malformed.
    urn: DeviceUrn | None
    # Server address -> the session kept for it, or None after the first
    # full handshake; oldest first contact first out. Changed under lock.
    peers: dict[tuple[str, int], ssl.SSLSession | None]
    lock: threading.Lock


def _client_side(bundle, trust: TrustContext) -> _ClientSide:
    """The device's client TLS context under ``trust``, its own URN, and
    the sessions kept on that context. Concurrent first contacts share one
    entry; a renewed chain replaces it, so it never picks up the old
    chain's context or sessions."""
    key, chain_pem = bundle.private_key, bundle.certificate_chain
    side = trust._clients.get(key)
    if side is None or side.chain_pem != chain_pem:
        ctx = _tls13_context(ssl.Purpose.SERVER_AUTH, bundle, trust.roots)
        try:
            urn = extract_urn(split_pem_chain(chain_pem)[0])
        except MalformedUrn:
            urn = None
        fresh = _ClientSide(chain_pem, ctx, urn, {}, threading.Lock())
        side = trust._clients.setdefault(key, fresh)
        if side.chain_pem != chain_pem:
            trust._clients[key] = side = fresh
    return side


def _note_full_handshake(side: _ClientSide, addr: tuple[str, int], offered, tls) -> None:
    """After a full handshake that offered ``offered`` (None for no
    session): note a server met for the first time, or keep the session
    of a repeat contact. Each read of ``tls.session`` leaks native memory
    in CPython, so it is never read for a server met once, nor when
    another connection has kept a session since this one was offered, nor
    again for a server whose kept session carries no ticket."""
    with side.lock:
        if addr not in side.peers:
            side.peers[addr] = None
            if len(side.peers) > MAX_PEERS_PER_CONTEXT:
                del side.peers[next(iter(side.peers))]
        elif side.peers[addr] is offered and (offered is None or offered.has_ticket):
            side.peers[addr] = tls.session


def _recv_exact(sock, count: int) -> bytes:
    buf = bytearray()
    while len(buf) < count:
        part = sock.recv(count - len(buf))
        if not part:
            raise ConnectionError("peer closed mid-frame")
        buf += part
    return bytes(buf)


class _EchoHandler(socketserver.BaseRequestHandler):
    """Checks the client's leaf, reads one frame, and answers ``OK`` with
    the payload or ``RJ`` with the verdict, each behind a 4-byte length."""

    def handle(self) -> None:
        tls = self.request
        verdict = _live_verdict(tls, self.server.trust)
        (length,) = struct.unpack("!I", _recv_exact(tls, 4))
        if length > MAX_FRAME:
            return
        payload = _recv_exact(tls, length)
        if not verdict.accepted:
            reason = verdict.to_json().encode("utf-8")
            tls.sendall(b"RJ" + struct.pack("!I", len(reason)) + reason)
            return
        tls.sendall(b"OK" + struct.pack("!I", len(payload)) + payload)


class EchoServer(BackgroundServer):
    """TLS 1.3 echo service that checks every client against the trust
    context before echoing. One thread per connection."""

    def __init__(
        self,
        bundle,
        trust: TrustContext,
        bind_addr: tuple[str, int] = ("127.0.0.1", 0),
    ) -> None:
        ssl_ctx = _tls13_context(ssl.Purpose.CLIENT_AUTH, bundle, trust.roots)
        super().__init__("mtls-echo", "echo server", ConnectionServer, bind_addr, _EchoHandler, ssl_ctx)
        self._server.trust = trust


def echo_once(
    server_addr: tuple[str, int],
    client_bundle,
    trust: TrustContext,
    payload: bytes,
) -> EchoResult:
    """Connect to a running EchoServer, mutually authenticate, validate the
    server's certificate, and exchange the payload.

    The client's TLS context lives on ``trust``, one per device key, is
    rebuilt when the key's chain changes and is freed with the trust. From
    the second full handshake with a server on, its session is kept and
    resumed until the server declines the ticket; every connection,
    resumed or not, still runs ``_live_verdict``. Each socket operation
    times out after 5 s."""
    side = _client_side(client_bundle, trust)
    addr = tuple(server_addr)
    offered = side.peers.get(addr)
    start = time.perf_counter()
    try:
        raw = socket.create_connection(server_addr, timeout=5.0)
        tls = side.ctx.wrap_socket(raw, server_hostname="peer", session=offered)
    except ssl.SSLError as exc:
        raise HandshakeRejected(
            "client", PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)
        ) from exc
    handshake_ms = (time.perf_counter() - start) * 1000.0
    with tls:
        resumed = tls.session_reused
        client_verdict = _live_verdict(tls, trust)
        if not client_verdict.accepted:
            raise HandshakeRejected("client", client_verdict)
        try:
            # A TLS 1.3 server that refuses the client certificate only
            # surfaces the alert after our side of the handshake returned,
            # so the first write or read is where the rejection shows up.
            tls.sendall(struct.pack("!I", len(payload)) + payload)
            status = _recv_exact(tls, 2)
            (length,) = struct.unpack("!I", _recv_exact(tls, 4))
            body = _recv_exact(tls, length)
        except (ssl.SSLError, ConnectionError) as exc:
            raise HandshakeRejected(
                "server", PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)
            ) from exc
        # The server's tickets precede its answer, so they are in by now.
        if not resumed:
            _note_full_handshake(side, addr, offered, tls)
    if status != b"OK":
        # The frame is the peer's word: any other status or reason reads as chain.
        try:
            reason = RejectReason(json.loads(body)["reject_reason"] if status == b"RJ" else "chain")
        except (KeyError, TypeError, ValueError, RecursionError):
            reason = RejectReason.CHAIN
        raise HandshakeRejected("server", PeerVerdict(accepted=False, reject_reason=reason))
    return EchoResult(
        payload_echoed=body,
        client_verdict=client_verdict,
        server_verdict=PeerVerdict(accepted=True, urn=side.urn),
        handshake_ms=handshake_ms,
        resumed=resumed,
    )


def mtls_echo(
    server_bundle,
    client_bundle,
    trust: TrustContext,
    payload: bytes,
) -> EchoResult:
    """One-shot harness: start an echo server for ``server_bundle``, run a
    single authenticated exchange from ``client_bundle``, tear down."""
    with EchoServer(server_bundle, trust) as server:
        return echo_once(server.address, client_bundle, trust, payload)
