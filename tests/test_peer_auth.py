"""Peer validation policy matrix and the loopback mTLS echo harness."""

from __future__ import annotations

import gc
import ipaddress
import logging
import socket
import ssl
import struct
import sys
import threading
import time
import weakref
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID
from hypothesis import given, settings
from hypothesis import strategies as st

from iotpki import peer_auth, serving
from iotpki.acme.ca import TestCaState
from iotpki.certs import build_csr, cert_to_pem, generate_key
from iotpki.cli import ManualClock
from iotpki.identity import DeviceSecret, DeviceUrn, MalformedUrn, VendorNamespace, derive_device_uuid
from iotpki.peer_auth import (
    X509_V_FLAG_NO_CHECK_TIME,
    EchoServer,
    HandshakeRejected,
    PeerVerdict,
    RejectReason,
    TrustContext,
    echo_once,
    check_leaf,
    extract_urn,
    mtls_echo,
    validate_peer,
)
from iotpki.revocation import build_filter

NOW = datetime(2026, 6, 1, tzinfo=timezone.utc)
VENDOR_A = VendorNamespace("vendor-a.test", "camera")
VENDOR_B = VendorNamespace("vendor-b.test", "sensor")


def fixed_clock(at: datetime):
    return lambda: at


@pytest.fixture(scope="module")
def ca_state() -> TestCaState:
    return TestCaState(clock=fixed_clock(NOW))


def make_bundle(ca: TestCaState, ns: VendorNamespace, tag: str, san: str | None = None, key=None):
    urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(f"peer-auth-secret-{tag}".encode())), ns)
    name = san if san is not None else str(urn)
    key = key if key is not None else generate_key()
    serial, cert = ca.issue(build_csr(key, name))
    return SimpleNamespace(
        urn=urn,
        private_key=key,
        certificate_chain=cert_to_pem(cert) + cert_to_pem(ca.root_cert),
        leaf=cert,
        serial=serial,
    )


def root_cn(ca: TestCaState) -> str:
    return ca.root_cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)[0].value


def trust_for(ca: TestCaState, filters=None, at: datetime = NOW) -> TrustContext:
    return TrustContext(roots=(ca.root_cert,), filters=filters or {}, clock=fixed_clock(at))


TOKENS = [reason.value.encode("ascii") for reason in RejectReason]
# Reject bodies: the tokens, near misses around them, their old JSON
# frame, and any bytes.
BODIES = st.one_of(
    st.builds(lambda pre, token, post: pre + token + post,
              st.binary(max_size=2), st.sampled_from(TOKENS), st.binary(max_size=2)),
    st.sampled_from(TOKENS).map(lambda token: b'{"reject_reason": "%s"}' % token),
    st.binary(max_size=40),
)


class TestExtractUrn:
    def test_san_urn_extracted(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "x1")
        urn = extract_urn(bundle.leaf)
        assert urn == bundle.urn

    def test_time_based_uuid_subdomain_parses(self, ca_state):
        name = "c69f00ac-532c-11ee-87f2-079e7eb2f068.camera.vendor.com"
        bundle = make_bundle(ca_state, VENDOR_A, "x2", san=name)
        assert str(extract_urn(bundle.leaf)) == name

    def test_leaf_is_named_by_its_critical_san_alone(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "x3")
        san = bundle.leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName)
        assert bundle.leaf.subject == x509.Name([])
        assert (san.critical, san.value.get_values_for_type(x509.DNSName)) == (True, [str(bundle.urn)])

    def test_leaf_without_dns_san_is_malformed(self, ca_state):
        # A CN that names a device is not read: only a DNS SAN names one.
        key = generate_key()
        urn = DeviceUrn(derive_device_uuid(VENDOR_A, DeviceSecret(b"no-dns-san-secret")), VENDOR_A)
        leaf = sign_cert(
            key, str(urn), ca_state.root_key, root_cn(ca_state), NOW - timedelta(minutes=1),
            NOW + timedelta(days=30), ca=False, san=x509.IPAddress(ipaddress.ip_address("127.0.0.1")),
        )
        with pytest.raises(MalformedUrn):
            extract_urn(leaf)
        malformed = PeerVerdict(accepted=False, reject_reason=RejectReason.MALFORMED)
        assert check_leaf(leaf, trust_for(ca_state)) == malformed
        assert validate_peer([leaf], trust_for(ca_state)) == malformed


class TestValidatePeerMatrix:
    """Each of the five checks violated in isolation, plus the accept path."""

    def test_valid_peer_accepted(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m1")
        verdict = validate_peer([bundle.leaf], trust_for(ca_state))
        assert verdict.accepted
        assert verdict.urn == bundle.urn
        assert verdict.reject_reason is None

    def test_untrusted_chain_rejected(self, ca_state):
        other_ca = TestCaState(clock=fixed_clock(NOW))
        foreign = make_bundle(other_ca, VENDOR_A, "m2")
        verdict = validate_peer([foreign.leaf], trust_for(ca_state))
        assert verdict == PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)

    def test_expired_rejected(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m3")
        late = trust_for(ca_state, at=NOW + timedelta(days=120))
        verdict = validate_peer([bundle.leaf], late)
        assert verdict.reject_reason is RejectReason.EXPIRED

    def test_not_yet_valid_rejected(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m4")
        early = trust_for(ca_state, at=NOW - timedelta(days=1))
        verdict = validate_peer([bundle.leaf], early)
        assert verdict.reject_reason is RejectReason.NOT_YET_VALID

    def test_non_urn_san_rejected_malformed(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m5", san="www.example.org")
        verdict = validate_peer([bundle.leaf], trust_for(ca_state))
        assert verdict.reject_reason is RejectReason.MALFORMED

    def test_wrong_vendor_rejected_san_mismatch(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m6")
        verdict = validate_peer([bundle.leaf], trust_for(ca_state), expected_vendor="other.org")
        assert verdict.reject_reason is RejectReason.SAN_MISMATCH

    def test_revoked_rejected(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m7")
        filt = build_filter({bundle.serial}, ca_state.issued_serials(), "vendor-a.test", 1)
        ctx = trust_for(ca_state, filters={"vendor-a.test": filt})
        verdict = validate_peer([bundle.leaf], ctx)
        assert verdict.reject_reason is RejectReason.REVOKED

    def test_missing_filter_fails_open(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "m8")
        verdict = validate_peer([bundle.leaf], trust_for(ca_state, filters={}))
        assert verdict.accepted

    def test_cross_vendor_accept_with_filter(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_B, "m9")
        filt = build_filter(set(), ca_state.issued_serials(), "vendor-b.test", 1)
        ctx = trust_for(ca_state, filters={"vendor-b.test": filt})
        verdict = validate_peer([bundle.leaf], ctx, expected_vendor="vendor-b.test")
        assert verdict.accepted
        assert verdict.urn.namespace.root_domain == "vendor-b.test"


class TestCheckOrdering:
    def test_expired_and_revoked_reports_expired(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "o1")
        filt = build_filter({bundle.serial}, ca_state.issued_serials(), "vendor-a.test", 1)
        ctx = trust_for(ca_state, filters={"vendor-a.test": filt}, at=NOW + timedelta(days=120))
        assert validate_peer([bundle.leaf], ctx).reject_reason is RejectReason.EXPIRED

    def test_bad_chain_beats_everything(self, ca_state):
        other_ca = TestCaState(clock=fixed_clock(NOW))
        bundle = make_bundle(other_ca, VENDOR_A, "o2", san="www.example.org")
        ctx = trust_for(ca_state, at=NOW + timedelta(days=365))
        assert validate_peer([bundle.leaf], ctx).reject_reason is RejectReason.CHAIN

    def test_malformed_beats_revocation(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "o3", san="www.example.org")
        filt = build_filter({bundle.serial}, ca_state.issued_serials(), "vendor-a.test", 1)
        ctx = trust_for(ca_state, filters={"vendor-a.test": filt})
        assert validate_peer([bundle.leaf], ctx).reject_reason is RejectReason.MALFORMED

    def test_validate_is_pure(self, ca_state):
        bundle = make_bundle(ca_state, VENDOR_A, "o4")
        ctx = trust_for(ca_state)
        verdicts = {validate_peer([bundle.leaf], ctx).accepted for _ in range(10)}
        assert verdicts == {True}

    def test_empty_chain_is_chain_reject(self, ca_state):
        assert validate_peer([], trust_for(ca_state)).reject_reason is RejectReason.CHAIN

    def test_rejection_message_names_reason_value(self):
        verdict = PeerVerdict(accepted=False, reject_reason=RejectReason.REVOKED)
        assert str(HandshakeRejected("server", verdict)) == "server rejected peer: revoked"


def sign_cert(subject_key, subject: str, issuer_key, issuer: str, start: datetime, end: datetime,
              *, ca: bool, eku=(ExtendedKeyUsageOID.CLIENT_AUTH,), san=None) -> x509.Certificate:
    """A certificate with the extensions a path validator looks for: SKI,
    AKI, basicConstraints and keyUsage, plus EKU (``eku``) and one SAN
    (``san``, by default the DNS name ``subject``) on leaves."""
    usage = dict(
        content_commitment=False, key_encipherment=False, data_encipherment=False,
        key_agreement=False, encipher_only=False, decipher_only=False,
    )
    builder = (
        x509.CertificateBuilder()
        .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, subject)]))
        .issuer_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, issuer)]))
        .public_key(subject_key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(start)
        .not_valid_after(end)
        .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True)
        .add_extension(
            x509.KeyUsage(digital_signature=not ca, key_cert_sign=ca, crl_sign=ca, **usage),
            critical=True,
        )
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(subject_key.public_key()), critical=False)
    )
    if subject_key is not issuer_key:
        builder = builder.add_extension(
            x509.AuthorityKeyIdentifier.from_issuer_public_key(issuer_key.public_key()), critical=False
        )
    if not ca:
        builder = builder.add_extension(
            x509.ExtendedKeyUsage(list(eku)), critical=False
        ).add_extension(x509.SubjectAlternativeName([san or x509.DNSName(subject)]), critical=False)
    return builder.sign(issuer_key, hashes.SHA256())


class TestPathValidation:
    """Path validation follows RFC 5280, not just signatures and names."""

    def test_leaf_signed_by_end_entity_key_is_chain(self, ca_state):
        key_a = generate_key()
        urn_a = DeviceUrn(derive_device_uuid(VENDOR_A, DeviceSecret(b"path-validation-device-a")), VENDOR_A)
        leaf_a = sign_cert(key_a, str(urn_a), ca_state.root_key, root_cn(ca_state),
                           NOW - timedelta(minutes=1), NOW + timedelta(days=30), ca=False)
        assert validate_peer([leaf_a], trust_for(ca_state)) == PeerVerdict(accepted=True, urn=urn_a)
        victim = DeviceUrn(derive_device_uuid(VENDOR_B, DeviceSecret(b"path-validation-victim")), VENDOR_B)
        # Device A's own leaf carries a subject, AKI, SKI and ca=False; it
        # signs a leaf naming device B, so the only fault is the non-CA issuer.
        forged = sign_cert(
            generate_key(), str(victim), key_a, str(urn_a),
            NOW - timedelta(minutes=1), NOW + timedelta(days=30), ca=False,
        )
        assert forged.issuer == leaf_a.subject
        verdict = validate_peer([forged, leaf_a], trust_for(ca_state))
        assert verdict == PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)

    def test_leaf_outliving_its_root_is_chain_once_root_expires(self):
        root_key, leaf_key = generate_key(), generate_key()
        urn = DeviceUrn(derive_device_uuid(VENDOR_A, DeviceSecret(b"path-validation-outlive")), VENDOR_A)
        root = sign_cert(root_key, "short root", root_key, "short root",
                         NOW, NOW + timedelta(days=30), ca=True)
        leaf = sign_cert(leaf_key, str(urn), root_key, "short root",
                         NOW + timedelta(days=20), NOW + timedelta(days=80), ca=False)
        day = lambda n: TrustContext(roots=(root,), filters={}, clock=fixed_clock(NOW + timedelta(days=n)))
        assert validate_peer([leaf], day(25)) == PeerVerdict(accepted=True, urn=urn)
        assert validate_peer([leaf], day(40)) == PeerVerdict(accepted=False, reject_reason=RejectReason.CHAIN)

    def test_live_session_with_leaf_outliving_its_root_is_chain_once_root_expires(self):
        root_key = generate_key()
        root = sign_cert(root_key, "short root", root_key, "short root",
                         NOW, NOW + timedelta(days=30), ca=True)

        def bundle(tag: str):
            key = generate_key()
            secret = DeviceSecret(f"live-root-window-{tag}".encode())
            urn = DeviceUrn(derive_device_uuid(VENDOR_A, secret), VENDOR_A)
            leaf = sign_cert(key, str(urn), root_key, "short root",
                             NOW + timedelta(days=20), NOW + timedelta(days=80), ca=False,
                             eku=(ExtendedKeyUsageOID.CLIENT_AUTH, ExtendedKeyUsageOID.SERVER_AUTH))
            return SimpleNamespace(urn=urn, private_key=key,
                                   certificate_chain=cert_to_pem(leaf) + cert_to_pem(root))

        server, client = bundle("server"), bundle("client")
        day = lambda n: TrustContext(roots=(root,), filters={}, clock=fixed_clock(NOW + timedelta(days=n)))
        assert mtls_echo(server, client, day(25), b"ping").payload_echoed == b"ping"
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, day(40), b"ping")
        assert excinfo.value.verdict.reject_reason is RejectReason.CHAIN


def test_missing_filter_warns_once_per_vendor(ca_state, caplog):
    vendor = VendorNamespace("warn-once.test", "camera")
    bundle = make_bundle(ca_state, vendor, "w1")
    with caplog.at_level(logging.WARNING, logger="iotpki.peer_auth"):
        verdicts = [validate_peer([bundle.leaf], trust_for(ca_state)) for _ in range(5)]
    assert all(v.accepted for v in verdicts)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == [
        "no revocation filter for vendor warn-once.test; failing open"
    ]


class TestEchoHarness:
    @pytest.fixture(scope="class")
    def stub_server(self, ca_state):
        """An echo server that reads the client's frame and answers with
        the status and body held in ``answer[0]``."""
        answer = [(b"OK", b"")]

        class StubHandler(peer_auth._EchoHandler):
            def handle(self):
                (length,) = struct.unpack("!I", peer_auth._recv_exact(self.request, 4))
                peer_auth._recv_exact(self.request, length)
                status, body = answer[0]
                self.request.sendall(status + struct.pack("!I", len(body)) + body)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(peer_auth, "_EchoHandler", StubHandler)
            server = EchoServer(make_bundle(ca_state, VENDOR_A, "e13"), trust_for(ca_state))
        with server:
            yield SimpleNamespace(
                address=server.address, answer=answer,
                client=make_bundle(ca_state, VENDOR_B, "e14"), trust=trust_for(ca_state),
            )

    def test_cross_vendor_echo_256_bytes(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "e1")
        client = make_bundle(ca_state, VENDOR_B, "e2")
        trust = trust_for(ca_state)
        payload = bytes(range(256))
        result = mtls_echo(server, client, trust, payload)
        assert result.payload_echoed == payload
        assert result.client_verdict.accepted
        assert result.handshake_ms > 0
        assert result.resumed is False

    def test_revoked_client_rejected_by_server(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "e3")
        client = make_bundle(ca_state, VENDOR_B, "e4")
        filt = build_filter({client.serial}, ca_state.issued_serials(), "vendor-b.test", 2)
        trust = trust_for(ca_state, filters={"vendor-b.test": filt})
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, trust, b"payload")
        assert excinfo.value.side == "server"
        assert excinfo.value.verdict.reject_reason is RejectReason.REVOKED

    def test_revoked_server_rejected_by_client(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "e5")
        client = make_bundle(ca_state, VENDOR_B, "e6")
        filt = build_filter({server.serial}, ca_state.issued_serials(), "vendor-a.test", 3)
        trust = trust_for(ca_state, filters={"vendor-a.test": filt})
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, trust, b"payload")
        assert excinfo.value.side == "client"
        assert excinfo.value.verdict.reject_reason is RejectReason.REVOKED

    def test_non_urn_client_rejected_malformed_by_server(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "e11")
        client = make_bundle(ca_state, VENDOR_B, "e12", san="www.example.org")
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, trust_for(ca_state), b"payload")
        assert (excinfo.value.side, excinfo.value.verdict.reject_reason) == ("server", RejectReason.MALFORMED)

    @pytest.mark.parametrize(
        "status, body, reason",
        [
            (b"RJ", b"<html>busy</html>", RejectReason.CHAIN),
            (b"RJ", b"bored", RejectReason.CHAIN),
            (b"RJ", b'["revoked"]', RejectReason.CHAIN),
            (b"XX", b"revoked", RejectReason.CHAIN),
            (b"RJ", b"revoked", RejectReason.REVOKED),
            (b"RJ", b'{"reject_reason": "revoked"}', RejectReason.CHAIN),
        ],
        ids=["not-json", "unknown-reason", "a-list", "unknown-status", "known-reason", "json-object"],
    )
    def test_reject_frame_is_outside_input(self, stub_server, status, body, reason):
        stub_server.answer[0] = (status, body)
        with pytest.raises(HandshakeRejected) as excinfo:
            echo_once(stub_server.address, stub_server.client, stub_server.trust, b"payload")
        assert (excinfo.value.side, excinfo.value.verdict.reject_reason) == ("server", reason)

    @settings(deadline=None)
    @given(status=st.sampled_from([b"OK", b"RJ"]) | st.binary(min_size=2, max_size=2), body=BODIES)
    def test_only_ok_echoes_and_a_refusal_reads_its_token_or_chain(self, stub_server, status, body):
        stub_server.answer[0] = (status, body)
        try:
            result = echo_once(stub_server.address, stub_server.client, stub_server.trust, b"payload")
        except HandshakeRejected as exc:
            named = status == b"RJ" and body in TOKENS
            assert status != b"OK"
            assert exc.side == "server"
            assert exc.verdict.reject_reason is (RejectReason(body.decode()) if named else RejectReason.CHAIN)
        else:
            assert (status, result.payload_echoed) == (b"OK", body)

    def test_role_swap_symmetry(self, ca_state):
        a = make_bundle(ca_state, VENDOR_A, "e7")
        b = make_bundle(ca_state, VENDOR_B, "e8")
        trust = trust_for(ca_state)
        r1 = mtls_echo(a, b, trust, b"ping")
        r2 = mtls_echo(b, a, trust, b"ping")
        assert r1.payload_echoed == r2.payload_echoed == b"ping"

        filt = build_filter({a.serial}, ca_state.issued_serials(), "vendor-a.test", 4)
        trust_rev = trust_for(ca_state, filters={"vendor-a.test": filt})
        with pytest.raises(HandshakeRejected):
            mtls_echo(a, b, trust_rev, b"ping")
        with pytest.raises(HandshakeRejected):
            mtls_echo(b, a, trust_rev, b"ping")

    def test_foreign_root_client_fails_tls_handshake(self, ca_state):
        other_ca = TestCaState(clock=fixed_clock(NOW))
        server = make_bundle(ca_state, VENDOR_A, "e9")
        foreign_client = make_bundle(other_ca, VENDOR_B, "e10")
        trust = trust_for(ca_state)
        with pytest.raises(HandshakeRejected):
            mtls_echo(server, foreign_client, trust, b"x")

    def test_session_is_tls13(self, ca_state):
        import socket
        import ssl as ssl_mod
        import struct as struct_mod

        server_bundle = make_bundle(ca_state, VENDOR_A, "e11")
        client_bundle = make_bundle(ca_state, VENDOR_B, "e12")
        trust = trust_for(ca_state)
        with EchoServer(server_bundle, trust) as server:
            from iotpki.certs import key_to_pem, load_cert_chain_in_memory

            ctx = ssl_mod.SSLContext(ssl_mod.PROTOCOL_TLS_CLIENT)
            ctx.minimum_version = ssl_mod.TLSVersion.TLSv1_3
            ctx.check_hostname = False
            ctx.verify_mode = ssl_mod.CERT_REQUIRED
            # The server certificate is dated by the fixture's frozen clock,
            # not by today; validity windows belong to the trust clock.
            ctx.verify_flags |= X509_V_FLAG_NO_CHECK_TIME
            load_cert_chain_in_memory(
                ctx, client_bundle.certificate_chain, key_to_pem(client_bundle.private_key)
            )
            ctx.load_verify_locations(cadata=cert_to_pem(ca_state.root_cert))
            with socket.create_connection(server.address, timeout=5) as raw:
                with ctx.wrap_socket(raw, server_hostname="peer") as tls:
                    assert tls.version() == "TLSv1.3"
                    tls.sendall(struct_mod.pack("!I", 2) + b"hi")
                    assert tls.recv(2) == b"OK"

    def test_concurrent_clients(self, ca_state):
        import concurrent.futures

        server_bundle = make_bundle(ca_state, VENDOR_A, "e13")
        clients = [make_bundle(ca_state, VENDOR_B, f"e14-{i}") for i in range(8)]
        trust = trust_for(ca_state)
        with EchoServer(server_bundle, trust) as server:
            def one(bundle):
                return echo_once(server.address, bundle, trust, b"parallel").payload_echoed

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(pool.map(one, clients))
                # One device from eight threads: one context, one session slot.
                shared = list(pool.map(one, [clients[0]] * 8))
        assert results == shared == [b"parallel"] * 8


class TestEchoServerLifecycle:
    def test_mtls_echo_leaves_no_serve_thread(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "l1")
        client = make_bundle(ca_state, VENDOR_B, "l2")
        before = {t for t in threading.enumerate() if t.name == "mtls-echo"}
        for _ in range(5):
            assert mtls_echo(server, client, trust_for(ca_state), b"x").payload_echoed == b"x"
        assert {t for t in threading.enumerate() if t.name == "mtls-echo"} <= before

    def test_silent_peer_dropped_at_handshake_deadline(self, ca_state, monkeypatch):
        monkeypatch.setattr(serving, "HANDSHAKE_TIMEOUT", 0.3)
        server_bundle = make_bundle(ca_state, VENDOR_A, "l3")
        client_bundle = make_bundle(ca_state, VENDOR_B, "l4")
        trust = trust_for(ca_state)
        with EchoServer(server_bundle, trust) as server:
            with socket.create_connection(server.address, timeout=3) as silent:
                result = echo_once(server.address, client_bundle, trust, b"meanwhile")
                assert result.payload_echoed == b"meanwhile"
                started = time.monotonic()
                assert silent.recv(1) == b""
                assert time.monotonic() - started < 2


class TestInjectedClockOwnsTime:
    """Live mTLS sessions judge validity windows by TrustContext.clock, so
    these pass on any date: the certificates lie far in the past."""

    PAST = datetime(2001, 3, 1, tzinfo=timezone.utc)

    @pytest.fixture
    def past_ca(self):
        clock = ManualClock(self.PAST)
        ca = TestCaState(clock=clock)
        return SimpleNamespace(state=ca, clock=clock)

    def test_echo_succeeds_at_past_trust_clock(self, past_ca):
        server = make_bundle(past_ca.state, VENDOR_A, "p1")
        client = make_bundle(past_ca.state, VENDOR_B, "p2")
        result = mtls_echo(server, client, trust_for(past_ca.state, at=self.PAST), b"then")
        assert result.payload_echoed == b"then"
        assert result.client_verdict.accepted

    def test_trust_clock_past_expiry_rejects_server_as_expired(self, past_ca):
        server = make_bundle(past_ca.state, VENDOR_A, "p3")
        client = make_bundle(past_ca.state, VENDOR_B, "p4")
        late = trust_for(past_ca.state, at=self.PAST + timedelta(days=120))
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, late, b"x")
        assert excinfo.value.side == "client"
        assert excinfo.value.verdict.reject_reason is RejectReason.EXPIRED

    def test_trust_clock_before_issuance_rejects_server_as_not_yet_valid(self, past_ca):
        server = make_bundle(past_ca.state, VENDOR_A, "p5")
        client = make_bundle(past_ca.state, VENDOR_B, "p6")
        early = trust_for(past_ca.state, at=self.PAST - timedelta(days=1))
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, early, b"x")
        assert excinfo.value.side == "client"
        assert excinfo.value.verdict.reject_reason is RejectReason.NOT_YET_VALID

    def test_server_rejects_expired_client(self, past_ca):
        past_ca.clock.now = self.PAST - timedelta(days=100)
        client = make_bundle(past_ca.state, VENDOR_B, "p7")
        past_ca.clock.now = self.PAST
        server = make_bundle(past_ca.state, VENDOR_A, "p8")
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, client, trust_for(past_ca.state, at=self.PAST), b"x")
        assert excinfo.value.side == "server"
        assert excinfo.value.verdict.reject_reason is RejectReason.EXPIRED

    def test_foreign_root_still_fails_as_chain(self, past_ca):
        other = TestCaState(clock=past_ca.clock)
        server = make_bundle(past_ca.state, VENDOR_A, "p9")
        foreign_client = make_bundle(other, VENDOR_B, "p10")
        with pytest.raises(HandshakeRejected) as excinfo:
            mtls_echo(server, foreign_client, trust_for(past_ca.state, at=self.PAST), b"x")
        assert excinfo.value.verdict.reject_reason is RejectReason.CHAIN


class TestResumedSessions:
    """One long-lived echo server per test, whose trust context holds a
    mutable filter map and a mutable clock. Each check runs on a resumed
    session, and both sides still judge the peer's leaf."""

    @pytest.fixture
    def live(self, ca_state, monkeypatch):
        server = make_bundle(ca_state, VENDOR_A, "s-server")
        client = make_bundle(ca_state, VENDOR_B, "s-client")
        filters, clock = {}, ManualClock(NOW)
        trust = TrustContext(roots=(ca_state.root_cert,), filters=filters, clock=clock)
        # (side, resumed) for every live verdict; the server's runs on its
        # own thread, so after a client-side reject it may not be in yet.
        verdicts = []
        live_verdict = peer_auth._live_verdict

        def spy(tls, ctx):
            verdicts.append(("server" if tls.server_side else "client", tls.session_reused))
            return live_verdict(tls, ctx)

        monkeypatch.setattr(peer_auth, "_live_verdict", spy)
        with EchoServer(server, trust) as echo:
            ns = SimpleNamespace(
                server=server, client=client, filters=filters, clock=clock,
                verdicts=verdicts, echo=lambda bundle=client: echo_once(echo.address, bundle, trust, b"again"),
            )
            # The first full handshake notes the server, the second keeps its session.
            assert [ns.echo().resumed for _ in range(3)] == [False, False, True]
            verdicts.clear()
            yield ns

    def revoke(self, ca_state, live, bundle) -> None:
        vendor = bundle.urn.namespace.root_domain
        live.filters[vendor] = build_filter({bundle.serial}, ca_state.issued_serials(), vendor, 1)

    def test_client_revoked_after_ticket_rejected_by_server(self, ca_state, live):
        self.revoke(ca_state, live, live.client)
        with pytest.raises(HandshakeRejected) as excinfo:
            live.echo()
        assert (excinfo.value.side, excinfo.value.verdict.reject_reason) == ("server", RejectReason.REVOKED)
        assert sorted(live.verdicts) == [("client", True), ("server", True)]

    def test_server_revoked_after_ticket_rejected_by_client(self, ca_state, live):
        self.revoke(ca_state, live, live.server)
        with pytest.raises(HandshakeRejected) as excinfo:
            live.echo()
        assert (excinfo.value.side, excinfo.value.verdict.reject_reason) == ("client", RejectReason.REVOKED)
        assert ("client", True) in live.verdicts

    def test_trust_clock_past_not_after_is_expired(self, live):
        live.clock.now = live.server.leaf.not_valid_after_utc + timedelta(seconds=1)
        with pytest.raises(HandshakeRejected) as excinfo:
            live.echo()
        assert (excinfo.value.side, excinfo.value.verdict.reject_reason) == ("client", RejectReason.EXPIRED)
        assert ("client", True) in live.verdicts

    def test_renewed_chain_gets_full_handshake_and_new_serial(self, ca_state, live):
        renewed = make_bundle(ca_state, VENDOR_B, "s-client", key=live.client.private_key)
        self.revoke(ca_state, live, live.client)
        first = live.echo(renewed)
        assert (first.resumed, first.payload_echoed) == (False, b"again")
        assert [live.echo(renewed).resumed for _ in range(2)] == [False, True]
        with pytest.raises(HandshakeRejected) as excinfo:
            live.echo()
        assert excinfo.value.verdict.reject_reason is RejectReason.REVOKED

    def test_session_getter_read_once_per_repeat_contact(self, ca_state, live, getter_reads):
        fresh = make_bundle(ca_state, VENDOR_B, "s-fresh")
        results = [live.echo(fresh) for _ in range(20)]
        assert [r.resumed for r in results] == [False, False] + [True] * 18
        assert len(getter_reads) == 1


@pytest.fixture
def getter_reads(monkeypatch) -> list:
    """Every read of the ``ssl.SSLSocket.session`` getter, which leaks
    native memory in CPython."""
    reads = []
    getter = ssl.SSLSocket.session

    def counted(sock):
        reads.append(sock)
        return getter.fget(sock)

    monkeypatch.setattr(ssl.SSLSocket, "session", property(counted, getter.fset))
    return reads


class TestSessionGetterBounded:
    """Contacts that are never repeated, or that can never resume, do not
    read the session getter on every echo."""

    def test_one_shot_servers_never_read(self, ca_state, getter_reads, monkeypatch):
        monkeypatch.setattr(peer_auth, "MAX_PEERS_PER_CONTEXT", 2)
        server = make_bundle(ca_state, VENDOR_A, "g-server")
        client = make_bundle(ca_state, VENDOR_B, "g-client")
        trust = trust_for(ca_state)
        results = [mtls_echo(server, client, trust, b"once") for _ in range(4)]
        assert [r.resumed for r in results] == [False] * 4
        assert getter_reads == []
        side = peer_auth._client_side(client, trust)
        assert len(side.peers) <= 2

    def test_server_without_tickets_read_once(self, ca_state, getter_reads):
        server = make_bundle(ca_state, VENDOR_A, "g-ticketless")
        client = make_bundle(ca_state, VENDOR_B, "g-client2")
        trust = trust_for(ca_state)
        with EchoServer(server, trust) as echo:
            echo._server._tls.num_tickets = 0
            results = [echo_once(echo.address, client, trust, b"x") for _ in range(10)]
        assert [r.resumed for r in results] == [False] * 10
        assert len(getter_reads) == 1

    def test_concurrent_first_contacts_read_at_most_twice(self, ca_state, getter_reads):
        import concurrent.futures

        server = make_bundle(ca_state, VENDOR_A, "g-busy")
        client = make_bundle(ca_state, VENDOR_B, "g-client3")
        trust = trust_for(ca_state)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EchoServer(server, trust) as echo, concurrent.futures.ThreadPoolExecutor(8) as pool:
                echoes = pool.map(lambda _: echo_once(echo.address, client, trust, b"x"), range(48), timeout=60)
                assert list(echoes)[-1].resumed
        finally:
            sys.setswitchinterval(interval)
        # One connection notes the server and one keeps its session; the
        # rest of the first burst finds that session kept and reads nothing.
        assert len(getter_reads) <= 2


class TestTrustScopedClients:
    """echo_once keeps each device's client context on the trust context
    it ran under: one entry per device key, freed with the trust."""

    def test_client_context_freed_with_trust_and_server(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "t-server")
        client = make_bundle(ca_state, VENDOR_B, "t-client")
        trust = trust_for(ca_state)
        with EchoServer(server, trust) as echo:
            assert [echo_once(echo.address, client, trust, b"x").resumed for _ in range(3)] == [
                False, False, True,
            ]
        context = weakref.ref(peer_auth._client_side(client, trust).ctx)
        del trust, echo
        gc.collect()
        assert context() is None

    def test_two_identities_hold_two_entries_and_both_resume(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "t-server2")
        clients = [make_bundle(ca_state, VENDOR_B, f"t-client-{i}") for i in range(2)]
        trust = trust_for(ca_state)
        with EchoServer(server, trust) as echo:
            resumed = [
                [echo_once(echo.address, client, trust, b"x").resumed for _ in range(3)]
                for client in clients
            ]
        assert resumed == [[False, False, True]] * 2
        assert len(trust._clients) == 2

    def test_concurrent_echoes_keep_one_entry_per_key(self, ca_state, monkeypatch):
        import concurrent.futures

        server = make_bundle(ca_state, VENDOR_A, "t-server4")
        firsts = [make_bundle(ca_state, VENDOR_B, f"t-many-{i}") for i in range(4)]
        renewals = [
            make_bundle(ca_state, VENDOR_B, f"t-many-{i}", key=b.private_key) for i, b in enumerate(firsts)
        ]
        bundles = (firsts + renewals) * 6
        trust = trust_for(ca_state)
        # Chains an echo ran under that were not its own bundle's.
        mismatched = []
        client_side = peer_auth._client_side

        def spy(bundle, trust):
            side = client_side(bundle, trust)
            if side.chain_pem != bundle.certificate_chain:
                mismatched.append(bundle.serial)
            return side

        monkeypatch.setattr(peer_auth, "_client_side", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EchoServer(server, trust) as echo, concurrent.futures.ThreadPoolExecutor(8) as pool:
                echoed = pool.map(
                    lambda b: echo_once(echo.address, b, trust, b.serial.encode()).payload_echoed,
                    bundles,
                    timeout=60,
                )
                assert list(echoed) == [b.serial.encode() for b in bundles]
        finally:
            sys.setswitchinterval(interval)
        assert mismatched == []
        assert len(trust._clients) == 4

    def test_renewed_chain_on_same_key_leaves_one_entry(self, ca_state):
        server = make_bundle(ca_state, VENDOR_A, "t-server3")
        client = make_bundle(ca_state, VENDOR_B, "t-client3")
        renewed = make_bundle(ca_state, VENDOR_B, "t-client3", key=client.private_key)
        trust = trust_for(ca_state)
        with EchoServer(server, trust) as echo:
            before = [echo_once(echo.address, client, trust, b"x").resumed for _ in range(3)]
            after = [echo_once(echo.address, renewed, trust, b"x").resumed for _ in range(3)]
        assert (before, after) == ([False, False, True], [False, False, True])
        assert len(trust._clients) == 1
        assert peer_auth._client_side(renewed, trust).chain_pem == renewed.certificate_chain
