"""ACME stack: JWS primitives against published vectors, then the full
client/CA issuance flow over HTTPS with live challenge probing."""

from __future__ import annotations

import http.client
import json
import logging
import re
import secrets
import socket
import socketserver
import ssl
import threading
import time
import urllib.request
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa, utils
from cryptography.x509.oid import ExtensionOID, NameOID
from hypothesis import given
from hypothesis import strategies as st

from iotpki.acme import ca as ca_module
from iotpki.acme import client as client_module
from iotpki.acme import jws
from iotpki.acme.ca import QuotaExceeded, TestCa
from iotpki.acme.challenges import WELL_KNOWN_PREFIX, DnsTxtFulfiller, HttpShelfFulfiller, TokenShelf
from iotpki.acme.client import (
    AcmeClient,
    AcmeProblem,
    CaUnreachable,
    ChallengeFailed,
    CsrMismatch,
    MalformedAnswer,
    RateLimited,
    _parse_problem,
)
from iotpki.certs import (
    build_csr,
    csr_to_der,
    generate_key,
    load_cert_chain_in_memory,
    san_dns_names,
    serial_hex,
    split_pem_chain,
)
from iotpki.dnsauth.server import DnsUdpServer
from iotpki.dnsauth.zone import RType, Zone
from iotpki.inventory import MAX_CERT_LIFETIME, from_rfc3339, utcnow
from iotpki.serving import IDLE_TIMEOUT, MAX_BODY_BYTES, BackgroundServer, ConnectionServer

# Published RFC 7638 section 3.1 example JWK and its thumbprint.
RFC7638_JWK = {
    "e": "AQAB",
    "kty": "RSA",
    "n": (
        "0vx7agoebGcQSuuPiLJXZptN9nndrQmbXEps2aiAFbWhM78LhWx4cbbfAAtVT86zwu1RK7aPFFxuhDR1"
        "L6tSoc_BJECPebWKRXjBZCiFV4n3oknjhMstn64tZ_2W-5JsGY4Hc5n9yBXArwl93lqt7_RN5w6Cf0h4"
        "QyQ5v-65YGjQR0_FDW2QvzqY368QQMicAtaSqzs8KJZgnYb9c7d0zgdAZHzu6qMQvRL5hajrn1n91CbO"
        "pbISD08qNLyrdkt-bFTWhAI4vMQFh6WeZu0fM4lFd2NcRwr3XPksINHaQ-G_xBniIqbw0Ls1jF44-csF"
        "Cur-kEgU8awapJzKnqDKgw"
    ),
}
RFC7638_THUMBPRINT = "NzbLsXh8uDCcd-6MNwXF4W_7noWXFZAfHkxZsRGC9Xs"
# RFC 8555 section 8.1 example token; TXT value frozen from an
# independent hashlib/base64 derivation.
RFC8555_TOKEN = "evaGxfADs6pSRb2LAv9IZf17Dt3juxGJ-PCt92wr-oA"
FROZEN_DNS01_TXT = "ZTRx1Ckl1-tM05o5zaizTTA0yUy5AGereMgSNWC6Ll8"


def rsa_key() -> rsa.RSAPrivateKey:
    """An RSA-2048 key, as a foreign account or CSR may carry; the package
    itself only makes P-256 keys."""
    return rsa.generate_private_key(public_exponent=65537, key_size=2048)


KEYGEN = {"rsa2048": rsa_key, "p256": generate_key}


def as_body(value) -> bytes:
    """``value`` as a JSON request body."""
    return json.dumps(value).encode()


class TestJwsPrimitives:
    def test_b64url_no_padding_round_trip(self):
        for raw in (b"", b"\x00", b"fo", b"\xff" * 17):
            encoded = jws.b64url(raw)
            assert "=" not in encoded
            assert jws.b64url_decode(encoded) == raw

    def test_thumbprint_matches_rfc7638_vector(self):
        assert jws.jwk_thumbprint(RFC7638_JWK) == RFC7638_THUMBPRINT

    def test_thumbprint_ignores_extra_members(self):
        padded = dict(RFC7638_JWK, alg="RS256", use="sig", kid="2011-04-29")
        assert jws.jwk_thumbprint(padded) == RFC7638_THUMBPRINT

    def test_public_jwk_has_exactly_required_members(self):
        rsa_jwk = jws.public_jwk(rsa_key().public_key())
        assert sorted(rsa_jwk) == ["e", "kty", "n"]
        ec_jwk = jws.public_jwk(generate_key().public_key())
        assert sorted(ec_jwk) == ["crv", "kty", "x", "y"]

    @pytest.mark.parametrize("alg", ["rsa2048", "p256"])
    def test_sign_verify_round_trip(self, alg):
        key = KEYGEN[alg]()
        protected = {"alg": jws.alg_for_key(key), "nonce": "n", "url": "https://x/y"}
        envelope = jws.sign_jws(key, protected, b'{"a":1}')
        message = jws.parse_jws(as_body(envelope))
        jws.verify_jws(message, key.public_key())
        assert message.protected == protected
        assert message.payload == b'{"a":1}'

    @pytest.mark.parametrize("alg", ["rsa2048", "p256"])
    def test_tampered_payload_rejected(self, alg):
        key = KEYGEN[alg]()
        protected = {"alg": jws.alg_for_key(key), "nonce": "n", "url": "https://x/y"}
        envelope = jws.sign_jws(key, protected, b'{"a":1}')
        envelope["payload"] = jws.b64url(b'{"a":2}')
        message = jws.parse_jws(as_body(envelope))
        with pytest.raises(jws.JwsError):
            jws.verify_jws(message, key.public_key())

    def test_es256_signature_is_raw_64_bytes(self):
        key = generate_key()
        envelope = jws.sign_jws(key, {"alg": "ES256"}, b"x")
        assert len(jws.b64url_decode(envelope["signature"])) == 64

    def test_jwk_round_trip_preserves_key(self):
        key = generate_key()
        restored = jws.jwk_to_public_key(jws.public_jwk(key.public_key()))
        message = b"check"
        sig = key.sign(message, ec.ECDSA(hashes.SHA256()))
        restored.verify(sig, message, ec.ECDSA(hashes.SHA256()))

    def test_key_authorization_layout(self):
        assert jws.key_authorization("abc", "XYZ") == "abc.XYZ"
        with pytest.raises(jws.JwsError):
            jws.key_authorization("", "XYZ")

    def test_dns01_txt_matches_frozen_vector(self):
        key_auth = jws.key_authorization(RFC8555_TOKEN, RFC7638_THUMBPRINT)
        assert jws.dns01_txt_value(key_auth) == FROZEN_DNS01_TXT


ENVELOPE_KEY = generate_key()
ES256_HEADER = jws.b64url(b'{"alg":"ES256"}')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A member as any JSON value, as base64url of any JSON document, or as
# base64url of any bytes (most of them not UTF-8).
ENVELOPE_MEMBERS = st.one_of(
    JSON_VALUES,
    JSON_VALUES.map(lambda value: jws.b64url(json.dumps(value).encode())),
    st.binary(max_size=32).map(jws.b64url),
)


def es256(signing_input: bytes) -> str:
    """Raw r||s ES256 signature by ENVELOPE_KEY, base64url."""
    r, s = utils.decode_dss_signature(ENVELOPE_KEY.sign(signing_input, ec.ECDSA(hashes.SHA256())))
    return jws.b64url(r.to_bytes(32, "big") + s.to_bytes(32, "big"))


def envelope_of(protected, payload, signed: bool) -> dict:
    """An envelope with these members, signed over them when they spell
    an ASCII signing input and ``signed`` is set."""
    signature = jws.b64url(bytes(64))
    try:
        signing_input = f"{protected}.{payload}".encode("ascii")
    except UnicodeEncodeError:
        signed = False
    if signed:
        signature = es256(signing_input)
    return {"protected": protected, "payload": payload, "signature": signature}


class TestJwsEnvelopeShapes:
    @pytest.mark.parametrize(
        "protected, payload",
        [
            (5, ""),
            (jws.b64url(b"[]"), ""),
            (jws.b64url(b"\xc3\x28"), ""),
            (ES256_HEADER, 5),
        ],
        ids=["non-string-protected", "protected-array", "protected-not-utf8", "signed-numeric-payload"],
    )
    def test_malformed_member_is_jws_error(self, protected, payload):
        body = as_body(envelope_of(protected, payload, True))
        with pytest.raises(jws.MalformedJws):
            jws.verify_jws(jws.parse_jws(body), ENVELOPE_KEY.public_key())

    @given(
        protected=ENVELOPE_MEMBERS | st.just(ES256_HEADER),
        payload=ENVELOPE_MEMBERS,
        signed=st.booleans(),
        dropped=st.sampled_from([None, "protected", "payload", "signature"]),
    )
    def test_any_envelope_verifies_or_is_jws_error(self, protected, payload, signed, dropped):
        envelope = envelope_of(protected, payload, signed)
        envelope.pop(dropped, None)
        try:
            message = jws.parse_jws(as_body(envelope))
            jws.verify_jws(message, ENVELOPE_KEY.public_key())
        except jws.JwsError:
            return
        assert message.protected == json.loads(jws.b64url_decode(protected))
        assert message.payload == jws.b64url_decode(payload)


# Request bodies: any bytes, any JSON document, an object with any subset
# of the envelope's members holding anything, and JSON nested past the
# parser's depth, as the body or as the protected header.
ENVELOPE_SHAPES = st.fixed_dictionaries(
    {}, optional=dict.fromkeys(["protected", "payload", "signature"], ENVELOPE_MEMBERS)
)
NESTED = st.integers(1, 5000).map(lambda depth: b"[" * depth)
BODIES = st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(as_body),
    ENVELOPE_SHAPES.map(as_body),
    NESTED,
    NESTED.map(lambda nested: as_body({"protected": jws.b64url(nested), "payload": "", "signature": ""})),
)


class TestJwsParse:
    @given(body=BODIES)
    def test_any_body_parses_or_is_malformed(self, body):
        try:
            message = jws.parse_jws(body)
        except jws.MalformedJws:
            return
        assert isinstance(message.protected, dict)
        assert all(isinstance(part, bytes) for part in message[1:])

    @given(
        header=st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3),
        alg=st.sampled_from(["ES256", "RS256", "none"]) | JSON_VALUES,
        payload=st.binary(max_size=32),
        signature=st.none() | st.binary(max_size=80) | st.sampled_from([bytes(64), b"\xff" * 64]),
    )
    def test_any_parsed_message_verifies_or_is_jws_error(self, header, alg, payload, signature):
        """A signature of None is ENVELOPE_KEY's own over the message."""
        protected = jws.b64url(as_body({**header, "alg": alg}))
        envelope = envelope_of(protected, jws.b64url(payload), signature is None)
        if signature is not None:
            envelope["signature"] = jws.b64url(signature)
        message = jws.parse_jws(as_body(envelope))
        try:
            jws.verify_jws(message, ENVELOPE_KEY.public_key())
        except jws.JwsError:
            return
        assert (alg, signature) == ("ES256", None)


@pytest.fixture(scope="module")
def stack():
    zone = Zone("vendor.com")
    zone.set_record("cloud.vendor.com", RType.A, "127.0.0.1")
    dns = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    shelf = TokenShelf().start()
    ca = TestCa(dns_addr=dns.address, http01_port=shelf.port).start()
    clients = []
    yield SimpleNamespace(zone=zone, dns=dns, shelf=shelf, ca=ca, clients=clients)
    for client in clients:
        client.close()
    ca.close()
    shelf.close()
    dns.close()


def new_client(stack, ca=None) -> AcmeClient:
    """A client of ``ca`` (default: the stack's CA), closed with the stack."""
    ca = ca or stack.ca
    client = AcmeClient(ca.directory_url, ca_bundle_pem=ca.service_cert_pem)
    stack.clients.append(client)
    return client


def verify_chain(pem: str, fqdn: str, root: x509.Certificate) -> x509.Certificate:
    """Independent chain check: structural verify, an empty subject and a
    critical SAN equal to [fqdn]."""
    certs = split_pem_chain(pem)
    assert len(certs) == 2
    leaf, shipped_root = certs
    assert shipped_root == root
    leaf.verify_directly_issued_by(root)
    assert leaf.subject == x509.Name([])
    san = leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName)
    assert san.critical
    assert san.value.get_values_for_type(x509.DNSName) == [fqdn]
    assert leaf.not_valid_after_utc - leaf.not_valid_before_utc <= timedelta(days=90)
    return leaf


class TestIssuanceFlow:
    def test_dns01_issues_verifiable_chain(self, stack):
        fqdn = "dev1.camera.vendor.com"
        key = generate_key()
        pem = new_client(stack).obtain_certificate(
            fqdn, build_csr(key, fqdn), DnsTxtFulfiller(stack.zone)
        )
        leaf = verify_chain(pem, fqdn, stack.ca.state.root_cert)
        assert leaf.public_key().public_numbers() == key.public_key().public_numbers()

    def test_http01_issues_verifiable_chain(self, stack):
        fqdn = "dev2.camera.vendor.com"
        stack.zone.set_record(fqdn, RType.CNAME, "cloud.vendor.com")
        key = rsa_key()
        pem = new_client(stack).obtain_certificate(
            fqdn, build_csr(key, fqdn), HttpShelfFulfiller(stack.shelf)
        )
        verify_chain(pem, fqdn, stack.ca.state.root_cert)

    def test_challenge_cleanup_removes_txt(self, stack):
        fqdn = "dev3.camera.vendor.com"
        key = generate_key()
        new_client(stack).obtain_certificate(
            fqdn, build_csr(key, fqdn), DnsTxtFulfiller(stack.zone)
        )
        result = stack.zone.answer_query(f"_acme-challenge.{fqdn}", RType.TXT)
        assert result.answers == ()

    def test_wrong_txt_value_fails_challenge(self, stack):
        fqdn = "dev4.camera.vendor.com"

        class LyingFulfiller:
            challenge_type = "dns-01"

            def install(self, fqdn, token, key_auth):
                stack.zone.set_acme_txt(fqdn, "not-the-right-proof")

            def cleanup(self, fqdn, token):
                stack.zone.clear_acme_txt(fqdn)

        key = generate_key()
        with pytest.raises(ChallengeFailed):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(key, fqdn), LyingFulfiller()
            )

    def test_csr_for_other_name_rejected(self, stack):
        fqdn = "dev5.camera.vendor.com"
        key = generate_key()
        wrong_csr = build_csr(key, "evil.camera.vendor.com")
        with pytest.raises(CsrMismatch):
            new_client(stack).obtain_certificate(
                fqdn, wrong_csr, DnsTxtFulfiller(stack.zone)
            )

    def test_certificate_for_another_key_rejected(self, stack, monkeypatch):
        issue = ca_module.TestCaState.issue

        def issue_for_fresh_key(state, public_key, names):
            return issue(state, generate_key().public_key(), names)

        monkeypatch.setattr(ca_module.TestCaState, "issue", issue_for_fresh_key)
        fqdn = "swapped.camera.vendor.com"
        with pytest.raises(CsrMismatch, match="other than the csr"):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(generate_key(), fqdn), DnsTxtFulfiller(stack.zone)
            )

    def test_unreadable_chain_rejected(self, stack, monkeypatch):
        monkeypatch.setattr(ca_module, "cert_to_pem", lambda cert: "no certificate here\n")
        fqdn = "garbled.camera.vendor.com"
        with pytest.raises(CsrMismatch, match="unreadable chain"):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(generate_key(), fqdn), DnsTxtFulfiller(stack.zone)
            )

    def test_serials_unique_and_increasing(self, stack):
        fulfiller = DnsTxtFulfiller(stack.zone)
        client = new_client(stack)
        serials = []
        for i in range(3):
            fqdn = f"serial{i}.camera.vendor.com"
            key = generate_key()
            pem = client.obtain_certificate(fqdn, build_csr(key, fqdn), fulfiller)
            serials.append(split_pem_chain(pem)[0].serial_number)
        assert len(set(serials)) == 3
        assert serials == sorted(serials)

    def test_issued_cert_verifies_against_served_root(self, stack):
        fqdn = "dev6.camera.vendor.com"
        key = generate_key()
        pem = new_client(stack).obtain_certificate(
            fqdn, build_csr(key, fqdn), DnsTxtFulfiller(stack.zone)
        )
        ctx = ssl.create_default_context(cadata=stack.ca.service_cert_pem)
        ctx.check_hostname = False
        with urllib.request.urlopen(
            stack.ca.directory()["meta"]["caRoot"], context=ctx
        ) as resp:
            served_root = x509.load_pem_x509_certificates(resp.read())[0]
        split_pem_chain(pem)[0].verify_directly_issued_by(served_root)

    def test_ca_unreachable_maps_to_domain_error(self, monkeypatch):
        monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 0.5)
        client = AcmeClient("https://127.0.0.1:1/directory", ca_bundle_pem=None)
        with pytest.raises(CaUnreachable):
            client.ensure_account()


def misshape_answers(monkeypatch, method: str, change) -> None:
    """From now on the CA's ``method`` (``order_json``, ``authz_json`` or
    ``challenge_json``) answers ``change(usual JSON)``; a bytes result is
    sent as the raw body."""
    real = getattr(TestCa, method)
    monkeypatch.setattr(TestCa, method, lambda ca, obj: change(real(ca, obj)))
    json_reply = ca_module._AcmeHandler._json

    def raw_or_json(handler, status, obj, location=None):
        if isinstance(obj, bytes):
            return handler._reply(status, obj, "application/json", location)
        return json_reply(handler, status, obj, location)

    monkeypatch.setattr(ca_module._AcmeHandler, "_json", raw_or_json)


def without(member: str):
    return lambda obj: {k: v for k, v in obj.items() if k != member}


MISSHAPEN_ANSWERS = {
    "order-without-finalize": ("order_json", without("finalize")),
    "order-without-authorizations": ("order_json", without("authorizations")),
    "order-with-no-authorization": ("order_json", lambda obj: {**obj, "authorizations": []}),
    "order-not-json": ("order_json", lambda obj: b"<html>busy</html>"),
    "order-not-utf8": ("order_json", lambda obj: b"\xff\xfe"),
    "order-a-list": ("order_json", lambda obj: [obj]),
    "order-nested-too-deep": ("order_json", lambda obj: b"[" * 50000),
    "authz-without-challenges": ("authz_json", without("challenges")),
    "authz-challenges-not-objects": ("authz_json", lambda obj: {**obj, "challenges": ["dns-01"]}),
    "challenge-without-url": ("challenge_json", without("url")),
    "challenge-without-status": ("challenge_json", without("status")),
    "challenge-url-not-text": ("challenge_json", lambda obj: {**obj, "url": 7}),
    "token-missing": ("challenge_json", without("token")),
    "token-empty": ("challenge_json", lambda obj: {**obj, "token": ""}),
}


class TestMisshapenAnswers:
    """Whatever shape the CA's JSON takes, the client raises one typed
    error, and cleans up the challenge proof it installed."""

    @pytest.mark.parametrize("case", sorted(MISSHAPEN_ANSWERS))
    def test_misshapen_answer_is_malformed_answer(self, stack, monkeypatch, case):
        misshape_answers(monkeypatch, *MISSHAPEN_ANSWERS[case])
        fqdn = f"{case}.camera.vendor.com"
        with pytest.raises(MalformedAnswer):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(generate_key(), fqdn), DnsTxtFulfiller(stack.zone)
            )
        assert stack.zone.answer_query(f"_acme-challenge.{fqdn}", RType.TXT).answers == ()

    @pytest.mark.parametrize("case", ["token-missing", "token-empty"])
    def test_bad_token_installs_no_proof(self, stack, monkeypatch, case):
        misshape_answers(monkeypatch, *MISSHAPEN_ANSWERS[case])
        installed = []

        class RecordingFulfiller(DnsTxtFulfiller):
            def install(self, fqdn, token, key_auth):
                installed.append(token)
                super().install(fqdn, token, key_auth)

        fqdn = f"no-proof-{case}.camera.vendor.com"
        with pytest.raises(MalformedAnswer):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(generate_key(), fqdn), RecordingFulfiller(stack.zone)
            )
        assert installed == []

    def test_client_side_error_is_not_malformed_answer(self, stack):
        class BrokenFulfiller(DnsTxtFulfiller):
            def install(self, fqdn, token, key_auth):
                raise TypeError("fulfiller bug")

        fqdn = "local-bug.camera.vendor.com"
        with pytest.raises(TypeError, match="fulfiller bug"):
            new_client(stack).obtain_certificate(
                fqdn, build_csr(generate_key(), fqdn), BrokenFulfiller(stack.zone)
            )

    @pytest.mark.parametrize(
        "raw",
        [b"[" * 50000, b"[1]", b'{"type": 7, "detail": ["x"]}', b"\xff"],
        ids=["nested-too-deep", "a-list", "members-not-text", "not-utf8"],
    )
    def test_misshapen_problem_reads_as_about_blank(self, raw):
        problem = _parse_problem(raw)
        assert problem["type"] == "about:blank"
        assert isinstance(problem["detail"], str)


class TestNonces:
    def test_replayed_nonce_rejected(self, stack):
        client = new_client(stack)
        client.ensure_account()
        # Sign two envelopes with the same nonce and submit both.
        url = stack.ca.directory()["newOrder"]
        nonce = client._take_nonce()
        payload = json.dumps(
            {"identifiers": [{"type": "dns", "value": "replay.camera.vendor.com"}]}
        ).encode()

        def submit():
            protected = {
                "alg": jws.alg_for_key(client.account_key),
                "nonce": nonce,
                "url": url,
                "kid": client.kid,
            }
            envelope = jws.sign_jws(client.account_key, protected, payload)
            return client._http("POST", url, json.dumps(envelope).encode())

        first_status, _, _ = submit()
        second_status, _, body = submit()
        assert first_status == 201
        assert second_status == 400
        assert json.loads(body)["type"].endswith("badNonce")

    def test_client_recovers_from_stale_nonce(self, stack):
        client = new_client(stack)
        client.ensure_account()
        client._nonce = "bogus-nonce-value"
        order_status, _, _ = client._post(
            stack.ca.directory()["newOrder"],
            {"identifiers": [{"type": "dns", "value": "stale.camera.vendor.com"}]},
        )
        assert order_status == 201

    def test_nonce_table_is_bounded(self, stack):
        client = new_client(stack)
        client.ensure_account()
        held = client._nonce
        for _ in range(ca_module.MAX_NONCES + 100):
            stack.ca.state.fresh_nonce()
        assert len(stack.ca.state.nonces) <= ca_module.MAX_NONCES
        assert held not in stack.ca.state.nonces
        enroll(client, stack, "evicted-nonce.camera.vendor.com")


class TestQuota:
    def test_internal_gate_trips_past_quota(self):
        # Exercise the counting gate directly at full scale.
        ca = TestCa()
        try:
            for _ in range(30000):
                ca.state.check_quota(["x.camera.vendor.com"])
            with pytest.raises(QuotaExceeded):
                ca.state.check_quota(["x.camera.vendor.com"])
        finally:
            ca.close()

    def test_http_order_past_quota_is_rate_limited(self, stack, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 2)
        ca = TestCa(dns_addr=stack.dns.address).start()
        try:
            client = new_client(stack, ca)
            client.ensure_account()
            for i in range(2):
                client._post(
                    ca.directory()["newOrder"],
                    {"identifiers": [{"type": "dns", "value": f"q{i}.camera.vendor.com"}]},
                )
            with pytest.raises(RateLimited):
                client._post(
                    ca.directory()["newOrder"],
                    {"identifiers": [{"type": "dns", "value": "q3.camera.vendor.com"}]},
                )
        finally:
            ca.close()

    def test_quota_is_per_domain(self, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 1)
        ca = TestCa()
        try:
            ca.state.check_quota(["a.camera.vendor.com"])
            ca.state.check_quota(["b.camera.other.org"])  # different registrable domain
            with pytest.raises(QuotaExceeded):
                ca.state.check_quota(["c.camera.vendor.com"])
        finally:
            ca.close()

    KID = "https://ca.test/acme/acct/thumb"

    def test_one_order_counts_once_per_domain(self, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 1)
        state = ca_module.TestCaState(utcnow)
        state.create_order(self.KID, ["a.vendor.example", "b.vendor.example"])
        with pytest.raises(QuotaExceeded):
            state.create_order(self.KID, ["c.vendor.example"])

    def test_refused_order_counts_nothing(self, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 1)
        state = ca_module.TestCaState(utcnow)
        state.create_order(self.KID, ["x.one.example"])
        with pytest.raises(QuotaExceeded):
            state.create_order(self.KID, ["a.two.example", "b.one.example"])
        state.create_order(self.KID, ["c.two.example"])
        assert len(state.orders) == 2

    def test_only_the_current_week_is_kept(self, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 1)
        now = [datetime(2026, 1, 1, tzinfo=timezone.utc)]
        state = ca_module.TestCaState(lambda: now[0])
        for i in range(5):
            state.check_quota([f"x.domain{i}.example"])
            now[0] += timedelta(weeks=1)
        assert len(state._order_counts) == 1
        # Winding the clock back starts a fresh count as well.
        now[0] -= timedelta(weeks=3)
        state.check_quota(["x.domain0.example"])
        with pytest.raises(QuotaExceeded):
            state.check_quota(["y.domain0.example"])

    def test_case_does_not_start_a_new_count(self, stack, monkeypatch):
        monkeypatch.setattr(ca_module, "WEEKLY_ORDER_QUOTA", 1)
        ca = TestCa(dns_addr=stack.dns.address).start()
        try:
            client = new_client(stack, ca)
            client.ensure_account()
            order = {"identifiers": [{"type": "dns", "value": "e.VENDOR.example"}]}
            client._post(ca.directory()["newOrder"], order)
            with pytest.raises(RateLimited):
                order = {"identifiers": [{"type": "dns", "value": "f.vendor.EXAMPLE"}]}
                client._post(ca.directory()["newOrder"], order)
        finally:
            ca.close()


class TestValidityConfiguration:
    def test_issued_lifetime_is_max_cert_lifetime(self, stack):
        fqdn = "lifetime.camera.vendor.com"
        pem = new_client(stack).obtain_certificate(
            fqdn, build_csr(generate_key(), fqdn), DnsTxtFulfiller(stack.zone)
        )
        leaf = split_pem_chain(pem)[0]
        assert leaf.not_valid_after_utc - leaf.not_valid_before_utc == MAX_CERT_LIFETIME

    def test_leaf_never_outlives_root(self):
        now = [datetime(2001, 3, 1, tzinfo=timezone.utc)]
        ca = TestCa(clock=lambda: now[0])
        try:
            root_end = ca.state.root_cert.not_valid_after_utc
            now[0] = root_end - timedelta(days=10)
            cert = ca.state.issue(generate_key().public_key(), ["late.camera.vendor.com"])
            assert cert.not_valid_after_utc <= root_end
            assert cert.not_valid_before_utc < cert.not_valid_after_utc
        finally:
            ca.close()

    def test_leaf_from_rewound_clock_lies_inside_root(self):
        now = [datetime(2001, 3, 1, tzinfo=timezone.utc)]
        state = ca_module.TestCaState(clock=lambda: now[0])
        now[0] -= MAX_CERT_LIFETIME
        cert = state.issue(generate_key().public_key(), ["rewound.camera.vendor.com"])
        root = state.root_cert
        assert root.not_valid_before_utc <= cert.not_valid_before_utc
        assert cert.not_valid_after_utc <= root.not_valid_after_utc


def enroll(client, stack, fqdn: str, challenge: str = "dns01") -> str:
    if challenge == "http01":
        stack.zone.set_record(fqdn, RType.CNAME, "cloud.vendor.com")
        fulfiller = HttpShelfFulfiller(stack.shelf)
    else:
        fulfiller = DnsTxtFulfiller(stack.zone)
    key = generate_key()
    pem = client.obtain_certificate(fqdn, build_csr(key, fqdn), fulfiller)
    verify_chain(pem, fqdn, stack.ca.state.root_cert)
    return pem


def count_connections(monkeypatch, ca) -> list:
    """Record every TCP connection the CA accepts from now on."""
    accepted = []
    finish = ca._server.finish_request

    def counting(request, client_address):
        accepted.append(client_address)
        finish(request, client_address)

    monkeypatch.setattr(ca._server, "finish_request", counting)
    return accepted


def post_request(headers: str, body: bytes, path: str = "/acme/new-order") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: ca\r\n"
        f"Content-Type: application/jose+json\r\n{headers}\r\n\r\n"
    ).encode() + body


def raw_exchange(ca, request: bytes, read_reply: bool = True) -> bytes:
    """Send raw bytes to the CA over TLS and read until it closes. The 3 s
    socket timeout fails the caller if the CA waits instead of answering."""
    ctx = ssl.create_default_context(cadata=ca.service_cert_pem)
    ctx.check_hostname = False
    reply = b""
    with socket.create_connection(ca._server.server_address, timeout=3) as raw:
        with ctx.wrap_socket(raw) as tls:
            tls.sendall(request)
            while read_reply and (chunk := tls.recv(4096)):
                reply += chunk
    return reply


@pytest.fixture(scope="module")
def stub_tls():
    """(context, certificate PEM) for a TLS stub standing in for the CA."""
    cert_pem, key_pem = ca_module._service_identity()
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    load_cert_chain_in_memory(ctx, cert_pem, key_pem)
    return ctx, cert_pem


def stub_ca(stub_tls, replies: list[tuple[bytes, bool]]):
    """A TLS server that reads each request head and answers with the next
    (raw bytes, close afterwards) of ``replies``. Returns the server, not
    yet started, and the list of connections it accepts."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            accepted.append(self.client_address)
            while replies:
                while (line := self.rfile.readline()) not in (b"\r\n", b""):
                    pass
                if not line:
                    return
                reply, close = replies.pop(0)
                self.wfile.write(reply)
                if close:
                    return

    accepted = []
    return BackgroundServer("stub-ca", "stub ca", ConnectionServer, ("127.0.0.1", 0), Handler, stub_tls[0]), accepted


GOOD_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class TestTransport:
    @pytest.mark.parametrize(
        "reply",
        [
            (b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\nok", False),
            (b"ICY 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nok", True),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok", False),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", False),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2", True),
        ],
        ids=["no-status-code", "not-http", "short-body", "repeated-length", "chunked", "head-cut-off"],
    )
    def test_bad_answer_is_unreachable_and_next_request_reconnects(self, stub_tls, reply):
        server, accepted = stub_ca(stub_tls, [reply, (GOOD_REPLY, False)])
        with server:
            host, port = server.address
            with AcmeClient(f"https://{host}:{port}/directory", ca_bundle_pem=stub_tls[1]) as client:
                with pytest.raises(CaUnreachable):
                    client._http("GET", f"https://{host}:{port}/directory")
                status, headers, payload = client._http("GET", f"https://{host}:{port}/directory")
        assert (status, headers, payload) == (200, {"content-length": "2"}, b"ok")
        assert len(accepted) == 2

    def test_connection_close_answer_ends_the_connection(self, stub_tls):
        replies = [(b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", False)]
        server, accepted = stub_ca(stub_tls, replies + [(GOOD_REPLY, False)])
        with server:
            host, port = server.address
            url = f"https://{host}:{port}/directory"
            with AcmeClient(url, ca_bundle_pem=stub_tls[1]) as client:
                assert client._http("GET", url)[0] == 200
                assert client._sock is None
                assert client._http("GET", url)[2] == b"ok"
        assert len(accepted) == 2

    @pytest.mark.parametrize("path", ["/a b", "/caf\u00e9", "/a\x00b"], ids=["space", "non-ascii", "nul"])
    def test_url_that_is_no_request_target_is_unreachable(self, stack, path):
        client = new_client(stack)
        with pytest.raises(CaUnreachable, match="not a request target"):
            client._http("GET", stack.ca.base_url + path)

    def test_get_new_nonce_reads_a_204_without_a_body(self, stack):
        client = new_client(stack)
        url = client.directory()["newNonce"]
        sock = client._sock
        status, headers, payload = client._http("GET", url)
        assert (status, payload) == (204, b"")
        assert headers["replay-nonce"] in stack.ca.state.nonces
        # The answer ended at its head, so the connection carries the next request.
        assert client._http("GET", stack.ca.directory_url)[0] == 200
        assert client._sock is sock

    def test_stock_http_client_head_gets_a_nonce(self, stack):
        ctx = ssl.create_default_context(cadata=stack.ca.service_cert_pem)
        ctx.check_hostname = False
        conn = http.client.HTTPSConnection(*stack.ca.address, timeout=3, context=ctx)
        try:
            conn.request("HEAD", "/acme/new-nonce")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            assert resp.getheader("Replay-Nonce") in stack.ca.state.nonces
            # The same connection then carries a GET with a body.
            conn.request("GET", "/directory")
            resp = conn.getresponse()
            assert json.loads(resp.read()) == stack.ca.directory()
        finally:
            conn.close()

    def test_idle_peer_does_not_block_enrollment(self, stack, monkeypatch):
        monkeypatch.setattr(client_module, "REQUEST_TIMEOUT", 2)
        with socket.create_connection(stack.ca._server.server_address):
            client = new_client(stack)
            enroll(client, stack, "idle-peer.camera.vendor.com")

    def test_sequential_enrollments_share_one_connection(self, stack, monkeypatch):
        accepted = count_connections(monkeypatch, stack.ca)
        client = new_client(stack)
        for i in range(3):
            enroll(client, stack, f"keepalive{i}.camera.vendor.com")
        assert len(accepted) == 1

    def test_client_reconnects_after_idle_timeout(self, stack, monkeypatch):
        monkeypatch.setattr(ca_module._AcmeHandler, "timeout", 0.5)
        accepted = count_connections(monkeypatch, stack.ca)
        client = new_client(stack)
        client.ensure_account()
        time.sleep(1.0)
        enroll(client, stack, "reconnect.camera.vendor.com")
        assert len(accepted) == 2

    def test_post_the_ca_acted_on_but_never_answered_is_sent_once(self, stack, monkeypatch):
        finalize = ca_module.TestCaState.finalize
        finalized = []

        def counting(state, order, public_key, names):
            finalized.append(order.id)
            return finalize(state, order, public_key, names)

        def finalize_then_hang_up(handler, order_id, protected, *_):
            order = handler.ca.state.owned("order", order_id, protected["kid"])
            handler.ca.state.finalize(order, generate_key().public_key(), frozenset(order.identifiers))
            handler.close_connection = True

        monkeypatch.setattr(ca_module.TestCaState, "finalize", counting)
        monkeypatch.setitem(ca_module._AcmeHandler._POST_ROUTES, "/acme/finalize/", finalize_then_hang_up)
        client = new_client(stack)
        client.ensure_account()
        with pytest.raises(CaUnreachable):
            enroll(client, stack, "hang-up.camera.vendor.com")
        assert len(finalized) == 1

    def test_close_ends_live_connections(self, stack):
        ca = TestCa(dns_addr=stack.dns.address).start()
        client = new_client(stack, ca)
        client.ensure_account()
        started = time.perf_counter()
        ca.close()
        assert time.perf_counter() - started < IDLE_TIMEOUT / 3
        with pytest.raises(CaUnreachable):
            client._http("GET", ca.directory_url)

    def test_proxy_environment_is_ignored(self, stack, monkeypatch):
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.setenv("https_proxy", "http://127.0.0.1:9")
        client = new_client(stack)
        enroll(client, stack, "proxied-dns.camera.vendor.com", "dns01")
        enroll(client, stack, "proxied-http.camera.vendor.com", "http01")


class TestRequestBodies:
    @pytest.mark.parametrize(
        "path, header, status",
        [
            ("/acme/new-order", "Content-Length: 1048576", 413),
            ("/acme/new-order", "Content-Length: 12abc", 400),
            ("/acme/new-order", "X-No-Length: 1", 400),
            ("/acme/nowhere", "Content-Length: 2", 404),
            ("/acme/new-order", "content-length: 1048576", 413),
        ],
        ids=["oversized", "garbage-length", "missing-length", "unknown-route", "lower-case-length"],
    )
    def test_unread_body_fails_fast_and_ca_keeps_serving(self, stack, path, header, status):
        reply = raw_exchange(stack.ca, post_request(header, b"{}", path))
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        assert b"Connection: close" in head
        assert json.loads(payload)["type"].endswith("malformed")
        enroll(new_client(stack), stack, f"after-{status}-{len(header)}.camera.vendor.com")

    # post_request sends Host and Content-Type, so 99 more make 101 fields.
    @pytest.mark.parametrize(
        "header, status",
        [
            ("Content-Length: 2\r\nContent-Length: 2", 400),
            ("Content-Length: 2\r\nTransfer-Encoding: chunked", 400),
            ("\r\n".join(f"X-Field-{i}: {i}" for i in range(99)), 431),
            ("X-Long: " + "a" * (65537 - len("X-Long: \r\n")), 431),
            ("Content-Length : 2", 400),
        ],
        ids=["repeated-length", "chunked", "101-fields", "65537-byte-line", "space-before-colon"],
    )
    def test_refused_head_is_answered_and_ca_keeps_serving(self, stack, header, status):
        reply = raw_exchange(stack.ca, post_request(header, b"{}"))
        head = reply.partition(b"\r\n\r\n")[0]
        assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
        assert b"Connection: close" in head
        enroll(new_client(stack), stack, f"after-refused-{status}-{len(header)}.camera.vendor.com")

    def test_truncated_body_fails_fast_and_ca_keeps_serving(self, stack, caplog):
        caplog.set_level(logging.DEBUG, logger=ca_module.__name__)
        raw_exchange(
            stack.ca,
            post_request("Content-Length: 4096", b'{"protected": "'),
            read_reply=False,
        )
        deadline = time.monotonic() + 2
        while not any('new-order HTTP/1.1" 400' in r.getMessage() for r in caplog.records):
            assert time.monotonic() < deadline, "ca still waiting on a closed peer's body"
            time.sleep(0.01)
        enroll(new_client(stack), stack, "after-truncated.camera.vendor.com")

    @pytest.mark.parametrize(
        "request_line, status",
        [("GET /nowhere", 404), ("HEAD /nowhere", 404), ("GET /acme/new-order", 404), ("PUT /directory", 405)],
    )
    def test_unknown_resource_or_method_is_a_problem_document(self, stack, request_line, status):
        reply = raw_exchange(stack.ca, f"{request_line} HTTP/1.1\r\nHost: ca\r\n\r\n".encode())
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].split()[1] == str(status).encode()
        assert b"Content-Type: application/problem+json" in lines and b"Connection: close" in lines
        assert any(line.startswith(b"Replay-Nonce: ") for line in lines)
        if request_line.startswith("HEAD"):
            assert body == b""
        else:
            assert json.loads(body)["type"] == ca_module.ERROR_NS + "malformed"


def http01_stub(answer):
    """A device's HTTP-01 endpoint, stubbed: for each connection it reads
    the request head, records its Host, and sends ``answer(proof)``, where
    ``proof`` is the right key authorization for the requested token under
    the account thumbprint ``thumb``. Returns the server, not yet started,
    and the list of Host values it saw."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            head = []
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                head.append(line.decode("latin-1").rstrip("\r\n"))
            hosts.extend(line[len("Host: "):] for line in head if line.startswith("Host: "))
            token = head[0].split()[1].rpartition("/")[2]
            try:
                self.wfile.write(answer(jws.key_authorization(token, "thumb").encode()))
            except OSError:
                pass  # the probe may hang up before the whole answer is sent

    hosts = []
    server = BackgroundServer("stub-http01", "stub http-01", socketserver.TCPServer, ("127.0.0.1", 0), Handler)
    return server, hosts


def framed(status_line: bytes):
    """An answer with ``status_line`` and the proof as its body."""
    return lambda proof: status_line + b"\r\nContent-Length: %d\r\n\r\n%s" % (len(proof), proof)


# Answers of a stubbed HTTP-01 endpoint, the challenge status each leaves,
# and how the problem detail of an invalid one starts.
PROBE_ANSWERS = {
    "proof": (framed(b"HTTP/1.1 200 OK"), "valid", None),
    "chunked": (
        lambda proof: b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
        % (len(proof), proof),
        "invalid",
        "http probe failed",
    ),
    "oversized": (
        lambda proof: b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        + proof.ljust(MAX_BODY_BYTES + 1),
        "invalid",
        "http probe failed",
    ),
    "bad-status-line": (framed(b"HTTP/1.1 OK"), "invalid", "http probe failed"),
    "not-found": (
        lambda proof: b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n", "invalid", "http probe returned 404"
    ),
    # A 204 has no body, so no Content-Length either (RFC 9112 section 6.3).
    "no-content": (lambda proof: b"HTTP/1.1 204 No Content\r\n\r\n", "invalid", "http probe returned 204"),
}


def shelve_another_proof(stack, fqdn: str, token: str) -> None:
    stack.zone.set_record(fqdn, RType.CNAME, "cloud.vendor.com")
    stack.shelf.put(token, "not-the-key-authorization")


# Probes that find no proof: the challenge type, what is published first,
# and how the problem detail starts.
PROBE_FAILURES = {
    "dns01-no-txt": ("dns-01", lambda stack, fqdn, token: None, "dns probe rcode NXDOMAIN"),
    "http01-no-address": ("http-01", lambda stack, fqdn, token: None, "address resolution failed"),
    "http01-another-proof": ("http-01", shelve_another_proof, "key authorization mismatch"),
}


@pytest.mark.parametrize("case", PROBE_FAILURES)
def test_failed_probe_names_its_cause(stack, case):
    ctype, publish, detail = PROBE_FAILURES[case]
    fqdn = f"{case}.camera.vendor.com"
    kid = "https://ca.test/acme/acct/thumb"
    order = stack.ca.state.create_order(kid, [fqdn])
    chall = next(c for c in order.authzs[0].challenges if c.type == ctype)
    publish(stack, fqdn, chall.token)
    try:
        stack.ca.validate_challenge(chall)
    finally:
        stack.shelf.remove(chall.token)
    assert (chall.status, order.status) == ("invalid", "invalid")
    assert order.problem["detail"].startswith(detail)


def test_token_shelf_answers_an_unknown_token_404_and_closes(stack):
    conn = http.client.HTTPConnection("127.0.0.1", stack.shelf.port, timeout=5)
    try:
        conn.request("GET", WELL_KNOWN_PREFIX + "no-such-token")
        reply = conn.getresponse()
        assert (reply.status, reply.getheader("Connection"), reply.read()) == (404, "close", b"")
    finally:
        conn.close()


@pytest.mark.parametrize("case", PROBE_ANSWERS)
def test_http01_probe_reads_with_the_shared_readers(stack, case):
    answer, outcome, detail = PROBE_ANSWERS[case]
    stub, hosts = http01_stub(answer)
    fqdn = f"probe-{case}.camera.vendor.com"
    stack.zone.set_record(fqdn, RType.CNAME, "cloud.vendor.com")
    kid = "https://ca.test/acme/acct/thumb"
    with stub, TestCa(dns_addr=stack.dns.address, http01_port=stub.address[1]) as ca:
        order = ca.state.create_order(kid, [fqdn])
        chall = next(c for c in order.authzs[0].challenges if c.type == "http-01")
        ca.validate_challenge(chall)
    assert (chall.status, hosts) == (outcome, [fqdn])
    if outcome == "invalid":
        assert order.problem["detail"].startswith(detail)


def signed_post(client, url: str, payload, protected: dict) -> tuple[int, dict, bytes]:
    """POST one JWS built by hand from the client's account; ``protected``
    overrides header members, and the client's ``kid`` is left out when it
    supplies a ``jwk``. A bytes ``payload`` is sent as the whole request
    body instead, unsigned. Returns the raw (status, headers, body)."""
    if isinstance(payload, bytes):
        return client._http("POST", url, payload)
    header = {
        "alg": jws.alg_for_key(client.account_key),
        "nonce": client._take_nonce(),
        "url": url,
        **({} if "jwk" in protected else {"kid": client.kid}),
        **protected,
    }
    body = json.dumps(payload).encode() if payload is not None else None
    envelope = jws.sign_jws(client.account_key, header, body)
    return client._http("POST", url, json.dumps(envelope).encode())


def csr_b64(fqdn: str, tamper: bool = False) -> str:
    der = bytearray(csr_to_der(build_csr(generate_key(), fqdn)))
    if tamper:
        der[-1] ^= 1  # last byte of the signature's s: still parses, no longer verifies
    return jws.b64url(bytes(der))


def unreadable_san_csr_b64(_) -> str:
    """A validly signed CSR whose SAN extension does not parse: a dNSName
    that claims more bytes than follow."""
    san = x509.UnrecognizedExtension(ExtensionOID.SUBJECT_ALTERNATIVE_NAME, b"\x30\x03\x82\x05a")
    csr = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(x509.Name([]))
        .add_extension(san, critical=False)
        .sign(generate_key(), hashes.SHA256())
    )
    return jws.b64url(csr_to_der(csr))


def place_order(client, fqdn: str) -> tuple[dict, dict]:
    """New order for ``fqdn``: returns the order (with its URL) and its
    DNS-01 challenge."""
    _, headers, raw = client._post(
        client.directory()["newOrder"], {"identifiers": [{"type": "dns", "value": fqdn}]}
    )
    order = dict(json.loads(raw), url=headers["location"])
    _, _, raw = client._post(order["authorizations"][0], None)
    chall = next(c for c in json.loads(raw)["challenges"] if c["type"] == "dns-01")
    return order, chall


def answer_challenge(stack, client, chall: dict, fqdn: str) -> dict:
    """Publish the right DNS-01 proof, POST the challenge, withdraw the proof."""
    fulfiller = DnsTxtFulfiller(stack.zone)
    token = chall["token"]
    fulfiller.install(fqdn, token, jws.key_authorization(token, client.jwk_thumbprint))
    try:
        return json.loads(client._post(chall["url"], {})[2])
    finally:
        fulfiller.cleanup(fqdn, token)


def ready_order(stack, client, fqdn: str) -> tuple[dict, dict]:
    order, chall = place_order(client, fqdn)
    answer_challenge(stack, client, chall, fqdn)
    return order, chall


def acme_url(stack, path: str) -> str:
    return f"{stack.ca.base_url}/acme/{path}"


def _finalize(ready: bool, csr_for):
    """Builder for a finalize request on a fresh order, ready or still
    pending; ``csr_for(fqdn)`` gives the request's csr member."""

    def build(stack, client):
        fqdn = f"reject-{secrets.token_hex(4)}.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn) if ready else place_order(client, fqdn)
        return order["finalize"], {"csr": csr_for(fqdn)}, {}

    return build


def _cert_of_pending_order(stack, client):
    order, _ = place_order(client, f"early-{secrets.token_hex(4)}.camera.vendor.com")
    return acme_url(stack, "cert/" + order["url"].rpartition("/")[2]), None, {}


def _answer_challenge(payload):
    """Builder for a challenge answer ``payload`` on a fresh pending order."""

    def build(stack, client):
        _, chall = place_order(client, f"answer-{secrets.token_hex(4)}.camera.vendor.com")
        return chall["url"], payload, {}

    return build


# Challenge answers that are not the JSON object RFC 8555 section 7.5.1 asks for.
NON_OBJECT_ANSWERS = {"array": [], "string": "x", "number": 5}


def _new_order_envelope(**members):
    """Builder for a new-order body sent as it is: a protected header the
    CA accepts, an empty payload and signature, then ``members`` over them."""

    def build(stack, client):
        url = acme_url(stack, "new-order")
        header = {"alg": "ES256", "nonce": client._take_nonce(), "url": url, "kid": client.kid}
        protected = jws.b64url(json.dumps(header).encode())
        envelope = {"protected": protected, "payload": "", "signature": "", **members}
        return url, json.dumps(envelope).encode(), {}

    return build


NEW_ORDER = {"identifiers": [{"type": "dns", "value": "reject.camera.vendor.com"}]}
# Identifiers outside the zone's name grammar, which the CA could never probe.
BAD_IDENTIFIERS = {
    "long-label": "a" * 64 + ".camera.vendor.com",
    "non-ascii": "café.camera.vendor.com",
    "newline-in-label": "x\n.camera.vendor.com",
}
PROTECTED_ARRAY = json.dumps({"protected": jws.b64url(b"[]"), "payload": "", "signature": ""})
def account_jwk(client) -> dict:
    return jws.public_jwk(client.account_key.public_key())


OFF_CURVE_JWK = {
    "kty": "EC", "crv": "P-256", "x": jws.b64url(b"\x01" * 32), "y": jws.b64url(b"\x02" * 32)
}
_P384 = ec.generate_private_key(ec.SECP384R1()).public_key().public_numbers()
P384_JWK = {
    "kty": "EC", "crv": "P-384", "x": jws.b64url(_P384.x.to_bytes(48, "big")),
    "y": jws.b64url(_P384.y.to_bytes(48, "big")),
}

# Each CA reject path: request builder (stack, client) -> (url, payload,
# protected overrides), then the expected status, problem type, and
# whether the reply closes the connection (it does when the body is
# left unread).
REJECTS = [
    pytest.param(
        lambda s, c: (acme_url(s, "order/nope"), None, {}), 404, "malformed", False,
        id="unknown-order",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "authz/nope"), None, {}), 404, "malformed", False,
        id="unknown-authz",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "chall/nope"), {}, {}), 404, "malformed", False,
        id="unknown-challenge",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "finalize/nope"), {"csr": csr_b64("x.vendor.com")}, {}),
        404, "malformed", False, id="unknown-finalize",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "cert/nope"), None, {}), 404, "malformed", False,
        id="unknown-cert",
    ),
    pytest.param(_cert_of_pending_order, 404, "malformed", False, id="cert-before-valid"),
    pytest.param(_finalize(False, csr_b64), 403, "orderNotReady", False, id="finalize-pending-order"),
    pytest.param(_finalize(True, lambda f: "AAAA"), 400, "badCSR", False, id="unparseable-csr"),
    pytest.param(
        _finalize(True, lambda f: csr_b64(f, tamper=True)), 400, "badCSR", False,
        id="bad-csr-signature",
    ),
    pytest.param(
        _finalize(True, lambda f: csr_b64("other.camera.vendor.com")), 400, "badCSR", False,
        id="csr-names-differ",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), NEW_ORDER, {"kid": acme_url(s, "acct/999999")}),
        400, "accountDoesNotExist", False, id="unknown-kid",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), NEW_ORDER, {"url": acme_url(s, "elsewhere")}),
        400, "unauthorized", False, id="url-mismatch",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {"termsOfServiceAgreed": True}, {}),
        400, "malformed", False, id="new-account-without-jwk",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), {"names": []}, {}), 400, "malformed", False,
        id="bad-order-payload",
    ),
    pytest.param(
        lambda s, c: (
            acme_url(s, "new-order"), {"identifiers": [{"type": "ip", "value": "127.0.0.1"}]}, {}
        ),
        400, "malformed", False, id="no-dns-identifiers",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account/x"), {}, {}), 404, "malformed", True,
        id="new-account-with-id",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "order/"), None, {}), 404, "malformed", False,
        id="empty-order-id",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), b"[]", {}), 400, "malformed", False,
        id="body-not-an-object",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), PROTECTED_ARRAY.encode(), {}), 400, "malformed",
        False, id="protected-not-an-object",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), NEW_ORDER, {"nonce": []}), 400, "malformed", False,
        id="non-string-nonce",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), NEW_ORDER, {"kid": []}), 400, "malformed", False,
        id="non-string-kid",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {}, {"jwk": "x"}), 400, "malformed", False,
        id="jwk-not-an-object",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {}, {"jwk": OFF_CURVE_JWK}), 400, "malformed",
        False, id="jwk-off-curve",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {}, {"jwk": {"kty": "oct", "k": "AAAA"}}), 400,
        "badPublicKey", False, id="jwk-oct",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {}, {"jwk": P384_JWK}), 400, "badPublicKey",
        False, id="jwk-ec-p384",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-account"), {}, {"jwk": account_jwk(c), "kid": c.kid}), 400,
        "malformed", False, id="new-account-with-jwk-and-kid",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), NEW_ORDER, {"jwk": account_jwk(c), "kid": c.kid}), 400,
        "malformed", False, id="new-order-with-jwk-and-kid",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), {"identifiers": 5}, {}), 400, "malformed", False,
        id="identifiers-not-a-list",
    ),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), {"identifiers": [5]}, {}), 400, "malformed", False,
        id="identifier-not-an-object",
    ),
    pytest.param(_finalize(True, lambda f: 5), 400, "badCSR", False, id="non-string-csr"),
    pytest.param(_finalize(True, unreadable_san_csr_b64), 400, "badCSR", False, id="csr-san-unreadable"),
    pytest.param(
        lambda s, c: (acme_url(s, "new-order"), b"[" * 50000, {}), 400, "malformed", False,
        id="body-nested-too-deep",
    ),
    pytest.param(_new_order_envelope(payload=5), 400, "malformed", False, id="non-string-payload"),
    pytest.param(_new_order_envelope(), 401, "unauthorized", False, id="bad-signature"),
    *(
        pytest.param(
            lambda s, c, fqdn=fqdn: (
                acme_url(s, "new-order"), {"identifiers": [{"type": "dns", "value": fqdn}]}, {}
            ),
            400, "rejectedIdentifier", False, id=f"identifier-{name}",
        )
        for name, fqdn in BAD_IDENTIFIERS.items()
    ),
    *(
        pytest.param(_answer_challenge(payload), 400, "malformed", False, id=f"challenge-answer-{name}")
        for name, payload in NON_OBJECT_ANSWERS.items()
    ),
]


@pytest.mark.parametrize("build, status, ptype, close", REJECTS)
def test_reject_path(stack, build, status, ptype, close):
    client = new_client(stack)
    client.ensure_account()
    url, payload, protected = build(stack, client)
    got, headers, body = signed_post(client, url, payload, protected)
    assert (got, json.loads(body)["type"]) == (status, ca_module.ERROR_NS + ptype)
    assert (headers.get("connection") == "close") is close


@pytest.mark.parametrize("fqdn", BAD_IDENTIFIERS.values(), ids=BAD_IDENTIFIERS.keys())
def test_rejected_identifier_records_no_order(stack, fqdn):
    client = new_client(stack)
    client.ensure_account()
    orders = len(stack.ca.state.orders)
    with pytest.raises(AcmeProblem) as excinfo:
        client._post(
            client.directory()["newOrder"], {"identifiers": [{"type": "dns", "value": fqdn}]}
        )
    assert (excinfo.value.status, excinfo.value.ptype) == (400, ca_module.ERROR_NS + "rejectedIdentifier")
    assert len(stack.ca.state.orders) == orders


@pytest.mark.parametrize("payload", NON_OBJECT_ANSWERS.values(), ids=NON_OBJECT_ANSWERS.keys())
def test_non_object_challenge_answer_starts_no_probe(stack, payload):
    client = new_client(stack)
    client.ensure_account()
    fqdn = f"answer-{secrets.token_hex(4)}.camera.vendor.com"
    order, chall = place_order(client, fqdn)
    status, _, body = signed_post(client, chall["url"], payload, {})
    assert (status, json.loads(body)["type"]) == (400, ca_module.ERROR_NS + "malformed")
    assert json.loads(client._post(chall["url"], None)[2])["status"] == "pending"
    assert order_status(client, order)["status"] == "pending"
    assert answer_challenge(stack, client, chall, fqdn)["status"] == "valid"


class TestOrderStates:
    """RFC 8555 section 7.1.6: valid and invalid are final."""

    def test_reposted_challenge_keeps_valid_order(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "repost.camera.vendor.com"
        order, chall = ready_order(stack, client, fqdn)
        client._post(order["finalize"], {"csr": csr_b64(fqdn)})
        # The proof is withdrawn by now: a new probe would fail.
        assert json.loads(client._post(chall["url"], {})[2])["status"] == "valid"
        final = json.loads(client._post(order["url"], None)[2])
        assert final["status"] == "valid"
        _, _, chain = client._post(final["certificate"], None)
        verify_chain(chain.decode("ascii"), fqdn, stack.ca.state.root_cert)

    def test_csr_subject_is_not_copied_into_the_leaf(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "subject.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn)
        cn = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "not-the-device.vendor.com")])
        csr = (
            x509.CertificateSigningRequestBuilder()
            .subject_name(cn)
            .add_extension(x509.SubjectAlternativeName([x509.DNSName(fqdn)]), critical=False)
            .sign(generate_key(), hashes.SHA256())
        )
        final = json.loads(client._post(order["finalize"], {"csr": jws.b64url(csr_to_der(csr))})[2])
        assert final["status"] == "valid"
        _, _, chain = client._post(final["certificate"], None)
        leaf = verify_chain(chain.decode("ascii"), fqdn, stack.ca.state.root_cert)
        assert leaf.subject.get_attributes_for_oid(NameOID.COMMON_NAME) == []

    def test_failed_order_stays_invalid(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "refixed.camera.vendor.com"
        order, chall = place_order(client, fqdn)
        stack.zone.set_acme_txt(fqdn, "not-the-right-proof")
        assert json.loads(client._post(chall["url"], {})[2])["status"] == "invalid"
        assert answer_challenge(stack, client, chall, fqdn)["status"] == "invalid"
        assert json.loads(client._post(order["url"], None)[2])["status"] == "invalid"

    @pytest.mark.parametrize(
        "late",
        [
            pytest.param(lambda root_end: root_end + timedelta(days=1), id="past-root-end"),
            pytest.param(lambda _: datetime(9999, 12, 31, tzinfo=timezone.utc), id="year-9999"),
        ],
    )
    def test_finalize_with_no_leaf_to_issue_is_a_problem(self, stack, late):
        now = [datetime.now(timezone.utc)]
        ca = TestCa(dns_addr=stack.dns.address, clock=lambda: now[0]).start()
        try:
            client = new_client(stack, ca)
            client.ensure_account()
            fqdn = "too-late.camera.vendor.com"
            order, _ = ready_order(stack, client, fqdn)
            now[0] = late(ca.state.root_cert.not_valid_after_utc)
            issued = ca.state.issued_serials()
            with pytest.raises(AcmeProblem) as excinfo:
                client._post(order["finalize"], {"csr": csr_b64(fqdn)})
            server_internal = ca_module.ERROR_NS + "serverInternal"
            assert (excinfo.value.status, excinfo.value.ptype) == (500, server_internal)
            final = order_status(client, order)
            assert (final["status"], final["error"]["type"]) == ("invalid", server_internal)
            assert ca.state.issued_serials() == issued
        finally:
            ca.close()

    def test_post_as_get_reads_challenge_without_probing(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "peek.camera.vendor.com"
        _, chall = place_order(client, fqdn)
        # No proof is published yet: a probe now would fail the order.
        assert json.loads(client._post(chall["url"], None)[2])["status"] == "pending"
        assert answer_challenge(stack, client, chall, fqdn)["status"] == "valid"

    def test_other_account_cannot_answer_challenge(self, stack):
        owner, other = new_client(stack), new_client(stack)
        owner.ensure_account()
        other.ensure_account()
        fqdn = "foreign.camera.vendor.com"
        _, chall = place_order(owner, fqdn)
        with pytest.raises(ChallengeFailed, match="does not own"):
            other._post(chall["url"], {})
        assert answer_challenge(stack, owner, chall, fqdn)["status"] == "valid"

    def test_concurrent_finalize_issues_once(self, stack, monkeypatch):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "race.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn)
        issue = ca_module.TestCaState.issue

        def slow_issue(state, public_key, names):
            time.sleep(0.3)
            return issue(state, public_key, names)

        monkeypatch.setattr(ca_module.TestCaState, "issue", slow_issue)
        rival = new_client(stack)
        rival.account_key, rival.kid = client.account_key, client.kid
        before = len(stack.ca.state.issued_serials())
        outcomes = []

        def finalize(racer):
            try:
                outcomes.append(racer._post(order["finalize"], {"csr": csr_b64(fqdn)})[0])
            except AcmeProblem as exc:
                outcomes.append((exc.status, exc.ptype))

        racers = [threading.Thread(target=finalize, args=(c,)) for c in (client, rival)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=10)
            assert not racer.is_alive()
        assert sorted(outcomes, key=str) == [(403, ca_module.ERROR_NS + "orderNotReady"), 200]
        assert len(stack.ca.state.issued_serials()) == before + 1

    def test_csr_parse_does_not_hold_the_lock(self, stack, monkeypatch):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "held-parse.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn)
        parsing, release = threading.Event(), threading.Event()
        load = x509.load_der_x509_csr

        def held_load(der):
            parsing.set()
            release.wait(timeout=10)
            return load(der)

        monkeypatch.setattr(x509, "load_der_x509_csr", held_load)
        outcome = []
        finalizer = threading.Thread(
            target=lambda: outcome.append(client._post(order["finalize"], {"csr": csr_b64(fqdn)})[0])
        )
        finalizer.start()
        try:
            assert parsing.wait(timeout=10)
            nonce = threading.Thread(target=stack.ca.state.fresh_nonce)
            nonce.start()
            nonce.join(timeout=2)
            assert not nonce.is_alive()
        finally:
            release.set()
            finalizer.join(timeout=10)
        assert outcome == [200]

    def test_mixed_case_identifier_is_kept_in_lower_case(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "Mixed.Camera.Vendor.com"
        order, chall = place_order(client, fqdn)
        assert [i["value"] for i in order["identifiers"]] == [fqdn.lower()]
        authz = json.loads(client._post(order["authorizations"][0], None)[2])
        assert authz["identifier"] == {"type": "dns", "value": fqdn.lower()}
        assert answer_challenge(stack, client, chall, fqdn)["status"] == "valid"
        final = json.loads(client._post(order["finalize"], {"csr": csr_b64(fqdn.lower())})[2])
        assert final["status"] == "valid"
        _, _, chain = client._post(final["certificate"], None)
        verify_chain(chain.decode("ascii"), fqdn.lower(), stack.ca.state.root_cert)

    def test_leaf_names_the_identifier_not_the_csr_spelling(self, stack):
        client = new_client(stack)
        client.ensure_account()
        fqdn = "dev.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn)
        final = json.loads(client._post(order["finalize"], {"csr": csr_b64("Dev.Camera.VENDOR.com.")})[2])
        _, _, chain = client._post(final["certificate"], None)
        assert san_dns_names(split_pem_chain(chain.decode("ascii"))[0]) == [fqdn]

    @pytest.mark.parametrize(
        "bad_csr",
        [
            pytest.param(unreadable_san_csr_b64, id="san-unparseable"),
            pytest.param(lambda f: csr_b64("x" * 64 + "." + f), id="san-label-too-long"),
        ],
    )
    def test_unreadable_csr_names_leave_the_order_ready(self, stack, bad_csr):
        client = new_client(stack)
        client.ensure_account()
        fqdn = f"unreadable-{secrets.token_hex(4)}.camera.vendor.com"
        order, _ = ready_order(stack, client, fqdn)
        status, _, body = signed_post(client, order["finalize"], {"csr": bad_csr(fqdn)}, {})
        assert (status, json.loads(body)["type"]) == (400, ca_module.ERROR_NS + "badCSR")
        assert order_status(client, order)["status"] == "ready"
        assert json.loads(client._post(order["finalize"], {"csr": csr_b64(fqdn)})[2])["status"] == "valid"


class TestOwnership:
    """RFC 8555 sections 6.7 and 7.4: every URL of an order answers only to
    the account that placed it. Another account's request reads 403
    ``unauthorized`` and changes nothing: the owner reads its order and
    authz (with its challenges) as before, and no serial is issued."""

    def accounts(self, stack):
        owner, other = new_client(stack), new_client(stack)
        owner.ensure_account()
        other.ensure_account()
        return owner, other

    def refused(self, stack, owner, other, order, url, payload=None) -> None:
        def seen():
            authz = json.loads(owner._post(order["authorizations"][0], None)[2])
            return order_status(owner, order), authz, stack.ca.state.issued_serials()

        before = seen()
        status, _, body = signed_post(other, url, payload, {})
        assert status == 403, body
        assert json.loads(body)["type"] == ca_module.ERROR_NS + "unauthorized"
        assert seen() == before

    def test_order_read(self, stack):
        owner, other = self.accounts(stack)
        order, _ = place_order(owner, "own-order.camera.vendor.com")
        self.refused(stack, owner, other, order, order["url"])

    def test_authz_read(self, stack):
        owner, other = self.accounts(stack)
        order, _ = place_order(owner, "own-authz.camera.vendor.com")
        self.refused(stack, owner, other, order, order["authorizations"][0])

    def test_challenge_read_and_answer(self, stack):
        owner, other = self.accounts(stack)
        fqdn = "own-challenge.camera.vendor.com"
        order, chall = place_order(owner, fqdn)
        self.refused(stack, owner, other, order, chall["url"])
        self.refused(stack, owner, other, order, chall["url"], {})
        assert answer_challenge(stack, owner, chall, fqdn)["status"] == "valid"

    def test_finalize(self, stack):
        owner, other = self.accounts(stack)
        fqdn = "own-finalize.camera.vendor.com"
        order, _ = ready_order(stack, owner, fqdn)
        self.refused(stack, owner, other, order, order["finalize"], {"csr": csr_b64(fqdn)})
        assert json.loads(owner._post(order["finalize"], {"csr": csr_b64(fqdn)})[2])["status"] == "valid"

    def test_certificate_download(self, stack):
        owner, other = self.accounts(stack)
        fqdn = "own-cert.camera.vendor.com"
        order, _ = ready_order(stack, owner, fqdn)
        final = json.loads(owner._post(order["finalize"], {"csr": csr_b64(fqdn)})[2])
        self.refused(stack, owner, other, order, final["certificate"])

    def test_reused_order_is_finalized_by_its_account_alone(self, stack):
        owner, other = self.accounts(stack)
        fqdn = "own-renewal.camera.vendor.com"
        enroll(owner, stack, fqdn)
        new_order = {"identifiers": [{"type": "dns", "value": fqdn}]}
        _, headers, raw = owner._post(owner.directory()["newOrder"], new_order)
        order = dict(json.loads(raw), url=headers["location"])
        assert order["status"] == "ready"
        self.refused(stack, owner, other, order, order["finalize"], {"csr": csr_b64(fqdn)})
        key = generate_key()
        csr = jws.b64url(csr_to_der(build_csr(key, fqdn)))
        final = json.loads(owner._post(order["finalize"], {"csr": csr})[2])
        _, _, chain = owner._post(final["certificate"], None)
        leaf = verify_chain(chain.decode("ascii"), fqdn, stack.ca.state.root_cert)
        assert leaf.public_key() == key.public_key()


class TestStateValues:
    """``TestCaState`` driven with typed values alone: no socket, JSON or
    base64 (RFC 8555 section 7.1.6)."""

    FQDN = "typed.camera.vendor.com"

    def ready_order(self, state, kid=None, fqdn=FQDN):
        """An order for ``fqdn`` made ready by a passed DNS-01 probe, of a
        new account unless ``kid`` names one."""
        if kid is None:
            key = generate_key()
            thumbprint = jws.jwk_thumbprint(jws.public_jwk(key.public_key()))
            kid, created = state.register_account(key.public_key(), thumbprint, "https://ca.test/acme/acct")
            assert (kid, created) == (f"https://ca.test/acme/acct/{thumbprint}", True)
        order = state.create_order(kid, [fqdn])
        chall = order.authzs[0].challenges[0]
        assert state.start_challenge(chall) == jws.key_authorization(chall.token, kid.rpartition("/")[2])
        state.finish_challenge(chall, True, "")
        assert order.status == "ready"
        return order

    def test_the_proof_table_forgets_expired_proofs(self):
        now = datetime(2026, 3, 1, 12, 0, tzinfo=timezone.utc)
        state = ca_module.TestCaState(lambda: now)
        kid = self.ready_order(state).account_kid
        for i in range(4):
            self.ready_order(state, kid, f"n{i}.camera.vendor.com")
        assert len(state.proofs) == 5
        now += ca_module.AUTHZ_LIFETIME
        self.ready_order(state, kid, "last.camera.vendor.com")
        assert list(state.proofs) == [(kid, "last.camera.vendor.com")]

    def finalize_problem(self, state, order, names) -> tuple[int, str]:
        with pytest.raises(ca_module._Problem) as excinfo:
            state.finalize(order, generate_key().public_key(), frozenset(names))
        return excinfo.value.status, excinfo.value.type

    def test_matching_csr_makes_the_order_valid(self):
        state = ca_module.TestCaState(utcnow)
        order = self.ready_order(state)
        key = generate_key()
        state.finalize(order, key.public_key(), frozenset([self.FQDN]))
        assert order.status == "valid"
        assert san_dns_names(order.cert) == [self.FQDN]
        assert order.cert.public_key() == key.public_key()
        assert state.issued_serials() == {serial_hex(order.cert)}
        assert self.finalize_problem(state, order, [self.FQDN]) == (403, "orderNotReady")

    def test_mismatching_csr_makes_the_order_invalid(self):
        state = ca_module.TestCaState(utcnow)
        order = self.ready_order(state)
        assert self.finalize_problem(state, order, ["other.camera.vendor.com"]) == (400, "badCSR")
        assert (order.status, order.cert, state.issued_serials()) == ("invalid", None, set())
        assert self.finalize_problem(state, order, [self.FQDN]) == (403, "orderNotReady")


def count_replies(monkeypatch) -> list:
    """Record every reply the CA sends from now on: each carries a fresh
    nonce."""
    replies = []
    fresh_nonce = ca_module.TestCaState.fresh_nonce

    def counting(state):
        replies.append(None)
        return fresh_nonce(state)

    monkeypatch.setattr(ca_module.TestCaState, "fresh_nonce", counting)
    return replies


def record_posts(monkeypatch, client) -> list:
    """Record the kind of ACME resource (``new-order``, ``authz``,
    ``chall``, ``finalize``, ``order``, ``cert``) each signed POST of
    ``client`` goes to from now on."""
    kinds = []
    post = client._post

    def recording(url, payload, use_jwk=False):
        kinds.append(url.split("/acme/", 1)[1].split("/")[0])
        return post(url, payload, use_jwk)

    monkeypatch.setattr(client, "_post", recording)
    return kinds


def processing_once(monkeypatch, method: str) -> None:
    """From now on the CA's ``method`` (``challenge_json`` or
    ``order_json``) answers ``processing``, without a certificate URL, the
    first time it would report a resource valid."""
    real = getattr(TestCa, method)
    reported = set()

    def answer(ca, resource):
        obj = real(ca, resource)
        if obj["status"] != "valid" or resource.id in reported:
            return obj
        reported.add(resource.id)
        return {**without("certificate")(obj), "status": "processing"}

    monkeypatch.setattr(TestCa, method, answer)


class TestRoundTrips:
    """RFC 8555 section 7.5.1: the client polls only while the CA's answer
    is still pending or processing."""

    def warm_client(self, stack):
        client = new_client(stack)
        enroll(client, stack, "warm-up.camera.vendor.com")
        return client

    def test_warm_enrollment_costs_five_replies(self, stack, monkeypatch):
        client = self.warm_client(stack)
        replies, posts = count_replies(monkeypatch), record_posts(monkeypatch, client)
        enroll(client, stack, "five.camera.vendor.com")
        assert posts == ["new-order", "authz", "chall", "finalize", "cert"]
        assert len(replies) == 5

    def test_warm_renewal_costs_three_replies(self, stack, monkeypatch):
        client = self.warm_client(stack)
        enroll(client, stack, "three.camera.vendor.com")
        replies, posts = count_replies(monkeypatch), record_posts(monkeypatch, client)
        enroll(client, stack, "three.camera.vendor.com")
        assert posts == ["new-order", "finalize", "cert"]
        assert len(replies) == 3

    def test_processing_challenge_is_polled(self, stack, monkeypatch):
        client = self.warm_client(stack)
        processing_once(monkeypatch, "challenge_json")
        replies, posts = count_replies(monkeypatch), record_posts(monkeypatch, client)
        enroll(client, stack, "slow-challenge.camera.vendor.com")
        assert posts == ["new-order", "authz", "chall", "chall", "finalize", "cert"]
        assert len(replies) == 6

    def test_processing_order_is_polled(self, stack, monkeypatch):
        client = self.warm_client(stack)
        processing_once(monkeypatch, "order_json")
        posts = record_posts(monkeypatch, client)
        enroll(client, stack, "slow-order.camera.vendor.com")
        assert posts == ["new-order", "authz", "chall", "finalize", "order", "cert"]

    def test_reused_order_starts_ready_with_a_valid_authz(self, stack):
        fqdn = "reused.camera.vendor.com"
        client = new_client(stack)
        enroll(client, stack, fqdn)
        new_order = {"identifiers": [{"type": "dns", "value": fqdn}]}
        order = json.loads(client._post(client.directory()["newOrder"], new_order)[2])
        assert order["status"] == "ready"
        authz = json.loads(client._post(order["authorizations"][0], None)[2])
        assert (authz["status"], authz["challenges"]) == ("valid", [])
        # RFC 8555 section 7.1.4: a valid authz carries its expiry, in RFC 3339.
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?Z", authz["expires"])
        validated, expires = stack.ca.state.proofs[client.kid, fqdn]
        assert from_rfc3339(authz["expires"]) == expires == validated + ca_module.AUTHZ_LIFETIME
        # Another account has proved nothing: its order waits on both challenges.
        other = new_client(stack)
        other.ensure_account()
        order = json.loads(other._post(other.directory()["newOrder"], new_order)[2])
        assert order["status"] == "pending"
        authz = json.loads(other._post(order["authorizations"][0], None)[2])
        assert (authz["status"], [c["type"] for c in authz["challenges"]]) == ("pending", ["dns-01", "http-01"])
        assert "expires" not in authz

    def test_same_key_same_account(self, stack):
        first = new_client(stack)
        first.ensure_account()
        again = AcmeClient(
            stack.ca.directory_url,
            account_key=first.account_key,
            ca_bundle_pem=stack.ca.service_cert_pem,
        )
        stack.clients.append(again)
        accounts = len(stack.ca.state.accounts)
        status, headers, _ = again._post(
            again.directory()["newAccount"], {"termsOfServiceAgreed": True}, use_jwk=True
        )
        assert (status, headers["location"]) == (200, first.kid)
        assert first.kid.endswith("/" + first.jwk_thumbprint)
        assert len(stack.ca.state.accounts) == accounts

    def test_ca_files_serials_and_serves_the_order_certificate(self, stack):
        pem = enroll(new_client(stack), stack, "filed.camera.vendor.com")
        serial = serial_hex(split_pem_chain(pem)[0])
        assert isinstance(stack.ca.state.issued, set)
        assert serial in stack.ca.state.issued


def place_two_name_order(client, names: list[str]) -> tuple[dict, list[dict]]:
    """New order for both ``names``: returns the order (with its URL) and
    the DNS-01 challenge of each authz, in the order's authz order."""
    identifiers = [{"type": "dns", "value": n} for n in names]
    _, headers, raw = client._post(client.directory()["newOrder"], {"identifiers": identifiers})
    order = dict(json.loads(raw), url=headers["location"])
    challs = []
    for url in order["authorizations"]:
        authz = json.loads(client._post(url, None)[2])
        challs.append(next(c for c in authz["challenges"] if c["type"] == "dns-01"))
    return order, challs


def order_status(client, order: dict) -> dict:
    return json.loads(client._post(order["url"], None)[2])


class TestOrderTree:
    """An order owns its authzs and each authz its challenges: the order
    turns ready only when every authz is valid, and fails with any one."""

    NAMES = ["left.camera.vendor.com", "right.camera.vendor.com"]

    def test_two_name_order_waits_for_both_then_issues_for_both(self, stack):
        client = new_client(stack)
        client.ensure_account()
        order, challs = place_two_name_order(client, self.NAMES)
        assert [a["value"] for a in order["identifiers"]] == self.NAMES
        assert len(set(order["authorizations"])) == 2
        assert answer_challenge(stack, client, challs[0], self.NAMES[0])["status"] == "valid"
        assert order_status(client, order)["status"] == "pending"
        assert answer_challenge(stack, client, challs[1], self.NAMES[1])["status"] == "valid"
        assert order_status(client, order)["status"] == "ready"
        key = generate_key()
        csr = (
            x509.CertificateSigningRequestBuilder()
            .subject_name(x509.Name([]))
            .add_extension(
                x509.SubjectAlternativeName([x509.DNSName(n) for n in self.NAMES]), critical=False
            )
            .sign(key, hashes.SHA256())
        )
        final = json.loads(client._post(order["finalize"], {"csr": jws.b64url(csr_to_der(csr))})[2])
        assert final["status"] == "valid"
        _, _, chain = client._post(final["certificate"], None)
        leaf = split_pem_chain(chain.decode("ascii"))[0]
        san = leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName).value
        assert sorted(san.get_values_for_type(x509.DNSName)) == self.NAMES

    def test_failed_second_challenge_fails_the_order(self, stack):
        client = new_client(stack)
        client.ensure_account()
        names = ["up.camera.vendor.com", "down.camera.vendor.com"]
        order, challs = place_two_name_order(client, names)
        assert answer_challenge(stack, client, challs[0], names[0])["status"] == "valid"
        stack.zone.set_acme_txt(names[1], "not-the-right-proof")
        try:
            assert json.loads(client._post(challs[1]["url"], {})[2])["status"] == "invalid"
        finally:
            stack.zone.clear_acme_txt(names[1])
        failed = order_status(client, order)
        assert failed["status"] == "invalid"
        assert failed["error"]["type"] == ca_module.ERROR_NS + "unauthorized"
        assert "txt mismatch" in failed["error"]["detail"]
        # The first authz keeps its own outcome; the failed one is invalid.
        statuses = [json.loads(client._post(u, None)[2])["status"] for u in order["authorizations"]]
        assert statuses == ["valid", "invalid"]

    def test_tables_index_exactly_the_order_trees(self, stack):
        ca = TestCa(dns_addr=stack.dns.address).start()
        try:
            client = new_client(stack, ca)
            for i in range(4):
                fqdn = f"tree{i}.camera.vendor.com"
                key = generate_key()
                client.obtain_certificate(fqdn, build_csr(key, fqdn), DnsTxtFulfiller(stack.zone))
            state = ca.state
            assert (len(state.orders), len(state.authzs), len(state.challenges)) == (4, 4, 8)
            for order_id, order in state.orders.items():
                assert order.id == order_id and len(order.authzs) == 1
            for authz_id, authz in state.authzs.items():
                assert authz.id == authz_id
                assert state.orders[authz.order.id] is authz.order
                assert any(a is authz for a in authz.order.authzs)
                assert [c.type for c in authz.challenges] == ["dns-01", "http-01"]
            for chall_id, chall in state.challenges.items():
                assert chall.id == chall_id
                assert state.authzs[chall.authz.id] is chall.authz
                assert any(c is chall for c in chall.authz.challenges)
            # A resource prints without its parents and compares by identity.
            assert "order=" not in repr(authz) and "authz=" not in repr(chall)
            twin = ca_module._Challenge(chall.id, chall.authz, chall.type, chall.token)
            twin.status = chall.status
            assert twin != chall
        finally:
            ca.close()
