"""Embedded certificate authority speaking the RFC 8555 subset the
enrollment flow needs: directory, newNonce, newAccount, newOrder, authz,
challenge, finalize, and certificate download, over HTTPS.

Challenge validation is active: the CA probes the configured DNS
responder (DNS-01) or fetches the token from the device-facing HTTP
endpoint it resolves via that responder (HTTP-01). It never trusts the
client's word that a proof is in place.

All key material (ACME root, HTTPS service key) lives in process memory
for the lifetime of the instance; nothing is written to disk.
"""

from __future__ import annotations

import datetime as dt
import ipaddress
import json
import logging
import secrets
import socket
import ssl
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Callable

from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.types import PublicKeyTypes
from cryptography.x509.oid import ExtendedKeyUsageOID, NameOID

from ..certs import cert_to_pem, key_to_pem, load_cert_chain_in_memory, san_dns_names, serial_hex
from ..dnsauth.server import ResolutionFailure, resolve, resolve_address
from ..dnsauth.zone import ACME_LABEL, InvalidRecord, Rcode, RType, normalize_name
from ..errors import IotPkiError
from ..inventory import MAX_CERT_LIFETIME, utcnow
from ..serving import BackgroundServer, BadHead, ConnectionServer, HttpHandler, read_answer, read_body
from . import jws
from .challenges import WELL_KNOWN_PREFIX

log = logging.getLogger(__name__)

ERROR_NS = "urn:ietf:params:acme:error:"
# Outstanding nonces the CA remembers. Past this the oldest is forgotten;
# its holder gets badNonce and retries with the fresh nonce that reply
# carries (RFC 8555 section 6.5).
MAX_NONCES = 4096
# Orders per registrable domain per week; the CA's policy, not the client's.
WEEKLY_ORDER_QUOTA = 30000


class QuotaExceeded(IotPkiError):
    pass


@dataclass(eq=False)
class _Problem(Exception):
    """An RFC 8555 problem document the CA answers with. ``close`` marks a
    request whose body was left unread, so the connection must end."""

    status: int
    type: str
    detail: str
    close: bool = False


# An order owns its authzs and an authz its challenges (RFC 8555 section 7.1).
# Identity equality and repr-less back-references keep both from walking the tree.
@dataclass(eq=False)
class _Order:
    id: str
    account_kid: str
    identifiers: list[str]
    authzs: list[_Authz] = field(default_factory=list)
    status: str = "pending"
    cert: x509.Certificate | None = None
    problem: dict | None = None


@dataclass(eq=False)
class _Authz:
    id: str
    order: _Order = field(repr=False)
    fqdn: str
    challenges: list[_Challenge] = field(default_factory=list)
    status: str = "pending"


@dataclass(eq=False)
class _Challenge:
    id: str
    authz: _Authz = field(repr=False)
    type: str
    token: str
    status: str = "pending"


@dataclass
class TestCaState:
    """Issuer state: root material, issued serials, protocol bookkeeping.

    Every status change happens here, under the lock, and only along RFC
    8555 section 7.1.6: a challenge goes pending -> processing -> valid or
    invalid; an order goes pending -> ready -> processing -> valid, or to
    invalid. Valid and invalid are final.
    """

    __test__ = False  # "Test" here means embedded test CA, not a test suite

    clock: Callable[[], dt.datetime]
    root_key: ec.EllipticCurvePrivateKey = field(init=False)
    root_cert: x509.Certificate = field(init=False)

    def __post_init__(self) -> None:
        now = self.clock()
        # Path validation needs an instant at which both the leaf and the
        # root are valid. Dating the root back by one leaf lifetime keeps
        # that true for leaves issued with a clock wound back (as tests do
        # to make expired peers): up to one lifetime back, the whole leaf
        # lies inside the root's window.
        self.root_key, self.root_cert = _self_signed(
            "iotpki test root",
            now - MAX_CERT_LIFETIME - timedelta(minutes=1),
            now + timedelta(days=3650),
            (x509.BasicConstraints(ca=True, path_length=1), True),
            (
                x509.KeyUsage(
                    digital_signature=False, content_commitment=False, key_encipherment=False,
                    data_encipherment=False, key_agreement=False, key_cert_sign=True,
                    crl_sign=True, encipher_only=False, decipher_only=False,
                ),
                True,
            ),
        )
        self.issued: set[str] = set()  # serials; each certificate stays on its order
        self.nonces: OrderedDict[str, bool] = OrderedDict()  # oldest first
        self.accounts: dict[str, PublicKeyTypes] = {}  # kid -> the account's key
        self.orders: dict[str, _Order] = {}
        self.authzs: dict[str, _Authz] = {}
        self.challenges: dict[str, _Challenge] = {}
        self._order_counts: dict[tuple[str, int], int] = {}
        self._next_serial = secrets.randbits(40) << 24
        self._lock = threading.RLock()

    # -- nonces -----------------------------------------------------------

    def fresh_nonce(self) -> str:
        nonce = jws.b64url(secrets.token_bytes(16))
        with self._lock:
            self.nonces[nonce] = True
            if len(self.nonces) > MAX_NONCES:
                self.nonces.popitem(last=False)
        return nonce

    def consume_nonce(self, nonce: str) -> bool:
        with self._lock:
            return self.nonces.pop(nonce, False)

    # -- accounts and orders ------------------------------------------------

    def register_account(self, jwk_obj: dict, accounts_url: str) -> tuple[str, bool]:
        """Return (kid, created) for the account holding this key,
        creating it under ``accounts_url`` on first sight. The kid ends
        in the key's thumbprint, and the CA keeps the key itself."""
        kid = f"{accounts_url}/{jws.jwk_thumbprint(jwk_obj)}"
        key = jws.jwk_to_public_key(jwk_obj)
        with self._lock:
            created = kid not in self.accounts
            self.accounts.setdefault(kid, key)
        return kid, created

    def create_order(self, kid: str, identifiers: list[str]) -> _Order:
        """Count the order against each identifier's quota, then record it
        with one authz per identifier and a DNS-01 and an HTTP-01
        challenge per authz."""
        with self._lock:
            for fqdn in identifiers:
                self.check_quota(fqdn)
            order = _Order(jws.b64url(secrets.token_bytes(9)), kid, identifiers)
            self.orders[order.id] = order
            for fqdn in identifiers:
                authz = _Authz(jws.b64url(secrets.token_bytes(9)), order, fqdn)
                self.authzs[authz.id] = authz
                order.authzs.append(authz)
                for ctype in ("dns-01", "http-01"):
                    chall = _Challenge(
                        jws.b64url(secrets.token_bytes(9)), authz, ctype,
                        jws.b64url(secrets.token_bytes(24)),
                    )
                    self.challenges[chall.id] = chall
                    authz.challenges.append(chall)
        return order

    # -- status transitions -------------------------------------------------

    def start_challenge(self, chall: _Challenge, kid: str) -> str | None:
        """Move a pending challenge of a pending authz to processing and
        return the key authorization to probe for, or None when the
        challenge stands as it is. Only the order's account may ask."""
        with self._lock:
            authz = chall.authz
            if kid != authz.order.account_kid:
                raise _Problem(403, "unauthorized", f"{kid} does not own challenge {chall.id}")
            if chall.status != "pending" or authz.status != "pending":
                return None
            chall.status = "processing"
        return jws.key_authorization(chall.token, kid.rpartition("/")[2])

    def finish_challenge(self, chall: _Challenge, ok: bool, detail: str) -> None:
        """Settle a processing challenge and its authz. The order becomes
        ready once all its authzs are valid, and invalid at a failure."""
        with self._lock:
            authz = chall.authz
            order = authz.order
            if not ok:
                chall.status = authz.status = order.status = "invalid"
                order.problem = {"type": ERROR_NS + "unauthorized", "detail": detail}
                log.info("challenge %s for %s failed: %s", chall.type, authz.fqdn, detail)
                return
            chall.status = authz.status = "valid"
            if order.status == "pending" and all(a.status == "valid" for a in order.authzs):
                order.status = "ready"

    def finalize(self, order: _Order, payload: bytes) -> None:
        """Issue for a ready order: ready -> processing -> valid. A CSR
        naming anything but the order's identifiers makes it invalid, and
        so does a leaf that cannot be issued at the CA's clock."""
        with self._lock:
            if order.status != "ready":
                raise _Problem(403, "orderNotReady", f"order status is {order.status}")
            try:
                csr = x509.load_der_x509_csr(jws.b64url_decode(_json_object(payload)["csr"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise _Problem(400, "badCSR", f"unparseable csr: {exc}") from None
            if not csr.is_signature_valid:
                raise _Problem(400, "badCSR", "csr signature invalid")
            names = san_dns_names(csr)
            if set(names) != set(order.identifiers):
                order.status = "invalid"
                raise _Problem(
                    400, "badCSR", f"csr names {names} != order identifiers {order.identifiers}"
                )
            order.status = "processing"
        try:
            _, cert = self.issue(csr)
        except (ValueError, OverflowError) as exc:
            # No leaf fits between the CA clock and the root's end.
            with self._lock:
                order.status = "invalid"
                order.problem = {"type": ERROR_NS + "serverInternal", "detail": f"cannot issue: {exc}"}
            raise _Problem(500, "serverInternal", order.problem["detail"]) from None
        with self._lock:
            order.cert = cert
            order.status = "valid"

    # -- quota ------------------------------------------------------------

    def check_quota(self, fqdn: str) -> None:
        """Count this order against the identifier's registrable domain for
        the current week; raise once the weekly quota would be exceeded."""
        domain = ".".join(fqdn.rstrip(".").split(".")[-2:])
        week = int(self.clock().timestamp()) // (7 * 86400)
        with self._lock:
            count = self._order_counts.get((domain, week), 0) + 1
            if count > WEEKLY_ORDER_QUOTA:
                raise QuotaExceeded(f"{domain}: {count} orders this week exceeds {WEEKLY_ORDER_QUOTA}")
            self._order_counts[(domain, week)] = count

    # -- issuance -----------------------------------------------------------

    def issue(self, csr: x509.CertificateSigningRequest) -> tuple[str, x509.Certificate]:
        not_before = self.clock() - timedelta(minutes=1)
        # A leaf never outlives the root it chains to.
        not_after = min(not_before + MAX_CERT_LIFETIME, self.root_cert.not_valid_after_utc)
        with self._lock:
            self._next_serial += 1
            serial_int = self._next_serial
        names = san_dns_names(csr)
        builder = (
            x509.CertificateBuilder()
            .subject_name(csr.subject)
            .issuer_name(self.root_cert.subject)
            .public_key(csr.public_key())
            .serial_number(serial_int)
            .not_valid_before(not_before)
            .not_valid_after(not_after)
            .add_extension(x509.BasicConstraints(ca=False, path_length=None), critical=True)
            .add_extension(x509.SubjectAlternativeName([x509.DNSName(n) for n in names]), critical=False)
            .add_extension(
                x509.KeyUsage(
                    digital_signature=True, content_commitment=False, key_encipherment=True,
                    data_encipherment=False, key_agreement=False, key_cert_sign=False,
                    crl_sign=False, encipher_only=False, decipher_only=False,
                ),
                critical=True,
            )
            .add_extension(
                x509.ExtendedKeyUsage(
                    [ExtendedKeyUsageOID.CLIENT_AUTH, ExtendedKeyUsageOID.SERVER_AUTH]
                ),
                critical=False,
            )
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(csr.public_key()), critical=False)
            .add_extension(
                x509.AuthorityKeyIdentifier.from_issuer_public_key(self.root_key.public_key()),
                critical=False,
            )
        )
        cert = builder.sign(self.root_key, hashes.SHA256())
        serial = serial_hex(cert)
        with self._lock:
            self.issued.add(serial)
        return serial, cert

    def issued_serials(self) -> set[str]:
        with self._lock:
            return set(self.issued)


def _self_signed(
    common_name: str, not_before: dt.datetime, not_after: dt.datetime, *extensions
) -> tuple[ec.EllipticCurvePrivateKey, x509.Certificate]:
    """A fresh P-256 key and a certificate it signs for itself, with each
    (extension, critical) pair given and then a subject key identifier."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, common_name)])
    builder = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(not_before)
        .not_valid_after(not_after)
    )
    for extension, critical in extensions:
        builder = builder.add_extension(extension, critical)
    ski = x509.SubjectKeyIdentifier.from_public_key(key.public_key())
    return key, builder.add_extension(ski, critical=False).sign(key, hashes.SHA256())


def _service_identity() -> tuple[str, str]:
    """Self-signed HTTPS endpoint certificate for the CA service itself
    (distinct from the ACME issuing root). Returns (cert_pem, key_pem).
    Dated on wall time, not the CA's clock: OpenSSL checks it against
    wall time."""
    now = utcnow()
    names = [x509.DNSName("localhost"), x509.IPAddress(ipaddress.IPv4Address("127.0.0.1"))]
    key, cert = _self_signed(
        "acme service", now - timedelta(minutes=1), now + timedelta(days=365),
        (x509.SubjectAlternativeName(names), False),
    )
    return cert_to_pem(cert), key_to_pem(key)


class _AcmeHandler(HttpHandler):
    """Every answer, a refusal included, goes through ``_reply`` and so
    carries a fresh nonce; every error is an RFC 8555 problem document."""

    log = log

    @property
    def ca(self) -> "TestCa":
        return self.server.ca

    def answer(self) -> None:
        routes = self._ROUTES.get(self.command)
        head, _, ident = self.path.rpartition("/")
        try:
            if routes is None:
                raise _Problem(405, "malformed", f"method {self.command[:40]!r} not allowed", close=True)
            endpoint = routes.get(self.path) or routes.get(head + "/")
            if endpoint is None:
                raise _Problem(404, "malformed", f"no such resource {self.path}", close=True)
            if self.command == "POST":
                protected, payload = self._read_jws(require_jwk=self.path == "/acme/new-account")
                endpoint(self, ident, protected, payload)
            else:
                endpoint(self)
        except _Problem as problem:
            self._problem(problem)

    def refuse(self, exc: BadHead) -> None:
        self._problem(_Problem(exc.status, "malformed", str(exc)))

    def _problem(self, problem: _Problem) -> None:
        if problem.close:
            self.close_connection = True
        body = {"type": ERROR_NS + problem.type, "detail": problem.detail, "status": problem.status}
        self._reply(problem.status, json.dumps(body).encode(), "application/problem+json")

    def _reply(self, status: int, body: bytes, ctype: str, location: str | None = None) -> None:
        nonce = self.ca.state.fresh_nonce()
        fields = {"Content-Type": ctype, "Replay-Nonce": nonce, "Cache-Control": "no-store"}
        if location:
            fields["Location"] = location
        if status == 405:
            fields["Allow"] = ", ".join(self._ROUTES)
        self.reply(status, body, fields)

    def _json(self, status: int, obj: dict, location: str | None = None) -> None:
        self._reply(status, json.dumps(obj).encode(), "application/json", location)

    def _read_jws(self, require_jwk: bool) -> tuple[dict, bytes]:
        """Verify the enclosing JWS and return (protected, payload).

        New-account requests carry their key as an embedded JWK; every
        other request's ``kid`` must name a known account.
        """
        raw = read_body(self.rfile, self.headers)
        try:
            envelope = _json_object(raw)
            protected = _json_object(jws.b64url_decode(envelope["protected"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise _Problem(400, "malformed", f"bad request body: {exc}") from None
        if not all(isinstance(protected.get(m, ""), str) for m in ("nonce", "url", "kid")):
            raise _Problem(400, "malformed", "protected nonce, url and kid must be strings")
        if not self.ca.state.consume_nonce(protected.get("nonce", "")):
            raise _Problem(400, "badNonce", "nonce missing, reused, or unknown")
        expected_url = self.ca.base_url + self.path
        if protected.get("url") != expected_url:
            raise _Problem(400, "unauthorized", f"url {protected.get('url')!r} != {expected_url!r}")
        if require_jwk:
            jwk_obj = protected.get("jwk")
            if not isinstance(jwk_obj, dict):
                raise _Problem(400, "malformed", "newAccount requires an embedded jwk")
        else:
            kid = protected.get("kid")
            key = self.ca.state.accounts.get(kid)
            if key is None:
                raise _Problem(400, "accountDoesNotExist", f"unknown account {kid!r}")
        try:
            if require_jwk:
                key = jws.jwk_to_public_key(jwk_obj)
            _, payload = jws.verify_jws(envelope, key)
        except (jws.MalformedJws, ValueError, KeyError, TypeError) as exc:
            # A malformed envelope, or a jwk of a wrong shape.
            raise _Problem(400, "malformed", f"bad jws: {exc}") from None
        except jws.JwsError as exc:
            raise _Problem(401, "unauthorized", str(exc)) from None
        return protected, payload

    def _get_directory(self) -> None:
        self._json(200, self.ca.directory())

    def _get_new_nonce(self) -> None:
        # RFC 8555 section 7.2: 200 to HEAD, 204 to GET.
        self._reply(200 if self.command == "HEAD" else 204, b"", "application/octet-stream")

    def _get_root(self) -> None:
        self._reply(200, self.ca.root_cert_pem.encode(), "application/pem-certificate-chain")

    # -- POST endpoints, each called as (ident, protected, payload) -------

    def _post_new_account(self, _, protected: dict, __) -> None:
        accounts_url = f"{self.ca.base_url}/acme/acct"
        kid, created = self.ca.state.register_account(protected["jwk"], accounts_url)
        self._json(201 if created else 200, {"status": "valid", "orders": ""}, location=kid)

    def _post_new_order(self, _, protected: dict, payload: bytes) -> None:
        ca = self.ca
        try:
            idents = _json_object(payload)["identifiers"]
            if not isinstance(idents, list) or not all(
                isinstance(i, dict) and isinstance(i.get("value"), str) for i in idents
            ):
                raise ValueError("identifiers must be objects with string values, in a list")
        except (ValueError, KeyError) as exc:
            raise _Problem(400, "malformed", f"bad order payload: {exc}") from None
        identifiers = [i["value"] for i in idents if i.get("type") == "dns"]
        if not identifiers:
            raise _Problem(400, "malformed", "order carries no dns identifiers")
        for fqdn in identifiers:
            try:
                normalize_name(fqdn)
            except InvalidRecord as exc:
                raise _Problem(400, "rejectedIdentifier", str(exc)) from None
        try:
            order = ca.state.create_order(protected["kid"], identifiers)
        except QuotaExceeded as exc:
            raise _Problem(429, "rateLimited", str(exc)) from None
        self._json(201, ca.order_json(order), location=f"{ca.base_url}/acme/order/{order.id}")

    def _post_order(self, order_id: str, *_) -> None:
        self._json(200, self.ca.order_json(_find(self.ca.state.orders, order_id, "order")))

    def _post_authz(self, authz_id: str, *_) -> None:
        self._json(200, self.ca.authz_json(_find(self.ca.state.authzs, authz_id, "authz")))

    def _post_challenge(self, chall_id: str, protected: dict, payload: bytes) -> None:
        chall = _find(self.ca.state.challenges, chall_id, "challenge")
        if payload:  # a POST-as-GET only reads the challenge (RFC 8555 section 7.5.1)
            self.ca.validate_challenge(chall, protected["kid"])
        self._json(200, self.ca.challenge_json(chall))

    def _post_finalize(self, order_id: str, _, payload: bytes) -> None:
        order = _find(self.ca.state.orders, order_id, "order")
        self.ca.state.finalize(order, payload)
        self._json(200, self.ca.order_json(order))

    def _post_cert(self, order_id: str, *_) -> None:
        ca = self.ca
        order = _find(ca.state.orders, order_id, "order")
        if order.status != "valid":
            raise _Problem(404, "malformed", "certificate not ready")
        chain = cert_to_pem(order.cert) + ca.root_cert_pem
        self._reply(200, chain.encode(), "application/pem-certificate-chain")

    # Exact paths; a key ending in "/" takes the resource id that follows it.
    _POST_ROUTES = {
        "/acme/new-account": _post_new_account,
        "/acme/new-order": _post_new_order,
        "/acme/order/": _post_order,
        "/acme/authz/": _post_authz,
        "/acme/chall/": _post_challenge,
        "/acme/finalize/": _post_finalize,
        "/acme/cert/": _post_cert,
    }
    _GET_ROUTES = {"/directory": _get_directory, "/acme/new-nonce": _get_new_nonce, "/root": _get_root}
    # HEAD answers GET's head alone.
    _ROUTES = {"GET": _GET_ROUTES, "HEAD": _GET_ROUTES, "POST": _POST_ROUTES}


def _json_object(data) -> dict:
    """Parse JSON that must be an object; any other value, or nesting too
    deep to parse, is a ValueError."""
    try:
        obj = json.loads(data)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _find(table: dict, ident: str, what: str):
    found = table.get(ident)
    if found is None:
        raise _Problem(404, "malformed", f"no {what} {ident}")
    return found


class TestCa(BackgroundServer):
    """Owns CA state plus the HTTPS front end."""

    __test__ = False  # "Test" here means embedded test CA, not a test suite

    def __init__(
        self,
        bind_addr: tuple[str, int] = ("127.0.0.1", 0),
        dns_addr: tuple[str, int] | None = None,
        http01_port: int | None = None,
        clock: Callable[[], dt.datetime] = utcnow,
    ) -> None:
        self.dns_addr = dns_addr
        self.http01_port = http01_port
        self.state = TestCaState(clock)
        self.service_cert_pem, service_key_pem = _service_identity()
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        load_cert_chain_in_memory(ctx, self.service_cert_pem, service_key_pem)
        super().__init__("acme-ca", "ca", ConnectionServer, bind_addr, _AcmeHandler, ctx)
        self._server.ca = self
        host, port = self.address
        self.base_url = f"https://{host}:{port}"

    # -- protocol objects --------------------------------------------------

    @property
    def directory_url(self) -> str:
        return f"{self.base_url}/directory"

    @property
    def root_cert_pem(self) -> str:
        return cert_to_pem(self.state.root_cert)

    def directory(self) -> dict:
        return {
            "newNonce": f"{self.base_url}/acme/new-nonce",
            "newAccount": f"{self.base_url}/acme/new-account",
            "newOrder": f"{self.base_url}/acme/new-order",
            "meta": {"caRoot": f"{self.base_url}/root"},
        }

    def order_json(self, order: _Order) -> dict:
        obj = {
            "status": order.status,
            "identifiers": [{"type": "dns", "value": v} for v in order.identifiers],
            "authorizations": [f"{self.base_url}/acme/authz/{a.id}" for a in order.authzs],
            "finalize": f"{self.base_url}/acme/finalize/{order.id}",
        }
        if order.status == "valid":
            obj["certificate"] = f"{self.base_url}/acme/cert/{order.id}"
        if order.problem:
            obj["error"] = order.problem
        return obj

    def authz_json(self, authz: _Authz) -> dict:
        return {
            "identifier": {"type": "dns", "value": authz.fqdn},
            "status": authz.status,
            "challenges": [self.challenge_json(c) for c in authz.challenges],
        }

    def challenge_json(self, chall: _Challenge) -> dict:
        return {
            "type": chall.type,
            "url": f"{self.base_url}/acme/chall/{chall.id}",
            "token": chall.token,
            "status": chall.status,
        }

    # -- validation ---------------------------------------------------------

    def validate_challenge(self, chall: _Challenge, kid: str) -> None:
        """Probe a pending challenge once; any other challenge stands."""
        key_auth = self.state.start_challenge(chall, kid)
        if key_auth is not None:
            self.state.finish_challenge(chall, *self._probe(chall, chall.authz.fqdn, key_auth))

    def _probe(self, chall: _Challenge, fqdn: str, expected_key_auth: str) -> tuple[bool, str]:
        if self.dns_addr is None:
            return False, "ca has no dns responder configured"
        if chall.type == "dns-01":
            expected_txt = jws.dns01_txt_value(expected_key_auth)
            try:
                rcode, answers = resolve(f"{ACME_LABEL}.{fqdn}", RType.TXT, self.dns_addr)
            except ResolutionFailure as exc:
                return False, f"dns probe failed: {exc}"
            if rcode is not Rcode.NOERROR:
                return False, f"dns probe rcode {rcode.name}"
            values = [r.value for r in answers if r.rtype is RType.TXT]
            if expected_txt in values:
                return True, ""
            return False, f"txt mismatch: {values} != {expected_txt}"
        if chall.type == "http-01":
            if self.http01_port is None:
                return False, "ca has no http-01 port configured"
            try:
                ip = resolve_address(fqdn, self.dns_addr)
            except ResolutionFailure as exc:
                return False, f"address resolution failed: {exc}"
            # A direct connection to the resolved address: the probe must
            # never go through a proxy named in the environment. Host names
            # the identifier (RFC 8555 section 8.3).
            request = f"GET {WELL_KNOWN_PREFIX}{chall.token} HTTP/1.1\r\nHost: {fqdn}\r\nConnection: close\r\n\r\n"
            try:
                with socket.create_connection((ip, self.http01_port), timeout=3) as sock:
                    sock.sendall(request.encode("ascii"))
                    with sock.makefile("rb") as rfile:
                        _, status, _, body = read_answer(rfile, "GET")
            except (OSError, BadHead) as exc:
                return False, f"http probe failed: {exc}"
            if status != 200:
                return False, f"http probe returned {status}"
            if body == expected_key_auth.encode():
                return True, ""
            return False, "key authorization mismatch"
        return False, f"unsupported challenge type {chall.type}"
