"""Embedded certificate authority speaking the RFC 8555 subset the
enrollment flow needs: directory, newNonce, newAccount, newOrder, authz,
challenge, finalize, and certificate download, over HTTPS.

The handler reads each request once: the JWS, the payload and the CSR.
``TestCaState`` takes only typed values (a verified key, normalized
identifiers, the key to certify and its normalized names) and parses
nothing. Its ``owned`` is the one lookup behind every order, authz,
challenge, finalize and certificate URL: an unknown id is 404, and a
resource answers only to the account that placed its order.

Challenge validation is active: a ``TestCa`` is built with both probe
targets, the DNS responder it asks for DNS-01 TXT records and the port
it fetches HTTP-01 tokens from, at the address that responder gives.
Key material lives in process memory only.
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
from collections import Counter, OrderedDict
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
from ..inventory import MAX_CERT_LIFETIME, to_rfc3339, utcnow
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
# How long a completed authorization vouches for its name to the account
# that proved it (RFC 8555 section 7.1.4 ``expires``): no longer than one
# certificate this CA issues, and inside the validation-reuse caps of the
# CA/Browser Forum Baseline Requirements (section 4.2.1) until 2029-03-15.
AUTHZ_LIFETIME = MAX_CERT_LIFETIME


@dataclass(eq=False)
class _Problem(Exception):
    """An RFC 8555 problem document the CA answers with. ``close`` marks a
    request whose body was left unread, so the connection must end."""

    status: int
    type: str
    detail: str
    close: bool = False


class QuotaExceeded(_Problem):
    """429 rateLimited: an order past a domain's weekly quota."""


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
    expires: dt.datetime | None = None  # set once valid


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
        self.root_key = ec.generate_private_key(ec.SECP256R1())
        name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "iotpki test root")])
        self.root_cert = _mint(
            name, name, self.root_key.public_key(), self.root_key, x509.random_serial_number(),
            now - MAX_CERT_LIFETIME - timedelta(minutes=1), now + timedelta(days=3650),
            (x509.BasicConstraints(ca=True, path_length=1), True),
            (_key_usage("key_cert_sign", "crl_sign"), True),
        )
        self.issued: set[str] = set()  # serials; each certificate stays on its order
        self.nonces: OrderedDict[str, bool] = OrderedDict()  # oldest first
        # (kid, fqdn) -> (validated, expires) of the account's latest proof
        # of that name, oldest first; expired proofs are forgotten.
        self.proofs: OrderedDict[tuple[str, str], tuple[dt.datetime, dt.datetime]] = OrderedDict()
        self.accounts: dict[str, PublicKeyTypes] = {}  # kid -> the account's key
        self.orders: dict[str, _Order] = {}
        self.authzs: dict[str, _Authz] = {}
        self.challenges: dict[str, _Challenge] = {}
        self._quota_week = -1  # the week that _order_counts counts
        self._order_counts: Counter[str] = Counter()  # domain -> orders that week
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

    def register_account(self, key: PublicKeyTypes, thumbprint: str, accounts_url: str) -> tuple[str, bool]:
        """Return (kid, created) for the account holding ``key``, whose JWK
        has this thumbprint, creating it under ``accounts_url`` on first
        sight. The kid ends in the thumbprint; the CA keeps the key."""
        kid = f"{accounts_url}/{thumbprint}"
        with self._lock:
            created = kid not in self.accounts
            self.accounts.setdefault(kid, key)
        return kid, created

    def create_order(self, kid: str, identifiers: list[str]) -> _Order:
        """Count the order against its domains' quota, then record it with
        one authz per identifier (distinct, normalized names). An authz for
        a name the account proved, inside that proof's lifetime, is valid
        until the proof expires and has no challenges (RFC 8555 section
        7.1.3); any other gets a DNS-01 and an HTTP-01 challenge. An order
        whose authzs are all valid starts ready."""
        now = self.clock()
        with self._lock:
            self.check_quota(identifiers)
            order = _Order(jws.b64url(secrets.token_bytes(9)), kid, identifiers)
            self.orders[order.id] = order
            for fqdn in identifiers:
                authz = _Authz(jws.b64url(secrets.token_bytes(9)), order, fqdn)
                self.authzs[authz.id] = authz
                order.authzs.append(authz)
                proof = self.proofs.get((kid, fqdn))
                # A proof from the clock's future (a clock wound back) vouches for nothing.
                if proof is not None and proof[0] <= now < proof[1]:
                    authz.status, authz.expires = "valid", proof[1]
                    continue
                for ctype in ("dns-01", "http-01"):
                    chall = _Challenge(
                        jws.b64url(secrets.token_bytes(9)), authz, ctype,
                        jws.b64url(secrets.token_bytes(24)),
                    )
                    self.challenges[chall.id] = chall
                    authz.challenges.append(chall)
            if all(a.status == "valid" for a in order.authzs):
                order.status = "ready"
        return order

    def owned(self, kind: str, ident: str, kid: str):
        """The order, authz or challenge (``kind``) that ``ident`` names,
        if the account ``kid`` placed its order: 404 ``malformed`` when
        there is none, else 403 ``unauthorized`` for any other account
        (RFC 8555 sections 6.7 and 7.4)."""
        found = {"order": self.orders, "authz": self.authzs, "challenge": self.challenges}[kind].get(ident)
        if found is None:
            raise _Problem(404, "malformed", f"no {kind} {ident}")
        order = found.authz.order if kind == "challenge" else found.order if kind == "authz" else found
        if kid != order.account_kid:
            raise _Problem(403, "unauthorized", f"{kid} does not own {kind} {ident}")
        return found

    # -- status transitions -------------------------------------------------

    def start_challenge(self, chall: _Challenge) -> str | None:
        """Move a pending challenge of a pending authz to processing and
        return the key authorization to probe for, made with its order's
        account, or None when the challenge stands as it is."""
        with self._lock:
            authz = chall.authz
            if chall.status != "pending" or authz.status != "pending":
                return None
            chall.status = "processing"
        return jws.key_authorization(chall.token, authz.order.account_kid.rpartition("/")[2])

    def finish_challenge(self, chall: _Challenge, ok: bool, detail: str) -> None:
        """Settle a processing challenge and, if it is still pending, its
        authz: the first challenge settled decides. A valid authz records
        the account's proof of its name. The order becomes ready once all
        its authzs are valid, and invalid at a failed authz."""
        now = self.clock()
        with self._lock:
            authz = chall.authz
            order = authz.order
            chall.status = "valid" if ok else "invalid"
            if authz.status != "pending":
                return
            authz.status = chall.status
            if not ok:
                order.status = "invalid"
                order.problem = {"type": ERROR_NS + "unauthorized", "detail": detail}
                log.info("challenge %s for %s failed: %s", chall.type, authz.fqdn, detail)
                return
            # The proof goes last, as the newest; the oldest go while expired.
            authz.expires = now + AUTHZ_LIFETIME
            key = (order.account_kid, authz.fqdn)
            self.proofs.pop(key, None)
            self.proofs[key] = (now, authz.expires)
            while next(iter(self.proofs.values()))[1] <= now:
                self.proofs.popitem(last=False)
            if order.status == "pending" and all(a.status == "valid" for a in order.authzs):
                order.status = "ready"

    def finalize(self, order: _Order, public_key: PublicKeyTypes, names: frozenset[str]) -> None:
        """Issue a leaf for ``public_key`` to a ready order: ready -> processing
        -> valid. ``names`` other than its identifiers make the order invalid,
        and so does a leaf that cannot be issued at the CA's clock."""
        with self._lock:
            if order.status != "ready":
                raise _Problem(403, "orderNotReady", f"order status is {order.status}")
            if names != set(order.identifiers):
                order.status = "invalid"
                raise _Problem(400, "badCSR", f"csr names {sorted(names)} != order identifiers {order.identifiers}")
            order.status = "processing"
        try:
            cert = self.issue(public_key, order.identifiers)
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

    def check_quota(self, identifiers: list[str]) -> None:
        """Count one order once against each registrable domain among its
        normalized identifiers for the current week. When any domain's
        weekly quota would be exceeded, raise and count nothing. Only the
        current week is kept: a check in any other week starts afresh."""
        week = int(self.clock().timestamp()) // (7 * 86400)
        domains = {".".join(fqdn.split(".")[-2:]) for fqdn in identifiers}
        with self._lock:
            if week != self._quota_week:
                self._quota_week, self._order_counts = week, Counter()
            full = sorted(d for d in domains if self._order_counts[d] >= WEEKLY_ORDER_QUOTA)
            if full:
                detail = f"{', '.join(full)}: one more order this week exceeds {WEEKLY_ORDER_QUOTA}"
                raise QuotaExceeded(429, "rateLimited", detail)
            self._order_counts.update(domains)

    # -- issuance -----------------------------------------------------------

    def issue(self, public_key: PublicKeyTypes, names: list[str]) -> x509.Certificate:
        """Sign a leaf for ``public_key`` that names ``names`` alone and
        record its serial. The SAN is a leaf's one name: RFC 5280 makes it
        critical under an empty subject."""
        not_before = self.clock() - timedelta(minutes=1)
        # A leaf never outlives the root it chains to.
        not_after = min(not_before + MAX_CERT_LIFETIME, self.root_cert.not_valid_after_utc)
        with self._lock:
            self._next_serial += 1
            serial = self._next_serial
        cert = _mint(
            x509.Name([]), self.root_cert.subject, public_key, self.root_key, serial, not_before, not_after,
            (x509.BasicConstraints(ca=False, path_length=None), True),
            (x509.SubjectAlternativeName([x509.DNSName(n) for n in names]), True),
            (_key_usage("digital_signature", "key_encipherment"), True),
            (x509.ExtendedKeyUsage([ExtendedKeyUsageOID.CLIENT_AUTH, ExtendedKeyUsageOID.SERVER_AUTH]), False),
            (x509.AuthorityKeyIdentifier.from_issuer_public_key(self.root_key.public_key()), False),
        )
        with self._lock:
            self.issued.add(serial_hex(cert))
        return cert

    def issued_serials(self) -> set[str]:
        with self._lock:
            return set(self.issued)


def _key_usage(*bits: str) -> x509.KeyUsage:
    """A KeyUsage with the named bits set and every other bit clear."""
    names = (
        "digital_signature", "content_commitment", "key_encipherment", "data_encipherment",
        "key_agreement", "key_cert_sign", "crl_sign", "encipher_only", "decipher_only",
    )
    return x509.KeyUsage(**{name: name in bits for name in names})


def _mint(
    subject: x509.Name, issuer: x509.Name, public_key: PublicKeyTypes, signer: ec.EllipticCurvePrivateKey,
    serial: int, not_before: dt.datetime, not_after: dt.datetime, *extensions,
) -> x509.Certificate:
    """A certificate for ``public_key`` that ``signer`` signs, with each
    (extension, critical) pair given and then a subject key identifier."""
    builder = x509.CertificateBuilder().subject_name(subject).issuer_name(issuer).public_key(public_key)
    builder = builder.serial_number(serial).not_valid_before(not_before).not_valid_after(not_after)
    for extension, critical in extensions:
        builder = builder.add_extension(extension, critical)
    ski = x509.SubjectKeyIdentifier.from_public_key(public_key)
    return builder.add_extension(ski, critical=False).sign(signer, hashes.SHA256())


def _service_identity() -> tuple[str, str]:
    """Self-signed HTTPS endpoint certificate for the CA service itself
    (distinct from the ACME issuing root). Returns (cert_pem, key_pem).
    Dated on wall time, not the CA's clock: OpenSSL checks it against
    wall time."""
    now = utcnow()
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "acme service")])
    names = [x509.DNSName("localhost"), x509.IPAddress(ipaddress.IPv4Address("127.0.0.1"))]
    cert = _mint(
        name, name, key.public_key(), key, x509.random_serial_number(),
        now - timedelta(minutes=1), now + timedelta(days=365),
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
                endpoint(self, ident, *self._read_jws(require_jwk=self.path == "/acme/new-account"))
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

    def _read_jws(self, require_jwk: bool) -> tuple[dict, bytes, PublicKeyTypes]:
        """Parse the request's JWS, verify it, and return (protected,
        payload, key). New-account requests carry their key as an embedded
        JWK; every other request's ``kid`` must name a known account. No
        header may carry both (RFC 8555 section 6.2)."""
        try:
            message = jws.parse_jws(read_body(self.rfile, self.headers))
        except jws.MalformedJws as exc:
            raise _Problem(400, "malformed", f"bad request body: {exc}") from None
        protected = message.protected
        if not all(isinstance(protected.get(m, ""), str) for m in ("nonce", "url", "kid")):
            raise _Problem(400, "malformed", "protected nonce, url and kid must be strings")
        if not self.ca.state.consume_nonce(protected.get("nonce", "")):
            raise _Problem(400, "badNonce", "nonce missing, reused, or unknown")
        expected_url = self.ca.base_url + self.path
        if protected.get("url") != expected_url:
            raise _Problem(400, "unauthorized", f"url {protected.get('url')!r} != {expected_url!r}")
        if "jwk" in protected and "kid" in protected:
            raise _Problem(400, "malformed", "protected header carries both jwk and kid")
        try:
            if require_jwk:
                if not isinstance(protected.get("jwk"), dict):
                    raise _Problem(400, "malformed", "newAccount requires an embedded jwk")
                key = jws.jwk_to_public_key(protected["jwk"])
            else:
                key = self.ca.state.accounts.get(protected.get("kid"))
                if key is None:
                    raise _Problem(400, "accountDoesNotExist", f"unknown account {protected.get('kid')!r}")
            jws.verify_jws(message, key)
        except (ValueError, KeyError, TypeError) as exc:  # a jwk of a wrong shape
            raise _Problem(400, "malformed", f"bad jwk: {exc}") from None
        except jws.UnsupportedKey as exc:
            raise _Problem(400, "badPublicKey", str(exc)) from None
        except jws.JwsError as exc:
            raise _Problem(401, "unauthorized", str(exc)) from None
        return protected, message.payload, key

    def _get_directory(self) -> None:
        self._json(200, self.ca.directory())

    def _get_new_nonce(self) -> None:
        # RFC 8555 section 7.2: 200 to HEAD, 204 to GET.
        self._reply(200 if self.command == "HEAD" else 204, b"", "application/octet-stream")

    def _get_root(self) -> None:
        self._reply(200, self.ca.root_cert_pem.encode(), "application/pem-certificate-chain")

    # -- POST endpoints, each called as (ident, protected, payload, key) --

    def _post_new_account(self, _, protected: dict, __, key: PublicKeyTypes) -> None:
        accounts_url = f"{self.ca.base_url}/acme/acct"
        thumbprint = jws.jwk_thumbprint(protected["jwk"])
        kid, created = self.ca.state.register_account(key, thumbprint, accounts_url)
        self._json(201 if created else 200, {"status": "valid", "orders": ""}, location=kid)

    def _post_new_order(self, _, protected: dict, payload: bytes, __) -> None:
        ca = self.ca
        try:
            idents = jws.json_object(payload)["identifiers"]
            if not isinstance(idents, list) or not idents or not all(
                isinstance(i, dict) and isinstance(i.get("value"), str) for i in idents
            ):
                raise ValueError("identifiers must be objects with string values, in a non-empty list")
        except (ValueError, KeyError) as exc:
            raise _Problem(400, "malformed", f"bad order payload: {exc}") from None
        if any(i.get("type") != "dns" for i in idents):  # refused whole, never narrowed
            raise _Problem(400, "unsupportedIdentifier", "this CA certifies dns identifiers only")
        try:
            identifiers = list(dict.fromkeys(normalize_name(i["value"]) for i in idents))
        except InvalidRecord as exc:
            raise _Problem(400, "rejectedIdentifier", str(exc)) from None
        order = ca.state.create_order(protected["kid"], identifiers)
        self._json(201, ca.order_json(order), location=f"{ca.base_url}/acme/order/{order.id}")

    def _post_order(self, order_id: str, protected: dict, *_) -> None:
        self._json(200, self.ca.order_json(self.ca.state.owned("order", order_id, protected["kid"])))

    def _post_authz(self, authz_id: str, protected: dict, *_) -> None:
        self._json(200, self.ca.authz_json(self.ca.state.owned("authz", authz_id, protected["kid"])))

    def _post_challenge(self, chall_id: str, protected: dict, payload: bytes, _) -> None:
        chall = self.ca.state.owned("challenge", chall_id, protected["kid"])
        if payload:  # a POST-as-GET only reads the challenge (RFC 8555 section 7.5.1)
            try:
                jws.json_object(payload)  # the answer is an object, "{}" in RFC 8555
            except ValueError as exc:
                raise _Problem(400, "malformed", f"bad challenge payload: {exc}") from None
            self.ca.validate_challenge(chall)
        self._json(200, self.ca.challenge_json(chall))

    def _post_finalize(self, order_id: str, protected: dict, payload: bytes, _) -> None:
        order = self.ca.state.owned("order", order_id, protected["kid"])
        try:
            csr = x509.load_der_x509_csr(jws.b64url_decode(jws.json_object(payload)["csr"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise _Problem(400, "badCSR", f"unparseable csr: {exc}") from None
        if not csr.is_signature_valid:
            raise _Problem(400, "badCSR", "csr signature invalid")
        try:
            names = frozenset(normalize_name(n) for n in san_dns_names(csr))
        except (ValueError, InvalidRecord) as exc:
            raise _Problem(400, "badCSR", f"unreadable csr names: {exc}") from None
        self.ca.state.finalize(order, csr.public_key(), names)
        self._json(200, self.ca.order_json(order))

    def _post_cert(self, order_id: str, protected: dict, *_) -> None:
        ca = self.ca
        order = ca.state.owned("order", order_id, protected["kid"])
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


class TestCa(BackgroundServer):
    """Owns CA state plus the HTTPS front end."""

    __test__ = False  # "Test" here means embedded test CA, not a test suite

    def __init__(
        self,
        bind_addr: tuple[str, int] = ("127.0.0.1", 0),
        *,
        dns_addr: tuple[str, int],
        http01_port: int,
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
        obj = {
            "identifier": {"type": "dns", "value": authz.fqdn},
            "status": authz.status,
            "challenges": [self.challenge_json(c) for c in authz.challenges],
        }
        if authz.expires is not None:  # required once valid (RFC 8555 section 7.1.4)
            obj["expires"] = to_rfc3339(authz.expires)
        return obj

    def challenge_json(self, chall: _Challenge) -> dict:
        return {
            "type": chall.type,
            "url": f"{self.base_url}/acme/chall/{chall.id}",
            "token": chall.token,
            "status": chall.status,
        }

    # -- validation ---------------------------------------------------------

    def validate_challenge(self, chall: _Challenge) -> None:
        """Probe a pending challenge once; any other challenge stands."""
        key_auth = self.state.start_challenge(chall)
        if key_auth is not None:
            self.state.finish_challenge(chall, *self._probe(chall, key_auth))

    def _probe(self, chall: _Challenge, expected_key_auth: str) -> tuple[bool, str]:
        fqdn = chall.authz.fqdn
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
        # http-01, the only other type create_order makes.
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
