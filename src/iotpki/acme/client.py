"""Vendor-side ACME client: drives account creation, order placement,
challenge fulfillment, finalization, and certificate download against an
RFC 8555 directory endpoint.
"""

from __future__ import annotations

import json
import logging
import re
import select
import socket
import ssl
import time
import urllib.parse
from typing import Any, Callable, TypeVar

from ..certs import csr_to_der, generate_key, san_dns_names, split_pem_chain
from ..errors import IotPkiError
from ..serving import BadHead, read_answer
from . import jws

log = logging.getLogger(__name__)

POLL_INTERVAL = 0.05
MAX_POLLS = 60
# Seconds the client waits to connect to the CA and for each read.
REQUEST_TIMEOUT = 10.0
# What may not appear in a request target or Host: controls, spaces and
# anything outside ASCII.
_NOT_URL_TEXT = re.compile(r"[^\x21-\x7e]")


class AcmeProblem(IotPkiError):
    """Problem document the client has no more specific mapping for."""

    def __init__(self, ptype: str, detail: str, status: int) -> None:
        super().__init__(f"{ptype}: {detail}")
        self.ptype = ptype
        self.detail = detail
        self.status = status


class ChallengeFailed(IotPkiError):
    pass


class CsrMismatch(IotPkiError):
    pass


class RateLimited(IotPkiError):
    pass


class CaUnreachable(IotPkiError):
    pass


class MalformedAnswer(IotPkiError):
    """The CA answered with a body that is not JSON, or JSON of the wrong
    shape: a missing member, or a member of the wrong type."""


# What reading a CA answer of the wrong shape raises: a missing member, an
# empty list, a wrong type, a body that is not UTF-8 JSON, or JSON nested
# too deep to parse.
_MISSHAPEN = (KeyError, IndexError, TypeError, AttributeError, ValueError, RecursionError)

T = TypeVar("T")


def _read(raw: bytes, read: Callable[[Any], T]) -> T:
    """``read`` applied to the JSON of a CA answer. The one place the
    client reads CA data: an answer of the wrong shape is MalformedAnswer,
    while errors raised by the client's own code pass through."""
    try:
        return read(json.loads(raw))
    except _MISSHAPEN as exc:
        raise MalformedAnswer(f"ca answer: {type(exc).__name__}: {exc}") from exc


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _directory(obj) -> dict:
    for name in ("newNonce", "newAccount", "newOrder"):
        _text(obj[name])
    return obj


def _order(order) -> tuple[str, str, str]:
    """(status, first authorization URL, finalize URL) of an order object."""
    return _text(order["status"]), _text(order["authorizations"][0]), _text(order["finalize"])


def _challenge(authz, wire_type: str) -> tuple[str, str] | None:
    """(token, URL) of the authorization's challenge of ``wire_type``. An
    empty token is as misshapen as a missing one."""
    chall = next((c for c in authz["challenges"] if c["type"] == wire_type), None)
    if chall is not None and not _text(chall["token"]):
        raise ValueError("challenge token is empty")
    return None if chall is None else (chall["token"], _text(chall["url"]))


def _state(obj) -> tuple[str, str | None]:
    """(status, certificate URL or None) of an authorization or order."""
    cert = obj.get("certificate")
    return _text(obj["status"]), None if cert is None else _text(cert)


class AcmeClient:
    """One client per account key. Thread-safe for independent orders as
    long as each thread uses its own client (nonce pool and connection are
    per-client).

    Requests share one keep-alive HTTPS connection, opened on first use
    and reopened when the CA has closed it or a URL names another origin.
    """

    def __init__(
        self,
        directory_url: str,
        account_key=None,
        ca_bundle_pem: str | None = None,
    ) -> None:
        self.directory_url = directory_url
        self.account_key = account_key if account_key is not None else generate_key()
        self.kid: str | None = None
        self.jwk_thumbprint = jws.jwk_thumbprint(jws.public_jwk(self.account_key.public_key()))
        if ca_bundle_pem is not None:
            self._ctx = ssl.create_default_context(cadata=ca_bundle_pem)
            self._ctx.check_hostname = False
        else:
            self._ctx = ssl.create_default_context()
        self._directory: dict | None = None
        self._nonce: str | None = None
        self._sock: ssl.SSLSocket | None = None
        self._rfile = None
        self._origin: str | None = None

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        """Close the connection to the CA; the next request reopens it."""
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "AcmeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _connect(self, parts: urllib.parse.SplitResult) -> None:
        raw = socket.create_connection((parts.hostname, parts.port or 443), REQUEST_TIMEOUT)
        try:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = self._ctx.wrap_socket(raw, server_hostname=parts.hostname)
        except BaseException:
            raw.close()
            raise
        self._rfile = self._sock.makefile("rb")

    def _http(self, method: str, url: str, body: bytes | None = None):
        """One request and its answer as (status, headers, payload), over
        the kept connection. The head and body go out in one write, and
        the answer is read as ``read_answer`` frames it."""
        parts = urllib.parse.urlsplit(url)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if _NOT_URL_TEXT.search(target + parts.netloc):
            raise CaUnreachable(f"{method} {url}: not a request target")
        head = f"{method} {target} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        if body is not None:
            head += f"Content-Type: application/jose+json\r\nContent-Length: {len(body)}\r\n"
        if parts.netloc != self._origin or _closed_by_peer(self._sock):
            self.close()
            self._origin = parts.netloc
        # Sent once: the CA may have acted on a request it never answered.
        try:
            if self._sock is None:
                self._connect(parts)
            self._sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
            version, status, headers, payload = read_answer(self._rfile, method)
        except (OSError, BadHead) as exc:
            self.close()
            raise CaUnreachable(f"{method} {url}: {exc}") from exc
        if version == "HTTP/1.0" or headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, payload

    def _remember_nonce(self, headers: dict) -> None:
        nonce = headers.get("replay-nonce")
        if nonce:
            self._nonce = nonce

    def _take_nonce(self) -> str:
        if self._nonce is None:
            _, headers, _ = self._http("HEAD", self.directory()["newNonce"])
            self._remember_nonce(headers)
        nonce, self._nonce = self._nonce, None
        if nonce is None:
            raise CaUnreachable("ca did not supply a replay nonce")
        return nonce

    def directory(self) -> dict:
        if self._directory is None:
            status, headers, body = self._http("GET", self.directory_url)
            if status != 200:
                raise CaUnreachable(f"directory fetch returned {status}")
            self._directory = _read(body, _directory)
        return self._directory

    def _post(self, url: str, payload: dict | None, use_jwk: bool = False):
        """Signed POST (payload None = POST-as-GET). Retries badNonce once
        with the server-supplied replacement, per RFC 8555 section 6.5."""
        for attempt in (0, 1):
            protected = {
                "alg": jws.alg_for_key(self.account_key),
                "nonce": self._take_nonce(),
                "url": url,
            }
            if use_jwk:
                protected["jwk"] = jws.public_jwk(self.account_key.public_key())
            else:
                protected["kid"] = self.kid
            body = json.dumps(payload).encode() if payload is not None else None
            envelope = jws.sign_jws(self.account_key, protected, body)
            status, headers, raw = self._http("POST", url, json.dumps(envelope).encode())
            self._remember_nonce(headers)
            if status < 400:
                return status, headers, raw
            problem = _parse_problem(raw)
            if problem["type"].endswith("badNonce") and attempt == 0:
                continue
            _raise_problem(problem, status)
        raise AcmeProblem("badNonce", "nonce retry exhausted", 400)

    # -- account/order flow ---------------------------------------------

    def ensure_account(self) -> str:
        """The account's kid, registering the account key on first use."""
        if self.kid is not None:
            return self.kid
        _, headers, _ = self._post(self.directory()["newAccount"], {
            "termsOfServiceAgreed": True,
        }, use_jwk=True)
        kid = headers.get("location")
        if not kid:
            raise CaUnreachable("newAccount response lacks a Location header")
        self.kid = kid
        return kid

    def obtain_certificate(self, fqdn: str, csr, fulfiller) -> str:
        """Full order flow for one FQDN, answering the challenge type the
        fulfiller publishes proofs for, unless the order starts ``ready``
        (the account proved the name lately, RFC 8555 section 7.1.3).
        Returns the PEM chain; CsrMismatch unless its leaf names exactly
        ``fqdn`` and certifies the CSR's key, and MalformedAnswer for any
        CA answer of the wrong shape."""
        self.ensure_account()
        _, headers, raw = self._post(self.directory()["newOrder"], {
            "identifiers": [{"type": "dns", "value": fqdn}],
        })
        status, authz_url, finalize_url = _read(raw, _order)
        if status != "ready":
            self._prove(fqdn, authz_url, fulfiller)
        _, _, raw = self._post(finalize_url, {"csr": jws.b64url(csr_to_der(csr))})
        status, cert_url = self._settle(raw, headers.get("location", ""))
        if status != "valid" or cert_url is None:
            raise ChallengeFailed(f"order for {fqdn} ended {status}")
        _, _, chain = self._post(cert_url, None)
        try:
            pem = chain.decode("ascii")
            leaf = split_pem_chain(pem)[0]
            names, key = san_dns_names(leaf), leaf.public_key()
        except ValueError as exc:
            raise CsrMismatch(f"unreadable chain issued for {fqdn}: {exc}") from exc
        if names != [fqdn]:
            raise CsrMismatch(f"issued SAN {names} != requested {fqdn}")
        if key != csr.public_key():
            raise CsrMismatch(f"certificate issued for {fqdn} certifies a key other than the csr's")
        return pem

    def _prove(self, fqdn: str, authz_url: str, fulfiller) -> None:
        """Answer the authz's challenge of the fulfiller's type, with the
        proof published only until the CA has settled the challenge."""
        wire_type = fulfiller.challenge_type
        _, _, raw = self._post(authz_url, None)
        chall = _read(raw, lambda authz: _challenge(authz, wire_type))
        if chall is None:
            raise ChallengeFailed(f"ca offers no {wire_type} challenge")
        token, chall_url = chall
        fulfiller.install(fqdn, token, jws.key_authorization(token, self.jwk_thumbprint))
        try:
            _, _, raw = self._post(chall_url, {})
            status, _ = self._settle(raw, chall_url)
        finally:
            fulfiller.cleanup(fqdn, token)
        if status != "valid":
            raise ChallengeFailed(f"challenge for {fqdn} ended {status}")

    def _settle(self, raw: bytes, url: str) -> tuple[str, str | None]:
        """(status, certificate URL) of ``raw``, the CA's answer for the
        resource at ``url``. Only while that status is not final is ``url``
        polled (RFC 8555 section 7.5.1)."""
        for polls in range(MAX_POLLS + 1):
            if polls:
                time.sleep(POLL_INTERVAL)
                _, _, raw = self._post(url, None)
            status, cert_url = _read(raw, _state)
            if status in ("valid", "invalid"):
                return status, cert_url
        raise CaUnreachable(f"{url} still {status} after {MAX_POLLS} polls")


def _closed_by_peer(sock: ssl.SSLSocket | None) -> bool:
    """No kept connection to reuse: none, its socket gone, or its socket
    readable with no answer due, so the CA closed it (its idle timeout)."""
    if sock is None or sock.fileno() < 0:
        return True
    poller = select.poll()  # select.select fails for descriptors above 1023
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _parse_problem(raw: bytes) -> dict:
    """The problem document of an error answer. A body that is not a JSON
    object, or a member that is not a string, reads as its default:
    ``about:blank``, with the body as the detail."""
    try:
        problem = json.loads(raw)
    except (ValueError, RecursionError):
        problem = None
    if not isinstance(problem, dict):
        problem = {}
    defaults = {"type": "about:blank", "detail": raw.decode("utf-8", "replace")[:200]}
    return {k: problem[k] if isinstance(problem.get(k), str) else v for k, v in defaults.items()}


def _raise_problem(problem: dict, status: int):
    ptype, detail = problem["type"], problem["detail"]
    if ptype.endswith("rateLimited"):
        raise RateLimited(detail)
    if ptype.endswith("badCSR"):
        raise CsrMismatch(detail)
    if ptype.endswith("unauthorized"):
        raise ChallengeFailed(detail)
    raise AcmeProblem(ptype, detail, status)
