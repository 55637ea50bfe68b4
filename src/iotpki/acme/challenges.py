"""Challenge fulfillers: the vendor-side glue that publishes proofs where
the CA's validator will look for them.

DNS-01 proofs land as TXT records in the authoritative zone; HTTP-01
proofs are parked on a small token-shelf HTTP server standing in for the
device-facing web endpoint.
"""

from __future__ import annotations

import logging
import threading

from ..dnsauth.zone import Zone
from ..serving import BackgroundServer, ConnectionServer, HttpHandler
from .jws import dns01_txt_value

log = logging.getLogger(__name__)

WELL_KNOWN_PREFIX = "/.well-known/acme-challenge/"


class DnsTxtFulfiller:
    """Installs DNS-01 proofs via the zone's ACME TXT operations."""

    challenge_type = "dns-01"

    def __init__(self, zone: Zone) -> None:
        self._zone = zone

    def install(self, fqdn: str, token: str, key_auth: str) -> None:
        self._zone.set_acme_txt(fqdn, dns01_txt_value(key_auth))

    def cleanup(self, fqdn: str, token: str) -> None:
        self._zone.clear_acme_txt(fqdn)


class _ShelfHandler(HttpHandler):
    log = log

    def answer(self) -> None:
        key_auth = None
        if self.command == "GET" and self.path.startswith(WELL_KNOWN_PREFIX):
            shelf = self.server.shelf
            with shelf._lock:
                key_auth = shelf._tokens.get(self.path[len(WELL_KNOWN_PREFIX):])
        if key_auth is None:
            self.close_connection = True
            self.reply(404, b"", {})
            return
        self.reply(200, key_auth.encode("ascii"), {"Content-Type": "application/octet-stream"})


class TokenShelf(BackgroundServer):
    """Minimal HTTP server answering GET /.well-known/acme-challenge/<token>.

    One shelf serves every pending enrollment; tokens are removed after
    cleanup so nothing lingers between orders.
    """

    def __init__(self, bind_addr: tuple[str, int] = ("127.0.0.1", 0)) -> None:
        self._tokens: dict[str, str] = {}
        self._lock = threading.Lock()
        super().__init__("token-shelf", "token shelf", ConnectionServer, bind_addr, _ShelfHandler)
        self._server.shelf = self
        self.port: int = self.address[1]

    def put(self, token: str, key_auth: str) -> None:
        with self._lock:
            self._tokens[token] = key_auth

    def remove(self, token: str) -> None:
        with self._lock:
            self._tokens.pop(token, None)


class HttpShelfFulfiller:
    """Installs HTTP-01 proofs on a running TokenShelf."""

    challenge_type = "http-01"

    def __init__(self, shelf: TokenShelf) -> None:
        self._shelf = shelf

    def install(self, fqdn: str, token: str, key_auth: str) -> None:
        self._shelf.put(token, key_auth)

    def cleanup(self, fqdn: str, token: str) -> None:
        self._shelf.remove(token)
