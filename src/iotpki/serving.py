"""One serve loop for the loopback servers (DNS responder, token shelf,
ACME CA, mTLS echo), plus the TLS front end the CA and echo server share,
and the HTTP/1.1 head reader both ends of the ACME hop share.

A ``BackgroundServer`` runs its ``socketserver`` in one thread that
waits on two sockets: the listening socket and one end of a socket
pair. A readable listening socket means one ``handle_request()``; a
byte on the pair means stop. ``close()`` therefore returns as soon as
the thread sees that byte, with no poll interval to wait out, and an
idle server never wakes.
"""

from __future__ import annotations

import logging
import re
import selectors
import socket
import socketserver
import ssl
import threading

from .errors import BindFailure, IotPkiError

log = logging.getLogger(__name__)

# Seconds a new TLS connection gets to finish its handshake.
HANDSHAKE_TIMEOUT = 5.0
# Seconds an HTTP keep-alive connection may sit idle (or stall
# mid-request) before the server drops it.
IDLE_TIMEOUT = 15.0
# Longest head line and most header fields in one HTTP message: the
# limits of the standard library's http.client and http.server.
MAX_LINE = 65536
MAX_HEADERS = 100
# A field name is an RFC 9110 token: no whitespace before the colon.
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class BadHead(IotPkiError):
    """An HTTP message head that is malformed, too large, or framed in a
    way the reader refuses. ``status`` is the answer a server gives it."""

    def __init__(self, detail: str, status: int = 400) -> None:
        super().__init__(detail)
        self.status = status


class Headers(dict):
    """Header fields keyed by lower-cased name; lookups ignore case."""

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)

    def __contains__(self, name) -> bool:
        return super().__contains__(name.lower())


def read_line(rfile) -> bytes:
    """One head line, ending in a line feed; BadHead past ``MAX_LINE``
    bytes or at end of stream."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise BadHead(f"head line longer than {MAX_LINE} bytes", 431)
    if not line.endswith(b"\n"):
        raise BadHead("message head truncated")
    return line


def read_headers(rfile) -> Headers:
    """The header fields that follow a start line, up to the empty line
    (RFC 9112 section 5). A repeated field keeps its last value. A field
    line folded onto the one before, a name that is not a token, a
    repeated Content-Length and any Transfer-Encoding are BadHead: the
    body is then framed by Content-Length alone, or not at all."""
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise BadHead(f"bad header line {line[:40]!r}")
        key = name.decode("ascii").lower()
        if key == "transfer-encoding" or (key == "content-length" and key in headers):
            raise BadHead(f"refused framing: {line[:40]!r}")
        headers[key] = value.strip(b" \t\r\n").decode("latin-1")
    raise BadHead(f"more than {MAX_HEADERS} header fields", 431)


class BackgroundServer:
    """Owns a ``socketserver`` and the thread that serves it."""

    def __init__(
        self,
        thread_name: str,
        label: str,
        server_cls: type[socketserver.BaseServer],
        bind_addr: tuple[str, int],
        *server_args,
    ) -> None:
        try:
            self._server = server_cls(bind_addr, *server_args)
        except OSError as exc:
            raise BindFailure(f"cannot bind {label} {bind_addr}: {exc}") from exc
        self._label = label
        self.address: tuple[str, int] = self._server.server_address
        self._wake, self._waker = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, daemon=True, name=thread_name)

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._server, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while not any(key.fileobj is self._wake for key, _ in selector.select()):
                self._server.handle_request()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        log.info("%s listening on %s:%d", self._label, *self.address)
        return self

    def close(self) -> None:
        if self._thread.is_alive():
            self._waker.send(b"\0")
            self._thread.join()
        self._server.server_close()
        self._wake.close()
        self._waker.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class TlsServer(socketserver.ThreadingTCPServer):
    """Accepts plain TCP and runs each TLS handshake, under a deadline, in
    the connection's own thread, so a slow or idle peer holds only that
    thread. Tracks live connections so ``server_close`` can end them."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, bind_addr, handler, tls: ssl.SSLContext) -> None:
        # Set first: the base initializer calls server_close() when bind fails.
        self._tls = tls
        self._live: set[socket.socket] = set()
        self._live_lock = threading.Lock()
        self._closing = False
        super().__init__(bind_addr, handler)

    def _swap_live(self, old: socket.socket | None, new: socket.socket | None) -> bool:
        """Replace ``old`` by ``new`` in the live set. Once the server is
        closing nothing is added, and False tells the caller to stop."""
        with self._live_lock:
            self._live.discard(old)
            if new is None or self._closing:
                return False
            self._live.add(new)
            return True

    def finish_request(self, request, client_address) -> None:
        if not self._swap_live(None, request):
            return
        conn = None
        try:
            request.settimeout(HANDSHAKE_TIMEOUT)
            conn = self._tls.wrap_socket(request, server_side=True)
            if self._swap_live(request, conn):
                self.RequestHandlerClass(conn, client_address, self)
        except OSError as exc:
            log.debug("connection from %s ended: %s", client_address, exc)
        finally:
            self._swap_live(conn or request, None)
            if conn is not None:
                conn.close()

    def server_close(self) -> None:
        with self._live_lock:
            self._closing = True
            for sock in self._live:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()
