"""One serve loop for the loopback servers (DNS responder, token shelf,
ACME CA, mTLS echo), one connection server for the three TCP services
(plain for the shelf, TLS for the CA and echo server), and the
package's one HTTP/1.1 implementation: every hop (ACME client and CA,
HTTP-01 probe and token shelf) reads messages with ``read_line``,
``read_headers`` and ``read_body`` (``Content-Length`` framing, 64 KiB
at most), and both servers answer in ``HttpHandler``'s keep-alive loop.

A ``BackgroundServer`` runs its ``socketserver`` in one thread that
waits on two sockets: the listening socket and one end of a socket
pair. A readable listening socket means one ``handle_request()``; a
byte on the pair means stop, with no poll interval to wait out, and an
idle server never wakes. ``close()`` then ends every live connection of
a TCP server and returns once their threads have exited.
"""

from __future__ import annotations

import logging
import re
import selectors
import socket
import socketserver
import ssl
import threading
from http import HTTPStatus

from .errors import BindFailure, IotPkiError

log = logging.getLogger(__name__)

# Seconds a new TLS connection gets to finish its handshake.
HANDSHAKE_TIMEOUT = 5.0
# Seconds an HTTP keep-alive connection may sit idle (or stall
# mid-request) before the server drops it.
IDLE_TIMEOUT = 15.0
# Longest head line and most header fields in one HTTP message: the
# limits of Python's own HTTP modules.
MAX_LINE = 65536
MAX_HEADERS = 100
# Largest body read on any hop; a JWS carrying a CSR is a few KiB.
MAX_BODY_BYTES = 64 * 1024
# A field name is an RFC 9110 token: no whitespace before the colon.
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class BadHead(IotPkiError):
    """An HTTP message that is malformed, too large, or framed in a way
    the readers refuse. ``status`` is the answer a server gives it."""

    def __init__(self, detail: str, status: int = 400) -> None:
        super().__init__(detail)
        self.status = status


def read_line(rfile) -> bytes:
    """One head line, ending in a line feed; BadHead past ``MAX_LINE``
    bytes or at end of stream."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise BadHead(f"head line longer than {MAX_LINE} bytes", 431)
    if not line.endswith(b"\n"):
        raise BadHead("message head truncated")
    return line


def status_line(line: bytes) -> tuple[str, int]:
    """(HTTP version, status code) of an answer's status line."""
    version, _, rest = line.partition(b" ")
    code = rest[:3]
    if version not in (b"HTTP/1.0", b"HTTP/1.1") or not code.isdigit() or rest[3:4].strip():
        raise BadHead(f"bad status line {line[:40]!r}")
    return version.decode(), int(code)


def read_headers(rfile) -> dict[str, str]:
    """The header fields that follow a start line, up to the empty line
    (RFC 9112 section 5). A repeated field keeps its last value. A field
    line folded onto the one before, a name that is not a token, a
    repeated Content-Length and any Transfer-Encoding are BadHead: the
    body is then framed by Content-Length alone, or not at all. Names
    are lower-cased."""
    headers = {}
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


def read_body(rfile, headers: dict[str, str]) -> bytes:
    """Exactly the ``Content-Length`` bytes of body that follow a head.
    A missing or malformed length and a body cut short are BadHead (400),
    and so is a length past ``MAX_BODY_BYTES`` (413), before any of it
    is read."""
    declared = headers.get("content-length", "")
    if not (declared.isascii() and declared.isdigit()):
        raise BadHead(f"bad Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise BadHead(f"body of {length} bytes exceeds {MAX_BODY_BYTES}", 413)
    body = rfile.read(length)
    if len(body) < length:
        raise BadHead(f"body truncated at {len(body)} of {length} bytes")
    return body


class HttpHandler(socketserver.StreamRequestHandler):
    """An HTTP/1.1 connection: a subclass's ``answer()`` replies once to each
    request until the peer closes or asks to, or idles past ``timeout``. A
    message the readers refuse gets ``refuse()`` and ends the connection, as
    its unread rest would otherwise be read as the next request."""

    timeout = IDLE_TIMEOUT
    disable_nagle_algorithm = True
    log = log  # the request log: one '"<request line>" <status>' line per answer

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection and self.rfile.peek(1):
                self.requestline = self.command = ""
                try:
                    self.requestline = read_line(self.rfile).decode("latin-1").rstrip("\r\n")
                    words = self.requestline.split()
                    if len(words) != 3:
                        raise BadHead(f"bad request line {self.requestline[:40]!r}")
                    if words[2] not in ("HTTP/1.0", "HTTP/1.1"):
                        raise BadHead(f"unsupported version {words[2][:40]!r}", 505)
                    self.command, self.path, version = words
                    self.headers = read_headers(self.rfile)
                    connection = self.headers.get("connection", "").lower()
                    self.close_connection = version == "HTTP/1.0" or connection == "close"
                    self.answer()
                except BadHead as exc:
                    self.close_connection = True
                    self.refuse(exc)
        except OSError as exc:  # the idle timeout, or a peer gone mid-message
            self.log.debug("connection from %s ended: %s", self.client_address, exc)

    def refuse(self, exc: BadHead) -> None:
        self.reply(exc.status, b"", {})

    def reply(self, status: int, body: bytes, fields: dict[str, str]) -> None:
        """Send one answer, head and body in one write (so one TLS record);
        to HEAD, the head alone. A 204 has no body and so no
        ``Content-Length`` (RFC 9110 section 8.6)."""
        self.log.debug('"%s" %d', self.requestline, status)
        head = f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        head += "".join(f"{name}: {value}\r\n" for name, value in fields.items())
        if status != 204:
            head += f"Content-Length: {len(body)}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + (b"" if self.command == "HEAD" else body))


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


class ConnectionServer(socketserver.ThreadingTCPServer):
    """One thread per connection, plain or, given ``tls``, TLS: the
    handshake then runs in the connection's own thread under a deadline,
    so a slow or idle peer holds only that thread. Every connection is
    tracked from its accept, handshake included, so ``server_close``
    ends them all, and it returns once their threads have exited
    (``ThreadingMixIn`` joins its non-daemon threads)."""

    allow_reuse_address = True

    def __init__(self, bind_addr, handler, tls: ssl.SSLContext | None = None) -> None:
        # Set first: the base initializer calls server_close() when bind fails.
        self._tls = tls
        self._live: set[socket.socket] = set()
        self._live_lock = threading.Lock()
        self._closing = False
        super().__init__(bind_addr, handler)

    def finish_request(self, request, client_address) -> None:
        conn = request
        try:
            if self._tls is not None:
                request.settimeout(HANDSHAKE_TIMEOUT)
                conn = self._tls.wrap_socket(request, server_side=True, do_handshake_on_connect=False)
            with self._live_lock:
                if self._closing:
                    return
                self._live.add(conn)
            if conn is not request:
                conn.do_handshake()
            self.RequestHandlerClass(conn, client_address, self)
        except OSError as exc:
            log.debug("connection from %s ended: %s", client_address, exc)
        finally:
            with self._live_lock:
                self._live.discard(conn)
            if conn is not request:
                conn.close()

    def server_close(self) -> None:
        with self._live_lock:
            self._closing = True
            for conn in self._live:
                try:
                    # The socket's own shutdown: SSLSocket's drops the TLS
                    # state of a connection whose thread may still use it.
                    socket.socket.shutdown(conn, socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()
