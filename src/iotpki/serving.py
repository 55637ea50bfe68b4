"""One serve loop for the loopback servers (DNS responder, token shelf,
ACME CA, mTLS echo), plus the TLS front end the CA and echo server share.

A ``BackgroundServer`` runs its ``socketserver`` in one thread that
waits on two sockets: the listening socket and one end of a socket
pair. A readable listening socket means one ``handle_request()``; a
byte on the pair means stop. ``close()`` therefore returns as soon as
the thread sees that byte, with no poll interval to wait out, and an
idle server never wakes.
"""

from __future__ import annotations

import logging
import selectors
import socket
import socketserver
import ssl
import threading

from .errors import BindFailure

log = logging.getLogger(__name__)

# Seconds a new TLS connection gets to finish its handshake.
HANDSHAKE_TIMEOUT = 5.0
# Seconds an HTTP keep-alive connection may sit idle (or stall
# mid-request) before the server drops it.
IDLE_TIMEOUT = 15.0


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
