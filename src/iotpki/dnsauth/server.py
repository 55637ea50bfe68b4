"""UDP responder for a Zone, plus a matching stub resolver.

The responder answers each datagram inline on its serve thread, since a
zone lookup never blocks. Every well-formed single-question query gets an
authoritative answer (AA bit set). An answer over 512 bytes goes out as
the header and question only, with TC set and ANCOUNT 0. Malformed packets
get FORMERR when a transaction id can be salvaged from the first two
bytes, otherwise they are dropped.
"""

from __future__ import annotations

import random
import socket
import socketserver
import struct

from ..errors import IotPkiError
from ..serving import BackgroundServer
from . import wire
from .zone import DnsResponse, Rcode, RType, Zone, ZoneRecord

MAX_UDP = 512
# How long the stub resolver waits for one reply.
RESOLVE_TIMEOUT = 2.0


class ResolutionFailure(IotPkiError):
    pass


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        packet, sock = self.request
        zone: Zone = self.server.zone
        try:
            txn_id, qname, qtype = wire.parse_query(packet)
        except wire.NotImplementedQuery:
            sock.sendto(wire.build_error_response(_salvage_id(packet), Rcode.NOTIMP), self.client_address)
            return
        except wire.WireFormatError:
            if len(packet) >= 2:
                sock.sendto(wire.build_error_response(_salvage_id(packet), Rcode.FORMERR), self.client_address)
            return
        try:
            rtype = RType(qtype)
        except ValueError:
            # Unsupported-but-valid qtype: NXDOMAIN/NOERROR as appropriate,
            # still surfacing a CNAME if the name bears one.
            rtype = RType.CNAME
        result: DnsResponse = zone.answer_query(qname, rtype)
        response = wire.build_response(txn_id, qname, qtype, result.rcode, result.answers)
        if len(response) > MAX_UDP:
            # RFC 2181 section 9: a truncated reply carries no partial answer.
            response = wire.build_response(txn_id, qname, qtype, result.rcode, (), truncated=True)
        sock.sendto(response, self.client_address)


def _salvage_id(packet: bytes) -> int:
    return struct.unpack_from("!H", packet)[0] if len(packet) >= 2 else 0


class DnsUdpServer(BackgroundServer):
    """Owns the socket server and the one thread that answers on it."""

    def __init__(self, zone: Zone, bind_addr: tuple[str, int]) -> None:
        super().__init__("dns-udp", "udp", socketserver.UDPServer, bind_addr, _Handler)
        self._server.zone = zone


def resolve(name: str, rtype: RType, server_addr: tuple[str, int]) -> tuple[Rcode, list[ZoneRecord]]:
    """One-shot UDP stub query against a specific server. Any failure,
    from an unencodable name to a malformed reply, is a ResolutionFailure."""
    txn_id = random.randrange(0, 0x10000)
    try:
        query = wire.build_query(txn_id, name, rtype)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(RESOLVE_TIMEOUT)
            sock.sendto(query, server_addr)
            packet, _ = sock.recvfrom(4096)
        got_id, rcode, truncated, answers = wire.parse_response(packet)
    except (OSError, wire.WireFormatError) as exc:
        raise ResolutionFailure(f"query for {name!r} to {server_addr} failed: {exc}") from exc
    if got_id != txn_id:
        raise ResolutionFailure("transaction id mismatch")
    if truncated:
        raise ResolutionFailure(f"{name}: answer truncated (over {MAX_UDP} bytes)")
    return rcode, answers


def resolve_address(name: str, server_addr: tuple[str, int]) -> str:
    """Follow CNAMEs (already chased server-side) to an IPv4 address."""
    rcode, answers = resolve(name, RType.A, server_addr)
    if rcode is not Rcode.NOERROR:
        raise ResolutionFailure(f"{name}: rcode {rcode.name}")
    for record in answers:
        if record.rtype is RType.A:
            return record.value
    raise ResolutionFailure(f"{name}: no A record in answer")
