"""RFC 1035 wire-format codec: single-question queries, uncompressed
responses (compression pointers are accepted on decode, never emitted).

Only class IN and the record types the zone stores (A, CNAME, TXT) are
encoded; anything else surfaces as WireFormatError or NOTIMP upstream.
"""

from __future__ import annotations

import struct

from ..errors import IotPkiError
from .zone import Rcode, RType, ZoneRecord

CLASS_IN = 1

_FLAG_QR = 0x8000
_FLAG_AA = 0x0400
_FLAG_TC = 0x0200

_HEADER = struct.Struct("!HHHHHH")


class WireFormatError(IotPkiError):
    pass


class NotImplementedQuery(IotPkiError):
    """Well-formed packet asking for something this responder does not do."""


def encode_name(name: str) -> bytes:
    out = bytearray()
    if name:
        for label in name.split("."):
            if not label.isascii():
                raise WireFormatError(f"non-ascii label {label!r}")
            raw = label.encode("ascii")
            if not 0 < len(raw) < 64:
                raise WireFormatError(f"bad label {label!r}")
            out.append(len(raw))
            out.extend(raw)
    out.append(0)
    if len(out) > 255:
        raise WireFormatError("name exceeds 255 octets")
    return bytes(out)


def decode_name(packet: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name. Returns (name, next_offset)."""
    labels: list[str] = []
    jumps = 0
    next_offset = None
    while True:
        if offset >= len(packet):
            raise WireFormatError("truncated name")
        length = packet[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(packet):
                raise WireFormatError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | packet[offset + 1]
            if next_offset is None:
                next_offset = offset + 2
            jumps += 1
            if jumps > 32 or target >= offset:
                raise WireFormatError("compression pointer loop")
            offset = target
            continue
        if length & 0xC0:
            raise WireFormatError("reserved label type")
        offset += 1
        if length == 0:
            break
        if offset + length > len(packet):
            raise WireFormatError("truncated label")
        label = packet[offset : offset + length]
        # A dot inside a label could not be told apart from a separator.
        if not label.isascii() or b"." in label:
            raise WireFormatError(f"label {label!r} is not ascii without dots")
        labels.append(label.decode("ascii"))
        offset += length
    name = ".".join(labels).lower()
    if len(name) > 253:
        raise WireFormatError("name exceeds 253 octets")
    return name, next_offset if next_offset is not None else offset


def build_query(txn_id: int, name: str, rtype: RType) -> bytes:
    header = _HEADER.pack(txn_id, 0, 1, 0, 0, 0)
    return header + encode_name(name) + struct.pack("!HH", int(rtype), CLASS_IN)


def parse_query(packet: bytes) -> tuple[int, str, int]:
    """Parse a query into (txn_id, qname, qtype). Raises WireFormatError
    for malformed packets and NotImplementedQuery for non-query opcodes."""
    if len(packet) < _HEADER.size:
        raise WireFormatError("short header")
    txn_id, flags, qdcount, ancount, nscount, arcount = _HEADER.unpack_from(packet)
    if flags & _FLAG_QR:
        raise WireFormatError("QR bit set on a query")
    opcode = (flags >> 11) & 0xF
    if opcode != 0:
        raise NotImplementedQuery(f"opcode {opcode}")
    if qdcount != 1:
        raise WireFormatError(f"QDCOUNT {qdcount} != 1")
    name, offset = decode_name(packet, _HEADER.size)
    if offset + 4 > len(packet):
        raise WireFormatError("truncated question")
    qtype, qclass = struct.unpack_from("!HH", packet, offset)
    if qclass != CLASS_IN:
        raise NotImplementedQuery(f"class {qclass}")
    return txn_id, name, qtype


def encode_rdata(record: ZoneRecord) -> bytes:
    if record.rtype is RType.A:
        return bytes(int(o) for o in record.value.split("."))
    if record.rtype is RType.CNAME:
        return encode_name(record.value)
    raw = record.value.encode("utf-8")
    return bytes([len(raw)]) + raw


def build_response(
    txn_id: int,
    qname: str,
    qtype: int,
    rcode: Rcode,
    answers: tuple[ZoneRecord, ...] = (),
    truncated: bool = False,
) -> bytes:
    flags = _FLAG_QR | _FLAG_AA | int(rcode)
    if truncated:
        flags |= _FLAG_TC
    out = bytearray(_HEADER.pack(txn_id, flags, 1, len(answers), 0, 0))
    out += encode_name(qname) + struct.pack("!HH", qtype, CLASS_IN)
    for record in answers:
        rdata = encode_rdata(record)
        out += encode_name(record.name)
        out += struct.pack("!HHIH", int(record.rtype), CLASS_IN, record.ttl, len(rdata))
        out += rdata
    return bytes(out)


def build_error_response(txn_id: int, rcode: Rcode) -> bytes:
    """Header-only error, used when the question itself cannot be echoed."""
    return _HEADER.pack(txn_id, _FLAG_QR | _FLAG_AA | int(rcode), 0, 0, 0, 0)


def parse_response(packet: bytes) -> tuple[int, Rcode, bool, list[ZoneRecord]]:
    """Decode a response into (txn_id, rcode, truncated, answers), where
    truncated is the TC bit. Records of an unknown type or of a class other
    than IN are skipped; a question must hold its type and class, and a
    known record fill its rdata, or WireFormatError."""
    if len(packet) < _HEADER.size:
        raise WireFormatError("short header")
    txn_id, flags, qdcount, ancount, _, _ = _HEADER.unpack_from(packet)
    if not flags & _FLAG_QR:
        raise WireFormatError("QR bit clear on a response")
    try:
        rcode = Rcode(flags & 0xF)
    except ValueError:
        raise WireFormatError(f"unknown rcode {flags & 0xF}") from None
    truncated = bool(flags & _FLAG_TC)
    offset = _HEADER.size
    for _ in range(qdcount):
        _, offset = decode_name(packet, offset)
        if offset + 4 > len(packet):
            raise WireFormatError("truncated question")
        offset += 4
    answers: list[ZoneRecord] = []
    for _ in range(ancount):
        name, offset = decode_name(packet, offset)
        if offset + 10 > len(packet):
            raise WireFormatError("truncated answer")
        rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", packet, offset)
        start, end = offset + 10, offset + 10 + rdlength
        if end > len(packet):
            raise WireFormatError("truncated rdata")
        rdata, offset = packet[start:end], end
        if rclass != CLASS_IN:
            continue
        if rtype == RType.A:
            if rdlength != 4:
                raise WireFormatError(f"A rdata of {rdlength} bytes")
            value = ".".join(str(b) for b in rdata)
        elif rtype == RType.CNAME:
            value, name_end = decode_name(packet, start)
            if name_end != end:
                raise WireFormatError("CNAME name does not end with its rdata")
        elif rtype == RType.TXT:
            parts, pos = [], 0
            while pos < rdlength:
                n = rdata[pos]
                if pos + 1 + n > rdlength:
                    raise WireFormatError("TXT string runs past its rdata")
                parts.append(rdata[pos + 1 : pos + 1 + n])
                pos += 1 + n
            value = b"".join(parts).decode("utf-8", "replace")
        else:
            continue
        answers.append(ZoneRecord(name, RType(rtype), value, ttl))
    return txn_id, rcode, truncated, answers
