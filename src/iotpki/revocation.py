"""Compressed revocation filters: a Bloom-filter cascade that is exact
over the issued-certificate universe known at build time.

Construction: level 1 holds the revoked serials at a false-positive rate
of 0.5 * |revoked| / |universe|; every later level holds the previous
level's false positives at rate 0.25, alternating between the two
classes until a level produces no false positives. A query walks the
cascade and the parity of the first miss (or of the level count, if
every level hits) decides membership. The inner rate trades slightly
larger levels for fewer of them, which wins once per-level serialization
overhead is counted.

Probe: each level hashes its 8-byte seed and the serial's UTF-8 bytes
with one SHA-256, reads h1 and h2 as the first two big-endian 64-bit
words, and tests k bit positions of its m-bit array by double hashing,
(h1 + i*(h2 | 1)) mod m for i = 0..k-1. The probe tests h1 mod m first
and, only if that bit is set, computes the step (h2 | 1) mod m and walks
the other k - 1 positions, subtracting m once when the sum reaches m:
both terms are below m, so their sum is below 2m, and each position is
the previous one plus h2 | 1, taken mod m. It stops at the first clear
bit. Bits are tested in each level's lookup view, one byte per bit
(``lookup[i]`` is bit i of the packed array, least significant bit of
each byte first), built once from a 256-entry table when the level is
made. The view costs m bytes per level, 8x the level's packed bytes: a
filter that ``deserialize`` accepts holds at most 8x its blob's length
in views. The packed array stays what is built, compared and
serialized.

Serials outside the build-time universe may return either value; relying
parties reject unknown issuers during chain validation before ever
consulting the filter. The serialized universe digest (SHA-256 over the
sorted, newline-joined universe) is never checked on read; it is kept so
that format v1 stays byte for byte what it was.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass, field

from .errors import IotPkiError
from .inventory import Inventory

MAGIC = b"ATLSCRL1"
MAGIC_PREFIX = b"ATLSCRL"
LEVEL1_RATE_FACTOR = 0.5
INNER_FP_RATE = 0.25
MAX_LEVELS = 100


class RevokedNotIssued(IotPkiError):
    pass


class CorruptFilter(IotPkiError):
    pass


class VersionMismatch(IotPkiError):
    pass


class BuildFailed(IotPkiError):
    pass


SEED_BYTES = 8


def _level_seed(vendor_id: str, epoch: int, level: int) -> bytes:
    return hashlib.sha256(f"{vendor_id}|{epoch}|{level}".encode("utf-8")).digest()[:SEED_BYTES]


_H1_H2 = struct.Struct("!QQ").unpack_from
_sha256 = hashlib.sha256
# Byte value -> its eight bits, least significant first, one byte each.
_BYTE_BITS = tuple(bytes((value >> i) & 1 for i in range(8)) for value in range(256))


@dataclass(frozen=True)
class BloomLevel:
    """One filter level: bit array, hash count, and hashing seed, plus the
    bits' one-byte-per-bit lookup view that probes read."""

    bits: bytes
    num_bits: int
    num_hashes: int
    seed: bytes
    lookup: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_bits < 1 or self.num_hashes < 1:
            raise CorruptFilter(f"empty level: {self.num_bits} bits, {self.num_hashes} hashes")
        if len(self.bits) != (self.num_bits + 7) // 8:
            raise CorruptFilter(f"level of {self.num_bits} bits stored in {len(self.bits)} bytes")
        lookup = b"".join(map(_BYTE_BITS.__getitem__, self.bits))[: self.num_bits]
        object.__setattr__(self, "lookup", lookup)

    @classmethod
    def build(cls, members: list[str], fp_rate: float, seed: bytes) -> "BloomLevel":
        n = len(members)
        if n == 0:
            return cls(bits=b"\x00", num_bits=8, num_hashes=1, seed=seed)
        fp_rate = min(max(fp_rate, 1e-9), 0.5)
        m = max(8, math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2)))
        k = max(1, round(m / n * math.log(2)))
        array = bytearray((m + 7) // 8)
        for member in members:
            h1, h2 = _H1_H2(_sha256(seed + member.encode("utf-8")).digest())
            index = h1 % m
            step = (h2 | 1) % m
            for _ in range(k):
                array[index >> 3] |= 1 << (index & 7)
                index += step
                if index >= m:
                    index -= m
        return cls(bits=bytes(array), num_bits=m, num_hashes=k, seed=seed)

    def hits(self, serials: list[str]) -> list[str]:
        """The serials whose every probed bit is set, in order."""
        lookup, m, rest, seed = self.lookup, self.num_bits, range(self.num_hashes - 1), self.seed
        found = []
        for serial in serials:
            h1, h2 = _H1_H2(_sha256(seed + serial.encode("utf-8")).digest())
            index = h1 % m
            if not lookup[index]:
                continue
            step = (h2 | 1) % m
            for _ in rest:
                index += step
                if index >= m:
                    index -= m
                if not lookup[index]:
                    break
            else:
                found.append(serial)
        return found


@dataclass(frozen=True)
class RevocationFilter:
    vendor_id: str
    epoch: int
    levels: tuple[BloomLevel, ...]
    universe_digest: bytes


def build_filter(
    revoked: set[str], issued_universe: set[str], vendor_id: str, epoch: int
) -> RevocationFilter:
    if not revoked <= issued_universe:
        extras = sorted(revoked - issued_universe)[:3]
        raise RevokedNotIssued(f"serials never issued: {extras}")
    # Level bits do not depend on member order, so only the digest sorts.
    include = list(revoked)
    exclude = [serial for serial in issued_universe if serial not in revoked]
    rate = (
        LEVEL1_RATE_FACTOR * len(revoked) / len(issued_universe)
        if issued_universe
        else INNER_FP_RATE
    )
    levels: list[BloomLevel] = []
    for level_number in range(1, MAX_LEVELS + 1):
        seed = _level_seed(vendor_id, epoch, level_number)
        level = BloomLevel.build(include, rate if level_number == 1 else INNER_FP_RATE, seed)
        levels.append(level)
        false_positives = level.hits(exclude)
        if not false_positives:
            break
        exclude = include
        include = false_positives
    else:
        raise BuildFailed(f"cascade did not converge within {MAX_LEVELS} levels")
    return RevocationFilter(
        vendor_id=vendor_id,
        epoch=epoch,
        levels=tuple(levels),
        universe_digest=_universe_digest(issued_universe),
    )


def _universe_digest(issued_universe: set[str]) -> bytes:
    """sha256 of the sorted serials joined by newlines."""
    return hashlib.sha256("\n".join(sorted(issued_universe)).encode("utf-8")).digest()


def query(filter_: RevocationFilter, serial: str) -> bool:
    """Cascade walk. A miss at level i decides by parity (miss at an odd
    level means not revoked); surviving every level decides by the parity
    of the level count. ``revoked`` is that answer, flipped at each level
    the serial survives. The level probe is inlined: it is the relying
    party's hot loop."""
    data = serial.encode("utf-8")
    revoked = False
    for level in filter_.levels:
        lookup, m = level.lookup, level.num_bits
        h1, h2 = _H1_H2(_sha256(level.seed + data).digest())
        index = h1 % m
        if not lookup[index]:
            return revoked
        step = (h2 | 1) % m
        for _ in range(level.num_hashes - 1):
            index += step
            if index >= m:
                index -= m
            if not lookup[index]:
                return revoked
        revoked = not revoked
    return revoked


# -- serialization -----------------------------------------------------------

def serialize(filter_: RevocationFilter) -> bytes:
    vendor = filter_.vendor_id.encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("!H", len(vendor))
    out += vendor
    out += struct.pack("!I", filter_.epoch)
    out += filter_.universe_digest
    out += struct.pack("!H", len(filter_.levels))
    for level in filter_.levels:
        out += struct.pack("!IB", level.num_bits, level.num_hashes)
        out += level.seed
        out += struct.pack("!I", len(level.bits))
        out += level.bits
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def deserialize(data: bytes) -> RevocationFilter:
    """Parse a serialized filter. The SHA-256 trailer is a checksum, not a
    signature, so every field is checked as well (each level's shape by
    BloomLevel itself): a blob either yields a filter that answers any
    query, or raises CorruptFilter (VersionMismatch for another format
    version)."""
    if len(data) < len(MAGIC) + 32:
        raise CorruptFilter("too short")
    if data[: len(MAGIC_PREFIX)] != MAGIC_PREFIX:
        raise CorruptFilter("bad magic")
    if data[: len(MAGIC)] != MAGIC:
        raise VersionMismatch(f"unsupported version {data[len(MAGIC_PREFIX):len(MAGIC)]!r}")
    body, trailer = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != trailer:
        raise CorruptFilter("checksum mismatch")
    try:
        offset = len(MAGIC)
        (vendor_len,) = struct.unpack_from("!H", body, offset)
        offset += 2
        vendor_id = body[offset : offset + vendor_len].decode("utf-8")
        offset += vendor_len
        (epoch,) = struct.unpack_from("!I", body, offset)
        offset += 4
        universe_digest = body[offset : offset + 32]
        offset += 32
        (level_count,) = struct.unpack_from("!H", body, offset)
        offset += 2
        if level_count > MAX_LEVELS:
            raise CorruptFilter(f"{level_count} levels; a build makes at most {MAX_LEVELS}")
        levels = []
        for _ in range(level_count):
            num_bits, num_hashes = struct.unpack_from("!IB", body, offset)
            offset += 5
            seed = body[offset : offset + SEED_BYTES]
            offset += SEED_BYTES
            (bits_len,) = struct.unpack_from("!I", body, offset)
            offset += 4
            bits = body[offset : offset + bits_len]
            if len(bits) != bits_len:
                raise CorruptFilter("truncated level bits")
            offset += bits_len
            levels.append(BloomLevel(bits=bits, num_bits=num_bits, num_hashes=num_hashes, seed=seed))
        if offset != len(body):
            raise CorruptFilter(f"{len(body) - offset} trailing bytes")
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptFilter(f"malformed structure: {exc}") from exc
    return RevocationFilter(
        vendor_id=vendor_id, epoch=epoch, levels=tuple(levels), universe_digest=universe_digest
    )


class RevocationLog:
    """A vendor's publish epoch; each filter covers its inventory's serials."""

    def __init__(self, vendor_id: str) -> None:
        self.vendor_id = vendor_id
        self._epoch = 0
        self._lock = threading.Lock()

    def publish(self, inventory: Inventory) -> RevocationFilter:
        with self._lock:
            self._epoch += 1
            issued, revoked = inventory.serials()
            return build_filter(revoked, issued, self.vendor_id, self._epoch)
