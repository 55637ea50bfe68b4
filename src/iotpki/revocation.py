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

Serials outside the build-time universe may return either value; relying
parties reject unknown issuers during chain validation before ever
consulting the filter.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass

from .errors import IotPkiError

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


class AlreadyRevoked(IotPkiError):
    pass


SEED_BYTES = 8


def _level_seed(vendor_id: str, epoch: int, level: int) -> bytes:
    return hashlib.sha256(f"{vendor_id}|{epoch}|{level}".encode("utf-8")).digest()[:SEED_BYTES]


@dataclass(frozen=True)
class BloomLevel:
    """One filter level: bit array, hash count, and hashing seed."""

    bits: bytes
    num_bits: int
    num_hashes: int
    seed: bytes

    @classmethod
    def build(cls, members: list[str], fp_rate: float, seed: bytes) -> "BloomLevel":
        n = len(members)
        if n == 0:
            return cls(bits=b"\x00", num_bits=8, num_hashes=1, seed=seed)
        fp_rate = min(max(fp_rate, 1e-9), 0.5)
        num_bits = max(8, math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2)))
        num_hashes = max(1, round(num_bits / n * math.log(2)))
        array = bytearray((num_bits + 7) // 8)
        for member in members:
            for index in _indexes(member, seed, num_hashes, num_bits):
                array[index >> 3] |= 1 << (index & 7)
        return cls(bits=bytes(array), num_bits=num_bits, num_hashes=num_hashes, seed=seed)

    def contains(self, serial: str) -> bool:
        return all(
            self.bits[i >> 3] & (1 << (i & 7))
            for i in _indexes(serial, self.seed, self.num_hashes, self.num_bits)
        )


def _indexes(serial: str, seed: bytes, num_hashes: int, num_bits: int):
    """Double hashing over a seeded SHA-256: index_i = h1 + i*h2 (mod m)."""
    digest = hashlib.sha256(seed + serial.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    return ((h1 + i * h2) % num_bits for i in range(num_hashes))


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
    include = sorted(revoked)
    exclude = sorted(issued_universe - revoked)
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
        false_positives = [s for s in exclude if level.contains(s)]
        if not false_positives:
            break
        exclude = include
        include = false_positives
    else:
        raise BuildFailed(f"cascade did not converge within {MAX_LEVELS} levels")
    digest = hashlib.sha256("\n".join(sorted(issued_universe)).encode("utf-8")).digest()
    return RevocationFilter(
        vendor_id=vendor_id, epoch=epoch, levels=tuple(levels), universe_digest=digest
    )


def query(filter_: RevocationFilter, serial: str) -> bool:
    """Cascade walk. A miss at level i decides by parity (miss at an odd
    level means not revoked); surviving every level decides by the parity
    of the level count."""
    for level_number, level in enumerate(filter_.levels, start=1):
        if not level.contains(serial):
            return level_number % 2 == 0
    return len(filter_.levels) % 2 == 1


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
    signature, so every field is checked as well: a blob either yields a
    filter that answers any query, or raises CorruptFilter (VersionMismatch
    for another format version)."""
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
        levels = []
        for _ in range(level_count):
            num_bits, num_hashes = struct.unpack_from("!IB", body, offset)
            offset += 5
            seed = body[offset : offset + SEED_BYTES]
            offset += SEED_BYTES
            (bits_len,) = struct.unpack_from("!I", body, offset)
            offset += 4
            if num_bits == 0 or num_hashes == 0:
                raise CorruptFilter(f"empty level: {num_bits} bits, {num_hashes} hashes")
            if bits_len != (num_bits + 7) // 8:
                raise CorruptFilter(f"level of {num_bits} bits stored in {bits_len} bytes")
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
    """Vendor-side revocation set with a strictly increasing publish epoch."""

    def __init__(self, vendor_id: str) -> None:
        self.vendor_id = vendor_id
        self._revoked: set[str] = set()
        self._epoch = 0
        self._lock = threading.Lock()

    def add(self, serial: str) -> None:
        with self._lock:
            if serial in self._revoked:
                raise AlreadyRevoked(serial)
            self._revoked.add(serial)

    def __contains__(self, serial: str) -> bool:
        with self._lock:
            return serial in self._revoked

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def publish(self, issued_universe: set[str]) -> RevocationFilter:
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            revoked = set(self._revoked)
        return build_filter(revoked, issued_universe, self.vendor_id, epoch)
