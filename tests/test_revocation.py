"""Filter cascade: exactness against a brute-force set-membership oracle,
serialization integrity, determinism, and publish-epoch monotonicity."""

from __future__ import annotations

import hashlib
import random
import struct
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotpki.identity import DeviceSecret, DeviceUrn, VendorNamespace, derive_device_uuid
from iotpki.inventory import CertificateMeta, Inventory, RenewalState
from iotpki.revocation import (
    BloomLevel,
    CorruptFilter,
    MAGIC,
    MAX_LEVELS,
    RevocationLog,
    RevocationFilter,
    RevokedNotIssued,
    SEED_BYTES,
    VersionMismatch,
    build_filter,
    deserialize,
    query,
    serialize,
)


def synthetic_universe(size: int) -> list[str]:
    """Synthetic serials shaped like the CA's: 32 hex chars."""
    return sorted(hashlib.sha256(f"serial-{i}".encode()).hexdigest()[:32] for i in range(size))


def pick_revoked(universe: list[str], fraction: float, seed: int) -> set[str]:
    rng = random.Random(seed)
    count = max(1, int(len(universe) * fraction))
    return set(rng.sample(universe, count))


class TestCascadeExactness:
    def test_empty_revoked_single_level_all_false(self):
        universe = set(synthetic_universe(500))
        filt = build_filter(set(), universe, "vendor.com", 1)
        assert len(filt.levels) == 1
        assert not any(query(filt, s) for s in universe)

    def test_everything_revoked_all_true(self):
        universe = set(synthetic_universe(500))
        filt = build_filter(universe, universe, "vendor.com", 1)
        assert all(query(filt, s) for s in universe)

    @pytest.mark.parametrize("fraction", [0.005, 0.02, 0.05])
    def test_exact_against_brute_force_oracle(self, fraction):
        universe = synthetic_universe(10_000)
        revoked = pick_revoked(universe, fraction, seed=11)
        filt = build_filter(revoked, set(universe), "vendor.com", 3)
        # Brute-force oracle: direct set membership, checked for every
        # serial in the universe in both directions.
        for serial in universe:
            assert query(filt, serial) == (serial in revoked)

    def test_zero_false_negatives_is_structural(self):
        universe = synthetic_universe(2_000)
        revoked = pick_revoked(universe, 0.05, seed=13)
        filt = build_filter(revoked, set(universe), "vendor.com", 1)
        assert all(query(filt, s) for s in revoked)

    def test_query_is_pure(self):
        universe = synthetic_universe(200)
        revoked = pick_revoked(universe, 0.05, seed=17)
        filt = build_filter(revoked, set(universe), "vendor.com", 1)
        probe = universe[0]
        results = {query(filt, probe) for _ in range(50)}
        assert len(results) == 1

    def test_revoked_not_issued_rejected(self):
        universe = set(synthetic_universe(100))
        with pytest.raises(RevokedNotIssued):
            build_filter({"deadbeef"}, universe, "vendor.com", 1)

    def test_size_ratio_within_bound_at_2_percent(self):
        universe = synthetic_universe(10_000)
        revoked = pick_revoked(universe, 0.02, seed=19)
        filt = build_filter(revoked, set(universe), "vendor.com", 1)
        blob = serialize(filt)
        raw = "\n".join(sorted(revoked)).encode()
        ratio = len(blob) / len(raw)
        assert ratio <= 0.10, f"filter {len(blob)}B vs raw {len(raw)}B = {ratio:.3f}"


class TestSerialization:
    def _sample_filter(self):
        universe = synthetic_universe(1_000)
        revoked = pick_revoked(universe, 0.03, seed=23)
        return build_filter(revoked, set(universe), "vendor.com", 7)

    def test_round_trip_byte_exact(self):
        filt = self._sample_filter()
        blob = serialize(filt)
        restored = deserialize(blob)
        assert restored == filt
        assert serialize(restored) == blob

    def test_header_magic(self):
        assert serialize(self._sample_filter())[:8] == MAGIC == b"ATLSCRL1"

    def test_flipped_bit_detected(self):
        blob = bytearray(serialize(self._sample_filter()))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CorruptFilter):
            deserialize(bytes(blob))

    def test_bad_magic_and_version(self):
        blob = serialize(self._sample_filter())
        with pytest.raises(CorruptFilter):
            deserialize(b"XXXXXXX1" + blob[8:])
        with pytest.raises(VersionMismatch):
            deserialize(b"ATLSCRL2" + blob[8:])

    def test_truncated_rejected(self):
        blob = serialize(self._sample_filter())
        with pytest.raises(CorruptFilter):
            deserialize(blob[:20])

    def test_deterministic_build(self):
        universe = synthetic_universe(2_000)
        revoked = pick_revoked(universe, 0.02, seed=29)
        a = serialize(build_filter(revoked, set(universe), "vendor.com", 5))
        b = serialize(build_filter(revoked, set(universe), "vendor.com", 5))
        assert a == b

    def test_epoch_changes_bytes(self):
        universe = synthetic_universe(2_000)
        revoked = pick_revoked(universe, 0.02, seed=29)
        a = serialize(build_filter(revoked, set(universe), "vendor.com", 5))
        b = serialize(build_filter(revoked, set(universe), "vendor.com", 6))
        assert a != b


class TestFormatPin:
    """Format v1 byte for byte: the hashes were taken with the original
    probe, the one copied below as ``old_indexes``."""

    def test_synthetic_universe_blob(self):
        universe = synthetic_universe(2_000)
        revoked = pick_revoked(universe, 0.02, seed=29)
        blob = serialize(build_filter(revoked, set(universe), "vendor.com", 5))
        assert len(blob) == 300
        assert hashlib.sha256(blob).hexdigest() == (
            "5b91a6ed7d9f2366a7abe387accdbcc7fbb415a769532bd254fda176b3642aad"
        )

    def test_ca_style_universe_blob(self):
        universe = [format(0xC0FFEE0000000000 + i, "x") for i in range(1, 5_001)]
        blob = serialize(build_filter(set(universe[::50]), set(universe), "véndor.example", 3))
        assert len(blob) == 367
        assert hashlib.sha256(blob).hexdigest() == (
            "8af72b6d2fa6665391f5514704e67aa4cc0452c846715494d05faee15cdd882d"
        )

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 8195])
    def test_universe_digest_hashes_the_joined_universe(self, size):
        universe = synthetic_universe(size)
        filter_ = build_filter({universe[0]}, set(universe), "vendor.com", 1)
        assert filter_.universe_digest == hashlib.sha256("\n".join(universe).encode()).digest()


# The probe as first written: a generator of double-hashing positions and
# all() over it. The rewritten probe must set and test the same bits.

def old_indexes(serial: str, seed: bytes, num_hashes: int, num_bits: int):
    digest = hashlib.sha256(seed + serial.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    return ((h1 + i * h2) % num_bits for i in range(num_hashes))


def old_bits(members: list[str], num_bits: int, num_hashes: int, seed: bytes) -> bytes:
    array = bytearray((num_bits + 7) // 8)
    for member in members:
        for index in old_indexes(member, seed, num_hashes, num_bits):
            array[index >> 3] |= 1 << (index & 7)
    return bytes(array)


def old_contains(level: BloomLevel, serial: str) -> bool:
    return all(
        level.bits[i >> 3] & (1 << (i & 7))
        for i in old_indexes(serial, level.seed, level.num_hashes, level.num_bits)
    )


def old_query(filter_: RevocationFilter, serial: str) -> bool:
    for level_number, level in enumerate(filter_.levels, start=1):
        if not old_contains(level, serial):
            return level_number % 2 == 0
    return len(filter_.levels) % 2 == 1


def single_level_filter(level: BloomLevel) -> RevocationFilter:
    return RevocationFilter(vendor_id="v", epoch=1, levels=(level,), universe_digest=bytes(32))


serials = st.text(max_size=24)
# Outside serials past ASCII: two-, three- and four-byte UTF-8 and a NUL.
NON_ASCII_SERIALS = ["vendör-ab01", "\u0661\u0662", "\U0001f512", "\xff\x00"]
seeds = st.binary(min_size=SEED_BYTES, max_size=SEED_BYTES)


@st.composite
def levels(draw) -> BloomLevel:
    """A level of 1 to 64 bits, any bits set and up to 255 hashes."""
    num_bits = draw(st.integers(1, 64))
    bits = draw(st.binary(min_size=(num_bits + 7) // 8, max_size=(num_bits + 7) // 8))
    return BloomLevel(bits=bits, num_bits=num_bits, num_hashes=draw(st.integers(1, 255)),
                      seed=draw(seeds))


class TestProbeMatchesOldCode:
    @given(st.lists(serials, max_size=30), st.floats(1e-12, 1.0), seeds)
    def test_build_sets_the_same_bits(self, members, fp_rate, seed):
        level = BloomLevel.build(members, fp_rate, seed)
        if members:
            assert level.bits == old_bits(members, level.num_bits, level.num_hashes, seed)

    @given(levels(), st.lists(serials, max_size=8))
    def test_contains_and_query_answer_alike(self, level, probes):
        filt = single_level_filter(level)
        for serial in probes:
            assert bool(level.hits([serial])) == old_contains(level, serial)
            assert query(filt, serial) == old_query(filt, serial)
        assert level.hits(probes) == [s for s in probes if old_contains(level, s)]

    def test_eight_bit_levels(self):
        level = BloomLevel.build(["aa01", "aa02", "aa03"], 0.5, b"seedseed")
        assert level.num_bits == 8
        assert level.bits == old_bits(["aa01", "aa02", "aa03"], 8, level.num_hashes, b"seedseed")
        for i in range(256):
            assert bool(level.hits([f"{i:x}"])) == old_contains(level, f"{i:x}")

    @pytest.mark.parametrize("num_bits", [1, 3, 5, 7, 9, 11])
    def test_step_divisible_by_m_probes_one_bit(self, num_bits):
        """When m divides h2 | 1, every position is h1 mod m."""
        seed = b"seedseed"
        for i in range(10_000):
            serial = f"probe-{i}"
            digest = hashlib.sha256(seed + serial.encode()).digest()
            h1, h2 = struct.unpack("!QQ", digest[:16])
            if (h2 | 1) % num_bits == 0:
                break
        else:
            pytest.fail(f"no serial with a step divisible by {num_bits}")
        assert set(old_indexes(serial, seed, 5, num_bits)) == {h1 % num_bits}
        nbytes = (num_bits + 7) // 8
        only_that_bit = (1 << (h1 % num_bits)).to_bytes(nbytes, "little")
        for bits in (only_that_bit, bytes(nbytes)):
            level = BloomLevel(bits=bits, num_bits=num_bits, num_hashes=5, seed=seed)
            expected = bits == only_that_bit
            assert bool(level.hits([serial])) is expected
            assert old_contains(level, serial) is expected

    @given(
        st.sets(serials, min_size=1, max_size=60),
        st.data(),
        st.lists(serials, max_size=20),
        st.integers(0, 2**32 - 1),
    )
    def test_built_cascades_answer_alike(self, universe, data, outside, epoch):
        revoked = data.draw(st.sets(st.sampled_from(sorted(universe))))
        built = build_filter(revoked, universe, "vendör", epoch)
        loaded = deserialize(serialize(built))
        for filt in (built, loaded):
            for serial in sorted(universe) + outside + NON_ASCII_SERIALS:
                assert query(filt, serial) == old_query(filt, serial)
            for serial in universe:
                assert query(filt, serial) == (serial in revoked)

    @given(levels())
    @example(BloomLevel(bits=b"\xa5\x03", num_bits=10, num_hashes=1, seed=bytes(SEED_BYTES)))
    @example(BloomLevel(bits=b"\x80", num_bits=1, num_hashes=1, seed=bytes(SEED_BYTES)))
    def test_lookup_holds_each_bit_in_one_byte(self, level):
        assert len(level.lookup) == level.num_bits
        for i in range(level.num_bits):
            assert level.lookup[i] == (level.bits[i >> 3] >> (i & 7)) & 1


def reseal(body: bytes) -> bytes:
    """``body`` behind a valid SHA-256 trailer: the checksum holds, so only
    the field checks stand between the blob and a query."""
    return body + hashlib.sha256(body).digest()


def framed(vendor: bytes, levels: list[tuple[int, int, bytes]]) -> bytes:
    """A resealed blob with well-framed fields: (num_bits, num_hashes, bits)
    per level, any values."""
    out = MAGIC + struct.pack("!H", len(vendor)) + vendor + struct.pack("!I", 1) + bytes(32)
    out += struct.pack("!H", len(levels))
    for num_bits, num_hashes, bits in levels:
        out += struct.pack("!IB", num_bits, num_hashes) + bytes(SEED_BYTES)
        out += struct.pack("!I", len(bits)) + bits
    return reseal(out)


def assert_queryable_or_corrupt(blob: bytes, serial: str) -> None:
    try:
        filt = deserialize(blob)
    except CorruptFilter:
        return
    assert query(filt, serial) in (True, False)


class TestResealedBlobs:
    """Blobs whose checksum holds but whose fields would crash a query."""

    @pytest.mark.parametrize(
        "blob",
        [
            framed(b"\xff\xfe", [(8, 1, b"\x01")]),
            framed(b"vendor.com", [(0, 1, b"")]),
            framed(b"vendor.com", [(8, 0, b"\x01")]),
            framed(b"vendor.com", [(64, 3, b"\x01")]),
            framed(b"vendor.com", [(8, 1, b"\x01\x02")]),
            framed(b"vendor.com", [(8, 1, b"\xff")] * (MAX_LEVELS + 1)),
        ],
        ids=[
            "vendor-not-utf8", "zero-bits", "zero-hashes", "short-bits", "long-bits",
            "too-many-levels",
        ],
    )
    def test_malformed_level_is_corrupt(self, blob):
        with pytest.raises(CorruptFilter):
            deserialize(blob)

    @pytest.mark.parametrize(
        "cut, message", [(-1, "truncated level bits"), (1, "1 trailing bytes")], ids=["short-body", "trailing-byte"]
    )
    def test_misframed_body_is_corrupt(self, cut, message):
        body = framed(b"vendor.com", [(8, 1, b"\x01")])[:-32]  # the fields, without the checksum
        body = body[:cut] if cut < 0 else body + bytes(cut)
        with pytest.raises(CorruptFilter, match=message):
            deserialize(reseal(body))

    def test_most_levels_a_build_makes_still_parse(self):
        filt = deserialize(framed(b"vendor.com", [(8, 1, b"\xff")] * MAX_LEVELS))
        assert len(filt.levels) == MAX_LEVELS
        assert query(filt, "aa01") is (MAX_LEVELS % 2 == 1)

    def test_well_framed_blob_still_parses(self):
        assert query(deserialize(framed(b"vendor.com", [(8, 1, b"\xff")])), "aa01") is True

    @given(st.binary(), st.text())
    def test_any_bytes_after_magic_query_or_are_corrupt(self, tail, serial):
        assert_queryable_or_corrupt(reseal(MAGIC + tail), serial)

    @given(
        st.binary(max_size=12),
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 255), st.binary(max_size=40)),
            max_size=4,
        ),
        st.text(),
    )
    def test_any_well_framed_fields_query_or_are_corrupt(self, vendor, levels, serial):
        assert_queryable_or_corrupt(framed(vendor, levels), serial)


class TestBloomLevel:
    def test_no_false_negatives_ever(self):
        members = synthetic_universe(300)
        level = BloomLevel.build(members, 0.01, b"seedseed")
        assert all(level.hits([m]) for m in members)

    def test_fp_rate_roughly_respected(self):
        members = synthetic_universe(1_000)
        level = BloomLevel.build(members, 0.01, b"seedseed")
        probes = [f"probe-{i}" for i in range(20_000)]
        fp = len(level.hits(probes)) / len(probes)
        assert fp < 0.03

    @pytest.mark.parametrize(
        "num_bits, num_hashes, bits, message",
        [
            (8, 0, b"\x01", "empty level: 8 bits, 0 hashes"),
            (0, 1, b"", "empty level: 0 bits, 1 hashes"),
            (9, 1, b"\x01", "level of 9 bits stored in 1 bytes"),
            (8, 1, b"\x01\x02", "level of 8 bits stored in 2 bytes"),
        ],
        ids=["zero-hashes", "zero-bits", "short-bits", "long-bits"],
    )
    def test_misshapen_level_is_corrupt(self, num_bits, num_hashes, bits, message):
        with pytest.raises(CorruptFilter, match=f"^{message}$"):
            BloomLevel(bits=bits, num_bits=num_bits, num_hashes=num_hashes, seed=b"seedseed")

    def test_empty_level_contains_nothing(self):
        level = BloomLevel.build([], 0.5, b"seedseed")
        assert not level.hits(["anything"])


def fleet_inventory(serials: list[str], revoked: set[str]) -> Inventory:
    """One device per serial, REVOKED where its serial is in ``revoked``."""
    t0 = datetime(2026, 1, 1, tzinfo=timezone.utc)
    ns = VendorNamespace("vendor.com", "sensor")
    inventory = Inventory()
    for serial in serials:
        urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(f"revocation-log-{serial}".encode())), ns)
        inventory.upsert_device(urn, now=t0)
        meta = CertificateMeta(serial, t0, t0 + timedelta(days=1), "ab" * 32, t0, "public chain")
        inventory.attach_certificate(urn.uuid, meta)
        if serial in revoked:
            inventory.set_state(urn.uuid, RenewalState.REVOKED)
    return inventory


class TestRevocationLog:
    def test_publish_epoch_strictly_increases(self):
        log = RevocationLog("vendor.com")
        inventory = fleet_inventory(["aa01", "aa02", "aa03"], {"aa01"})
        first = log.publish(inventory)
        second = log.publish(inventory)
        assert (first.epoch, second.epoch) == (1, 2)

    def test_published_filter_reflects_log(self):
        log = RevocationLog("vendor.com")
        inventory = fleet_inventory([f"{i:04x}" for i in range(64)], {"0001", "0002"})
        filt = log.publish(inventory)
        assert query(filt, "0001") and query(filt, "0002")
        assert not query(filt, "0003")
