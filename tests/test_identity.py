"""Identity derivation and URN grammar tests.

The UUIDv5 primitive is cross-checked against a manual RFC 4122
construction (SHA-1 over namespace bytes + name, version/variant bits
patched in) that shares no code with the implementation path.
"""

from __future__ import annotations

import hashlib
import random
import uuid

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotpki.certs import build_csr, generate_key
from iotpki.identity import (
    MAX_FQDN_OCTETS,
    NS_DNS,
    DeviceSecret,
    DeviceUrn,
    FqdnTooLong,
    InvalidNamespace,
    MalformedUrn,
    VendorNamespace,
    WeakSecret,
    derive_device_uuid,
    parse_urn,
)


def manual_uuid5(namespace: uuid.UUID, name: str) -> str:
    """Independent RFC 4122 v5 oracle: SHA-1, then patch version/variant."""
    digest = bytearray(hashlib.sha1(namespace.bytes + name.encode("utf-8")).digest()[:16])
    digest[6] = (digest[6] & 0x0F) | 0x50
    digest[8] = (digest[8] & 0x3F) | 0x80
    h = digest.hex()
    return f"{h[0:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}"


# Frozen vectors: computed with manual_uuid5 above and double-checked
# against the stdlib before the implementation existed.
KNOWN_VECTORS = [
    ("python.org", "886313e1-3b8a-5372-9b90-0c9aee199e5d"),
    ("www.example.org", "74738ff5-5367-5958-9aee-98fffdcd1876"),
    ("example.com", "cfbff0d1-9375-5685-968c-48ce8b15ae17"),
]


class TestUuidPrimitive:
    @pytest.mark.parametrize("name,expected", KNOWN_VECTORS)
    def test_known_vectors(self, name, expected):
        assert str(uuid.uuid5(NS_DNS, name)) == expected
        assert manual_uuid5(NS_DNS, name) == expected

    def test_oracle_agrees_on_random_names(self):
        rng = random.Random(0x1D5)
        for _ in range(200):
            name = "".join(rng.choice("abcdefghij.-") for _ in range(rng.randint(1, 40)))
            assert manual_uuid5(NS_DNS, name) == str(uuid.uuid5(NS_DNS, name))


class TestDeriveDeviceUuid:
    NS = VendorNamespace("vendor.com", "camera")

    def test_deterministic(self):
        secret = DeviceSecret(b"AABBCCDDEEFF0011")
        assert derive_device_uuid(self.NS, secret) == derive_device_uuid(self.NS, secret)

    def test_matches_frozen_oracle_value(self):
        # Oracle chain: sha256("vendor.com" + 0x00 + secret) hex digest fed
        # to manual_uuid5. Frozen: ec3ae0c1-b340-5ae2-90e5-04b4afd624e7.
        secret = DeviceSecret(b"AABBCCDDEEFF0011")
        got = derive_device_uuid(self.NS, secret)
        assert str(got) == "ec3ae0c1-b340-5ae2-90e5-04b4afd624e7"
        name = hashlib.sha256(b"vendor.com\x00AABBCCDDEEFF0011").hexdigest()
        assert manual_uuid5(NS_DNS, name) == str(got)

    def test_version_and_variant_bits(self):
        rng = random.Random(7)
        for _ in range(500):
            secret = DeviceSecret(bytes(rng.getrandbits(8) for _ in range(16)))
            u = derive_device_uuid(self.NS, secret)
            assert u.version == 5
            assert u.bytes[8] & 0xC0 == 0x80

    def test_weak_secret_rejected(self):
        with pytest.raises(WeakSecret):
            DeviceSecret(b"too-short")

    def test_collision_discipline(self):
        # 1e5 distinct random secrets under one namespace: all UUIDs distinct.
        rng = random.Random(0xC0FFEE)
        seen = set()
        for _ in range(100_000):
            u = derive_device_uuid(
                self.NS, DeviceSecret(rng.getrandbits(128).to_bytes(16, "big"))
            )
            seen.add(u)
        assert len(seen) == 100_000

    def test_separator_prevents_boundary_ambiguity(self):
        # Moving bytes across the domain/secret boundary changes the hash
        # input thanks to the 0x00 separator.
        a = derive_device_uuid(
            VendorNamespace("vendor.com", "camera"), DeviceSecret(b"xAABBCCDDEEFF001")
        )
        b = derive_device_uuid(
            VendorNamespace("vendor.comx", "camera"), DeviceSecret(b"AABBCCDDEEFF0011")
        )
        assert a != b


class TestMacSecret:
    def test_eui48_expands_to_16_bytes(self):
        s = DeviceSecret.from_mac("aa:bb:cc:dd:ee:ff")
        assert s.data == b"AABBCCFFFEDDEEFF"

    def test_eui64_passthrough(self):
        s = DeviceSecret.from_mac("01-23-45-67-89-AB-CD-EF")
        assert s.data == b"0123456789ABCDEF"

    @pytest.mark.parametrize("mac", ["aa:bb:cc:dd:ee", "hello world", "", "zz:bb:cc:dd:ee:ff"])
    def test_garbage_rejected(self, mac):
        with pytest.raises(WeakSecret):
            DeviceSecret.from_mac(mac)


class TestNamespaceValidation:
    @pytest.mark.parametrize(
        "domain,cls",
        [
            ("vendor", "camera"),          # single label
            ("-vendor.com", "camera"),     # leading hyphen
            ("vendor.com-", "camera"),     # trailing hyphen in label
            ("ven_dor.com", "camera"),     # underscore
            ("vendor.com", "cam era"),     # space in class
            ("vendor..com", "camera"),     # empty label
            ("a" * 64 + ".com", "camera"),  # label too long
        ],
    )
    def test_invalid(self, domain, cls):
        with pytest.raises(InvalidNamespace):
            VendorNamespace(domain, cls)

    def test_canonicalizes_to_lowercase(self):
        ns = VendorNamespace("Vendor.COM", "Camera")
        assert ns.root_domain == "vendor.com"
        assert ns.device_class == "camera"


class TestUrnFormatParse:
    def test_known_urn_round_trips(self):
        ns = VendorNamespace("vendor.com", "camera")
        u = uuid.UUID("c69f00ac-532c-11ee-87f2-079e7eb2f068")
        s = str(DeviceUrn(u, ns))
        assert s == "c69f00ac-532c-11ee-87f2-079e7eb2f068.camera.vendor.com"
        parsed = parse_urn(s)
        assert parsed.uuid == u
        assert parsed.namespace == ns

    def test_round_trip_random(self):
        rng = random.Random(42)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        for _ in range(300):
            labels = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(2, 4))
            ]
            ns = VendorNamespace(".".join(labels), rng.choice(["camera", "lock", "hub"]))
            u = uuid.UUID(int=rng.getrandbits(128))
            urn = DeviceUrn(uuid=u, namespace=ns)
            assert parse_urn(str(urn)) == urn

    def test_fqdn_too_long(self):
        with pytest.raises(FqdnTooLong):
            long_domain = ".".join(["x" * 60] * 4 + ["com"])
            str(DeviceUrn(uuid.uuid4(), VendorNamespace(long_domain, "camera")))

    def test_urn_is_checked_when_made(self):
        # 36 + 1 + 63 + 1 + 152 = 253 octets; one more is too long.
        u = uuid.UUID("c69f00ac-532c-11ee-87f2-079e7eb2f068")
        root = ".".join(["a" * 63, "b" * 63, "c" * 24])
        assert len(str(DeviceUrn(u, VendorNamespace(root, "d" * 63)))) == MAX_FQDN_OCTETS
        with pytest.raises(FqdnTooLong):
            DeviceUrn(u, VendorNamespace(root + "c", "d" * 63))
        with pytest.raises(MalformedUrn):
            parse_urn(f"{u}.{'d' * 63}.{root}c")

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-uuid.camera.vendor.com",
            "a.b",
            "c69f00ac-532c-11ee-87f2-079e7eb2f068.camera.com",  # 1-label root
            "c69f00ac-532c-11ee-87f2-079e7eb2f068.camera",
            "",
            "c69f00ac-532c-11ee-87f2-079e7eb2f068\n.camera.vendor.com",  # newline after the UUID
            "c69f00ac-532c-11ee-87f2-079e7eb2f068.camera.vendor\n.com",  # newline in a root label
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedUrn):
            parse_urn(bad)


ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
# RFC 1035 labels of every length from 1 to 63, some with inner hyphens.
LABELS = st.integers(1, 63).flatmap(lambda n: st.text(ALNUM, min_size=n, max_size=n)) | st.from_regex(
    r"[a-z0-9][a-z0-9-]{0,61}[a-z0-9]", fullmatch=True
)
ROOTS = st.lists(LABELS, min_size=2, max_size=6).map(".".join)
# URN-shaped text, some of it with a case, space, dot or newline a URN lacks.
URN_LIKE = st.builds(
    lambda u, cls, root, junk: f"{u}.{cls}.{root}{junk}",
    st.uuids().map(str) | st.uuids().map(lambda u: str(u).upper()), LABELS, ROOTS,
    st.sampled_from(["", ".", " ", "\n", "\n.x", ".."]),
)
KEY = generate_key()
U = uuid.UUID("c69f00ac-532c-11ee-87f2-079e7eb2f068")


class TestUrnLength:
    """A URN's length is checked once, when it is made: every URN that
    exists prints within 253 octets, parses back and goes into a CSR."""

    @given(st.uuids(), LABELS, ROOTS)
    @example(U, "d" * 63, ".".join(["a" * 63, "b" * 63, "c" * 24]))  # 253 octets
    @example(U, "d" * 63, ".".join(["a" * 63, "b" * 63, "c" * 25]))  # 254 octets
    def test_urn_is_refused_or_prints_parses_and_signs(self, u, device_class, root):
        ns = VendorNamespace(root, device_class)
        try:
            urn = DeviceUrn(u, ns)
        except FqdnTooLong:
            assert 38 + len(device_class) + len(root) > MAX_FQDN_OCTETS
            return
        text = str(urn)
        assert len(text.encode("ascii")) <= MAX_FQDN_OCTETS
        assert str(DeviceUrn(u, ns)) == text
        assert parse_urn(text) == urn
        build_csr(KEY, text)

    @given(st.text() | URN_LIKE)
    @example(f"{U}\n.camera.vendor.com")
    @example(f"{U}.{'d' * 63}.{'a' * 63}.{'b' * 63}.{'c' * 25}")
    def test_any_text_is_malformed_or_a_printable_urn(self, text):
        try:
            urn = parse_urn(text)
        except MalformedUrn:
            return
        assert len(str(urn)) <= MAX_FQDN_OCTETS
        assert parse_urn(str(urn)) == urn
