"""Device identity derivation and the device URN namespace.

A device identity is a deterministic version 5 UUID computed from the
vendor's root domain and a device-bound secret. The UUID is embedded in
a resolvable FQDN of the form ``<uuid>.<device-class>.<root-domain>``
(the device URN). A URN is checked against the 253-octet FQDN limit once,
when a ``DeviceUrn`` is made; its one place in a certificate or CSR is the
dNSName SAN.
"""

from __future__ import annotations

import hashlib
import re
import uuid
from dataclasses import dataclass

from .errors import IotPkiError

# RFC 4122 DNS namespace, the fixed namespace UUID for name-based derivation.
NS_DNS = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")

MAX_FQDN_OCTETS = 253
MIN_SECRET_BYTES = 16

# RFC 1035 label: letters/digits/hyphen, no leading or trailing hyphen,
# at most 63 octets. Lowercase only (canonical form).
_LABEL_RE = re.compile(r"[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?")
_UUID_RE = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")
_MAC_SEP_RE = re.compile(r"[:\-\.\s]")


class InvalidNamespace(IotPkiError):
    """Vendor namespace has a malformed domain or device-class label."""


class WeakSecret(IotPkiError):
    """Device secret is shorter than the 16-byte minimum."""


class FqdnTooLong(IotPkiError):
    """URN would exceed the 253-octet FQDN limit."""


class MalformedUrn(IotPkiError):
    """String does not parse as ``<uuid>.<device-class>.<root-domain>``."""


def _valid_label(label: str) -> bool:
    return bool(_LABEL_RE.fullmatch(label))


@dataclass(frozen=True)
class VendorNamespace:
    """Vendor-controlled DNS namespace a device identity lives under.

    ``root_domain`` is the vendor's zone (at least two labels, e.g.
    ``vendor.com``); ``device_class`` is a single label acting as a
    semantic separator (e.g. ``camera``). Both are canonicalized to
    lowercase and validated against RFC 1035 label rules.
    """

    root_domain: str
    device_class: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "root_domain", self.root_domain.strip().lower())
        object.__setattr__(self, "device_class", self.device_class.strip().lower())
        labels = self.root_domain.split(".")
        if len(labels) < 2:
            raise InvalidNamespace(
                f"root domain needs at least two labels: {self.root_domain!r}"
            )
        for label in labels:
            if not _valid_label(label):
                raise InvalidNamespace(f"bad domain label: {label!r}")
        if not _valid_label(self.device_class):
            raise InvalidNamespace(f"bad device class: {self.device_class!r}")

    def __str__(self) -> str:
        return f"{self.device_class}.{self.root_domain}"


@dataclass(frozen=True)
class DeviceSecret:
    """Opaque device-bound secret feeding UUID derivation.

    The bytes are either caller-supplied high-entropy values, the hook for
    hardware-backed keys, or derived from provisioning inputs by
    ``from_mac`` (the prototype path). Either way they must be at least 16
    octets.
    """

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) < MIN_SECRET_BYTES:
            raise WeakSecret(
                f"secret is {len(self.data)} bytes, need >= {MIN_SECRET_BYTES}"
            )

    @classmethod
    def from_mac(cls, mac: str) -> "DeviceSecret":
        """Build the prototype synthetic secret from a MAC address.

        Accepts EUI-48 or EUI-64 in the usual textual forms. EUI-48 is
        expanded to EUI-64 by inserting FFFE between the OUI and the
        device bits (the standard IEEE mapping), so the canonical
        uppercase colon-free string is always 16 characters and meets
        the minimum secret length.
        """
        hexstr = _MAC_SEP_RE.sub("", mac).upper()
        if not re.fullmatch(r"[0-9A-F]{12}|[0-9A-F]{16}", hexstr):
            raise WeakSecret(f"not a MAC address: {mac!r}")
        if len(hexstr) == 12:
            hexstr = hexstr[:6] + "FFFE" + hexstr[6:]
        return cls(hexstr.encode("ascii"))


@dataclass(frozen=True)
class DeviceUrn:
    """A UUID plus the vendor namespace it lives in, whose FQDN
    ``<uuid>.<device-class>.<root-domain>`` fits in 253 octets."""

    uuid: uuid.UUID
    namespace: VendorNamespace

    def __post_init__(self) -> None:
        octets = len(str(self))
        if octets > MAX_FQDN_OCTETS:
            raise FqdnTooLong(f"URN is {octets} octets, limit {MAX_FQDN_OCTETS}")

    def __str__(self) -> str:
        return f"{self.uuid}.{self.namespace}"


def derive_device_uuid(ns: VendorNamespace, secret: DeviceSecret) -> uuid.UUID:
    """Derive the deterministic version 5 UUID for a device.

    The UUIDv5 name is the lowercase hex SHA-256 digest of
    ``root_domain || 0x00 || secret``; the 0x00 separator prevents
    boundary-ambiguity collisions between domain and secret bytes.
    """
    name = hashlib.sha256(
        ns.root_domain.encode("ascii") + b"\x00" + secret.data
    ).hexdigest()
    return uuid.uuid5(NS_DNS, name)


def parse_urn(s: str) -> DeviceUrn:
    """Parse a URN string back into its UUID and vendor namespace.

    The leftmost label must be a hyphenated UUID, the next label is the
    device class, and everything after that is the root domain (which
    needs at least two labels of its own). A URN over 253 octets is
    malformed too.
    """
    labels = s.strip().rstrip(".").lower().split(".")
    if len(labels) < 4:
        raise MalformedUrn(f"too few labels in {s!r}")
    uuid_label, class_label = labels[0], labels[1]
    if not _UUID_RE.fullmatch(uuid_label):
        raise MalformedUrn(f"leftmost label is not a UUID: {uuid_label!r}")
    try:
        ns = VendorNamespace(root_domain=".".join(labels[2:]), device_class=class_label)
        return DeviceUrn(uuid=uuid.UUID(uuid_label), namespace=ns)
    except (InvalidNamespace, FqdnTooLong) as exc:
        raise MalformedUrn(str(exc)) from exc
