"""DNS-rooted IoT device identities with an automated certificate
lifecycle: UUIDv5 naming under a vendor domain, ACME issuance against an
embedded test CA, an authoritative DNS responder, mutual-TLS peer
validation backed by compact revocation filters, and a smart-city
latency simulator.

The headline entry points are re-exported here; the full surface lives
in the submodules (`iotpki.identity`, `iotpki.lifecycle`,
`iotpki.peer_auth`, `iotpki.revocation`, `iotpki.simulator`, ...).
"""

from .errors import IotPkiError
from .identity import (
    DeviceSecret,
    DeviceUrn,
    VendorNamespace,
    derive_device_uuid,
    parse_urn,
)

__version__ = "0.1.0"

__all__ = [
    "DeviceSecret",
    "DeviceUrn",
    "IotPkiError",
    "VendorNamespace",
    "derive_device_uuid",
    "parse_urn",
    "__version__",
]
