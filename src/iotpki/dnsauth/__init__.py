"""Authoritative DNS for the vendor zone.

Submodules:
  zone    -- record store with CNAME/TXT binding operations
  wire    -- RFC 1035 wire-format codec for queries and responses
  server  -- UDP responder that answers each query on its serve thread,
             plus a small stub-resolver client
"""

from .zone import (
    CnameConflict,
    DnsResponse,
    InvalidRecord,
    OutOfZone,
    Rcode,
    RType,
    Zone,
    ZoneRecord,
)
from .server import DnsUdpServer, resolve

__all__ = [
    "CnameConflict",
    "DnsResponse",
    "DnsUdpServer",
    "InvalidRecord",
    "OutOfZone",
    "RType",
    "Rcode",
    "Zone",
    "ZoneRecord",
    "resolve",
]
