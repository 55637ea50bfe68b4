"""Zone data model for the vendor's authoritative nameserver.

One zone per vendor root domain. Supported record types are A, CNAME,
and TXT; that is all the provisioning flow needs (device CNAME bindings,
cloud endpoint A records, ACME DNS-01 TXT proofs).

CNAME exclusivity is enforced as in RFC 1034 section 3.6.2: a name that
owns a CNAME owns nothing else.
"""

from __future__ import annotations

import ipaddress
import re
import threading
from dataclasses import dataclass
from enum import IntEnum

from ..errors import IotPkiError

DEFAULT_TTL = 60
ACME_LABEL = "_acme-challenge"

# RFC 1035 labels, lowercased, plus a leading underscore for service
# labels such as _acme-challenge.
_LABEL_RE = re.compile(r"_?[a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?")


class OutOfZone(IotPkiError):
    pass


class CnameConflict(IotPkiError):
    pass


class InvalidRecord(IotPkiError):
    pass


class RType(IntEnum):
    """Record/query type codes (RFC 1035 values)."""

    A = 1
    CNAME = 5
    TXT = 16


class Rcode(IntEnum):
    """Response codes (RFC 1035 values)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


def normalize_name(name: str) -> str:
    """Lowercase, strip the trailing dot, validate label shape."""
    name = name.rstrip(".").lower()
    if not name or len(name) > 253:
        raise InvalidRecord(f"bad name length: {name!r}")
    for label in name.split("."):
        if len(label) > 63 or not _LABEL_RE.fullmatch(label):
            raise InvalidRecord(f"bad label {label!r} in {name!r}")
    return name


@dataclass(frozen=True)
class ZoneRecord:
    name: str
    rtype: RType
    value: str
    ttl: int = DEFAULT_TTL


@dataclass(frozen=True)
class DnsResponse:
    rcode: Rcode
    answers: tuple[ZoneRecord, ...]


class Zone:
    """Record store for one apex, with a strictly monotone serial.

    Reads and writes share one lock; queries copy what they need and
    never mutate, so the UDP responder can answer concurrently.
    """

    def __init__(self, apex: str) -> None:
        self.apex = normalize_name(apex)
        self._records: dict[str, list[ZoneRecord]] = {}
        self._serial = 1
        self._lock = threading.RLock()

    @property
    def serial(self) -> int:
        with self._lock:
            return self._serial

    def _in_zone(self, name: str) -> bool:
        return name == self.apex or name.endswith("." + self.apex)

    def _require_in_zone(self, name: str) -> str:
        name = normalize_name(name)
        if not self._in_zone(name):
            raise OutOfZone(f"{name} is not under {self.apex}")
        return name

    # -- mutations -----------------------------------------------------

    def set_record(self, name: str, rtype: RType, value: str) -> ZoneRecord:
        """Install one record. CNAME and TXT replace any same-type record
        at the name (last write wins); A records accumulate."""
        name = self._require_in_zone(name)
        value = _validate_value(rtype, value)
        record = ZoneRecord(name, rtype, value)
        with self._lock:
            existing = self._records.get(name, [])
            if rtype is RType.CNAME and any(r.rtype is not RType.CNAME for r in existing):
                raise CnameConflict(f"{name} already has non-CNAME records")
            if rtype is not RType.CNAME and any(r.rtype is RType.CNAME for r in existing):
                raise CnameConflict(f"{name} is a CNAME")
            if record in existing:
                return record
            if rtype in (RType.CNAME, RType.TXT):
                kept = [r for r in existing if r.rtype is not rtype]
            else:
                kept = list(existing)
            self._records[name] = kept + [record]
            self._serial += 1
            return record

    def remove(self, name: str, rtype: RType) -> None:
        name = self._require_in_zone(name)
        with self._lock:
            existing = self._records.get(name, [])
            kept = [r for r in existing if r.rtype is not rtype]
            if len(kept) == len(existing):
                return
            if kept:
                self._records[name] = kept
            else:
                del self._records[name]
            self._serial += 1

    def bind_device(self, urn, cloud_target: str) -> ZoneRecord:
        """Register a device subdomain as a CNAME to the vendor cloud."""
        return self.set_record(str(urn), RType.CNAME, cloud_target)

    def set_acme_txt(self, fqdn: str, txt_value: str) -> ZoneRecord:
        return self.set_record(f"{ACME_LABEL}.{fqdn}", RType.TXT, txt_value)

    def clear_acme_txt(self, fqdn: str) -> None:
        self.remove(f"{ACME_LABEL}.{fqdn}", RType.TXT)

    # -- queries ---------------------------------------------------------

    def answer_query(self, name: str, rtype: RType) -> DnsResponse:
        """Authoritative answer: exact match only, CNAMEs chased in-zone.

        Unknown name -> NXDOMAIN; known name without the asked type ->
        NOERROR with an empty answer section.
        """
        try:
            name = normalize_name(name)
        except InvalidRecord:
            return DnsResponse(Rcode.FORMERR, ())
        answers: list[ZoneRecord] = []
        seen: set[str] = set()
        with self._lock:
            current = name
            while True:
                records = self._records.get(current)
                if records is None:
                    if not answers:
                        return DnsResponse(Rcode.NXDOMAIN, ())
                    break
                cname = next((r for r in records if r.rtype is RType.CNAME), None)
                if cname is not None and rtype is not RType.CNAME:
                    answers.append(cname)
                    seen.add(current)
                    current = cname.value
                    if current in seen or not self._in_zone(current):
                        break
                    continue
                answers.extend(r for r in records if r.rtype is rtype)
                break
        return DnsResponse(Rcode.NOERROR, tuple(answers))

    def records(self) -> list[ZoneRecord]:
        with self._lock:
            out = [r for recs in self._records.values() for r in recs]
        return sorted(out, key=lambda r: (r.name, int(r.rtype), r.value))


def _validate_value(rtype: RType, value: str) -> str:
    if rtype is RType.A:
        try:
            ipaddress.IPv4Address(value)
        except ValueError as exc:
            raise InvalidRecord(f"bad IPv4 address {value!r}") from exc
        return value
    if rtype is RType.CNAME:
        return normalize_name(value)
    if len(value.encode("utf-8")) > 255:
        raise InvalidRecord("TXT string exceeds 255 octets")
    return value
