"""Vendor-side device registry: identity, certificate metadata, renewal state.

The registry is the metadata table the provisioning backend consults for
policy enforcement. It never holds private-key material; the snapshot
writer refuses to persist anything that looks like a key block.

Snapshot format (external interface): a header line ``ATLASINV v1``, one
compact JSON object per record line, and a ``sha256 <hex>`` trailer over
all preceding bytes. Timestamps are RFC 3339 UTC. ``"superseded"`` lists
the serials a record's certificate replaced; older lines lack it and read
as none. A ``"state"`` of ``in_progress`` or ``expired``, which older
versions wrote, reads as ``due``. Each snapshot is a synced temporary file
renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid as uuidlib
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path

from .errors import IoFailure, IotPkiError
from .identity import DeviceUrn, MalformedUrn, parse_urn

SNAPSHOT_HEADER = "ATLASINV v1"
MAX_CERT_LIFETIME = timedelta(days=90)
RENEWAL_WINDOW = timedelta(days=30)

_KEY_BLOCK_MARKER = "PRIVATE KEY"


class StorageFailure(IotPkiError):
    pass


class UnknownDevice(IotPkiError):
    pass


class AlreadyRevoked(IotPkiError):
    pass


class InvalidMeta(IotPkiError):
    pass


class CorruptSnapshot(IotPkiError):
    pass


class RenewalState(str, Enum):
    CURRENT = "current"
    DUE = "due"
    REVOKED = "revoked"


# The states that older versions wrote, and what each reads as.
_LEGACY_STATES = {"in_progress": "due", "expired": "due"}


def to_rfc3339(dt: datetime) -> str:
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def from_rfc3339(s: str) -> datetime:
    """A time with no zone is read as UTC, as ``to_rfc3339`` writes it,
    whatever the host's zone."""
    dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def utcnow() -> datetime:
    """Wall-clock UTC: the one default for every injectable clock."""
    return datetime.now(timezone.utc)


@dataclass(frozen=True)
class CertificateMeta:
    """Metadata for one issued certificate (the certificate itself is
    public material and rides along as PEM)."""

    serial: str
    not_before: datetime
    not_after: datetime
    public_key_fingerprint: str
    issuance_time: datetime
    pem_chain: str

    def __post_init__(self) -> None:
        if self.not_before >= self.not_after:
            raise InvalidMeta(
                f"not_before {self.not_before} is not earlier than not_after {self.not_after}"
            )
        if self.not_after - self.not_before > MAX_CERT_LIFETIME:
            raise InvalidMeta(
                f"lifetime {self.not_after - self.not_before} exceeds 90 days"
            )
        if _KEY_BLOCK_MARKER in self.pem_chain:
            raise InvalidMeta("certificate metadata must not carry key material")


@dataclass(frozen=True)
class DeviceRecord:
    urn: DeviceUrn
    uuid: uuidlib.UUID
    current_cert: CertificateMeta | None
    renewal_state: RenewalState
    gateway_delegation: str | None
    created_at: datetime
    superseded: tuple[str, ...] = ()

    @property
    def serials(self) -> tuple[str, ...]:
        """Every serial the device has held: superseded ones, then the current one."""
        return self.superseded + ((self.current_cert.serial,) if self.current_cert else ())


class Inventory:
    """In-memory registry with checksummed single-file snapshots.

    Concurrency: many threads write at once (``enroll_batch``'s pool
    does), and every mutation takes the one internal lock; reads hand out
    frozen copies. No state marks a renewal in flight.
    """

    def __init__(self) -> None:
        self._records: dict[uuidlib.UUID, DeviceRecord] = {}
        self._lock = threading.RLock()

    # -- mutations ---------------------------------------------------------

    def upsert_device(self, urn: DeviceUrn, now: datetime) -> DeviceRecord:
        """Create (or return) the record keyed by the URN's UUID. Idempotent."""
        with self._lock:
            existing = self._records.get(urn.uuid)
            if existing is not None:
                return existing
            record = DeviceRecord(
                urn=urn,
                uuid=urn.uuid,
                current_cert=None,
                renewal_state=RenewalState.DUE,
                gateway_delegation=None,
                created_at=now,
            )
            self._records[urn.uuid] = record
            return record

    def attach_certificate(self, device_uuid: uuidlib.UUID, meta: CertificateMeta) -> DeviceRecord:
        """Make ``meta`` current; the certificate it replaces is superseded."""
        with self._lock:
            held = self._require(device_uuid).serials
            return self._update(
                device_uuid, current_cert=meta, superseded=held, renewal_state=RenewalState.CURRENT
            )

    def set_state(self, device_uuid: uuidlib.UUID, state: RenewalState) -> DeviceRecord:
        return self._update(device_uuid, renewal_state=state)

    def revoke(self, device_uuid: uuidlib.UUID) -> CertificateMeta:
        """Check and mark a device REVOKED under one lock; returns its current certificate.
        AlreadyRevoked if it is revoked, UnknownDevice if it has no record or certificate."""
        with self._lock:
            record = self._require(device_uuid)
            if record.renewal_state is RenewalState.REVOKED:
                raise AlreadyRevoked(f"device {device_uuid} already revoked")
            if record.current_cert is None:
                raise UnknownDevice(f"device {device_uuid} has no certificate on file")
            self._update(device_uuid, renewal_state=RenewalState.REVOKED)
            return record.current_cert

    def set_delegation(self, device_uuid: uuidlib.UUID, delegation_b64: str | None) -> DeviceRecord:
        return self._update(device_uuid, gateway_delegation=delegation_b64)

    def _update(self, device_uuid: uuidlib.UUID, **changes) -> DeviceRecord:
        """Revocation is final: a REVOKED record keeps its state, so every serial it gets stays revoked."""
        with self._lock:
            record = self._require(device_uuid)
            if record.renewal_state is RenewalState.REVOKED:
                changes.pop("renewal_state", None)
            record = replace(record, **changes)
            self._records[device_uuid] = record
            return record

    # -- reads -------------------------------------------------------------

    def get(self, device_uuid: uuidlib.UUID) -> DeviceRecord:
        with self._lock:
            return self._require(device_uuid)

    def records(self) -> list[DeviceRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: str(r.uuid))

    def __len__(self) -> int:
        return len(self._records)

    def due_for_renewal(self, now: datetime) -> list[DeviceRecord]:
        """Records whose cert expires within RENEWAL_WINDOW and that are not
        revoked. Marks nothing."""
        out = []
        with self._lock:
            for record in self._records.values():
                if record.current_cert is None or record.renewal_state is RenewalState.REVOKED:
                    continue
                if record.current_cert.not_after - now <= RENEWAL_WINDOW:
                    out.append(record)
        return sorted(out, key=lambda r: str(r.uuid))

    def serials(self) -> tuple[set[str], set[str]]:
        """(issued, revoked): every serial the records hold, and those of REVOKED records."""
        records = self.records()
        issued = {s for r in records for s in r.serials}
        revoked = {s for r in records if r.renewal_state is RenewalState.REVOKED for s in r.serials}
        return issued, revoked

    def _require(self, device_uuid: uuidlib.UUID) -> DeviceRecord:
        record = self._records.get(device_uuid)
        if record is None:
            raise UnknownDevice(str(device_uuid))
        return record

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, path: str | Path) -> None:
        lines = [json.dumps(_record_to_obj(record), separators=(",", ":")) for record in self.records()]
        body = "\n".join([SNAPSHOT_HEADER, *lines]) + "\n"
        if _KEY_BLOCK_MARKER in body:
            raise StorageFailure("refusing to persist key material")
        data = body.encode("utf-8")
        data += f"sha256 {hashlib.sha256(data).hexdigest()}\n".encode()
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as fp:
                fp.write(data)
                fp.flush()
                os.fsync(fp.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def restore(cls, path: str | Path) -> "Inventory":
        """Read a snapshot back. Whatever its bytes, this returns an
        Inventory or raises CorruptSnapshot (or IoFailure when the file
        cannot be read)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptSnapshot(f"snapshot is not UTF-8: {exc}") from exc
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        lines = text.splitlines(keepends=True)
        if not lines or not lines[-1].startswith("sha256 "):
            raise CorruptSnapshot("missing checksum trailer")
        body = "".join(lines[:-1])
        expected = lines[-1].split(" ", 1)[1].strip()
        if hashlib.sha256(body.encode("utf-8")).hexdigest() != expected:
            raise CorruptSnapshot("checksum mismatch")
        record_lines = body.splitlines()
        if not record_lines or record_lines[0] != SNAPSHOT_HEADER:
            raise CorruptSnapshot(f"bad header: {record_lines[:1]!r}")
        inv = cls()
        for line in record_lines[1:]:
            # A line of the wrong shape fails in whichever accessor meets it
            # first: a non-object record, a field of the wrong type, nesting
            # too deep to parse, a date out of range, or content the record
            # types reject.
            try:
                record = _record_from_obj(json.loads(line))
            except (
                ValueError, KeyError, TypeError, AttributeError, RecursionError,
                OverflowError, InvalidMeta, MalformedUrn,
            ) as exc:
                raise CorruptSnapshot(f"bad record line: {exc}") from exc
            inv._records[record.uuid] = record
        return inv


def _record_to_obj(record: DeviceRecord) -> dict:
    cert = record.current_cert
    return {
        "uuid": str(record.uuid),
        "urn": str(record.urn),
        "state": record.renewal_state.value,
        "created_at": to_rfc3339(record.created_at),
        "delegation": record.gateway_delegation,
        "superseded": list(record.superseded),
        "cert": None
        if cert is None
        else {
            "serial": cert.serial,
            "not_before": to_rfc3339(cert.not_before),
            "not_after": to_rfc3339(cert.not_after),
            "fingerprint": cert.public_key_fingerprint,
            "issued_at": to_rfc3339(cert.issuance_time),
            "pem": cert.pem_chain,
        },
    }


def _typed(value, name: str, kind: type = str):
    if not isinstance(value, kind):
        raise TypeError(f"{name} is not a {kind.__name__}: {value!r:.40}")
    return value


def _record_from_obj(obj: dict) -> DeviceRecord:
    cert_obj = obj.get("cert")
    cert = None
    if cert_obj is not None:
        cert = CertificateMeta(
            serial=_typed(cert_obj["serial"], "serial"),
            not_before=from_rfc3339(cert_obj["not_before"]),
            not_after=from_rfc3339(cert_obj["not_after"]),
            public_key_fingerprint=_typed(cert_obj["fingerprint"], "fingerprint"),
            issuance_time=from_rfc3339(cert_obj["issued_at"]),
            pem_chain=_typed(cert_obj["pem"], "pem"),
        )
    urn = parse_urn(obj["urn"])
    if uuidlib.UUID(_typed(obj["uuid"], "uuid")) != urn.uuid:
        raise ValueError(f"uuid {obj['uuid']} is not the uuid of {urn}")
    delegation = obj.get("delegation")
    superseded = _typed(obj.get("superseded", []), "superseded", list)
    return DeviceRecord(
        urn=urn,
        uuid=urn.uuid,
        current_cert=cert,
        renewal_state=RenewalState(_LEGACY_STATES.get(obj["state"], obj["state"])),
        gateway_delegation=None if delegation is None else _typed(delegation, "delegation"),
        created_at=from_rfc3339(obj["created_at"]),
        superseded=tuple(_typed(serial, "superseded serial") for serial in superseded),
    )
