"""Vendor-side device lifecycle: enrollment, scheduled renewal with key
reuse, and revocation entry.

The FleetManager drives the whole flow against an authoritative zone and
an ACME endpoint. Device private keys live only in returned bundles and
in the in-memory stand-in for per-device keystores; nothing here ever
writes key material into the inventory or any persisted artifact.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import logging
import statistics
import threading
import time
import uuid as uuidlib
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterator

from .acme import AcmeClient, DnsTxtFulfiller, HttpShelfFulfiller
from .certs import (
    build_csr,
    generate_key,
    serial_hex,
    spki_fingerprint,
    split_pem_chain,
)
from .dnsauth import Zone
from .dnsauth.zone import ACME_LABEL
from .errors import IotPkiError
from .identity import MAX_FQDN_OCTETS, DeviceSecret, DeviceUrn, FqdnTooLong, VendorNamespace, derive_device_uuid
from .inventory import AlreadyRevoked, CertificateMeta, DeviceRecord, Inventory, RenewalState, utcnow
from .revocation import RevocationLog

log = logging.getLogger(__name__)

DEFAULT_PARALLELISM = 4
# DNS-01 proves a URN at ``_acme-challenge.<urn>``, which must fit in a name too.
MAX_DNS01_URN_OCTETS = MAX_FQDN_OCTETS - len(ACME_LABEL) - 1


class EnrollmentAborted(IotPkiError):
    """Issuance failed mid-flight; pending challenge records were cleaned up."""


class UnsupportedChallenge(IotPkiError):
    """The manager cannot answer this challenge: dns01, or http01 with a token shelf."""


class RenewalBusy(IotPkiError):
    """A renewal tick is already running; ticks are not re-entrant."""


class EmptyBatch(IotPkiError):
    """enroll_batch requires at least one enrollment request."""


class BadParallelism(IotPkiError):
    """enroll_batch requires at least one worker."""


@dataclass(frozen=True)
class ProvisionedDevice:
    """Enrollment result handed to the device: URN, its private key, and
    the issued chain (its issue time is in the inventory). The key exists
    only in this bundle; the ACME client checked that the chain's leaf
    names the URN and certifies the key."""

    urn: DeviceUrn
    private_key: object
    certificate_chain: str


@dataclass(frozen=True)
class EnrollmentRequest:
    """One batch entry. Namespace fields stay raw strings so validation
    failures surface as per-device outcomes instead of aborting the batch."""

    root_domain: str
    device_class: str
    secret: bytes
    challenge: str = "dns01"


@dataclass(frozen=True)
class BatchRow:
    uuid: str
    outcome: str
    binding_ms: float
    issuance_ms: float


@dataclass(frozen=True)
class BatchReport:
    rows: tuple[BatchRow, ...]

    def to_csv(self) -> str:
        lines = ["uuid,outcome,binding_ms,issuance_ms"]
        for row in self.rows:
            lines.append(
                f"{row.uuid},{row.outcome},{row.binding_ms:.3f},{row.issuance_ms:.3f}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        ok = [r for r in self.rows if r.outcome == "ok"]
        binding = [r.binding_ms for r in ok]
        issuance = [r.issuance_ms for r in ok]
        return {
            "total": len(self.rows),
            "succeeded": len(ok),
            "failed": len(self.rows) - len(ok),
            "binding_ms_mean": statistics.mean(binding) if binding else 0.0,
            "binding_ms_stddev": statistics.stdev(binding) if len(binding) > 1 else 0.0,
            "issuance_ms_mean": statistics.mean(issuance) if issuance else 0.0,
            "issuance_ms_stddev": statistics.stdev(issuance) if len(issuance) > 1 else 0.0,
        }


@dataclass(frozen=True)
class RenewalOutcome:
    device_uuid: uuidlib.UUID
    status: str  # "renewed" or "deferred"
    detail: str
    serial: str | None
    public_key_fingerprint: str | None


class FleetManager:
    """Orchestrates the device fleet against a zone and an ACME endpoint.

    ``_device_keys`` maps each device to its keypair and the fulfiller of
    its challenge type.
    It is the in-memory stand-in for the keystores of the devices
    themselves (this process plays both vendor and device roles); it is
    never serialized and never enters the inventory.
    """

    def __init__(
        self,
        inventory: Inventory,
        zone: Zone,
        revocation_log: RevocationLog,
        directory_url: str,
        ca_bundle_pem: str | None,
        cloud_target: str,
        clock: Callable[[], datetime] = utcnow,
        http_shelf=None,
    ) -> None:
        self.inventory = inventory
        self.zone = zone
        self.revocation_log = revocation_log
        self.directory_url = directory_url
        self.ca_bundle_pem = ca_bundle_pem
        self.cloud_target = cloud_target
        self.clock = clock
        # One fulfiller per challenge the manager can answer, shared by every order.
        self._fulfillers: dict[str, object] = {"dns01": DnsTxtFulfiller(zone)}
        if http_shelf is not None:
            self._fulfillers["http01"] = HttpShelfFulfiller(http_shelf)
        self._account_key = generate_key()
        self._device_keys: dict[uuidlib.UUID, tuple[object, object]] = {}
        self._keys_lock = threading.Lock()
        self._tick_lock = threading.Lock()
        self._idle_clients: list[AcmeClient] = []
        self._clients_lock = threading.Lock()

    # -- plumbing ------------------------------------------------------------

    @contextlib.contextmanager
    def _client(self) -> Iterator[AcmeClient]:
        """Lend an idle ACME client, or make one. A client keeps one nonce
        slot and one connection, so it is lent to one thread at a time;
        all clients share the account key."""
        with self._clients_lock:
            client = self._idle_clients.pop() if self._idle_clients else None
        if client is None:
            client = AcmeClient(
                self.directory_url, account_key=self._account_key, ca_bundle_pem=self.ca_bundle_pem
            )
        try:
            yield client
        finally:
            with self._clients_lock:
                self._idle_clients.append(client)

    def close(self) -> None:
        """Close every idle client's connection to the CA and drop the
        clients; the next enrollment or renewal makes a new one."""
        with self._clients_lock:
            idle, self._idle_clients = self._idle_clients, []
        for client in idle:
            client.close()

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- issuance ------------------------------------------------------------

    def _issue(self, urn: DeviceUrn, csr, fulfiller) -> CertificateMeta:
        """Run one ACME order for ``urn`` answered by ``fulfiller`` and file
        the issued chain in the inventory, which the client has checked
        against the CSR; a failed check files nothing."""
        with self._client() as client:
            chain = client.obtain_certificate(str(urn), csr, fulfiller)
        leaf = split_pem_chain(chain)[0]
        meta = CertificateMeta(
            serial=serial_hex(leaf),
            not_before=leaf.not_valid_before_utc,
            not_after=leaf.not_valid_after_utc,
            public_key_fingerprint=spki_fingerprint(leaf.public_key()),
            issuance_time=self.clock(),
            pem_chain=chain,
        )
        self.inventory.attach_certificate(urn.uuid, meta)
        return meta

    # -- enrollment ----------------------------------------------------------

    def enroll_device(
        self,
        ns: VendorNamespace,
        secret: DeviceSecret,
        challenge: str = "dns01",
    ) -> ProvisionedDevice:
        bundle, _, _ = self._enroll_timed(DeviceUrn(derive_device_uuid(ns, secret), ns), challenge)
        return bundle

    def _enroll_timed(self, urn: DeviceUrn, challenge: str) -> tuple[ProvisionedDevice, float, float]:
        t0 = time.perf_counter()
        # A request the manager cannot serve is refused before any write or order.
        fulfiller = self._fulfillers.get(challenge)
        if fulfiller is None:
            raise UnsupportedChallenge(f"cannot answer {challenge!r}: {' or '.join(self._fulfillers)}")
        if challenge == "dns01" and len(str(urn)) > MAX_DNS01_URN_OCTETS:
            raise FqdnTooLong(f"URN is {len(str(urn))} octets, DNS-01 limit {MAX_DNS01_URN_OCTETS}")
        # Revocation is final: an order for a revoked device would buy a
        # certificate that every relying party refuses.
        if self.inventory.upsert_device(urn, now=self.clock()).renewal_state is RenewalState.REVOKED:
            raise AlreadyRevoked(f"device {urn.uuid} already revoked")
        self.zone.bind_device(str(urn), self.cloud_target)
        binding_ms = (time.perf_counter() - t0) * 1000.0

        t1 = time.perf_counter()
        # Full (re-)enrollment always injects a fresh keypair; key reuse is
        # a renewal-only property.
        key = generate_key()
        try:
            meta = self._issue(urn, build_csr(key, str(urn)), fulfiller)
        except IotPkiError as exc:
            raise EnrollmentAborted(f"issuance failed for {urn}: {exc}") from exc
        with self._keys_lock:
            self._device_keys[urn.uuid] = (key, fulfiller)
        issuance_ms = (time.perf_counter() - t1) * 1000.0
        bundle = ProvisionedDevice(urn, key, meta.pem_chain)
        return bundle, binding_ms, issuance_ms

    def enroll_batch(
        self,
        requests: list[EnrollmentRequest],
        parallelism: int = DEFAULT_PARALLELISM,
    ) -> BatchReport:
        if not requests:
            raise EmptyBatch("enrollment batch is empty")
        if parallelism < 1:
            raise BadParallelism(f"parallelism must be >= 1, got {parallelism}")
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(self._enroll_one_row, requests))
        return BatchReport(rows=tuple(rows))

    def _enroll_one_row(self, request: EnrollmentRequest) -> BatchRow:
        try:
            ns = VendorNamespace(request.root_domain, request.device_class)
            urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(request.secret)), ns)
        except IotPkiError as exc:
            return BatchRow("", type(exc).__name__, 0.0, 0.0)
        try:
            _, binding_ms, issuance_ms = self._enroll_timed(urn, request.challenge)
        except Exception as exc:  # per-device outcome, batch never aborts
            log.warning("enrollment failed for %s: %s", urn.uuid, exc)
            return BatchRow(str(urn.uuid), type(exc).__name__, 0.0, 0.0)
        return BatchRow(str(urn.uuid), "ok", binding_ms, issuance_ms)

    # -- renewal -------------------------------------------------------------

    def renewal_tick(self) -> list[RenewalOutcome]:
        """Renew every device due at ``self.clock()``, reusing its existing
        keypair. Deferred devices (CA unreachable, transient failures) stay
        due for the next tick. Not re-entrant."""
        if not self._tick_lock.acquire(blocking=False):
            raise RenewalBusy("a renewal tick is already running")
        try:
            return [self._renew_record(r) for r in self.inventory.due_for_renewal(self.clock())]
        finally:
            self._tick_lock.release()

    def _renew_record(self, record: DeviceRecord) -> RenewalOutcome:
        """Renew ``record`` under its held key, writing no state while the order
        runs (the tick lock is the one guard); a failed order leaves it DUE."""
        with self._keys_lock:
            held = self._device_keys.get(record.uuid)
        old_fp = record.current_cert.public_key_fingerprint if record.current_cert else None
        if held is None:
            return RenewalOutcome(record.uuid, "deferred", "no device key held", None, old_fp)
        key, fulfiller = held
        try:
            meta = self._issue(record.urn, build_csr(key, str(record.urn)), fulfiller)
        except IotPkiError as exc:
            self.inventory.set_state(record.uuid, RenewalState.DUE)
            log.warning("renewal deferred for %s: %s", record.uuid, exc)
            return RenewalOutcome(record.uuid, "deferred", type(exc).__name__, None, old_fp)
        return RenewalOutcome(record.uuid, "renewed", "", meta.serial, meta.public_key_fingerprint)

    # -- revocation ----------------------------------------------------------

    def revoke_device(self, device_uuid: uuidlib.UUID) -> None:
        self.inventory.revoke(device_uuid)
        log.info("revoked device %s", device_uuid)
