"""Fleet lifecycle: enrollment, key-reuse renewal, revocation."""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import uuid as uuidlib
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.x509.oid import ExtensionOID

from iotpki.acme import DnsTxtFulfiller, HttpShelfFulfiller, TestCa, TokenShelf
from iotpki.acme import ca as ca_module
from iotpki.acme.client import ChallengeFailed
from iotpki.certs import (
    generate_key,
    serial_hex,
    spki_fingerprint,
    split_pem_chain,
)
from iotpki.dnsauth import DnsUdpServer, RType, Rcode, Zone
from iotpki.dnsauth.server import ResolutionFailure
from iotpki.identity import DeviceSecret, DeviceUrn, FqdnTooLong, VendorNamespace, derive_device_uuid
from iotpki.inventory import AlreadyRevoked, Inventory, RenewalState, UnknownDevice
from iotpki.lifecycle import (
    EmptyBatch,
    EnrollmentAborted,
    EnrollmentRequest,
    FleetManager,
    ProvisionedDevice,
    RenewalBusy,
    UnsupportedChallenge,
)
from iotpki.peer_auth import (
    EchoServer,
    PeerVerdict,
    RejectReason,
    TrustContext,
    check_leaf,
    echo_once,
    validate_peer,
)
from iotpki.revocation import RevocationLog, query

NOW = datetime(2026, 3, 1, 12, 0, tzinfo=timezone.utc)
NS = VendorNamespace("vendor.com", "camera")


class MutableClock:
    def __init__(self, now: datetime) -> None:
        self.now = now

    def __call__(self) -> datetime:
        return self.now


def secret(tag: str) -> DeviceSecret:
    return DeviceSecret(f"lifecycle-test-secret-{tag}".encode())


@contextlib.contextmanager
def running_stack(apex: str):
    """The DNS authority for ``apex``, a token shelf and a CA on one clock."""
    clock = MutableClock(NOW)
    zone = Zone(apex)
    zone.set_record(f"cloud.{apex}", RType.A, "127.0.0.1")
    dns = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    shelf = TokenShelf().start()
    ca = TestCa(dns_addr=dns.address, http01_port=shelf.port, clock=clock).start()
    try:
        yield SimpleNamespace(zone=zone, dns=dns, shelf=shelf, ca=ca, clock=clock)
    finally:
        ca.close()
        shelf.close()
        dns.close()


def fleet(stack, apex: str, shelf: bool = True) -> FleetManager:
    return FleetManager(
        inventory=Inventory(),
        zone=stack.zone,
        revocation_log=RevocationLog(apex),
        directory_url=stack.ca.directory_url,
        ca_bundle_pem=stack.ca.service_cert_pem,
        cloud_target=f"cloud.{apex}",
        clock=stack.clock,
        http_shelf=stack.shelf if shelf else None,
    )


def footprint(manager: FleetManager, stack) -> tuple:
    """What an enrollment writes: inventory records, zone records and CA orders."""
    return len(manager.inventory), stack.zone.records(), len(stack.ca.state.orders)


@pytest.fixture(scope="module")
def stack():
    with running_stack("vendor.com") as stack:
        yield stack


@pytest.fixture()
def manager(stack):
    stack.clock.now = NOW
    with fleet(stack, "vendor.com") as manager:
        yield manager


def assert_chain_ok(stack, bundle: ProvisionedDevice) -> None:
    certs = split_pem_chain(bundle.certificate_chain)
    assert len(certs) == 2
    leaf, root = certs
    assert root == stack.ca.state.root_cert
    leaf.verify_directly_issued_by(root)


class TestEnroll:
    def test_enroll_returns_valid_bundle(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("e1"))
        assert_chain_ok(stack, bundle)
        record = manager.inventory.get(bundle.urn.uuid)
        assert record.current_cert.issuance_time == NOW
        assert record.renewal_state is RenewalState.CURRENT
        assert record.current_cert.public_key_fingerprint == spki_fingerprint(
            bundle.private_key.public_key()
        )

    def test_enrollment_binds_cname(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("e2"))
        response = stack.zone.answer_query(str(bundle.urn), RType.CNAME)
        assert response.rcode is Rcode.NOERROR
        assert any(r.value == "cloud.vendor.com" for r in response.answers)

    def test_reenroll_same_uuid_new_serial_new_key(self, stack, manager):
        first = manager.enroll_device(NS, secret("e3"))
        second = manager.enroll_device(NS, secret("e3"))
        assert first.urn == second.urn
        leaf1 = split_pem_chain(first.certificate_chain)[0]
        leaf2 = split_pem_chain(second.certificate_chain)[0]
        assert leaf1.serial_number != leaf2.serial_number
        assert spki_fingerprint(leaf1.public_key()) != spki_fingerprint(leaf2.public_key())

    def test_http01_enrollment(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("e4"), challenge="http01")
        assert_chain_ok(stack, bundle)

    def test_ca_down_aborts_cleanly(self, stack, manager):
        manager.directory_url = "https://127.0.0.1:1/directory"
        manager.close()
        sec = secret("e5")
        with pytest.raises(EnrollmentAborted):
            manager.enroll_device(NS, sec)
        records = manager.inventory.records()
        assert len(records) == 1
        assert records[0].renewal_state is RenewalState.DUE
        urn = records[0].urn
        txt = stack.zone.answer_query(f"_acme-challenge.{urn}", RType.TXT)
        assert txt.rcode is Rcode.NXDOMAIN or not txt.answers

    def test_failed_probe_leaves_no_txt(self, stack, manager, monkeypatch):
        def unreachable(*_):
            raise ResolutionFailure("probe blocked")

        monkeypatch.setattr(ca_module, "resolve", unreachable)
        sec = secret("e8")
        with pytest.raises(EnrollmentAborted):
            manager.enroll_device(NS, sec)
        urn = DeviceUrn(derive_device_uuid(NS, sec), NS)
        txt = stack.zone.answer_query(f"_acme-challenge.{urn}", RType.TXT)
        assert txt.rcode is Rcode.NXDOMAIN or not txt.answers

    def test_no_txt_litter_after_success(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("e6"))
        txt = stack.zone.answer_query(f"_acme-challenge.{bundle.urn}", RType.TXT)
        assert txt.rcode is Rcode.NXDOMAIN or not txt.answers


def certify_fresh_keys(monkeypatch) -> None:
    """From now on the CA signs every order's certificate over a fresh key,
    not the CSR's: a CA answer the client must refuse before anything is
    filed."""
    issue = ca_module.TestCaState.issue

    def issue_for_fresh_key(state, public_key, names):
        return issue(state, generate_key().public_key(), names)

    monkeypatch.setattr(ca_module.TestCaState, "issue", issue_for_fresh_key)


class TestForeignKeyCertificate:
    def test_enrollment_aborts_and_files_no_certificate(self, manager, monkeypatch):
        certify_fresh_keys(monkeypatch)
        with pytest.raises(EnrollmentAborted, match="other than the csr"):
            manager.enroll_device(NS, secret("f1"))
        record = manager.inventory.get(derive_device_uuid(NS, secret("f1")))
        assert record.renewal_state is RenewalState.DUE
        assert record.current_cert is None

    def test_renewal_is_deferred_and_keeps_old_certificate(self, stack, manager, monkeypatch):
        bundle = manager.enroll_device(NS, secret("f2"))
        before = manager.inventory.get(bundle.urn.uuid).current_cert
        certify_fresh_keys(monkeypatch)
        stack.clock.now = before.not_after - timedelta(days=5)
        outcomes = manager.renewal_tick()
        assert [(o.status, o.detail) for o in outcomes] == [("deferred", "CsrMismatch")]
        record = manager.inventory.get(bundle.urn.uuid)
        assert record.renewal_state is RenewalState.DUE
        assert record.current_cert.serial == before.serial
        assert record.current_cert.public_key_fingerprint == before.public_key_fingerprint


def certify_unreadable_names(monkeypatch) -> None:
    """From now on the CA signs every order's leaf with a SAN extension
    whose bytes do not parse: a CA answer the client must refuse, as it
    refuses a leaf for a foreign key."""

    def issue_unreadable(state, public_key, names):
        not_before = state.clock() - timedelta(minutes=1)
        return (
            x509.CertificateBuilder()
            .subject_name(x509.Name([]))
            .issuer_name(state.root_cert.subject)
            .public_key(public_key)
            .serial_number(x509.random_serial_number())
            .not_valid_before(not_before)
            .not_valid_after(not_before + timedelta(days=30))
            .add_extension(
                x509.UnrecognizedExtension(ExtensionOID.SUBJECT_ALTERNATIVE_NAME, b"\x30\x03junk"),
                critical=False,
            )
            .sign(state.root_key, hashes.SHA256())
        )

    monkeypatch.setattr(ca_module.TestCaState, "issue", issue_unreadable)


class TestUnreadableLeaf:
    def test_enrollment_aborts_and_files_no_certificate(self, manager, monkeypatch):
        certify_unreadable_names(monkeypatch)
        with pytest.raises(EnrollmentAborted, match="unreadable chain"):
            manager.enroll_device(NS, secret("u1"))
        assert manager.inventory.get(derive_device_uuid(NS, secret("u1"))).current_cert is None

    def test_tick_defers_every_device_and_strands_none(self, stack, manager, monkeypatch):
        # One refused leaf must neither end the tick before the devices
        # after it nor leave its device out of the next tick.
        uuids = [manager.enroll_device(NS, secret(f"u{i}")).urn.uuid for i in (2, 3, 4)]
        before = {uuid: manager.inventory.get(uuid).current_cert for uuid in uuids}
        stack.clock.now = min(meta.not_after for meta in before.values()) - timedelta(days=5)
        certify_unreadable_names(monkeypatch)
        outcomes = manager.renewal_tick()
        assert [(o.status, o.detail) for o in outcomes] == [("deferred", "CsrMismatch")] * 3
        for uuid, meta in before.items():
            record = manager.inventory.get(uuid)
            assert (record.renewal_state, record.current_cert) == (RenewalState.DUE, meta)
        monkeypatch.undo()
        assert [o.status for o in manager.renewal_tick()] == ["renewed"] * 3


class TestMisshapenCaAnswer:
    def test_order_without_finalize_defers_renewal(self, stack, manager, monkeypatch):
        bundle = manager.enroll_device(NS, secret("m1"))
        before = manager.inventory.get(bundle.urn.uuid).current_cert
        order_json = ca_module.TestCa.order_json
        monkeypatch.setattr(
            ca_module.TestCa, "order_json",
            lambda ca, order: {k: v for k, v in order_json(ca, order).items() if k != "finalize"},
        )
        stack.clock.now = before.not_after - timedelta(days=5)
        outcomes = manager.renewal_tick()
        assert [(o.status, o.detail) for o in outcomes] == [("deferred", "MalformedAnswer")]
        record = manager.inventory.get(bundle.urn.uuid)
        assert record.renewal_state is RenewalState.DUE
        assert record.current_cert == before
        monkeypatch.undo()
        assert [o.status for o in manager.renewal_tick()] == ["renewed"]


class TestClientPool:
    def test_close_ends_connections_opened_from_two_threads(self, stack, manager, monkeypatch):
        enrolled, release = threading.Event(), threading.Event()

        def enroll_and_linger():
            manager.enroll_device(NS, secret("c2"))
            enrolled.set()
            release.wait(timeout=10)

        other = threading.Thread(target=enroll_and_linger)
        install = DnsTxtFulfiller.install

        def install_once_other_thread_enrolled(fulfiller, *args):
            # The main thread's enrollment waits here, its connection open,
            # while a second thread enrolls on a connection of its own.
            if threading.current_thread() is not other and other.ident is None:
                other.start()
                assert enrolled.wait(timeout=10)
            install(fulfiller, *args)

        monkeypatch.setattr(DnsTxtFulfiller, "install", install_once_other_thread_enrolled)
        try:
            manager.enroll_device(NS, secret("c1"))
            manager.close()
            live = stack.ca._server._live
            deadline = time.monotonic() + 3
            while live:
                assert time.monotonic() < deadline, f"{len(live)} connection(s) still open"
                time.sleep(0.01)
        finally:
            release.set()
            other.join(timeout=10)

    def test_no_client_is_lent_to_two_threads_at_once(self, manager):
        lent, made, clashes = set(), set(), []
        lock = threading.Lock()

        def borrow():
            for _ in range(200):
                with manager._client() as client:
                    with lock:
                        if client in lent:
                            clashes.append(client)
                        lent.add(client)
                        made.add(client)
                    time.sleep(0)
                    with lock:
                        lent.discard(client)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=borrow) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert clashes == []
        # Every client made came back to the idle list exactly once.
        assert sorted(map(id, manager._idle_clients)) == sorted(map(id, made))


class TestEnrollBatch:
    def test_batch_all_succeed(self, stack, manager):
        requests = [
            EnrollmentRequest("vendor.com", "camera", f"batch-device-secret-{i:04d}".encode())
            for i in range(8)
        ]
        report = manager.enroll_batch(requests, parallelism=4)
        assert [r.outcome for r in report.rows] == ["ok"] * 8
        summary = report.summary()
        assert summary["succeeded"] == 8
        assert summary["binding_ms_mean"] < summary["issuance_ms_mean"]
        csv = report.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "uuid,outcome,binding_ms,issuance_ms"
        assert len(lines) == 9

    def test_batch_partial_failures_recorded(self, stack, manager):
        requests = [
            EnrollmentRequest("vendor.com", "camera", b"partial-batch-secret-001"),
            EnrollmentRequest("bad..domain", "camera", b"partial-batch-secret-002"),
            EnrollmentRequest("vendor.com", "camera", b"tiny"),
        ]
        report = manager.enroll_batch(requests)
        outcomes = [r.outcome for r in report.rows]
        assert outcomes[0] == "ok"
        assert outcomes[1] == "InvalidNamespace"
        assert outcomes[2] == "WeakSecret"
        assert report.rows[1].uuid == ""
        assert report.summary()["failed"] == 2

    def test_overlong_urn_is_refused_before_the_inventory(self, manager, tmp_path):
        # 36 + 1 + 63 + 1 + 157 = 258 octets, past the 253 of an FQDN.
        long_root = ".".join(["a" * 63, "b" * 63, "c" * 18, "vendor.com"])
        requests = [
            EnrollmentRequest("vendor.com", "camera", b"overlong-batch-secret-001"),
            EnrollmentRequest(long_root, "d" * 63, b"overlong-batch-secret-002"),
        ]
        report = manager.enroll_batch(requests, parallelism=1)
        assert [(r.uuid != "", r.outcome) for r in report.rows] == [(True, "ok"), (False, "FqdnTooLong")]
        path = tmp_path / "inventory.snapshot"
        manager.inventory.snapshot(path)
        restored = Inventory.restore(path)
        assert [str(r.uuid) for r in restored.records()] == [report.rows[0].uuid]

    def test_empty_batch_rejected(self, manager):
        with pytest.raises(EmptyBatch):
            manager.enroll_batch([])


LONG_ROOT = "acme-devices.example.com"


class TestLongUrns:
    """URNs past the 64 characters a CN may hold enroll over either
    challenge into leaves named by a critical SAN alone, which validate."""

    @pytest.fixture(scope="class")
    def long_fleet(self):
        with running_stack(LONG_ROOT) as stack, fleet(stack, LONG_ROOT) as manager:
            trust = TrustContext(roots=(stack.ca.state.root_cert,), filters={}, clock=stack.clock)
            yield SimpleNamespace(manager=manager, trust=trust)

    def enroll(self, long_fleet, device_class: str, challenge: str) -> ProvisionedDevice:
        ns = VendorNamespace(LONG_ROOT, device_class)
        return long_fleet.manager.enroll_device(ns, secret(f"long-{device_class}-{challenge}"), challenge)

    @pytest.mark.parametrize("challenge", ["dns01", "http01"])
    @pytest.mark.parametrize("device_class, octets", [("camera", 68), ("c" * 63, 125)])
    def test_long_urn_enrolls_into_a_san_only_leaf(self, long_fleet, device_class, octets, challenge):
        bundle = self.enroll(long_fleet, device_class, challenge)
        assert len(str(bundle.urn)) == octets
        leaf = split_pem_chain(bundle.certificate_chain)[0]
        san = leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName)
        assert leaf.subject == x509.Name([])
        assert (san.critical, san.value.get_values_for_type(x509.DNSName)) == (True, [str(bundle.urn)])
        assert validate_peer([leaf], long_fleet.trust) == PeerVerdict(accepted=True, urn=bundle.urn)

    def test_long_urn_devices_echo_both_ways(self, long_fleet):
        short, long = self.enroll(long_fleet, "camera", "dns01"), self.enroll(long_fleet, "c" * 63, "http01")
        for server, client in ((short, long), (long, short)):
            with EchoServer(server, long_fleet.trust) as echo:
                result = echo_once(echo.address, client, long_fleet.trust, b"long names")
            assert (result.payload_echoed, result.client_verdict.urn) == (b"long names", server.urn)


# A 132-character apex; each vendor root below it adds one label.
FAR_APEX = ".".join(["s" * 63, "t" * 63, "test"])


class TestLongestUrns:
    """Compressed DNS answers fit in 512 bytes at the longest names: HTTP-01
    serves any URN that DeviceUrn accepts, and DNS-01 any URN whose
    challenge name, ``_acme-challenge.<urn>``, fits in 253 octets."""

    @pytest.fixture(scope="class")
    def far_fleet(self):
        with running_stack(FAR_APEX) as stack, fleet(stack, FAR_APEX) as manager:
            yield SimpleNamespace(stack=stack, manager=manager)

    @staticmethod
    def namespace(octets: int) -> VendorNamespace:
        """The namespace of URNs of ``octets`` octets: a 36-character uuid,
        a 63-character class and a root under FAR_APEX, joined by dots."""
        return VendorNamespace("r" * (octets - 36 - 63 - len(FAR_APEX) - 3) + "." + FAR_APEX, "d" * 63)

    @pytest.mark.parametrize("octets, challenge", [(253, "http01"), (237, "dns01")])
    def test_longest_urn_enrolls(self, far_fleet, octets, challenge):
        bundle = far_fleet.manager.enroll_device(self.namespace(octets), secret(f"far-{challenge}"), challenge)
        assert len(str(bundle.urn)) == octets
        assert_chain_ok(far_fleet.stack, bundle)

    def test_dns01_challenge_name_past_253_octets_aborts_and_leaves_no_txt(self, far_fleet):
        before = footprint(far_fleet.manager, far_fleet.stack)
        with pytest.raises(FqdnTooLong):
            far_fleet.manager.enroll_device(self.namespace(238), secret("far-238"), "dns01")
        assert [r for r in far_fleet.stack.zone.records() if r.rtype is RType.TXT] == []
        assert footprint(far_fleet.manager, far_fleet.stack) == before

    def test_refused_batch_row_names_the_refusal(self, far_fleet):
        ns = self.namespace(238)
        requests = [EnrollmentRequest(ns.root_domain, ns.device_class, b"far-batch-secret-238")]
        before = footprint(far_fleet.manager, far_fleet.stack)
        assert [r.outcome for r in far_fleet.manager.enroll_batch(requests).rows] == ["FqdnTooLong"]
        assert footprint(far_fleet.manager, far_fleet.stack) == before


class TestUnservedChallenge:
    """A challenge the manager cannot answer is refused before anything
    about the request reaches the zone, the inventory or the CA."""

    @pytest.mark.parametrize(
        "shelf, challenge", [pytest.param(True, "bogus", id="bogus"), pytest.param(False, "http01", id="http01-no-shelf")]
    )
    def test_refused_before_any_write_or_order(self, stack, shelf, challenge):
        with fleet(stack, "vendor.com", shelf) as manager:
            before = footprint(manager, stack)
            with pytest.raises(UnsupportedChallenge):
                manager.enroll_device(NS, secret(f"unserved-{challenge}"), challenge)
            request = EnrollmentRequest("vendor.com", "camera", b"unserved-batch-secret", challenge)
            assert [r.outcome for r in manager.enroll_batch([request]).rows] == ["UnsupportedChallenge"]
            assert footprint(manager, stack) == before


class TestRenewalTick:
    def test_due_device_renewed_with_same_key(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("r1"))
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        fp_before = meta.public_key_fingerprint
        stack.clock.now = meta.not_after - timedelta(days=29)
        outcomes = manager.renewal_tick()
        assert len(outcomes) == 1
        assert outcomes[0].status == "renewed"
        assert outcomes[0].public_key_fingerprint == fp_before
        renewed = manager.inventory.get(bundle.urn.uuid).current_cert
        assert renewed.serial != meta.serial
        assert renewed.public_key_fingerprint == fp_before
        assert renewed.not_after > meta.not_after
        assert manager.inventory.get(bundle.urn.uuid).renewal_state is RenewalState.CURRENT

    def test_not_yet_due_device_untouched(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("r2"))
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        stack.clock.now = meta.not_after - timedelta(days=31)
        assert manager.renewal_tick() == []
        assert manager.inventory.get(bundle.urn.uuid).current_cert.serial == meta.serial

    def test_restored_inventory_defers_for_want_of_the_device_key(self, stack, manager, tmp_path):
        bundle = manager.enroll_device(NS, secret("r5"))
        manager.inventory.snapshot(tmp_path / "inventory.snapshot")
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        with fleet(stack, "vendor.com") as restarted:
            restarted.inventory = Inventory.restore(tmp_path / "inventory.snapshot")
            stack.clock.now = meta.not_after - timedelta(days=5)
            outcomes = restarted.renewal_tick()
            assert [(o.status, o.detail, o.serial) for o in outcomes] == [("deferred", "no device key held", None)]
            assert restarted.inventory.get(bundle.urn.uuid).current_cert == meta

    def test_revoked_device_never_renewed(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("r3"))
        manager.revoke_device(bundle.urn.uuid)
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        stack.clock.now = meta.not_after - timedelta(days=1)
        assert manager.renewal_tick() == []

    def test_ca_unreachable_defers_then_recovers(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("r4"))
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        stack.clock.now = meta.not_after - timedelta(days=10)

        good_url = manager.directory_url
        manager.directory_url = "https://127.0.0.1:1/directory"
        manager.close()
        manager.close()
        outcomes = manager.renewal_tick()
        assert [o.status for o in outcomes] == ["deferred"]
        assert manager.inventory.get(bundle.urn.uuid).renewal_state is RenewalState.DUE

        manager.directory_url = good_url
        manager.close()
        outcomes = manager.renewal_tick()
        assert [o.status for o in outcomes] == ["renewed"]
        assert outcomes[0].public_key_fingerprint == meta.public_key_fingerprint

    def test_three_cycles_keep_fingerprint(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("r5"))
        fp = manager.inventory.get(bundle.urn.uuid).current_cert.public_key_fingerprint
        serials = {manager.inventory.get(bundle.urn.uuid).current_cert.serial}
        challenges = []
        for _ in range(3):
            meta = manager.inventory.get(bundle.urn.uuid).current_cert
            stack.clock.now = meta.not_after - timedelta(days=15)
            before = len(stack.ca.state.challenges)
            outcomes = manager.renewal_tick()
            challenges.append(len(stack.ca.state.challenges) - before)
            assert [o.status for o in outcomes] == ["renewed"]
            assert outcomes[0].public_key_fingerprint == fp
            serials.add(outcomes[0].serial)
        assert len(serials) == 4
        # The first and third renewals reuse the name's proof; the second
        # falls past it and proves the name afresh.
        assert challenges == [0, 2, 0]

    def test_tick_not_reentrant(self, manager):
        assert manager._tick_lock.acquire(blocking=False)
        try:
            with pytest.raises(RenewalBusy):
                manager.renewal_tick()
        finally:
            manager._tick_lock.release()
        assert manager.renewal_tick() == []


def refuse_every_proof(monkeypatch) -> list[str]:
    """From now on every fulfiller's ``install`` raises, and each zone write
    and challenge validation is recorded by name in the list returned."""
    calls = []

    def refuse(fulfiller, fqdn, *_):
        raise ChallengeFailed(f"no proof published for {fqdn}")

    def recorded(cls, name):
        real = getattr(cls, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, recording)

    for fulfiller in (DnsTxtFulfiller, HttpShelfFulfiller):
        monkeypatch.setattr(fulfiller, "install", refuse)
    recorded(Zone, "set_record")
    recorded(TestCa, "validate_challenge")
    return calls


@pytest.mark.parametrize("challenge", ["dns01", "http01"])
class TestRenewalByReuse:
    """Enrollment proves the URN to the fleet's account; a renewal inside
    that proof's lifetime reuses it, so it publishes nothing and the CA
    probes nothing (RFC 8555 section 7.1.3)."""

    def test_renewal_inside_the_proof_publishes_and_probes_nothing(self, stack, manager, monkeypatch, challenge):
        bundle = manager.enroll_device(NS, secret(f"reuse-{challenge}"), challenge)
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        calls = refuse_every_proof(monkeypatch)
        stack.clock.now = meta.not_after - timedelta(days=29)
        outcomes = manager.renewal_tick()
        assert [(o.status, o.public_key_fingerprint) for o in outcomes] == [("renewed", meta.public_key_fingerprint)]
        assert manager.inventory.get(bundle.urn.uuid).current_cert.serial == outcomes[0].serial
        assert calls == []

    def test_renewal_past_the_proof_must_prove_again(self, stack, manager, monkeypatch, challenge):
        bundle = manager.enroll_device(NS, secret(f"expired-{challenge}"), challenge)
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        refuse_every_proof(monkeypatch)
        stack.clock.now = NOW + ca_module.AUTHZ_LIFETIME
        outcomes = manager.renewal_tick()
        assert [(o.status, o.detail) for o in outcomes] == [("deferred", "ChallengeFailed")]
        record = manager.inventory.get(bundle.urn.uuid)
        assert (record.renewal_state, record.current_cert) == (RenewalState.DUE, meta)


class TestRevocation:
    def test_revoke_feeds_filter(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("v1"))
        serial = manager.inventory.get(bundle.urn.uuid).current_cert.serial
        manager.revoke_device(bundle.urn.uuid)
        assert manager.inventory.get(bundle.urn.uuid).renewal_state is RenewalState.REVOKED
        filt = manager.revocation_log.publish(manager.inventory)
        assert query(filt, serial) is True

    def test_revoke_covers_the_superseded_leaf(self, stack, manager):
        # Renewal reuses the key, so the leaf it replaced would still
        # authenticate the revoked device until that leaf expires.
        bundle = manager.enroll_device(NS, secret("v4"))
        old_leaf = split_pem_chain(bundle.certificate_chain)[0]
        stack.clock.now = old_leaf.not_valid_after_utc - timedelta(days=15)
        assert [o.status for o in manager.renewal_tick()] == ["renewed"]
        manager.revoke_device(bundle.urn.uuid)
        trust = TrustContext(
            roots=(stack.ca.state.root_cert,),
            filters={NS.root_domain: manager.revocation_log.publish(manager.inventory)},
            clock=stack.clock,
        )
        assert check_leaf(old_leaf, trust).reject_reason is RejectReason.REVOKED

    def test_revoke_during_a_failing_renewal_stays_revoked(self, stack, manager, monkeypatch):
        bundle = manager.enroll_device(NS, secret("v5"))
        serial = manager.inventory.get(bundle.urn.uuid).current_cert.serial
        stack.clock.now = NOW + timedelta(days=80)

        def revoked_mid_order(urn, csr, challenge):
            manager.revoke_device(urn.uuid)
            raise EnrollmentAborted("CA unreachable")

        monkeypatch.setattr(manager, "_issue", revoked_mid_order)
        assert [o.status for o in manager.renewal_tick()] == ["deferred"]
        assert manager.inventory.get(bundle.urn.uuid).renewal_state is RenewalState.REVOKED
        assert query(manager.revocation_log.publish(manager.inventory), serial) is True

    def test_revoke_twice_rejected(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("v2"))
        manager.revoke_device(bundle.urn.uuid)
        with pytest.raises(AlreadyRevoked):
            manager.revoke_device(bundle.urn.uuid)

    def test_concurrent_revokes_give_one_already_revoked(self, stack, manager, monkeypatch):
        # Each revocation that reads the record before it writes is held
        # until both have read: a check made outside the write's lock then
        # passes twice. Only one of the two may revoke.
        uuid = manager.enroll_device(NS, secret("v6")).urn.uuid
        both_read = threading.Barrier(2, timeout=5)
        get = manager.inventory.get

        def get_then_wait(device_uuid):
            record = get(device_uuid)
            both_read.wait()
            return record

        monkeypatch.setattr(manager.inventory, "get", get_then_wait)
        outcomes = []

        def revoke():
            try:
                manager.revoke_device(uuid)
                outcomes.append("revoked")
            except AlreadyRevoked:
                outcomes.append("AlreadyRevoked")

        threads = [threading.Thread(target=revoke) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["AlreadyRevoked", "revoked"]
        assert get(uuid).renewal_state is RenewalState.REVOKED

    def test_revoked_device_is_not_enrolled_again(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("v7"))
        manager.revoke_device(bundle.urn.uuid)
        issued = stack.ca.state.issued_serials()
        with pytest.raises(AlreadyRevoked):
            manager.enroll_device(NS, secret("v7"))
        assert stack.ca.state.issued_serials() == issued
        record = manager.inventory.get(bundle.urn.uuid)
        assert record.serials == (serial_hex(split_pem_chain(bundle.certificate_chain)[0]),)

    def test_batch_reports_a_revoked_device_and_orders_nothing(self, stack, manager):
        request = EnrollmentRequest(NS.root_domain, NS.device_class, b"lifecycle-test-secret-v8")
        manager.enroll_batch([request])
        (record,) = manager.inventory.records()
        manager.revoke_device(record.uuid)
        issued = stack.ca.state.issued_serials()
        report = manager.enroll_batch([request])
        assert [(row.uuid, row.outcome) for row in report.rows] == [(str(record.uuid), "AlreadyRevoked")]
        assert stack.ca.state.issued_serials() == issued

    def test_revoke_unknown_rejected(self, manager):
        with pytest.raises(UnknownDevice):
            manager.revoke_device(uuidlib.uuid4())

    def test_revoke_certless_rejected(self, stack, manager):
        bundle = manager.enroll_device(NS, secret("v3"))
        certless_urn = bundle.urn
        fresh_inventory_record = manager.inventory.upsert_device(certless_urn, now=NOW)
        assert fresh_inventory_record is not None
        ghost_ns = VendorNamespace("vendor.com", "sensor")
        record = manager.inventory.upsert_device(
            type(bundle.urn)(uuidlib.uuid4(), ghost_ns), now=NOW
        )
        with pytest.raises(UnknownDevice):
            manager.revoke_device(record.uuid)


class TestKeyConfinement:
    def test_snapshot_carries_no_key_material(self, stack, manager, tmp_path):
        bundle = manager.enroll_device(NS, secret("k1"))
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
        stack.clock.now = meta.not_after - timedelta(days=5)
        manager.renewal_tick()
        other = manager.enroll_device(NS, secret("k2"))
        manager.revoke_device(other.urn.uuid)

        path = tmp_path / "inventory.snapshot"
        manager.inventory.snapshot(path)
        text = path.read_text()
        assert "PRIVATE KEY" not in text
        assert "BEGIN CERTIFICATE" in text

        restored = Inventory.restore(path)
        assert len(restored) == len(manager.inventory)
