"""Release acceptance suite.

Each test pins one end-to-end property of the stack at an explicit
tolerance and runtime budget:

1. the UUIDv5 identity primitive against an independent RFC 4122 oracle,
2. hermetic batch enrollment of 100 devices through the CLI,
3. staggered renewal semantics over a compressed clock,
4. zero private-key material in any persisted artifact,
5. revocation-filter exactness and size against a brute-force oracle,
6. the cross-vendor mTLS validation matrix (all five outcomes, both
   directions),
7. Weibull cloud-latency model fidelity (moments and KS distance),
8. the D2D vs cloud latency separation at 500 simulated nodes,
9. DNS authority conformance probed by a stub resolver with its own
   wire codec (nothing shared with the package's DNS implementation).
"""

from __future__ import annotations

import hashlib
import math
import random
import socket
import struct
import time
import uuid as uuidlib
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import serialization

from iotpki import cli
from iotpki.acme import AcmeClient, DnsTxtFulfiller, TestCa, TokenShelf
from iotpki.acme.ca import TestCaState
from iotpki.acme.jws import dns01_txt_value
from iotpki.certs import build_csr, cert_to_pem, generate_key, serial_hex
from iotpki.dnsauth import DnsUdpServer, RType, Zone
from iotpki.identity import (
    NS_DNS,
    DeviceSecret,
    DeviceUrn,
    VendorNamespace,
    derive_device_uuid,
)
from iotpki.inventory import Inventory
from iotpki.lifecycle import FleetManager
from iotpki.peer_auth import RejectReason, TrustContext, mtls_echo, validate_peer
from iotpki.revocation import RevocationLog, build_filter, query, serialize
from iotpki.simulator import SimConfig, WeibullParams, run_smart_city, sample_weibull


class SettableClock:
    def __init__(self, now: datetime) -> None:
        self.now = now

    def __call__(self) -> datetime:
        return self.now


# -- 1. identity primitive vs independent oracle ------------------------------

# Published UUIDv5 values for well-known names under the DNS namespace.
PUBLISHED_V5 = [
    ("python.org", "886313e1-3b8a-5372-9b90-0c9aee199e5d"),
    ("www.example.org", "74738ff5-5367-5958-9aee-98fffdcd1876"),
]


def rfc4122_v5_oracle(namespace: uuidlib.UUID, name: str) -> uuidlib.UUID:
    """Independent UUIDv5 construction straight from RFC 4122 section 4.3:
    SHA-1 over namespace bytes plus name, then version and variant bits."""
    digest = bytearray(hashlib.sha1(namespace.bytes + name.encode("utf-8")).digest()[:16])
    digest[6] = (digest[6] & 0x0F) | 0x50
    digest[8] = (digest[8] & 0x3F) | 0x80
    return uuidlib.UUID(bytes=bytes(digest))


class TestIdentityPrimitive:
    def test_oracle_agrees_on_known_names(self):
        names = ["python.org", "www.example.org", "example.com", "iot.vendor.example"]
        for name in names:
            assert uuidlib.uuid5(NS_DNS, name) == rfc4122_v5_oracle(NS_DNS, name)
        for name, expected in PUBLISHED_V5:
            assert str(uuidlib.uuid5(NS_DNS, name)) == expected
            assert str(rfc4122_v5_oracle(NS_DNS, name)) == expected

    def test_derivation_deterministic_and_well_formed(self):
        started = time.monotonic()
        rng = random.Random("acceptance|identity")
        namespaces = [
            VendorNamespace("vendor.example", "sensor"),
            VendorNamespace("fleet.example.org", "camera"),
            VendorNamespace("iot.city.example", "meter"),
        ]
        for i in range(10_000):
            ns = namespaces[i % len(namespaces)]
            secret = DeviceSecret(rng.randbytes(24))
            derived = derive_device_uuid(ns, secret)
            assert derive_device_uuid(ns, secret) == derived
            assert derived.version == 5
            assert derived.variant == uuidlib.RFC_4122
            name = hashlib.sha256(
                ns.root_domain.encode("ascii") + b"\x00" + secret.data
            ).hexdigest()
            assert derived == rfc4122_v5_oracle(NS_DNS, name)
        assert time.monotonic() - started < 5.0


# -- shared artifact tree for the enrollment / renewal / key-scan tests -------


@pytest.fixture(scope="module")
def artifact_root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("acceptance-artifacts")


@pytest.fixture(scope="module")
def batch_run(artifact_root: Path) -> SimpleNamespace:
    """One 100-device CLI batch enrollment; artifacts stay on disk for the
    key-confinement scan."""
    out = artifact_root / "fleet"
    started = time.monotonic()
    code = cli.main(
        [
            "enroll-batch",
            "--count", "100",
            "--out", str(out),
            "--root-domain", "fleet.test",
            "--device-class", "sensor",
            "--seed", "1234",
        ]
    )
    elapsed = time.monotonic() - started
    return SimpleNamespace(out=out, code=code, elapsed=elapsed)


@pytest.fixture(scope="module")
def renewal_run(artifact_root: Path) -> SimpleNamespace:
    """20 devices enrolled at staggered times, then three renewal ticks at
    chosen clock positions. Records per-tick expected and actual sets."""
    base = datetime(2026, 7, 1, tzinfo=timezone.utc)
    window = timedelta(days=30)
    clock = SettableClock(base)
    zone = Zone("renew.test")
    zone.set_record("cloud.renew.test", RType.A, "127.0.0.1")
    dns = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    shelf = TokenShelf().start()
    ca = TestCa(dns_addr=dns.address, http01_port=shelf.port, clock=clock).start()
    started = time.monotonic()
    try:
        manager = FleetManager(
            inventory=Inventory(),
            zone=zone,
            revocation_log=RevocationLog("renew.test"),
            directory_url=ca.directory_url,
            ca_bundle_pem=ca.service_cert_pem,
            cloud_target="cloud.renew.test",
            clock=clock,
            http_shelf=shelf,
        )
        ns = VendorNamespace("renew.test", "sensor")
        for i in range(20):
            clock.now = base + timedelta(hours=36) * i
            manager.enroll_device(
                ns, DeviceSecret(f"renew-secret-{i:04d}-pad".encode()), "dns01"
            )
        original = {
            r.uuid: SimpleNamespace(
                serial=r.current_cert.serial,
                fingerprint=r.current_cert.public_key_fingerprint,
            )
            for r in manager.inventory.records()
        }
        ticks = []
        for offset_days in (61, 66, 80):
            clock.now = base + timedelta(days=offset_days)
            expected = {
                r.uuid
                for r in manager.inventory.records()
                if r.current_cert.not_after - clock.now <= window
            }
            outcomes = manager.renewal_tick()
            ticks.append(SimpleNamespace(expected=expected, outcomes=outcomes))
        final = {r.uuid: r for r in manager.inventory.records()}
        manager.inventory.snapshot(artifact_root / "renewal_inventory.snapshot")
        manager.close()
    finally:
        ca.close()
        shelf.close()
        dns.close()
    return SimpleNamespace(
        elapsed=time.monotonic() - started,
        original=original,
        ticks=ticks,
        final=final,
    )


class TestBatchEnrollment:
    def test_hundred_device_fleet_end_to_end(self, batch_run):
        assert batch_run.code == 0
        assert batch_run.elapsed < 120.0

        lines = (batch_run.out / "enrollment_report.csv").read_text().strip().splitlines()
        assert lines[0] == "uuid,outcome,binding_ms,issuance_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 100
        assert all(row[1] == "ok" for row in rows)
        binding_mean = sum(float(row[2]) for row in rows) / len(rows)
        issuance_mean = sum(float(row[3]) for row in rows) / len(rows)
        assert binding_mean < issuance_mean

        inventory = Inventory.restore(batch_run.out / "inventory.snapshot")
        records = inventory.records()
        assert len(records) == 100
        root_ders = set()
        for record in records:
            chain = x509.load_pem_x509_certificates(
                record.current_cert.pem_chain.encode("ascii")
            )
            assert len(chain) >= 2
            leaf, root = chain[0], chain[-1]
            leaf.verify_directly_issued_by(root)
            root.verify_directly_issued_by(root)
            assert root.subject == root.issuer
            root_ders.add(root.public_bytes(serialization.Encoding.DER))
            san = leaf.extensions.get_extension_for_class(x509.SubjectAlternativeName)
            assert san.value.get_values_for_type(x509.DNSName) == [str(record.urn)]
            validity = leaf.not_valid_after_utc - leaf.not_valid_before_utc
            assert validity <= timedelta(days=90)
        assert len(root_ders) == 1


class TestStaggeredRenewal:
    def test_exact_window_selection_per_tick(self, renewal_run):
        assert renewal_run.elapsed < 30.0
        expected_counts = [1, 4, 9]
        for tick, expected_count in zip(renewal_run.ticks, expected_counts):
            renewed = {o.device_uuid for o in tick.outcomes}
            assert renewed == tick.expected
            assert len(renewed) == expected_count
            assert all(o.status == "renewed" for o in tick.outcomes)

    def test_fingerprints_invariant_and_serials_fresh(self, renewal_run):
        seen_serials = {info.serial for info in renewal_run.original.values()}
        assert len(seen_serials) == 20
        for tick in renewal_run.ticks:
            for outcome in tick.outcomes:
                device = renewal_run.original[outcome.device_uuid]
                assert outcome.public_key_fingerprint == device.fingerprint
                assert outcome.serial not in seen_serials
                seen_serials.add(outcome.serial)

    def test_untouched_devices_keep_their_certificates(self, renewal_run):
        renewed = {o.device_uuid for tick in renewal_run.ticks for o in tick.outcomes}
        untouched = set(renewal_run.original) - renewed
        assert untouched
        for device_uuid in untouched:
            record = renewal_run.final[device_uuid]
            assert record.current_cert.serial == renewal_run.original[device_uuid].serial


class TestKeyConfinement:
    def test_no_private_key_blocks_in_any_artifact(self, batch_run, renewal_run, artifact_root):
        scanned = set()
        certificate_seen = False
        for path in sorted(artifact_root.rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            assert b"PRIVATE KEY" not in data, f"key material leaked into {path}"
            certificate_seen = certificate_seen or b"BEGIN CERTIFICATE" in data
            scanned.add(path.relative_to(artifact_root).as_posix())
        assert scanned == {
            "fleet/enrollment_report.csv",
            "fleet/inventory.snapshot",
            "renewal_inventory.snapshot",
        }
        assert certificate_seen


# -- 5. revocation filter exactness against a brute-force oracle --------------


class TestFilterExactness:
    def test_exact_membership_and_compact_size(self, capsys):
        started = time.monotonic()
        ratio_at_two_percent = None
        for universe_size, revoked_rate in [(1_000, 0.05), (20_000, 0.005), (100_000, 0.02)]:
            rng = random.Random(f"acceptance|filter|{universe_size}")
            universe = [
                f"{rng.getrandbits(64):016x}{i:06x}" for i in range(universe_size)
            ]
            revoked = set(rng.sample(universe, int(universe_size * revoked_rate)))
            filt = build_filter(revoked, set(universe), "accept.test", epoch=7)
            for serial in universe:
                assert query(filt, serial) == (serial in revoked)
            if revoked_rate == 0.02:
                raw_size = len(("\n".join(sorted(revoked)) + "\n").encode("ascii"))
                filter_size = len(serialize(filt))
                ratio_at_two_percent = filter_size / raw_size
        assert ratio_at_two_percent is not None
        print(f"filter size is {ratio_at_two_percent:.1%} of the raw revoked list at 2% revocation")
        assert ratio_at_two_percent <= 0.10
        assert time.monotonic() - started < 60.0


# -- 6. cross-vendor mTLS validation matrix -----------------------------------


def issue_bundle(state: TestCaState, ns: VendorNamespace, tag: str, san: str | None = None):
    urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(f"matrix-secret-{tag}".encode())), ns)
    key = generate_key()
    cert = state.issue(key.public_key(), [san if san is not None else str(urn)])
    return SimpleNamespace(
        urn=urn,
        private_key=key,
        certificate_chain=cert_to_pem(cert) + cert_to_pem(state.root_cert),
        chain=[cert, state.root_cert],
        leaf=cert,
        serial=serial_hex(cert),
    )


class TestCrossVendorMatrix:
    def test_all_five_outcomes_both_directions(self):
        started = time.monotonic()
        now = datetime.now(timezone.utc)
        clock = SettableClock(now)
        state = TestCaState(clock=clock)
        foreign = TestCaState(clock=clock)
        vendor_a = VendorNamespace("a.matrix.test", "gateway")
        vendor_b = VendorNamespace("b.matrix.test", "sensor")

        valid = {"a": issue_bundle(state, vendor_a, "valid-a"), "b": issue_bundle(state, vendor_b, "valid-b")}
        revoked = {"a": issue_bundle(state, vendor_a, "revoked-a"), "b": issue_bundle(state, vendor_b, "revoked-b")}
        expired = {}
        for side, ns in (("a", vendor_a), ("b", vendor_b)):
            clock.now = now - timedelta(days=91)
            expired[side] = issue_bundle(state, ns, f"expired-{side}")
            clock.now = now
        foreign_chain = {"a": issue_bundle(foreign, vendor_a, "foreign-a"), "b": issue_bundle(foreign, vendor_b, "foreign-b")}

        universe = state.issued_serials()
        filters = {
            ns.root_domain: build_filter({revoked[side].serial}, universe, ns.root_domain, 1)
            for side, ns in (("a", vendor_a), ("b", vendor_b))
        }
        trust = TrustContext(roots=(state.root_cert,), filters=filters, clock=clock)

        for side in ("a", "b"):
            verdict = validate_peer(valid[side].chain, trust)
            assert verdict.accepted and verdict.urn == valid[side].urn

            verdict = validate_peer(revoked[side].chain, trust)
            assert not verdict.accepted
            assert verdict.reject_reason is RejectReason.REVOKED

            verdict = validate_peer(expired[side].chain, trust)
            assert not verdict.accepted
            assert verdict.reject_reason is RejectReason.EXPIRED

            verdict = validate_peer(foreign_chain[side].chain, trust)
            assert not verdict.accepted
            assert verdict.reject_reason is RejectReason.CHAIN

        # SAN/URN vendor mismatch, checked from each direction: the peer
        # presents a chain from the other vendor's namespace while this
        # side insists on its own.
        mismatch_ab = validate_peer(valid["b"].chain, trust, expected_vendor="a.matrix.test")
        mismatch_ba = validate_peer(valid["a"].chain, trust, expected_vendor="b.matrix.test")
        assert mismatch_ab.reject_reason is RejectReason.SAN_MISMATCH
        assert mismatch_ba.reject_reason is RejectReason.SAN_MISMATCH

        # The same policy drives a real TLS 1.3 session: a valid pair
        # echoes a payload (the server's acceptance) and the client accepts
        # the server.
        result = mtls_echo(valid["a"], valid["b"], trust, b"matrix-probe")
        assert result.payload_echoed == b"matrix-probe"
        assert result.client_verdict.accepted
        assert result.client_verdict.urn == valid["a"].urn
        assert time.monotonic() - started < 30.0


# -- 7. Weibull model fidelity -------------------------------------------------

ANALYTIC_MEAN_S = 12.74
ANALYTIC_MEDIAN_S = 3.06


class TestWeibullFidelity:
    def test_moments_and_ks_distance(self):
        started = time.monotonic()
        params = WeibullParams(beta=0.5, lam=6.37)
        rng = random.Random("acceptance|weibull")
        draws = sorted(sample_weibull(params, rng.random()) for _ in range(100_000))
        n = len(draws)

        mean = sum(draws) / n
        median = (draws[n // 2 - 1] + draws[n // 2]) / 2
        assert abs(mean - ANALYTIC_MEAN_S) / ANALYTIC_MEAN_S < 0.05
        assert abs(median - ANALYTIC_MEDIAN_S) / ANALYTIC_MEDIAN_S < 0.05

        ks = 0.0
        for i, x in enumerate(draws):
            cdf = 1.0 - math.exp(-((x / params.lam) ** params.beta))
            ks = max(ks, abs((i + 1) / n - cdf), abs(cdf - i / n))
        assert ks < 0.01
        assert time.monotonic() - started < 10.0


# -- 8. D2D vs cloud separation at city scale ----------------------------------


class TestLatencySeparation:
    def test_two_orders_of_magnitude_and_reproducible(self):
        started = time.monotonic()
        reports = {}
        for mode in ("d2d", "cloud"):
            cfg = SimConfig(
                num_mobile_nodes=500,
                mode=mode,
                d2d_link_latency_ms=17.0,
                seed=2026,
            )
            first = run_smart_city(cfg)
            second = run_smart_city(cfg)
            assert first.to_csv() == second.to_csv()
            assert first.samples
            reports[mode] = first
        mean = {
            mode: sum(report.latencies()) / len(report.samples)
            for mode, report in reports.items()
        }
        assert mean["cloud"] / mean["d2d"] >= 100.0
        assert time.monotonic() - started < 120.0


# -- 9. DNS authority conformance via an independent stub resolver -------------

A_TYPE, CNAME_TYPE, TXT_TYPE = 1, 5, 16
NOERROR_RCODE, NXDOMAIN_RCODE = 0, 3


def _encode_qname(name: str) -> bytes:
    out = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def _read_name(packet: bytes, offset: int) -> tuple[str, int]:
    labels: list[str] = []
    next_offset = offset
    jumped = False
    hops = 0
    while True:
        length = packet[offset]
        if length & 0xC0 == 0xC0:
            pointer = struct.unpack_from("!H", packet, offset)[0] & 0x3FFF
            if not jumped:
                next_offset = offset + 2
                jumped = True
            offset = pointer
            hops += 1
            if hops > 64:
                raise ValueError("compression pointer loop")
            continue
        offset += 1
        if length == 0:
            if not jumped:
                next_offset = offset
            return ".".join(labels), next_offset
        labels.append(packet[offset : offset + length].decode("ascii"))
        offset += length


def stub_query(addr: tuple[str, int], name: str, qtype: int) -> SimpleNamespace:
    """Minimal one-shot resolver speaking raw RFC 1035 wire format. Kept
    deliberately separate from the package's own DNS codec so the server
    is checked against an independent implementation."""
    txn_id = random.randrange(1 << 16)
    query = (
        struct.pack("!HHHHHH", txn_id, 0x0100, 1, 0, 0, 0)
        + _encode_qname(name)
        + struct.pack("!HH", qtype, 1)
    )
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(3.0)
        sock.sendto(query, addr)
        packet, _ = sock.recvfrom(4096)
    got_id, flags, qdcount, ancount, _, _ = struct.unpack_from("!HHHHHH", packet, 0)
    assert got_id == txn_id
    offset = 12
    for _ in range(qdcount):
        _, offset = _read_name(packet, offset)
        offset += 4
    answers = []
    for _ in range(ancount):
        rr_name, offset = _read_name(packet, offset)
        rtype, rclass, _, rdlength = struct.unpack_from("!HHIH", packet, offset)
        offset += 10
        rdata = packet[offset : offset + rdlength]
        if rtype == A_TYPE:
            value = socket.inet_ntoa(rdata)
        elif rtype == CNAME_TYPE:
            value, _ = _read_name(packet, offset)
        elif rtype == TXT_TYPE:
            parts, pos = [], 0
            while pos < len(rdata):
                length = rdata[pos]
                parts.append(rdata[pos + 1 : pos + 1 + length].decode("ascii"))
                pos += 1 + length
            value = "".join(parts)
        else:
            value = rdata.hex()
        offset += rdlength
        assert rclass == 1
        answers.append((rr_name.lower(), rtype, value))
    return SimpleNamespace(
        aa=bool(flags & 0x0400), rcode=flags & 0xF, answers=answers
    )


class ObservingFulfiller(DnsTxtFulfiller):
    """DNS-01 fulfiller that probes the challenge record with the stub
    resolver immediately after publishing it, mid-enrollment."""

    def __init__(self, zone: Zone, dns_addr: tuple[str, int]) -> None:
        super().__init__(zone)
        self._dns_addr = dns_addr
        self.observations: list[SimpleNamespace] = []

    def install(self, fqdn: str, token: str, key_auth: str) -> None:
        super().install(fqdn, token, key_auth)
        reply = stub_query(self._dns_addr, f"_acme-challenge.{fqdn}", TXT_TYPE)
        self.observations.append(
            SimpleNamespace(fqdn=fqdn, expected=dns01_txt_value(key_auth), reply=reply)
        )


class TestDnsAuthorityConformance:
    def test_stub_resolver_sees_authoritative_truth(self):
        started = time.monotonic()
        with cli.scenario_stack("conformance.test") as stack:
            addr = stack.dns.address
            stack.zone.set_record("info.conformance.test", RType.TXT, "v=conformance")

            reply = stub_query(addr, "cloud.conformance.test", A_TYPE)
            assert reply.aa and reply.rcode == NOERROR_RCODE
            assert ("cloud.conformance.test", A_TYPE, "127.0.0.1") in reply.answers

            reply = stub_query(addr, "info.conformance.test", TXT_TYPE)
            assert reply.aa and reply.rcode == NOERROR_RCODE
            assert ("info.conformance.test", TXT_TYPE, "v=conformance") in reply.answers

            reply = stub_query(addr, "absent.conformance.test", A_TYPE)
            assert reply.rcode == NXDOMAIN_RCODE
            assert reply.answers == []

            ns = VendorNamespace("conformance.test", "sensor")
            urn = str(DeviceUrn(derive_device_uuid(ns, DeviceSecret(b"dns-conformance-secret")), ns))
            stack.zone.bind_device(urn, "cloud.conformance.test")
            reply = stub_query(addr, urn, A_TYPE)
            assert reply.aa and reply.rcode == NOERROR_RCODE
            assert (urn, CNAME_TYPE, "cloud.conformance.test") in reply.answers
            assert any(rtype == A_TYPE and value == "127.0.0.1" for _, rtype, value in reply.answers)

            observer = ObservingFulfiller(stack.zone, addr)
            with AcmeClient(
                stack.ca.directory_url, account_key=generate_key(), ca_bundle_pem=stack.ca.service_cert_pem
            ) as client:
                chain = client.obtain_certificate(
                    urn, build_csr(generate_key(), urn), observer
                )
            assert "BEGIN CERTIFICATE" in chain
            assert len(observer.observations) == 1
            seen = observer.observations[0]
            assert seen.reply.aa and seen.reply.rcode == NOERROR_RCODE
            challenge_name = f"_acme-challenge.{urn}"
            assert (challenge_name, TXT_TYPE, seen.expected) in seen.reply.answers

            reply = stub_query(addr, challenge_name, TXT_TYPE)
            assert reply.rcode == NXDOMAIN_RCODE
        assert time.monotonic() - started < 10.0
