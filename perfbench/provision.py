"""provision: the vendor provisioning stack (embedded CA, DNS authority,
token shelf, FleetManager) on loopback, one block at a time.

Set-up starts a fresh stack and warms it with throwaway enrollments.
The block then runs three stages against it:

1. serial DNS-01 ``enroll_device`` for SERIAL_DEVICES devices, one client;
2. one ``enroll_batch`` of BATCH_DEVICES at parallelism = nproc, requests
   alternating DNS-01 and HTTP-01, issued BATCH_OFFSET after the stack's
   start time;
3. one ``renewal_tick`` at RENEW_OFFSET, when exactly the stage-1
   devices are inside the renewal window.

Every call here waits on CA and DNS server threads, so stage times are
expressed against ``threaded_reference_s``, which includes thread
handoffs. Blocks are small so a run holds several: the stage-2 and stage-3 figures
are medians over blocks, and the enrollment percentiles pool every
block's stage-1 calls (at least 200 in a default run).

The injected clock is anchored at the current time, as the CLI anchors
it, and moves only for stages 2 and 3.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import uuid
from datetime import timedelta
from types import SimpleNamespace

from iotpki import dnsauth, inventory, lifecycle
from iotpki.acme import ca as acme_ca
from iotpki.acme import challenges, jws
from iotpki.acme.client import AcmeClient
from iotpki.cli import scenario_stack
from iotpki.errors import IotPkiError
from iotpki.identity import DeviceSecret, VendorNamespace
from iotpki.revocation import RevocationLog

from common import BlockResult, Stage, chain_problem, mean, percentile, threaded_reference_s
from tracer import attribute_cross_thread, durations_ms, self_ms

NAME = "provision"
APEX = "vendor.example"
DEVICE_CLASS = "sensor"
SERIAL_DEVICES = 40
MIN_BLOCKS = 5  # 200 enrollments, so the p95 has 10 beyond it
BATCH_DEVICES = 30
# The first ~60 enrollments of a process run about 10% slower; later
# blocks only need a fresh client to open its account.
WARMUP_FIRST_BLOCK = 60
WARMUP_LATER_BLOCK = 5
BATCH_OFFSET = timedelta(days=10)
# Stage-1 certificates expire 90 days minus a minute after the start
# time, so they enter the 30-day renewal window just before day 60; the
# stage-2 certificates stay outside it until day 70.
RENEW_OFFSET = timedelta(days=60, hours=1)

NAMED_UNITS = {
    "enroll_p50_ms": "ms",
    "enroll_p95_ms": "ms",
    "batch_devices_per_s": "devices/s",
    "renew_devices_per_s": "devices/s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fleet_manager(stack) -> lifecycle.FleetManager:
    return lifecycle.FleetManager(
        inventory=inventory.Inventory(),
        zone=stack.zone,
        revocation_log=RevocationLog(APEX),
        directory_url=stack.ca.directory_url,
        ca_bundle_pem=stack.ca.service_cert_pem,
        cloud_target=f"cloud.{APEX}",
        clock=stack.clock,
        http_shelf=stack.shelf,
    )


def loopback_addresses(stack) -> list[str]:
    return [stack.ca.base_url.split("//")[1].rsplit(":", 1)[0], stack.dns.address[0], stack.shelf.address[0]]


def named(pooled: dict[str, list[float]]) -> dict[str, float]:
    return {
        "enroll_p50_ms": percentile(pooled["enroll_s"], 0.50) * 1000.0,
        "enroll_p95_ms": percentile(pooled["enroll_s"], 0.95) * 1000.0,
        "batch_devices_per_s": BATCH_DEVICES / statistics.median(pooled["batch_s"]),
        "renew_devices_per_s": SERIAL_DEVICES / statistics.median(pooled["renew_s"]),
    }


def setup(rng, ledger, first_block: bool) -> SimpleNamespace:
    st = SimpleNamespace()
    st.ns = VendorNamespace(APEX, DEVICE_CLASS)
    warmup = WARMUP_FIRST_BLOCK if first_block else WARMUP_LATER_BLOCK
    st.warmup = [DeviceSecret(rng.randbytes(32)) for _ in range(warmup)]
    st.serial = [DeviceSecret(rng.randbytes(32)) for _ in range(SERIAL_DEVICES)]
    st.batch = [
        lifecycle.EnrollmentRequest(
            APEX, DEVICE_CLASS, rng.randbytes(32), "dns01" if i % 2 == 0 else "http01"
        )
        for i in range(BATCH_DEVICES)
    ]
    st.exit = contextlib.ExitStack()
    st.stack = st.exit.enter_context(scenario_stack(APEX))
    st.addresses = loopback_addresses(st.stack)
    st.t0 = st.stack.clock.now
    warm = fleet_manager(st.stack)
    for secret in st.warmup:
        try:
            warm.enroll_device(st.ns, secret, "dns01")
            ok = True
        except IotPkiError:
            ok = False
        ledger.op(ok, "warm-up enrollment failed")
    st.manager = fleet_manager(st.stack)
    return st


def teardown(st: SimpleNamespace) -> None:
    st.exit.close()


def install(tracer) -> None:
    """Wrap each layer's entry points where their callers look them up."""
    tracer.patch(lifecycle, "derive_device_uuid", "identity.derive")
    tracer.patch(lifecycle, "generate_key", "certs.generate_key")
    tracer.patch(lifecycle, "build_csr", "certs.build_csr")
    tracer.patch(lifecycle.FleetManager, "enroll_device", "lifecycle.enroll")
    tracer.patch(lifecycle.FleetManager, "enroll_batch", "lifecycle.enroll_batch")
    tracer.patch(lifecycle.FleetManager, "_enroll_one_row", "lifecycle.batch_row")
    tracer.patch(lifecycle.FleetManager, "renewal_tick", "lifecycle.renewal_tick")
    tracer.patch(lifecycle.FleetManager, "_renew_record", "lifecycle.renew_device")
    tracer.patch(AcmeClient, "obtain_certificate", "acme.obtain_certificate")
    tracer.patch(jws, "sign_jws", "acme.jws.sign")
    tracer.patch(jws, "verify_jws", "acme.jws.verify")
    tracer.patch(acme_ca.TestCaState, "issue", "acme.ca.issue")
    tracer.count_calls(acme_ca.TestCaState, "fresh_nonce", "acme.replies")
    tracer.patch(
        acme_ca.TestCa, "validate_challenge", lambda ca, chall, *_: f"acme.ca.validate.{chall.type}"
    )
    tracer.patch(challenges.DnsTxtFulfiller, "install", "acme.challenges.install")
    tracer.patch(challenges.HttpShelfFulfiller, "install", "acme.challenges.install")
    tracer.patch(acme_ca, "resolve", "dnsauth.resolve")
    tracer.patch(acme_ca, "resolve_address", "dnsauth.resolve")
    tracer.patch(
        dnsauth.Zone,
        "answer_query",
        "dnsauth.answer_query",
        after=lambda resp: tracer.count(f"dnsauth.rcode.{resp.rcode.name}"),
    )
    tracer.patch(dnsauth.Zone, "set_record", "dnsauth.zone_write")
    tracer.patch(dnsauth.Zone, "remove", "dnsauth.zone_write")
    for mutator in ("upsert_device", "attach_certificate", "set_state", "set_delegation"):
        tracer.patch(inventory.Inventory, mutator, "inventory.write")
    tracer.patch(inventory.Inventory, "due_for_renewal", "inventory.due_scan")


def _check_chain(manager, device_uuid, root) -> str | None:
    record = manager.inventory.get(device_uuid)
    if record.current_cert is None:
        return "no certificate on file"
    return chain_problem(record.current_cert.pem_chain, str(record.urn), root)


def run(st: SimpleNamespace, ledger, tracer, outdir) -> BlockResult:
    stack, manager = st.stack, st.manager
    root = stack.ca.state.root_cert
    layer: dict[str, float] = {}

    # Stage 1: serial DNS-01 enrollment, one client.
    enrolled = []
    zone_serial = stack.zone.serial
    with Stage(tracer, "p1", threaded_reference_s) as s1:
        for secret in st.serial:
            with s1.call():
                try:
                    enrolled.append(manager.enroll_device(st.ns, secret, "dns01"))
                except IotPkiError as exc:
                    enrolled.append(exc)
    layer["dnsauth.zone_writes_per_device"] = (stack.zone.serial - zone_serial) / SERIAL_DEVICES
    phase1 = {}
    for bundle in enrolled:
        if isinstance(bundle, Exception):
            ledger.op(False, f"enroll_device raised {bundle!r}")
            continue
        problem = _check_chain(manager, bundle.urn.uuid, root)
        if problem is None and bundle.certificate_chain != manager.inventory.get(bundle.urn.uuid).current_cert.pem_chain:
            problem = "bundle chain differs from the inventory's"
        ledger.op(problem is None, f"stage-1 chain for {bundle.urn}: {problem}")
        phase1[bundle.urn.uuid] = manager.inventory.get(bundle.urn.uuid).current_cert

    # Stage 2: batch at nproc, alternating DNS-01 and HTTP-01, later in time.
    stack.clock.now = st.t0 + BATCH_OFFSET
    with Stage(tracer, "p2", threaded_reference_s) as s2, s2.call():
        report = manager.enroll_batch(st.batch, parallelism=nproc())
    busy_ms = 0.0
    for row in report.rows:
        busy_ms += row.binding_ms + row.issuance_ms
        if row.outcome != "ok":
            ledger.op(False, f"batch row {row.uuid} ended {row.outcome}")
            continue
        problem = _check_chain(manager, uuid.UUID(row.uuid), root)
        ledger.op(problem is None, f"stage-2 chain for {row.uuid}: {problem}")
    layer["lifecycle.batch_concurrency"] = busy_ms / (s2.seconds * 1000.0)

    # Stage 3: one renewal tick when exactly the stage-1 devices are due.
    stack.clock.now = st.t0 + RENEW_OFFSET
    with Stage(tracer, "p3", threaded_reference_s) as s3, s3.call():
        outcomes = manager.renewal_tick()
    renewed = [o for o in outcomes if o.status == "renewed"]
    layer["lifecycle.deferred"] = len(outcomes) - len(renewed)
    ledger.op(
        {o.device_uuid for o in outcomes} == set(phase1) and len(outcomes) == len(phase1),
        f"renewal tick touched {len(outcomes)} devices, {len(phase1)} were due",
    )
    seen_serials = {meta.serial for meta in phase1.values()}
    for outcome in outcomes:
        old = phase1.get(outcome.device_uuid)
        problem = None
        if outcome.status != "renewed":
            problem = f"{outcome.status}: {outcome.detail}"
        elif old is None:
            problem = "renewed a device that was not due"
        elif outcome.public_key_fingerprint != old.public_key_fingerprint:
            problem = "SPKI fingerprint changed"
        elif outcome.serial in seen_serials:
            problem = "serial is not fresh"
        else:
            problem = _check_chain(manager, outcome.device_uuid, root)
        seen_serials.add(outcome.serial)
        ledger.op(problem is None, f"renewal of {outcome.device_uuid}: {problem}")

    state = stack.ca.state
    layer.update({
        "acme.ca.orders_held": len(state.orders),
        "acme.ca.authzs_held": len(state.authzs),
        "acme.ca.challenges_held": len(state.challenges),
        "acme.ca.nonces_held": len(state.nonces),
        "dnsauth.zone_records": len(stack.zone.records()),
        "inventory.devices": len(manager.inventory),
        "process.cpu_util.stage1": s1.cpu_util,
        "process.cpu_util.stage2": s2.cpu_util,
        "process.cpu_util.stage3": s3.cpu_util,
    })
    manager.inventory.snapshot(outdir / "provision-inventory.snapshot")
    (outdir / "provision-chains.pem").write_text(
        "".join(r.current_cert.pem_chain for r in manager.inventory.records())
    )
    return BlockResult(
        samples={"enroll_s": s1.raw, "batch_s": s2.raw, "renew_s": s3.raw},
        stages=(s1, s2, s3),
        layer=layer,
    )


def attribute(tracer, client_thread: int) -> int:
    return attribute_cross_thread(tracer.spans, "p1", client_thread)


def per_layer(tracer, selfs, traced_blocks: int) -> dict[str, float]:
    spans, counts = tracer.spans, tracer.counters
    p1, p12 = ("p1",), ("p1", "p2")
    return {
        "identity.derive_us": mean(durations_ms(spans, "identity.derive", p12)) * 1000.0,
        "certs.generate_key_ms": mean(durations_ms(spans, "certs.generate_key", p12)),
        "certs.build_csr_ms": mean(durations_ms(spans, "certs.build_csr")),
        "acme.requests_per_device": counts[("p1", "acme.replies")] / SERIAL_DEVICES / traced_blocks,
        "acme.obtain_certificate_ms": mean(durations_ms(spans, "acme.obtain_certificate", p1)),
        "acme.client.self_ms": mean(self_ms(spans, selfs, "acme.obtain_certificate", p1)),
        "acme.jws.sign_ms": mean(durations_ms(spans, "acme.jws.sign", p1)),
        "acme.jws.verify_ms": mean(durations_ms(spans, "acme.jws.verify", p1)),
        "acme.ca.issue_ms": mean(durations_ms(spans, "acme.ca.issue", p1)),
        "acme.ca.validate_ms.dns-01": mean(durations_ms(spans, "acme.ca.validate.dns-01", p1)),
        "acme.ca.validate_ms.http-01": mean(durations_ms(spans, "acme.ca.validate.http-01")),
        "acme.challenges.install_ms": mean(durations_ms(spans, "acme.challenges.install", p1)),
        "dnsauth.resolve_ms": mean(durations_ms(spans, "dnsauth.resolve", p1)),
        "dnsauth.answer_query_us": mean(durations_ms(spans, "dnsauth.answer_query", p1)) * 1000.0,
        "dnsauth.rcode.NOERROR": _phase_total(counts, "dnsauth.rcode.NOERROR") / traced_blocks,
        "dnsauth.rcode.NXDOMAIN": _phase_total(counts, "dnsauth.rcode.NXDOMAIN") / traced_blocks,
        "inventory.write_us": mean(durations_ms(spans, "inventory.write")) * 1000.0,
        "inventory.due_scan_ms": mean(durations_ms(spans, "inventory.due_scan", ("p3",))),
        "lifecycle.enroll_self_ms": mean(self_ms(spans, selfs, "lifecycle.enroll", p1)),
        "lifecycle.renew_ms": mean(durations_ms(spans, "lifecycle.renew_device", ("p3",))),
    }


def _phase_total(counts, key: str) -> int:
    return sum(n for (phase, name), n in counts.items() if name == key)
