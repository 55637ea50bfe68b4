"""Operator command line: enrollment scenarios, renewal, revocation,
filter publication, embedded services, the two-vendor mTLS demo, and the
smart-city latency simulation.

Scenario commands are hermetic: each invocation spins up the embedded
CA, DNS authority, and token shelf in-process, runs the scenario, and
writes only public artifacts (reports, snapshots, certificates, filter
bytes) under the --out directory. Device private keys never leave
process memory.

Every setting is a flag, with its default declared beside it, and each
subcommand takes only the flags it reads: any other flag is a usage
error, exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
import uuid as uuidlib
from contextlib import ExitStack, contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from .acme import TestCa, TokenShelf
from .dnsauth import DnsUdpServer, RType, Zone
from .errors import IotPkiError
from .identity import DeviceSecret, VendorNamespace
from .inventory import Inventory, RenewalState, from_rfc3339, utcnow
from .lifecycle import DEFAULT_PARALLELISM, EnrollmentRequest, FleetManager
from .peer_auth import TrustContext, mtls_echo
from .revocation import RevocationLog, build_filter, deserialize, query, serialize
from .simulator import WEIBULL_BETA, WEIBULL_LAMBDA, SimConfig, WeibullParams, run_smart_city, summarize

BASE_TIME = datetime(2026, 1, 1, tzinfo=timezone.utc)

SNAPSHOT_FILE = "inventory.snapshot"
FILTER_FILE = "revocations.filter"


class ManualClock:
    """Injectable clock that reads ``now`` until the script sets it.
    Scenarios start it at BASE_TIME, so what they issue and record does not
    depend on the date they run; live mTLS sessions check validity windows
    against it, not against wall time."""

    def __init__(self, now: datetime) -> None:
        self.now = now

    def __call__(self) -> datetime:
        return self.now


def _out_dir(out: str) -> Path:
    """The --out directory of a command that writes there, created if
    missing. Commands that read a snapshot or filter from it take
    ``Path(out)`` and create nothing."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _vendor_zone(apex: str) -> Zone:
    """The vendor's zone, with its cloud endpoint on loopback."""
    zone = Zone(apex)
    zone.set_record(f"cloud.{apex}", RType.A, "127.0.0.1")
    return zone


@contextmanager
def _services(zone: Zone, clock: Callable[[], datetime], ca_port: int):
    """DNS authority + token shelf + ACME CA on loopback; only the CA's port is chosen."""
    # Closed in reverse, so a CA that cannot bind leaves nothing running.
    with ExitStack() as services:
        dns = services.enter_context(DnsUdpServer(zone, ("127.0.0.1", 0)))
        shelf = services.enter_context(TokenShelf())
        ca = services.enter_context(
            TestCa(
                bind_addr=("127.0.0.1", ca_port), dns_addr=dns.address, http01_port=shelf.port, clock=clock
            )
        )
        yield SimpleNamespace(zone=zone, dns=dns, shelf=shelf, ca=ca, clock=clock)


def scenario_stack(apex: str):
    """Embedded DNS authority + token shelf + ACME CA on loopback, on a
    ManualClock at BASE_TIME."""
    return _services(_vendor_zone(apex), ManualClock(BASE_TIME), 0)


def _new_manager(stack, root_domain: str) -> FleetManager:
    return FleetManager(
        inventory=Inventory(),
        zone=stack.zone,
        revocation_log=RevocationLog(root_domain),
        directory_url=stack.ca.directory_url,
        ca_bundle_pem=stack.ca.service_cert_pem,
        cloud_target=f"cloud.{stack.zone.apex}",
        clock=stack.clock,
        http_shelf=stack.shelf,
    )


def _device_secret(seed: int, index: int) -> bytes:
    return f"{seed}:device:{index:06d}:secret".encode()


def _persist_fleet(out: Path, manager: FleetManager) -> None:
    """Write the fleet's snapshot; drop an earlier CA's filter and older versions' serial lists."""
    manager.inventory.snapshot(out / SNAPSHOT_FILE)
    for name in (FILTER_FILE, "issued_serials.txt", "revoked_serials.txt"):
        (out / name).unlink(missing_ok=True)


def _restore_fleet(out: Path) -> Inventory:
    snapshot_path = out / SNAPSHOT_FILE
    if not snapshot_path.exists():
        raise IotPkiError(f"no inventory snapshot at {snapshot_path}; enroll first")
    return Inventory.restore(snapshot_path)


# -- subcommands -------------------------------------------------------------


def cmd_enroll(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    ns = VendorNamespace(args.root_domain, args.device_class)
    secret = args.secret.encode() if args.secret else _device_secret(args.seed, 0)
    with scenario_stack(args.root_domain) as stack, _new_manager(stack, args.root_domain) as manager:
        bundle = manager.enroll_device(ns, DeviceSecret(secret), args.challenge)
        _persist_fleet(out, manager)
        cert_path = out / f"{bundle.urn.uuid}.pem"
        cert_path.write_text(bundle.certificate_chain)
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
    print(f"enrolled {bundle.urn}")
    print(f"serial {meta.serial}")
    print(f"chain written to {cert_path} (private key stays in device memory)")
    return 0


def cmd_enroll_batch(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    requests = [
        EnrollmentRequest(
            args.root_domain,
            args.device_class,
            _device_secret(args.seed, i),
            args.challenge,
        )
        for i in range(args.count)
    ]
    with scenario_stack(args.root_domain) as stack, _new_manager(stack, args.root_domain) as manager:
        report = manager.enroll_batch(requests, parallelism=args.parallelism)
        _persist_fleet(out, manager)
    report_path = out / "enrollment_report.csv"
    report_path.write_text(report.to_csv())
    summary = report.summary()
    print(
        f"enrolled {summary['succeeded']}/{summary['total']} devices; "
        f"binding {summary['binding_ms_mean']:.1f}ms "
        f"(stddev {summary['binding_ms_stddev']:.1f}), "
        f"issuance {summary['issuance_ms_mean']:.1f}ms "
        f"(stddev {summary['issuance_ms_stddev']:.1f}); report {report_path}"
    )
    return 0 if summary["failed"] == 0 else 1


def cmd_renew(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise IotPkiError(f"renew needs at least one device, got --count {args.count}")
    out = _out_dir(args.out)
    ns = VendorNamespace(args.root_domain, args.device_class)
    rows = ["cycle,uuid,status,serial,fingerprint"]
    renewed = deferred = 0
    with scenario_stack(args.root_domain) as stack, _new_manager(stack, args.root_domain) as manager:
        for i in range(args.count):
            stack.clock.now = BASE_TIME + timedelta(hours=12) * i
            manager.enroll_device(
                ns, DeviceSecret(_device_secret(args.seed, i)), args.challenge
            )
        for cycle in range(1, args.cycles + 1):
            if args.now is not None:
                stack.clock.now = args.now
            else:
                horizon = min(
                    r.current_cert.not_after
                    for r in manager.inventory.records()
                    if r.renewal_state is not RenewalState.REVOKED
                )
                stack.clock.now = horizon - timedelta(days=15)
            for outcome in manager.renewal_tick():
                rows.append(
                    f"{cycle},{outcome.device_uuid},{outcome.status},"
                    f"{outcome.serial or ''},{outcome.public_key_fingerprint or ''}"
                )
                if outcome.status == "renewed":
                    renewed += 1
                else:
                    deferred += 1
        _persist_fleet(out, manager)
    report_path = out / "renewal_report.csv"
    report_path.write_text("\n".join(rows) + "\n")
    print(
        f"{renewed} renewed (key fingerprints preserved), {deferred} deferred "
        f"over {args.cycles} cycle(s) for {args.count} devices; report {report_path}"
    )
    return 0 if deferred == 0 else 1


def cmd_revoke(args: argparse.Namespace) -> int:
    out = Path(args.out)
    inventory = _restore_fleet(out)
    serial = inventory.revoke(args.uuid).serial
    inventory.snapshot(out / SNAPSHOT_FILE)
    print(f"revoked {args.uuid} serial {serial}")
    return 0


def cmd_filter_build(args: argparse.Namespace) -> int:
    out = Path(args.out)
    inventory = _restore_fleet(out)
    # An empty snapshot's vendor is the flag, spelled as its URNs would spell it.
    vendors = {record.urn.namespace.root_domain for record in inventory.records()} or {
        VendorNamespace(args.root_domain, "device").root_domain
    }
    if len(vendors) > 1:
        raise IotPkiError(f"snapshot names vendors {', '.join(sorted(vendors))}; a filter covers one")
    universe, revoked = inventory.serials()
    filt = build_filter(revoked, universe, vendors.pop(), args.epoch)
    payload = serialize(filt)
    filter_path = out / FILTER_FILE
    filter_path.write_bytes(payload)
    print(
        f"filter epoch {filt.epoch}: {len(revoked)} revoked of {len(universe)} issued, "
        f"{len(filt.levels)} level(s), {len(payload)} bytes -> {filter_path}"
    )
    return 0


def cmd_filter_check(args: argparse.Namespace) -> int:
    filter_path = Path(args.out) / FILTER_FILE
    serial = _serial_spelling(args.serial)
    if not filter_path.exists():
        raise IotPkiError(f"no revocation filter at {filter_path}; run filter build first")
    filt = deserialize(filter_path.read_bytes())
    verdict = "revoked" if query(filt, serial) else "not revoked"
    print(f"{serial}: {verdict} (vendor {filt.vendor_id}, epoch {filt.epoch})")
    return 0


_HEX_SERIAL = re.compile(r"(?:0[xX])?([0-9A-Fa-f]+)")


def _serial_spelling(text: str) -> str:
    """A typed hex serial (hex digits in any case, leading zeros, an
    optional 0x) in the one spelling filters are built over,
    ``certs.serial_hex``'s."""
    match = _HEX_SERIAL.fullmatch(text)
    if match is None:
        raise IotPkiError(f"serial {text!r} is not a hex number")
    return format(int(match[1], 16), "x")


def _serve_until(duration: float) -> None:
    """Return after ``duration`` seconds, or on an interrupt. A duration of
    0 waits for the interrupt; so does one too long to reach, whether
    infinite or past what ``time.sleep`` takes at once."""
    deadline = time.monotonic() + (duration or math.inf)
    try:
        while (left := deadline - time.monotonic()) > 0:
            time.sleep(min(left, 3600.0))
    except KeyboardInterrupt:
        pass


def cmd_serve(args: argparse.Namespace) -> int:
    apex = args.root_domain
    zone = _vendor_zone(apex)
    snapshot_path = Path(args.out) / SNAPSHOT_FILE
    if snapshot_path.exists():
        inventory = Inventory.restore(snapshot_path)
        for record in inventory.records():
            zone.bind_device(str(record.urn), f"cloud.{apex}")
    if args.service == "dns":
        with DnsUdpServer(zone, ("127.0.0.1", args.port)) as dns:
            print(f"dns authority for {zone.apex} listening on {dns.address[0]}:{dns.address[1]}", flush=True)
            _serve_until(args.duration)
        return 0
    with _services(zone, utcnow, args.port) as stack:
        print(f"acme ca listening at {stack.ca.directory_url}", flush=True)
        print(f"challenge dns authority on {stack.dns.address[0]}:{stack.dns.address[1]}", flush=True)
        _serve_until(args.duration)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    apex = args.root_domain
    ns_a, ns_b = VendorNamespace(f"a.{apex}", "gateway"), VendorNamespace(f"b.{apex}", args.device_class)
    # Filters are keyed by the vendor as its URNs spell it, lower case.
    vendor_a, vendor_b = ns_a.root_domain, ns_b.root_domain
    with (
        scenario_stack(apex) as stack,
        _new_manager(stack, vendor_a) as manager_a,
        _new_manager(stack, vendor_b) as manager_b,
    ):
        server = manager_a.enroll_device(ns_a, DeviceSecret(_device_secret(args.seed, 1)), args.challenge)
        client = manager_b.enroll_device(ns_b, DeviceSecret(_device_secret(args.seed, 2)), args.challenge)
        if args.revoke == "server":
            manager_a.revoke_device(server.urn.uuid)
        elif args.revoke == "client":
            manager_b.revoke_device(client.urn.uuid)
        trust = TrustContext(
            roots=(stack.ca.state.root_cert,),
            filters={
                vendor_a: manager_a.revocation_log.publish(manager_a.inventory),
                vendor_b: manager_b.revocation_log.publish(manager_b.inventory),
            },
            clock=stack.clock,
        )
        payload = random.Random(f"{args.seed}|demo").randbytes(256)
        result = mtls_echo(server, client, trust, payload)
    if result.payload_echoed != payload:
        raise IotPkiError("echoed payload does not match what was sent")
    print(f"echoed {len(result.payload_echoed)} bytes over mutual TLS 1.3")
    print(f"handshake {result.handshake_ms:.1f} ms")
    print(f"server accepted client {client.urn}")
    print(f"client accepted server {result.client_verdict.urn}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    modes = ["d2d", "cloud"] if args.mode == "both" else [args.mode]
    stats: dict[str, dict] = {}
    for mode in modes:
        cfg = SimConfig(
            num_mobile_nodes=args.nodes,
            mode=mode,
            duration=args.duration,
            burst_size=args.burst_size,
            poll_interval=args.poll_interval,
            gateway_range=args.gateway_range,
            d2d_link_latency_ms=args.d2d_latency_ms,
            handshake_cost_ms=args.handshake_ms,
            cloud=WeibullParams(beta=args.weibull_beta, lam=args.weibull_lambda),
            cloud_connection_cap=args.cloud_cap,
            seed=args.seed,
        )
        report = run_smart_city(cfg)
        with (out / f"sim_{mode}.csv").open("w") as fp:
            report.write_csv(fp)
        summary = summarize(report.latencies()) if report.samples else None
        if summary is None:
            stats[mode] = {"count": 0, "drops": report.drops}
        else:
            (out / f"sim_{mode}_hist.csv").write_text(summary.histogram_csv)
            stats[mode] = {
                "count": summary.count,
                "mean_s": summary.mean,
                "median_s": summary.median,
                "p95_s": summary.p95,
                "max_s": summary.max,
                "drops": report.drops,
            }
        mean = f"mean {summary.mean:.4f}s, " if summary is not None else ""
        print(f"{mode}: {stats[mode]['count']} samples, {mean}drops {report.drops}")
    if len(modes) == 2 and stats["d2d"].get("mean_s"):
        stats["ratio_cloud_over_d2d"] = stats["cloud"]["mean_s"] / stats["d2d"]["mean_s"]
        print(f"cloud/d2d mean latency ratio: {stats['ratio_cloud_over_d2d']:.1f}x")
    (out / "sim_summary.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def _rfc3339_arg(text: str) -> datetime:
    """An argparse type for an RFC 3339 time, read as ``from_rfc3339`` does."""
    try:
        return from_rfc3339(text)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not an RFC 3339 time: {text!r}") from None


def _int_in(low: int, high: float):
    """An argparse type for an integer in low..high (high may be inf)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer in {low}..{high}")
        return value

    return parse


def _seconds(text: str) -> float:
    """An argparse type for a duration in seconds: a number >= 0, inf included."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # NaN fails the comparison too.
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number of seconds >= 0")
    return value


# The flags several subcommands share; each declares the ones it reads.
_SHARED_FLAGS = {
    "out": dict(default="out", help="output directory (default ./out)"),
    "seed": dict(type=int, default=0, help="seed for all stochastic components"),
    "root-domain": dict(default="vendor.example", help="vendor root domain"),
    "device-class": dict(default="sensor", help="device class label"),
    "challenge": dict(choices=["dns01", "http01"], default="dns01", help="ACME challenge type"),
    "parallelism": dict(type=int, default=DEFAULT_PARALLELISM, help="concurrent enrollments"),
}
_ENROLLMENT_FLAGS = ("out", "seed", "root-domain", "device-class", "challenge")


def _subcommand(sub, name: str, func, shared: tuple[str, ...], summary: str) -> argparse.ArgumentParser:
    """Add subcommand ``name``, run by ``func``, with the shared flags it reads."""
    p = sub.add_parser(name, help=summary)
    for flag in shared:
        p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotpki",
        description="DNS-rooted IoT identity, ACME lifecycle, and latency simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "enroll", cmd_enroll, _ENROLLMENT_FLAGS, "enroll one device against the embedded CA")
    p.add_argument("--secret", help="device secret (>=16 chars); derived from seed if omitted")

    p = _subcommand(
        sub, "enroll-batch", cmd_enroll_batch, (*_ENROLLMENT_FLAGS, "parallelism"), "enroll N devices concurrently"
    )
    p.add_argument("--count", type=int, required=True)

    p = _subcommand(sub, "renew", cmd_renew, _ENROLLMENT_FLAGS, "enroll a fleet, then run renewal cycles")
    p.add_argument("--count", type=int, default=5, help="devices to enroll")
    p.add_argument("--cycles", type=_int_in(1, math.inf), default=1, help="renewal ticks to run")
    p.add_argument(
        "--now", type=_rfc3339_arg, help="RFC 3339 time for the tick (defaults to auto-advance)"
    )

    p = _subcommand(sub, "revoke", cmd_revoke, ("out",), "revoke a device from the saved snapshot")
    p.add_argument("--uuid", type=uuidlib.UUID, required=True)

    actions = sub.add_parser("filter", help="build or query the revocation filter").add_subparsers(
        dest="action", required=True
    )
    p = _subcommand(
        actions, "build", cmd_filter_build, ("out", "root-domain"),
        "build the filter over the snapshot (--root-domain names the vendor of an empty one)",
    )
    p.add_argument("--epoch", type=_int_in(0, 2**32 - 1), default=1)
    p = _subcommand(actions, "check", cmd_filter_check, ("out",), "look a serial up in the built filter")
    p.add_argument("--serial", required=True, help="serial to check (hex)")

    p = _subcommand(sub, "serve", cmd_serve, ("out", "root-domain"), "run the DNS authority or the embedded CA")
    p.add_argument("service", choices=["dns", "ca"])
    p.add_argument("--port", type=_int_in(0, 65535), default=0, help="bind port (0 = ephemeral)")
    p.add_argument("--duration", type=_seconds, default=0.0, help="seconds to serve (0 = until interrupt)")

    p = _subcommand(
        sub, "demo", cmd_demo, ("seed", "root-domain", "device-class", "challenge"),
        "two-vendor mutual-TLS echo scenario",
    )
    p.add_argument("scenario", choices=["d2d"])
    p.add_argument("--revoke", choices=["client", "server"], help="revoke one side first")

    p = _subcommand(sub, "simulate", cmd_simulate, ("out", "seed"), "smart-city latency simulation")
    p.add_argument("--mode", choices=["d2d", "cloud", "both"], default="both")
    p.add_argument("--nodes", type=int, default=SimConfig.num_mobile_nodes)
    p.add_argument("--duration", type=float, default=SimConfig.duration, help="simulated seconds")
    p.add_argument("--burst-size", dest="burst_size", type=int, default=SimConfig.burst_size)
    p.add_argument("--poll-interval", dest="poll_interval", type=float, default=SimConfig.poll_interval)
    p.add_argument("--gateway-range", dest="gateway_range", type=float, default=SimConfig.gateway_range)
    p.add_argument(
        "--d2d-latency-ms", dest="d2d_latency_ms", type=float, default=SimConfig.d2d_link_latency_ms
    )
    p.add_argument("--handshake-ms", dest="handshake_ms", type=float, default=SimConfig.handshake_cost_ms)
    p.add_argument("--weibull-beta", dest="weibull_beta", type=float, default=WEIBULL_BETA)
    p.add_argument("--weibull-lambda", dest="weibull_lambda", type=float, default=WEIBULL_LAMBDA)
    p.add_argument("--cloud-cap", dest="cloud_cap", type=int, default=SimConfig.cloud_connection_cap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IotPkiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
