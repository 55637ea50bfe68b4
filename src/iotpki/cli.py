"""Operator command line: enrollment scenarios, renewal, revocation,
filter publication, embedded services, the two-vendor mTLS demo, and the
smart-city latency simulation.

Scenario commands are hermetic: each invocation spins up the embedded
CA, DNS authority, and token shelf in-process, runs the scenario, and
writes only public artifacts (reports, snapshots, certificates, filter
bytes) under the --out directory. Device private keys never leave
process memory.

Configuration precedence: command-line flags > IOTPKI_* environment
variables > --config file (plain ``key = value`` lines) > defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import uuid as uuidlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

from .acme import CaConfig, TestCa, TokenShelf
from .dnsauth import DnsUdpServer, RType, Zone
from .errors import IotPkiError
from .identity import DeviceSecret, VendorNamespace
from .inventory import Inventory, RenewalState, from_rfc3339
from .lifecycle import EnrollmentRequest, FleetManager, require_certificate
from .peer_auth import TrustContext, mtls_echo
from .revocation import RevocationLog, build_filter, deserialize, query, serialize
from .simulator import SimConfig, WeibullParams, run_smart_city, summarize

BASE_TIME = datetime(2026, 1, 1, tzinfo=timezone.utc)

SNAPSHOT_FILE = "inventory.snapshot"
ISSUED_FILE = "issued_serials.txt"
REVOKED_FILE = "revoked_serials.txt"
FILTER_FILE = "revocations.filter"


class ManualClock:
    """Injectable clock so scenario time is script-controlled. Anchored at
    wall time by default so a scenario starts at the present; live mTLS
    sessions check validity windows against this clock, not the real one."""

    def __init__(self, now: datetime | None = None) -> None:
        self.now = now if now is not None else datetime.now(timezone.utc)

    def __call__(self) -> datetime:
        return self.now


@dataclass
class Settings:
    root_domain: str = "vendor.example"
    device_class: str = "sensor"
    challenge: str = "dns01"
    parallelism: int = 4
    seed: int = 0
    out: str = "out"


def _parse_config_file(path: str) -> dict:
    """Plain ``key = value`` lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IotPkiError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IotPkiError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def load_settings(args: argparse.Namespace) -> Settings:
    """Merge config file, then environment, then flags over the defaults.
    A value of the wrong type is an IotPkiError naming where it came from."""
    settings = Settings()
    config_path = getattr(args, "config", None)
    config = _parse_config_file(config_path) if config_path else {}
    for field_ in fields(Settings):
        kind = type(field_.default)
        env_key = f"IOTPKI_{field_.name.upper()}"
        layers = (
            (f"{config_path}: {field_.name}", config.get(field_.name)),
            (f"environment variable {env_key}", os.environ.get(env_key)),
            (f"flag --{field_.name.replace('_', '-')}", getattr(args, field_.name, None)),
        )
        for source, value in layers:
            if value is None:
                continue
            try:
                setattr(settings, field_.name, kind(value))
            except ValueError:
                raise IotPkiError(f"{source}: {value!r} is not a valid {kind.__name__}") from None
    return settings


def _out_dir(settings: Settings) -> Path:
    path = Path(settings.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def scenario_stack(apex: str):
    """Embedded DNS authority + token shelf + ACME CA on loopback."""
    clock = ManualClock()
    zone = Zone(apex)
    zone.set_record(f"cloud.{apex}", RType.A, "127.0.0.1")
    dns = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    shelf = TokenShelf().start()
    ca = TestCa(CaConfig(dns_addr=dns.address, http01_port=shelf.port, clock=clock)).start()
    try:
        yield SimpleNamespace(zone=zone, dns=dns, shelf=shelf, ca=ca, clock=clock)
    finally:
        ca.close()
        shelf.close()
        dns.close()


def _new_manager(stack, settings: Settings, root_domain: str | None = None) -> FleetManager:
    return FleetManager(
        inventory=Inventory(),
        zone=stack.zone,
        revocation_log=RevocationLog(root_domain or settings.root_domain),
        directory_url=stack.ca.directory_url,
        ca_bundle_pem=stack.ca.service_cert_pem,
        cloud_target=f"cloud.{stack.zone.apex}",
        clock=stack.clock,
        http_shelf=stack.shelf,
    )


def _device_secret(seed: int, index: int) -> bytes:
    return f"{seed}:device:{index:06d}:secret".encode()


def _persist_fleet(out: Path, manager: FleetManager, ca: TestCa) -> None:
    """Write the fleet of a scenario's fresh CA. The revocation artifacts
    left by an earlier scenario name serials of a CA that is gone, so they
    go too."""
    manager.inventory.snapshot(out / SNAPSHOT_FILE)
    serials = sorted(ca.state.issued_serials())
    (out / ISSUED_FILE).write_text("\n".join(serials) + "\n")
    for stale in (REVOKED_FILE, FILTER_FILE):
        (out / stale).unlink(missing_ok=True)


# -- subcommands -------------------------------------------------------------


def cmd_enroll(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
    ns = VendorNamespace(settings.root_domain, settings.device_class)
    secret = (
        args.secret.encode() if args.secret else _device_secret(settings.seed, 0)
    )
    with scenario_stack(settings.root_domain) as stack, _new_manager(stack, settings) as manager:
        bundle = manager.enroll_device(ns, DeviceSecret(secret), settings.challenge)
        _persist_fleet(out, manager, stack.ca)
        cert_path = out / f"{bundle.urn.uuid}.pem"
        cert_path.write_text(bundle.certificate_chain)
        meta = manager.inventory.get(bundle.urn.uuid).current_cert
    print(f"enrolled {bundle.urn}")
    print(f"serial {meta.serial}")
    print(f"chain written to {cert_path} (private key stays in device memory)")
    return 0


def cmd_enroll_batch(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
    requests = [
        EnrollmentRequest(
            settings.root_domain,
            settings.device_class,
            _device_secret(settings.seed, i),
            settings.challenge,
        )
        for i in range(args.count)
    ]
    with scenario_stack(settings.root_domain) as stack, _new_manager(stack, settings) as manager:
        report = manager.enroll_batch(requests, parallelism=settings.parallelism)
        _persist_fleet(out, manager, stack.ca)
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


def cmd_renew(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
    ns = VendorNamespace(settings.root_domain, settings.device_class)
    rows = ["cycle,uuid,status,serial,fingerprint"]
    all_renewed = True
    with scenario_stack(settings.root_domain) as stack, _new_manager(stack, settings) as manager:
        for i in range(args.count):
            stack.clock.now = BASE_TIME + timedelta(hours=12) * i
            manager.enroll_device(
                ns, DeviceSecret(_device_secret(settings.seed, i)), settings.challenge
            )
        for cycle in range(1, args.cycles + 1):
            if args.now:
                stack.clock.now = from_rfc3339(args.now)
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
                if outcome.status != "renewed":
                    all_renewed = False
        _persist_fleet(out, manager, stack.ca)
    report_path = out / "renewal_report.csv"
    report_path.write_text("\n".join(rows) + "\n")
    renewals = len(rows) - 1
    print(
        f"{renewals} renewals over {args.cycles} cycle(s) for {args.count} devices; "
        f"key fingerprints preserved; report {report_path}"
    )
    return 0 if all_renewed else 1


def cmd_revoke(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
    snapshot_path = out / SNAPSHOT_FILE
    if not snapshot_path.exists():
        raise IotPkiError(f"no inventory snapshot at {snapshot_path}; enroll first")
    inventory = Inventory.restore(snapshot_path)
    serial = require_certificate(inventory.get(args.uuid)).serial
    inventory.set_state(args.uuid, RenewalState.REVOKED)
    inventory.snapshot(snapshot_path)
    revoked_path = out / REVOKED_FILE
    existing = set(revoked_path.read_text().split()) if revoked_path.exists() else set()
    existing.add(serial)
    revoked_path.write_text("\n".join(sorted(existing)) + "\n")
    print(f"revoked {args.uuid} serial {serial}")
    return 0


def cmd_filter(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
    filter_path = out / FILTER_FILE
    if args.action == "build":
        issued_path = out / ISSUED_FILE
        if not issued_path.exists():
            raise IotPkiError(f"no issued-serial universe at {issued_path}; enroll first")
        universe = set(issued_path.read_text().split())
        revoked_path = out / REVOKED_FILE
        revoked = set(revoked_path.read_text().split()) if revoked_path.exists() else set()
        filt = build_filter(revoked, universe, settings.root_domain, args.epoch)
        payload = serialize(filt)
        filter_path.write_bytes(payload)
        print(
            f"filter epoch {filt.epoch}: {len(revoked)} revoked of {len(universe)} issued, "
            f"{len(filt.levels)} level(s), {len(payload)} bytes -> {filter_path}"
        )
        return 0
    serial = _serial_spelling(args.serial)
    if not filter_path.exists():
        raise IotPkiError(f"no revocation filter at {filter_path}; run filter build first")
    filt = deserialize(filter_path.read_bytes())
    verdict = "revoked" if query(filt, serial) else "not revoked"
    print(f"{serial}: {verdict} (vendor {filt.vendor_id}, epoch {filt.epoch})")
    return 0


def _serial_spelling(text: str) -> str:
    """A typed hex serial (any case, leading zeros, an optional 0x) in
    the one spelling filters are built over, ``certs.serial_hex``'s."""
    try:
        number = int(text, 16)
    except ValueError:
        number = -1
    if number < 0 or not text.isascii():
        raise IotPkiError(f"serial {text!r} is not a hex number")
    return format(number, "x")


def _serve_until(duration: float, close) -> None:
    try:
        if duration > 0:
            time.sleep(duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        close()


def cmd_serve(args: argparse.Namespace, settings: Settings) -> int:
    apex = settings.root_domain
    zone = Zone(apex)
    zone.set_record(f"cloud.{apex}", RType.A, "127.0.0.1")
    snapshot_path = Path(settings.out) / SNAPSHOT_FILE
    if snapshot_path.exists():
        inventory = Inventory.restore(snapshot_path)
        for record in inventory.records():
            zone.bind_device(str(record.urn), f"cloud.{apex}")
    if args.service == "dns":
        dns = DnsUdpServer(zone, ("127.0.0.1", args.port)).start()
        print(f"dns authority for {apex} listening on {dns.address[0]}:{dns.address[1]}", flush=True)
        _serve_until(args.duration, dns.close)
        return 0
    dns = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    shelf = TokenShelf().start()
    ca = TestCa(
        CaConfig(bind_addr=("127.0.0.1", args.port), dns_addr=dns.address, http01_port=shelf.port)
    ).start()
    print(f"acme ca listening at {ca.directory_url}", flush=True)
    print(f"challenge dns authority on {dns.address[0]}:{dns.address[1]}", flush=True)

    def close_all():
        ca.close()
        shelf.close()
        dns.close()

    _serve_until(args.duration, close_all)
    return 0


def cmd_demo(args: argparse.Namespace, settings: Settings) -> int:
    apex = settings.root_domain
    vendor_a, vendor_b = f"a.{apex}", f"b.{apex}"
    with (
        scenario_stack(apex) as stack,
        _new_manager(stack, settings, vendor_a) as manager_a,
        _new_manager(stack, settings, vendor_b) as manager_b,
    ):
        server = manager_a.enroll_device(
            VendorNamespace(vendor_a, "gateway"),
            DeviceSecret(_device_secret(settings.seed, 1)),
            settings.challenge,
        )
        client = manager_b.enroll_device(
            VendorNamespace(vendor_b, settings.device_class),
            DeviceSecret(_device_secret(settings.seed, 2)),
            settings.challenge,
        )
        if args.revoke == "server":
            manager_a.revoke_device(server.urn.uuid)
        elif args.revoke == "client":
            manager_b.revoke_device(client.urn.uuid)
        universe = stack.ca.state.issued_serials()
        trust = TrustContext(
            roots=(stack.ca.state.root_cert,),
            filters={
                vendor_a: manager_a.revocation_log.publish(universe),
                vendor_b: manager_b.revocation_log.publish(universe),
            },
            clock=stack.clock,
        )
        payload = random.Random(f"{settings.seed}|demo").randbytes(256)
        result = mtls_echo(server, client, trust, payload)
    if result.payload_echoed != payload:
        raise IotPkiError("echoed payload does not match what was sent")
    print(f"echoed {len(result.payload_echoed)} bytes over mutual TLS 1.3")
    print(f"handshake {result.handshake_ms:.1f} ms")
    print(f"server accepted client {result.server_verdict.urn}")
    print(f"client accepted server {result.client_verdict.urn}")
    return 0


def cmd_simulate(args: argparse.Namespace, settings: Settings) -> int:
    out = _out_dir(settings)
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
            seed=settings.seed,
        )
        report = run_smart_city(cfg)
        (out / f"sim_{mode}.csv").write_text(report.to_csv())
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
        print(
            f"{mode}: {stats[mode].get('count', 0)} samples, "
            f"mean {stats[mode].get('mean_s', float('nan')):.4f}s, "
            f"drops {report.drops}"
        )
    if len(modes) == 2 and stats["d2d"].get("mean_s"):
        stats["ratio_cloud_over_d2d"] = stats["cloud"]["mean_s"] / stats["d2d"]["mean_s"]
        print(f"cloud/d2d mean latency ratio: {stats['ratio_cloud_over_d2d']:.1f}x")
    (out / "sim_summary.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    common.add_argument("--out", help="output directory (default ./out)")
    common.add_argument("--seed", type=int, help="seed for all stochastic components")
    common.add_argument("--root-domain", dest="root_domain", help="vendor root domain")
    common.add_argument("--device-class", dest="device_class", help="device class label")
    common.add_argument("--challenge", choices=["dns01", "http01"], help="ACME challenge type")
    common.add_argument("--parallelism", type=int, help="concurrent enrollments")

    parser = argparse.ArgumentParser(
        prog="iotpki",
        description="DNS-rooted IoT identity, ACME lifecycle, and latency simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", parents=[common], help="enroll one device against the embedded CA")
    p.add_argument("--secret", help="device secret (>=16 chars); derived from seed if omitted")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("enroll-batch", parents=[common], help="enroll N devices concurrently")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_enroll_batch)

    p = sub.add_parser("renew", parents=[common], help="enroll a fleet, then run renewal cycles")
    p.add_argument("--count", type=int, default=5, help="devices to enroll")
    p.add_argument("--cycles", type=int, default=1, help="renewal ticks to run")
    p.add_argument("--now", help="RFC 3339 time for the tick (defaults to auto-advance)")
    p.set_defaults(func=cmd_renew)

    p = sub.add_parser("revoke", parents=[common], help="revoke a device from the saved snapshot")
    p.add_argument("--uuid", type=uuidlib.UUID, required=True)
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("filter", parents=[common], help="build or query the revocation filter")
    p.add_argument("action", choices=["build", "check"])
    p.add_argument("--epoch", type=int, default=1)
    p.add_argument("--serial", help="serial to check (hex)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("serve", parents=[common], help="run the DNS authority or the embedded CA")
    p.add_argument("service", choices=["dns", "ca"])
    p.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    p.add_argument("--duration", type=float, default=0.0, help="seconds to serve (0 = until interrupt)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("demo", parents=[common], help="two-vendor mutual-TLS echo scenario")
    p.add_argument("scenario", choices=["d2d"])
    p.add_argument("--revoke", choices=["client", "server"], help="revoke one side first")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("simulate", parents=[common], help="smart-city latency simulation")
    p.add_argument("--mode", choices=["d2d", "cloud", "both"], default="both")
    p.add_argument("--nodes", type=int, default=500)
    p.add_argument("--duration", type=float, default=300.0, help="simulated seconds")
    p.add_argument("--burst-size", dest="burst_size", type=int, default=10)
    p.add_argument("--poll-interval", dest="poll_interval", type=float, default=2.0)
    p.add_argument("--gateway-range", dest="gateway_range", type=float, default=100.0)
    p.add_argument("--d2d-latency-ms", dest="d2d_latency_ms", type=float, default=17.0)
    p.add_argument("--handshake-ms", dest="handshake_ms", type=float, default=50.0)
    p.add_argument("--weibull-beta", dest="weibull_beta", type=float, default=0.5)
    p.add_argument("--weibull-lambda", dest="weibull_lambda", type=float, default=6.37)
    p.add_argument("--cloud-cap", dest="cloud_cap", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "filter" and args.action == "check" and not args.serial:
        parser.error("filter check requires --serial")
    try:
        settings = load_settings(args)
        return args.func(args, settings)
    except IotPkiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
