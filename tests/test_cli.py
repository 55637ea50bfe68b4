"""Command-line behavior: exit codes, flags per subcommand, artifacts, determinism."""

from __future__ import annotations

import hashlib
import http.client
import json
import shlex
import socket
import ssl
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from iotpki import cli
from iotpki.certs import split_pem_chain
from iotpki.dnsauth import Rcode, RType
from iotpki.dnsauth.server import resolve
from iotpki.errors import BindFailure
from iotpki.identity import DeviceSecret, DeviceUrn, VendorNamespace, derive_device_uuid
from iotpki.inventory import CertificateMeta, Inventory, RenewalState
from iotpki.peer_auth import TrustContext, validate_peer
from iotpki.revocation import deserialize, query


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_filter_dir(tmp_path, capsys):
    """A filter over a written snapshot: a revoked device holding abc005,
    and a device holding abc006 that superseded 1f."""
    ns = VendorNamespace("vendor.example", "sensor")
    inventory = Inventory()
    for tag, serials in (("revoked", ["abc005"]), ("renewed", ["1f", "abc006"])):
        urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(f"small-filter-{tag}".encode())), ns)
        inventory.upsert_device(urn, now=cli.BASE_TIME)
        for serial in serials:
            meta = CertificateMeta(
                serial, cli.BASE_TIME, cli.BASE_TIME + timedelta(days=1), "ab" * 32, cli.BASE_TIME, "chain"
            )
            inventory.attach_certificate(urn.uuid, meta)
        if tag == "revoked":
            inventory.set_state(urn.uuid, RenewalState.REVOKED)
    inventory.snapshot(tmp_path / cli.SNAPSHOT_FILE)
    code, stdout, _ = run(["filter", "build", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert stdout.startswith("filter epoch 1: 1 revoked of 3 issued")
    return str(tmp_path)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["enroll", "--definitely-not-a-flag"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_bad_uuid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["revoke", "--uuid", "not-a-uuid"])
        assert excinfo.value.code == 2

    def test_filter_check_requires_serial(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["filter", "check"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enroll", "--parallelism", "2"],
            ["renew", "--parallelism", "2"],
            ["revoke", "--uuid", "00000000-0000-4000-8000-000000000000", "--seed", "1"],
            ["filter", "build", "--serial", "ab"],
            ["filter", "check", "--serial", "ab", "--epoch", "2"],
            ["serve", "dns", "--challenge", "http01"],
            ["demo", "d2d", "--out", "d"],
            ["simulate", "--root-domain", "a.test"],
            ["enroll", "--config", "f"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a[0].isdigit()),
    )
    def test_flag_the_subcommand_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_iotpki_variables_are_not_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IOTPKI_SEED", "abc")
        monkeypatch.setenv("IOTPKI_ROOT_DOMAIN", "envy.test")
        code, stdout, _ = run(["enroll", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert ".vendor.example" in stdout and "envy.test" not in stdout

    @pytest.mark.parametrize(
        "argv, code, diagnostic",
        [
            (["renew", "--count", "0"], 1, "at least one device"),
            (["renew", "--now", "2026-13-01"], 2, "--now"),
            (["renew", "--count", "1", "--cycles", "-1"], 2, "--cycles"),
            (["filter", "build", "--epoch", "-1"], 2, "--epoch"),
            (["filter", "build", "--epoch", "4294967296"], 2, "--epoch"),
            (["serve", "dns", "--port", "70000"], 2, "--port"),
            (["serve", "dns", "--duration", "-1"], 2, "--duration"),
            (["serve", "dns", "--duration", "nan"], 2, "--duration"),
            (["enroll-batch", "--count", "2", "--parallelism", "0"], 1, "parallelism"),
        ],
        ids=["renew-count-0", "renew-month-13", "renew-cycles-neg", "epoch-neg", "epoch-2^32",
             "port-70000", "serve-duration-neg", "serve-duration-nan", "parallelism-flag-0"],
    )
    def test_value_out_of_range_keeps_exit_contract(self, small_filter_dir, capsys, argv, code, diagnostic):
        """1 with one error line for a domain error, 2 for a flag argparse
        rejects; never a traceback. The filter rows run over a built
        universe, so they reach the epoch."""
        argv = [*argv, "--out", small_filter_dir]
        if code == 2:
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2
            assert diagnostic in capsys.readouterr().err
            return
        got, stdout, stderr = run(argv, capsys)
        assert got == 1
        assert stdout == ""
        assert stderr.startswith("error:") and diagnostic in stderr
        assert stderr.count("\n") == 1


README = Path(__file__).resolve().parents[1] / "README.md"
README_PLACEHOLDERS = {"<device-uuid>": "00000000-0000-4000-8000-000000000000", "<hex-serial>": "abc005"}


def readme_command_lines() -> list[str]:
    """Every ``iotpki ...`` line of README's sh blocks, placeholders filled in."""
    lines, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("iotpki "):
            for placeholder, value in README_PLACEHOLDERS.items():
                line = line.replace(placeholder, value)
            lines.append(line)
    return lines


def test_readme_command_lines_parse():
    """The documented command lines use only the flags each subcommand
    takes, and between them run every subcommand."""
    parser = cli.build_parser()
    run_by = {parser.parse_args(shlex.split(line, comments=True)[1:]).func for line in readme_command_lines()}
    assert run_by == {getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}


class TestEnrollmentCommands:
    def test_single_enroll_writes_public_chain(self, tmp_path, capsys):
        out = str(tmp_path / "a")
        code, stdout, _ = run(
            ["enroll", "--out", out, "--root-domain", "vendor.test", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "enrolled" in stdout
        pems = list((tmp_path / "a").glob("*.pem"))
        assert len(pems) == 1
        text = pems[0].read_text()
        assert "BEGIN CERTIFICATE" in text
        assert "PRIVATE KEY" not in text
        # The snapshot is the one record of the fleet's serials.
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [pems[0].name, "inventory.snapshot"]

    def test_batch_report_row_count(self, tmp_path, capsys):
        out = str(tmp_path / "b")
        code, stdout, _ = run(
            [
                "enroll-batch", "--count", "3", "--out", out,
                "--root-domain", "vendor.test", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "b" / "enrollment_report.csv").read_text().strip().splitlines()
        assert lines[0] == "uuid,outcome,binding_ms,issuance_ms"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "ok" for line in lines[1:])

    def test_batch_uuids_deterministic_under_seed(self, tmp_path, capsys):
        uuid_cols = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            code, _, _ = run(
                [
                    "enroll-batch", "--count", "2", "--out", str(out),
                    "--root-domain", "vendor.test", "--seed", "9",
                ],
                capsys,
            )
            assert code == 0
            report = (out / "enrollment_report.csv").read_text()
            uuid_cols.append([line.split(",")[0] for line in report.strip().splitlines()[1:]])
        assert uuid_cols[0] == uuid_cols[1]


class TestRevokeAndFilter:
    @pytest.fixture()
    def fleet_dir(self, tmp_path, capsys):
        out = str(tmp_path / "fleet")
        code, _, _ = run(
            [
                "enroll-batch", "--count", "3", "--out", out,
                "--root-domain", "vendor.test", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        return out

    def first_uuid(self, fleet_dir) -> str:
        from pathlib import Path

        report = Path(fleet_dir, "enrollment_report.csv").read_text()
        return report.strip().splitlines()[1].split(",")[0]

    def test_revoke_then_filter_roundtrip(self, fleet_dir, capsys):
        from pathlib import Path

        uuid = self.first_uuid(fleet_dir)
        code, stdout, _ = run(["revoke", "--uuid", uuid, "--out", fleet_dir], capsys)
        assert code == 0
        assert "revoked" in stdout
        serial = stdout.split()[-1]

        code, stdout, _ = run(
            ["filter", "build", "--out", fleet_dir, "--root-domain", "vendor.test"],
            capsys,
        )
        assert code == 0
        filt = deserialize(Path(fleet_dir, "revocations.filter").read_bytes())
        assert filt.vendor_id == "vendor.test"
        assert query(filt, serial) is True

        code, stdout, _ = run(
            ["filter", "check", "--serial", serial, "--out", fleet_dir], capsys
        )
        assert code == 0
        assert "revoked" in stdout and "not revoked" not in stdout

        issued, _ = Inventory.restore(Path(fleet_dir, "inventory.snapshot")).serials()
        clean = next(s for s in issued if s != serial)
        code, stdout, _ = run(
            ["filter", "check", "--serial", clean, "--out", fleet_dir], capsys
        )
        assert code == 0
        assert "not revoked" in stdout

    def test_revoke_unknown_uuid_is_domain_error(self, fleet_dir, capsys):
        code, _, stderr = run(
            ["revoke", "--uuid", "00000000-0000-4000-8000-000000000000", "--out", fleet_dir],
            capsys,
        )
        assert code == 1
        assert stderr.startswith("error:")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")

    def test_revoke_twice_is_domain_error(self, fleet_dir, capsys):
        uuid = self.first_uuid(fleet_dir)
        assert run(["revoke", "--uuid", uuid, "--out", fleet_dir], capsys)[0] == 0
        code, _, stderr = run(["revoke", "--uuid", uuid, "--out", fleet_dir], capsys)
        assert code == 1
        assert "already revoked" in stderr

    @pytest.mark.parametrize(
        "typed, spelled, verdict",
        [
            ("abc005", "abc005", "revoked"),
            ("ABC005", "abc005", "revoked"),
            ("0xabc005", "abc005", "revoked"),
            ("0XAbC005", "abc005", "revoked"),
            ("00abc005", "abc005", "revoked"),
            ("abc006", "abc006", "not revoked"),
            ("001F", "1f", "not revoked"),
        ],
    )
    def test_filter_check_reads_any_hex_spelling(
        self, small_filter_dir, capsys, typed, spelled, verdict
    ):
        code, stdout, _ = run(
            ["filter", "check", "--serial", typed, "--out", small_filter_dir], capsys
        )
        assert code == 0
        assert stdout.startswith(f"{spelled}: {verdict} (")

    @pytest.mark.parametrize(
        "typed", ["xyz", "abc-005", "-abc005", "0x", "\u0661\u0662", "ab_cd", "+ab", "0x_ab", " ab "]
    )
    def test_filter_check_rejects_text_that_is_not_hex(self, small_filter_dir, capsys, typed):
        code, stdout, stderr = run(
            ["filter", "check", f"--serial={typed}", "--out", small_filter_dir], capsys
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and "not a hex number" in stderr

    def test_filter_build_without_universe_errors(self, tmp_path, capsys):
        code, _, stderr = run(["filter", "build", "--out", str(tmp_path / "empty")], capsys)
        assert code == 1
        assert "enroll first" in stderr

    def test_filter_check_without_filter_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code, stdout, stderr = run(
            ["filter", "check", "--serial", "abc", "--out", str(out)], capsys
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and str(out / "revocations.filter") in stderr
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["revoke", "--uuid", "00000000-0000-4000-8000-000000000000"],
            ["filter", "check", "--serial", "ab"],
            ["filter", "build"],
        ],
        ids=["revoke", "filter-check", "filter-build"],
    )
    def test_reading_a_missing_out_directory_does_not_create_it(self, tmp_path, capsys, argv):
        out = tmp_path / "typo"
        code, stdout, stderr = run([*argv, "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert not out.exists()

    def test_new_scenario_drops_revocations_of_the_replaced_ca(self, fleet_dir, capsys):
        from pathlib import Path

        uuid = self.first_uuid(fleet_dir)
        assert run(["revoke", "--uuid", uuid, "--out", fleet_dir], capsys)[0] == 0
        build = ["filter", "build", "--out", fleet_dir, "--root-domain", "vendor.test"]
        assert run(build, capsys)[0] == 0
        code, _, _ = run(
            [
                "enroll-batch", "--count", "3", "--out", fleet_dir,
                "--root-domain", "vendor.test", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in Path(fleet_dir).iterdir()) == [
            "enrollment_report.csv", "inventory.snapshot"
        ]
        code, stdout, stderr = run(build, capsys)
        assert (code, stderr) == (0, "")
        assert stdout.startswith("filter epoch 1: 0 revoked of 3 issued")

    def test_new_scenario_deletes_the_serial_lists_of_older_versions(self, tmp_path, capsys):
        for name in ("issued_serials.txt", "revoked_serials.txt"):
            (tmp_path / name).write_text("abc005\n")
        assert run(["enroll-batch", "--count", "1", "--out", str(tmp_path)], capsys)[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["enrollment_report.csv", "inventory.snapshot"]

    @pytest.mark.parametrize(
        "enroll, flags, vendor",
        [
            (True, [], "vendor.test"),
            (False, ["--root-domain", "vendor.flag"], "vendor.flag"),
            (False, ["--root-domain", "Vendor.Flag"], "vendor.flag"),
        ],
        ids=["vendor-of-the-snapshot", "empty-snapshot-takes-the-flag", "the-flag-in-its-urn-spelling"],
    )
    def test_filter_is_built_for_the_snapshot_vendor(self, tmp_path, capsys, enroll, flags, vendor):
        out = str(tmp_path)
        if enroll:
            assert run(["enroll", "--root-domain", "vendor.test", "--out", out], capsys)[0] == 0
        else:
            Inventory().snapshot(tmp_path / cli.SNAPSHOT_FILE)
        assert run(["filter", "build", "--out", out, *flags], capsys)[0] == 0
        code, stdout, _ = run(["filter", "check", "--serial", "abc", "--out", out], capsys)
        assert code == 0
        assert stdout.endswith(f"(vendor {vendor}, epoch 1)\n")

    def test_filter_build_refuses_a_snapshot_of_two_vendors(self, tmp_path, capsys):
        inventory = Inventory()
        for apex in ("vendor.test", "other.test"):
            ns = VendorNamespace(apex, "sensor")
            urn = DeviceUrn(derive_device_uuid(ns, DeviceSecret(b"two-vendors-secret")), ns)
            inventory.upsert_device(urn, cli.BASE_TIME)
        inventory.snapshot(tmp_path / cli.SNAPSHOT_FILE)
        code, stdout, stderr = run(["filter", "build", "--out", str(tmp_path)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr == "error: snapshot names vendors other.test, vendor.test; a filter covers one\n"
        assert not (tmp_path / cli.FILTER_FILE).exists()

    def test_revoke_covers_the_serial_a_renewal_superseded(self, tmp_path, capsys):
        out = str(tmp_path / "renewed")
        code, _, _ = run(
            ["renew", "--count", "1", "--cycles", "1", "--out", out, "--root-domain", "vendor.test"],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in Path(out).iterdir()) == ["inventory.snapshot", "renewal_report.csv"]
        (record,) = Inventory.restore(Path(out, "inventory.snapshot")).records()
        (old_serial,) = record.superseded
        assert run(["revoke", "--uuid", str(record.uuid), "--out", out], capsys)[0] == 0
        code, stdout, _ = run(["filter", "build", "--out", out, "--root-domain", "vendor.test"], capsys)
        assert code == 0
        assert stdout.startswith("filter epoch 1: 2 revoked of 2 issued")
        code, stdout, _ = run(["filter", "check", "--serial", old_serial, "--out", out], capsys)
        assert code == 0
        assert stdout.startswith(f"{old_serial}: revoked (")

    @pytest.mark.parametrize(
        "argv",
        [["enroll-batch", "--count", "3"], ["renew", "--count", "2", "--cycles", "3"]],
        ids=["enroll-batch", "renew-3-cycles"],
    )
    def test_snapshot_holds_every_serial_the_scenario_ca_issued(self, tmp_path, capsys, monkeypatch, argv):
        stacks = []
        real_stack = cli.scenario_stack

        @contextmanager
        def recording_stack(apex):
            with real_stack(apex) as stack:
                stacks.append(stack)
                yield stack

        seen = []
        real_persist = cli._persist_fleet

        def recording_persist(out, manager):
            seen.append((manager.inventory.serials()[0], stacks[-1].ca.state.issued_serials()))
            real_persist(out, manager)

        monkeypatch.setattr(cli, "scenario_stack", recording_stack)
        monkeypatch.setattr(cli, "_persist_fleet", recording_persist)
        code, _, _ = run([*argv, "--out", str(tmp_path), "--root-domain", "vendor.test"], capsys)
        assert code == 0
        ((held, issued),) = seen
        assert held == issued and held
        restored, _ = Inventory.restore(tmp_path / "inventory.snapshot").serials()
        assert restored == issued


class TestRenew:
    def test_now_without_zone_is_utc_in_any_host_zone(self, tmp_path, capsys, far_zone):
        out = tmp_path / "r"
        code, _, _ = run(
            [
                "renew", "--count", "1", "--now", "2026-03-15T00:00:00", "--out", str(out),
                "--root-domain", "vendor.test",
            ],
            capsys,
        )
        assert code == 0
        (record,) = Inventory.restore(out / "inventory.snapshot").records()
        assert record.current_cert.issuance_time == datetime(2026, 3, 15, tzinfo=timezone.utc)

    def test_renewed_chains_verify_under_the_scenario_root(self, tmp_path, capsys):
        # Scenario time starts at cli.BASE_TIME whatever the date, so the
        # scenario root covers every leaf the scenario issues.
        code, _, _ = run(
            ["renew", "--count", "2", "--out", str(tmp_path), "--root-domain", "vendor.test"],
            capsys,
        )
        assert code == 0
        records = Inventory.restore(tmp_path / "inventory.snapshot").records()
        assert len(records) == 2
        for record in records:
            cert = record.current_cert
            chain = split_pem_chain(cert.pem_chain)
            trust = TrustContext(roots=(chain[-1],), filters={}, clock=lambda: cert.issuance_time)
            assert validate_peer(chain, trust).accepted

    def test_deferred_renewal_is_counted_as_deferred(self, tmp_path, capsys):
        # The scenario CA's root ends ten years after it starts: in 2090
        # it can issue no leaf, so the renewal is deferred.
        code, out, err = run(
            [
                "renew", "--count", "1", "--now", "2090-01-01T00:00:00Z", "--out", str(tmp_path),
                "--root-domain", "vendor.test",
            ],
            capsys,
        )
        assert code == 1
        assert out.startswith("0 renewed (key fingerprints preserved), 1 deferred over 1 cycle(s)")
        rows = (tmp_path / "renewal_report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["deferred"]
        assert "Traceback" not in err


class TestDemo:
    def test_demo_succeeds(self, capsys):
        code, stdout, _ = run(
            ["demo", "d2d", "--root-domain", "demo.test", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "echoed 256 bytes" in stdout
        assert "server accepted client" in stdout

    def test_a_root_past_the_cn_cap_enrolls_and_echoes(self, tmp_path, capsys):
        # Its URNs are 71 octets, past the 64 characters a CN may hold.
        root = "acme-devices.example.com"
        code, stdout, _ = run(["demo", "d2d", "--root-domain", root], capsys)
        assert code == 0
        assert "echoed 256 bytes" in stdout
        code, stdout, _ = run(
            ["enroll", "--root-domain", root, "--device-class", "camera", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert stdout.startswith("enrolled ") and f".camera.{root}\n" in stdout

    def test_demo_with_revoked_client_fails_with_diagnostic(self, capsys):
        code, _, stderr = run(
            [
                "demo", "d2d", "--root-domain", "demo.test",
                "--seed", "4", "--revoke", "client",
            ],
            capsys,
        )
        assert code == 1
        assert "revoked" in stderr
        assert stderr.count("\n") == 1

    def test_revoked_client_under_a_mixed_case_root_is_refused(self, capsys):
        # The filter is keyed by the vendor as its URNs spell it, lower case.
        code, stdout, stderr = run(
            ["demo", "d2d", "--root-domain", "Demo.Test", "--seed", "4", "--revoke", "client"], capsys
        )
        assert (code, stdout, stderr) == (1, "", "error: server rejected peer: revoked\n")

    def test_demo_with_revoked_server_fails(self, capsys):
        code, _, stderr = run(
            [
                "demo", "d2d", "--root-domain", "demo.test",
                "--seed", "4", "--revoke", "server",
            ],
            capsys,
        )
        assert code == 1
        assert "revoked" in stderr


class TestSimulate:
    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        args = [
            "simulate", "--mode", "both", "--nodes", "30", "--duration", "40",
            "--seed", "21",
        ]
        outputs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code, _, _ = run(args + ["--out", str(out)], capsys)
            assert code == 0
            outputs.append(
                (
                    (out / "sim_d2d.csv").read_bytes(),
                    (out / "sim_cloud.csv").read_bytes(),
                    (out / "sim_summary.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_report_files_match_pinned_hashes(self, tmp_path, capsys):
        # sha256 pinned from the per-element histogram loop and
        # statistics.mean/median that the bisect and exact-sum report replaced.
        pinned = {
            "sim_summary.json": "eced97fc3d4482ee1e7e65af90dc4cff9e6e0b50da98e4621dfa11f763ebfe96",
            "sim_d2d_hist.csv": "59cff06eb819053de234523ecc3e998f816f3e0f2089b591790f8911d9e36291",
            "sim_cloud_hist.csv": "bac1b242d6197dd24fc5ad0848f3b2acff9abcd54f8f81c750b905f8ec9b1b5f",
        }
        code, _, _ = run(
            [
                "simulate", "--mode", "both", "--nodes", "30", "--duration", "40",
                "--seed", "21", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned}
        assert digests == pinned

    def test_summary_reports_latency_gap(self, tmp_path, capsys):
        out = tmp_path / "gap"
        code, stdout, _ = run(
            [
                "simulate", "--mode", "both", "--nodes", "40", "--duration", "60",
                "--seed", "13", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        stats = json.loads((out / "sim_summary.json").read_text())
        assert stats["ratio_cloud_over_d2d"] >= 100.0
        assert stats["d2d"]["drops"] == 0
        assert "ratio" in stdout

    def test_mode_without_contacts_prints_no_mean(self, tmp_path, capsys):
        code, stdout, _ = run(
            [
                "simulate", "--mode", "d2d", "--gateway-range", "1", "--nodes", "5",
                "--duration", "2", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert stdout == "d2d: 0 samples, drops 0\n"
        assert json.loads((tmp_path / "sim_summary.json").read_text()) == {"d2d": {"count": 0, "drops": 0}}

    def test_invalid_sim_config_is_domain_error(self, tmp_path, capsys):
        code, _, stderr = run(
            ["simulate", "--mode", "d2d", "--nodes", "0", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "error:" in stderr

    def test_non_finite_duration_is_rejected(self, tmp_path, capsys):
        # An infinite duration would never end the tick loop.
        code, _, stderr = run(
            ["simulate", "--mode", "d2d", "--duration", "inf", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "duration must be finite" in stderr

    @pytest.mark.parametrize(
        "flags",
        [["--weibull-beta", "0.001"], ["--weibull-lambda", "1e308"]],
        ids=["beta-0.001", "lambda-1e308"],
    )
    def test_overflowing_weibull_is_rejected(self, tmp_path, capsys, flags):
        code, _, stderr = run(
            ["simulate", "--mode", "cloud", *flags, "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert stderr.startswith("error:") and "overflow" in stderr
        assert stderr.count("\n") == 1
        assert not (tmp_path / "sim_cloud.csv").exists()


class FakeTime:
    """Stands in for the time module in cli: sleep advances monotonic by
    what it was asked, refuses waits over an hour, and raises
    KeyboardInterrupt on sleep number ``interrupt_at``."""

    def __init__(self, interrupt_at: int = 0) -> None:
        self.now = 1000.0
        self.sleeps: list[float] = []
        self.interrupt_at = interrupt_at

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert 0 < seconds <= 3600
        self.sleeps.append(seconds)
        self.now += seconds
        if len(self.sleeps) == self.interrupt_at:
            raise KeyboardInterrupt


def hold_serving_until_set(monkeypatch) -> threading.Event:
    """Make ``serve`` run until the returned event is set (at most 10 s),
    not for its --duration, so a live check ends the server at once."""
    checked = threading.Event()
    monkeypatch.setattr(cli, "_serve_until", lambda duration: checked.wait(timeout=10))
    return checked


@contextmanager
def serving_dns(monkeypatch, capsys, *flags):
    """Run ``serve dns`` on a free port in a thread; yield its banner and
    address, then end it and check that it exited 0."""
    result = {}
    checked = hold_serving_until_set(monkeypatch)
    argv = ["serve", "dns", "--port", "0", "--duration", "2.0", *flags]
    thread = threading.Thread(target=lambda: result.setdefault("code", cli.main(argv)))
    thread.start()
    try:
        deadline = time.time() + 5
        stdout = ""
        while time.time() < deadline and "listening on" not in stdout:
            time.sleep(0.05)
            stdout = capsys.readouterr().out or stdout
        assert "listening on" in stdout
        host, port = stdout.rsplit(" ", 1)[-1].strip().split(":")
        yield stdout, (host, int(port))
    finally:
        checked.set()
        thread.join(timeout=10)
    assert result["code"] == 0


class TestServe:
    def test_serve_until_waits_out_a_finite_duration(self, monkeypatch):
        fake = FakeTime()
        monkeypatch.setattr(cli, "time", fake)
        cli._serve_until(7200.5)
        assert fake.sleeps == [3600.0, 3600.0, 0.5]

    @pytest.mark.parametrize("duration", ["0", "inf", "1e10"])
    def test_serve_dns_waits_for_interrupt_in_bounded_sleeps(
        self, tmp_path, capsys, monkeypatch, duration
    ):
        fake = FakeTime(interrupt_at=3)
        monkeypatch.setattr(cli, "time", fake)
        code, stdout, stderr = run(
            ["serve", "dns", "--duration", duration, "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert "listening on" in stdout
        assert stderr == ""
        assert fake.sleeps == [3600.0] * 3

    def test_serve_dns_answers_while_up(self, tmp_path, capsys, monkeypatch):
        with serving_dns(monkeypatch, capsys, "--root-domain", "vendor.test", "--out", str(tmp_path)) as (_, addr):
            rcode, answers = resolve("cloud.vendor.test", RType.A, addr)
        assert rcode is Rcode.NOERROR
        assert any(rec.value == "127.0.0.1" for rec in answers)

    def test_serve_dns_answers_for_the_saved_fleet(self, tmp_path, capsys, monkeypatch):
        flags = ["--root-domain", "Vendor.Example", "--out", str(tmp_path)]
        assert run(["enroll", "--seed", "8", *flags], capsys)[0] == 0
        (record,) = Inventory.restore(tmp_path / cli.SNAPSHOT_FILE).records()
        with serving_dns(monkeypatch, capsys, *flags) as (banner, addr):
            rcode, answers = resolve(str(record.urn), RType.CNAME, addr)
        assert banner.startswith("dns authority for vendor.example listening on")
        assert (rcode, [(r.name, r.value) for r in answers]) == (
            Rcode.NOERROR, [(str(record.urn), "cloud.vendor.example")]
        )

    def test_serve_ca_publishes_directory_while_up(self, tmp_path, capsys, monkeypatch):
        result = {}
        checked = hold_serving_until_set(monkeypatch)

        def target():
            result["code"] = cli.main(
                ["serve", "ca", "--port", "0", "--duration", "2", "--out", str(tmp_path)]
            )

        thread = threading.Thread(target=target)
        thread.start()
        try:
            deadline = time.time() + 5
            stdout = ""
            while time.time() < deadline and "listening at" not in stdout:
                time.sleep(0.05)
                stdout = capsys.readouterr().out or stdout
            assert "listening at" in stdout
            url = stdout.split("listening at ", 1)[1].split()[0]
            assert url.startswith("https://127.0.0.1:") and url.endswith("/directory")
            port = int(url.removeprefix("https://127.0.0.1:").removesuffix("/directory"))
            # The CA's service certificate is minted per run and not printed.
            ctx = ssl.create_default_context()
            ctx.check_hostname = False
            ctx.verify_mode = ssl.CERT_NONE
            conn = http.client.HTTPSConnection("127.0.0.1", port, timeout=5, context=ctx)
            try:
                conn.request("GET", "/directory")
                reply = conn.getresponse()
                assert reply.status == 200
                directory = json.loads(reply.read())
            finally:
                conn.close()
            assert {"newNonce", "newAccount", "newOrder"} <= directory.keys()
        finally:
            checked.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["code"] == 0

    @pytest.mark.parametrize(
        "service, kind, label", [("dns", socket.SOCK_DGRAM, "udp"), ("ca", socket.SOCK_STREAM, "ca")]
    )
    def test_serve_on_busy_port_is_one_error_line(self, tmp_path, capsys, service, kind, label):
        with socket.socket(socket.AF_INET, kind) as holder:
            holder.bind(("127.0.0.1", 0))
            if kind == socket.SOCK_STREAM:
                holder.listen()
            port = holder.getsockname()[1]
            code, _, err = run(
                ["serve", service, "--port", str(port), "--duration", "0.1", "--out", str(tmp_path)],
                capsys,
            )
        assert code == 1
        assert err.startswith(f"error: cannot bind {label} ") and err.count("\n") == 1

    def test_scenario_stack_whose_ca_cannot_bind_leaves_no_server(self, monkeypatch):
        def busy_ca(**_):
            raise BindFailure("cannot bind ca: address in use")

        before = set(threading.enumerate())
        monkeypatch.setattr(cli, "TestCa", busy_ca)
        with pytest.raises(BindFailure), cli.scenario_stack("vendor.test"):
            pass
        assert {t.name for t in set(threading.enumerate()) - before} & {"dns-udp", "token-shelf"} == set()
