"""Command-line behavior: exit codes, artifacts, precedence, determinism."""

from __future__ import annotations

import hashlib
import json
import threading
import time

import pytest

from iotpki import cli
from iotpki.dnsauth import Rcode, RType
from iotpki.dnsauth.server import resolve
from iotpki.revocation import deserialize, query


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert (tmp_path / "a" / "inventory.snapshot").exists()
        assert (tmp_path / "a" / "issued_serials.txt").exists()

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

        issued = Path(fleet_dir, "issued_serials.txt").read_text().split()
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

    @pytest.fixture()
    def small_filter_dir(self, tmp_path, capsys):
        """A filter over a written universe, with serial abc005 revoked."""
        (tmp_path / "issued_serials.txt").write_text("abc005\nabc006\n1f\n")
        (tmp_path / "revoked_serials.txt").write_text("abc005\n")
        code, _, _ = run(["filter", "build", "--out", str(tmp_path)], capsys)
        assert code == 0
        return str(tmp_path)

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

    @pytest.mark.parametrize("typed", ["xyz", "abc-005", "-abc005", "0x", "\u0661\u0662"])
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
        assert not Path(fleet_dir, "revoked_serials.txt").exists()
        assert not Path(fleet_dir, "revocations.filter").exists()
        code, stdout, stderr = run(build, capsys)
        assert (code, stderr) == (0, "")
        assert stdout.startswith("filter epoch 1: 0 revoked of 3 issued")


class TestDemo:
    def test_demo_succeeds(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["demo", "d2d", "--out", str(tmp_path), "--root-domain", "demo.test", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "echoed 256 bytes" in stdout
        assert "server accepted client" in stdout

    def test_demo_with_revoked_client_fails_with_diagnostic(self, tmp_path, capsys):
        code, _, stderr = run(
            [
                "demo", "d2d", "--out", str(tmp_path), "--root-domain", "demo.test",
                "--seed", "4", "--revoke", "client",
            ],
            capsys,
        )
        assert code == 1
        assert "revoked" in stderr
        assert stderr.count("\n") == 1

    def test_demo_with_revoked_server_fails(self, tmp_path, capsys):
        code, _, stderr = run(
            [
                "demo", "d2d", "--out", str(tmp_path), "--root-domain", "demo.test",
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


class TestServe:
    def test_serve_dns_answers_while_up(self, tmp_path, capsys):
        result = {}

        def target():
            result["code"] = cli.main(
                [
                    "serve", "dns", "--port", "0", "--duration", "2.0",
                    "--root-domain", "vendor.test", "--out", str(tmp_path),
                ]
            )

        thread = threading.Thread(target=target)
        thread.start()
        try:
            deadline = time.time() + 5
            stdout = ""
            while time.time() < deadline and "listening on" not in stdout:
                time.sleep(0.05)
                stdout = capsys.readouterr().out or stdout
            assert "listening on" in stdout
            addr = stdout.rsplit(" ", 1)[-1].strip()
            host, port = addr.split(":")
            rcode, answers = resolve("cloud.vendor.test", RType.A, (host, int(port)))
            assert rcode is Rcode.NOERROR
            assert any(rec.value == "127.0.0.1" for rec in answers)
        finally:
            thread.join(timeout=10)
        assert result["code"] == 0


class TestSettingsPrecedence:
    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        config = tmp_path / "iotpki.conf"
        config.write_text("# fleet defaults\nseed = 1\nroot_domain = config.test\n")

        import argparse

        args = argparse.Namespace(config=str(config), seed=None, root_domain=None)
        settings = cli.load_settings(args)
        assert settings.seed == 1
        assert settings.root_domain == "config.test"

        monkeypatch.setenv("IOTPKI_SEED", "2")
        settings = cli.load_settings(args)
        assert settings.seed == 2

        args.seed = 3
        settings = cli.load_settings(args)
        assert settings.seed == 3
        assert settings.root_domain == "config.test"

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("this line has no equals sign\n")
        code, _, stderr = run(
            ["enroll", "--config", str(config), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "expected key = value" in stderr

    def test_bad_env_value_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IOTPKI_SEED", "abc")
        code, _, stderr = run(["enroll", "--out", str(tmp_path)], capsys)
        assert code == 1
        assert stderr == "error: environment variable IOTPKI_SEED: 'abc' is not a valid int\n"

    @pytest.mark.parametrize(
        "content, diagnostic",
        [
            ("parallelism = many\n", "{config}: parallelism: 'many' is not a valid int"),
            (None, "cannot read config file {config}: "),
        ],
        ids=["bad-value", "missing-file"],
    )
    def test_bad_config_file_is_a_one_line_error(self, tmp_path, capsys, content, diagnostic):
        config = tmp_path / "iotpki.conf"
        if content is not None:
            config.write_text(content)
        code, _, stderr = run(["enroll", "--config", str(config), "--out", str(tmp_path)], capsys)
        assert code == 1
        assert stderr.startswith("error: " + diagnostic.format(config=config))
        assert stderr.count("\n") == 1

    def test_env_override_applies_to_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IOTPKI_OUT", str(tmp_path / "env-out"))
        monkeypatch.setenv("IOTPKI_ROOT_DOMAIN", "envy.test")
        code, stdout, _ = run(["enroll", "--seed", "8"], capsys)
        assert code == 0
        assert "envy.test" in stdout
        assert (tmp_path / "env-out" / "inventory.snapshot").exists()
