"""Zone semantics, RFC 1035 codec round-trips, and the live UDP responder."""

from __future__ import annotations

import random
import socket
import struct
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotpki.dnsauth import wire
from iotpki.dnsauth.server import DnsUdpServer, ResolutionFailure, resolve, resolve_address
from iotpki.dnsauth.zone import (
    CnameConflict,
    InvalidRecord,
    OutOfZone,
    Rcode,
    RType,
    Zone,
    ZoneRecord,
)
from iotpki.identity import DeviceSecret, DeviceUrn, VendorNamespace, derive_device_uuid

NS = VendorNamespace("vendor.com", "camera")
URN = DeviceUrn(derive_device_uuid(NS, DeviceSecret(b"dns-test-secret!")), NS)


def make_zone() -> Zone:
    z = Zone("vendor.com")
    z.set_record("cloud.vendor.com", RType.A, "127.0.0.1")
    return z


class TestZoneMutations:
    def test_bind_device_installs_cname(self):
        z = make_zone()
        rec = z.bind_device(URN, "cloud.vendor.com")
        assert rec.rtype is RType.CNAME
        assert rec.value == "cloud.vendor.com"
        assert rec.name == str(URN)

    def test_bind_twice_same_target_is_idempotent(self):
        z = make_zone()
        z.bind_device(URN, "cloud.vendor.com")
        serial = z.serial
        z.bind_device(URN, "cloud.vendor.com")
        assert z.serial == serial
        assert len([r for r in z.records() if r.name == str(URN)]) == 1

    def test_rebind_replaces_target(self):
        z = make_zone()
        z.bind_device(URN, "cloud.vendor.com")
        z.bind_device(URN, "backup.vendor.com")
        answers = z.answer_query(str(URN), RType.CNAME).answers
        assert [r.value for r in answers] == ["backup.vendor.com"]

    def test_out_of_zone_rejected(self):
        z = Zone("vendor.com")
        other = DeviceUrn(URN.uuid, VendorNamespace("other.org", "camera"))
        with pytest.raises(OutOfZone):
            z.bind_device(other, "cloud.vendor.com")
        with pytest.raises(OutOfZone):
            z.set_acme_txt("x.other.org", "v")

    def test_cname_exclusivity_both_directions(self):
        z = make_zone()
        z.set_record("dual.vendor.com", RType.A, "10.0.0.1")
        with pytest.raises(CnameConflict):
            z.set_record("dual.vendor.com", RType.CNAME, "cloud.vendor.com")
        z.bind_device(URN, "cloud.vendor.com")
        with pytest.raises(CnameConflict):
            z.set_record(str(URN), RType.A, "10.0.0.2")

    def test_acme_txt_set_clear_last_write_wins(self):
        z = make_zone()
        name = f"_acme-challenge.{URN}"
        z.set_acme_txt(str(URN), "first")
        z.set_acme_txt(str(URN), "second")
        answers = z.answer_query(name, RType.TXT).answers
        assert [r.value for r in answers] == ["second"]
        z.clear_acme_txt(str(URN))
        assert z.answer_query(name, RType.TXT).rcode is Rcode.NXDOMAIN

    def test_acme_txt_name_is_checked_where_it_is_written(self):
        z = Zone("vendor.com")
        z.set_acme_txt("X.Vendor.COM.", "v")
        assert [r.name for r in z.records()] == ["_acme-challenge.x.vendor.com"]
        z.clear_acme_txt("x.vendor.com")
        assert z.records() == []
        for fqdn in ("", "x.other.org"):
            with pytest.raises(OutOfZone):
                z.set_acme_txt(fqdn, "v")
            with pytest.raises(OutOfZone):
                z.clear_acme_txt(fqdn)

    def test_record_value_validation(self):
        z = Zone("vendor.com")
        with pytest.raises(InvalidRecord):
            z.set_record("a.vendor.com", RType.A, "999.1.1.1")
        with pytest.raises(InvalidRecord):
            z.set_record("a.vendor.com", RType.TXT, "x" * 256)
        with pytest.raises(InvalidRecord):
            z.set_record("bad_label!.vendor.com", RType.A, "1.2.3.4")

    def test_serial_strictly_monotone_over_random_ops(self):
        rng = random.Random(7)
        z = Zone("vendor.com")
        last = z.serial
        names = [f"n{i}.vendor.com" for i in range(8)]
        for _ in range(300):
            name = rng.choice(names)
            op = rng.randrange(4)
            try:
                if op == 0:
                    z.set_record(name, RType.A, f"10.0.0.{rng.randrange(256)}")
                elif op == 1:
                    z.set_record(name, RType.CNAME, rng.choice(names))
                elif op == 2:
                    z.set_record(name, RType.TXT, f"v{rng.randrange(10)}")
                else:
                    z.remove(name, rng.choice(list(RType)))
            except CnameConflict:
                pass
            assert z.serial >= last
            last = z.serial
            # CNAME exclusivity must hold after every operation.
            by_name: dict[str, set[RType]] = {}
            for r in z.records():
                by_name.setdefault(r.name, set()).add(r.rtype)
            for types in by_name.values():
                assert RType.CNAME not in types or types == {RType.CNAME}

    def test_answer_query_is_read_only(self):
        z = make_zone()
        z.bind_device(URN, "cloud.vendor.com")
        before = (z.serial, z.records())
        z.answer_query(str(URN), RType.A)
        z.answer_query("absent.vendor.com", RType.TXT)
        assert (z.serial, z.records()) == before


class TestAnswerQuery:
    def test_cname_returned_for_any_qtype_with_chase(self):
        z = make_zone()
        z.bind_device(URN, "cloud.vendor.com")
        result = z.answer_query(str(URN), RType.A)
        assert result.rcode is Rcode.NOERROR
        assert [r.rtype for r in result.answers] == [RType.CNAME, RType.A]
        assert result.answers[1].value == "127.0.0.1"

    def test_unknown_name_nxdomain(self):
        z = make_zone()
        assert z.answer_query("nope.vendor.com", RType.A).rcode is Rcode.NXDOMAIN

    def test_known_name_wrong_type_noerror_empty(self):
        z = make_zone()
        result = z.answer_query("cloud.vendor.com", RType.TXT)
        assert result.rcode is Rcode.NOERROR
        assert result.answers == ()

    def test_cname_chain_loop_terminates(self):
        z = Zone("vendor.com")
        z.set_record("a.vendor.com", RType.CNAME, "b.vendor.com")
        z.set_record("b.vendor.com", RType.CNAME, "a.vendor.com")
        result = z.answer_query("a.vendor.com", RType.A)
        assert result.rcode is Rcode.NOERROR
        assert len(result.answers) == 2

    def test_chain_to_out_of_zone_target_stops(self):
        z = Zone("vendor.com")
        z.set_record("a.vendor.com", RType.CNAME, "ext.other.org")
        result = z.answer_query("a.vendor.com", RType.A)
        assert [r.value for r in result.answers] == ["ext.other.org"]


class TestWireCodec:
    def test_query_encoding_matches_hand_packed_bytes(self):
        # Oracle: RFC 1035 section 4 laid out by hand for one fixed query.
        expected = (
            b"\x12\x34" + b"\x00\x00" + b"\x00\x01" + b"\x00\x00" * 3
            + b"\x07example\x03com\x00" + b"\x00\x01\x00\x01"
        )
        assert wire.build_query(0x1234, "example.com", RType.A) == expected

    def test_query_round_trip(self):
        packet = wire.build_query(7, "x.camera.vendor.com", RType.TXT)
        assert wire.parse_query(packet) == (7, "x.camera.vendor.com", 16)

    def test_response_round_trip_all_types(self):
        answers = (
            ZoneRecord("a.vendor.com", RType.CNAME, "cloud.vendor.com", 60),
            ZoneRecord("cloud.vendor.com", RType.A, "127.0.0.1", 60),
            ZoneRecord("t.vendor.com", RType.TXT, "hello world", 30),
        )
        packet = wire.build_response(9, "a.vendor.com", 1, Rcode.NOERROR, answers)
        txn_id, rcode, truncated, decoded = wire.parse_response(packet)
        assert (txn_id, rcode, truncated) == (9, Rcode.NOERROR, False)
        assert tuple(decoded) == answers
        (flags,) = struct.unpack_from("!H", packet, 2)
        assert flags & 0x0400  # AA

    def test_response_names_end_in_pointers_to_written_suffixes(self):
        # Oracle: RFC 1035 section 4.1.4 laid out by hand. The question's
        # name is at offset 12 (0x0c), its "vendor.com" at 14 (0x0e), and
        # the CNAME target's "cloud" label at 42 (0x2a).
        answers = (
            ZoneRecord("a.vendor.com", RType.CNAME, "cloud.vendor.com", 60),
            ZoneRecord("cloud.vendor.com", RType.A, "127.0.0.1", 60),
        )
        expected = (
            header(0x8400, 1, 2)
            + b"\x01a\x06vendor\x03com\x00" + b"\x00\x01\x00\x01"
            + b"\xc0\x0c" + struct.pack("!HHIH", 5, 1, 60, 8) + b"\x05cloud\xc0\x0e"
            + b"\xc0\x2a" + struct.pack("!HHIH", 1, 1, 60, 4) + b"\x7f\x00\x00\x01"
        )
        assert wire.build_response(0x1234, "a.vendor.com", 1, Rcode.NOERROR, answers) == expected

    def test_names_past_a_pointers_reach_are_spelled_out(self):
        # 80 answers of about 270 bytes run the reply past offset 0x3fff;
        # the name first written there is spelled out again.
        texts = [ZoneRecord(f"t{i}.vendor.com", RType.TXT, "x" * 250, 60) for i in range(80)]
        late = [ZoneRecord("late.vendor.com", RType.A, f"127.0.0.{i}", 60) for i in range(2)]
        answers = tuple(texts + late)
        packet = wire.build_response(1, "t0.vendor.com", 16, Rcode.NOERROR, answers)
        assert len(packet) > 0x4000
        assert wire.parse_response(packet) == (1, Rcode.NOERROR, False, list(answers))

    def test_compressed_name_decoding(self):
        # 'www.example.com' where 'example.com' is a pointer back to offset 0.
        packet = b"\x07example\x03com\x00" + b"\x03www\xc0\x00"
        name, nxt = wire.decode_name(packet, 13)
        assert name == "www.example.com"
        assert nxt == len(packet)

    def test_pointer_loop_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode_name(b"\xc0\x00", 0)

    def test_malformed_packets_raise(self):
        with pytest.raises(wire.WireFormatError):
            wire.parse_query(b"\x00\x01short")
        with pytest.raises(wire.WireFormatError):
            wire.parse_query(b"\x00" * 12)  # QDCOUNT 0
        with pytest.raises(wire.WireFormatError):
            wire.encode_name("a" * 64 + ".com")
        for rcode in range(6, 16):  # no such rcode
            with pytest.raises(wire.WireFormatError):
                wire.parse_response(struct.pack("!HHHHHH", 1, 0x8000 | rcode, 0, 0, 0, 0))

    @staticmethod
    def _answer(rtype: RType, rdlength: int, rdata: bytes) -> bytes:
        """A response whose one answer has the given rdlength and rdata."""
        return (
            header(0x8400, 0, 1)
            + wire.encode_name("t.vendor.com")
            + struct.pack("!HHIH", int(rtype), wire.CLASS_IN, 60, rdlength)
            + rdata
        )

    @pytest.mark.parametrize(
        "rtype, rdlength, rdata",
        [
            # The string's length byte says 200 over 5 bytes of rdata.
            (RType.TXT, 6, b"\xc8hello"),
            # The name's labels and terminator run past rdlength 1.
            (RType.CNAME, 1, wire.encode_name("cloud.vendor.com")),
            # The name ends two bytes before the rdata does.
            (RType.CNAME, 8, wire.encode_name("cloud") + b"\x00\x00"),
            # An address of three bytes.
            (RType.A, 3, b"\x7f\x00\x01"),
        ],
        ids=["txt-string-overrun", "cname-past-rdata", "cname-short-of-rdata", "a-three-bytes"],
    )
    def test_record_not_filling_its_rdata_raises(self, rtype, rdlength, rdata):
        with pytest.raises(wire.WireFormatError):
            wire.parse_response(self._answer(rtype, rdlength, rdata))

    def test_compressed_cname_ending_its_rdata_decodes(self):
        # A label then a pointer back to the answer's owner name (offset 12).
        packet = self._answer(RType.CNAME, 6, b"\x03www\xc0\x0c")
        assert wire.parse_response(packet)[3] == [
            ZoneRecord("t.vendor.com", RType.CNAME, "www.t.vendor.com", 60)
        ]

    def test_question_without_type_and_class_raises(self):
        with pytest.raises(wire.WireFormatError):
            wire.parse_response(header(0x8400, 1, 0) + b"\x01t\x00")

    def test_record_of_another_class_skipped(self):
        # A CHAOS-class address, then an IN one: only the IN record is an answer.
        chaos = b"\x01t\x00" + struct.pack("!HHIH", int(RType.A), 3, 60, 4) + b"\x7f\x00\x00\x02"
        packet = header(0x8400, 0, 2) + chaos + self._answer(RType.A, 4, b"\x7f\x00\x00\x01")[12:]
        assert wire.parse_response(packet)[3] == [ZoneRecord("t.vendor.com", RType.A, "127.0.0.1", 60)]

    def test_mixed_case_question_normalized(self):
        packet = wire.build_query(1, "ClOuD.Vendor.COM".lower(), RType.A)
        raw = bytearray(packet)
        raw[12 + 1] = ord("C")  # uppercase first letter of first label
        _, name, _ = wire.parse_query(bytes(raw))
        assert name == "cloud.vendor.com"


# Name-shaped bytes: length-prefixed labels (any content, so non-ASCII and
# dots too), compression pointers, root labels and stray bytes.
NAME_SOUP = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=63).map(lambda label: bytes([len(label)]) + label),
        st.integers(0, 0x3FFF).map(lambda target: struct.pack("!H", 0xC000 | target)),
        st.just(b"\x00"),
        st.binary(max_size=4),
    ),
    max_size=8,
).map(b"".join)
RECORD_SOUP = st.tuples(
    NAME_SOUP,
    st.sampled_from([1, 5, 16, 28]),
    st.integers(0, 40),
    st.binary(max_size=40),
).map(lambda r: r[0] + struct.pack("!HHIH", r[1], 1, 60, r[2]) + r[3])


def header(flags, qdcount: int, ancount: int) -> bytes:
    return struct.pack("!HHHHHH", 0x1234, flags, qdcount, ancount, 0, 0)


QUERIES = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda flags, qd, name, tail: header(flags, qd, 0) + name + tail,
        st.sampled_from([0, 0x0100]) | st.integers(0, 0xFFFF),
        st.sampled_from([1]) | st.integers(0, 3),
        NAME_SOUP,
        st.binary(max_size=6),
    ),
)
RESPONSES = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda rcode, qd, name, records: header(0x8400 | rcode, qd, len(records)) + name + b"".join(records),
        st.integers(0, 15),
        st.integers(0, 2),
        NAME_SOUP,
        st.lists(RECORD_SOUP, max_size=3),
    ),
)
LABELS = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters="."),
    min_size=1,
    max_size=63,
)


@st.composite
def answer_sections(draw):
    """A question name and answers over names that share labels: a CNAME
    chain from the question name, then records of any type."""
    labels = draw(st.lists(LABELS.map(str.lower), min_size=1, max_size=3))
    names = st.lists(st.sampled_from(labels), min_size=1, max_size=4).map(".".join)
    names = names.filter(lambda name: len(name) <= 253)
    ttls = st.integers(0, 2**32 - 1)
    chain = draw(st.lists(names, min_size=1, max_size=4))
    records = [ZoneRecord(a, RType.CNAME, b, draw(ttls)) for a, b in zip(chain, chain[1:])]
    records += draw(
        st.lists(
            st.one_of(
                st.builds(ZoneRecord, names, st.just(RType.A), st.ip_addresses(v=4).map(str), ttls),
                st.builds(ZoneRecord, names, st.just(RType.CNAME), names, ttls),
                st.builds(ZoneRecord, names, st.just(RType.TXT), st.text(max_size=60), ttls),
            ),
            max_size=4,
        )
    )
    return chain[0], records


class TestWireProperties:
    """Each decoder returns or raises its typed error on any input, and a
    built response decodes to the answers it was built from."""

    @given(QUERIES)
    def test_parse_query_returns_or_raises_typed_error(self, packet):
        try:
            wire.parse_query(packet)
        except (wire.WireFormatError, wire.NotImplementedQuery):
            pass

    @given(RESPONSES)
    # A TXT string whose length byte says 200 over 5 bytes of rdata.
    @example(header(0x8400, 0, 1) + b"\x01t\x00" + struct.pack("!HHIH", 16, 1, 60, 6) + b"\xc8hello")
    def test_parse_response_returns_or_raises_wire_format_error(self, packet):
        try:
            wire.parse_response(packet)
        except wire.WireFormatError:
            pass

    @given(NAME_SOUP, st.integers(0, 40))
    def test_decoded_names_encode_again(self, packet, offset):
        try:
            name, _ = wire.decode_name(packet, offset)
        except wire.WireFormatError:
            return
        wire.encode_name(name)  # the responder echoes every question it parsed

    @given(st.integers(0, 0xFFFF), st.lists(LABELS, min_size=1, max_size=6), st.sampled_from(RType))
    def test_query_round_trips(self, txn_id, labels, rtype):
        name = ".".join(labels)
        if len(name) > 253:
            return
        assert wire.parse_query(wire.build_query(txn_id, name, rtype)) == (txn_id, name.lower(), rtype)

    @given(st.integers(0, 0xFFFF), answer_sections())
    def test_built_responses_decode_to_their_answers(self, txn_id, section):
        qname, answers = section
        packet = wire.build_response(txn_id, qname, 1, Rcode.NOERROR, tuple(answers))
        assert wire.parse_response(packet) == (txn_id, Rcode.NOERROR, False, answers)


@pytest.fixture()
def live_server():
    zone = make_zone()
    zone.bind_device(URN, "cloud.vendor.com")
    zone.set_acme_txt(str(URN), "proof-value")
    server = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
    yield server
    server.close()


class TestUdpServer:
    def test_authoritative_a_query_over_udp(self, live_server):
        rcode, answers = resolve(str(URN), RType.A, live_server.address)
        assert rcode is Rcode.NOERROR
        assert [r.rtype for r in answers] == [RType.CNAME, RType.A]

    def test_aa_bit_set(self, live_server):
        query = wire.build_query(42, "cloud.vendor.com", RType.A)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(query, live_server.address)
            packet, _ = sock.recvfrom(4096)
        (flags,) = struct.unpack_from("!H", packet, 2)
        assert flags & 0x0400

    def test_txt_and_nxdomain(self, live_server):
        rcode, answers = resolve(f"_acme-challenge.{URN}", RType.TXT, live_server.address)
        assert rcode is Rcode.NOERROR
        assert answers[0].value == "proof-value"
        rcode, _ = resolve("missing.vendor.com", RType.A, live_server.address)
        assert rcode is Rcode.NXDOMAIN

    def test_malformed_packet_gets_formerr(self, live_server):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(b"\xab\xcd\x00\x00garbage", live_server.address)
            packet, _ = sock.recvfrom(4096)
        txn_id, rcode, _, _ = wire.parse_response(packet)
        assert (txn_id, rcode) == (0xABCD, Rcode.FORMERR)

    def test_non_ascii_label_gets_formerr_and_server_keeps_serving(self, live_server):
        query = wire.build_query(0xBEEF, "cafe.vendor.com", RType.A).replace(b"cafe", b"caf\xc3")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(query, live_server.address)
            packet, _ = sock.recvfrom(4096)
        txn_id, rcode, _, _ = wire.parse_response(packet)
        assert (txn_id, rcode) == (0xBEEF, Rcode.FORMERR)
        assert resolve("cloud.vendor.com", RType.A, live_server.address)[0] is Rcode.NOERROR

    def test_resolve_raises_only_resolution_failure(self):
        with pytest.raises(ResolutionFailure):
            resolve("café.vendor.com", RType.A, ("127.0.0.1", 9))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as fake:
            fake.bind(("127.0.0.1", 0))
            fake.settimeout(2)

            def answer_with_rcode_9():
                query, peer = fake.recvfrom(512)
                fake.sendto(query[:2] + struct.pack("!H", 0x8000 | 9) + bytes(8), peer)

            responder = threading.Thread(target=answer_with_rcode_9)
            responder.start()
            with pytest.raises(ResolutionFailure, match="rcode 9"):
                resolve("cloud.vendor.com", RType.A, fake.getsockname())
            responder.join()

    def test_non_query_opcode_gets_notimp(self, live_server):
        query = bytearray(wire.build_query(5, "cloud.vendor.com", RType.A))
        query[2] |= 0x28  # opcode 5 (UPDATE)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(bytes(query), live_server.address)
            packet, _ = sock.recvfrom(4096)
        _, rcode, _, _ = wire.parse_response(packet)
        assert rcode is Rcode.NOTIMP

    def test_unsupported_qtype_still_returns_cname(self, live_server):
        query = wire.build_query(6, str(URN), RType.A)
        raw = bytearray(query)
        raw[-3] = 28  # rewrite qtype to AAAA
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(bytes(raw), live_server.address)
            packet, _ = sock.recvfrom(4096)
        _, rcode, _, answers = wire.parse_response(packet)
        assert rcode is Rcode.NOERROR
        assert [r.rtype for r in answers] == [RType.CNAME]

    def test_resolve_address_follows_chain(self, live_server):
        assert resolve_address(str(URN), live_server.address) == "127.0.0.1"

    def test_queries_start_no_thread(self, live_server, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        for _ in range(50):
            assert resolve("cloud.vendor.com", RType.A, live_server.address)[0] is Rcode.NOERROR
        assert started == []

    def test_concurrent_queries(self, live_server):
        import concurrent.futures

        def one(_):
            return resolve("cloud.vendor.com", RType.A, live_server.address)[0]

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            rcodes = list(pool.map(one, range(64)))
        assert all(rc is Rcode.NOERROR for rc in rcodes)


# A 190-character name: 40 addresses there make an 848-byte reply, even
# with each owner name a pointer to the question's.
LONG_NAME = ".".join(["a" * 63, "b" * 63, "c" * 50, "vendor.com"])


class TestTruncation:
    @pytest.fixture()
    def big_server(self):
        zone = make_zone()
        for host in range(40):
            zone.set_record(LONG_NAME, RType.A, f"10.0.0.{host}")
        server = DnsUdpServer(zone, ("127.0.0.1", 0)).start()
        yield server
        server.close()

    def test_oversized_answer_sends_question_only_with_tc(self, big_server):
        query = wire.build_query(77, LONG_NAME, RType.A)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.settimeout(2)
            sock.sendto(query, big_server.address)
            packet, _ = sock.recvfrom(4096)
        txn_id, flags, qdcount, ancount, nscount, arcount = struct.unpack_from("!6H", packet)
        assert len(packet) <= 512
        assert (txn_id, qdcount, ancount, nscount, arcount) == (77, 1, 0, 0, 0)
        assert flags & 0x0200
        assert wire.parse_response(packet)[2]
        assert packet[12:] == query[12:]  # the question, echoed unchanged

    def test_resolve_rejects_truncated_reply(self, big_server):
        with pytest.raises(ResolutionFailure, match="truncated"):
            resolve(LONG_NAME, RType.A, big_server.address)
        rcode, answers = resolve("cloud.vendor.com", RType.A, big_server.address)
        assert rcode is Rcode.NOERROR and answers
