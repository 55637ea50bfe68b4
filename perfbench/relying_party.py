"""relying-party: the device side of revocation and mutual TLS.

Set-up starts the provisioning stack, enrolls three devices (an echo
server, a clean client and a client that gets revoked) and draws a
universe of UNIVERSE serials in the embedded CA's format, REVOKED_SHARE
of them revoked, the revoked client's serial among them. ACME runs only
here. The block then runs three stages:

1. ``build_filter`` plus ``serialize`` over that universe, FILTER_REPEATS
   times;
2. ``deserialize`` plus a query of every member, revoked members first,
   FILTER_REPEATS times;
3. ECHOES sequential ``echo_once`` calls, accepted or rejected, against
   one ``EchoServer`` whose trust context holds the stage-2 filter. One call in REVOKED_EVERY,
   at a seeded position, comes from the revoked client and must be
   rejected ``revoked``.

Server-side validation runs on echo-server threads and stays a
server-side total, so an echo's self time keeps the server's work.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from types import SimpleNamespace

from iotpki import peer_auth, revocation
from iotpki.cli import scenario_stack
from iotpki.errors import IotPkiError
from iotpki.identity import DeviceSecret, VendorNamespace

from common import BlockResult, Stage, chain_problem, mean, percentile
from provision import fleet_manager, loopback_addresses
from tracer import END, PARENT, PHASE, SID, START, durations_ms
from tracer import NAME as SPAN_NAME

NAME = "relying-party"
APEX = "vendor.example"
UNIVERSE = 100_000
REVOKED_SHARE = 0.02
ECHOES = 280  # 252 accepted a block
MIN_BLOCKS = 4  # 1008 accepted echoes, so the p99 has 10 beyond it
REVOKED_EVERY = 10
WARMUP_ECHOES = 20
PAYLOAD_BYTES = 256
EPOCH = 1
FILTER_REPEATS = 2

NAMED_UNITS = {
    "filter_build_s": "s",
    "filter_bytes": "bytes",
    "filter_queries_per_s": "queries/s",
    "mtls_p50_ms": "ms",
    "mtls_p99_ms": "ms",
}
REJECT_REASONS = tuple(r.value for r in peer_auth.RejectReason)


def named(pooled: dict[str, list[float]]) -> dict[str, float]:
    return {
        "filter_build_s": statistics.median(pooled["build_s"]),
        "filter_bytes": statistics.median(pooled["filter_bytes"]),
        "filter_queries_per_s": UNIVERSE / statistics.median(pooled["query_loop_s"]),
        "mtls_p50_ms": percentile(pooled["echo_s"], 0.50) * 1000.0,
        "mtls_p99_ms": percentile(pooled["echo_s"], 0.99) * 1000.0,
    }


def ca_style_serials(rng, count: int) -> list[str]:
    """Serials as the embedded CA mints them: one random 40-bit prefix
    shifted left 24 bits, then consecutive; 16 hex digits."""
    base = (rng.getrandbits(40) | 1 << 39) << 24
    return [format(base + i, "x") for i in range(1, count + 1)]


def setup(rng, ledger, first_block: bool) -> SimpleNamespace:
    st = SimpleNamespace()
    st.exit = contextlib.ExitStack()
    st.stack = st.exit.enter_context(scenario_stack(APEX))
    st.addresses = loopback_addresses(st.stack)
    manager = fleet_manager(st.stack)
    root = st.stack.ca.state.root_cert
    devices = {}
    for role, device_class in (("server", "gateway"), ("client", "sensor"), ("revoked", "sensor")):
        bundle = manager.enroll_device(
            VendorNamespace(APEX, device_class), DeviceSecret(rng.randbytes(32)), "dns01"
        )
        problem = chain_problem(bundle.certificate_chain, str(bundle.urn), root)
        ledger.op(problem is None, f"{role} fixture chain: {problem}")
        devices[role] = bundle
    st.server, st.client, st.revoked_client = devices["server"], devices["client"], devices["revoked"]
    real = {role: manager.inventory.get(b.urn.uuid).current_cert.serial for role, b in devices.items()}

    synthetic = ca_style_serials(rng, UNIVERSE - len(real))
    revoked_count = round(UNIVERSE * REVOKED_SHARE)
    st.revoked = set(rng.sample(synthetic, revoked_count - 1)) | {real["revoked"]}
    st.universe = set(synthetic) | set(real.values())
    st.revoked_list = sorted(st.revoked)
    st.clean_list = sorted(st.universe - st.revoked)
    st.payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(ECHOES + WARMUP_ECHOES)]
    st.revoked_calls = {
        group + rng.randrange(REVOKED_EVERY) for group in range(0, ECHOES, REVOKED_EVERY)
    }
    return st


def teardown(st: SimpleNamespace) -> None:
    st.exit.close()


def install(tracer) -> None:
    tracer.patch(revocation, "build_filter", "revocation.build_filter")
    tracer.patch(revocation, "serialize", "revocation.serialize")
    tracer.patch(revocation, "deserialize", "revocation.deserialize")
    tracer.patch(peer_auth, "echo_once", "peer_auth.echo")
    tracer.patch(peer_auth, "validate_peer", "peer_auth.validate_peer")
    tracer.patch(peer_auth, "query", "revocation.query")


def run(st: SimpleNamespace, ledger, tracer, outdir) -> BlockResult:
    query = revocation.query
    serializes, deserializes, revoked_loops, clean_loops = [], [], [], []

    # Stage 1: write side.
    with Stage(tracer, "p1") as s1:
        for _ in range(FILTER_REPEATS):
            with s1.call():
                filt = revocation.build_filter(st.revoked, st.universe, APEX, EPOCH)
                start = time.perf_counter()
                blob = revocation.serialize(filt)
                serializes.append(time.perf_counter() - start)
    (outdir / "relying-party.filter").write_bytes(blob)

    # Stage 2: read side, every member, checked against the exact sets.
    answers = []
    with Stage(tracer, "p2") as s2:
        for _ in range(FILTER_REPEATS):
            with s2.call():
                start = time.perf_counter()
                loaded = revocation.deserialize(blob)
                t1 = time.perf_counter()
                revoked_answers = [query(loaded, s) for s in st.revoked_list]
                t2 = time.perf_counter()
                clean_answers = [query(loaded, s) for s in st.clean_list]
                end = time.perf_counter()
            deserializes.append(t1 - start)
            revoked_loops.append(t2 - t1)
            clean_loops.append(end - t2)
            answers.append((revoked_answers, clean_answers))
    false_negatives = sum(r.count(False) for r, _ in answers)
    false_positives = sum(c.count(True) for _, c in answers)
    ledger.ops(FILTER_REPEATS * len(st.revoked_list), false_negatives, "filter misses revoked serials")
    ledger.ops(FILTER_REPEATS * len(st.clean_list), false_positives, "filter flags clean serials")
    layer = {
        "revocation.levels": len(loaded.levels),
        "revocation.bits_per_revoked": len(blob) * 8 / len(st.revoked),
        "revocation.serialize_ms": mean(serializes) * 1000.0,
        "revocation.deserialize_ms": mean(deserializes) * 1000.0,
        "revocation.query_us.revoked": mean(revoked_loops) / len(st.revoked_list) * 1e6,
        "revocation.query_us.clean": mean(clean_loops) / len(st.clean_list) * 1e6,
        "revocation.false_positives": false_positives,
        "revocation.false_negatives": false_negatives,
    }

    # Stage 3: sequential mutual-TLS echoes against one server.
    trust = peer_auth.TrustContext(
        roots=(st.stack.ca.state.root_cert,), filters={APEX: loaded}, clock=st.stack.clock
    )
    rejects = dict.fromkeys(REJECT_REASONS, 0)
    warm_start = time.perf_counter()
    server = peer_auth.EchoServer(st.server, trust).start()
    try:
        for payload in st.payloads[ECHOES:]:
            try:
                echoed = peer_auth.echo_once(server.address, st.client, trust, payload).payload_echoed
            except (IotPkiError, OSError) as exc:
                echoed = exc
            ledger.op(echoed == payload, f"warm-up echo: {echoed!r:.80}")
        setup_extra_s = time.perf_counter() - warm_start
        handshake_ms, outcomes = [], []
        first_span = len(tracer.spans) if tracer is not None else 0
        with Stage(tracer, "p3") as s3:
            for i in range(ECHOES):
                revoked_peer = i in st.revoked_calls
                client = st.revoked_client if revoked_peer else st.client
                payload = st.payloads[i]
                with s3.call():
                    try:
                        outcome = peer_auth.echo_once(server.address, client, trust, payload)
                    except (IotPkiError, OSError) as exc:  # HandshakeRejected among them
                        outcome = exc
                if isinstance(outcome, peer_auth.EchoResult):
                    handshake_ms.append(outcome.handshake_ms)
                outcomes.append((revoked_peer, payload, outcome))
    finally:
        server.close()
    for revoked_peer, payload, outcome in outcomes:
        if isinstance(outcome, peer_auth.HandshakeRejected):
            reason = outcome.verdict.reject_reason
            if reason is not None:
                rejects[reason.value] += 1
            ok = revoked_peer and reason is peer_auth.RejectReason.REVOKED
            ledger.op(ok, f"echo rejected {outcome.side}-side with {reason!r}")
        elif isinstance(outcome, peer_auth.EchoResult):
            ok = not revoked_peer and outcome.payload_echoed == payload
            ledger.op(ok, "echo from a revoked peer accepted" if revoked_peer else "echo payload differs")
        else:
            ledger.op(False, f"echo failed: {outcome!r}")
    for reason, n in rejects.items():
        layer[f"peer_auth.rejects.{reason}"] = n
    layer["peer_auth.handshake_ms"] = mean(handshake_ms)
    layer["process.cpu_util.stage1"] = s1.cpu_util
    layer["process.cpu_util.stage2"] = s2.cpu_util
    layer["process.cpu_util.stage3"] = s3.cpu_util
    accepted = [isinstance(o, peer_auth.EchoResult) for _, _, o in outcomes]
    if tracer is not None:
        layer["peer_auth.echo_self_ms"] = _echo_self_ms(
            tracer.spans[first_span:], accepted, handshake_ms
        )
    return BlockResult(
        samples={
            "build_s": s1.raw,
            "echo_s": [t for t, ok in zip(s3.raw, accepted) if ok],
            "query_loop_s": [r + c for r, c in zip(revoked_loops, clean_loops)],
            "filter_bytes": [len(blob)],
        },
        stages=(s1, s2, s3),
        layer=layer,
        setup_extra_s=setup_extra_s,
    )


def per_layer(tracer, selfs, traced_blocks: int) -> dict[str, float]:
    return {
        "peer_auth.validate_peer_us": mean(
            durations_ms(tracer.spans, "peer_auth.validate_peer", ("p3",))
        ) * 1000.0,
    }


def _echo_self_ms(spans: list[list], accepted: list[bool], handshake_ms: list[float]) -> float:
    """Mean over accepted echoes of the echo span minus the handshake
    minus the client-side validation (the echo span's children)."""
    echoes = sorted(
        (s for s in spans if s[SPAN_NAME] == "peer_auth.echo" and s[PHASE] == "p3"),
        key=lambda s: s[START],
    )
    child_ns = {}
    for s in spans:
        if s[SPAN_NAME] == "peer_auth.validate_peer" and s[PARENT] is not None:
            child_ns[s[PARENT]] = child_ns.get(s[PARENT], 0) + s[END] - s[START]
    handshakes = iter(handshake_ms)
    values = [
        (echo[END] - echo[START] - child_ns.get(echo[SID], 0)) / 1e6 - next(handshakes)
        for echo, ok in zip(echoes, accepted)
        if ok
    ]
    return mean(values)
