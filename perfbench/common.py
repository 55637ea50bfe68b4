"""Pieces the three workloads share: the ledger of attempted and failed
operations, percentile helpers, the per-block result record, and the
stage timer. Import after ``src/`` is on the path."""

from __future__ import annotations

import hashlib
import math
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import timedelta

from cryptography.exceptions import InvalidSignature
from iotpki.certs import san_dns_names, split_pem_chain

KEY_BLOCK_MARKER = b"PRIVATE KEY"
REFERENCE_INTERVAL_S = 0.2
MAX_PROBLEMS = 20


class Ledger:
    """Counts operations and the ones that failed a check. An operation
    fails when it raises or when any check on its output does not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.ops(1, 0 if ok else 1, what)
        return ok

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{what} ({failed} of {attempted})")


@dataclass
class BlockResult:
    """One repetition of a workload's measured block.

    ``samples`` maps a sample name to the values the block measured, one
    per call (seconds for times); the runner pools each name across the
    run's blocks. ``layer`` holds per-layer figures the block computes
    without tracing. ``setup_extra_s`` is set-up work that had to happen
    inside the block. ``fingerprint``, when set, is output every block of
    a run must reproduce exactly. ``stages`` are the three timed stages."""

    samples: dict[str, list[float]]
    stages: tuple[Stage, Stage, Stage]
    layer: dict[str, float] = field(default_factory=dict)
    setup_extra_s: float = 0.0
    fingerprint: object = None


def reference_s() -> float:
    """One timing of a fixed interpreter-plus-hashing loop, about 15 ms
    on a 2-vCPU Xeon VM."""
    digest = hashlib.sha256
    start = time.perf_counter()
    for i in range(20_000):
        digest(b"%d" % i).digest()
    return time.perf_counter() - start


def handoff_s(rounds: int = 2000) -> float:
    """Time of ``rounds`` one-byte round trips between two threads over a
    socket pair, about 15 ms on the same VM."""
    near, far = socket.socketpair()
    with near, far:
        echo = threading.Thread(target=lambda: [far.sendall(far.recv(1)) for _ in range(rounds)])
        echo.start()
        start = time.perf_counter()
        for _ in range(rounds):
            near.sendall(b"x")
            near.recv(1)
        elapsed = time.perf_counter() - start
        echo.join()
    return elapsed


def threaded_reference_s() -> float:
    """Reference for work that waits on other threads: the loop plus
    thread handoffs, which slow down more than computation when the host
    is busy."""
    return reference_s() + handoff_s()


class Stage:
    """Times the calls of one stage and tags the tracer's phase.

    The host this benchmark was built on swings in CPU speed by up to
    1.7x for seconds at a time, so each call is also expressed in units
    of a reference (``reference_s`` unless the stage names another) timed
    next to it: a reading before the first
    call and after any call that ends REFERENCE_INTERVAL_S or more after
    the last reading, each call divided by the mean of the two readings
    around it. ``raw`` holds call times in seconds, ``ref`` the same in
    reference units; readings are never inside a call's time."""

    def __init__(self, tracer, phase: str, reference=reference_s) -> None:
        self._tracer = tracer
        self._phase = phase
        self._reference = reference
        self.raw: list[float] = []
        self.ref: list[float] = []
        self._wall = self._cpu = 0.0
        self._pending = 0

    def __enter__(self) -> "Stage":
        if self._tracer is not None:
            self._tracer.phase = self._phase
        self._read()
        return self

    def __exit__(self, *exc) -> None:
        self._read()
        if self._tracer is not None:
            self._tracer.phase = ""

    @contextmanager
    def call(self):
        cpu, start = time.process_time(), time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self._wall += seconds
        self._cpu += time.process_time() - cpu
        self.raw.append(seconds)
        self._pending += 1
        if time.perf_counter() - self._read_at >= REFERENCE_INTERVAL_S:
            self._read()

    def _read(self) -> None:
        reading = self._reference()
        if self._pending:
            scale = (self._reading + reading) / 2
            self.ref.extend(s / scale for s in self.raw[-self._pending:])
            self._pending = 0
        self._reading, self._read_at = reading, time.perf_counter()

    @property
    def seconds(self) -> float:
        """Time inside the stage's calls."""
        return self._wall

    @property
    def cpu_util(self) -> float:
        """Process CPU over wall time inside the stage's calls."""
        return self._cpu / self._wall


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, the convention the simulator uses."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def has_key_block(data: bytes) -> bool:
    return KEY_BLOCK_MARKER in data


def chain_problem(pem_chain: str, urn: str, root) -> str | None:
    """What is wrong with an issued chain, or None when it holds: it must
    verify to the embedded root, name exactly the device URN in its SAN
    and live at most 90 days."""
    chain = split_pem_chain(pem_chain)
    if len(chain) < 2 or chain[-1] != root:
        return "chain does not end at the embedded root"
    try:
        for child, issuer in zip(chain, chain[1:]):
            child.verify_directly_issued_by(issuer)
    except (ValueError, TypeError, InvalidSignature) as exc:
        return f"chain signature does not verify: {exc}"
    leaf = chain[0]
    if san_dns_names(leaf) != [urn]:
        return f"SAN {san_dns_names(leaf)} is not [{urn}]"
    if leaf.not_valid_after_utc - leaf.not_valid_before_utc > timedelta(days=90):
        return "lifetime exceeds 90 days"
    return None
