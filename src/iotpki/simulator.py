"""Deterministic smart-city latency simulation.

Mobile nodes roam a square grid under RandomWaypoint mobility and poll
for the nearest static gateway on a fixed interval. Within radio range
they emit a burst of messages; each message completes either over the
direct device-to-device path (constant link latency, handshake cost
amortized over the first burst of a contact) or over a cloud-mediated
path whose delay is drawn from a Weibull distribution.

Design: every node polls at the same simulated times, so the run is a
plain tick loop (tick-major, node-minor) rather than an event queue.
Send times accumulate by repeated addition of the poll interval, as a
per-node timer would; k * poll_interval rounds differently and would
change the CSV. A report keeps its samples in columns (arrays of
contacts and of latencies), and the CSV is rendered straight from the
columns (see Report).

Latency draws: cloud latencies come from one iterator per run that
draws the run's cloud stream a chunk at a time and maps each chunk with
the inverse-CDF expression of ``sample_weibull`` (``_weibull``), so every
value and its order are as with one ``sample_weibull`` call per message.
Uncapped, a tick's messages take their latencies in contact order, so
they are taken in one batch after the node loop; capped, one at a time,
as the in-flight heap decides how many a burst takes.

Configs: the scenario's geometry is fixed (``GRID_SIZE``, ``SPEED_MIN``
and ``SPEED_MAX``, and the star of ``GATEWAYS``); ``SimConfig`` holds the
rest. A NaN or infinite float field raises ``InvalidConfig``; with one,
a run could never end or would write non-finite latencies. So do more
than ``MAX_POLL_TICKS`` polls, or a node walk of more than
``MAX_GRID_LENGTHS`` grid lengths (``SPEED_MAX * duration / GRID_SIZE``),
which a finite duration can still ask for, and Weibull parameters whose
largest draw (at the largest float below 1), alone or plus the link
latency, overflows.

Report: the CSV is one string per contact, from one renderer that
``to_csv`` joins and ``write_csv`` writes as it goes. The send time is
formatted once per tick. A burst whose latencies share their bits (a
d2d burst is one value repeated) is formatted once and its row repeated;
bits, because 0.0 == -0.0 and they print apart. Any other burst is one
``%`` template. ``summarize`` sorts the latencies once and reads the
median, p95 and max off the sorted list. Each histogram bin's lower edge
is one bisect, since the bin index never decreases along the sorted
samples. The mean equals ``statistics.mean`` (the exact rational mean,
rounded once): ``math.fsum`` passes build the exact sum as a few floats,
whose sum is divided and rounded once, and ``statistics.mean`` itself
answers when the sum overflows. Latencies must be finite and
non-negative; anything else raises ``DomainError``.

Reproducibility: every stochastic purpose draws from its own named RNG
stream derived from the config seed, so mobility is identical across
modes and full reports are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, islice, repeat, starmap
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import IotPkiError

WEIBULL_BETA = 0.5
WEIBULL_LAMBDA = 6.37
# The smart-city scenario: a 500 m square grid, walkers at 5-25 m/s, and
# five gateways in a star, one at the center and one 150 m out on each
# cardinal arm.
GRID_SIZE = 500.0
SPEED_MIN, SPEED_MAX = 5.0, 25.0
GATEWAYS = ((250.0, 250.0), (400.0, 250.0), (100.0, 250.0), (250.0, 400.0), (250.0, 100.0))
HISTOGRAM_BINS = 20
_DRAW_CHUNK = 4096  # cloud latencies drawn at a time
_LARGEST_U = 1.0 - 2.0**-53  # the largest float below 1, and of random()
# Bounds on the work one run may ask for, so that every accepted config
# ends. A run steps once per poll, and past about 2**52 polls `t +=
# poll_interval` stops advancing t; a node walks about one waypoint leg (three
# draws) per grid length it covers between polls.
MAX_POLL_TICKS = 2**32
MAX_GRID_LENGTHS = 2**20


class DomainError(IotPkiError):
    """Argument outside the mathematical domain of the operation."""


class InvalidConfig(IotPkiError):
    """Simulation configuration violates an invariant."""


class EmptyInput(IotPkiError):
    """Operation requires at least one sample."""


def _require_finite(config: object) -> None:
    """Raise InvalidConfig for any NaN or infinite float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class WeibullParams:
    """Shape beta (dimensionless) and scale lam (seconds)."""

    beta: float = WEIBULL_BETA
    lam: float = WEIBULL_LAMBDA

    def __post_init__(self) -> None:
        _require_finite(self)
        if not (self.beta > 0 and self.lam > 0):
            raise InvalidConfig(f"weibull shape/scale must be positive: {self}")
        if _largest_draw(self) == math.inf:
            raise InvalidConfig(f"weibull draws overflow: {self}")


def _largest_draw(params: WeibullParams) -> float:
    """The largest sample, lam * (53 ln 2)^(1/beta) at the largest float
    below 1, or inf where it overflows; draws increase with u."""
    try:
        return _weibull(params, 0.0, (_LARGEST_U,))[0]
    except OverflowError:
        return math.inf


def sample_weibull(params: WeibullParams, u: float) -> float:
    """Inverse-CDF transform: x = lam * (-ln(1 - u))^(1/beta)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"u must lie strictly inside (0, 1), got {u}")
    return _weibull(params, 0.0, (u,))[0]


def _weibull(params: WeibullParams, offset: float, us: Iterable[float]) -> list[float]:
    """offset + lam * (-ln(1 - u))^(1/beta) for each u, in order; the
    caller checks that each u lies strictly inside (0, 1). Adding 0.0 to
    the non-negative sample leaves it unchanged."""
    lam = params.lam
    inv_beta = 1.0 / params.beta
    log1p = math.log1p
    return [offset + lam * (-log1p(-u)) ** inv_beta for u in us]


def _weibull_stream(
    draw: Callable[[], float], params: WeibullParams, offset: float
) -> Iterator[float]:
    """offset + sample_weibull(params, draw()) for each draw, in order.

    The values are drawn and mapped _DRAW_CHUNK at a time. Drawing ahead
    changes no value taken, as the stream is the caller's alone. draw()
    lies in [0, 1), so 0.0 is its one value outside the domain: the
    iterator raises DomainError on reaching it, as sample_weibull would.
    """
    while True:
        us = list(starmap(draw, repeat((), _DRAW_CHUNK)))
        if 0.0 in us:
            yield from _weibull(params, offset, us[: us.index(0.0)])
            raise DomainError("u must lie strictly inside (0, 1), got 0.0")
        yield from _weibull(params, offset, us)


@dataclass(frozen=True)
class SimConfig:
    num_mobile_nodes: int = 500
    gateway_range: float = 100.0
    poll_interval: float = 2.0
    burst_size: int = 10
    mode: str = "d2d"
    d2d_link_latency_ms: float = 17.0
    handshake_cost_ms: float = 50.0
    cloud: WeibullParams = field(default_factory=WeibullParams)
    cloud_connection_cap: int = 0  # 0 = unlimited concurrent cloud requests
    seed: int = 0
    duration: float = 300.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mode not in ("d2d", "cloud"):
            raise InvalidConfig(f"mode must be d2d or cloud, got {self.mode!r}")
        if self.num_mobile_nodes < 1:
            raise InvalidConfig("need at least one mobile node")
        positives = {
            "gateway_range": self.gateway_range,
            "poll_interval": self.poll_interval,
            "burst_size": self.burst_size,
            "duration": self.duration,
        }
        for name, value in positives.items():
            if value <= 0:
                raise InvalidConfig(f"{name} must be positive, got {value}")
        ticks = self.duration / self.poll_interval
        if ticks > MAX_POLL_TICKS:
            raise InvalidConfig(f"duration / poll_interval is {ticks} polls, over {MAX_POLL_TICKS}")
        walk = SPEED_MAX * self.duration / GRID_SIZE
        if walk > MAX_GRID_LENGTHS:
            raise InvalidConfig(
                f"SPEED_MAX * duration / GRID_SIZE is {walk} grid lengths, over {MAX_GRID_LENGTHS}"
            )
        if self.d2d_link_latency_ms < 0 or self.handshake_cost_ms < 0:
            raise InvalidConfig("latency constants must be non-negative")
        if self.d2d_link_latency_ms / 1000.0 + _largest_draw(self.cloud) == math.inf:
            raise InvalidConfig("link latency plus the largest cloud draw overflows")
        if self.cloud_connection_cap < 0:
            raise InvalidConfig("cloud_connection_cap must be >= 0 (0 = unlimited)")


@dataclass(frozen=True)
class SimReport:
    """Samples stored by column.

    ``node``, ``gateway``, ``send_time`` and ``sent`` hold one row per
    contact (a poll in gateway range) with the number of messages it
    completed; ``samples`` holds one latency in seconds per completed
    message, in send order, so contact i owns the next ``sent[i]`` of them.
    """

    config: SimConfig
    drops: int
    node: array
    gateway: array
    send_time: array
    sent: array
    samples: array

    def latencies(self) -> list[float]:
        return self.samples.tolist()

    def to_csv(self) -> str:
        return "".join(self._csv_rows())

    def write_csv(self, fp: TextIO) -> None:
        """Write the bytes of ``to_csv`` to fp, one contact at a time."""
        fp.writelines(self._csv_rows())

    def _csv_rows(self) -> Iterator[str]:
        """The CSV header, then one string per contact holding its rows."""
        yield "mode,node,gateway,t_send,latency_s\n"
        mode = self.config.mode
        latency = self.samples
        start = 0
        last_t = math.nan
        for node, gateway, t, sent in zip(self.node, self.gateway, self.send_time, self.sent):
            # Contacts of one tick share t. Equal nonzero floats print alike,
            # but 0.0 == -0.0 and they print apart, so a zero is formatted
            # every time.
            if t != last_t or not t:
                tail = f",{t:.3f},%.6f\n"
                last_t = t
            row = f"{mode},{node},{gateway}{tail}"
            end = start + sent
            burst = latency[start:end]
            start = end
            # A burst of one value (by its bits: 0.0 and -0.0 print apart)
            # is formatted once.
            raw = burst.tobytes()
            if sent and raw == raw[:8] * sent:
                yield (row % burst[0]) * sent
            else:
                yield (row * sent) % tuple(burst)


@dataclass(frozen=True)
class Summary:
    count: int
    mean: float
    median: float
    p95: float
    max: float
    histogram_csv: str


def summarize(latencies: Sequence[float]) -> Summary:
    """Aggregate statistics plus a HISTOGRAM_BINS-bin histogram CSV.

    Latencies must be finite and non-negative; anything else raises
    DomainError.
    """
    if not latencies:
        raise EmptyInput("no samples to summarize")
    xs = sorted(latencies)
    if xs[0] < 0:
        raise DomainError(f"negative latency {xs[0]}")
    n = len(xs)
    mean = _exact_mean(xs)
    half = n // 2
    median = xs[half] if n % 2 else (xs[half - 1] + xs[half]) / 2
    if median == math.inf:
        # The middle pair's sum overflowed. Halving floats this large is
        # exact, so the sum of the halves rounds like the true midpoint.
        median = xs[half - 1] / 2 + xs[half] / 2
    p95 = xs[max(0, math.ceil(0.95 * n) - 1)]
    top = xs[-1]
    # A range too narrow to split (top / BINS underflows to 0) is binned like zeros.
    width = top / HISTOGRAM_BINS or 1.0
    # The bin index min(int(x / width), last) never decreases along the
    # sorted samples, so each bin's lower edge is one bisect.
    edges = [bisect_left(xs, i, key=lambda x: int(x / width)) for i in range(HISTOGRAM_BINS)]
    edges.append(n)
    lines = ["bin_lo,bin_hi,count"]
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        lines.append(f"{i * width:.6f},{(i + 1) * width:.6f},{hi - lo}")
    return Summary(
        count=n,
        mean=mean,
        median=median,
        p95=p95,
        max=top,
        histogram_csv="\n".join(lines) + "\n",
    )


def _exact_mean(xs: list[float]) -> float:
    """``statistics.mean`` of non-negative floats: the exact rational mean,
    rounded once. ``math.fsum`` rounds the exact sum; the sum less the
    terms found so far is summed again until it is zero, so the terms add
    up to the exact sum (a float expansion), usually in two or three passes."""
    terms: list[float] = []
    try:
        while r := math.fsum(chain(xs, [-t for t in terms])):
            if not math.isfinite(r):
                raise OverflowError
            terms.append(r)
    except (OverflowError, ValueError):
        # fsum yields inf or NaN for such a sample, and overflows when the
        # exact sum is past the float range although the mean is not.
        if not all(map(math.isfinite, xs)):
            raise DomainError("latencies must be finite") from None
        return statistics.mean(xs)
    # An empty sum is the int 0, so an all-zero mean is 0.0, not -0.0.
    return float(sum(map(Fraction, terms)) / len(xs))


def _stream(seed: int, purpose: str) -> random.Random:
    """Named RNG stream; string seeding is deterministic across processes."""
    return random.Random(f"{seed}|{purpose}")


class _Node:
    """RandomWaypoint walker with zero pause time. Position is evaluated
    lazily at monotonically increasing query times."""

    __slots__ = ("rng", "pos", "waypoint", "speed", "leg_start_t", "leg_duration", "contact_gateway")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.pos = (rng.uniform(0.0, GRID_SIZE), rng.uniform(0.0, GRID_SIZE))
        self.contact_gateway: int | None = None
        self._pick_leg(0.0)

    def _pick_leg(self, t: float) -> None:
        self.leg_start_t = t
        while True:
            self.waypoint = (self.rng.uniform(0.0, GRID_SIZE), self.rng.uniform(0.0, GRID_SIZE))
            self.speed = self.rng.uniform(SPEED_MIN, SPEED_MAX)
            distance = math.dist(self.pos, self.waypoint)
            if distance > 0.0:
                self.leg_duration = distance / self.speed
                return

    def position(self, t: float) -> tuple[float, float]:
        while t >= self.leg_start_t + self.leg_duration:
            self.pos = self.waypoint
            self._pick_leg(self.leg_start_t + self.leg_duration)
        frac = (t - self.leg_start_t) / self.leg_duration
        x0, y0 = self.pos
        x1, y1 = self.waypoint
        return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)


def run_smart_city(cfg: SimConfig) -> SimReport:
    """Tick loop: every node polls at t = 0, p, p + p, ... up to the
    duration, in node order within a tick."""
    reach = cfg.gateway_range
    nodes = [_Node(_stream(cfg.seed, f"mobility|{i}")) for i in range(cfg.num_mobile_nodes)]
    link_s = cfg.d2d_link_latency_ms / 1000.0
    cloud_latency = _weibull_stream(_stream(cfg.seed, "cloud").random, cfg.cloud, link_s)
    handshake_s = cfg.handshake_cost_ms / 1000.0
    burst = cfg.burst_size
    cap = cfg.cloud_connection_cap
    d2d = cfg.mode == "d2d"
    uncapped_cloud = not d2d and not cap
    dist = math.dist
    gateways = tuple(enumerate(GATEWAYS))  # (index, position)
    # A d2d burst is burst_size copies of one value; the handshake is
    # amortized over the first burst of a contact.
    fresh_burst = array("d", [link_s + handshake_s / burst]) * burst
    repeat_burst = array("d", [link_s + 0.0]) * burst

    contact_node = array("l")
    contact_gateway = array("l")
    contact_time = array("d")
    contact_sent = array("l")
    latency = array("d")
    drops = 0
    inflight: list[float] = []  # completion times of outstanding cloud requests, capped mode only

    t = 0.0
    while t <= cfg.duration:
        first_contact = len(contact_node)
        for node_id, node in enumerate(nodes):
            pos = node.position(t)
            # The nearest gateway, the lowest index on a tie.
            d = math.inf
            for i, g in gateways:
                e = dist(pos, g)
                if e < d:
                    d, nearest = e, i
            if d > reach:
                node.contact_gateway = None
                continue
            fresh_contact = node.contact_gateway != nearest
            node.contact_gateway = nearest
            sent = burst
            if d2d:
                latency.extend(fresh_burst if fresh_contact else repeat_burst)
            elif cap:
                for _ in range(burst):
                    while inflight and inflight[0] <= t:
                        heapq.heappop(inflight)
                    if len(inflight) >= cap:
                        drops += 1
                        sent -= 1
                        continue
                    x = next(cloud_latency)
                    heapq.heappush(inflight, t + x)
                    latency.append(x)
            contact_node.append(node_id)
            contact_gateway.append(nearest)
            contact_time.append(t)
            contact_sent.append(sent)
        if uncapped_cloud:
            # The tick's messages take their latencies in contact order.
            latency.extend(islice(cloud_latency, burst * (len(contact_node) - first_contact)))
        t += cfg.poll_interval
    return SimReport(
        config=cfg,
        drops=drops,
        node=contact_node,
        gateway=contact_gateway,
        send_time=contact_time,
        sent=contact_sent,
        samples=latency,
    )
