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
contacts and of latencies); ``SimReport.samples`` builds
``LatencySample`` objects only when iterated, and the CSV is rendered
straight from the columns, one ``%`` template per contact.

Gateway lookup: a poll measures only the gateways listed for its grid
cell (side gateway_range / 2) in an index built once per run. The index
is exact: math.dist is at least max(|dx|, |dy|), so a gateway out of a
cell's list is out of reach of every point in the cell (see
``_gateway_cells``). Candidates are compared in gateway order with a
strict ``<``, so a tie goes to the lowest index, as with a full scan.

Latency draws: cloud latencies come from one iterator per run that
draws the run's cloud stream a chunk at a time and maps each chunk with
the inverse-CDF expression of ``sample_weibull`` (``_weibull``), so every
value and its order are as with one ``sample_weibull`` call per message.
Uncapped, a tick's messages take their latencies in contact order, so
they are taken in one batch after the node loop; capped, one at a time,
as the in-flight heap decides how many a burst takes.

Configs: a NaN or infinite float field raises ``InvalidConfig``; with
one, a run could never end or would write non-finite latencies. So do
more than ``MAX_POLL_TICKS`` polls, or a node walk of more than
``MAX_GRID_LENGTHS`` grid lengths, which finite fields can still ask for.

Report: ``summarize`` sorts the latencies once and reads the median, p95
and max off the sorted list. Each histogram bin's lower edge is one
bisect, since the bin index never decreases along the sorted samples.
The mean equals ``statistics.mean`` (the exact rational mean, rounded
once): every sample is scaled by one power of two to an integer, the
integers are summed, and the quotient is rounded once. Latencies must be
finite and non-negative; anything else raises ``DomainError``.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import islice, product, repeat, starmap
from typing import Callable, Iterable, Iterator, Sequence

from .errors import IotPkiError

WEIBULL_BETA = 0.5
WEIBULL_LAMBDA = 6.37
MAX_GATEWAYS = 5
GATEWAY_ARM_FRACTION = 0.3  # arm length 150 m on the 500 m reference grid
HISTOGRAM_BINS = 20
_DRAW_CHUNK = 4096  # cloud latencies drawn at a time
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
    num_gateways: int = 5
    grid_size: float = 500.0
    speed_min: float = 5.0
    speed_max: float = 25.0
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
        if not 1 <= self.num_gateways <= MAX_GATEWAYS:
            raise InvalidConfig(
                f"star topology defines 1..{MAX_GATEWAYS} gateways, got {self.num_gateways}"
            )
        if not (0 < self.speed_min <= self.speed_max):
            raise InvalidConfig(
                f"need 0 < speed_min <= speed_max, got {self.speed_min}..{self.speed_max}"
            )
        positives = {
            "grid_size": self.grid_size,
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
        walk = self.speed_max * self.duration / self.grid_size
        if walk > MAX_GRID_LENGTHS:
            raise InvalidConfig(
                f"speed_max * duration / grid_size is {walk} grid lengths, over {MAX_GRID_LENGTHS}"
            )
        if self.d2d_link_latency_ms < 0 or self.handshake_cost_ms < 0:
            raise InvalidConfig("latency constants must be non-negative")
        if self.cloud_connection_cap < 0:
            raise InvalidConfig("cloud_connection_cap must be >= 0 (0 = unlimited)")


@dataclass(frozen=True, slots=True)
class LatencySample:
    node_id: int
    gateway_id: int
    send_time: float
    latency_seconds: float
    mode: str

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it is rejected with the infinities.
        if not 0 <= self.latency_seconds < math.inf:
            raise ValueError(f"latency {self.latency_seconds} is not finite and non-negative")


class _Samples:
    """Read-only view of a report's samples that builds each LatencySample
    only when it is iterated."""

    __slots__ = ("_report",)

    def __init__(self, report: "SimReport") -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.latency)

    def __iter__(self) -> Iterator[LatencySample]:
        r = self._report
        mode = r.config.mode
        latencies = iter(r.latency)
        for node, gateway, t, sent in zip(r.node, r.gateway, r.send_time, r.sent):
            for _ in range(sent):
                yield LatencySample(node, gateway, t, next(latencies), mode)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Samples):
            other = tuple(other)
        if not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == other


@dataclass(frozen=True)
class SimReport:
    """Samples stored by column.

    ``node``, ``gateway``, ``send_time`` and ``sent`` hold one row per
    contact (a poll in gateway range) with the number of messages it
    completed; ``latency`` holds one value per completed message, in send
    order, so contact i owns the next ``sent[i]`` latencies.
    """

    config: SimConfig
    drops: int
    node: array
    gateway: array
    send_time: array
    sent: array
    latency: array

    @property
    def samples(self) -> _Samples:
        return _Samples(self)

    def latencies(self) -> list[float]:
        return self.latency.tolist()

    def to_csv(self) -> str:
        mode = self.config.mode
        latency = self.latency
        rows = ["mode,node,gateway,t_send,latency_s\n"]
        start = 0
        for node, gateway, t, sent in zip(self.node, self.gateway, self.send_time, self.sent):
            end = start + sent
            row = f"{mode},{node},{gateway},{t:.3f},%.6f\n"
            rows.append((row * sent) % tuple(latency[start:end]))
            start = end
        return "".join(rows)


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
    """``statistics.mean`` of sorted non-negative floats: the exact rational
    mean, rounded once. Scaling by 2**k, with k set by the smallest nonzero
    sample, makes every sample an integer, so the sum is exact."""
    n = len(xs)
    first = bisect_right(xs, 0.0)
    k = max(0, 53 - math.frexp(xs[first])[1]) if first < n else 0
    try:
        total = sum(map(int, map(math.ldexp, xs, repeat(k))))
    except (OverflowError, ValueError):
        # int() rejects inf and NaN; ldexp overflows when the samples span
        # more than the float exponent range (a subnormal beside a large value).
        if not all(map(math.isfinite, xs)):
            raise DomainError("latencies must be finite") from None
        return statistics.mean(xs)
    return float(Fraction(total, n << k))


def gateway_positions(cfg: SimConfig) -> list[tuple[float, float]]:
    """Star topology: one gateway at grid center, four on the cardinal arms."""
    center = cfg.grid_size / 2.0
    arm = cfg.grid_size * GATEWAY_ARM_FRACTION
    star = [
        (center, center),
        (center + arm, center),
        (center - arm, center),
        (center, center + arm),
        (center, center - arm),
    ]
    return star[: cfg.num_gateways]


def _stream(seed: int, purpose: str) -> random.Random:
    """Named RNG stream; string seeding is deterministic across processes."""
    return random.Random(f"{seed}|{purpose}")


class _Node:
    """RandomWaypoint walker with zero pause time. Position is evaluated
    lazily at monotonically increasing query times."""

    __slots__ = ("rng", "grid", "speed_min", "speed_max", "pos", "waypoint",
                 "speed", "leg_start_t", "leg_duration", "contact_gateway")

    def __init__(self, rng: random.Random, cfg: SimConfig) -> None:
        self.rng = rng
        self.grid = cfg.grid_size
        self.speed_min = cfg.speed_min
        self.speed_max = cfg.speed_max
        self.pos = (rng.uniform(0.0, self.grid), rng.uniform(0.0, self.grid))
        self.contact_gateway: int | None = None
        self._pick_leg(0.0)

    def _pick_leg(self, t: float) -> None:
        self.leg_start_t = t
        while True:
            self.waypoint = (self.rng.uniform(0.0, self.grid), self.rng.uniform(0.0, self.grid))
            self.speed = self.rng.uniform(self.speed_min, self.speed_max)
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


# Cell coordinates stay below this, far inside float precision, so the
# rounding error of a cell coordinate is much less than one cell.
_MAX_CELLS = 2.0**40


def _gateway_cells(
    gateways: list[tuple[float, float]], reach: float, grid: float
) -> tuple[float, dict[tuple[int, int], list[tuple[int, tuple[float, float]]]]]:
    """Index the gateways by grid cell of side reach / 2: returns (scale, cells).

    A point (x, y) lies in cell (floor(x * scale), floor(y * scale)).
    ``cells`` maps a cell to the (index, position) of each gateway that may
    be within reach of a point in it, in gateway order; a cell missing from
    it has none. math.dist is at least max(|dx|, |dy|), so a point within
    reach of a gateway lies in the gateway's reach box, two cells to each
    side of it. Each gateway is listed in every cell that box touches,
    widened by one cell on each side for rounding, so a gateway left out of
    a cell is out of reach of every point in it. When the cell arithmetic
    is not finite (a subnormal reach) or too fine for the grid, scale is 0:
    every point lies in one cell that holds every gateway.
    """
    scale = 2.0 / reach
    if not grid * scale <= _MAX_CELLS:
        return 0.0, {(0, 0): list(enumerate(gateways))}
    cells: dict[tuple[int, int], list[tuple[int, tuple[float, float]]]] = {}
    for gateway in enumerate(gateways):
        gx, gy = (math.floor(c * scale) for c in gateway[1])
        for cell in product(range(gx - 3, gx + 4), range(gy - 3, gy + 4)):
            cells.setdefault(cell, []).append(gateway)
    return scale, cells


def run_smart_city(cfg: SimConfig) -> SimReport:
    """Tick loop: every node polls at t = 0, p, p + p, ... up to the
    duration, in node order within a tick."""
    gateways = gateway_positions(cfg)
    reach = cfg.gateway_range
    scale, cells = _gateway_cells(gateways, reach, cfg.grid_size)
    nodes = [_Node(_stream(cfg.seed, f"mobility|{i}"), cfg) for i in range(cfg.num_mobile_nodes)]
    link_s = cfg.d2d_link_latency_ms / 1000.0
    cloud_latency = _weibull_stream(_stream(cfg.seed, "cloud").random, cfg.cloud, link_s)
    handshake_s = cfg.handshake_cost_ms / 1000.0
    burst = cfg.burst_size
    cap = cfg.cloud_connection_cap
    d2d = cfg.mode == "d2d"
    uncapped_cloud = not d2d and not cap
    dist = math.dist
    floor = math.floor
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
            px, py = pos
            # The nearest candidate, the lowest index on a tie.
            d = math.inf
            for i, g in cells.get((floor(px * scale), floor(py * scale)), ()):
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
        latency=latency,
    )
