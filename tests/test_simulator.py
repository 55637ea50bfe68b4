"""Weibull sampling oracles and smart-city simulation properties."""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotpki import simulator
from iotpki.simulator import (
    HISTOGRAM_BINS,
    DomainError,
    EmptyInput,
    InvalidConfig,
    LatencySample,
    SimConfig,
    Summary,
    WeibullParams,
    gateway_positions,
    run_smart_city,
    sample_weibull,
    summarize,
)

# Closed-form anchors, computed independently of the implementation:
# median = lam * (ln 2)^(1/beta) with beta = 0.5 -> lam * (ln 2)^2
CLOSED_FORM_MEDIAN = 3.060485698658943
# mean = lam * Gamma(1 + 1/beta) = 6.37 * Gamma(3) = 6.37 * 2
ANALYTIC_MEAN = 12.74

P = WeibullParams()


def draws(n: int, seed: str = "weibull-oracle") -> list[float]:
    rng = random.Random(seed)
    return [sample_weibull(P, rng.random()) for _ in range(n)]


class TestWeibull:
    def test_median_matches_closed_form(self):
        assert sample_weibull(P, 0.5) == pytest.approx(CLOSED_FORM_MEDIAN, rel=1e-12)

    def test_scale_point(self):
        # u = 1 - e^-1 makes the inner term exactly 1, returning lam itself
        assert sample_weibull(P, 1.0 - math.exp(-1.0)) == pytest.approx(6.37, rel=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5, 2.0])
    def test_domain_enforced(self, u):
        with pytest.raises(DomainError):
            sample_weibull(P, u)

    def test_sample_mean_near_analytic(self):
        xs = draws(100_000)
        assert statistics_mean(xs) == pytest.approx(ANALYTIC_MEAN, rel=0.05)

    def test_sample_median_near_closed_form(self):
        xs = sorted(draws(100_000))
        median = (xs[49_999] + xs[50_000]) / 2
        assert median == pytest.approx(CLOSED_FORM_MEDIAN, rel=0.05)

    def test_ks_statistic_below_threshold(self):
        xs = sorted(draws(100_000))
        n = len(xs)
        worst = 0.0
        for i, x in enumerate(xs):
            cdf = 1.0 - math.exp(-((x / P.lam) ** P.beta))
            worst = max(worst, abs((i + 1) / n - cdf), abs(i / n - cdf))
        assert worst < 0.01

    def test_monotone_in_u(self):
        us = [0.05, 0.2, 0.5, 0.8, 0.99]
        xs = [sample_weibull(P, u) for u in us]
        assert xs == sorted(xs)

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidConfig):
            WeibullParams(beta=0.0)
        with pytest.raises(InvalidConfig):
            WeibullParams(lam=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", ["beta", "lam"])
    def test_non_finite_params_rejected(self, name, value):
        # lam=inf would draw infinite latencies.
        with pytest.raises(InvalidConfig, match=name):
            WeibullParams(**{name: value})


def statistics_mean(xs):
    return sum(xs) / len(xs)


class TestConfigValidation:
    def test_default_config_valid(self):
        cfg = SimConfig()
        assert cfg.num_gateways == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "carrier-pigeon"},
            {"num_mobile_nodes": 0},
            {"num_gateways": 6},
            {"num_gateways": 0},
            {"speed_min": 30.0, "speed_max": 25.0},
            {"speed_min": 0.0},
            {"poll_interval": 0.0},
            {"burst_size": 0},
            {"duration": -5.0},
            {"grid_size": 0.0},
            {"d2d_link_latency_ms": -1.0},
            {"cloud_connection_cap": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # A walk linear in speed: days of waypoint legs on a unit grid.
            ({"grid_size": 1.0, "speed_min": 1e9, "speed_max": 1e9}, "grid lengths"),
            # The subnormal grid: finite, yet 3e12 grid lengths per node.
            ({"grid_size": 1e-310, "speed_min": 1e-300, "speed_max": 1e-300}, "grid lengths"),
            # speed_max * duration overflows to inf.
            ({"speed_max": 1e300, "duration": 1e300, "poll_interval": 1e300}, "grid lengths"),
            # t += poll_interval stops advancing long before 1e17 polls.
            ({"num_mobile_nodes": 1, "poll_interval": 1e-3, "duration": 1e14}, "polls"),
            ({"poll_interval": 1e-300, "duration": 1e10}, "polls"),
        ],
        ids=["fast-walk", "subnormal-grid", "walk-overflow", "stalled-clock", "ticks-overflow"],
    )
    def test_runs_that_cannot_end_rejected(self, kwargs, match):
        with pytest.raises(InvalidConfig, match=match):
            SimConfig(**kwargs)

    def test_configs_at_the_work_bounds_accepted(self):
        # The defaults (151 polls, 15 grid lengths), and the bounds themselves.
        SimConfig()
        SimConfig(
            duration=2.0**32, poll_interval=1.0, speed_min=1.0, speed_max=1.0, grid_size=2.0**12
        )
        SimConfig(duration=2.0**20, grid_size=1.0, speed_min=1.0, speed_max=1.0)

    FLOAT_FIELDS = [
        "grid_size", "speed_min", "speed_max", "gateway_range", "poll_interval",
        "d2d_link_latency_ms", "handshake_cost_ms", "duration",
    ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_fields_rejected(self, name, value):
        # speed_max=inf or grid_size=inf would never end a run; a NaN
        # gateway_range would count every poll as a contact.
        with pytest.raises(InvalidConfig, match=name):
            SimConfig(**{name: value})

    def test_float_fields_listed(self):
        floats = {name for name, f in SimConfig.__dataclass_fields__.items() if f.type == "float"}
        assert floats == set(self.FLOAT_FIELDS)

    def test_negative_latency_sample_rejected(self):
        for latency in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                LatencySample(0, 0, 1.0, latency, "d2d")
        assert LatencySample(0, 0, 1.0, 0.0, "d2d").latency_seconds == 0.0

    def test_star_layout(self):
        cfg = SimConfig()
        assert gateway_positions(cfg) == [
            (250.0, 250.0),
            (400.0, 250.0),
            (100.0, 250.0),
            (250.0, 400.0),
            (250.0, 100.0),
        ]
        assert gateway_positions(SimConfig(num_gateways=1)) == [(250.0, 250.0)]


SMALL = dict(num_mobile_nodes=40, duration=60.0, seed=7)


class TestSmartCity:
    def test_same_seed_byte_identical(self):
        first = run_smart_city(SimConfig(mode="cloud", **SMALL))
        second = run_smart_city(SimConfig(mode="cloud", **SMALL))
        assert first.to_csv() == second.to_csv()
        assert first.drops == second.drops

    def test_different_seed_differs(self):
        a = run_smart_city(SimConfig(mode="cloud", **SMALL))
        b = run_smart_city(SimConfig(mode="cloud", num_mobile_nodes=40, duration=60.0, seed=8))
        assert a.to_csv() != b.to_csv()

    def test_mobility_identical_across_modes(self):
        d2d = run_smart_city(SimConfig(mode="d2d", **SMALL))
        cloud = run_smart_city(SimConfig(mode="cloud", **SMALL))
        key = lambda r: [(s.node_id, s.gateway_id, s.send_time) for s in r.samples]
        assert key(d2d) == key(cloud)

    def test_d2d_latencies_are_two_constants(self):
        report = run_smart_city(SimConfig(mode="d2d", **SMALL))
        assert report.samples
        values = {round(s.latency_seconds, 9) for s in report.samples}
        assert values <= {0.017, round(0.017 + 0.05 / 10, 9)}

    def test_cloud_vs_d2d_latency_gap(self):
        d2d = run_smart_city(SimConfig(mode="d2d", **SMALL))
        cloud = run_smart_city(SimConfig(mode="cloud", **SMALL))
        ratio = statistics_mean(cloud.latencies()) / statistics_mean(d2d.latencies())
        assert ratio >= 100.0

    def test_out_of_range_nodes_never_sample(self):
        cfg = SimConfig(
            num_mobile_nodes=10, duration=30.0, gateway_range=1e-6, seed=3
        )
        report = run_smart_city(cfg)
        assert report.samples == ()

    def test_sample_fields_sane(self):
        cfg = SimConfig(mode="cloud", **SMALL)
        report = run_smart_city(cfg)
        assert report.samples
        for s in report.samples:
            assert 0 <= s.node_id < cfg.num_mobile_nodes
            assert 0 <= s.gateway_id < cfg.num_gateways
            assert 0.0 <= s.send_time <= cfg.duration
            assert s.latency_seconds >= 0.017
            assert s.mode == "cloud"

    def test_connection_cap_drops(self):
        capped = run_smart_city(
            SimConfig(mode="cloud", cloud_connection_cap=1, **SMALL)
        )
        uncapped = run_smart_city(SimConfig(mode="cloud", **SMALL))
        assert capped.drops > 0
        assert uncapped.drops == 0
        assert len(capped.samples) + capped.drops == len(uncapped.samples)

    def test_csv_layout(self):
        report = run_smart_city(SimConfig(mode="d2d", num_mobile_nodes=5, duration=10.0, seed=1))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "mode,node,gateway,t_send,latency_s"
        for line in lines[1:]:
            mode, node, gw, t_send, latency = line.split(",")
            assert mode == "d2d"
            int(node), int(gw), float(t_send), float(latency)


# sha256 of to_csv(), drops, and sha256 of the summarize fields, pinned from
# the event-queue simulator that the tick loop replaced.
GOLDEN = {
    "d2d": (
        dict(mode="d2d", num_mobile_nodes=40, duration=60.0, seed=7),
        "364ff0360d17ed20ed0d7b6583fb8986f7af18895d6f258f358188644a0afcc8",
        0,
        "4e2986cead4ed71430e8db662d33dd8701c33283e855cac6870530f487e723d2",
    ),
    "cloud": (
        dict(mode="cloud", num_mobile_nodes=40, duration=60.0, seed=7),
        "cf79e7bb343163e1daa68be9f77842343696a422cc04694afc18161b7bd653c1",
        0,
        "b9bd0443667acc90d30714c9fbcce969971c49d077be5fb0cf440b4dc312c49d",
    ),
    "cloud-cap1-poll0.3": (
        dict(
            mode="cloud", num_mobile_nodes=20, duration=30.0, seed=11,
            cloud_connection_cap=1, poll_interval=0.3,
        ),
        "8cd944bc84b533cbe2b84e7dd200686b30be11d7adde57c4c3aa32dc88e066b0",
        13875,
        "428e8eb0958e56cd8c318cb40eb22acea44e890922f04b7968ff19295b366ffc",
    ),
    "d2d-burst1-gw1-poll1.7": (
        dict(
            mode="d2d", num_mobile_nodes=15, duration=40.0, seed=3, burst_size=1,
            num_gateways=1, poll_interval=1.7, gateway_range=150.0,
        ),
        "d0fabb9e7fd06a66bc7066387db18121f12b07b8c81cba625a39b145431cb58a",
        0,
        "22719b4b4d6ea25aed4ed9cc1f237e49184246cfd1b771569c93071f5f92a688",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_outputs_match_pinned_hashes(self, case):
        kwargs, csv_hash, drops, summary_hash = GOLDEN[case]
        report = run_smart_city(SimConfig(**kwargs))
        s = summarize(report.latencies())
        fields = f"{s.count}|{s.mean!r}|{s.median!r}|{s.p95!r}|{s.max!r}|{s.histogram_csv}"
        assert sha256(report.to_csv()) == csv_hash
        assert report.drops == drops
        assert sha256(fields) == summary_hash

    def test_sample_count_matches_csv_rows(self):
        kwargs = GOLDEN["cloud-cap1-poll0.3"][0]
        report = run_smart_city(SimConfig(**kwargs))
        rows = report.to_csv().count("\n") - 1
        assert len(report.samples) == rows == len(list(report.samples)) == 5


class TestSummarize:
    def test_single_sample(self):
        s = summarize([4.2])
        assert s.mean == s.median == s.p95 == s.max == 4.2
        assert s.count == 1

    def test_small_known_set(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.max == 3.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_weibull_sample_moments(self):
        xs = draws(100_000)
        s = summarize(xs)
        assert s.mean == pytest.approx(ANALYTIC_MEAN, rel=0.05)
        assert s.median == pytest.approx(CLOSED_FORM_MEDIAN, rel=0.05)

    def test_histogram_counts_sum(self):
        xs = draws(5_000)
        s = summarize(xs)
        lines = s.histogram_csv.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 21
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == len(xs)

    def test_p95_rank(self):
        xs = list(range(1, 101))  # 1..100
        s = summarize([float(x) for x in xs])
        assert s.p95 == 95.0

    @pytest.mark.parametrize(
        "xs",
        [
            [-100.0, 1.0],  # bin index far below 0
            [-0.5, 1.0],  # int() truncates to a valid bin index
            [-3.0, -1.0],  # negatives only
            [-math.inf, 1.0],
            [math.nan, 1.0],
            [1.0, math.nan],
            [math.nan],
            [1.0, math.inf],
            [math.inf],
        ],
        ids=repr,
    )
    def test_out_of_domain_rejected(self, xs):
        with pytest.raises(DomainError):
            summarize(xs)

    def test_negative_zero_is_in_domain(self):
        s = summarize([-0.0, 1.0])
        assert s.count == 2 and s.mean == 0.5

    def test_subnormal_range_bins_like_zeros(self):
        # top / HISTOGRAM_BINS underflows to 0 here, so there is no width to
        # divide by; the samples are binned as if they were all zero.
        xs = [0.0, 5e-324, 1e-323]
        assert summarize(xs).histogram_csv == summarize([0.0] * 3).histogram_csv


def _old_summarize(latencies):
    """The per-element report that the bisect and exact-sum version
    replaced, kept as an oracle."""
    xs = sorted(latencies)
    n = len(xs)
    p95 = xs[max(0, math.ceil(0.95 * n) - 1)]
    top = xs[-1]
    width = (top / HISTOGRAM_BINS) if top > 0 else 1.0
    counts = [0] * HISTOGRAM_BINS
    last = HISTOGRAM_BINS - 1
    for x in xs:
        idx = min(int(x / width), last)
        counts[idx] += 1
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(counts):
        lines.append(f"{i * width:.6f},{(i + 1) * width:.6f},{count}")
    return Summary(
        count=n,
        mean=statistics.mean(xs),
        median=statistics.median(xs),
        p95=p95,
        max=top,
        histogram_csv="\n".join(lines) + "\n",
    )


def _old_to_csv(report):
    """The str.format renderer that the one-%-per-contact version replaced."""
    mode = report.config.mode
    rows = ["mode,node,gateway,t_send,latency_s\n"]
    start = 0
    for node, gateway, t, sent in zip(report.node, report.gateway, report.send_time, report.sent):
        end = start + sent
        row = f"{mode},{node},{gateway},{t:.3f},{{:.6f}}\n"
        rows.append((row * sent).format(*report.latency[start:end]))
        start = end
    return "".join(rows)


SUBNORMALS = [5e-324, 1e-323, 2.5e-310, 2.2250738585072014e-308 / 2]
LATENCIES = st.one_of(
    st.floats(min_value=0.0, max_value=400.0),
    st.sampled_from([0.0, 0.017, 0.022, *SUBNORMALS]),
    st.floats(min_value=1e299, max_value=1e301),
)


@st.composite
def latency_lists(draw):
    xs = draw(st.lists(LATENCIES, min_size=1, max_size=30))
    # Samples exactly on bin edges i * width, and duplicates of drawn ones.
    width = max(xs) / HISTOGRAM_BINS
    xs += [i * width for i in draw(st.lists(st.integers(0, HISTOGRAM_BINS - 1), max_size=4))]
    xs += draw(st.lists(st.sampled_from(xs), max_size=4))
    return draw(st.permutations(xs))


def _fields(s: Summary) -> tuple[str, ...]:
    return tuple(repr(getattr(s, name)) for name in Summary.__dataclass_fields__)


class TestReportOracle:
    @settings(deadline=None)
    @given(latency_lists())
    @example([4.2])
    @example([1.0, 2.0])
    @example([0.0, 0.0, 0.0])
    @example([1e300, 1e300, 3e300])
    @example([5e-324, 1e300])  # 2**k overflows: the statistics.mean fallback
    @example([5e-324, 5e-324])  # the median halves the sum, not each half
    @example([0.0, 0.55, 1.1, 1.1 * 19 / 20])
    def test_summarize_matches_per_element_oracle(self, xs):
        new = summarize(xs)
        try:
            old = _old_summarize(xs)
        except ZeroDivisionError:
            # The oracle divides by top / BINS even when that underflows to 0;
            # such a range is now binned like zeros (see
            # TestSummarize.test_subnormal_range_bins_like_zeros).
            assert max(xs) / HISTOGRAM_BINS == 0 < max(xs)
            ys = sorted(xs)
            old = Summary(
                count=len(ys),
                mean=statistics.mean(ys),
                median=statistics.median(ys),
                p95=ys[max(0, math.ceil(0.95 * len(ys)) - 1)],
                max=ys[-1],
                histogram_csv=_old_summarize([0.0] * len(ys)).histogram_csv,
            )
        assert _fields(new) == _fields(old)

    @settings(deadline=None, max_examples=40)
    @given(
        mode=st.sampled_from(["d2d", "cloud"]),
        nodes=st.integers(1, 6),
        duration=st.floats(0.5, 20.0),
        poll=st.floats(0.1, 3.0),
        burst=st.integers(1, 6),
        cap=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @example(mode="cloud", nodes=6, duration=10.0, poll=0.2, burst=5, cap=2, seed=1)
    def test_to_csv_matches_format_oracle(self, mode, nodes, duration, poll, burst, cap, seed):
        report = run_smart_city(
            SimConfig(
                mode=mode, num_mobile_nodes=nodes, duration=duration, poll_interval=poll,
                burst_size=burst, cloud_connection_cap=cap, seed=seed, gateway_range=200.0,
            )
        )
        assert report.to_csv() == _old_to_csv(report)

    def test_capped_example_has_short_and_empty_contacts(self):
        report = run_smart_city(
            SimConfig(
                mode="cloud", num_mobile_nodes=6, duration=10.0, poll_interval=0.2,
                burst_size=5, cloud_connection_cap=2, seed=1, gateway_range=200.0,
            )
        )
        assert 0 in report.sent
        assert any(0 < sent < 5 for sent in report.sent)


def _old_sample_weibull(params, u):
    if not 0.0 < u < 1.0:
        raise DomainError(f"u must lie strictly inside (0, 1), got {u}")
    return params.lam * (-math.log1p(-u)) ** (1.0 / params.beta)


def _old_run_smart_city(cfg):
    """The tick loop that the batched draws and the gateway cell index
    replaced, kept as an oracle: one math.dist call per gateway per poll
    and one Weibull sample per cloud message. Returns the report columns."""
    gateways = gateway_positions(cfg)
    nodes = [simulator._Node(simulator._stream(cfg.seed, f"mobility|{i}"), cfg)
             for i in range(cfg.num_mobile_nodes)]
    draw = simulator._stream(cfg.seed, "cloud").random
    link_s = cfg.d2d_link_latency_ms / 1000.0
    handshake_s = cfg.handshake_cost_ms / 1000.0
    burst = cfg.burst_size
    cap = cfg.cloud_connection_cap
    columns = {"node": [], "gateway": [], "send_time": [], "sent": [], "latency": []}
    drops = 0
    inflight = []
    t = 0.0
    while t <= cfg.duration:
        for node_id, node in enumerate(nodes):
            pos = node.position(t)
            ds = [math.dist(pos, g) for g in gateways]
            d = min(ds)
            if d > cfg.gateway_range:
                node.contact_gateway = None
                continue
            nearest = ds.index(d)
            fresh_contact = node.contact_gateway != nearest
            node.contact_gateway = nearest
            sent = burst
            if cfg.mode == "d2d":
                x = link_s + (handshake_s / burst if fresh_contact else 0.0)
                columns["latency"] += [x] * burst
            elif not cap:
                for _ in range(burst):
                    columns["latency"].append(link_s + _old_sample_weibull(cfg.cloud, draw()))
            else:
                for _ in range(burst):
                    while inflight and inflight[0] <= t:
                        heapq.heappop(inflight)
                    if len(inflight) >= cap:
                        drops += 1
                        sent -= 1
                        continue
                    x = link_s + _old_sample_weibull(cfg.cloud, draw())
                    heapq.heappush(inflight, t + x)
                    columns["latency"].append(x)
            columns["node"].append(node_id)
            columns["gateway"].append(nearest)
            columns["send_time"].append(t)
            columns["sent"].append(sent)
        t += cfg.poll_interval
    return columns, drops


def _columns(report):
    return {name: getattr(report, name).tolist() for name in ("node", "gateway", "send_time", "sent", "latency")}


GATEWAY_RANGES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-9, 0.5]),
    st.floats(0.5, 1000.0),
    st.floats(1000.0, 1e6),  # larger than every grid drawn here
)


class TestRunOracle:
    """run_smart_city against the per-poll loop it replaced, column by column."""

    @settings(deadline=None, max_examples=60)
    @given(
        mode=st.sampled_from(["d2d", "cloud"]),
        nodes=st.integers(1, 12),
        gateways=st.integers(1, 5),
        grid=st.one_of(st.sampled_from([1.0, 500.0, 3000.0]), st.floats(1.0, 3000.0)),
        reach=GATEWAY_RANGES,
        duration=st.floats(0.5, 30.0),
        poll=st.floats(0.1, 5.0),
        burst=st.integers(1, 8),
        cap=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @example(mode="cloud", nodes=12, gateways=5, grid=500.0, reach=100.0, duration=30.0,
             poll=0.3, burst=8, cap=0, seed=1)
    @example(mode="cloud", nodes=12, gateways=5, grid=500.0, reach=100.0, duration=30.0,
             poll=0.3, burst=8, cap=2, seed=1)
    @example(mode="d2d", nodes=12, gateways=5, grid=500.0, reach=5e-324, duration=30.0,
             poll=0.3, burst=1, cap=0, seed=1)
    @example(mode="d2d", nodes=12, gateways=3, grid=1.0, reach=1e6, duration=30.0,
             poll=0.3, burst=1, cap=0, seed=1)
    def test_matches_per_poll_oracle(
        self, mode, nodes, gateways, grid, reach, duration, poll, burst, cap, seed
    ):
        cfg = SimConfig(
            mode=mode, num_mobile_nodes=nodes, num_gateways=gateways, grid_size=grid,
            gateway_range=reach, duration=duration, poll_interval=poll, burst_size=burst,
            cloud_connection_cap=cap, seed=seed, speed_min=1.0, speed_max=50.0,
        )
        report = run_smart_city(cfg)
        columns, drops = _old_run_smart_city(cfg)
        assert _columns(report) == columns
        assert report.drops == drops

    @pytest.mark.parametrize("cap", [0, 1])
    def test_reference_config_matches_oracle(self, cap):
        cfg = SimConfig(mode="cloud", cloud_connection_cap=cap, **SMALL)
        report = run_smart_city(cfg)
        assert (_columns(report), report.drops) == _old_run_smart_city(cfg)


def _pin_nodes(monkeypatch, points):
    """Replace the walkers with nodes parked at the given points."""
    parked = iter(points)

    class Parked:
        def __init__(self, rng, cfg):
            self.pos = next(parked)
            self.contact_gateway = None

        def position(self, t):
            return self.pos

    monkeypatch.setattr(simulator, "_Node", Parked)


def _brute_force(point, gateways, reach):
    ds = [math.dist(point, g) for g in gateways]
    return ds.index(min(ds)) if min(ds) <= reach else None


def _lookup(monkeypatch, points, **kwargs):
    """Gateway index per point from a single-tick run, None for no contact."""
    _pin_nodes(monkeypatch, points)
    report = run_smart_city(
        SimConfig(num_mobile_nodes=len(points), duration=0.5, poll_interval=1.0, **kwargs)
    )
    found = dict(zip(report.node, report.gateway))
    return [found.get(i) for i in range(len(points))]


class TestGatewayLookup:
    """The cell index against brute force at its edges: points on cell
    boundaries, points exactly at gateway_range, and ties."""

    @pytest.mark.parametrize("reach", [100.0, 150.0, 37.5, 0.1, 1e-9, 5e-324, 1e6])
    def test_cell_edges_and_range_boundary(self, monkeypatch, reach):
        cfg = SimConfig(gateway_range=reach)
        gateways = gateway_positions(cfg)
        size = reach / 2.0
        points = []
        for gx, gy in gateways:
            # Exactly at the range, along the axes and on a 3-4-5 diagonal.
            for dx, dy in [(reach, 0.0), (-reach, 0.0), (0.0, reach), (0.0, -reach),
                           (0.6 * reach, 0.8 * reach), (-0.8 * reach, 0.6 * reach)]:
                points.append((gx + dx, gy + dy))
            # On the cell boundaries in and around the gateway's reach box.
            for k in range(-4, 5):
                edge = (math.floor(gx / size) + k) * size if size else gx
                points += [(edge, gy), (gx, edge), (edge, edge)]
            points += [(gx, gy), (math.nextafter(gx + reach, math.inf), gy)]
        points = [(x, y) for x, y in points if 0.0 <= x <= cfg.grid_size and 0.0 <= y <= cfg.grid_size]
        expected = [_brute_force(p, gateways, reach) for p in points]
        assert _lookup(monkeypatch, points, gateway_range=reach) == expected
        if reach <= 150.0:
            assert None in expected and any(e is not None for e in expected)

    def test_exactly_at_range_is_a_contact(self, monkeypatch):
        points = [(250.0 + 60.0, 250.0 + 80.0), (250.0, 250.0 - 100.0), (350.0, 250.0),
                  (math.nextafter(350.0, math.inf), 250.0)]
        found = _lookup(monkeypatch, points, gateway_range=100.0, num_gateways=1)
        assert found == [0, 0, 0, None]

    def test_tie_goes_to_lowest_index(self, monkeypatch):
        # Halfway between the center (0) and the east gateway (1); as far
        # from the east (1) as from the north (3); as far from the center
        # as from the east and north.
        points = [(325.0, 250.0), (400.0, 400.0), (325.0, 325.0)]
        found = _lookup(monkeypatch, points, gateway_range=150.0)
        assert found == [_brute_force(p, gateway_positions(SimConfig()), 150.0) for p in points]
        assert found == [0, 1, 0]

    def test_gateway_index_is_small(self):
        for reach in (100.0, 0.5, 1e6):
            scale, cells = simulator._gateway_cells(
                gateway_positions(SimConfig()), reach, 500.0
            )
            assert 0 < len(cells) <= 5 * 49
        # A subnormal range has no finite cell size: one cell holds every gateway.
        scale, cells = simulator._gateway_cells(gateway_positions(SimConfig()), 5e-324, 500.0)
        assert scale == 0.0 and list(cells) == [(0, 0)] and len(cells[0, 0]) == 5


class _ZeroAt:
    """A cloud stream that returns 0.0 at one draw (counted from 0) and
    the seeded stream's values elsewhere."""

    def __init__(self, seed, zero_at):
        self.rng = random.Random(f"{seed}|cloud")
        self.count = -1
        self.zero_at = zero_at

    def random(self):
        self.count += 1
        u = self.rng.random()
        return 0.0 if self.count == self.zero_at else u


class TestCloudDomain:
    CFG = dict(mode="cloud", num_mobile_nodes=5, duration=10.0, gateway_range=150.0, seed=7)

    def _zero_at(self, monkeypatch, zero_at):
        stream = simulator._stream

        def cloud(seed, purpose):
            return _ZeroAt(seed, zero_at) if purpose == "cloud" else stream(seed, purpose)

        monkeypatch.setattr(simulator, "_stream", cloud)

    @pytest.mark.parametrize("cap", [0, 2])
    def test_zero_draw_raises(self, monkeypatch, cap):
        self._zero_at(monkeypatch, 0)
        with pytest.raises(DomainError):
            run_smart_city(SimConfig(cloud_connection_cap=cap, **self.CFG))

    @pytest.mark.parametrize("cap", [0, 2])
    def test_zero_raises_only_when_taken(self, monkeypatch, cap):
        # Draws are made a chunk ahead; a 0.0 past the last draw a run
        # takes must not raise, and the last draw taken must.
        cfg = SimConfig(cloud_connection_cap=cap, **self.CFG)
        taken = len(run_smart_city(cfg).latency)
        assert 0 < taken < simulator._DRAW_CHUNK - 1
        self._zero_at(monkeypatch, taken)
        report = run_smart_city(cfg)
        assert (_columns(report), report.drops) == _old_run_smart_city(cfg)
        self._zero_at(monkeypatch, taken - 1)
        with pytest.raises(DomainError):
            run_smart_city(cfg)
        with pytest.raises(DomainError):
            _old_run_smart_city(cfg)
