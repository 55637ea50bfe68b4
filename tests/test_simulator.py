"""Weibull sampling oracles and smart-city simulation properties."""

from __future__ import annotations

import hashlib
import heapq
import io
import math
import random
import statistics
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotpki import simulator
from iotpki.simulator import (
    GATEWAYS,
    GRID_SIZE,
    HISTOGRAM_BINS,
    DomainError,
    EmptyInput,
    InvalidConfig,
    SimConfig,
    SimReport,
    Summary,
    WeibullParams,
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

    @pytest.mark.parametrize(
        "kwargs",
        [{"beta": 0.001}, {"beta": 1e-300}, {"lam": 1e308}],
        ids=["beta-0.001", "beta-1e-300", "lam-1e308"],
    )
    def test_overflowing_draws_rejected(self, kwargs):
        # Finite parameters whose largest draw overflows: in the power
        # (OverflowError) for a small beta, in the product (inf) for a large lam.
        with pytest.raises(InvalidConfig, match="overflow"):
            WeibullParams(**kwargs)

    def test_largest_draw_at_the_largest_u(self):
        # The defaults' largest draw is lam * (53 ln 2)^2, about 8597 s; a
        # draw near the float range is still accepted.
        assert sample_weibull(P, 1.0 - 2.0**-53) == pytest.approx(6.37 * (53 * math.log(2)) ** 2)
        assert sample_weibull(WeibullParams(beta=1.0, lam=4.893e306), 1.0 - 2.0**-53) < math.inf


def statistics_mean(xs):
    return sum(xs) / len(xs)


class TestConfigValidation:
    def test_default_config_valid(self):
        cfg = SimConfig()
        assert cfg.num_mobile_nodes == 500

    def test_settable_fields(self):
        # The scenario's geometry is fixed; these are what a caller sets.
        assert list(SimConfig.__dataclass_fields__) == [
            "num_mobile_nodes", "gateway_range", "poll_interval", "burst_size", "mode",
            "d2d_link_latency_ms", "handshake_cost_ms", "cloud", "cloud_connection_cap",
            "seed", "duration",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "carrier-pigeon"},
            {"mode": "both"},  # the CLI runs "both" as one config per mode
            {"num_mobile_nodes": 0},
            {"gateway_range": 0.0},
            {"gateway_range": -100.0},
            {"poll_interval": 0.0},
            {"burst_size": 0},
            {"duration": -5.0},
            {"duration": 0.0},
            {"d2d_link_latency_ms": -1.0},
            {"handshake_cost_ms": -1.0},
            {"cloud_connection_cap": -1},
            # Each finite, but the link latency plus the largest draw is inf.
            {"d2d_link_latency_ms": 1e308, "cloud": WeibullParams(beta=1.0, lam=4.893e306)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # One poll, but SPEED_MAX * duration overflows to inf.
            ({"duration": 1e308, "poll_interval": 1e308}, "grid lengths"),
            # t += poll_interval stops advancing long before 1e17 polls.
            ({"num_mobile_nodes": 1, "poll_interval": 1e-3, "duration": 1e14}, "polls"),
            ({"poll_interval": 1e-300, "duration": 1e10}, "polls"),
        ],
        ids=["walk-overflow", "stalled-clock", "ticks-overflow"],
    )
    def test_runs_that_cannot_end_rejected(self, kwargs, match):
        with pytest.raises(InvalidConfig, match=match):
            SimConfig(**kwargs)

    def test_configs_at_the_work_bounds_accepted(self):
        # The defaults (151 polls, 15 grid lengths), and both bounds at once:
        # 2**32 polls and 25 * 20 * 2**20 / 500 = 2**20 grid lengths.
        SimConfig()
        at_bounds = dict(duration=20.0 * 2**20, poll_interval=20.0 / 2**12)
        SimConfig(**at_bounds)
        # One step past either bound is rejected.
        with pytest.raises(InvalidConfig, match="grid lengths"):
            SimConfig(duration=math.nextafter(20.0 * 2**20, math.inf), poll_interval=1.0)
        with pytest.raises(InvalidConfig, match="polls"):
            SimConfig(**at_bounds | {"poll_interval": math.nextafter(20.0 / 2**12, 0.0)})

    FLOAT_FIELDS = [
        "gateway_range", "poll_interval", "d2d_link_latency_ms", "handshake_cost_ms", "duration",
    ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_fields_rejected(self, name, value):
        # duration=inf would never end a run; a NaN gateway_range would
        # count every poll as a contact.
        with pytest.raises(InvalidConfig, match=name):
            SimConfig(**{name: value})

    def test_float_fields_listed(self):
        floats = {name for name, f in SimConfig.__dataclass_fields__.items() if f.type == "float"}
        assert floats == set(self.FLOAT_FIELDS)

    def test_star_layout(self):
        assert GATEWAYS == (
            (250.0, 250.0),
            (400.0, 250.0),
            (100.0, 250.0),
            (250.0, 400.0),
            (250.0, 100.0),
        )


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
        key = lambda r: (r.node, r.gateway, r.send_time, r.sent)
        assert key(d2d) == key(cloud)

    def test_d2d_latencies_are_two_constants(self):
        report = run_smart_city(SimConfig(mode="d2d", **SMALL))
        assert report.samples
        values = {round(x, 9) for x in report.samples}
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
        assert report.samples == array("d") and report.node == array("l")

    def test_sample_fields_sane(self):
        cfg = SimConfig(mode="cloud", **SMALL)
        report = run_smart_city(cfg)
        assert report.samples
        for node, gateway, t, sent in zip(report.node, report.gateway, report.send_time, report.sent):
            assert 0 <= node < cfg.num_mobile_nodes
            assert 0 <= gateway < len(GATEWAYS)
            assert 0.0 <= t <= cfg.duration
            assert sent == cfg.burst_size
        assert len(report.samples) == sum(report.sent)
        assert all(0.017 <= x < math.inf for x in report.samples)

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
# the event-queue simulator that the tick loop replaced; d2d-burst1-poll1.7
# from the tick loop with the star's five gateways.
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
    "d2d-burst1-poll1.7": (
        dict(
            mode="d2d", num_mobile_nodes=15, duration=40.0, seed=3, burst_size=1,
            poll_interval=1.7, gateway_range=150.0,
        ),
        "8c5e8afd199c7285e3641b63b19dee595e47c2386ca8993561202d8d64b18c59",
        0,
        "b8432ece1305eb114f85c1ac94f9dc83ec9697a3eb791fff027a221fec7687d2",
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
        assert len(report.samples) == rows == sum(report.sent) == 5


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

    @pytest.mark.parametrize(
        "xs, median",
        [
            ([1.7e308, 1.7e308], 1.7e308),
            ([1.0, 1.7976931348623157e308, 1.7976931348623157e308], 1.7976931348623157e308),
            ([1.0, 1.7976931348623157e308] * 2, 1.7976931348623157e308 / 2 + 0.5),
            ([2.0**1023, 1.5 * 2.0**1023], 1.25 * 2.0**1023),
        ],
        ids=["equal-pair", "odd-count", "small-and-largest", "unequal-pair"],
    )
    def test_median_of_pair_past_float_range_is_finite(self, xs, median):
        assert summarize(xs).median == median

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
        median=_old_median(xs),
        p95=p95,
        max=top,
        histogram_csv="\n".join(lines) + "\n",
    )


def _old_median(xs):
    """``statistics.median``, except where the middle pair's float sum
    overflows: there the exact midpoint, rounded once."""
    median = statistics.median(xs)
    if median == math.inf:
        a, b = xs[len(xs) // 2 - 1], xs[len(xs) // 2]
        median = float((Fraction(a) + Fraction(b)) / 2)
    return median


def _old_to_csv(report):
    """The str.format renderer that the one-%-per-contact version replaced."""
    mode = report.config.mode
    rows = ["mode,node,gateway,t_send,latency_s\n"]
    start = 0
    for node, gateway, t, sent in zip(report.node, report.gateway, report.send_time, report.sent):
        end = start + sent
        row = f"{mode},{node},{gateway},{t:.3f},{{:.6f}}\n"
        rows.append((row * sent).format(*report.samples[start:end]))
        start = end
    return "".join(rows)


SUBNORMALS = [5e-324, 1e-323, 2.5e-310, 2.2250738585072014e-308 / 2]
LATENCIES = st.one_of(
    st.floats(min_value=0.0, max_value=400.0),
    st.sampled_from([0.0, -0.0, 0.017, 0.022, *SUBNORMALS]),
    st.floats(min_value=1e299, max_value=1e301),
    # Two of these sum past the float range, though their mean is finite.
    st.floats(min_value=1.6e308, max_value=1.7976931348623157e308),
    # Magnitudes far apart, whose exact sum takes three or more fsum passes.
    st.sampled_from([1e16, 1.0, 1e-16, 2.0**-80, 2.0**80]),
)


# Send times repeat within a tick; a zero send time may carry either sign.
TICKS = st.sampled_from([0.0, -0.0, 0.2, 1.0005, 300.0])
BURST_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.017, 0.022, 1e300, 1.7e308, *SUBNORMALS]),
    st.floats(min_value=0.0, max_value=400.0),
)
# A burst of one value, as a d2d contact sends, or of any values.
BURSTS = st.one_of(
    st.builds(lambda x, n: [x] * n, BURST_VALUES, st.integers(0, 6)),
    st.lists(BURST_VALUES, max_size=6),
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
    @example([5e-324, 1e300])  # a subnormal beside a large value
    @example([5e-324, 5e-324])  # the median halves the sum, not each half
    @example([0.0, 0.55, 1.1, 1.1 * 19 / 20])
    @example([-0.0, -0.0])  # an all-zero mean is 0.0, whatever the signs
    @example([1.7e308, 1.7e308])  # fsum overflows: the statistics.mean fallback
    @example([1e16, 1.0, 1e-16])  # the exact sum is an expansion of three floats
    def test_summarize_matches_per_element_oracle(self, xs):
        assert repr(simulator._exact_mean(sorted(xs))) == repr(statistics.mean(xs))
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

    @settings(deadline=None)
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

    # A run writes no -0.0 and no latency past 1e3, so these reports are
    # built by hand: (send time, burst) per contact.
    @settings(deadline=None)
    @given(st.lists(st.tuples(TICKS, BURSTS), max_size=12), st.sampled_from(["d2d", "cloud"]))
    @example([(0.0, [0.0] * 3), (0.0, [-0.0] * 3), (0.0, [0.0, -0.0])], "d2d")
    @example([(2.0, [0.017] * 4), (2.0, [0.017, 0.022, 0.017]), (2.0, [0.022] * 4)], "d2d")
    @example([(0.0, []), (0.2, [0.5]), (0.2, []), (0.4, [1.0, 1.0]), (0.4, [3.0, 4.0])], "cloud")
    @example([(-0.0, [5e-324] * 3), (0.0, [1.7e308] * 2), (0.0, [2.5e-310, 2.5e-310])], "cloud")
    def test_hand_built_reports_match_format_oracle(self, contacts, mode):
        report = SimReport(
            config=SimConfig(mode=mode),
            drops=0,
            node=array("l", range(len(contacts))),
            gateway=array("l", [i % 5 for i in range(len(contacts))]),
            send_time=array("d", [t for t, _ in contacts]),
            sent=array("l", [len(burst) for _, burst in contacts]),
            samples=array("d", [x for _, burst in contacts for x in burst]),
        )
        fp = io.StringIO()
        report.write_csv(fp)
        assert report.to_csv() == fp.getvalue() == _old_to_csv(report)

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
    """The tick loop that the batched draws replaced, kept as an oracle:
    a list of math.dist calls per poll, read with min and index, and one
    Weibull sample per cloud message. Returns the report columns."""
    nodes = [simulator._Node(simulator._stream(cfg.seed, f"mobility|{i}"))
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
            ds = [math.dist(pos, g) for g in GATEWAYS]
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
    """The report's columns under the oracle's names."""
    columns = {name: getattr(report, name).tolist() for name in ("node", "gateway", "send_time", "sent")}
    return columns | {"latency": report.samples.tolist()}


GATEWAY_RANGES = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-9, 0.5]),
    st.floats(0.5, 1000.0),
    st.floats(1000.0, 1e6),  # larger than the grid
)


class TestRunOracle:
    """run_smart_city against the per-poll loop it replaced, column by column."""

    @settings(deadline=None, max_examples=60)
    @given(
        mode=st.sampled_from(["d2d", "cloud"]),
        nodes=st.integers(1, 12),
        reach=GATEWAY_RANGES,
        duration=st.floats(0.5, 30.0),
        poll=st.floats(0.1, 5.0),
        burst=st.integers(1, 8),
        cap=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @example(mode="cloud", nodes=12, reach=100.0, duration=30.0, poll=0.3, burst=8, cap=0, seed=1)
    @example(mode="cloud", nodes=12, reach=100.0, duration=30.0, poll=0.3, burst=8, cap=2, seed=1)
    @example(mode="d2d", nodes=12, reach=5e-324, duration=30.0, poll=0.3, burst=1, cap=0, seed=1)
    @example(mode="d2d", nodes=12, reach=1e6, duration=30.0, poll=0.3, burst=1, cap=0, seed=1)
    def test_matches_per_poll_oracle(self, mode, nodes, reach, duration, poll, burst, cap, seed):
        cfg = SimConfig(
            mode=mode, num_mobile_nodes=nodes, gateway_range=reach, duration=duration,
            poll_interval=poll, burst_size=burst, cloud_connection_cap=cap, seed=seed,
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
        def __init__(self, rng):
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
    """The nearest-gateway scan against brute force at its edges: points
    exactly at gateway_range, on a grid of side gateway_range / 2 around
    each gateway, and ties."""

    @pytest.mark.parametrize("reach", [100.0, 150.0, 37.5, 0.1, 1e-9, 5e-324, 1e6])
    def test_cell_edges_and_range_boundary(self, monkeypatch, reach):
        size = reach / 2.0
        points = []
        for gx, gy in GATEWAYS:
            # Exactly at the range, along the axes and on a 3-4-5 diagonal.
            for dx, dy in [(reach, 0.0), (-reach, 0.0), (0.0, reach), (0.0, -reach),
                           (0.6 * reach, 0.8 * reach), (-0.8 * reach, 0.6 * reach)]:
                points.append((gx + dx, gy + dy))
            # On a grid of side reach / 2 in and around the gateway's reach box.
            for k in range(-4, 5):
                edge = (math.floor(gx / size) + k) * size if size else gx
                points += [(edge, gy), (gx, edge), (edge, edge)]
            points += [(gx, gy), (math.nextafter(gx + reach, math.inf), gy)]
        points = [(x, y) for x, y in points if 0.0 <= x <= GRID_SIZE and 0.0 <= y <= GRID_SIZE]
        expected = [_brute_force(p, GATEWAYS, reach) for p in points]
        assert _lookup(monkeypatch, points, gateway_range=reach) == expected
        if reach <= 150.0:
            assert None in expected and any(e is not None for e in expected)

    def test_exactly_at_range_is_a_contact(self, monkeypatch):
        # Exactly 100 m from the west (2), north (3) and east (1) gateways,
        # and farther from every other; then just past the east one's range.
        points = [(100.0 - 60.0, 250.0 + 80.0), (250.0, 400.0 + 100.0), (500.0, 250.0),
                  (math.nextafter(500.0, math.inf), 250.0)]
        found = _lookup(monkeypatch, points, gateway_range=100.0)
        assert found == [2, 3, 1, None]

    def test_tie_goes_to_lowest_index(self, monkeypatch):
        # Halfway between the center (0) and the east gateway (1); as far
        # from the east (1) as from the north (3); as far from the center
        # as from the east and north.
        points = [(325.0, 250.0), (400.0, 400.0), (325.0, 325.0)]
        found = _lookup(monkeypatch, points, gateway_range=150.0)
        assert found == [_brute_force(p, GATEWAYS, 150.0) for p in points]
        assert found == [0, 1, 0]


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
        taken = len(run_smart_city(cfg).samples)
        assert 0 < taken < simulator._DRAW_CHUNK - 1
        self._zero_at(monkeypatch, taken)
        report = run_smart_city(cfg)
        assert (_columns(report), report.drops) == _old_run_smart_city(cfg)
        self._zero_at(monkeypatch, taken - 1)
        with pytest.raises(DomainError):
            run_smart_city(cfg)
        with pytest.raises(DomainError):
            _old_run_smart_city(cfg)
