"""Weibull sampling oracles and smart-city simulation properties."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from iotpki.simulator import (
    DomainError,
    EmptyInput,
    InvalidConfig,
    LatencySample,
    SimConfig,
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

    def test_negative_latency_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencySample(0, 0, 1.0, -0.5, "d2d")

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
