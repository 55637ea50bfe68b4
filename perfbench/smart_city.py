"""smart-city: the latency simulator at the acceptance configuration
(500 nodes, 300 simulated seconds), seeded from the run's seed.

Set-up warms the simulator with a small run in each mode. The block then
runs three stages:

1. ``run_smart_city`` in d2d mode;
2. ``run_smart_city`` in cloud mode;
3. ``SimReport.to_csv`` plus ``summarize`` for each mode.

Both modes share mobility and the gateway lookup, so their sample counts
must agree; d2d latencies take exactly two values; the cloud/d2d mean
ratio must be at least 100; and every block of a run must reproduce the
first block's counts and CSV bytes (the runner compares fingerprints).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from types import SimpleNamespace

from iotpki import simulator

from common import BlockResult, Stage
from tracer import durations_ms

NAME = "smart-city"
NODES = 500
DURATION_S = 300.0
WARMUP_NODES = 100
WARMUP_DURATION_S = 60.0
MIN_RATIO = 100.0
MIN_BLOCKS = 1

NAMED_UNITS = {
    "sim_d2d_samples_per_s": "samples/s",
    "sim_cloud_samples_per_s": "samples/s",
    "sim_report_s": "s",
}


def named(pooled: dict[str, list[float]]) -> dict[str, float]:
    samples = statistics.median(pooled["samples"])
    return {
        "sim_d2d_samples_per_s": samples / statistics.median(pooled["d2d_s"]),
        "sim_cloud_samples_per_s": samples / statistics.median(pooled["cloud_s"]),
        "sim_report_s": statistics.median(pooled["report_s"]),
    }


def setup(rng, ledger, first_block: bool) -> SimpleNamespace:
    st = SimpleNamespace()
    st.addresses = []
    st.seed = rng.getrandbits(32)
    st.configs = {
        mode: simulator.SimConfig(
            num_mobile_nodes=NODES, duration=DURATION_S, mode=mode, seed=st.seed
        )
        for mode in ("d2d", "cloud")
    }
    for mode in ("d2d", "cloud"):
        report = simulator.run_smart_city(
            simulator.SimConfig(
                num_mobile_nodes=WARMUP_NODES, duration=WARMUP_DURATION_S, mode=mode, seed=st.seed
            )
        )
        report.to_csv()
        ledger.op(bool(report.samples), f"warm-up {mode} run produced no samples")
        simulator.summarize(report.latencies())
    return st


def teardown(st: SimpleNamespace) -> None:
    pass


def install(tracer) -> None:
    tracer.patch(simulator, "run_smart_city", lambda cfg: f"simulator.run.{cfg.mode}")
    tracer.patch(simulator.SimReport, "to_csv", "simulator.to_csv")
    tracer.patch(simulator, "summarize", "simulator.summarize")


def run(st: SimpleNamespace, ledger, tracer, outdir) -> BlockResult:
    with Stage(tracer, "p1") as s1, s1.call():
        d2d = simulator.run_smart_city(st.configs["d2d"])
    with Stage(tracer, "p2") as s2, s2.call():
        cloud = simulator.run_smart_city(st.configs["cloud"])
    csvs, summaries = {}, {}
    with Stage(tracer, "p3") as s3, s3.call():
        for mode, report in (("d2d", d2d), ("cloud", cloud)):
            csvs[mode] = report.to_csv()
            summaries[mode] = simulator.summarize(report.latencies())

    samples = len(d2d.samples)
    cfg = st.configs["d2d"]
    link_s = cfg.d2d_link_latency_ms / 1000.0
    handshake_s = cfg.handshake_cost_ms / 1000.0
    expected_d2d = {link_s, link_s + handshake_s / cfg.burst_size}
    fingerprint = {
        "samples": samples,
        "drops": d2d.drops + cloud.drops,
        "csv_sha256": {m: hashlib.sha256(c.encode()).hexdigest() for m, c in csvs.items()},
    }
    ratio = summaries["cloud"].mean / summaries["d2d"].mean
    ledger.op(samples > 0, "d2d run produced no samples")
    ledger.op(len(cloud.samples) == samples, f"cloud has {len(cloud.samples)} samples, d2d {samples}")
    ledger.op(d2d.drops == 0 and cloud.drops == 0, "uncapped runs dropped messages")
    ledger.op(set(d2d.latencies()) == expected_d2d, "d2d latencies are not exactly the two expected values")
    ledger.op(ratio >= MIN_RATIO, f"cloud/d2d mean ratio {ratio:.1f} < {MIN_RATIO}")
    for mode in ("d2d", "cloud"):
        rows = csvs[mode].count("\n") - 1
        ledger.op(rows == samples and summaries[mode].count == samples, f"{mode} report counts disagree")
    (outdir / "smart-city-summary.json").write_text(
        json.dumps(
            {m: {k: v for k, v in vars(s).items() if k != "histogram_csv"} for m, s in summaries.items()}
            | {"ratio_cloud_over_d2d": ratio, "seed": st.seed, **fingerprint},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    for mode, summary in summaries.items():
        (outdir / f"smart-city-{mode}-hist.csv").write_text(summary.histogram_csv)

    return BlockResult(
        samples={"d2d_s": s1.raw, "cloud_s": s2.raw, "report_s": s3.raw, "samples": [samples]},
        stages=(s1, s2, s3),
        layer={
            "simulator.samples": samples,
            "simulator.drops": d2d.drops + cloud.drops,
            "process.cpu_util.stage1": s1.cpu_util,
            "process.cpu_util.stage2": s2.cpu_util,
            "process.cpu_util.stage3": s3.cpu_util,
        },
        fingerprint=fingerprint,
    )


def per_layer(tracer, selfs, traced_blocks: int) -> dict[str, float]:
    spans = tracer.spans
    per_block = 1000.0 * traced_blocks
    return {
        "simulator.run_s.d2d": sum(durations_ms(spans, "simulator.run.d2d")) / per_block,
        "simulator.run_s.cloud": sum(durations_ms(spans, "simulator.run.cloud")) / per_block,
        "simulator.to_csv_s": sum(durations_ms(spans, "simulator.to_csv", ("p3",))) / per_block,
        "simulator.summarize_s": sum(durations_ms(spans, "simulator.summarize", ("p3",))) / per_block,
    }
