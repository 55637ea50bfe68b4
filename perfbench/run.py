"""Benchmark runner for iotpki.

    python3 perfbench/run.py --workload provision --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``, one child process each) against the
program in ``src/`` of the checkout this file sits in. A run repeats the
workload's block (fresh set-up, then three timed stages) until
``--seconds`` would be exceeded, at least once, checks every output, and
prints the workload's own figures by name followed, as the last line, by
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json,
medians over the run's blocks. With ``--trace 1`` blocks alternate
untraced and traced; the metrics are the per-layer ones, taken from the
traced blocks, and ``trace.overhead_s.*`` is traced minus untraced stage
time. Outputs (results, spans, artifacts) go to ``.perfbench_out/``.

Exit codes: 0 all checks held; 1 a check failed; 2 no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import ssl
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench_out"
WORKLOADS = ("provision", "relying-party", "smart-city")
STAGES = ("stage1_ref", "stage2_ref", "stage3_ref")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's ``src/`` first on the path and import the
    workloads, or return None when there is no program to measure."""
    src = ROOT / "src"
    if not (src / "iotpki" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import iotpki

    if Path(iotpki.__file__).resolve().parent != (src / "iotpki").resolve():
        return None
    import provision
    import relying_party
    import smart_city

    return {m.NAME: m for m in (provision, relying_party, smart_city)}


def environment() -> dict:
    import cryptography

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": ssl.OPENSSL_VERSION,
    }


def run_blocks(wl, args, ledger, tracer, outdir):
    """Repeat set-up plus block until the next block would overrun
    ``--seconds``, but run at least the workload's MIN_BLOCKS (two with
    tracing, which alternates untraced and traced blocks)."""
    blocks = []
    addresses = set()
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(blocks) % 2 == 1
        rng = random.Random(f"{args.seed}|{wl.NAME}")
        setup_start = time.perf_counter()
        state = wl.setup(rng, ledger, first_block=not blocks)
        setup_s = time.perf_counter() - setup_start
        addresses.update(state.addresses)
        try:
            if traced:
                wl.install(tracer)
            result = wl.run(state, ledger, tracer if traced else None, outdir)
        finally:
            if traced:
                tracer.close()
            wl.teardown(state)
        # Free the block's cycles before the next set-up, so the peak
        # resident set does not depend on how many blocks a run holds.
        del state
        gc.collect()
        blocks.append((traced, setup_s + result.setup_extra_s, result))
        elapsed = time.perf_counter() - started
        fewest = max(wl.MIN_BLOCKS, 2 if tracer is not None else 1)
        if len(blocks) >= fewest and elapsed * (len(blocks) + 1) / len(blocks) > args.seconds:
            return blocks, addresses


def median_of(values):
    return statistics.median(values) if values else 0.0


def pool(results) -> dict[str, list[float]]:
    pooled: dict[str, list[float]] = {}
    for r in results:
        for name, values in r.samples.items():
            pooled.setdefault(name, []).extend(values)
    return pooled


def stage_medians(results) -> dict[str, float]:
    """Each stage's figure: the median over the run of one stage call, in
    reference-loop units (see ``common.Stage``)."""
    return {
        stage: median_of([v for r in results for v in r.stages[i].ref])
        for i, stage in enumerate(STAGES)
    }


def trace_metrics(wl, tracer, traced, untraced, client_thread) -> tuple[dict, dict]:
    import tracer as tr

    # Only a workload whose requests come from one client thread at a
    # time can hang server-thread spans under client spans.
    attribute = getattr(wl, "attribute", None)
    attributed = attribute(tracer, client_thread) if attribute else 0
    selfs, errors = tr.self_times(tracer.spans)
    layer = {}
    for name in {k for b in traced for k in b.layer}:
        layer[name] = median_of([b.layer[name] for b in traced if name in b.layer])
    layer.update(wl.per_layer(tracer, selfs, len(traced)))
    with_trace, without = stage_medians(traced), stage_medians(untraced)
    for stage in STAGES:
        layer[f"trace.overhead_ref.{stage.split('_')[0]}"] = with_trace[stage] - without[stage]
    layer["trace.spans"] = len(tracer.spans) / len(traced)
    layer["trace.attributed"] = attributed / len(traced)
    layer["trace.accounting_errors"] = errors
    table = tr.span_table(tracer.spans, selfs)
    return layer, table


def write_spans(path: Path, tracer, table) -> None:
    import tracer as tr

    threads = {}
    with path.open("w") as fh:
        json.dump({"missing_hooks": tracer.missing, "spans_by_phase_and_name": table}, fh, indent=1)
        fh.write("\n")
        for s in tracer.spans:
            thread = threads.setdefault(s[tr.THREAD], len(threads))
            fh.write(json.dumps({
                "id": s[tr.SID], "parent": s[tr.PARENT], "request": s[tr.REQ],
                "name": s[tr.NAME], "start_ns": s[tr.START], "end_ns": s[tr.END],
                "thread": thread, "phase": s[tr.PHASE],
            }) + "\n")


def run_workload(wl, args, spec) -> int:
    from common import Ledger, has_key_block
    from tracer import Tracer

    outdir = ROOT / OUT_DIR
    outdir.mkdir(exist_ok=True)
    run_started = time.time()
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    blocks, addresses = run_blocks(wl, args, ledger, tracer, outdir)
    ledger.op(addresses <= {"127.0.0.1"}, f"traffic left loopback: {sorted(addresses)}")
    fingerprints = [r.fingerprint for _, _, r in blocks]
    ledger.op(all(f == fingerprints[0] for f in fingerprints), "blocks of one run disagree on output")

    untraced = [r for traced, _, r in blocks if not traced]
    traced = [r for is_traced, _, r in blocks if is_traced]
    named = wl.named(pool(untraced))
    e2e = stage_medians(untraced)
    e2e["setup_s"] = median_of([setup_s for _, setup_s, _ in blocks])
    e2e["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stem = f"{wl.NAME}-seed{args.seed}-trace{args.trace}"
    layer = {}
    if tracer is not None:
        layer, table = trace_metrics(wl, tracer, traced, untraced, threading.get_ident())
        write_spans(outdir / f"{stem}.spans.jsonl", tracer, table)
        ledger.op(layer["trace.accounting_errors"] == 0, "span self time plus children != duration")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = layer if args.trace else e2e
    # A per-layer metric the workload never exercises reads 0 there.
    metrics = {m["name"]: {"value": produced.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    unknown = sorted(set(layer) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")

    results_path = outdir / f"{stem}.json"
    for path in outdir.iterdir():
        if path.stat().st_mtime >= run_started:
            ledger.op(not has_key_block(path.read_bytes()), f"{path.name} holds a PRIVATE KEY block")
    env = environment() | {"loopback_only": addresses <= {"127.0.0.1"}}
    summary = {
        "workload": wl.NAME, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blocks": [
            {"traced": is_traced, "setup_s": setup_s,
             "medians": {k: median_of(v) for k, v in r.samples.items()},
             "stage_ref_medians": [median_of(stage.ref) for stage in r.stages]}
            for is_traced, setup_s, r in blocks
        ],
        "environment": env,
        "named": named, "end_to_end": e2e, "per_layer": layer, "samples": pool(untraced),
        "attempted": ledger.attempted, "failed": ledger.failed, "problems": ledger.problems,
    }
    results_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    ledger.op(not has_key_block(results_path.read_bytes()), "results hold a PRIVATE KEY block")

    print(f"perfbench {wl.NAME} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"blocks={len(blocks)} traced_blocks={len(traced)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in wl.NAMED_UNITS.items():
        print(f"  {name:<28} {named[name]:>14.4f} {unit}")
    error_rate = ledger.failed / ledger.attempted
    print(f"  {'setup_s':<28} {e2e['setup_s']:>14.4f} s")
    print(f"  {'rss_peak_mb':<28} {e2e['rss_peak_mb']:>14.1f} MB")
    print(f"  {'error_rate':<28} {error_rate:>14.6f} ratio ({ledger.failed} of {ledger.attempted})")
    for problem in ledger.problems:
        print(f"  problem: {problem}")
    if tracer is not None:
        for name, value in sorted(layer.items()):
            print(f"  {name:<40} {value:>14.4f}")
        if tracer.missing:
            print(f"  hooks not found: {', '.join(tracer.missing)}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    workloads = load_program()
    if workloads is None:
        print(f"error: no iotpki sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    return run_workload(workloads[args.workload], args, spec)


if __name__ == "__main__":
    sys.exit(main())
