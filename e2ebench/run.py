#!/usr/bin/env python3
"""End-to-end benchmark of the certify, campaign and service paths.

Run one workload in this process, from the root of a checkout::

    python3 e2ebench/run.py --workload certify-full --seed 1 --seconds 30 --trace 0

Workloads: ``certify-full``, ``campaign-fig45``, ``service-mixed`` (see
README.md).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is the separate traced run that reports per-layer figures.  Lines before
the last one are diagnostics (``COUNTERS`` carries the exact counters);
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` declares.
The exit code is 0 when a result was printed, 2 when the program under
test is missing or fails to import, 3 when the measured metrics are not
the declared ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-full", "campaign-fig45", "service-mixed")
#: fresh processes timed from spawn to the end of set-up; median reported
SETUP_PROBES = 7
READY = "E2EBENCH-READY"
#: environment knobs of the program that would change what is measured
PROGRAM_ENV = ("REPRO_SIM_BACKEND", "REPRO_CHAOS", "REPRO_KERNEL_METRICS")

#: self-time layers recorded by e2ebench.layers, reported per operation
TIMED_LAYERS = (
    "simulator.build", "simulator.io", "kernel.clean", "kernel.faulty",
    "design.run", "design.build", "rng", "injector", "classify", "campaign",
    "executor", "checkpoint", "certify.lint", "certify.enumerate",
    "certify.task", "certify.assemble", "certificate.save",
    "certificate.load", "attacks", "protocol.request_key", "protocol.digest",
    "store.get", "store.put",
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print a ready line and exit (times set-up from outside)",
    )
    return parser.parse_args(argv)


def metric_name(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.s"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: spawn to the ready line."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ]
        t0 = time.perf_counter()
        with subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = ""
            for line in proc.stdout:
                if line.strip() == READY:
                    samples.append(time.perf_counter() - t0)
                    break
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != READY:
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def pin_one_cpu() -> None:
    """Keep this process, its threads and its set-up probes on one CPU.

    Unpinned, the service's threads hand the interpreter lock across
    CPUs, and the cost of each handoff follows the host's load, not the
    program (README, *Noise*).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sum_counters(items) -> dict[str, int]:
    total: dict[str, int] = {}
    for counters in items:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return total


def ratios(counters: dict[str, int], locations: int, requests: int) -> dict:
    """The exact per-unit counters every run prints."""

    def per(n, d):
        return n / d if d else 0.0

    return {
        "simulator.builds_per_location": per(counters["simulator.builds"], locations),
        "design.clean_runs_per_location": per(counters["design.clean_runs"], locations),
        "kernel.lane_cycles": per(counters["kernel.lane_cycles"], locations),
        "kernel.lanes_per_call": per(counters["kernel.lane_cycles"], counters["kernel.calls"]),
        "executor.shards": per(counters["executor.shards"], requests),
        "executor.retries": per(counters["executor.retries"], requests),
        "protocol.digests_per_request": per(counters["protocol.digests"], requests),
        "store.gets": per(counters["store.gets"], requests),
        "store.hits": per(counters["store.hits"], requests),
        "store.puts": per(counters["store.puts"], requests),
    }


def layer_metrics(tracer, n_ops: int, lane_cycles: int) -> dict[str, float]:
    out = {}
    for layer in TIMED_LAYERS:
        out[metric_name(layer)] = tracer.self_s.get(layer, 0.0) / n_ops
    kernel_s = tracer.self_s.get("kernel.clean", 0.0) + tracer.self_s.get(
        "kernel.faulty", 0.0
    )
    out["kernel.lane_cycles_per_s"] = lane_cycles / kernel_s if kernel_s else 0.0
    return out


def print_layers(tracer, extra: list[tuple[str, float, int]], total: float) -> None:
    """The traced run's attribution table: self time, calls, share."""
    rows = [
        (layer, tracer.self_s.get(layer, 0.0), tracer.calls.get(layer, 0))
        for layer in TIMED_LAYERS
    ] + extra
    for name, seconds, calls in rows:
        print(f"LAYER {name:22s} {seconds:11.4f} s {calls:9d} calls "
              f"{100 * seconds / total:7.2f}%")
    print(f"LAYER {'total':22s} {sum(r[1] for r in rows):11.4f} s "
          f"{'':15s} of {total:.4f} s")


def sequential_result(args, tracer, result, setup_samples):
    ops = result["ops"]
    done = [op for op in ops if op["error"] is None]
    counters = sum_counters(op["counters"] for op in ops)
    exact = ratios(counters, sum(op["locations"] for op in ops), len(ops))
    rounds = [op["counters"] for op in ops if not op["traced"]]
    print("COUNTERS " + json.dumps({"ratios": exact, "rounds": rounds}, sort_keys=True))
    if not args.trace:
        wall = sum(op["latency"] for op in ops)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "locations_per_s": sum(op["locations"] for op in done) / wall,
            "runs_per_s": sum(op["runs"] for op in done) / wall,
            "requests_per_s": len(done) / wall,
            "latency_p50_s": statistics.median(op["latency"] for op in done),
        }
        return len(ops), len(ops) - len(done), metrics
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)
    traced_wall = sum(op["latency"] for op in traced)
    lane_cycles = sum(op["counters"]["kernel.lane_cycles"] for op in traced)
    metrics = layer_metrics(tracer, n, lane_cycles)
    metrics.update(exact)
    unattributed = tracer.self_s.get("unattributed", 0.0)
    print_layers(
        tracer, [("unattributed", unattributed, n)], traced_wall
    )
    metrics.update({
        "service.handle_s": 0.0,
        "service.queue_wait_s": 0.0,
        "service.transport_s": 0.0,
        "unattributed_s": unattributed / n,
        "unattributed_pct": 100.0 * unattributed / traced_wall,
        "tracing_overhead_s": (
            traced_wall - sum(op["latency"] for op in untraced)
        ) / n,
    })
    return len(ops), len(ops) - len(done), metrics


def service_result(args, tracer, workload, result, setup_samples):
    records = result["records"]
    done = [r for r in records if r["status"] == 200]
    colds = [r for r in done if r["cold"]]
    locations = sum(
        r["coverage"]["locations_covered"] for r in colds
    )
    runs = sum(r["coverage"]["runs_executed"] for r in colds)
    counters = dict(tracer.snapshot())
    exact = ratios(counters, locations, len(records))
    print("COUNTERS " + json.dumps({"ratios": exact, "rounds": []}, sort_keys=True))
    if not args.trace:
        wall = result["wall"]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "locations_per_s": locations / wall,
            "runs_per_s": runs / wall,
            "requests_per_s": len(done) / wall,
            "latency_p50_s": statistics.median(r["latency"] for r in done),
        }
        return len(records), len(records) - len(done), metrics
    # Per-request accounting of traced rounds: the client sees
    # latency = transport + handle_request; a cold request's handle time
    # splits into request key + store get + queue wait + certify + put.
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    contexts = tracer.requests
    handle = sum(ctx["elapsed"] for ctx in contexts)
    by_rid = {ctx.get("request_id"): ctx for ctx in contexts}
    key_s = sum(ctx.get("protocol.request_key", 0.0) for ctx in contexts)
    get_s = sum(ctx.get("store.get", 0.0) for ctx in contexts)
    queue_wait = certify_s = 0.0
    for rid, start, elapsed in workload.certify_spans:
        ctx = by_rid.get(rid)
        if ctx is not None:
            queue_wait += (
                start - ctx["start"] - ctx.get("protocol.request_key", 0.0)
                - ctx.get("store.get", 0.0)
            )
        certify_s += elapsed
    put_s = tracer.self_s.get("store.put", 0.0) + tracer.self_s.get(
        "certificate.save", 0.0
    )
    latency = sum(r["latency"] for r in traced)
    unattributed = handle - key_s - get_s - queue_wait - certify_s - put_s
    print_layers(
        tracer,
        [
            ("service.queue_wait", queue_wait, len(workload.certify_spans)),
            ("service.transport", latency - handle, n),
            ("unattributed", unattributed, n),
        ],
        latency,
    )
    walls = result["round_walls"]
    traced_rounds = [w for t, w, _ in walls if t]
    untraced_rounds = [w for t, w, _ in walls if not t]
    per_round = n / len(traced_rounds) if traced_rounds else 1
    overhead = (
        statistics.mean(traced_rounds) - statistics.mean(untraced_rounds)
    ) / per_round if traced_rounds and untraced_rounds else 0.0
    lane_cycles = sum(c["kernel.lane_cycles"] for t, _, c in walls if t)
    metrics = layer_metrics(tracer, n, lane_cycles)
    metrics.update(exact)
    metrics.update({
        "service.handle_s": handle / n,
        "service.queue_wait_s": queue_wait / n,
        "service.transport_s": (latency - handle) / n,
        "unattributed_s": unattributed / n,
        "unattributed_pct": 100.0 * unattributed / latency,
        "tracing_overhead_s": overhead,
    })
    return len(records), len(records) - len(done), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_one_cpu()
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)
    os.environ["REPRO_PROGRESS"] = "0"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        log(f"e2ebench: no program under test at {src / 'repro'}")
        return 2
    units = declared_units(bool(args.trace))
    sys.path[:0] = [str(src), str(HERE)]
    t0 = time.perf_counter()
    try:
        import repro.certify  # noqa: F401  (the layers under test)
        import repro.evaluation.figures  # noqa: F401
        import repro.service  # noqa: F401
    except ImportError as exc:
        log(f"e2ebench: cannot import the program under test: {exc}")
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        log(f"e2ebench: imported repro from {repro.__file__}, not from {src}")
        return 2
    import_s = time.perf_counter() - t0

    import workloads as wl
    from layers import LayerTracer

    workdir = ROOT / ".e2ebench_work"
    workdir.mkdir(exist_ok=True)
    if args.workload == "certify-full":
        workload = wl.CertifyFull(args.seed)
    elif args.workload == "campaign-fig45":
        workload = wl.CampaignFig45(args.seed)
    else:
        workload = wl.ServiceMixed(args.seed, workdir)
    tracer = LayerTracer()
    try:
        phases = workload.setup()
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        setup_samples = [] if args.trace else probe_setup(args)
        tracer.install()
        tracer.keep_spans = {"protocol.request_key", "store.get"}
        if isinstance(workload, wl.ServiceMixed):
            result = workload.run(tracer, args.seconds, bool(args.trace))
            failures = workload.check(result["records"])
            attempted, failed, metrics = service_result(
                args, tracer, workload, result, setup_samples
            )
        else:
            result = wl.run_sequential(
                workload, tracer, args.seconds, bool(args.trace), log
            )
            failures = result["failures"]
            attempted, failed, metrics = sequential_result(
                args, tracer, result, setup_samples
            )
    finally:
        tracer.uninstall()
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        try:
            workdir.rmdir()
        except OSError:
            pass
    if args.trace:
        metrics.update({
            "setup.import_s": import_s,
            "setup.build_s": phases["build_s"],
            "setup.warmup_s": phases["warmup_s"],
        })
    if set(metrics) != set(units):
        log("e2ebench: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
        return 3
    for line in failures:
        log(f"CHECK FAILED: {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
