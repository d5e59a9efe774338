#!/usr/bin/env python3
"""Steadiness check: are the end-to-end figures repeatable within bounds?

Runs every workload in two sessions of ``--runs`` runs each (at least
ten), alternating between sessions run by run, each run with its own
seed and the ``run_seconds`` of ``BENCHMARK.json``, and prints per
end-to-end metric each session's median, quartiles and spread (quartile
distance over median) against the metric's bound, and the change of
median between sessions against the bound.  Every metric, ``setup_s``
included, must hold both.  It also re-runs each workload once on an
already-used seed and requires the exact counters (the ``COUNTERS``
line) to repeat.  Run from the checkout root::

    python3 e2ebench/steady.py --runs 10

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = 2
SEED_BASE = 100


def run_once(command, workload, seed, seconds, trace=0) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    doc = json.loads(lines[-1])
    counters = [json.loads(line[len("COUNTERS "):]) for line in lines
                if line.startswith("COUNTERS ")]
    doc["counters"] = counters[-1] if counters else None
    doc["seed"], doc["workload"] = seed, workload
    doc["elapsed"] = time.perf_counter() - t0
    return doc


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def counters_repeat(a: dict, b: dict) -> bool:
    if a is None or b is None or a["ratios"] != b["ratios"]:
        return False
    common = min(len(a["rounds"]), len(b["rounds"]))
    return a["rounds"][:common] == b["rounds"][:common]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and session (at least 10)")
    args = parser.parse_args(argv)
    if args.runs < 10:
        parser.error("--runs must be at least 10")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[list[dict]]] = {
        w: [[] for _ in range(SESSIONS)] for w in workloads
    }
    for i in range(args.runs):
        for session in range(SESSIONS):
            for workload in workloads:
                seed = SEED_BASE + 1000 * session + i
                doc = run_once(bench["command"], workload, seed, seconds)
                results[workload][session].append(doc)
                print(f"[{workload} s{session} seed {seed}] "
                      f"{doc['elapsed']:.0f}s correct={doc['correct']} "
                      f"failed={doc['failed']}/{doc['attempted']}",
                      file=sys.stderr, flush=True)
    repeats = {
        workload: run_once(
            bench["command"], workload, results[workload][0][0]["seed"], seconds
        )
        for workload in workloads
    }

    ok = True
    for workload in workloads:
        sessions = results[workload]
        print(f"\n== {workload} ({args.runs} runs x {SESSIONS} sessions, "
              f"{seconds:g} s each)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            cells, medians = [], []
            for runs in sessions:
                med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                flag = "" if rel <= bound else " !"
                ok &= not flag
                cells.append(f"med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                             f"spread {100 * rel:.1f}%{flag}")
            line = f"  {name:16s} bound {100 * bound:.0f}% | " + " | ".join(cells)
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if lower else -change
            flag = "" if worse <= bound else " !"
            ok &= not flag
            line += f" | change {100 * change:+.1f}%{flag}"
            print(line)
        shares = {
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in sessions
        }
        fail_shares = {f / a for f, a in shares}
        incorrect = sum(not r["correct"] for runs in sessions for r in runs)
        print(f"  failed share per session: {sorted(fail_shares)}; "
              f"incorrect runs: {incorrect}")
        ok &= len(fail_shares) == 1 and incorrect == 0
        same = counters_repeat(
            sessions[0][0]["counters"], repeats[workload]["counters"]
        )
        ok &= same and repeats[workload]["correct"]
        print(f"  counters repeat on seed {sessions[0][0]['seed']}: {same}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
