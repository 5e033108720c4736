"""Benchmark of pureres: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload tables|certify|cli --seed N --seconds S --trace 0|1

With --trace 0 the last stdout line holds the end-to-end metrics, measured
untraced; with --trace 1 it holds the per-layer metrics of a traced run.
The line before it is the run stamp (commit, source digest, Python, nproc,
load average).  A readable summary goes to stderr, and the full record
(with the spans of a traced run) to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import time

import common
import speed
import wl_certify
import wl_cli
import wl_tables
from tracer import LAYER_UNITS, leftover_wrappers

WORKLOADS = {"tables": wl_tables, "certify": wl_certify, "cli": wl_cli}
SETUP_PROBES = 5  # before the measurement, and again after it


def setup_seconds(args) -> list:
    """(raw, normalized) times from starting a fresh interpreter until it
    has done the workload's set-up (import pureres, make inputs, load
    goldens), each measured against runs of the reference interpreter
    taken around it (see speed.py)."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    sampler = speed.Sampler(speed.START_S)
    spans = []
    for _ in range(SETUP_PROBES):
        sampler.add_start_sample()
        t0 = time.perf_counter()
        res = common.run_child(argv, timeout=60)
        spans.append((t0, time.perf_counter(), res.wall_s))
        if res.code != 0 or res.stdout.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {res.stderr.decode()[-400:]}")
    sampler.add_start_sample()
    return [(wall, wall / sampler.factor(t0, t1)) for t0, t1, wall in spans]


def summary(args, units, metrics, tally, info) -> str:
    lines = [f"pureres bench: workload={args.workload} seed={args.seed} trace={args.trace}"]
    for name, unit in units.items():
        lines.append(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    lines.append(
        f"  ops attempted {tally.attempted}, failed {tally.failed}"
        f" (fail_ratio {tally.failed / max(tally.attempted, 1):.4f}), wrong answers {tally.wrong}"
    )
    for key, value in info.items():
        lines.append(f"  {key}: {json.dumps(value)}")
    for note in tally.notes[:5]:
        lines.append(f"  failure: {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        common.use_checkout_source()
    except common.SourceMissing as exc:
        print(f"pureres bench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    stamp = common.stamp()
    setup = [] if args.trace else setup_seconds(args)
    state = wl.setup(args.seed)
    tally = common.Tally()
    t0 = time.perf_counter()
    if args.trace:
        run = wl.trace(state, args.seconds, tally)
        leftover = leftover_wrappers()
        correct = tally.wrong == 0 and run["same_outputs"] and not leftover
        run["info"].update(same_outputs=run["same_outputs"], leftover_wrappers=leftover)
        units = LAYER_UNITS
        metrics = {name: run["metrics"].get(name, 0.0) for name in units}
    else:
        run = wl.measure(state, args.seconds, tally)
        correct = tally.wrong == 0
        units = common.E2E_UNITS
        setup += setup_seconds(args)
        metrics = dict(run["metrics"], setup_s=common.median([n for _, n in setup]))
        run["info"]["setup_raw_s"] = [r for r, _ in setup]
    stamp["measured_s"] = time.perf_counter() - t0
    run["info"]["peak_rss_self_mb"] = common.rss_self_mb()
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.write_json(
        common.OUT / f"{tag}.json",
        {"stamp": stamp, "result": result, "info": run["info"], "failures": tally.notes},
    )
    if args.trace:
        with gzip.open(common.OUT / f"{tag}-spans.jsonl.gz", "wt") as fh:
            fh.write('["id","name","start","end","parent","op"]\n')
            for span in run["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(summary(args, units, metrics, tally, run["info"]), file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
