"""`cli` workload: one closed-loop client runs every command below as a
fresh `python -m pureres.cli` process, in a seeded order per round, and
checks its stdout bytes and exit code against goldens recorded from the
seed code.  Interpreter start, import, argparse and `render` dominate;
`partitions` and `resolutions` run cold, once per process.

The list holds the README commands, more formats, invalid input (exit
2), a `verify --limit` case (exit 3) and two hostile inputs whose
expected exit is 3.  The hostile ones run under a 1 GiB address-space cap
and a wall-clock timeout: uncapped they are killed for running the
machine out of memory.  Until the program bounds them they fail, and
they stay in the workload as counted failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

import common
import speed
from common import GIB, median
from tracer import Tracer

COMMANDS = (
    # the README tour
    ("betti", "--construction", "F", "--d", "0,3,4,7", "--format", "pretty"),
    ("betti", "--construction", "H", "--d", "0,4,9,13", "--format", "json"),
    ("primitive", "--d", "0,1,4,6"),
    ("bott", "--alpha", "2,2", "--u", "3", "--m", "3"),
    ("scan", "--d", "0,3,4,7"),
    ("profile", "--d", "0,3,4,7"),
    ("duality", "--d", "0,2,5,6,9,11"),
    ("super", "--construction", "F", "--lam", "2,1", "--e1", "2", "--m", "2", "--n", "1", "--N", "8"),
    ("verify", "--d", "0,1,3"),
    ("examples",),
    # other inputs and formats
    ("betti", "--construction", "F", "--d", "0,1,3", "--format", "csv"),
    ("betti", "--construction", "H", "--d", "0,3,4,7", "--format", "pretty"),
    ("betti", "--construction", "F", "--d", "0,4,9,13"),
    ("primitive", "--d", "0,4,9,13"),
    ("bott", "--alpha", "3,1,0", "--u", "5", "--m", "4"),
    ("scan", "--d", "0,1,4,6"),
    ("profile", "--d", "0,2,5,6,9,11"),
    ("duality", "--d", "0,3,4,7"),
    ("super", "--construction", "H", "--lam", "2,1", "--e1", "2", "--m0", "1", "--m1", "1",
     "--u0", "2", "--u1", "1", "--N", "8"),
    ("super", "--construction", "F", "--lam", "3,1", "--e1", "1", "--m", "2", "--n", "2", "--format", "csv"),
    ("verify", "--d", "0,2,3"),
    ("examples", "--format", "pretty"),
    # invalid input: exit 2
    ("betti", "--construction", "F", "--d", "3,1"),
    ("primitive", "--d", "5"),
    ("bott", "--alpha", "1,2", "--u", "0", "--m", "3"),
    ("scan", "--d", "0,0"),
    ("betti", "--construction", "X", "--d", "0,1"),
    ("super", "--construction", "F", "--lam", "2,1", "--e1", "0", "--m", "1"),
    ("profile", "--d", "a,b"),
    # resource limit: exit 3
    ("verify", "--d", "0,1,2,4", "--limit", "100"),
)
HOSTILE = (
    ("scan", "--d", "0,1000000000"),
    ("betti", "--construction", "H", "--d", "0,1000000000"),
)
CHILD_TIMEOUT_S = 3.0  # normal commands take about 0.1 s; bounds a round if one hangs
PROBES = 5  # samples of import and start-up time in the traced run
START_EVERY = 4  # commands between reference-interpreter samples


def setup(seed: int) -> dict:
    import pureres.cli

    golden = json.loads((common.GOLDENS / "cli.json").read_text())
    return {
        "rng": random.Random(f"cli:{seed}"),
        "golden": {tuple(g["argv"]): g for g in golden["commands"]},
        "main": pureres.cli.main,
        "commands": COMMANDS + HOSTILE,
    }


def check(state, argv, code, stdout: bytes, tally) -> bool:
    g = state["golden"][argv]
    wrong = stdout != g["stdout"].encode()
    ok = not wrong and code == g["exit"]
    tally.record(ok, wrong=wrong, note=f"{' '.join(argv)}: exit {code}, expected {g['exit']}"
                 + (", stdout differs" if wrong else ""))
    return ok


def run_command(argv) -> common.ChildResult:
    return common.run_child(
        [sys.executable, "-m", "pureres.cli", *argv],
        timeout=CHILD_TIMEOUT_S,
        as_limit=GIB if argv in HOSTILE else None,
    )


def measure(state, seconds: float, tally) -> dict:
    commands = state["commands"]
    failed_before = tally.failed

    def one_round():
        spans = [None] * len(commands)
        order = list(range(len(commands)))
        state["rng"].shuffle(order)
        sampler = speed.Sampler(speed.START_S)
        for n, i in enumerate(order):
            if n % START_EVERY == 0:
                sampler.add_start_sample()
            t0 = time.perf_counter()
            res = run_command(commands[i])
            if check(state, commands[i], res.code, res.stdout, tally):
                spans[i] = (t0, time.perf_counter(), res.wall_s)
        sampler.add_start_sample()
        return [s and (s[2], s[2] / sampler.factor(s[0], s[1])) for s in spans]

    norm, info = common.normalized_times(seconds, one_round)
    metrics = dict(common.op_metrics(norm), peak_rss_mb=common.rss_children_mb())
    invocations = info["passes"] * len(commands)
    info.update(
        cli_p50_ms=metrics["op_p50_ms"],
        cli_p90_ms=metrics["op_p90_ms"],
        invocations=invocations,
        fail_ratio=(tally.failed - failed_before) / invocations,
        hostile_share=len(HOSTILE) / len(commands),
    )
    return {"metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# traced run: cli.main in-process


@contextlib.contextmanager
def address_space_cap(limit: int):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def call_main(state, argv):
    """Exit code and stdout bytes of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    cap = address_space_cap(GIB) if argv in HOSTILE else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), cap:
        try:
            code = state["main"](list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1, as the interpreter would
            code = 1
    return code, out.getvalue().encode()


def run_pass(state, order, tally, tracer=None):
    outs, ms = [], {}
    t0 = time.perf_counter()
    for i, argv in enumerate(order):
        if tracer is not None:
            tracer.op_id = i
        t = time.perf_counter()
        code, stdout = call_main(state, argv)
        ms.setdefault(argv[0], []).append(1e3 * (time.perf_counter() - t))
        check(state, argv, code, stdout, tally)
        outs.append((code, stdout))
    return outs, time.perf_counter() - t0, ms


def probe_ms(code: str) -> float:
    """Median wall milliseconds of a fresh interpreter running `code`,
    or, if it prints a number, of the seconds it reports."""
    samples = []
    for _ in range(PROBES):
        res = common.run_child([sys.executable, "-c", code], timeout=CHILD_TIMEOUT_S)
        text = res.stdout.decode().strip()
        samples.append(1e3 * (float(text) if text else res.wall_s))
    return median(samples)


def trace(state, seconds: float, tally) -> dict:
    order = list(state["commands"])
    state["rng"].shuffle(order)

    spans = []

    def traced():
        with Tracer() as tr:
            outs, wall, _ = run_pass(state, order, tally, tr)
        spans[:] = spans or tr.spans  # keep the first traced pass only
        return outs, wall, tr.layer_metrics()

    pairs = common.alternate(seconds, lambda: run_pass(state, order, tally), traced)
    layers = common.median_dicts([t[2] for _, t in pairs])
    layers["trace.overhead_ratio"] = median([t[1] / u[1] for u, t in pairs])
    for cmd in {argv[0] for argv in order}:
        layers[f"cli.{cmd}.ms"] = median([x for u, _ in pairs for x in u[2][cmd]])
    layers["cli.startup_ms"] = probe_ms("pass")
    layers["cli.import_ms"] = probe_ms(
        "import time; t = time.perf_counter(); import pureres.cli; print(time.perf_counter() - t)"
    )
    return {
        "metrics": layers,
        "same_outputs": all(u[0] == t[0] for u, t in pairs),
        "spans": spans,
        "info": {"pairs": len(pairs), "ops_per_pass": len(order)},
    }
