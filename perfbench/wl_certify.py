"""`certify` workload: exactness certificates at the default k_max for the
six acceptance-corpus sequences plus (0,1,3,4), one step past the corpus.

One closed-loop client.  The corpus and its order are fixed; the seed
changes nothing.  Each pass runs in a fresh interpreter, so the
exactness module's caches start empty, as they do for a CLI user.
`exactness` does nearly all of the work.  Every certificate's per-slice
ranks and cokernels and its verdicts are checked against goldens
recorded from the seed code.

Run as a script, this file is the child that computes one pass:
    python3 perfbench/wl_certify.py --trace 0|1 --d 0,1,2,4 [--d ...]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import speed
from common import median
from tracer import Tracer, exactness_share, leftover_wrappers, stage_split

# smallest first: (0,2) takes the one-off costs of a fresh interpreter
CORPUS = ((0, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 2, 3, 4), (0, 1, 2, 4), (0, 1, 3, 4))
SPLIT_FOR = (0, 1, 2, 4)  # instance whose per-stage split the traced run prints
CHILD_TIMEOUT_S = 60.0


def key(d) -> str:
    return ",".join(map(str, d))


def setup(seed: int) -> dict:
    import pureres  # noqa: F401

    golden = json.loads((common.GOLDENS / "certify.json").read_text())
    return {"seed": seed, "golden": golden, "corpus": CORPUS}


def summarize(cert) -> dict:
    """The certificate contents that must survive any rewrite."""
    return {
        "k_range": list(cert.k_range),
        "slices": {
            str(k): [ok, list(data["ranks"]), data["coker"]]
            for k, (ok, data) in sorted(cert.slices_exact.items())
        },
        "dsquared_ok": cert.dsquared_ok,
        "minimality_ok": cert.minimality_ok,
        "euler_identity_ok": cert.euler_identity_ok,
        "hf_match_ok": cert.hf_match_ok,
        "alinearity_ok": cert.alinearity_ok,
        "equivariance_ok": cert.equivariance_ok,
        "passed": cert.passed,
    }


def run_pass(corpus, trace: bool, timeout: float = CHILD_TIMEOUT_S, as_limit=None) -> dict:
    """Run one pass in a fresh child; returns its report, or a report with
    `error` set if the child crashed or timed out."""
    argv = [sys.executable, str(common.BENCH_DIR / "wl_certify.py"), "--trace", str(int(trace))]
    for d in corpus:
        argv += ["--d", key(d)]
    res = common.run_child(argv, timeout=timeout, as_limit=as_limit)
    if res.code is None:
        return {"error": f"killed at the {timeout:.0f} s timeout"}
    if res.code != 0:
        return {"error": f"child exited {res.code}: {res.stderr.decode()[-400:]}"}
    return json.loads(res.stdout.decode().splitlines()[-1])


def check_pass(state, corpus, report, tally) -> list:
    """Tally every certificate of a pass over `corpus`; returns their
    (raw, normalized) seconds (None for a failed one)."""
    if "error" in report:
        for d in corpus:
            tally.record(False, note=f"{key(d)}: {report['error']}")
        return [None] * len(corpus)
    seconds = []
    for d, r in zip(corpus, report["results"]):
        if "error" in r:
            tally.record(False, note=f"{key(d)}: {r['error']}")
            seconds.append(None)
            continue
        same = r["cert"] == state["golden"][key(d)]
        tally.record(same, wrong=not same, note=f"{key(d)}: certificate differs from golden")
        seconds.append((r["seconds"], r["normalized"]) if same else None)
    return seconds


def measure(state, seconds: float, tally) -> dict:
    """Full passes over the corpus while one more fits in `seconds`, then
    passes over the longest prefix of it that fits in the time left,
    judged by the last full pass.  A full pass lasts about 12 s, so a run
    holds two or three; the prefix passes give the short certificates,
    which the median of the run turns on, several more samples."""
    corpus = state["corpus"]
    deadline = time.perf_counter() + seconds
    passes, walls, cost = [], [], None
    while True:
        left = deadline - time.perf_counter()
        n = 0
        if cost is None:
            n = len(corpus)
        else:
            spent = cost["start"]
            while n < len(corpus) and spent + cost["certs"][n] <= left:
                spent += cost["certs"][n]
                n += 1
        if n == 0:
            break
        t0 = time.perf_counter()
        report = run_pass(corpus[:n], trace=False)
        times = check_pass(state, corpus[:n], report, tally)
        passes.append(times + [None] * (len(corpus) - n))
        if n == len(corpus) and None not in times:
            walls.append(report["wall_s"])
            certs = [raw for raw, _ in times]
            cost = {"start": time.perf_counter() - t0 - sum(certs), "certs": certs}
        elif cost is None:
            break  # a failed first pass gives no cost to plan by

    norm, info = common.median_times(passes)
    metrics = dict(common.op_metrics(norm), peak_rss_mb=common.rss_children_mb())
    info.update(
        full_passes=len(walls),
        cert_wall_s=sum(t for t in norm if t is not None),
        cert_max_s=max((t for t in norm if t is not None), default=None),
        pass_wall_s_median=median(walls) if walls else None,
    )
    return {"metrics": metrics, "info": info}


def trace(state, seconds: float, tally) -> dict:
    def one(traced):
        report = run_pass(state["corpus"], trace=traced)
        check_pass(state, state["corpus"], report, tally)
        return report

    pairs = common.alternate(seconds, lambda: one(False), lambda: one(True))
    good = [(u, t) for u, t in pairs if "error" not in u and "error" not in t]
    if not good:
        return {"metrics": {}, "same_outputs": False, "spans": [], "info": {"pairs": len(pairs)}}
    layers = common.median_dicts([t["layers"] for _, t in good])
    layers["trace.overhead_ratio"] = median([t["wall_s"] / u["wall_s"] for u, t in good])
    first = good[0][1]
    same = all(
        [r.get("cert") for r in u["results"]] == [r.get("cert") for r in t["results"]]
        for u, t in good
    )
    return {
        "metrics": layers,
        "same_outputs": same and not first["leftover"],
        "spans": first["spans"],
        "info": {
            "pairs": len(pairs),
            "stage_split_s": {key(SPLIT_FOR): first["stage_split"]},
            "exactness_share": first["exactness_share"],
            "child_leftover_wrappers": first["leftover"],
        },
    }


# ---------------------------------------------------------------------------
# child


def child(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--d", action="append", required=True)
    args = ap.parse_args(argv)
    corpus = [tuple(int(x) for x in d.split(",")) for d in args.d]
    common.use_checkout_source()
    from pureres.exactness import verify_exactness

    # a traced pass takes no speed samples: its times are not reported
    tracer = Tracer() if args.trace else None
    sampler = speed.Sampler()
    results, spans = [], []
    t_start = time.perf_counter()
    with tracer or sampler:
        for op, d in enumerate(corpus):
            if tracer:
                tracer.op_id = op
            stop = sampler.span()
            try:
                cert = verify_exactness(d)
            except Exception as exc:  # reported as a failed op
                results.append({"d": list(d), "error": f"{type(exc).__name__}: {exc}"})
                continue
            t0, t1, seconds = stop()
            spans.append((t0, t1))
            results.append({"d": list(d), "seconds": seconds, "cert": summarize(cert)})
    wall = time.perf_counter() - t_start - sampler.spent
    for r, (t0, t1) in zip((r for r in results if "seconds" in r), spans):
        r["normalized"] = r["seconds"] / sampler.factor(t0, t1)
    report = {"results": results, "wall_s": wall}
    if tracer:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = tracer.spans
        report["stage_split"] = (
            stage_split(tracer.spans, corpus.index(SPLIT_FOR)) if SPLIT_FOR in corpus else {}
        )
        report["exactness_share"] = exactness_share(tracer.spans, wall)
        report["leftover"] = leftover_wrappers()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[1:]))
