"""`tables` workload: seeded degree sequences through the whole finite
pipeline (tables, ray multiples, Herzog-Kuhl, module profile, both
Hilbert functions, duality, Bott scan), plus seeded small super tables.

One closed-loop client runs a fixed, seeded op list (see `make_ops`) in
passes until the run's time is up.  Every op is checked: the published
rays against goldens, the other sequences and the super tables against
identities their outputs must satisfy.  `partitions`, `resolutions` and
`bott` do all of the work; `exactness` does none.
"""

from __future__ import annotations

import functools
import json
import random
import time
from math import comb

import common
import speed
from common import median, p90
from tracer import Tracer

RAYS = ((0, 3, 4, 7), (0, 4, 9, 13), (0, 1, 4, 6))
SEQ_PER_LENGTH = 2
SUPER_PER_BLOCK = 2
SUPER_DIMS = ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2))
PASS_BLOCKS = 60  # blocks in one pass over the run's fixed op list


@functools.lru_cache(maxsize=None)
def _ways(m: int, total: int) -> int:
    """Number of gap vectors in {1..6}^m with the given sum."""
    if m == 0:
        return int(total == 0)
    return sum(_ways(m - 1, total - g) for g in range(1, 7) if total - g >= m - 1)


def _gaps(rng, m: int, u: float) -> list:
    """m gaps in 1..6: the gap sum is the u-quantile of its distribution,
    the gaps are uniform among those with that sum."""
    cdf, total = 0.0, m - 1
    while cdf <= u * 6**m and total < 6 * m:
        total += 1
        cdf += _ways(m, total)
    gaps = []
    for left in range(m, 0, -1):
        weights = [_ways(left - 1, total - g) if total - g >= left - 1 else 0 for g in range(1, 7)]
        g = rng.choices(range(1, 7), weights)[0]
        gaps.append(g)
        total -= g
    return gaps


def make_ops(seed: int) -> list:
    """The run's op list: PASS_BLOCKS shuffled blocks.  Each block holds one
    published ray (cycling through the three), SEQ_PER_LENGTH random
    sequences of each length 2..6 and SUPER_PER_BLOCK super-table pairs.

    Gaps are uniform in 1..6 and d_0 in 0..3, but the draws are
    stratified: for each length the gap sums of a run sit at evenly
    spaced quantiles of their distribution (with a seeded offset), and
    d_0 and the super-table shapes cycle.  Cost grows steeply with the
    gap sum, so this keeps the total work of a run nearly the same for
    every seed while the seed still picks every sequence."""
    rng = random.Random(f"tables:{seed}")
    strata = PASS_BLOCKS * SEQ_PER_LENGTH
    quantiles = {m: rng.sample(range(strata), strata) for m in range(1, 6)}
    ops = []
    for b in range(PASS_BLOCKS):
        blk = [("seq", RAYS[b % len(RAYS)])]
        for j in range(SEQ_PER_LENGTH):
            slot = b * SEQ_PER_LENGTH + j
            for m in range(1, 6):
                d = [(slot + m) % 4]
                for g in _gaps(rng, m, (quantiles[m][slot] + rng.random()) / strata):
                    d.append(d[-1] + g)
                blk.append(("seq", tuple(d)))
        for j in range(SUPER_PER_BLOCK):
            slot = b * SUPER_PER_BLOCK + j
            lam = tuple(sorted((rng.randint(1, 4) for _ in range(slot % 4)), reverse=True))
            m, n = SUPER_DIMS[slot % len(SUPER_DIMS)]
            blk.append(("super", (lam, 1 + slot % 3, m, n, slot % 3, (slot // 3) % 3)))
        rng.shuffle(blk)
        ops += blk
    return ops


def setup(seed: int) -> dict:
    import pureres

    golden = json.loads((common.GOLDENS / "tables.json").read_text())
    return {"pureres": pureres, "rays": golden["rays"], "ops": make_ops(seed)}


# ---------------------------------------------------------------------------
# the program's work


def run_seq(lib, d) -> dict:
    m = len(d) - 1
    F, H = lib.betti_F(d), lib.betti_H(d)
    out = {
        "F": list(F.ranks),
        "H": list(H.ranks),
        "multiples": [lib.multiple_of_primitive(F), lib.multiple_of_primitive(H)],
        "herzog_kuhl": [lib.check_herzog_kuhl(F, m), lib.check_herzog_kuhl(H, m)],
    }
    prof = lib.module_profile(d)
    ks = range(d[0], prof.top_degree + 2)
    out["top"] = prof.top_degree
    out["profile_hf"] = [prof.hf[k] for k in range(d[0], prof.top_degree + 1)]
    out["socle"] = [list(prof.socle_weight), prof.socle_dim]
    out["hf_euler"] = [lib.hilbert_M_euler(d, k) for k in ks]
    out["hf_strips"] = [lib.hilbert_M_strips(d, k) for k in ks]
    dual = lib.duality_check(d)
    out["duality"] = [dual.is_symmetric, dual.passed]
    out["scan"] = sorted(lib.scan_ranks(lib.det_bott_scan(d)).items())
    return out


def run_super(lib, args) -> dict:
    lam, e1, m, n, u0, u1 = args
    F = lib.betti_F_super(lam, e1, m, n)
    H = lib.betti_H_super(lam, e1, (m, n), (u0, u1))
    return {
        "F": [[r.twist, r.rank] for r in F.rows],
        "H": [[r.twist, r.rank] for r in H.rows],
    }


# ---------------------------------------------------------------------------
# independent checks


def super_sym_dim(j: int, m: int, n: int) -> int:
    """dim of the degree-j graded symmetric power of an (m|n) space:
    sum over a of dim Sym^a(C^m) * dim Ext^(j-a)(C^n)."""
    if j < 0:
        return 0
    return sum((1 if a == 0 else comb(m + a - 1, a)) * comb(n, j - a) for a in range(j + 1))


def check_seq(d, out) -> str:
    """Empty string if the outputs agree with each other, else why not."""
    e = [d[0]] + [d[i] - d[i - 1] for i in range(1, len(d))]
    if not all(out["herzog_kuhl"]):
        return "Herzog-Kuhl equations fail"
    if out["hf_euler"] != out["hf_strips"] or out["hf_euler"][-1] != 0:
        return "Hilbert functions disagree"
    if out["profile_hf"] != out["hf_strips"][:-1] or out["socle"][1] != out["F"][-1]:
        return "module profile disagrees"
    scan = dict(out["scan"])
    if set(scan) - set(range(len(d))) or any(scan.get(i, 0) != r for i, r in enumerate(out["H"])):
        return "Bott scan ranks disagree with betti_H"
    symmetric = e[1:] == e[:0:-1]
    if out["duality"] != [symmetric, symmetric]:
        return "duality report wrong"
    return ""


def check_super(args, out) -> str:
    lam, e1, m, n, u0, u1 = args
    F, H = out["F"], out["H"]
    for (tf, rf), (th, rh) in zip(F, H):
        if tf != th or rh != rf * super_sym_dim(th, u0, u1):
            return "H_super ranks disagree with F_super"
    for k in range(F[-1][0] + 1):
        euler = sum(
            (-1) ** i * r * super_sym_dim(k - t, m, n) for i, (t, r) in enumerate(F) if t <= k
        )
        if euler < 0:
            return f"negative Euler characteristic in degree {k}"
    return ""


UNSAMPLED = speed.Sampler()  # times ops without taking samples


def run_op(state, op, sampler):
    """((start, end, seconds) of the time spent in pureres, outputs)."""
    kind, args = op
    lib = state["pureres"]
    stop = sampler.span()
    out = run_seq(lib, args) if kind == "seq" else run_super(lib, args)
    return stop(), out


def check_op(state, op, out, tally) -> bool:
    kind, args = op
    if kind == "seq" and args in RAYS:
        why = "" if out == state["rays"][",".join(map(str, args))] else "ray golden mismatch"
    elif kind == "seq":
        why = check_seq(args, out)
    else:
        why = check_super(args, out)
    tally.record(not why, wrong=bool(why), note=f"{kind} {args}: {why}")
    return not why


def attempt(state, op, tally, sampler=UNSAMPLED):
    """Run and check one op; returns ((start, end, seconds), canonical
    outputs), with None for the times of a failed op."""
    try:
        dt, out = run_op(state, op, sampler)
    except Exception as exc:  # an uncaught program error is a failed op
        tally.record(False, note=f"{op}: {type(exc).__name__}: {exc}")
        return None, None
    out = json.loads(json.dumps(out))
    return (dt if check_op(state, op, out, tally) else None), out


# ---------------------------------------------------------------------------
# runs


def measure(state, seconds: float, tally) -> dict:
    ops = state["ops"]

    def one_pass():
        with speed.Sampler() as sampler:
            spans = [attempt(state, op, tally, sampler)[0] for op in ops]
        return [s and (s[2], s[2] / sampler.factor(s[0], s[1])) for s in spans]

    norm, info = common.normalized_times(seconds, one_pass)
    kinds = {
        kind: [t for op, t in zip(ops, norm) if op[0] == kind and t is not None]
        for kind in ("seq", "super")
    }
    info.update(
        ops_per_pass=len(ops),
        tables_per_s=len(kinds["seq"]) / sum(kinds["seq"]),
        super_per_s=len(kinds["super"]) / sum(kinds["super"]),
        seq_p50_ms=1e3 * median(kinds["seq"]),
        seq_p90_ms=1e3 * p90(kinds["seq"]),
    )
    metrics = dict(common.op_metrics(norm), peak_rss_mb=common.rss_self_mb())
    return {"metrics": metrics, "info": info}


def run_pass(state, ops, tally, tracer=None):
    """Outputs and wall time of one pass over `ops`."""
    outs = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        outs.append(attempt(state, op, tally)[1])
    return outs, time.perf_counter() - t0


def trace(state, seconds: float, tally) -> dict:
    ops = state["ops"]

    spans = []

    def traced():
        with Tracer() as tr:
            outs, wall = run_pass(state, ops, tally, tr)
        spans[:] = spans or tr.spans  # keep the first traced pass only
        return outs, wall, tr.layer_metrics()

    pairs = common.alternate(seconds, lambda: run_pass(state, ops, tally), traced)
    layers = common.median_dicts([t[2] for _, t in pairs])
    layers["trace.overhead_ratio"] = median([t[1] / u[1] for u, t in pairs])
    return {
        "metrics": layers,
        "same_outputs": all(u[0] == t[0] for u, t in pairs),
        "spans": spans,
        "info": {"pairs": len(pairs), "ops_per_pass": len(ops)},
    }
