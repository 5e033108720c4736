"""Self-checks of the benchmark (about a minute):

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the repository's default test run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import wl_certify  # noqa: E402
import wl_cli  # noqa: E402
import wl_tables  # noqa: E402

common.use_checkout_source()
BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every attribute of every pureres module and of its classes."""
    out = {}
    for mod in tracer._pureres_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    out[(mod.__name__, key, meth)] = fn
    return out


def test_tracer_leaves_no_wrapper_installed():
    import pureres.cli  # noqa: F401

    before = _bindings()
    with tracer.Tracer() as tr:
        assert tracer.leftover_wrappers()
        import pureres

        pureres.verify_exactness((0, 2))
    assert tr.calls["exactness.verify_exactness"] == 1
    assert tr.calls["partitions.dim_gl"] > 0  # reached through a `from` import
    assert not tracer.leftover_wrappers()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_sampler_measures_an_op_against_the_samples_around_it():
    s = speed.Sampler(nominal=1.0)
    for t in range(10):
        s.add(float(t), 1.0 + t)
    assert s.factor(2.5, 7.5) == 6.0  # the five samples inside
    assert s.factor(0.1, 0.2) == 3.0  # the five nearest
    assert speed.Sampler().factor(0.0, 1.0) == 1.0


def test_sampler_leaves_sampling_out_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as s:
        stop = s.span()
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        t0, t1, seconds = stop()
    assert len(s.took) >= 3
    assert seconds == pytest.approx(t1 - t0 - s.spent)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_tables_outputs_equal_untraced():
    state = wl_tables.setup(11)
    ops = wl_tables.make_ops(11)[:40]
    tally = common.Tally()
    plain, _ = wl_tables.run_pass(state, ops, tally)
    with tracer.Tracer() as tr:
        traced, _ = wl_tables.run_pass(state, ops, tally, tr)
    assert plain == traced
    assert tally.failed == 0
    assert tr.calls["partitions.pieri_expand"] > 0


def test_traced_cli_outputs_equal_untraced():
    state = wl_cli.setup(11)
    order = list(state["commands"])
    tally = common.Tally()
    plain, _, _ = wl_cli.run_pass(state, order, tally)
    with tracer.Tracer() as tr:
        traced, _, _ = wl_cli.run_pass(state, order, tally, tr)
    assert plain == traced
    assert tally.wrong == 0
    assert tr.self_s["render.to_json"] > 0


def test_traced_certify_outputs_equal_untraced():
    corpus = [(0, 2), (0, 1, 3)]
    plain = wl_certify.run_pass(corpus, trace=False)
    traced = wl_certify.run_pass(corpus, trace=True)
    assert [r["cert"] for r in plain["results"]] == [r["cert"] for r in traced["results"]]
    assert traced["leftover"] == []
    assert traced["layers"]["exactness.differential.calls"] > 0


def _run(workload, trace, cwd=common.ROOT):
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_every_listed_metric_is_emitted():
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        for trace, listed in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
            res = _run(workload, trace)
            assert res.returncode == 0, res.stderr
            result = json.loads(res.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, res.stderr)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_refuses_to_run_without_source():
    bare = common.OUT / "bare-checkout"  # BENCHMARK.json and the benchmark, no src/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(
                common.ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__")
            )
        res = _run("tables", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
