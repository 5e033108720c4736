"""Shared plumbing of the pureres benchmark: locating the source tree,
child processes, statistics, the run stamp and the result record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDENS = BENCH_DIR / "goldens"
OUT = BENCH_DIR / "out"

# end-to-end metrics, emitted by every workload with tracing off
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

GIB = 1 << 30


class SourceMissing(Exception):
    """The checkout holds no pureres source tree to benchmark."""


def use_checkout_source() -> None:
    """Make `import pureres` load the checkout's own src/, never an
    installed copy."""
    if not (SRC / "pureres" / "__init__.py").is_file():
        raise SourceMissing(f"no pureres package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pureres

    if Path(pureres.__file__).resolve().parent != SRC / "pureres":
        raise SourceMissing(f"pureres imported from {pureres.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cap_address_space(limit: int):
    """preexec_fn that caps a child's address space at `limit` bytes."""

    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


@dataclass
class ChildResult:
    code: int | None  # None when killed at the timeout
    stdout: bytes
    stderr: bytes
    wall_s: float


def run_child(argv, timeout: float, as_limit: int | None = None, cwd=None) -> ChildResult:
    """Run a child to completion (or kill it at `timeout`) and reap it."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=cwd or ROOT,
        preexec_fn=cap_address_space(as_limit) if as_limit else None,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
    return ChildResult(code, out, err, time.perf_counter() - t0)


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """Nearest-rank 90th percentile: never interpolates between ops or
    extrapolates past the slowest one."""
    ordered = sorted(values)
    return float(ordered[math.ceil(0.9 * len(ordered)) - 1])


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pureres").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return res.stdout.strip() or None


def stamp() -> dict:
    return {
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


@dataclass
class Tally:
    """Per-op bookkeeping.  An op fails when it gives a wrong answer, the
    wrong exit code, a golden mismatch, an uncaught exception or a timeout;
    `wrong` counts the subset that produced an answer differing from the
    expected one."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, wrong: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            if note and len(self.notes) < 20:
                self.notes.append(note)


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _repeat(seconds: float, step) -> int:
    """Call `step` once, then again as long as one more call taking as long
    as the last would end within `seconds`; returns the number of calls."""
    t0 = time.perf_counter()
    calls = 0
    while True:
        t_step = time.perf_counter()
        step()
        calls += 1
        now = time.perf_counter()
        if now - t0 + (now - t_step) > seconds:
            return calls


def alternate(seconds: float, untraced, traced) -> list:
    """Untraced and traced passes over the same ops, in pairs, for about
    `seconds` (at least one pair)."""
    pairs = []
    _repeat(seconds, lambda: pairs.append((untraced(), traced())))
    return pairs


def median_dicts(dicts: list) -> dict:
    return {key: median([d[key] for d in dicts]) for key in dicts[0]}


def normalized_times(seconds: float, one_pass) -> tuple[list, dict]:
    """Repeat `one_pass` for about `seconds` and return `median_times` of
    its passes."""
    passes = []
    _repeat(seconds, lambda: passes.append(one_pass()))
    return median_times(passes)


def median_times(passes: list) -> tuple[list, dict]:
    """`passes` hold, per op, its (raw, normalized) seconds (see speed.py),
    or None if it failed or did not run.  Returns each op's median
    normalized time over the passes (None if it has none) and the number
    of passes and the metrics of the ops' median raw times."""
    raw = _op_medians([[t and t[0] for t in times] for times in passes])
    info = {"passes": len(passes), "raw": op_metrics(raw)}
    return _op_medians([[t and t[1] for t in times] for times in passes]), info


def _op_medians(passes: list) -> list:
    out = []
    for column in zip(*passes):
        ok = [t for t in column if t is not None]
        out.append(median(ok) if ok else None)
    return out


def op_metrics(op_times: list) -> dict:
    """Throughput and latency percentiles over the ops' times."""
    times = [t for t in op_times if t is not None]
    if not times:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * median(times),
        "op_p90_ms": 1e3 * p90(times),
    }

