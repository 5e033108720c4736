"""Span tracer for the pureres layers, installed from outside the package.

The tracer wraps named functions and methods of the `pureres` modules.  A
module-level function is rebound in every `pureres` module namespace that
bound it (so `from .partitions import dim_gl` call sites are traced too);
methods are wrapped on their class.  Each wrapped call records a span
(id, name, start, end, parent id, op id); spans stay in memory until the
run writes them out.  Counter-only wrappers record work counts where a
span per call would cost more than the work it measures.  `uninstall`
restores every original, and `leftover_wrappers` proves it did.

A target the code no longer has is skipped and its metrics read 0, so the
tracer keeps working when a later change removes a function.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); "Class.method" wraps on the class
SPAN_TARGETS = {
    "partitions.pieri_expand": ("pureres.partitions", "pieri_expand"),
    "partitions.dim_gl": ("pureres.partitions", "dim_gl"),
    "partitions.dim_skew": ("pureres.partitions", "dim_skew"),
    "partitions.dim_super": ("pureres.partitions", "dim_super"),
    "resolutions.betti_F": ("pureres.resolutions", "betti_F"),
    "resolutions.betti_H": ("pureres.resolutions", "betti_H"),
    "resolutions.hilbert_M_strips": ("pureres.resolutions", "hilbert_M_strips"),
    "resolutions.hilbert_M_euler": ("pureres.resolutions", "hilbert_M_euler"),
    "resolutions.module_profile": ("pureres.resolutions", "module_profile"),
    "resolutions.duality_check": ("pureres.resolutions", "duality_check"),
    "resolutions.multiple_of_primitive": ("pureres.resolutions", "multiple_of_primitive"),
    "resolutions.betti_F_super": ("pureres.resolutions", "betti_F_super"),
    "resolutions.betti_H_super": ("pureres.resolutions", "betti_H_super"),
    "bott.det_bott_scan": ("pureres.bott", "det_bott_scan"),
    "bott.bott_cohomology": ("pureres.bott", "bott_cohomology"),
    "exactness.verify_exactness": ("pureres.exactness", "verify_exactness"),
    "exactness.realize_schur": ("pureres.exactness", "realize_schur"),
    "exactness.slice_space": ("pureres.exactness", "SliceSpace.__init__"),
    "exactness.differential": ("pureres.exactness", "SliceLab.differential"),
    "exactness.multiplication": ("pureres.exactness", "SliceLab.multiplication"),
    "exactness.symmetrize_trailing": ("pureres.exactness", "symmetrize_trailing"),
    "exactness.mat_rank": ("pureres.exactness", "mat_rank"),
    "exactness.verify_dsquared": ("pureres.exactness", "verify_dsquared"),
    "exactness.check_a_linearity": ("pureres.exactness", "check_a_linearity"),
    "exactness.equivariance_spotcheck": ("pureres.exactness", "equivariance_spotcheck"),
    "render.to_json": ("pureres.render", "to_json"),
    "render.betti_to_dict": ("pureres.render", "betti_to_dict"),
    "render.betti_pretty": ("pureres.render", "betti_pretty"),
    "render.betti_to_csv": ("pureres.render", "betti_to_csv"),
}

COUNT_TARGETS = {
    "exactness.sym_tensor": ("pureres.exactness", "sym_tensor"),
    "exactness.subspace_add": ("pureres.exactness", "SubspaceBasis.add"),
    "exactness.symmetrizer_apply": ("pureres.exactness", "YoungSymmetrizer.apply"),
}

# stage of the certificate each exactness span belongs to; a span is
# charged to its nearest ancestor-or-self listed here
STAGES = {
    "exactness.slice_space": "slice spaces",
    "exactness.realize_schur": "slice spaces",
    "exactness.differential": "differentials",
    "exactness.check_a_linearity": "A-linearity",
    "exactness.mat_rank": "rank",
    "exactness.verify_dsquared": "d^2",
    "exactness.equivariance_spotcheck": "equivariance",
}

_CALL_SELF = [
    "partitions.pieri_expand",
    "partitions.dim_gl",
    "partitions.dim_skew",
    "partitions.dim_super",
    "resolutions.betti_F",
    "resolutions.betti_H",
    "resolutions.hilbert_M_strips",
    "resolutions.hilbert_M_euler",
    "resolutions.module_profile",
    "resolutions.duality_check",
    "resolutions.multiple_of_primitive",
    "resolutions.betti_F_super",
    "resolutions.betti_H_super",
    "bott.det_bott_scan",
    "bott.bott_cohomology",
    "exactness.realize_schur",
    "exactness.slice_space",
    "exactness.differential",
    "exactness.multiplication",
    "exactness.symmetrize_trailing",
    "exactness.mat_rank",
    "exactness.verify_dsquared",
    "exactness.check_a_linearity",
    "exactness.equivariance_spotcheck",
]
_RENDER = ["render.to_json", "render.betti_to_dict", "render.betti_pretty", "render.betti_to_csv"]
CLI_COMMANDS = ["betti", "primitive", "bott", "scan", "profile", "duality", "super", "verify", "examples"]

# every per-layer metric the traced run emits, with its unit
LAYER_UNITS = {}
for _name in _CALL_SELF:
    LAYER_UNITS[f"{_name}.calls"] = "count"
    LAYER_UNITS[f"{_name}.self_s"] = "s"
LAYER_UNITS.update(
    {
        "partitions.pieri_expand.out": "count",
        "exactness.realize_schur.words_tried": "count",
        "exactness.realize_schur.words_kept": "count",
        "exactness.realize_schur.keep_ratio": "ratio",
        "exactness.slice_space.dim_sum": "count",
        "exactness.differential.entries": "count",
        "exactness.sym_tensor.hit_ratio": "ratio",
        "exactness.subspace_add.accept_ratio": "ratio",
    }
)
for _name in _RENDER:
    LAYER_UNITS[f"{_name}.self_s"] = "s"
for _cmd in CLI_COMMANDS:
    LAYER_UNITS[f"cli.{_cmd}.ms"] = "ms"
LAYER_UNITS.update({"cli.import_ms": "ms", "cli.startup_ms": "ms", "trace.overhead_ratio": "ratio"})


# Hooks add work counts at a call's boundary.  They read program state
# with defaults, so a renamed attribute reads 0 instead of breaking the
# traced run.


def _pieri_after(tr, args, kwargs, result, ctx):
    tr.counts["partitions.pieri_expand.out"] += len(result)


def _schur_after(tr, args, kwargs, result, ctx):
    tr.counts["exactness.realize_schur.words_kept"] += len(getattr(result, "basis", ()))


def _space_after(tr, args, kwargs, result, ctx):
    tr.counts["exactness.slice_space.dim_sum"] += getattr(args[0], "dim", 0)


def _diff_before(tr, args, kwargs):
    lab, i, k = args[:3]
    return (i, k) in getattr(lab, "_diff", {})


def _diff_after(tr, args, kwargs, result, cached):
    if not cached:
        tr.counts["exactness.differential.entries"] += len(result) * (len(result[0]) if result else 0)


def _sym_before(tr, args, kwargs):
    cache = getattr(sys.modules["pureres.exactness"], "_SYM_CACHE", {})
    tr.counts["exactness.sym_tensor.hits"] += tuple(sorted(args[0])) in cache


def _add_after(tr, args, kwargs, result, ctx):
    tr.counts["exactness.subspace_add.accepted"] += bool(result)


def _apply_before(tr, args, kwargs):
    if tr._stack and tr._stack[-1][1] == "exactness.realize_schur":
        tr.counts["exactness.realize_schur.words_tried"] += 1


HOOKS = {
    "partitions.pieri_expand": (None, _pieri_after),
    "exactness.realize_schur": (None, _schur_after),
    "exactness.slice_space": (None, _space_after),
    "exactness.differential": (_diff_before, _diff_after),
    "exactness.sym_tensor": (_sym_before, None),
    "exactness.subspace_add": (None, _add_after),
    "exactness.symmetrizer_apply": (_apply_before, None),
}


def _pureres_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "pureres" or name.startswith("pureres."))
    ]


class Tracer:
    """Install with `with Tracer() as tr:`; `tr.op_id` tags the spans of
    the op being run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(tr, args, kwargs) if before else None
            stack = tr._stack
            parent = stack[-1] if stack else None
            frame = [tr._next_id, name, 0.0]
            tr._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[2]
                tr.spans.append(
                    (frame[0], name, t0, t1, parent[0] if parent else -1, tr.op_id)
                )
            if after:
                after(tr, args, kwargs, result, ctx)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count_wrapper(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(tr, args, kwargs) if before else None
            result = fn(*args, **kwargs)
            tr.calls[name] += 1
            if after:
                after(tr, args, kwargs, result, ctx)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        import pureres  # noqa: F401  (loads partitions..exactness)
        import pureres.cli  # noqa: F401  (loads render and cli)

        modules = _pureres_modules()
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for name, (modname, attr) in targets.items():
                mod = sys.modules.get(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = vars(cls).get(meth) if cls is not None else None
                    if orig is None:
                        continue
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = make(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values of the traced work; cli.*, trace.* and the
        render metrics of other layers default to 0 here and are filled in
        by the workload that measures them."""
        out = {name: 0.0 for name in LAYER_UNITS}
        for name in _CALL_SELF:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in _RENDER:
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        for key in (
            "partitions.pieri_expand.out",
            "exactness.realize_schur.words_tried",
            "exactness.realize_schur.words_kept",
            "exactness.slice_space.dim_sum",
            "exactness.differential.entries",
        ):
            out[key] = c[key]
        out["exactness.realize_schur.keep_ratio"] = _ratio(
            c["exactness.realize_schur.words_kept"], c["exactness.realize_schur.words_tried"]
        )
        out["exactness.sym_tensor.hit_ratio"] = _ratio(
            c["exactness.sym_tensor.hits"], self.calls["exactness.sym_tensor"]
        )
        out["exactness.subspace_add.accept_ratio"] = _ratio(
            c["exactness.subspace_add.accepted"], self.calls["exactness.subspace_add"]
        )
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still bound anywhere in pureres."""
    found = []
    for mod in _pureres_modules():
        for key, value in vars(mod).items():
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, "__perfbench_wrapper__", False):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


def stage_split(spans, op_id: int) -> dict:
    """Seconds of one op charged to each certificate stage (self times
    summed under the nearest stage span; the rest is 'other')."""
    mine = [s for s in spans if s[5] == op_id]
    by_id = {s[0]: s for s in mine}
    child = Counter()
    for s in mine:
        child[s[4]] += s[3] - s[2]
    split = Counter()
    for sid, name, t0, t1, parent, _ in mine:
        node = by_id.get(sid)
        while node is not None and node[1] not in STAGES:
            node = by_id.get(node[4])
        stage = STAGES[node[1]] if node is not None else "other"
        split[stage] += (t1 - t0) - child[sid]
    return dict(split)


def exactness_share(spans, wall_s: float) -> float:
    """Share of `wall_s` covered by exactness stage spans (outermost ones
    only, so nested spans are not counted twice)."""
    names = {s[0]: s[1] for s in spans}
    covered = 0.0
    for sid, name, t0, t1, parent, _ in spans:
        outer = names.get(parent, "exactness.verify_exactness")
        if (
            name.startswith("exactness.")
            and name != "exactness.verify_exactness"
            and outer == "exactness.verify_exactness"
        ):
            covered += t1 - t0
    return covered / wall_s if wall_s else 0.0
