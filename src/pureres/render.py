"""Lossless rendering of Betti tables and certificates: canonical JSON (big
integers become decimal strings), CSV, and unicode pretty tables with Young
diagrams."""

from __future__ import annotations

import json

from .resolutions import (
    BettiTable,
    check_herzog_kuhl,
    herzog_kuhl_primitive,
    multiple_of_primitive,
)


def betti_to_dict(table: BettiTable) -> dict:
    out = {"kind": table.kind, **table.params, "d": table.d}
    out["twist_convention"] = "relative to d_0" if table.kind == "H" else "absolute"
    rows = []
    for r in table.rows:
        row = {"i": r.i, "twist": r.twist, "weight": r.weight, "rank": r.rank}
        if r.weight2 is not None:
            row["weight2"] = r.weight2
        if r.vanishing:
            row["vanishing"] = True
        rows.append(row)
    out["rows"] = rows
    if table.truncated_at is not None:
        out["truncated_at"] = table.truncated_at
    if table.kind in ("F", "H"):
        out["primitive"] = herzog_kuhl_primitive(table.d)
        out["multiple"] = multiple_of_primitive(table)
        codim = len(table.d) - 1
        out["herzog_kuhl_ok"] = check_herzog_kuhl(table, codim)
    return out


_I64_MAX = 2**63 - 1


def to_json(obj) -> str:
    """Compact JSON of obj, one line.  Every int outside ±(2^63 − 1),
    wherever it sits, is written as its decimal string, so that a consumer
    with 64-bit integers loses no precision; a bool stays a bool."""

    def safe(x):
        if isinstance(x, dict):
            return {k: safe(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [safe(v) for v in x]
        if isinstance(x, int) and not -_I64_MAX <= x <= _I64_MAX:
            return str(x)
        return x

    return json.dumps(safe(obj), separators=(",", ":")) + "\n"


def betti_to_csv(table: BettiTable) -> str:
    lines = ["i,twist,weight,rank"]
    for r in table.rows:
        weight = " ".join(map(str, r.weight)) if r.weight else "-"
        lines.append(f"{r.i},{r.twist},{weight},{r.rank}")
    return "\n".join(lines) + "\n"


_BOX = {
    (1, 1, 1, 1): "┼", (1, 1, 1, 0): "┤", (1, 1, 0, 1): "├",
    (1, 0, 1, 1): "┴", (0, 1, 1, 1): "┬", (1, 0, 1, 0): "┘",
    (1, 0, 0, 1): "└", (0, 1, 1, 0): "┐", (0, 1, 0, 1): "┌",
}


def _boundary(above: int, below: int) -> str:
    """Horizontal grid line between a row of `above` boxes and one of
    `below` boxes (0 for the outer edge)."""
    chars = []
    for j in range(max(above, below) + 1):
        up = int(above > 0 and j <= above)
        down = int(below > 0 and j <= below)
        left = int(j >= 1)
        right = int(j < max(above, below))
        chars.append(_BOX[(up, down, left, right)])
        if right:
            chars.append("──" if j < above or j < below else "  ")
    return "".join(chars)


# Largest partition (in boxes) that `young_diagram` draws; a bigger one
# gets a one-line note instead, since its weight is printed anyway and the
# picture would take time and memory in proportion to its size.
DIAGRAM_BOX_LIMIT = 1000


def young_diagram(weight) -> list[str]:
    """Unicode box rendering of a partition, rows = parts."""
    rows = [p for p in weight if p > 0]
    if not rows:
        return ["(empty)"]
    if sum(rows) > DIAGRAM_BOX_LIMIT:
        return [f"({sum(rows)} boxes, more than {DIAGRAM_BOX_LIMIT}: not drawn)"]
    lines = [_boundary(0, rows[0])]
    for i, p in enumerate(rows):
        lines.append("│" + "  │" * p)
        lines.append(_boundary(p, rows[i + 1] if i + 1 < len(rows) else 0))
    return lines


def betti_pretty(table: BettiTable) -> str:
    lines = [f"pure complex of kind {table.kind}, d = {list(table.d)}"]
    for k, v in table.params.items():
        lines.append(f"  {k} = {list(v) if isinstance(v, tuple) else v}")
    if table.kind == "H":
        lines.append("  twists are relative to d_0")
    lines.append("")
    lines.append(f"{'i':>3} {'twist':>6} {'rank':>12}  weight")
    for r in table.rows:
        flag = "  (vanishing)" if r.vanishing else ""
        lines.append(f"{r.i:>3} {r.twist:>6} {r.rank:>12}  {list(r.weight)}{flag}")
    if table.kind in ("F", "H"):
        lines.append("")
        lines.append(f"primitive vector: {list(herzog_kuhl_primitive(table.d))}")
        lines.append(f"integer multiple: {multiple_of_primitive(table)}")
    lines.append("")
    lines.append("generator weights (rows = parts; the same shapes drawn by")
    lines.append("columns appear in the classical pictures):")
    for r in table.rows:
        lines.append(f"  i = {r.i}:")
        for dl in young_diagram(r.weight):
            lines.append("    " + dl)
    return "\n".join(lines) + "\n"
