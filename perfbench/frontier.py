"""Frontier probe: which certificates past the `certify` corpus finish
within a fixed budget.  Run on demand; it is not a gated workload.

    python3 perfbench/frontier.py [--budget SECONDS]

Each instance runs alone in a fresh child under a 2 GiB address-space cap
and is killed at the budget.  Instances with a recorded golden are also
checked against it.  This records reach, not only speed.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import wl_certify

FRONTIER = ((0, 1, 2, 3, 4), (0, 2, 4, 5), (0, 1, 2, 5))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="certificate reach within a budget")
    ap.add_argument("--budget", type=float, default=60.0, help="seconds per instance")
    args = ap.parse_args(argv)
    common.use_checkout_source()
    golden = wl_certify.setup(0)["golden"]
    rows = []
    for d in FRONTIER:
        report = wl_certify.run_pass([d], trace=False, timeout=args.budget, as_limit=2 * common.GIB)
        result = report["results"][0] if "results" in report else report
        key = wl_certify.key(d)
        row = {"d": key, "finished": "cert" in result}
        if row["finished"]:
            row["seconds"] = result["seconds"]
            row["passed"] = result["cert"]["passed"]
            row["golden"] = (
                "none" if key not in golden else "match" if result["cert"] == golden[key] else "MISMATCH"
            )
        else:
            row["error"] = result["error"]
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"stamp": common.stamp(), "budget_s": args.budget, "frontier": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
