"""Record the goldens every benchmark op is checked against.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens/{tables,certify,cli}.json from the code in src/:
the full pipeline outputs of the three published rays, the per-slice
ranks and cokernels and verdicts of every `certify` instance and of the
frontier instances (0,1,2,3,4) and (0,2,4,5), and the exact stdout and
exit code of every `cli` command.  The hostile `cli` inputs are written
with their specified outcome (exit 3, empty stdout), not a recorded one.

The committed goldens come from the seed code.  They define correct
behaviour: re-record them only when a change is meant to alter output.
"""

from __future__ import annotations

import sys

import common
import wl_certify
import wl_cli
import wl_tables

RECORDED_FRONTIER = ((0, 1, 2, 3, 4), (0, 2, 4, 5))


def main() -> int:
    common.use_checkout_source()
    import pureres

    rays = {wl_certify.key(d): wl_tables.run_seq(pureres, d) for d in wl_tables.RAYS}
    common.write_json(common.GOLDENS / "tables.json", {"rays": rays})

    certs = {}
    for d in wl_certify.CORPUS + RECORDED_FRONTIER:
        report = wl_certify.run_pass([d], trace=False, timeout=600)
        if "error" in report or "error" in report["results"][0]:
            print(f"certify {d}: {report}", file=sys.stderr)
            return 1
        certs[wl_certify.key(d)] = report["results"][0]["cert"]
        print(f"certify {d}: {report['wall_s']:.1f} s", file=sys.stderr)
    common.write_json(common.GOLDENS / "certify.json", certs)

    commands = []
    for argv in wl_cli.COMMANDS:
        res = wl_cli.run_command(argv)
        commands.append({"argv": list(argv), "exit": res.code, "stdout": res.stdout.decode()})
    for argv in wl_cli.HOSTILE:
        commands.append({"argv": list(argv), "exit": 3, "stdout": "", "hostile": True})
    common.write_json(common.GOLDENS / "cli.json", {"commands": commands})
    return 0


if __name__ == "__main__":
    sys.exit(main())
