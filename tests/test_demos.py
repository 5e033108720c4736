"""Every script in demos/ runs to completion and prints exactly its
recorded output (tests/goldens/demos/<name>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = Path(__file__).resolve().parent / "goldens" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in GOLDENS.glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8")
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert res.returncode == 0, res.stderr.decode(errors="replace")
    assert res.stdout == (GOLDENS / f"{demo.stem}.txt").read_bytes()
