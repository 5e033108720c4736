import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pureres.cli import main, reproduction_rows
from pureres.render import to_json
from pureres.resolutions import betti_F

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBettiCommand:
    def test_f_json(self, capsys):
        code, out = run(capsys, "betti", "--construction", "F", "--d", "0,3,4,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "F"
        assert [r["rank"] for r in doc["rows"]] == [6, 42, 42, 6]
        assert doc["multiple"] == 6
        assert doc["primitive"] == [1, 7, 7, 1]
        assert doc["herzog_kuhl_ok"] is True

    def test_h_json(self, capsys):
        code, out = run(capsys, "betti", "--construction", "H", "--d", "0,3,4,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["rank"] for r in doc["rows"]] == [50, 350, 350, 50]
        assert doc["multiple"] == 50

    def test_csv(self, capsys):
        code, out = run(capsys, "betti", "--construction", "F", "--d", "0,1,3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("i,")
        assert len(lines) == 4

    def test_pretty_has_diagram(self, capsys):
        code, out = run(capsys, "betti", "--construction", "F", "--d", "0,3,4,7", "--format", "pretty")
        assert code == 0
        assert "┌" in out

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_ranks_past_the_digit_cap(self, capsys, fmt):
        # CPython converts an int of more than 4300 digits to a string only
        # once that cap is lifted; the command lifts it for itself alone
        d = tuple(i * 10**6 for i in range(41))
        cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
        code, out = run(
            capsys, "betti", "--construction", "F", "--d", ",".join(map(str, d)), "--format", fmt
        )
        assert code == 0 and out
        if cap is None:
            return
        assert sys.get_int_max_str_digits() == cap
        if fmt == "json":
            sys.set_int_max_str_digits(0)
            try:
                expected = [str(r.rank) for r in betti_F(d).rows]
            finally:
                sys.set_int_max_str_digits(cap)
            assert max(map(len, expected)) > 4300
            assert [str(r["rank"]) for r in json.loads(out)["rows"]] == expected

    def test_invalid_degrees(self, capsys):
        code, _ = run(capsys, "betti", "--construction", "F", "--d", "3,1")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, out = run(
            capsys, "betti", "--construction", "F", "--d", "0,1,3", "--format", "json", "--output", str(target)
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["kind"] == "F"


class TestOutputAndFormat:
    @pytest.mark.parametrize("target", ["missing/t.json", "."])
    def test_unwritable_output_is_invalid_input(self, capsys, tmp_path, target):
        # a missing directory, then a directory itself
        code = main(["primitive", "--d", "0,1", "--output", str(tmp_path / target)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("invalid input: --output")

    def test_output_file_is_utf8_in_any_locale(self, tmp_path):
        # an ASCII locale with neither UTF-8 mode nor locale coercion: the
        # box-drawing characters of the pretty table still reach the file
        target = tmp_path / "t.txt"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(
            os.environ, PYTHONPATH=path, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"
        )
        res = subprocess.run(
            [sys.executable, "-m", "pureres.cli", "betti", "--construction", "F", "--d", "0,1,3",
             "--format", "pretty", "--output", str(target)],
            capture_output=True,
            env=env,
            timeout=30,
        )
        assert res.returncode == 0, res.stderr.decode(errors="replace")
        assert "┌" in target.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            "primitive --d 0,1 --format csv",
            "bott --alpha 1 --u 0 --m 2 --format pretty",
            "scan --d 0,1 --format csv",
            "profile --d 0,1 --format pretty",
            "duality --d 0,1 --format csv",
            "verify --d 0,1 --format pretty",
            "examples --format csv",
        ],
    )
    def test_format_a_command_does_not_render(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestOtherCommands:
    def test_primitive(self, capsys):
        code, out = run(capsys, "primitive", "--d", "0,1,4,6", "--format", "json")
        assert code == 0
        assert json.loads(out)["primitive"] == [5, 8, 5, 2]

    def test_bott(self, capsys):
        code, out = run(
            capsys, "bott", "--alpha", "2,2", "--u", "3", "--m", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert "vanishes" in doc

    def test_scan(self, capsys):
        code, out = run(capsys, "scan", "--d", "0,3,4,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [t["u"] for t in doc["terms"]] == [0, 3, 4, 7]
        assert [t["i"] for t in doc["terms"]] == [0, 1, 2, 3]

    def test_profile(self, capsys):
        code, out = run(capsys, "profile", "--d", "0,3,4,7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["top_degree"] == 4
        assert doc["socle_dim"] == 6

    def test_profile_negative_d0(self, capsys):
        # (-2, 0, 3) is (0, 2, 5) twisted by the (-2)-th power of the
        # determinant: every degree moves by -2, the socle weight (3, 2)
        # becomes (1, 0)
        code, out = run(capsys, "profile", "--d=-2,0,3")
        assert code == 0
        assert json.loads(out) == {
            "d": [-2, 0, 3],
            "hilbert_function": {"-2": 3, "-1": 6, "0": 4, "1": 2},
            "top_degree": 1,
            "socle_weight": [1],
            "socle_dim": 2,
        }

    def test_duality(self, capsys):
        code, out = run(capsys, "duality", "--d", "0,2,5,6,9,11", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_super(self, capsys):
        code, out = run(
            capsys,
            *"super --construction F --lam 2,1 --e1 2 --m 2 --n 1 --N 8".split(),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "F_super"
        assert doc["truncated_at"] is not None

    def test_verify_pass(self, capsys):
        code, out = run(capsys, "verify", "--d", "0,1,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_limit(self, capsys):
        code, _ = run(capsys, "verify", "--d", "0,9,10,11")
        assert code == 3

    def test_verify_nonpositive_limit(self, capsys):
        # invalid input (exit 2), not a resource limit (exit 3)
        for limit in ("0", "-5"):
            code = main(["verify", "--d", "0,1,3", "--limit", limit])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert f"tensor limit {limit} is below 1" in err

    def test_verify_invalid_limit_before_length_limit(self, capsys):
        # m = 70 is also over the length limit (exit 3); invalid input wins
        code = main(["verify", "--d", ",".join(map(str, range(71))), "--limit", "0"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "below 1" in err

    def test_verify_kmax_below_d0(self, capsys):
        code = main(["verify", "--d", "0,2", "--kmax", "-3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "k_max" in err and "d_0" in err

    def test_verify_negative_d0(self, capsys):
        code = main(["verify", "--d=-1,0,2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "(-1, 0, 2)" in err and "r must be non-negative" not in err

    def test_verify_kmax_below_top_degree(self, capsys):
        # the certificate reads no slice past k_max = 2, so slice degree
        # d_3 = 5 (ambient 3^9) is not refused under --limit 729
        code, out = run(capsys, "verify", "--d", "0,1,2,5", "--kmax", "2", "--limit", "729")
        assert code == 0 and json.loads(out)["passed"] is True
        assert run(capsys, "verify", "--d", "0,1,2,5", "--kmax", "2", "--limit", "100000") == (0, out)

    def test_examples(self, capsys):
        code, out = run(capsys, "examples")
        assert code == 0
        assert "0,3,4,7" in out.replace(" ", "") or "(0, 3, 4, 7)" in out


class TestCallOrder:
    """Answers carry nothing over from an earlier sequence in the same
    process: each command in A-B-A order prints what a fresh process does."""

    SEQUENCES = ("0,3,4,7", "0,1,3")

    @pytest.mark.parametrize(
        "argv",
        [
            ["betti", "--construction", "F"],
            ["betti", "--construction", "H"],
            ["scan"],
            ["profile"],
            ["verify"],
        ],
        ids=["betti-F", "betti-H", "scan", "profile", "verify"],
    )
    def test_matches_a_fresh_process(self, capsys, argv):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        fresh = {}
        for d in self.SEQUENCES:
            res = subprocess.run(
                [sys.executable, "-m", "pureres.cli", *argv, "--d", d],
                capture_output=True,
                env=env,
                timeout=60,
            )
            fresh[d] = (res.returncode, res.stdout.decode("utf-8"))
        a, b = self.SEQUENCES
        for d in (a, b, a):
            assert run(capsys, *argv, "--d", d) == fresh[d], d


class TestHelp:
    def test_subcommand_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert "{betti,primitive,bott,scan,profile,duality,super,verify,examples}" in usage


class TestReproduction:
    def test_rows_flag_discrepancy(self):
        rows = reproduction_rows()
        by_d = {tuple(r["d"]): r for r in rows}
        assert by_d[(0, 3, 4, 7)]["agree"]
        assert by_d[(0, 4, 9, 13)]["agree"]
        row = by_d[(0, 1, 4, 6)]
        assert not row["agree"]
        assert row["F_multiple"] == 3
        assert row["claimed_F"] == 5
        assert row["note"]


BIG = 10**20  # past 2^63 - 1


class TestBigIntJson:
    def test_large_ranks_as_strings(self, capsys):
        # (0, 1, 19, 20) has astronomically large H-ranks
        code, out = run(capsys, "betti", "--construction", "H", "--d", "0,1,19,20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        big = [r["rank"] for r in doc["rows"] if isinstance(r["rank"], str)]
        for v in big:
            assert int(v) > 2**63 - 1

    def test_rule_holds_at_any_depth(self):
        n = 2**63
        doc = {1: [n - 1, -n, (True, None, "x")], "k": {"v": -(n - 1)}}
        assert to_json(doc) == f'{{"1":[{n - 1},"{-n}",[true,null,"x"]],"k":{{"v":{-(n - 1)}}}}}\n'

    # one command line per JSON command, each with an integer past 2^63 - 1
    # outside the ranks, and the whole payload it must print
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                f"betti --construction F --d 0,{BIG}",
                {
                    "kind": "F", "m": 1, "d": [0, str(BIG)], "twist_convention": "absolute",
                    "rows": [
                        {"i": 0, "twist": 0, "weight": [], "rank": 1},
                        {"i": 1, "twist": str(BIG), "weight": [str(BIG)], "rank": 1},
                    ],
                    "primitive": [1, 1], "multiple": 1, "herzog_kuhl_ok": True,
                },
            ),
            (f"primitive --d 0,{BIG}", {"d": [0, str(BIG)], "primitive": [1, 1]}),
            (
                f"bott --alpha {BIG} --u 0 --m 2",
                {"vanishes": False, "h": 0, "weight": [str(BIG), 0], "trace": [str(BIG + 1), 0]},
            ),
            (
                f"duality --d 0,{BIG}",
                {
                    "d": [0, str(BIG)], "is_symmetric": True, "ranks_palindromic": True,
                    "complements_match": True, "rectangle": [str(BIG), 1], "passed": True,
                },
            ),
            (
                f"profile --d {BIG},{BIG + 1}",
                {
                    "d": [str(BIG), str(BIG + 1)], "hilbert_function": {str(BIG): 1},
                    "top_degree": str(BIG), "socle_weight": [str(BIG)], "socle_dim": 1,
                },
            ),
            (
                f"scan --d {BIG},{BIG + 1}",
                {
                    "d": [str(BIG), str(BIG + 1)], "dim_f": 1, "dim_g": 1,
                    "outcomes": [
                        {"u": 0, "vanishes": False, "h": 0, "weight": [0]},
                        {"u": 1, "vanishes": False, "h": 0, "weight": [1]},
                    ],
                    "terms": [
                        {"i": 0, "u": 0, "h": 0, "weight": [0], "rank": 1},
                        {"i": 1, "u": 1, "h": 0, "weight": [1], "rank": 1},
                    ],
                },
            ),
        ],
        ids=["betti", "primitive", "bott", "duality", "profile", "scan"],
    )
    def test_every_field(self, capsys, argv, expected):
        # byte comparison: a big int must be its decimal string, an
        # in-range int a JSON number and a bool a JSON bool
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert out == json.dumps(expected, separators=(",", ":")) + "\n"


class TestValidationOrder:
    def test_verify_m_rejected_before_certificate(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("verify_exactness called before --m was checked")

        monkeypatch.setattr("pureres.exactness.verify_exactness", boom)
        code, out = run(capsys, "verify", "--m", "7", "--d", "0,1,2,4")
        assert code == 2
        assert out == ""

    def test_betti_m_rejected_before_table(self, capsys, monkeypatch):
        # a sequence too long for betti_F is still invalid input when --m
        # disagrees with its length: exit 2, not the table's resource limit
        def boom(*args, **kwargs):
            raise AssertionError("betti_F called before --m was checked")

        monkeypatch.setattr("pureres.resolutions.betti_F", boom)
        d = ",".join(str(x) for x in range(66))
        code, out = run(capsys, "betti", "--construction", "F", "--d", d, "--m", "3")
        assert code == 2
        assert out == ""


class TestStartup:
    def test_import_loads_no_dataclasses_or_inspect(self):
        # each CLI call is a fresh process; dataclasses (which loads inspect,
        # ast, dis and tokenize) cost about 20 ms of it.  Only modules new
        # to sys.modules count, so a site that preloads them still passes.
        code = (
            "import sys; before = set(sys.modules); import pureres.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=30,
        )
        assert res.returncode == 0, res.stderr.decode(errors="replace")
        new = res.stdout.decode().split()
        assert "pureres.cli" in new
        assert "dataclasses" not in new
        assert "inspect" not in new


class TestHostileInputs:
    @pytest.mark.parametrize(
        "argv, code",
        [
            # drawing a 10^9-box Young diagram ran out of time
            ("betti --construction F --d 0,1000000000 --format pretty", 0),
            ("super --construction F --lam 10,7 --e1 1000000000 --N 3 --format pretty", 0),
            # super tables had no cost bound: a 10^30-row table, a 10^5- or
            # 10^9-dimensional even part (MemoryError), and 64 rows of huge
            # binomials all ran past the bound
            ("super --construction F --lam 1 --e1 2 --n 2 --N " + str(10**30), 3),
            ("super --construction F --lam 2 --e1 1 --m 100000 --n 1 --N 3", 3),
            ("super --construction H --lam 2 --e1 1 --m0 1000000000 --m1 2 --u0 1 --u1 1", 3),
            ("super --construction F --lam 20 --e1 5 --n 1000000000 --N 64", 3),
        ],
    )
    def test_bounded_in_a_capped_child(self, argv, code):
        t0 = time.perf_counter()
        assert run_capped(argv.split(), 10.0) == code
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--d", "0,1000000000"),
            ("betti", "--construction", "H", "--d", "0,1000000000"),
            # dim F = 200 is allowed, but not over 101 rows
            ("scan", "--d", ",".join(map(str, (0, *range(200, 300))))),
            ("betti", "--construction", "H", "--d", ",".join(map(str, (0, *range(200, 300))))),
            # 10,000 rows at dim F = 200: refused before the scan builds its traces
            ("scan", "--d", ",".join(map(str, (0, *range(200, 10200))))),
        ],
    )
    def test_huge_det_dimension_is_a_resource_limit(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 3
        assert out == ""

    def test_refusal_prints_a_cost_past_the_digit_cap_in_full(self, capsys):
        # the library gives the bit length of a cost of more than 4300
        # digits; the command lifts that cap, so its message keeps the number
        assert main(["profile", "--d", "0,1" + "0" * 5000]) == 3
        err = capsys.readouterr().err
        assert err == "resource limit: module profile span top - d_0 = " + "9" * 5000 + " > limit 100\n"

    @pytest.mark.parametrize("d", ["0,1000000000", "0,1,1000000"])
    def test_huge_profile_span_is_a_resource_limit(self, capsys, d):
        code, out = run(capsys, "profile", "--d", d)
        assert code == 3
        assert out == ""

    def test_many_profile_strips_is_a_resource_limit(self, capsys):
        # (0,20,40,60,80,100) has span 95 but 20^5 strips over 5 rows
        t0 = time.perf_counter()
        code, out = run(capsys, "profile", "--d", "0,20,40,60,80,100")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""

    def test_long_degree_sequence_is_a_resource_limit(self, capsys):
        # betti_F took about 2 minutes at m = 300 before it had a length limit
        t0 = time.perf_counter()
        code, out = run(capsys, "betti", "--construction", "F", "--d", ",".join(map(str, range(301))))
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""

    def test_huge_degrees_are_a_resource_limit(self, capsys):
        # betti_F took about 13 s on gaps of 10^4000 at m = 16
        d = ",".join(str(i * 10**4000) for i in range(17))
        t0 = time.perf_counter()
        code, out = run(capsys, "betti", "--construction", "F", "--d", d)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""

    def test_one_step_lab_is_bounded(self):
        # m = 1 has ambient dimension 1^N = 1; the lab used to build a
        # 10^8-letter filling and ran out of memory.  Run in a child process
        # under a 1 GiB address-space cap, as below.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-m", "pureres.cli", "verify", "--d", "0,100000000"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=cap_memory,
            timeout=10,
        )
        assert res.returncode == 3, res.stderr.decode(errors="replace")
        assert res.stdout == b""

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                "--construction F --lam 1 --e1 1 --m 1 --n 1000000000",
                '{"kind":"F_super","lam":[1],"e1":1,"m":1,"n":1000000000,"d":[0,1],'
                '"twist_convention":"absolute","rows":[{"i":0,"twist":0,"weight":[1],'
                '"rank":1000000001},{"i":1,"twist":1,"weight":[2],"rank":500000000500000001}],'
                '"truncated_at":1}',
            ),
            (
                "--construction H --lam 1 --e1 1 --m0 1 --m1 1000000000 --u0 1 --u1 1000000000",
                '{"kind":"H_super","lam":[1],"e1":1,"m0":1,"m1":1000000000,"u0":1,'
                '"u1":1000000000,"d":[0,1],"twist_convention":"absolute","rows":[{"i":0,'
                '"twist":0,"weight":[1],"rank":1000000001,"weight2":[]},{"i":1,"twist":1,'
                '"weight":[2],"rank":"500000001000000001500000001","weight2":[1]}],'
                '"truncated_at":1}',
            ),
        ],
        ids=["F", "H"],
    )
    def test_huge_odd_dimension_is_fast(self, argv, stdout):
        # The odd factor needs C(n, k) only for k <= lam_1 + len(lam).  Run in a
        # child process under a 1 GiB address-space cap and a timeout, so that
        # work growing with n fails the test instead of exhausting memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, "-m", "pureres.cli", "super", *argv.split(), "--N", "1"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=cap_memory,
            timeout=10,
        )
        assert res.returncode == 0, res.stderr.decode(errors="replace")
        assert res.stdout.decode() == stdout + "\n"


# Integers for flags: small, moderate and hostile values.
HUGE = st.sampled_from([10**9, -(10**9), 2**63, 10**30, 10**400])
INTS = st.one_of(st.integers(-3, 12), st.integers(-1000, 1000), HUGE)
SMALL = st.one_of(st.integers(0, 6), INTS)
POSITIVE = st.one_of(st.integers(1, 6), INTS)
# Lists that pass validation (increasing degree sequences, weakly decreasing
# weights, with small and huge steps) three times in four; arbitrary ones
# otherwise.
BIG = st.sampled_from([1000, 10**9, 10**30])
STEPS = st.lists(st.one_of(st.integers(1, 4), st.integers(1, 4), BIG), min_size=1, max_size=6)
DEGREES = st.builds(lambda d0, steps: list(accumulate(steps, initial=d0)), st.integers(-2, 3), STEPS)
WEIGHTS = st.lists(st.one_of(st.integers(0, 6), st.integers(0, 6), BIG), max_size=6).map(
    lambda parts: sorted(parts, reverse=True)
)
RAW = st.lists(INTS, max_size=7)


def as_flag(lists):
    return st.one_of(lists, lists, lists, RAW).map(lambda xs: ",".join(map(str, xs)))


D, LAM = as_flag(DEGREES), as_flag(WEIGHTS)
# long unit-gap degree sequences, sometimes with one more gap, for profile
# half the time: up to m = 1414 they pass its strip limit, and they hang if
# a Weyl dimension multiplies out the pairs of zero rows
UNIT_RUNS = st.builds(
    lambda d0, n, gap: list(range(d0, d0 + n)) + ([d0 + n - 1 + gap] if gap else []),
    st.integers(-2, 3),
    st.integers(100, 1415),
    st.one_of(st.none(), st.integers(2, 4), BIG),
).map(lambda xs: ",".join(map(str, xs)))
CONSTRUCTION = st.sampled_from("FH")
# each command's flags; a trailing "?" marks an optional one
FLAGS = {
    "betti": {"--construction": CONSTRUCTION, "--d": D, "--m?": SMALL},
    "primitive": {"--d": D},
    "bott": {"--alpha": LAM, "--u": SMALL, "--m": SMALL},
    "scan": {"--d": D},
    "profile": {"--d": st.one_of(UNIT_RUNS, D)},
    "duality": {"--d": D},
    "super": {
        "--construction": CONSTRUCTION, "--lam": LAM, "--e1": POSITIVE, "--m?": SMALL,
        "--n?": SMALL, "--m0?": SMALL, "--m1?": SMALL, "--u0?": SMALL, "--u1?": SMALL,
        "--N?": SMALL,
    },
    "verify": {"--d": D, "--m?": SMALL, "--kmax?": SMALL, "--limit?": INTS},
    "examples": {},
}


# --m is checked against the length n of the list before it: m = n - 1 for
# --d, m = n + 1 for --alpha.  Three times in four it is drawn near that
# value, so that most examples get past the check.
M_FROM_LENGTH = {"betti": -1, "bott": 1, "verify": -1}
NEAR = st.sampled_from([0, 0, 0, -1, 1])


@st.composite
def command_lines(draw, cmd):
    argv = [cmd]
    length = 0
    for flag, values in FLAGS[cmd].items():
        if flag.endswith("?") and not draw(st.booleans()):
            continue
        name = flag.rstrip("?")
        if name == "--m" and cmd in M_FROM_LENGTH and draw(st.integers(0, 3)):
            value = length + M_FROM_LENGTH[cmd] + draw(NEAR)
        else:
            value = draw(values)
        if name in ("--d", "--alpha"):
            length = value.count(",") + 1 if value else 0
        argv.append(f"{name}={value}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv', 'pretty']))}")
    return argv


def _cli_child(argv):
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    sys.stdout = sys.stderr = open(os.devnull, "w")
    sys.exit(main(argv))


def run_capped(argv, bound_s: float):
    """Exit code of the command line run in a child forked from this
    process (which has pureres imported already, so a child costs
    milliseconds, not an interpreter start) under a 1 GiB address-space
    cap, or None if it was still running after bound_s."""
    assert threading.active_count() == 1, "forking is safe only without other threads"
    child = multiprocessing.get_context("fork").Process(target=_cli_child, args=(argv,))
    child.start()
    child.join(bound_s)
    if child.is_alive():
        child.kill()
        child.join()
        return None
    return child.exitcode


class TestFuzz:
    """Every command line ends in an answer (0), invalid input (2) or a
    resource limit (3) within a bounded time and 1 GiB of address space;
    a hang or a memory blow-up fails the example instead of the run."""

    @pytest.mark.parametrize("cmd", sorted(FLAGS))
    @settings(derandomize=True, database=None, max_examples=7, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, cmd, data):
        argv = data.draw(command_lines(cmd))
        assert run_capped(argv, 10.0) in (0, 2, 3), argv
