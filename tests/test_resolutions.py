import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pureres import resolutions
from pureres.bott import det_bott_scan, scan_ranks
from pureres.exactness import DimLimitError, SliceLab, realize_schur, verify_exactness
from pureres.partitions import conjugate, dim_gl, dim_super, pieri_expand, trim
from pureres.render import betti_to_dict, to_json
from pureres.resolutions import (
    BETTI_COST_LIMIT,
    BETTI_LENGTH_LIMIT,
    DET_COST_LIMIT,
    DET_DIM_LIMIT,
    PROFILE_SPAN_LIMIT,
    PROFILE_STRIP_LIMIT,
    RECORD_SIZE,
    AmbiguousSocleError,
    NotIntegralError,
    NotOnRayError,
    ResourceLimitError,
    alpha,
    base_weight,
    betti_F,
    betti_F_super,
    betti_H,
    betti_H_super,
    check_degrees,
    check_herzog_kuhl,
    degree_data,
    degrees,
    det_setup,
    diffs,
    duality_check,
    gamma,
    herzog_kuhl_primitive,
    hilbert_M_euler,
    hilbert_M_strips,
    module_profile,
    multiple_of_primitive,
    super_degree_data,
)

from oracles import random_degrees, strip_filter_hilbert


class TaggedDegree(int):
    """An int subclass whose repr differs from the int it equals."""

    def __repr__(self):
        return f"TaggedDegree({int(self)})"


class TestDegreeData:
    def test_diffs_roundtrip(self):
        rng = random.Random(10)
        for _ in range(200):
            d = random_degrees(rng, 6, 30)
            assert degrees(diffs(d)) == d

    def test_check_degrees_rejects(self):
        with pytest.raises(ValueError):
            check_degrees((0, 3, 3))
        with pytest.raises(ValueError):
            check_degrees((2, 1))
        with pytest.raises(ValueError):
            check_degrees(())

    @pytest.mark.parametrize(
        "d, message",
        [
            ((3, 1.5), "degree 1.5 in (3, 1.5) is not an integer"),
            ((2, True), "degree sequence must be strictly increasing: (2, True)"),
            # the non-integer is reported, though the sequence stopped increasing first
            ((0, 0, "a"), "degree 'a' in (0, 0, 'a') is not an integer"),
            ((5,), "degree sequence needs at least two entries: (5,)"),
            # plain ints take the one-pass path, the others are converted;
            # either way the message quotes the caller's entries
            ((0, True, True), "degree sequence must be strictly increasing: (0, True, True)"),
            ((0, 2, 2), "degree sequence must be strictly increasing: (0, 2, 2)"),
            (iter([3, 1]), "degree sequence must be strictly increasing: (3, 1)"),
            (
                (TaggedDegree(2), TaggedDegree(1)),
                "degree sequence must be strictly increasing: (TaggedDegree(2), TaggedDegree(1))",
            ),
        ],
    )
    def test_check_degrees_messages(self, d, message):
        with pytest.raises(ValueError) as info:
            check_degrees(d)
        assert str(info.value) == message

    @pytest.mark.parametrize("d", [(0, 1.5, 3), (0, 1, 3.0), (Fraction(1, 2), 2), ("0", "1")])
    @pytest.mark.parametrize(
        "entry",
        [
            betti_F,
            betti_H,
            module_profile,
            lambda d: hilbert_M_euler(d, 2),
            lambda d: hilbert_M_strips(d, 2),
            duality_check,
            det_bott_scan,
            herzog_kuhl_primitive,
        ],
        ids=[
            "betti_F",
            "betti_H",
            "module_profile",
            "hilbert_M_euler",
            "hilbert_M_strips",
            "duality_check",
            "det_bott_scan",
            "herzog_kuhl_primitive",
        ],
    )
    def test_non_integer_degrees_are_invalid(self, entry, d):
        with pytest.raises(ValueError, match="not an integer"):
            entry(d)

    def test_base_weight_golden(self):
        # d = (0, 3, 4, 7): e = (0, 3, 1, 3), lam_i = sum_{j > i} (e_j - 1)
        assert base_weight((0, 3, 4, 7)) == (2, 2, 0)
        assert base_weight((0, 1, 2)) == (0, 0)

    def test_alpha_goldens(self):
        d = (0, 3, 4, 7)
        assert trim(alpha(d, 0)) == (2, 2)
        assert trim(alpha(d, 1)) == (5, 2)
        assert trim(alpha(d, 2)) == (5, 3)
        assert trim(alpha(d, 3)) == (5, 3, 3)

    def test_alpha_degrees(self):
        rng = random.Random(11)
        for _ in range(100):
            d = random_degrees(rng, 6, 25)
            lam = base_weight(d)
            for i in range(len(d)):
                assert sum(alpha(d, i)) == sum(lam) + d[i] - d[0]

    def test_gamma_is_conjugate(self):
        rng = random.Random(12)
        for _ in range(100):
            d = random_degrees(rng, 5, 20)
            for i in range(len(d)):
                normalized = tuple(a - d[0] for a in alpha(d, i))
                assert gamma(d, i) == conjugate(normalized)


class TestBettiF:
    def test_golden_0347(self):
        t = betti_F((0, 3, 4, 7))
        assert t.twists == (0, 3, 4, 7)
        assert t.ranks == (6, 42, 42, 6)
        assert t.rows[2].weight == (5, 3)

    def test_golden_04913(self):
        t = betti_F((0, 4, 9, 13))
        assert multiple_of_primitive(t) == 18
        assert t.ranks == (90, 234, 234, 90)

    def test_koszul(self):
        # consecutive degrees give the Koszul complex
        m = 4
        t = betti_F(tuple(range(m + 1)))
        assert t.ranks == tuple(comb(m, i) for i in range(m + 1))

    def test_shift_invariance(self):
        a = betti_F((0, 2, 3, 5))
        b = betti_F((4, 6, 7, 9))
        assert a.ranks == b.ranks


class TestBettiH:
    def test_golden_0347(self):
        t = betti_H((0, 3, 4, 7))
        assert t.params["dim_f"] == 5
        assert t.params["dim_g"] == 7
        assert t.ranks == (50, 350, 350, 50)

    def test_golden_04913(self):
        t = betti_H((0, 4, 9, 13))
        assert t.ranks == (45375, 117975, 117975, 45375)

    def test_relative_twists(self):
        t = betti_H((2, 5, 6, 9))
        assert t.twists == (0, 3, 4, 7)


class TestHerzogKuhl:
    def test_primitives(self):
        assert herzog_kuhl_primitive((0, 3, 4, 7)) == (1, 7, 7, 1)
        assert herzog_kuhl_primitive((0, 4, 9, 13)) == (5, 13, 13, 5)
        assert herzog_kuhl_primitive((0, 1, 4, 6)) == (5, 8, 5, 2)
        assert herzog_kuhl_primitive((0, 1, 2, 3)) == (1, 3, 3, 1)

    def test_multiples(self):
        assert multiple_of_primitive(betti_F((0, 3, 4, 7))) == 6
        assert multiple_of_primitive(betti_H((0, 3, 4, 7))) == 50
        assert multiple_of_primitive(betti_F((0, 4, 9, 13))) == 18
        assert multiple_of_primitive(betti_H((0, 4, 9, 13))) == 9075

    def test_errors(self):
        from pureres.resolutions import BettiRow, BettiTable

        d = (0, 3, 4, 7)
        rows = tuple(
            BettiRow(i=i, twist=d[i], weight=(), rank=r)
            for i, r in enumerate((1, 7, 7, 2))
        )
        with pytest.raises(NotOnRayError):
            multiple_of_primitive(BettiTable(kind="F", d=d, rows=rows))
        # twice (5, 8, 5, 2) is on the ray for (0, 1, 4, 6) but an odd
        # multiple of its tail (5, 8, 5, 3)-style vectors is not; the
        # non-integral case arises when ranks sit on the ray over Q only
        doubled = tuple(
            BettiRow(i=i, twist=t, weight=(), rank=r)
            for i, (t, r) in enumerate(zip((0, 3, 4, 7), (3, 21, 21, 3)))
        )
        assert (
            multiple_of_primitive(BettiTable(kind="F", d=(0, 3, 4, 7), rows=doubled))
            == 3
        )

    def test_hk_equations_fuzz(self):
        rng = random.Random(13)
        for _ in range(100):
            d = random_degrees(rng, 6, 40)
            m = len(d) - 1
            assert check_herzog_kuhl(betti_F(d), m)
            p = herzog_kuhl_primitive(d)
            assert multiple_of_primitive(betti_F(d)) * p[0] == betti_F(d).ranks[0]


class TestHilbert:
    def test_euler_vs_strips(self):
        rng = random.Random(14)
        for _ in range(30):
            d = random_degrees(rng, 4, 12)
            top = alpha(d, 1)[0] - 1
            for k in range(d[0] - 1, top + 3):
                assert hilbert_M_euler(d, k) == hilbert_M_strips(d, k), (d, k)

    def test_strips_far_past_top_at_once(self):
        # no walk or list grows with the degree once no strip fits
        t0 = time.perf_counter()
        assert hilbert_M_strips((0, 3, 4, 7), 10**18) == 0
        assert time.perf_counter() - t0 < 0.1

    def test_profile_0347(self):
        p = module_profile((0, 3, 4, 7))
        assert p.top_degree == 4
        assert p.socle_weight == (4, 2, 2)
        assert p.socle_dim == 6
        assert p.hf[0] == dim_gl(base_weight((0, 3, 4, 7)), 3)
        assert all(v > 0 for v in p.hf.values())

    def test_profile_socle_matches_last_betti(self):
        rng = random.Random(15)
        for _ in range(25):
            d = random_degrees(rng, 4, 10)
            try:
                p = module_profile(d)
            except AmbiguousSocleError:
                pytest.fail(f"ambiguous socle for {d}")
            assert p.socle_dim == betti_F(d).ranks[-1]
            assert hilbert_M_strips(d, p.top_degree + 1) == 0

    def test_profile_span_limit(self):
        # for d = (0, e) the module lives in degrees 0..e - 1
        p = module_profile((0, PROFILE_SPAN_LIMIT + 1))
        assert p.top_degree == PROFILE_SPAN_LIMIT
        with pytest.raises(ResourceLimitError):
            module_profile((0, PROFILE_SPAN_LIMIT + 2))

    def test_profile_strip_limit(self):
        # M(d) has prod e_i strips in all; e = (2^5, 5^4, 1) gives
        # 20000 * 10^2 = the limit, e = (2, 3^4, 5^3, 1, 1) 1.25% more
        at_limit = degrees((0, 2, 2, 2, 2, 2, 5, 5, 5, 5, 1))
        assert 20000 * 10**2 == PROFILE_STRIP_LIMIT
        assert module_profile(at_limit).socle_dim == betti_F(at_limit).ranks[-1]
        with pytest.raises(ResourceLimitError):
            module_profile(degrees((0, 2, 3, 3, 3, 3, 5, 5, 5, 1, 1)))

    def test_betti_length_limit(self):
        # hilbert_M_euler and duality_check (e = 1, ..., 1 is symmetric) go
        # through betti_F, so they share its limit
        at_limit = range(BETTI_LENGTH_LIMIT + 1)
        assert len(betti_F(at_limit).rows) == BETTI_LENGTH_LIMIT + 1
        over = range(BETTI_LENGTH_LIMIT + 2)
        for entry in (betti_F, duality_check, lambda d: hilbert_M_euler(d, 0)):
            with pytest.raises(ResourceLimitError):
                entry(over)

    def test_betti_cost_limit(self):
        # m = 8: the largest d_8 - d_0 that passes has BETTI_COST_LIMIT / 64 bits
        bits = BETTI_COST_LIMIT // 64
        assert betti_F(tuple(range(8)) + (2 ** (bits - 1),)).rows[-1].twist == 2 ** (bits - 1)
        # hilbert_M_euler shares the limit even where it needs no rank
        for entry in (betti_F, lambda d: hilbert_M_euler(d, d[0])):
            with pytest.raises(ResourceLimitError):
                entry(tuple(range(8)) + (2**bits,))

    def test_profile_matches_both_hilbert_functions(self):
        # every d with 0 <= d_0 <= 1, m <= 4 and d_m <= 9
        for d0 in (0, 1):
            for m in range(1, 5):
                for rest in combinations(range(d0 + 1, 10), m):
                    d = (d0,) + rest
                    p = module_profile(d)
                    assert list(p.hf) == list(range(d0, p.top_degree + 1))
                    for k, v in p.hf.items():
                        assert v == hilbert_M_strips(d, k) == hilbert_M_euler(d, k), (d, k)

    def test_profile_twist_invariance(self):
        # M(d + c) is M(d) twisted by the c-th power of the determinant:
        # degrees and socle weight move by c, dimensions stay
        def pad(w, m):
            return w + (0,) * (m - len(w))

        for m in range(1, 4):
            for rest in combinations(range(1, 7), m):
                d = (0,) + rest
                base = module_profile(d)
                for c in range(-3, 4):
                    p = module_profile(tuple(x + c for x in d))
                    assert p.hf == {k + c: v for k, v in base.hf.items()}, (d, c)
                    assert p.top_degree == base.top_degree + c
                    assert pad(p.socle_weight, m) == tuple(
                        x + c for x in pad(base.socle_weight, m)
                    ), (d, c)
                    assert p.socle_dim == base.socle_dim

    def test_strip_count_is_product_of_gaps(self):
        # d_0 shifted by c, also below 0; no strip lies below d_0
        for e, count in (((0, 4, 5, 4), 80), ((1, 2, 3), 6), ((0, 1, 1, 3, 2), 6)):
            for c in (0, -2, 3):
                d = degrees((e[0] + c,) + e[1:])
                p = module_profile(d)
                r = degree_data(d)
                assert pieri_expand(r.base, -1, r.m, cap=r.top) == []
                strips = sum(
                    len(pieri_expand(r.base, k - d[0], r.m, cap=r.top))
                    for k in range(d[0] - 1, p.top_degree + 1)
                )
                assert strips == count, (d, c)


@st.composite
def degree_sequences(draw):
    gaps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    return degrees([draw(st.integers(-3, 3))] + gaps)


class TestHilbertOracle:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(degree_sequences(), st.integers(-1, 30))
    def test_strips_match_filter_and_euler(self, d, j):
        top = alpha(d, 1)[0] - 1
        k = d[0] + j % (top - d[0] + 3) - 1  # d_0 - 1 .. top + 1
        assert hilbert_M_strips(d, k) == strip_filter_hilbert(d, k)
        assert hilbert_M_strips(d, k) == hilbert_M_euler(d, k)


class TestDuality:
    def test_symmetric_case(self):
        # e = (2, 3, 1, 3, 2) is palindromic
        d = degrees((0, 2, 3, 1, 3, 2))
        assert d == (0, 2, 5, 6, 9, 11)
        r = duality_check(d)
        assert r.passed
        assert r.rectangle == (7, 5)

    def test_koszul_always_self_dual(self):
        for m in range(1, 6):
            assert duality_check(tuple(range(m + 1))).passed

    def test_symmetric_e313(self):
        # e = (3, 1, 3) is palindromic, so (0, 3, 4, 7) is self-dual
        assert duality_check((0, 3, 4, 7)).passed

    def test_asymmetric_case(self):
        r = duality_check((0, 1, 4, 6))  # e = (1, 3, 2)
        assert not r.is_symmetric
        assert not r.passed


class TestSuper:
    def test_degree_rule(self):
        sd = super_degree_data((3, 1, 1), 2)
        assert [sd.e(i) for i in range(1, 7)] == [2, 3, 1, 2, 1, 1]
        assert sd.degree_prefix(6) == (0, 2, 5, 6, 8, 9, 10)
        assert sd.alpha(0) == (3, 1, 1)

    def test_super_reduces_to_classical(self):
        # with n = 0 and lam fitting in m rows, the truncation of the super
        # table reproduces the classical finite one
        d = (0, 2, 3, 5)
        lam = base_weight(d)
        assert lam == (1, 1, 0)
        lam = trim(lam)
        t = betti_F_super(lam, 2, 3, 0, N=8)
        cl = betti_F((0, 2, 3, 5))
        for i in range(4):
            assert t.rows[i].rank == cl.rows[i].rank
            assert t.rows[i].twist == cl.rows[i].twist
        # beyond the classical length every rank vanishes by hook containment
        assert all(r.rank == 0 for r in t.rows[4:])

    def test_super_ranks_positive_generically(self):
        t = betti_F_super((2, 1), 2, 2, 1, N=10)
        assert t.kind == "F_super"
        assert t.truncated_at is not None
        assert t.rows[0].rank > 0
        sd = super_degree_data((2, 1), 2)
        for row in t.rows:
            assert row.rank == dim_super(sd.alpha(row.i), 2, 1)

    def test_super_H_table(self):
        t = betti_H_super((2, 1), 2, (1, 1), (2, 1), N=8)
        assert t.kind == "H_super"
        assert all(r.rank >= 0 for r in t.rows)
        assert t.rows[0].rank > 0

    def test_super_euler_nonnegative(self):
        # alternating sums of rank * dim of the ambient graded piece stay
        # nonnegative: the complex resolves a module
        rng = random.Random(16)
        for _ in range(20):
            lam = tuple(
                sorted((rng.randint(0, 3) for _ in range(rng.randint(0, 3))), reverse=True)
            )
            lam = trim(lam)
            e1 = rng.randint(1, 3)
            m = rng.randint(1, 2)
            n = rng.randint(1, 2)
            t = betti_F_super(lam, e1, m, n, N=14)
            sd = super_degree_data(lam, e1)
            for k in range(0, 10):
                total = 0
                for row in t.rows:
                    shift = k - row.twist
                    if shift < 0:
                        continue
                    total += (-1) ** row.i * row.rank * dim_super((shift,), m, n)
                assert total >= 0, (lam, e1, m, n, k)


# one table of each kind, N omitted: (kind, builder, rows carry a weight2,
# default truncation len(lam) + the dimensions + 2, None when finite); both
# super tables have rows of rank 0 and rows of positive rank
ROW_RULE_CASES = [
    ("F", lambda: betti_F((0, 2, 3, 5)), False, None),
    ("H", lambda: betti_H((0, 2, 3, 5)), True, None),
    ("F_super", lambda: betti_F_super((2, 1, 0), 2, 2, 1), False, 2 + 2 + 1 + 2),
    ("H_super", lambda: betti_H_super((2, 1), 2, (1, 1), (2, 1)), True, 2 + 1 + 1 + 2 + 1 + 2),
]


class TestRowRule:
    @pytest.mark.parametrize(
        "kind, build, has_weight2, default_n", ROW_RULE_CASES, ids=[c[0] for c in ROW_RULE_CASES]
    )
    def test_one_row_rule_for_every_kind(self, kind, build, has_weight2, default_n):
        t = build()
        assert t.kind == kind
        assert [r.i for r in t.rows] == list(range(len(t.rows)))
        assert all(r.vanishing == (r.rank == 0) for r in t.rows)
        assert all((r.weight2 is not None) == has_weight2 for r in t.rows)
        # the weight2 of the row at twist or degree 0 is (), not None
        assert t.rows[0].weight2 == (() if has_weight2 else None)
        assert t.truncated_at == default_n
        if default_n is not None:
            assert len(t.rows) == default_n + 1


class TestDetSetup:
    def test_golden(self):
        s = det_setup((0, 3, 4, 7))
        assert (s.s, s.dim_f, s.dim_g) == (3, 5, 7)
        assert s.lambda_det == gamma((0, 3, 4, 7), 0)

    def test_dim_limit(self):
        # dim F = 1 + sum(e_i - 1); the check runs before gamma() allocates
        assert det_setup((0, DET_DIM_LIMIT)).dim_f == DET_DIM_LIMIT
        with pytest.raises(ResourceLimitError):
            det_setup((0, DET_DIM_LIMIT + 1))

    def test_gammas_visit_only_the_gaps(self):
        # unit gaps give dim F = 1: all s + 1 weights take O(s), not O(s^2)
        t0 = time.perf_counter()
        assert det_setup(range(10**5)).dim_f == 1
        scan = det_bott_scan(range(6000))
        assert time.perf_counter() - t0 < 2.0
        assert len(scan.assignments) == 6000

    @pytest.mark.parametrize("d", [(0,) + tuple(range(200, 300)), tuple(range(6000))])
    def test_cost_limit(self, d):
        # DET_DIM_LIMIT bounds dim F only: 101 rows at dim F = 200 took 5.5 s
        # in Weyl dimensions, 6000 unit gaps 3.1 s in the weight2 rows
        scan = det_bott_scan(d)
        for table in (lambda: betti_H(d), lambda: scan_ranks(scan)):
            t0 = time.perf_counter()
            with pytest.raises(ResourceLimitError, match=f"> limit {DET_COST_LIMIT}$"):
                table()
            assert time.perf_counter() - t0 < 0.5

    def test_cost_limit_accepts(self):
        d = (0, DET_DIM_LIMIT)
        assert scan_ranks(det_bott_scan(d)) == dict(enumerate(betti_H(d).ranks))

    def test_scan_cost_limit_before_the_traces(self):
        # a dim F-entry trace per u = 0..dim G: (0, 200, ..., 10199) built
        # 10,200 traces of 200 entries (0.6 s, 38 MB traced) before scan_ranks
        # could refuse them
        d = (0,) + tuple(range(200, 10200))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ResourceLimitError, match=f"> limit {DET_COST_LIMIT}$"):
                det_bott_scan(d)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 10**6


RECORD_PARTS = (
    resolutions._degree_data,
    resolutions._f_terms,
    resolutions._det_terms,
    resolutions._hilbert_function,
    resolutions._primitive,
)


def clear_record():
    for part in RECORD_PARTS:
        part.cache_clear()


# single answers for d, each through one public entry point
QUERIES = [
    lambda d: (betti_F(d), betti_F(d).params),
    lambda d: (betti_H(d), betti_H(d).params),
    lambda d: hilbert_M_euler(d, d[0] - 1),
    lambda d: hilbert_M_euler(d, d[0] + 2),
    lambda d: hilbert_M_euler(d, d[-1]),
    lambda d: hilbert_M_strips(d, d[0] + 1),
    lambda d: hilbert_M_strips(d, d[0] + 3),
    module_profile,
    duality_check,
    det_bott_scan,
    det_setup,
    base_weight,
    diffs,
    lambda d: alpha(d, len(d) - 1),
    lambda d: gamma(d, 1),
    lambda d: multiple_of_primitive(betti_F(d)),
    herzog_kuhl_primitive,
]

# every entry point that reads the record, each called once on d
CHECKED_ENTRIES = {
    "betti_F": betti_F,
    "betti_H": betti_H,
    "herzog_kuhl_primitive": herzog_kuhl_primitive,
    "module_profile": module_profile,
    "duality_check": duality_check,
    "hilbert_M_euler": lambda d: hilbert_M_euler(d, d[-1]),
    "hilbert_M_strips": lambda d: hilbert_M_strips(d, d[0] + 2),
    "det_bott_scan": det_bott_scan,
}


class TestRecord:
    """The per-sequence record: bounded, and invisible in every answer."""

    @pytest.mark.parametrize("first, second", [((0, True, 3), (0, 1, 3)), ((0, 1, 3), (0, True, 3))])
    def test_bool_degrees_are_plain_ints(self, first, second):
        clear_record()
        for d in (first, second):
            table = betti_F(d)
            assert table.d == (0, 1, 3)
            text = to_json(betti_to_dict(table))
            assert '"d":[0,1,3]' in text and '"twist":true' not in text
            for rec in (table, betti_H(d), module_profile(d), duality_check(d), det_bott_scan(d)):
                assert [type(x) for x in rec.d] == [int] * 3

    def test_int_subclasses_become_ints(self):
        class Degree(int):
            pass

        d = check_degrees((Degree(0), Degree(2)))
        assert d == (0, 2) and [type(x) for x in d] == [int, int]

    def test_interleaved_calls_match_a_cleared_record(self):
        rng = random.Random(40)
        seqs = [random_degrees(rng, 5, 14) for _ in range(50)]
        calls = [(j, q) for j in range(len(seqs)) for q in range(len(QUERIES))]
        rng.shuffle(calls)
        got = {(j, q): QUERIES[q](seqs[j]) for j, q in calls}
        for (j, q), answer in got.items():
            clear_record()
            assert QUERIES[q](seqs[j]) == answer, (seqs[j], q)

    def test_stays_bounded(self):
        for j in range(200):
            d = (j % 4, j % 4 + 1 + j // 40, j % 4 + 3 + j // 40 + j % 40)
            betti_F(d)
            betti_H(d)
            module_profile(d)
        for part in RECORD_PARTS:
            info = part.cache_info()
            assert info.maxsize <= 4 and info.currsize <= info.maxsize

    def test_mutating_results_changes_no_later_answer(self):
        d = (0, 3, 4, 7)
        clear_record()
        expected = [query(d) for query in QUERIES]
        betti_F(d).params["m"] = 99
        betti_H(d).params.clear()
        hf = module_profile(d).hf
        hf[0] = -1
        hf[100] = 5
        assert [query(d) for query in QUERIES] == expected
        assert betti_F(d).params == {"m": 3}
        assert module_profile(d).hf == expected[QUERIES.index(module_profile)].hf

    def test_limits_unchanged(self):
        d = (0, 2**200000)
        assert hilbert_M_strips(d, 5) == 1
        assert alpha(d, 1) == (2**200000,)
        for _ in range(2):  # a refusal is not stored
            with pytest.raises(ResourceLimitError):
                hilbert_M_euler(d, 5)
        # gamma builds one weight and keeps no dim F limit; det_setup does
        wide = (0, DET_DIM_LIMIT + 5)
        assert gamma(wide, 1) == (1,) * (DET_DIM_LIMIT + 5)
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                det_setup(wide)

    @pytest.mark.parametrize("entry", list(CHECKED_ENTRIES.values()), ids=list(CHECKED_ENTRIES))
    @pytest.mark.parametrize("d", [(0, 3, 4, 7), (-2, 0, 1, 4, 6)])
    def test_one_check_per_call(self, entry, d, monkeypatch):
        # inside an entry point the helpers work from the checked d and its
        # record, so d is validated once, with the record cleared or warm
        calls = []

        def spy(d):
            calls.append(d)
            return check_degrees(d)

        bound = [
            module
            for name, module in list(sys.modules.items())
            if name.startswith("pureres") and getattr(module, "check_degrees", None) is check_degrees
        ]
        assert {"pureres.resolutions", "pureres.bott"} <= {m.__name__ for m in bound}
        for module in bound:
            monkeypatch.setattr(module, "check_degrees", spy)
        clear_record()
        for state in ("cold", "warm"):
            calls.clear()
            entry(d)
            assert len(calls) == 1, (state, calls)

    def test_gamma_counts_its_parts_first(self):
        # about 10^9 parts of 1 at i = 0: refused before any is built
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="gamma"):
            gamma((0, 1, 10**9), 0)
        assert time.perf_counter() - t0 < 0.1


class TestHilbertPart:
    """The record's one Hilbert part: the whole strip-count Hilbert function
    of M(d) from one determinant, shared by module_profile and
    hilbert_M_strips; past module_profile's limits hilbert_M_strips walks
    one degree alone."""

    part = staticmethod(resolutions._hilbert_function)

    def test_profile_fills_what_strips_reads(self):
        for d in ((0, 3, 4, 7), (-2, 0, 1, 4, 6), (3, 5, 8)):
            clear_record()
            p = module_profile(d)
            misses = self.part.cache_info().misses
            for k in range(d[0], p.top_degree + 2):
                assert hilbert_M_strips(d, k) == p.hf.get(k, 0)
            assert self.part.cache_info().misses == misses, d

    def test_tall_profiles_answer_quickly(self):
        # the rows with room 0 are factored out of the determinant; kept in
        # it, range(201) would need a 200 x 200 one.  Their constant, and the
        # socle's dimension, multiply out nonzero rows only: range(1415) has
        # 1414 rows of zeros
        for d in (
            tuple(range(201)),
            degrees([0] + [2] * 8 + [1] * 56),
            degrees([0] + [1] * 56 + [2] * 8),
            tuple(range(1415)),
        ):
            clear_record()
            t0 = time.perf_counter()
            p = module_profile(d)
            assert time.perf_counter() - t0 < 0.5, d
            if len(d) - 1 <= BETTI_LENGTH_LIMIT:
                assert p.hf == {k: hilbert_M_euler(d, k) for k in p.hf}
            else:
                assert p.hf == {0: 1}

    def test_unit_gaps_after_one_gap_golden(self):
        # 300 rows with room 0 under one with room 1
        p = module_profile((0,) + tuple(range(2, 303)))
        assert (p.hf, p.socle_weight, p.socle_dim) == ({0: 1, 1: 301}, (1,), 301)

    def test_holds_one_int_per_degree(self):
        d = (0, 1, PROFILE_SPAN_LIMIT + 2)
        clear_record()
        hf = self.part(d)
        assert len(hf) == PROFILE_SPAN_LIMIT + 1 and all(type(v) is int for v in hf)
        assert self.part.cache_info().maxsize == RECORD_SIZE

    def test_holds_whole_profiles_and_stays_bounded(self):
        d = (0, 1, PROFILE_SPAN_LIMIT + 2)
        clear_record()
        p = module_profile(d)
        assert p.top_degree - d[0] == PROFILE_SPAN_LIMIT
        assert self.part(d) == tuple(p.hf.values())
        info = self.part.cache_info()
        assert info.currsize == info.misses == 1
        for k in range(d[0], p.top_degree + 1):
            hilbert_M_strips(d, k)
        assert self.part.cache_info().misses == info.misses
        for j in range(200):
            module_profile((j % 4, j % 4 + 1 + j // 40, j % 4 + 3 + j // 40 + j % 40))
            info = self.part.cache_info()
            assert info.currsize <= info.maxsize
        assert all(type(v) is int for v in [hilbert_M_strips(d, k) for k in range(-1, 110)])

    def test_refusals_store_nothing(self):
        clear_record()
        module_profile((0, 3, 4, 7))
        refused = [
            lambda: hilbert_M_strips((0, 10**6, 2 * 10**6), 500_000),
            lambda: hilbert_M_strips(tuple(range(8)) + (2**4681,), 2),
            lambda: module_profile((0, PROFILE_SPAN_LIMIT + 2)),
            lambda: module_profile(degrees((0, 2, 3, 3, 3, 3, 5, 5, 5, 1, 1))),
        ]
        for call in refused:
            for _ in range(2):
                with pytest.raises(ResourceLimitError):
                    call()
            # an LRU counts a refused call as a miss, but stores nothing
            assert self.part.cache_info().currsize == 1
        # past the profile limits the part refuses inside an answer
        assert hilbert_M_strips((0, 10, 20, 45, 96), 2) == hilbert_M_euler((0, 10, 20, 45, 96), 2)
        assert self.part.cache_info().currsize == 1

    def test_tall_unit_gaps_read_the_part_and_nothing_below_d0(self):
        # m = 1414 unit gaps pass both part limits (span 0, strips * m^2 =
        # 1,999,396), so the answer is read off the part, whose determinant
        # has no row: the Weyl-numerator bits (999,691 > BETTI_COST_LIMIT)
        # bound only the walk of one degree past those limits
        d = tuple(range(1415))
        clear_record()
        t0 = time.perf_counter()
        assert hilbert_M_strips(d, 0) == module_profile(d).hf[0] == 1
        assert time.perf_counter() - t0 < 0.1
        assert self.part.cache_info().misses == 1
        # below d_0 nothing is walked, so nothing is refused
        t0 = time.perf_counter()
        assert hilbert_M_strips(tuple(range(8)) + (2**4681,), -1) == 0
        assert time.perf_counter() - t0 < 0.1

    def test_cold_and_warm_answers_agree(self):
        rng = random.Random(26)
        for _ in range(60):
            m = rng.randint(1, 5)
            d = degrees([rng.choice((-2, 0, 3))] + [rng.randint(1, 3) for _ in range(m)])
            top = degree_data(d).top
            ks = range(d[0] - 1, top + 3)
            cold = []
            for k in ks:
                clear_record()
                cold.append(hilbert_M_strips(d, k))
            clear_record()
            warm_profile = module_profile(d)
            assert [hilbert_M_strips(d, k) for k in ks] == cold, d
            assert list(warm_profile.hf.values()) == cold[1:-2], d

    def test_one_step_over_the_strip_limit_answers_per_degree(self):
        d = (0, 10, 20, 45, 96)  # strips * m^2 = 127,500 * 16 = 2,040,000
        with pytest.raises(ResourceLimitError, match=f"> limit {PROFILE_STRIP_LIMIT}$"):
            module_profile(d)
        clear_record()
        t0 = time.perf_counter()
        got = [hilbert_M_strips(d, k) for k in range(4)]
        assert time.perf_counter() - t0 < 0.1
        assert self.part.cache_info().currsize == 0
        assert got == [hilbert_M_euler(d, k) for k in range(4)]
        assert got == [strip_filter_hilbert(d, k) for k in range(4)]

    def test_at_the_strip_limit_strips_read_the_profile(self):
        d = (0, 10, 20, 45, 95)  # strips * m^2 = 125,000 * 16 = PROFILE_STRIP_LIMIT
        clear_record()
        p = module_profile(d)
        assert self.part(d) == tuple(p.hf.values())
        for k in range(d[0] - 1, p.top_degree + 3):
            assert hilbert_M_strips(d, k) == p.hf.get(k, 0) == hilbert_M_euler(d, k), k

    @staticmethod
    def refuse(*args):
        raise AssertionError("this walk is not the one that answers here")

    def test_within_the_limits_no_degree_is_walked_alone(self, monkeypatch):
        monkeypatch.setattr(resolutions, "pieri_dim", self.refuse)
        for d in ((0, 3, 4, 7), (0, 10, 20, 45, 95)):
            clear_record()
            ks = range(d[0] - 1, degree_data(d).top + 3)
            cold = [hilbert_M_strips(d, k) for k in ks]
            p = module_profile(d)
            assert cold == [p.hf.get(k, 0) for k in ks] == [hilbert_M_euler(d, k) for k in ks], d

    def test_past_the_limits_the_whole_function_is_not_walked(self, monkeypatch):
        monkeypatch.setattr(resolutions, "pieri_dims", self.refuse)
        d = (0, 10, 20, 45, 96)
        clear_record()
        assert [hilbert_M_strips(d, k) for k in range(4)] == [hilbert_M_euler(d, k) for k in range(4)]


def one_gap(rows: int, dim_f: int, at: int) -> tuple[int, ...]:
    """rows degrees from 0 with unit gaps, but a gap of dim F before index at."""
    return tuple(range(at)) + tuple(range(at + dim_f - 1, rows + dim_f - 1))


# every resource bound: (refused, accepted, error class).  The refused input
# is the smallest step over the bound along one parameter, and the accepted
# one is the input at the bound or the last one under it.
BOUNDS = {
    # m = 65 and 64
    "f_length": (
        lambda: betti_F(range(66)),
        lambda: betti_F(range(65)),
        ResourceLimitError,
    ),
    # m^2 * bitlen(d_m - d_0) = 64 * 2049 and 64 * 2048
    "f_bits": (
        lambda: betti_F(tuple(range(8)) + (2**2048,)),
        lambda: betti_F(tuple(range(8)) + (2**2047,)),
        ResourceLimitError,
    ),
    # the same bound on the primitive vector, which reads no Weyl dimension
    "primitive_bits": (
        lambda: herzog_kuhl_primitive(tuple(range(8)) + (2**2048,)),
        lambda: herzog_kuhl_primitive(tuple(range(8)) + (2**2047,)),
        ResourceLimitError,
    ),
    # Weyl numerator bits m(m - 1)/2 * bitlen(d_m - d_0) = 28 * 4682 and
    # 28 * 4681
    "strips_bits": (
        lambda: hilbert_M_strips(tuple(range(8)) + (2**4681,), 2),
        lambda: hilbert_M_strips(tuple(range(8)) + (2**4680,), 2),
        ResourceLimitError,
    ),
    # strips of degree k * m^2 = (k + 1) * 2^2 = 2,000,004 and 2,000,000
    "strips_degree": (
        lambda: hilbert_M_strips((0, 10**6, 2 * 10**6), 500_000),
        lambda: hilbert_M_strips((0, 10**6, 2 * 10**6), 499_999),
        ResourceLimitError,
    ),
    # parts of gamma(d, 1) = dim F = 250,001 and 250,000
    "gamma_parts": (
        lambda: gamma((0, DET_COST_LIMIT + 1), 1),
        lambda: gamma((0, DET_COST_LIMIT), 1),
        ResourceLimitError,
    ),
    # dim F = 201 and 200
    "det_dim": (
        lambda: det_setup((0, 201)),
        lambda: det_setup((0, 200)),
        ResourceLimitError,
    ),
    # rows * dim F^2 + sum(d_i - d_0) = 250,001 and 250,000
    "det_cost": (
        lambda: betti_H(one_gap(254, 29, 102)),
        lambda: betti_H(one_gap(44, 75, 23)),
        ResourceLimitError,
    ),
    # (dim G + 1)(dim F + 1) = 2809 * 89 = 250,001 and 1250 * 200 = 250,000
    "scan_cost": (
        lambda: det_bott_scan(one_gap(2722, 88, 1)),
        lambda: det_bott_scan(one_gap(1052, 199, 1)),
        ResourceLimitError,
    ),
    "super_rows": (
        lambda: betti_F_super((2, 1), 2, 2, 1, N=65),
        lambda: betti_F_super((2, 1), 2, 2, 1, N=64),
        ResourceLimitError,
    ),
    # entry bits min(lam_1 + len(lam), n) * bitlen(n) = 257 * 16 and 256 * 16
    "super_entry_bits": (
        lambda: betti_F_super((1,), 255, 0, 2**15, N=1),
        lambda: betti_F_super((1,), 254, 0, 2**15, N=1),
        ResourceLimitError,
    ),
    # Weyl bits m^2 * bitlen(lam_1 + m) = 32^2 * 129 and 32^2 * 128
    "super_weyl_bits": (
        lambda: betti_F_super((1,), 2**128 - 33, 32, 0, N=1),
        lambda: betti_F_super((1,), 2**128 - 34, 32, 0, N=1),
        ResourceLimitError,
    ),
    # about 4.70 and 3.97 million estimated word operations
    "super_total": (
        lambda: betti_F_super((4,) * 5, 2, 4, 8, N=30),
        lambda: betti_F_super((4,) * 5, 2, 4, 8, N=29),
        ResourceLimitError,
    ),
    # top - d_0 = 101 and 100
    "profile_span": (
        lambda: module_profile((0, 1, 103)),
        lambda: module_profile((0, 1, 102)),
        ResourceLimitError,
    ),
    # strips * m^2 = 20250 * 10^2 and 20000 * 10^2
    "profile_strips": (
        lambda: module_profile(degrees((0, 2, 3, 3, 3, 3, 5, 5, 5, 1, 1))),
        lambda: module_profile(degrees((0, 2, 2, 2, 2, 2, 5, 5, 5, 5, 1))),
        ResourceLimitError,
    ),
    # ambient dimension 3^6 = 729
    "realize_schur": (
        lambda: realize_schur((3, 2, 1), 3, limit=728),
        lambda: realize_schur((3, 2, 1), 3, limit=729),
        DimLimitError,
    ),
    # slice degree 4 of d = (0, 1, 3) lives in E^(x)5, dim E = 2
    "lab_guard": (
        lambda: SliceLab((0, 1, 3), limit=31).guard(4),
        lambda: SliceLab((0, 1, 3), limit=32).guard(4),
        DimLimitError,
    ),
}


class TestBounds:
    """Every bound refuses quickly with one message shape, "<what> = <cost>
    > limit <L>", and accepts the input at it."""

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_refused(self, bound):
        refused, _, error = BOUNDS[bound]
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"> limit \d+$") as info:
            refused()
        assert time.perf_counter() - t0 < 0.1
        assert type(info.value) is error

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_accepted(self, bound):
        BOUNDS[bound][1]()


# refusals whose cost has more digits than CPython converts to a string by
# default (4300): the message gives the cost's bit length instead
HUGE_COSTS = {
    "profile_span": (lambda: module_profile((0, 2**200000)), ResourceLimitError),
    "strips_of_degree_k": (
        lambda: hilbert_M_strips((0, 1, 2**60000), 2**60000),
        ResourceLimitError,
    ),
    "bott_scan": (lambda: det_bott_scan((0, 2**20000)), ResourceLimitError),
    "lab_ambient": (lambda: verify_exactness((0, 2**20000)), DimLimitError),
}


@pytest.fixture
def default_digit_cap():
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(cap)


@pytest.mark.usefixtures("default_digit_cap")
class TestHugeCosts:
    @pytest.mark.parametrize("case", HUGE_COSTS)
    def test_refused_with_the_bit_length(self, case):
        call, error = HUGE_COSTS[case]
        with pytest.raises(error, match=r"\ba \d+-bit int > limit \d+$") as info:
            call()
        assert type(info.value) is error

    def test_ordinary_costs_print_in_full(self):
        for d, cost in (((0, 1, 103), "101"), ((0, 10**4000), "9" * 4000)):
            with pytest.raises(ResourceLimitError) as info:
                module_profile(d)
            assert str(info.value) == f"module profile span top - d_0 = {cost} > limit 100"
