import gc
import random
import time
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pureres.partitions import (
    check_partition,
    complement_in_rectangle,
    conjugate,
    contains,
    dim_gl,
    dim_skew,
    dim_super,
    is_horizontal_strip,
    part,
    pieri_dim,
    pieri_dims,
    pieri_expand,
    trim,
)
from pureres.resolutions import degree_data, degrees, det_terms

from oracles import (
    brute_strips,
    count_ssyt,
    random_partition,
    strip_filter_hilbert,
    tableau_super_dim,
    weyl_dim,
)


def partitions(max_part: int, max_len: int):
    return st.lists(st.integers(0, max_part), max_size=max_len).map(
        lambda parts: trim(sorted(parts, reverse=True))
    )


def all_partitions(max_size, max_len=None):
    out = [()]
    for total in range(1, max_size + 1):
        def build(remaining, bound, prefix):
            if remaining == 0:
                out.append(tuple(prefix))
                return
            for p in range(min(bound, remaining), 0, -1):
                build(remaining - p, p, prefix + [p])
        build(total, total, [])
    if max_len is not None:
        out = [p for p in out if len(p) <= max_len]
    return out


class TestConjugate:
    def test_goldens(self):
        assert conjugate((2,)) == (1, 1)
        assert conjugate(()) == ()
        assert conjugate((5, 2, 0)) == (2, 2, 1, 1, 1)

    def test_involution_fuzz(self):
        rng = random.Random(1)
        for _ in range(1000):
            p = random_partition(rng, 30, 12)
            assert conjugate(conjugate(p)) == p

    def test_column_count(self):
        # independent column-count oracle
        rng = random.Random(2)
        for _ in range(100):
            p = random_partition(rng, 10, 6)
            for j in range(12):
                expect = sum(1 for x in p if x > j)
                got = conjugate(p)[j] if j < len(conjugate(p)) else 0
                assert got == expect


class TestStrips:
    def test_goldens(self):
        assert is_horizontal_strip((5, 2), (2, 2))
        assert not is_horizontal_strip((4, 3), (2, 2))  # a column gains two boxes
        assert is_horizontal_strip((3, 1), (3, 1))

    def test_column_characterization(self):
        rng = random.Random(3)
        for _ in range(300):
            outer = random_partition(rng, 8, 5)
            inner = random_partition(rng, 8, 5)
            expect = contains(outer, inner) and all(
                (conjugate(outer)[j] if j < len(conjugate(outer)) else 0)
                - (conjugate(inner)[j] if j < len(conjugate(inner)) else 0)
                <= 1
                for j in range(outer[0] if outer else 0)
            )
            assert is_horizontal_strip(outer, inner) == expect


class TestPieri:
    def test_goldens(self):
        assert pieri_expand((2, 2), 3, 3) == [(5, 2), (4, 2, 1), (3, 2, 2)]
        assert pieri_expand((1,), 1, 2) == [(2,), (1, 1)]
        # expanding the empty weight by a symmetric power gives one row only
        assert pieri_expand((), 2, 2) == [(2,)]
        assert (5, 1) in pieri_expand((3, 1), 2, 4)
        assert pieri_expand((2, 2), 0, 3) == [(2, 2)]

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            pieri_expand((1, 1, 1), 1, 2)

    def test_weight_goldens_and_refusals(self):
        # a weight of max_rows parts may go negative; its strips are trimmed
        assert pieri_expand((1, -1), 1, 2) == [(2, -1), (1,)]
        with pytest.raises(ValueError, match="not weakly decreasing"):
            pieri_expand((1, 2), 1, 2)
        with pytest.raises(ValueError, match="negative part"):
            pieri_expand((2, -1), 1, 3)

    def test_sums_reject_too_long(self):
        # the sums read lam as m rows, so a longer lam must not be cut short
        with pytest.raises(ValueError, match="more than 1 nonzero parts"):
            pieri_dim((2, 1), 3, 1, 5)
        with pytest.raises(ValueError, match="more than 1 nonzero parts"):
            pieri_dims((2, 1), 1, 5)

    def test_strip_and_multiplicity_free(self):
        rng = random.Random(4)
        for _ in range(200):
            lam = random_partition(rng, 6, 3)
            m = rng.randint(max(1, len(lam)), 5)
            e = rng.randint(0, 6)
            mus = pieri_expand(lam, e, m)
            assert len(set(mus)) == len(mus)
            assert mus == sorted(mus, reverse=True)
            for mu in mus:
                assert is_horizontal_strip(mu, lam)
                assert sum(mu) - sum(lam) == e
                assert len(mu) <= m

    def test_dimension_sum(self):
        rng = random.Random(5)
        for _ in range(100):
            lam = random_partition(rng, 6, 4)
            m = rng.randint(max(1, len(lam)), 6)
            e = rng.randint(0, 6)
            total = sum(dim_gl(mu, m) for mu in pieri_expand(lam, e, m))
            assert total == dim_gl(lam, m) * comb(m + e - 1, e)


class TestPieriOracle:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(partitions(4, 4), st.integers(0, 5), st.integers(0, 2))
    def test_matches_box_search(self, lam, e, extra_rows):
        m = min(len(lam) + extra_rows, 4)
        assert pieri_expand(lam, e, m) == brute_strips(lam, e, m)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(partitions(4, 4), st.integers(-1, 5), st.integers(0, 2), st.integers(-2, 10))
    def test_cap_filters_first_part(self, lam, e, extra_rows, cap):
        # the capped walk enumerates only the strips with mu_1 <= cap, any cap
        m = max(min(len(lam) + extra_rows, 4), 1)
        full = pieri_expand(lam, e, m)
        assert pieri_expand(lam, e, m, cap=cap) == [mu for mu in full if part(mu, 0) <= cap]

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        partitions(4, 4),
        st.integers(-1, 5),
        st.integers(0, 2),
        st.integers(-2, 10),
        st.sampled_from((-3, -2, -1)),
    )
    def test_shifted_weight_shifts_strips(self, lam, e, extra_rows, cap, c):
        # taking c full columns off lam (c < 0) takes them off every strip
        m = max(min(len(lam) + extra_rows, 4), 1)
        padded = lam + (0,) * (m - len(lam))
        shifted = [
            trim([x + c for x in mu + (0,) * (m - len(mu))])
            for mu in pieri_expand(lam, e, m, cap=cap)
        ]
        assert pieri_expand([x + c for x in padded], e, m, cap=cap + c) == shifted


class TestPieriDimsOracle:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(partitions(3, 4), st.integers(0, 3), st.integers(0, 2))
    def test_sums_by_size_match_box_search(self, lam, over, extra_rows):
        m = max(min(len(lam) + extra_rows, 4), 1)
        cap = part(lam, 0) + over
        by_size = pieri_dims(lam, m, cap)
        # the largest strip fills every row up to the cap or the row above
        assert len(by_size) == cap - part(lam, m - 1) + 1
        for e in range(len(by_size) + 1):
            under_cap = [mu for mu in brute_strips(lam, e, m) if part(mu, 0) <= cap]
            want = sum(dim_gl(mu, m) for mu in under_cap)
            assert (by_size[e] if e < len(by_size) else 0) == want, (lam, m, cap, e)


class TestPieriDimsWalk:
    def test_matches_per_degree_sums_on_table_shapes(self):
        # the shapes of the `tables` workload, m <= 5, gaps 1..6 and d_0 from
        # -2 to 3: at m = 5 three rows build prefixes before the last two
        rng = random.Random(27)
        gap_lists = [[6] * 5, [1] * 5, [6, 1, 6, 1, 6]]
        gap_lists += [[rng.randint(1, 6) for _ in range(rng.randint(1, 5))] for _ in range(150)]
        for gaps in gap_lists:
            r = degree_data(degrees([rng.randint(-2, 3)] + gaps))
            want = [pieri_dim(r.base, e, r.m, r.top) for e in range(r.top - r.d[0] + 1)]
            assert pieri_dims(r.base, r.m, r.top) == want, r.d


class TestPieriDimsDeterminant:
    """pieri_dims is one determinant over the rows with room; the rows with
    none (gaps e_i = 1) are factored out wherever they sit."""

    GAPS = (
        [1] * 6 + [2] * 6,  # room-0 rows first
        [2] * 6 + [1] * 6,  # and last
        [1, 2] * 6,  # and interleaved
        [3, 1, 1, 2, 1, 3, 1, 1, 2, 1, 1, 2],
        [1] * 11 + [4],
        [5] + [1] * 11,
        [1, 1, 1, 1, 1, 1, 1],
        [4, 1, 6, 1, 2],
        [2, 6, 6],
    )

    def test_matches_walk_and_strip_filter(self):
        for gaps in self.GAPS:
            for d0 in (-3, 0, 2):  # a negative base weight at d_0 < 0
                d = degrees([d0] + gaps)
                r = degree_data(d)
                got = pieri_dims(r.base, r.m, r.top)
                assert len(got) == r.top - d0 + 1
                assert got == [pieri_dim(r.base, e, r.m, r.top) for e in range(len(got))], d
                assert got == [strip_filter_hilbert(d, k) for k in range(d0, r.top + 1)], d

    def test_matches_walk_on_weights(self):
        # weights of m <= 12 parts, many of them equal (rows with room 0),
        # negative parts too, and caps from lam_1 to lam_1 + 4
        rng = random.Random(30)
        for _ in range(300):
            m = rng.randint(1, 12)
            steps = [rng.choice((0, 0, 0, 1, 2, 4)) for _ in range(m)]
            low = rng.randint(-5, 2)
            lam = [low + sum(steps[i + 1 :]) for i in range(m)]
            cap = lam[0] + rng.randint(0, 4)
            if prod(cap - lam[0] + 1 if i == 0 else lam[i - 1] - lam[i] + 1 for i in range(m)) > 2000:
                continue
            want = [pieri_dim(lam, e, m, cap) for e in range(cap - lam[-1] + 1)]
            assert pieri_dims(lam, m, cap) == want, (lam, m, cap)


class TestPieriDimOracle:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(partitions(3, 4), st.integers(-1, 6), st.integers(0, 3), st.integers(0, 4))
    def test_sum_matches_box_search(self, lam, e, extra_rows, over):
        # over past the room of lam's rows the strips run out and the sum is 0
        m = min(max(len(lam), 1) + extra_rows, 4)
        cap = part(lam, 0) + over
        under_cap = [mu for mu in brute_strips(lam, e, m) if part(mu, 0) <= cap]
        want = sum(dim_gl(mu, m) for mu in under_cap)
        assert pieri_dim(lam, e, m, cap) == want, (lam, e, m, cap)

    def test_huge_size_is_zero_at_once(self):
        t0 = time.perf_counter()
        assert pieri_dim((2, 2), 10**18, 3, 4) == 0
        assert time.perf_counter() - t0 < 0.1


class TestDimGl:
    def test_goldens(self):
        assert dim_gl((2, 2), 3) == 6
        assert dim_gl((0,), 7) == 1
        assert dim_gl((2, 2, 1, 1, 1), 5) == 10
        assert dim_gl((1, 1, 1, 1), 3) == 0

    def test_against_ssyt(self):
        for lam in all_partitions(6, 3):
            for m in (1, 2, 3):
                assert dim_gl(lam, m) == count_ssyt(lam, (), m)
        assert dim_gl((4, 2, 1), 4) == count_ssyt((4, 2, 1), (), 4)

    def test_negative_parts(self):
        # determinant twist invariance
        assert dim_gl((1, 0, -1), 3) == dim_gl((2, 1, 0), 3)

    def test_negative_weight_needs_exactly_m_parts(self):
        # padding such a weight with zeros would break weak decrease
        assert dim_gl((7, 6, 3, 0, -2), 5) == dim_gl((9, 8, 5, 2, 0), 5)
        assert dim_gl((-1,), 1) == 1
        for lam, m in (((7, 6, 3, 0, -2), 6), ((-1,), 2), ((1, -1), 1)):
            with pytest.raises(ValueError, match=f"needs exactly {m} parts"):
                dim_gl(lam, m)

    def test_negative_weight_must_decrease(self):
        # the determinant twist by the last part leaves no partition
        for lam in ((0, -1, 3), (-2, -1, -3)):
            with pytest.raises(ValueError):
                dim_gl(lam, 3)

    def test_short_partitions_in_large_dimension(self):
        # only the k nonzero rows are multiplied out: the pairs of zero rows
        # cancel the denominator
        m = 1414
        assert m * (m + 1) * (m + 2) * (m - 1) // 8 == 500404581810
        for lam, n, want in (((3, 1), m, 500404581810), ((), 400, 1)):
            t0 = time.perf_counter()
            assert dim_gl(lam, n) == want
            assert time.perf_counter() - t0 < 0.1, (lam, n)

    def test_short_partitions_match_weyl_product(self):
        rng = random.Random(31)
        for _ in range(400):
            m = rng.randint(0, 40)
            lam = random_partition(rng, rng.choice((2, 6, 30)), min(m, rng.randint(0, 6)))
            assert dim_gl(lam, m) == weyl_dim(lam, m), (lam, m)

    def test_tall_partitions_by_columns_match_ssyt(self):
        # fewer columns than rows: the hook-content product over columns
        tall = [lam for lam in all_partitions(7) if lam and lam[0] < len(lam)]
        assert len(tall) > 10
        for lam in tall:
            for m in range(len(lam) - 1, len(lam) + 2):
                assert dim_gl(lam, m) == count_ssyt(lam, (), m), (lam, m)

    def test_gammas_match_weyl_product(self):
        # every gamma(d, i) of the `tables` gaps (s <= 5, gaps 1..6) with
        # dim F <= 23, nearly all of them tall
        weights = set()
        for s in range(1, 6):
            for gaps in product(range(1, 7), repeat=s):
                if sum(gaps) - s < 23:
                    setup, gammas = det_terms(degrees((0,) + gaps))
                    weights.update((g, setup.dim_f) for g in gammas)
        assert sum(1 for g, _ in weights if g and g[0] < len(g)) > 20000
        for g, dim_f in weights:
            assert dim_gl(g, dim_f) == weyl_dim(g, dim_f), (g, dim_f)


class TestDimSkew:
    def test_goldens(self):
        assert dim_skew((2, 1), (1,), 2) == 4
        assert dim_skew((1,), (1,), 5) == 1
        assert dim_skew((3, 2), (), 3) == dim_gl((3, 2), 3)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            dim_skew((1,), (2,), 3)

    def test_against_enumeration_small(self):
        for outer in all_partitions(6):
            inners = {
                trim(mu)
                for mu in product(*(range(p + 1) for p in outer))
                if all(a >= b for a, b in zip(mu, mu[1:]))
            }
            for inner in inners:
                for n in (1, 2, 3):
                    assert dim_skew(outer, inner, n) == count_ssyt(outer, inner, n), (
                        outer,
                        inner,
                        n,
                    )

    def test_against_enumeration_larger(self):
        rng = random.Random(6)
        done = 0
        while done < 25:
            outer = random_partition(rng, 5, 4)
            if not 7 <= sum(outer) <= 8:
                continue
            inner = trim(rng.randint(0, p) for p in outer)
            try:
                inner = check_partition(inner)
            except ValueError:
                continue
            assert dim_skew(outer, inner, 4) == count_ssyt(outer, inner, 4)
            done += 1


class TestDimSuper:
    def test_degree_two_decompositions(self):
        # Sym^2 of a (1,1)-dimensional graded space: even square + mixed
        assert dim_super((2,), 1, 1) == 2
        # its exterior square: mixed + odd square
        assert dim_super((1, 1), 1, 1) == 2
        assert dim_super((3, 3), 1, 1) == 0

    def test_specializations(self):
        rng = random.Random(7)
        for _ in range(50):
            lam = random_partition(rng, 5, 4)
            m = rng.randint(0, 3)
            n = rng.randint(0, 3)
            assert dim_super(lam, m, 0) == dim_gl(lam, m)
            assert dim_super(lam, 0, n) == dim_gl(conjugate(lam), n)

    def test_long_hook_shape_is_one_determinant(self):
        # twelve long even rows and forty odd boxes: summing over the
        # subpartitions of lam instead takes about 30 s
        lam = tuple(range(10**5, 10**5 - 12, -1)) + (1,) * 40
        t0 = time.process_time()
        assert dim_super(lam, 12, 1) == 302231454903657293676544
        assert time.process_time() - t0 < 1

    def test_leaves_no_reference_cycle(self):
        # garbage that only the cyclic collector frees would pile up
        # between collections in long table runs
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for lam, m, n in (((3, 2, 1), 2, 1), ((2, 2), 1, 1), ((4, 1), 2, 2)):
                dim_super(lam, m, n)
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()

    def test_hook_vanishing_exhaustive(self):
        for lam in all_partitions(8):
            for m in range(4):
                for n in range(4):
                    lam_m1 = lam[m] if m < len(lam) else 0
                    assert (dim_super(lam, m, n) == 0) == (lam_m1 > n), (lam, m, n)


class TestDimSuperOracle:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(partitions(5, 5), st.integers(0, 4), st.integers(0, 4))
    def test_matches_tableau_count(self, lam, m, n):
        assert dim_super(lam, m, n) == tableau_super_dim(lam, m, n)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            dim_super((2, 1), 2, -1)
        with pytest.raises(ValueError):
            dim_super((2, 1), -1, 2)


class TestComplement:
    def test_goldens(self):
        assert complement_in_rectangle((2, 2, 0), 7, 3) == (7, 5, 5)
        assert complement_in_rectangle((), 4, 2) == (4, 4)

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(200):
            lam = random_partition(rng, 6, 4)
            width = max([6] + list(lam))
            height = max(4, len(lam))
            twice = complement_in_rectangle(
                complement_in_rectangle(lam, width, height), width, height
            )
            assert twice == lam

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            complement_in_rectangle((5,), 4, 2)
        with pytest.raises(ValueError):
            complement_in_rectangle((1, 1, 1), 3, 2)
