import random
from itertools import combinations
from math import comb

import pytest

from pureres.bott import (
    bott_cohomology,
    det_bott_scan,
    line_bundle_oracle,
    pushforward_profile,
    scan_ranks,
)
from pureres.partitions import dim_gl
from pureres.resolutions import betti_H, det_setup

from oracles import pairwise_bott, random_degrees, random_partition


class TestBottAlgorithm:
    def test_dominant_weight_is_h0(self):
        o = bott_cohomology((3, 1), 0, 3)
        assert not o.vanishes
        assert o.h_degree == 0
        assert o.weight == (3, 1, 0)

    def test_top_cohomology(self):
        # a large power of the sub line bundle lands in top cohomology
        o = bott_cohomology((0, 0), 5, 3)
        assert o.h_degree == 2
        assert o.weight == (3, 1, 1)

    def test_vanishing(self):
        # (1, 0, u) + rho = (3, 1, u) repeats exactly at u = 1, 3
        assert bott_cohomology((1, 0), 1, 3).vanishes
        assert bott_cohomology((1, 0), 3, 3).vanishes
        assert not bott_cohomology((1, 0), 2, 3).vanishes

    def test_projective_line(self):
        # u-th power of the sub bundle R on P^1 is O(-u)
        for a in range(-10, 11):
            o = bott_cohomology((0,), -a, 2)
            h0, h1 = line_bundle_oracle(a)
            if o.vanishes:
                assert (h0, h1) == (0, 0)
            elif o.h_degree == 0:
                assert h1 == 0 and dim_gl(o.weight, 2) == h0
            else:
                assert o.h_degree == 1 and h0 == 0
                assert dim_gl(o.weight, 2) == h1

    def test_twisted_line_bundles(self):
        # S_b(Q) (x) O(a) on P^1: Q is the tautological quotient line
        # bundle, so this is O(a + ...) bookkeeping through the algorithm
        for b in range(4):
            for a in range(-6, 7):
                o = bott_cohomology((b,), a, 2)
                if not o.vanishes:
                    assert o.h_degree in (0, 1)
                    assert dim_gl(o.weight, 2) > 0

    def test_single_nonvanishing_degree(self):
        rng = random.Random(20)
        for _ in range(300):
            m = rng.randint(2, 5)
            alpha = random_partition(rng, 6, m - 1)
            alpha = alpha + (0,) * (m - 1 - len(alpha))
            u = rng.randint(-12, 12)
            o = bott_cohomology(alpha, u, m)
            if not o.vanishes:
                assert 0 <= o.h_degree <= m - 1
                w = o.weight
                assert all(w[i] >= w[i + 1] for i in range(m - 1))

    def test_euler_characteristic(self):
        # chi is the Weyl dimension of the (possibly virtual) weight and is
        # computable without the algorithm; compare signs and sizes
        for u in range(-8, 5):
            o = bott_cohomology((2, 1), u, 3)
            chi = dim_gl((2, 1, u), 3) if (2, 1, u) == tuple(
                sorted((2, 1, u), reverse=True)
            ) else None
            if chi is not None and chi > 0:
                assert not o.vanishes and o.h_degree == 0
                assert dim_gl(o.weight, 3) == chi

    def test_matches_pairwise_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            m = rng.randint(1, 7)
            w = tuple(sorted((rng.randint(-5, 6) for _ in range(m - 1)), reverse=True))
            lo, hi = (w[-1], w[0]) if w else (0, 0)
            # past either end u is larger or smaller than every other entry
            for u in range(lo - m - 1, hi + m + 2):
                o = bott_cohomology(w, u, m)
                got = None if o.vanishes else (o.h_degree, o.weight)
                assert got == pairwise_bott(w, u, m), (w, u, m)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bott_cohomology((1, 2), 0, 3)
        with pytest.raises(ValueError):
            bott_cohomology((1,), 0, 3)
        with pytest.raises(ValueError):
            bott_cohomology((), 0, 0)


class TestPushforward:
    def test_free_iff_last_part_zero(self):
        rng = random.Random(21)
        for _ in range(200):
            m = rng.randint(2, 5)
            lam = random_partition(rng, 5, m - 1)
            lam = lam + (0,) * (m - 1 - len(lam))
            p = pushforward_profile(lam, m)
            if lam[-1] == 0:
                assert p.kind == "free"
                assert p.w1 is None
            else:
                assert p.kind == "two_term"
                assert sum(p.w1) == sum(p.w0) + 1

    def test_two_term_twist_gap(self):
        p = pushforward_profile((2, 1), 3)
        assert p.kind == "two_term"
        assert p.w0 == (2, 1, 0)
        assert p.w1 == (2, 1, 1)


class TestDetScan:
    def test_scan_0347(self):
        s = det_bott_scan((0, 3, 4, 7))
        assert set(s.assignments) == {0, 1, 2, 3}
        assert s.assignments[0][0] == 0
        assert s.assignments[1] == (3, 2, (2, 2, 1, 1, 1))
        # the scan reconstructs exactly the determinantal table ranks
        assert scan_ranks(s) == dict(enumerate(betti_H((0, 3, 4, 7)).ranks))

    def test_scan_matches_table_fuzz(self):
        rng = random.Random(22)
        for _ in range(40):
            d = random_degrees(rng, 5, 16)
            s = det_bott_scan(d)
            table = betti_H(d)
            got = scan_ranks(s)
            for i, r in enumerate(table.ranks):
                if i in got:
                    assert got[i] == r, (d, i)

    def test_scan_nonvanishing_count(self):
        s = det_bott_scan((0, 1, 4, 6))
        assert len(s.nonvanishing) == 4
        vanished = [u for u, o in s.outcomes if o.vanishes]
        assert set(vanished) == set(range(s.dim_g + 1)) - {0, 1, 4, 6}

    def test_scan_outcomes_are_bott_cohomology(self):
        # the scan prepares the weight once; every outcome, trace included,
        # is the one bott_cohomology gives: all d with 0 <= d_0 <= 1, m <= 4
        # and d_m <= 9
        for d0 in (0, 1):
            for m in range(1, 5):
                for rest in combinations(range(d0 + 1, 10), m):
                    d = (d0,) + rest
                    setup = det_setup(d)
                    n = setup.dim_f
                    padded = setup.lambda_det + (0,) * (n - 1 - len(setup.lambda_det))
                    expected = tuple(
                        (u, bott_cohomology(padded, u, n)) for u in range(setup.dim_g + 1)
                    )
                    assert det_bott_scan(d).outcomes == expected, d

    def test_koszul_scan(self):
        # consecutive degrees collapse to the Koszul case, dim F = 1
        s = det_bott_scan((0, 1, 2, 3))
        assert s.dim_f == 1
        assert scan_ranks(s) == dict(enumerate(betti_H((0, 1, 2, 3)).ranks))


class TestLineBundleOracle:
    def test_values(self):
        assert line_bundle_oracle(0) == (1, 0)
        assert line_bundle_oracle(3) == (4, 0)
        assert line_bundle_oracle(-1) == (0, 0)
        assert line_bundle_oracle(-4) == (0, 3)

    def test_euler(self):
        for a in range(-10, 11):
            h0, h1 = line_bundle_oracle(a)
            assert h0 - h1 == a + 1
