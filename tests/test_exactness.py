import copy
import multiprocessing
import random
import resource
import threading
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pureres import exactness
from pureres.exactness import (
    DimLimitError,
    SliceLab,
    YoungSymmetrizer,
    chain_filling,
    differential_slice,
    check_a_linearity,
    equivariance_spotcheck,
    mat_rank,
    realize_schur,
    symmetric_generators,
    verify_dsquared,
    verify_exactness,
)
from pureres.partitions import dim_gl, trim
from pureres.resolutions import ResourceLimitError, alpha, betti_F, hilbert_M_strips

from oracles import (
    SubspaceBasis,
    WordSlices,
    dense_rank,
    fraction_inverse,
    letter_action,
    mat_is_zero,
    mat_mul,
    multiplication,
    schur_basis,
    sparse_columns,
    sparse_rows,
    sym_tensor,
    symmetrize_trailing,
    young_symmetrize,
)

CORPUS = ((0, 1, 2, 3), (0, 2), (0, 1, 3), (0, 2, 3), (0, 2, 3, 4), (0, 1, 2, 4))


class TestSymmetrizer:
    def test_essential_idempotence(self):
        # c^2 = (scalar) c on any vector, the defining projector property
        sym = YoungSymmetrizer((2, 1))
        v = {(0, 1, 0): Fraction(1), (1, 1, 2): Fraction(2)}
        once = sym.apply(v)
        twice = sym.apply(once)
        ratios = {w: twice[w] / c for w, c in once.items() if c}
        assert len(set(ratios.values())) == 1
        assert set(twice) == set(once)

    def test_row_symmetry_and_column_antisymmetry(self):
        # for lam = (1, 1) the symmetrizer is pure antisymmetrization
        sym = YoungSymmetrizer((1, 1))
        v = sym.apply({(0, 1): Fraction(1)})
        assert v == {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
        assert sym.apply({(0, 0): Fraction(1)}) == {}

    def test_pure_row(self):
        sym = YoungSymmetrizer((2,))
        v = sym.apply({(0, 1): Fraction(1)})
        assert v == {(0, 1): Fraction(1), (1, 0): Fraction(1)}


def shapes(n: int, cap: int):
    """Partitions of at most n boxes with parts at most cap."""
    yield ()
    for first in range(1, min(n, cap) + 1):
        for rest in shapes(n - first, first):
            yield (first,) + rest


# every shape of at most 6 boxes filled row-major, and every other chain
# filling of such a shape by a degree sequence d = (0, ...) with d_m <= 5
SMALL_FILLINGS = [(lam, None) for lam in shapes(6, 6)] + sorted({
    (trim(alpha(d, i)), tuple(chain_filling(d, i)))
    for d in [(0,) + c for m in (1, 2, 3) for c in combinations(range(1, 6), m)]
    for i in range(len(d))
    if sum(alpha(d, i)) <= 6 and chain_filling(d, i) != sorted(chain_filling(d, i))
})


class TestSymmetrizerOracle:
    """The column walk against `oracles.young_symmetrize`, which sums over
    the whole row and column groups and merges nothing."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_walk_matches_brute_force(self, data):
        lam, boxes = data.draw(st.sampled_from(SMALL_FILLINGS))
        m, n = data.draw(st.integers(1, 3)), sum(lam)
        letters = st.integers(0, m - 1)
        # repeated letters, and up to two trailing slots that stay put
        words = st.lists(letters, min_size=n, max_size=n + 2).map(tuple)
        coeffs = st.sampled_from([-2, -1, 1, 2])
        vec = data.draw(st.dictionaries(words, coeffs, min_size=1, max_size=2))
        sym = YoungSymmetrizer(lam, boxes)
        assert sym.apply(vec) == young_symmetrize(lam, boxes, vec)
        # the pivot table holds Y(p) at every pivot word, for any word p
        schur = realize_schur(lam, m, boxes=boxes)
        p = data.draw(st.lists(letters, min_size=n, max_size=n).map(tuple))
        expanded = young_symmetrize(lam, boxes, {p: 1})
        values = schur.at_pivots.get(sym.row_key(p), {})
        assert [values.get(j, 0) for j in range(schur.dim)] == [
            expanded.get(w, 0) for w in schur.pivots
        ]


class TestSymTensor:
    def test_coefficients(self):
        v = sym_tensor((0, 0, 1))
        assert set(v) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
        assert all(c == Fraction(1, 3) for c in v.values())
        assert sum(v.values()) == 1

    def test_normalization_absorbs(self):
        # symmetrizing an already symmetric tensor leaves it fixed
        v = sym_tensor((0, 1, 1, 2))
        assert symmetrize_trailing(v, 0) == v
        assert sum(v.values()) == 1

    def test_trailing_only(self):
        v = symmetrize_trailing({(1, 0, 0, 1): Fraction(1)}, 2)
        assert v == {
            (1, 0, 0, 1): Fraction(1, 2),
            (1, 0, 1, 0): Fraction(1, 2),
        }


class TestSubspaceBasis:
    def test_add_and_coords(self):
        b = SubspaceBasis()
        v1 = {("a",): Fraction(2)}
        v2 = {("a",): Fraction(1), ("b",): Fraction(3)}
        assert b.add(v1)
        assert b.add(v2)
        assert not b.add({("b",): Fraction(6)})
        coords = b.coords({("a",): Fraction(5), ("b",): Fraction(3)})
        got = {}
        for idx, c in coords.items():
            for w, x in (v1, v2)[idx].items():
                got[w] = got.get(w, 0) + c * x
        assert got == {("a",): Fraction(5), ("b",): Fraction(3)}

    def test_coords_outside_span(self):
        b = SubspaceBasis()
        b.add({("a",): Fraction(1)})
        with pytest.raises(ValueError):
            b.coords({("b",): Fraction(1)})

    def test_random_rank(self):
        rng = random.Random(30)
        words = [(i,) for i in range(5)]
        b = SubspaceBasis()
        rank = 0
        rows = []
        for _ in range(8):
            v = {w: Fraction(rng.randint(-3, 3)) for w in words}
            v = {w: c for w, c in v.items() if c}
            rows.append([v.get(w, Fraction(0)) for w in words])
            if b.add(v):
                rank += 1
        assert rank == mat_rank(sparse_rows(rows))


class TestMatrixHelpers:
    def test_rank_golden(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert mat_rank(sparse_rows(a)) == mat_rank(sparse_columns(a)) == 1
        assert mat_rank(sparse_rows([[Fraction(0)]])) == 0

    def test_mul_and_zero(self):
        a = [[Fraction(1), Fraction(1)]]
        b = [[Fraction(1)], [Fraction(-1)]]
        assert mat_is_zero(mat_mul(a, b))


def matrix(entry, rows: int, cols: int):
    row = st.lists(entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


FRACTIONS = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))
INTS = st.sampled_from([-3, -2, -1, 1, 2, 3])
# beyond 2^64, with the sign drawn separately
BIG_INTS = st.builds(lambda s, x: s * (2**64 + x), st.sampled_from([-1, 1]), st.integers(1, 2**70))


@st.composite
def rational_matrices(draw, nonzero=FRACTIONS, zero=Fraction(0)):
    """Dense rational matrices, up to 7 x 7: sparse, dense, or a product of
    dense factors through a narrow middle (low rank, heavy fill-in), with
    some rows and columns then set to zero."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["sparse", "dense", "product"]))
    if kind == "product":
        inner = draw(st.integers(0, 3))
        b = draw(matrix(nonzero, rows, inner))
        c = draw(matrix(nonzero, inner, cols))
        a = [
            [sum((b[r][q] * c[q][j] for q in range(inner)), zero) for j in range(cols)]
            for r in range(rows)
        ]
    else:
        entry = nonzero if kind == "dense" else st.one_of(st.just(zero), nonzero)
        a = draw(matrix(entry, rows, cols))
    for r in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else ():
        a[r] = [zero] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else ():
        for row in a:
            row[j] = zero
    return a


@st.composite
def content_after_reduction(draw):
    """(p, v, rest): p leads at index 0, v = p + c w with c > 1 and w zero at
    index 0, so v meets p's pivot and v - p = c w has content >= c; rest
    are a few more integer rows of the same width."""
    n = draw(st.integers(2, 6))
    p = [draw(INTS)] + draw(st.lists(st.one_of(st.just(0), INTS), min_size=n - 1, max_size=n - 1))
    c = draw(st.integers(2, 6))
    w = [0] + draw(st.lists(st.one_of(st.just(0), INTS), min_size=n - 1, max_size=n - 1))
    v = [x + c * y for x, y in zip(p, w)]
    assume(gcd(*[x for x in v if x]) == 1)
    rest = draw(
        st.lists(
            st.lists(st.one_of(st.just(0), INTS, BIG_INTS), min_size=n, max_size=n), max_size=3
        )
    )
    return p, v, rest


def check_rank(a):
    """mat_rank of the dense matrix a as sparse rows and as sparse columns
    equals the dense Gauss-Jordan rank, and leaves its input unchanged."""
    ref = dense_rank(a)
    rows, cols = sparse_rows(a), sparse_columns(a)
    before = copy.deepcopy((rows, cols))
    assert mat_rank(rows) == ref
    assert mat_rank(cols) == ref
    assert (rows, cols) == before


class TestSparseRank:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(rational_matrices())
    @example([])
    @example([[], []])
    @example([[Fraction(0)] * 3] * 2)
    def test_matches_dense_reference(self, a):
        check_rank(a)

    # mat_rank clears denominators and eliminates over Z
    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(
        st.one_of(
            rational_matrices(INTS, 0),
            rational_matrices(st.one_of(INTS, FRACTIONS)),
            rational_matrices(BIG_INTS, 0),
            rational_matrices(st.one_of(BIG_INTS, FRACTIONS)),
        )
    )
    @example([[2**65, 2**65 + 1], [2**66, 2**66 + 2]])
    @example([[2**64 + 1, 1], [1, 2**64 + 1]])
    @example([[1, Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 3)]])
    def test_int_and_mixed_entries(self, a):
        check_rank(a)

    # integral Fractions next to ints: a vector with either is cleared of
    # denominators, and full rows (every entry nonzero) mix both kinds
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        st.one_of(
            rational_matrices(st.one_of(INTS, st.builds(Fraction, INTS))),
            rational_matrices(st.one_of(INTS, FRACTIONS, st.builds(Fraction, BIG_INTS))),
        )
    )
    @example([[Fraction(2), 4], [1, Fraction(2)]])
    @example([[Fraction(6), 4, 2], [3, Fraction(2), 1], [1, 1, Fraction(1, 2)]])
    def test_integral_fractions_and_dense_rows(self, a):
        check_rank(a)

    # content 1 on input, content c > 1 only once p is subtracted
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(content_after_reduction())
    @example(([1, 1, 0], [1, 3, 2], [[0, 1, 1]]))
    def test_content_appears_after_reduction(self, case):
        p, v, rest = case
        rows = [p, v] + rest
        check_rank(rows)
        check_rank([list(col) for col in zip(*rows)])


@st.composite
def square_int_matrices(draw):
    """Square integer matrices up to 8 x 8 (lists of rows): lower
    triangular, as every V that realize_schur builds, with a zero on the
    diagonal now and then; sparse or dense with arbitrary fill; or a product
    through a narrower middle, which is singular."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["triangular", "sparse", "dense", "product"]))
    if kind == "product":
        inner = draw(st.integers(0, max(n - 1, 0)))
        b, c = draw(matrix(INTS, n, inner)), draw(matrix(INTS, inner, n))
        return [[sum(b[r][q] * c[q][j] for q in range(inner)) for j in range(n)] for r in range(n)]
    nonzero = draw(st.sampled_from([INTS, st.one_of(INTS, BIG_INTS)]))
    entry = nonzero if kind == "dense" else st.one_of(st.just(0), nonzero)
    a = draw(matrix(entry, n, n))
    if kind == "triangular":
        for r in range(n):
            a[r][r] = draw(nonzero)
            a[r][r + 1 :] = [0] * (n - r - 1)
        if n and draw(st.integers(0, 3)) == 0:
            r = draw(st.integers(0, n - 1))
            a[r][r] = 0
    return a


class TestInverse:
    """_inverse (N, D) from the tagged integer echelon against the Fraction
    Gauss-Jordan inverse of the oracles."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(square_int_matrices())
    @example([])
    @example([[0]])
    @example([[2, 0], [3, 4]])
    @example([[1, 2], [2, 4]])
    @example([[0, 1], [1, 0]])
    def test_matches_fraction_inverse(self, a):
        n = len(a)
        cols = sparse_columns(a)
        before = copy.deepcopy(cols)
        got, ref = exactness._inverse(cols), fraction_inverse(cols)
        assert cols == before
        assert (got is None) == (ref is None) == (dense_rank(a) < n)
        if got is None:
            return
        solve, denom = got
        assert exactness.mul_columns(solve, cols) == [{j: denom} for j in range(n)]
        assert denom == lcm(*[Fraction(x).denominator for col in ref for x in col.values()])
        assert [{r: Fraction(x, denom) for r, x in col.items()} for col in solve] == ref

    def test_dimension_zero(self):
        assert exactness._inverse([]) == ([], 1)
        # more parts than letters: no tableau, no pivot
        r = realize_schur((1, 1, 1, 1), 3)
        assert (r.dim, r.solve, r.denom) == (0, [], 1)


class TestRealizeSchur:
    def test_dims_small(self):
        for m in (1, 2, 3):
            for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
                if len([p for p in lam if p]) > m:
                    continue
                r = realize_schur(lam, m)
                assert r.dim == dim_gl(lam, m), (lam, m)

    def test_dims_spot_larger(self):
        assert realize_schur((4, 2, 1), 3).dim == dim_gl((4, 2, 1), 3)
        assert realize_schur((3, 3, 2), 3).dim == dim_gl((3, 3, 2), 3)

    def test_limit_enforced(self):
        with pytest.raises(DimLimitError):
            realize_schur((5, 4, 3), 4, limit=100)

    @pytest.mark.parametrize("lam", [(3, 3, 2), (5, 3), (5, 2, 1)])
    def test_projects_one_word_per_tableau(self, lam, monkeypatch):
        # the basis comes from the pivot table, so no word is projected;
        # projecting one word per tableau took 0.02-0.09 s here, and the
        # row-sorted search 2380, 1060 and 1956 words and 1.8-2.8 s
        apply = YoungSymmetrizer.apply
        projected = []
        monkeypatch.setattr(
            YoungSymmetrizer, "apply", lambda self, vec: projected.append(vec) or apply(self, vec)
        )
        assert realize_schur(lam, 4).dim == dim_gl(lam, 4)
        assert projected == []
        monkeypatch.undo()
        seconds = []
        for _ in range(3):
            t0 = time.process_time()
            realize_schur(lam, 4)
            seconds.append(time.process_time() - t0)
        assert min(seconds) < 0.2

    def test_memory_wall(self):
        # storing every basis vector expanded took 7.3 s and 1.5 GB here
        def child(conn):
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            t0 = time.process_time()
            dim = realize_schur((6, 5, 1), 4, limit=4**12).dim
            conn.send((dim, time.process_time() - t0))

        assert threading.active_count() == 1, "forking is safe only without other threads"
        receive, send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.get_context("fork").Process(target=child, args=(send,))
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0
        dim, seconds = receive.recv()
        assert dim == dim_gl((6, 5, 1), 4) == 735
        assert seconds < 2

    @pytest.mark.parametrize("d", [(0, 3, 4, 7), (0, 2, 3, 4, 6), (0, 1, 4, 6), (1, 2, 4)])
    def test_chain_fillings_full_rank(self, d):
        m = len(d) - 1
        for i in range(m + 1):
            r = realize_schur(alpha(d, i), m, boxes=chain_filling(d, i))
            assert r.dim == dim_gl(alpha(d, i), m), (d, i)

    def test_nonpositive_limit_is_invalid(self):
        # a limit below 1 is invalid input, not a resource limit
        for limit in (0, -5):
            with pytest.raises(ValueError, match="below 1") as info:
                realize_schur((1,), 1, limit=limit)
            assert not isinstance(info.value, DimLimitError)

    def test_invalid_limit_wins_over_other_limits(self):
        # m = 70 is over the length limit too; the invalid limit is reported
        with pytest.raises(ValueError, match="below 1") as info:
            SliceLab(range(71), limit=0)
        assert not isinstance(info.value, ResourceLimitError)


class TestDifferentials:
    def test_slice_shapes(self):
        d = (0, 1, 3)
        lab = SliceLab(d)
        t = betti_F(d)
        # at slice degree k the i-th term contributes rank * dim Sym_{k - d_i}
        for i in (1, 2):
            mat = lab.differential(i, d[i])
            assert len(mat) == lab.slice_dim(i - 1, d[i])
            assert len(mat[0]) == lab.slice_dim(i, d[i])
        assert lab.slice_dim(0, 0) == t.ranks[0]

    def test_generator_slice_nonzero(self):
        mat = differential_slice((0, 1, 3), 1, 1)
        assert not mat_is_zero(mat)

    def test_dsquared_small(self):
        ok, bad = verify_dsquared((0, 1, 3), 5)
        assert ok, bad

    def test_a_linearity_small(self):
        lab = SliceLab((0, 2, 3))
        for k in (2, 3, 4):
            assert check_a_linearity(lab, 1, k)
            assert check_a_linearity(lab, 2, k)

    def test_equivariance_all_perms_small(self):
        for g in permutations(range(2)):
            assert equivariance_spotcheck((0, 2, 3), 1, 2, g)
            assert equivariance_spotcheck((0, 2, 3), 2, 3, g)

    @pytest.mark.parametrize("d", CORPUS)
    def test_slice_dims(self, d):
        # (F_i)_k is S_alpha(i)(E) (x) Sym^(k - d_i)(E), and zero below d_i
        lab, m = SliceLab(d), len(d) - 1
        ranks = betti_F(d).ranks
        for i in range(m + 1):
            for k in range(d[-1] + 3):
                j = k - d[i]
                expected = ranks[i] * comb(j + m - 1, m - 1) if j >= 0 else 0
                assert lab.slice_dim(i, k) == expected, (i, k)

    def test_lab_must_realize_d(self):
        # given both, d used to be ignored and the lab's sequence checked
        lab = SliceLab((0, 2, 3))
        for bad in ((0, 1, 3), (0, 2, 3, 4)):
            with pytest.raises(ValueError, match="lab realizes"):
                verify_dsquared(bad, 5, lab=lab)
            with pytest.raises(ValueError, match="lab realizes"):
                equivariance_spotcheck(bad, 1, 2, (1, 0), lab=lab)
        with pytest.raises(ValueError, match="strictly increasing"):
            verify_dsquared((5, 4), 5, lab=lab)
        with pytest.raises(ValueError, match="not an integer"):
            equivariance_spotcheck("nonsense", 1, 2, (1, 0), lab=lab)
        assert verify_dsquared([0, 2, 3], 5, lab=lab) == (True, [])
        assert equivariance_spotcheck((0, 2, 3), 1, 2, (1, 0), lab=lab)


class TestChainFilling:
    """Every Schur module is filled by the standard tableau of the chain
    alpha(0) < ... < alpha(m), and no map vanishes at its generator slice."""

    def test_filling(self):
        # d = (1, 2, 4): alpha = (2, 1), (3, 1), (3, 3)
        assert chain_filling((1, 2, 4), 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
        assert chain_filling((1, 2, 4), 1) == chain_filling((1, 2, 4), 2)[:4]

    def test_map_that_vanished_row_major(self):
        # with every module filled row-major d_1 vanished at its generator
        # slice, and with every module filled column-major d_2, d_3 and d_4
        d = (0, 2, 3, 4, 6)
        lab = SliceLab(d, limit=4**9)
        for i in (1, 2):
            assert any(lab.differential_columns(i, d[i]))

    def test_no_generator_map_vanishes(self):
        # every d = (0, ...) with d_m <= 5; three need more than 3^8 slots
        realized = 0
        for m in range(1, 6):
            for rest in combinations(range(1, 6), m):
                d = (0,) + rest
                lab = SliceLab(d, limit=3**8)
                try:
                    cols = [lab.differential_columns(i, d[i]) for i in range(1, m + 1)]
                except DimLimitError:
                    continue
                assert all(any(c) for c in cols), d
                realized += 1
        assert realized == 28


class TestWordLevelOracle:
    """The multiset-tail matrices equal the word-level realization entry for
    entry: same maps, same bases, so the coordinates must agree."""

    @pytest.mark.parametrize("d", [(0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (1, 2, 3), (1, 2, 4)])
    def test_matrices_match(self, d):
        lab, ref = SliceLab(d), WordSlices(d)
        m, k_max = len(d) - 1, d[-1] + 2
        for k in range(d[0], k_max + 1):
            for i in range(1, m + 1):
                assert lab.differential(i, k) == ref.differential(i, k), ("d", i, k)
            for i in range(m + 1):
                for g in permutations(range(m)):
                    assert letter_action(lab, i, k, g) == ref.letter_action(i, k, g), (
                        "g", i, k, g
                    )
                for var in range(m):
                    assert multiplication(lab, i, k, var) == ref.multiplication(
                        i, k, var
                    ), ("x", i, k, var)


class TestPivotCoordinates:
    """Schur coordinates read off the pivot words equal the full reduction
    of the same vector by an echelon of the expanded basis vectors Y(P[s])
    (`oracles.SubspaceBasis.coords`, which also rejects a vector outside
    the span)."""

    @staticmethod
    def echelon(schur):
        basis = schur_basis(schur)
        ech = SubspaceBasis()
        assert all([ech.add(v) for v in basis])
        return basis, ech

    # (0, 1, 4, 5) and (0, 2, 3, 5) have suffixes whose coefficients all
    # cancel: the images leave them out rather than holding them empty
    @pytest.mark.parametrize("d", CORPUS + ((0, 1, 4, 5), (0, 2, 3, 5)))
    def test_generator_images(self, d):
        lab = SliceLab(d)
        for i in range(1, len(d)):
            target = lab.schur(i - 1)
            a = sum(target.lam)
            _, ech = self.echelon(target)
            for s, img in zip(schur_basis(lab.schur(i)), lab.generator_images(i)):
                ref: dict = {}
                for h, c in s.items():
                    y = target.symmetrizer.apply({h[:a]: 1})
                    slot = ref.setdefault(tuple(sorted(h[a:])), {})
                    for r, x in ech.coords(y).items():
                        slot[r] = slot.get(r, 0) + c * x
                assert all(img.values()), "an empty suffix entry"
                ref = {u: {r: x for r, x in v.items() if x} for u, v in ref.items()}
                assert img == {u: v for u, v in ref.items() if v}

    def test_generator_images_once_per_row_key(self, monkeypatch):
        # Y(p) depends only on the row key of the prefix p in the target, so
        # each map finds coordinates once per distinct row key (297 on this
        # ray) and not once per distinct prefix (2952)
        d = (0, 3, 4, 7)
        lab = SliceLab(d, limit=10**40)
        asked = []
        scaled_image = exactness.SchurRealization.scaled_image
        monkeypatch.setattr(
            exactness.SchurRealization,
            "scaled_image",
            lambda self, arg: asked.append(arg) or scaled_image(self, arg),
        )
        for i in range(1, len(d)):
            source, target = lab.schur(i), lab.schur(i - 1)
            keys = {target.symmetrizer.row_key(h) for s in schur_basis(source) for h in s}
            asked.clear()
            lab.generator_images(i)
            assert len(asked) == len(set(asked)) <= len(keys), i

    @pytest.mark.parametrize("d", CORPUS)
    def test_letter_action(self, d):
        lab = SliceLab(d)
        m = len(d) - 1
        for i in range(m + 1):
            basis, ech = self.echelon(lab.schur(i))
            for g in permutations(range(m)):
                # at k = d_i the tail is empty, so column r is basis vector r
                cols = lab.letter_action_columns(i, d[i], g)
                for s, col in zip(basis, cols):
                    moved = {tuple(g[x] for x in h): c for h, c in s.items()}
                    assert col == ech.coords(moved), (i, g)


class TestCheapChecksCatchMutation:
    """One corrupted entry of a cached differential must fail d^2 = 0,
    A-linearity and equivariance, which all read the cached columns."""

    D = (0, 1, 2, 3)
    DIFF, SLICE = 2, 3  # the corrupted map d_2 and its slice degree

    def mutated_lab(self):
        lab = SliceLab(self.D)
        col, r = next(
            (col, r)
            for col in lab.differential_columns(self.DIFF, self.SLICE)
            for r, x in col.items()
            if x != -1
        )
        col[r] += 1
        return lab

    def test_clean_lab_passes(self):
        lab = SliceLab(self.D)
        assert verify_dsquared(self.D, self.SLICE + 1, lab=lab) == (True, [])
        assert check_a_linearity(lab, self.DIFF, self.SLICE - 1)
        assert check_a_linearity(lab, self.DIFF, self.SLICE)
        for g in permutations(range(3)):
            assert equivariance_spotcheck(self.D, self.DIFF, self.SLICE, g, lab=lab)

    def test_a_linearity(self):
        lab = self.mutated_lab()
        assert not all(check_a_linearity(lab, self.DIFF, k) for k in (self.SLICE - 1, self.SLICE))

    def test_dsquared(self):
        ok, bad = verify_dsquared(self.D, self.SLICE + 1, lab=self.mutated_lab())
        assert not ok
        assert set(bad) <= {(self.DIFF, self.SLICE), (self.DIFF + 1, self.SLICE)} and bad

    def test_equivariance(self):
        lab = self.mutated_lab()
        assert not all(
            equivariance_spotcheck(self.D, self.DIFF, self.SLICE, g, lab=lab)
            for g in permutations(range(3))
        )

    def test_equivariance_generators(self):
        # the transposition and the 3-cycle alone already see the corruption
        lab = self.mutated_lab()
        gens = symmetric_generators(3)
        assert gens == [(1, 0, 2), (1, 2, 0)]
        assert not all(
            equivariance_spotcheck(self.D, self.DIFF, self.SLICE, g, lab=lab) for g in gens
        )

    def test_certificate_reports_equivariance(self, monkeypatch):
        monkeypatch.setattr(exactness, "SliceLab", lambda d, limit=None: self.mutated_lab())
        cert = verify_exactness(self.D)
        assert not cert.equivariance_ok and not cert.passed
        # d_2 is checked at min(d_2 + 1, k_max), the corrupted slice
        assert {f[1:3] for f in cert.failures if f[0] == "equivariance"} == {
            (self.DIFF, self.SLICE)
        }


def compose(g, h):
    """The letter permutation x -> g[h[x]]."""
    return tuple(g[x] for x in h)


class TestEquivarianceGenerators:
    """verify_exactness checks equivariance on a generating set of S_m: the
    letter action is a representation, so that covers every permutation."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_generate_symmetric_group(self, m):
        gens = symmetric_generators(m)
        assert len(gens) == len(set(gens)) == min(m - 1, 2)
        identity = tuple(range(m))
        assert identity not in gens
        group, frontier = {identity}, [identity]
        while frontier:
            frontier = [compose(g, h) for h in frontier for g in gens]
            frontier = [p for p in frontier if p not in group]
            group.update(frontier)
        assert group == set(permutations(range(m)))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_certificate_checks_the_generators(self, m, monkeypatch):
        checked = set()
        spotcheck = exactness.equivariance_spotcheck

        def spy(d, i, k, g, lab=None):
            checked.add(tuple(g))
            return spotcheck(d, i, k, g, lab=lab)

        monkeypatch.setattr(exactness, "equivariance_spotcheck", spy)
        cert = verify_exactness(tuple(range(m + 1)), limit=7**9)
        assert cert.passed and cert.equivariance_ok
        assert checked == set(symmetric_generators(m))


class TestCachedColumnsUnchanged:
    """The checks read the lab's cached tables directly: the differential
    columns (`mat_rank` among them), the tail tables, the merged suffix
    tails, the `times_var` lists and the Schur actions of letter
    permutations.  None of them may modify a cached entry or add one beyond
    what the tables were filled with."""

    TABLES = ("_cols", "_images", "_tails", "_merged", "_times", "_actions")

    @staticmethod
    def fill(lab, k_max):
        m = lab.m
        for k in range(lab.d[0], k_max + 1):
            for i in range(m + 1):
                if i:
                    lab.differential_columns(i, k)
                if k < k_max:
                    for var in range(m):
                        lab.times_var(i, k, var)
                for g in symmetric_generators(m):
                    lab.letter_action_columns(i, k, g)

    @pytest.mark.parametrize("d", [(0, 1, 2, 4), (0, 1, 2, 3), (0, 1, 3, 4)])
    def test_checks_leave_cache_alone(self, d):
        m, k_max = len(d) - 1, d[-1] + 2
        lab = SliceLab(d)
        self.fill(lab, k_max)
        assert all(getattr(lab, name) for name in self.TABLES)
        snapshot = copy.deepcopy({name: getattr(lab, name) for name in self.TABLES})
        assert any([mat_rank(cols) for cols in lab._cols.values()])  # rank every slice
        assert verify_dsquared(d, k_max, lab=lab) == (True, [])
        for i in range(1, m + 1):
            for k in range(d[0], k_max):
                assert check_a_linearity(lab, i, k)
            for g in symmetric_generators(m):
                for k in range(d[i], k_max + 1):
                    assert equivariance_spotcheck(d, i, k, g, lab=lab)
        assert {name: getattr(lab, name) for name in snapshot} == snapshot

    def test_refused_call_is_not_remembered(self):
        lab = SliceLab((0, 1, 3), limit=31)
        for _ in range(2):
            with pytest.raises(DimLimitError):
                lab.differential_columns(1, 4)

    @pytest.mark.parametrize("d", CORPUS)
    def test_cached_maps_match_fresh_lab(self, d):
        # one lab fills its tables slice after slice, so most entries are
        # reused from another slice or another term; a fresh lab per slice
        # degree k builds them at k first
        m, k_max = len(d) - 1, d[-1] + 2
        warm = SliceLab(d)
        self.fill(warm, k_max)
        for k in range(d[0], k_max + 1):
            fresh = SliceLab(d)
            for i in range(m, -1, -1):
                for g in permutations(range(m)):
                    assert warm.letter_action_columns(i, k, g) == fresh.letter_action_columns(
                        i, k, g
                    ), (i, k, g)
                for var in range(m):
                    assert warm.times_var(i, k, var) == fresh.times_var(i, k, var), (i, k, var)


class TestNoFloats:
    """The lab computes over Z and Q only: every coefficient it stores is an
    int or a Fraction, never a float."""

    @pytest.mark.parametrize("d", CORPUS)
    def test_exact_types(self, d):
        def exact(values):
            return all(type(x) in (int, Fraction) for x in values)

        def integral(values):
            return all(type(x) is int for x in values)

        lab = SliceLab(d)
        m = len(d) - 1
        for i in range(m + 1):
            schur = lab.schur(i)
            # the inverse N / D of the pivot values and the pivot table are integers
            assert type(schur.denom) is int and schur.denom > 0
            assert all(integral(col.values()) for col in schur.solve)
            assert all(integral(row.values()) for row in schur.at_pivots.values())
        for k in range(d[0], d[-1] + 3):
            for i in range(1, m + 1):
                cols = lab.differential_columns(i, k)
                assert all(exact(col.values()) for col in cols)
                # integral entries are stored as int
                whole = [x for col in cols for x in col.values() if x.denominator == 1]
                assert integral(whole)


class TestCertificates:
    def test_koszul_line(self):
        c = verify_exactness((0, 2))
        assert c.passed
        assert c.m == 1

    def test_013(self):
        c = verify_exactness((0, 1, 3))
        assert c.passed
        # cokernel slice dims reproduce the strip-count Hilbert function
        for k, (ok, data) in c.slices_exact.items():
            assert ok
            assert data["coker"] == hilbert_M_strips((0, 1, 3), k)

    def test_failures_empty_on_pass(self):
        c = verify_exactness((0, 2, 3))
        assert c.passed
        assert c.failures == []
        assert "finite certificate" in c.scope_note

    def test_kmax_below_d0_is_refused(self):
        # such a certificate would check no slice and still pass
        with pytest.raises(ValueError, match=r"k_max = -3 .*d_0 = 0"):
            verify_exactness((0, 2), k_max=-3)
        with pytest.raises(ValueError, match=r"k_max = 1 .*d_0 = 2"):
            verify_exactness((2, 3, 5), k_max=1)
        assert verify_exactness((2, 3, 5), k_max=2).k_range == (2, 2)

    def test_negative_d0_is_refused(self):
        with pytest.raises(ValueError, match=r"\(-1, 0, 2\).*d - d_0 = \(0, 1, 3\)"):
            verify_exactness((-1, 0, 2))

    def test_limit_bails_out(self):
        with pytest.raises(DimLimitError):
            verify_exactness((0, 9, 10, 11))

    def test_kmax_below_top_degree_reads_no_slice_past_kmax(self):
        # d_3 = 5 > k_max: map 3 is never realized, so slice degree 5 (ambient
        # 3^9) is not refused under a limit of 3^6 that covers k_range
        small = verify_exactness((0, 1, 2, 5), k_max=2, limit=729)
        assert small.passed and small.k_range == (0, 2)
        assert small == verify_exactness((0, 1, 2, 5), k_max=2, limit=10**9)


class TestVerdictsFromFailures:
    """Every check that fails is recorded in `failures`, and each verdict
    of the certificate is false exactly when a failure of its kind is."""

    VERDICTS = (
        "dsquared_ok", "minimality_ok", "euler_identity_ok", "hf_match_ok",
        "alinearity_ok", "equivariance_ok",
    )

    def assert_only(self, cert, failing):
        for name in self.VERDICTS:
            assert getattr(cert, name) is (name != failing), name
        assert not cert.passed

    def test_hilbert_mismatch(self, monkeypatch):
        d = (0, 1, 2, 4)
        strips = exactness.hilbert_M_strips
        monkeypatch.setattr(
            exactness, "hilbert_M_strips", lambda d, k: strips(d, k) + (k == d[0] + 1)
        )
        cert = verify_exactness(d)
        assert cert.failures == [("hilbert", 1, 1, 2)]
        self.assert_only(cert, "hf_match_ok")
        assert [k for k, (ok, _) in cert.slices_exact.items() if not ok] == [1]

    def test_euler_identity(self, monkeypatch):
        monkeypatch.setattr(exactness, "hilbert_M_euler", lambda d, k: 1)
        cert = verify_exactness((0, 1, 3))
        assert cert.failures == [("euler", 2)]
        self.assert_only(cert, "euler_identity_ok")
        assert all(ok for ok, _ in cert.slices_exact.values())

    def test_mutated_differential(self, monkeypatch):
        mutant = TestCheapChecksCatchMutation()
        monkeypatch.setattr(exactness, "SliceLab", lambda d, limit=None: mutant.mutated_lab())
        cert = verify_exactness(mutant.D)
        assert cert.failures == [
            ("exactness", 1, 3, 10, 9),
            ("exactness", 2, 3, 9, 1),
            ("dsquared", 2, 3),
            ("dsquared", 3, 3),
            ("alinearity", 2, 2),
            ("alinearity", 2, 3),
            ("equivariance", 2, 3, (1, 0, 2)),
            ("equivariance", 2, 3, (1, 2, 0)),
        ]
        assert not cert.passed
        assert cert.hf_match_ok and cert.euler_identity_ok and cert.minimality_ok
        assert not (cert.dsquared_ok or cert.alinearity_ok or cert.equivariance_ok)
        assert [k for k, (ok, _) in cert.slices_exact.items() if not ok] == [3]

    def test_a_linearity_entry_count(self):
        # column 0 of d_2 at slice 3 is x_0 times column 0 at slice 2; one
        # entry more makes the two columns differ in length
        lab = SliceLab((0, 1, 2, 3))
        assert check_a_linearity(lab, 2, 2)
        col = lab.differential_columns(2, 3)[0]
        col[next(r for r in range(len(col) + 1) if r not in col)] = 1
        assert not check_a_linearity(lab, 2, 2)


class TestLabRefusals:
    """Invalid arguments to the lab's tables are refused, and a map that
    vanishes at its generator slice raises ZeroMapError."""

    def test_differential_index(self):
        lab = SliceLab((0, 1, 3))
        for i in (0, 3):
            with pytest.raises(ValueError, match="outside 1..2"):
                lab.differential_columns(i, 3)

    def test_variable_index(self):
        lab = SliceLab((0, 1, 3))
        with pytest.raises(ValueError, match="outside 0..1"):
            lab.times_var(1, 2, 2)

    def test_letter_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            equivariance_spotcheck((0, 1, 2, 3), 1, 2, (0, 0, 1))

    def test_vanishing_map(self, monkeypatch):
        images = SliceLab.generator_images

        def vanish(self, i):
            return [{} for _ in self.schur(i).pivots] if i == 2 else images(self, i)

        monkeypatch.setattr(SliceLab, "generator_images", vanish)
        lab = SliceLab((0, 1, 3))
        with pytest.raises(exactness.ZeroMapError, match="differential 2 vanished"):
            lab.differential_columns(2, 3)

    def test_guard_formats_its_message_only_on_refusal(self, monkeypatch):
        texts = []

        def counted(x):
            texts.append(x)
            return str(x)

        monkeypatch.setattr(exactness, "int_text", counted)
        assert verify_exactness((0, 1, 3)).passed
        assert texts == []
        with pytest.raises(DimLimitError) as info:
            SliceLab((0, 1, 3), limit=31).guard(4)
        assert str(info.value) == "slice degree 4 needs ambient dimension 2^5 > limit 31"
