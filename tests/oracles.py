"""Independent brute-force oracles used by the tests: semistandard tableau
enumeration for (skew) Schur module dimensions, kept deliberately separate
from the library's formulas, the Weyl product over every pair of rows,
horizontal strips by search over a box, the strip-filter form of the
Hilbert function and the tableau form of super dimensions, dense
Gauss-Jordan rank, a Fraction Gauss-Jordan inverse and dense matrix
helpers, an echelonized subspace basis with coordinates, the Young
symmetrizer summed over its whole row and column groups, a
word-level realization of the slice complex for the exactness lab, and
Bott's algorithm with every pair of entries compared."""

from fractions import Fraction
from itertools import permutations, product

from pureres.exactness import YoungSymmetrizer, chain_filling, realize_schur
from pureres.partitions import (
    conjugate,
    contains,
    dim_gl,
    is_horizontal_strip,
    part,
    pieri_expand,
    trim,
)
from pureres.resolutions import alpha, base_weight


def count_ssyt(outer, inner, n: int) -> int:
    """Number of semistandard skew tableaux of shape outer/inner with
    entries in {1..n}: rows weakly increase, columns strictly increase.
    Plain backtracking over cells in row-major order."""
    outer = trim(outer)
    inner = trim(inner)
    cells = [
        (r, c)
        for r in range(len(outer))
        for c in range(part(inner, r), outer[r])
    ]
    values: dict = {}

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        left = values.get((r, c - 1))
        if left is not None:
            lo = max(lo, left)
        above = values.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        total = 0
        for v in range(lo, n + 1):
            values[(r, c)] = v
            total += fill(idx + 1)
        values.pop((r, c), None)
        return total

    return fill(0)


def weyl_dim(lam, m: int) -> int:
    """dim S_lam(C^m) by the Weyl dimension formula, every pair of the m
    rows at once: prod_{a<b} (lam_a - lam_b + b - a) over prod_{a<b} (b - a),
    lam padded with zeros to m rows."""
    lam = tuple(lam) + (0,) * (m - len(lam))
    num = den = 1
    for a in range(m):
        for b in range(a + 1, m):
            num *= lam[a] - lam[b] + b - a
            den *= b - a
    assert num % den == 0
    return num // den


def brute_strips(lam, e: int, m: int) -> list:
    """Every mu with at most m rows such that mu/lam is a horizontal strip
    of size e: all weakly decreasing rows in the (lam_1 + e) x m box,
    filtered by `is_horizontal_strip`, lexicographically descending."""
    lam = trim(lam)
    width = part(lam, 0) + e
    found = [
        trim(mu)
        for mu in product(range(width + 1), repeat=m)
        if all(a >= b for a, b in zip(mu, mu[1:]))
        and sum(mu) == sum(lam) + e
        and is_horizontal_strip(mu, lam)
    ]
    return sorted(found, reverse=True)


def pairwise_bott(alpha_q, u: int, m: int):
    """Bott's algorithm on (alpha_q, u) + (m-1, ..., 1, 0), comparing every
    pair of entries: None when an entry repeats, else (number of pairs out
    of order, sorted sequence minus the staircase)."""
    rho = tuple(range(m - 1, -1, -1))
    t = tuple(a + r for a, r in zip(tuple(alpha_q) + (u,), rho))
    if len(set(t)) < m:
        return None
    inversions = sum(1 for i in range(m) for j in range(i + 1, m) if t[i] < t[j])
    return inversions, tuple(x - r for x, r in zip(sorted(t, reverse=True), rho))


def strip_filter_hilbert(d, k: int) -> int:
    """Hilbert function of the module resolved by the F-complex, as every
    Pieri strip over the base weight minus those containing alpha(d, 1),
    each weighed by its Weyl dimension."""
    m = len(d) - 1
    if k < d[0]:
        return 0
    avoid = alpha(d, 1)
    return sum(
        dim_gl(mu, m)
        for mu in pieri_expand(base_weight(d), k - d[0], m)
        if not contains(mu, avoid)
    )


def tableau_super_dim(lam, m: int, n: int) -> int:
    """Super Schur dimension as sum over mu inside lam with at most m rows
    of dim S_mu(C^m) times the number of semistandard tableaux of shape
    lam'/mu' with entries in {1..n}."""
    lam = trim(lam)
    total = 0
    for mu in product(*(range(p + 1) for p in lam)):
        if any(a < b for a, b in zip(mu, mu[1:])) or len(trim(mu)) > m:
            continue
        total += dim_gl(trim(mu), m) * count_ssyt(conjugate(lam), conjugate(trim(mu)), n)
    return total


def dense_rank(a) -> int:
    """Rank of a dense matrix (list of rows) by Gauss-Jordan elimination over
    Fraction, column by column with the first nonzero row as pivot."""
    if not a or not a[0]:
        return 0
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / Fraction(m[rank][col])
        m[rank] = [x * inv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def mat_mul(a, b) -> list:
    """Product of two dense matrices (lists of rows)."""
    cols = len(b[0]) if b else 0
    return [
        [sum((x * b[q][j] for q, x in enumerate(row)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def sparse_rows(a) -> list:
    """The rows of a dense matrix as sparse vectors {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def sparse_columns(a) -> list:
    """The columns of a dense matrix as sparse vectors {row: nonzero entry}."""
    ncols = len(a[0]) if a else 0
    return [{r: row[j] for r, row in enumerate(a) if row[j]} for j in range(ncols)]


def dense(cols, rows: int) -> list:
    """Dense rows of the sparse column matrix cols with the given row count."""
    out = [[Fraction(0)] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for r, x in col.items():
            out[r][j] = x
    return out


def multiplication(lab, i: int, k: int, var: int) -> list:
    """Dense matrix of multiplication by the var-th variable, (F_i)_k ->
    (F_i)_{k+1}, from the index map `SliceLab.times_var`."""
    cols = [{r: Fraction(1)} for r in lab.times_var(i, k, var)]
    return dense(cols, lab.slice_dim(i, k + 1))


def letter_action(lab, i: int, k: int, g) -> list:
    """Dense matrix of the letter permutation g on (F_i)_k, from
    `SliceLab.letter_action_columns`."""
    return dense(lab.letter_action_columns(i, k, g), lab.slice_dim(i, k))


def random_partition(rng, max_part: int, max_len: int):
    parts = sorted(
        (rng.randint(0, max_part) for _ in range(rng.randint(0, max_len))),
        reverse=True,
    )
    return trim(parts)


def random_degrees(rng, max_m: int, d_max: int, min_m: int = 1):
    m = rng.randint(min_m, max_m)
    while True:
        vals = sorted(rng.sample(range(d_max + 1), m + 1))
        if len(set(vals)) == m + 1:
            return tuple(vals)


def add_scaled(acc: dict, vec: dict, c) -> None:
    """acc += c vec, dropping the entries that cancel."""
    for w, x in vec.items():
        y = acc.get(w, 0) + c * x
        if y:
            acc[w] = y
        else:
            acc.pop(w, None)


def fraction_inverse(columns: list):
    """Sparse columns of V^-1 over Fraction, V the square matrix with the
    sparse columns `columns` ({row: entry}), or None if V is singular.  The
    columns are echelonized in order, each reduced by the earlier ones at
    their pivot rows; one that reduces to zero makes V singular.  Column j
    of V^-1 is then the coordinates of the unit vector at row j, which the
    same reduction finds: every row is a pivot row, so nothing is left
    over."""
    echelon = []  # (pivot row, reduced column, it in terms of the input columns)

    def reduce(v: dict) -> tuple[dict, dict]:
        combo: dict = {}
        for p, pv, pc in echelon:
            x = v.get(p)
            if x:
                f = Fraction(x, 1) / pv[p]
                add_scaled(v, pv, -f)
                add_scaled(combo, pc, f)
        return v, combo

    for s, col in enumerate(columns):
        v, combo = reduce(dict(col))
        if not v:
            return None
        combo = {r: -x for r, x in combo.items()}
        combo[s] = 1
        echelon.append((s if s in v else min(v), v, combo))
    return [reduce({j: 1})[1] for j in range(len(columns))]


class SubspaceBasis:
    """Incrementally echelonized spanning set of word vectors ({word:
    coefficient}) with exact coordinates of new vectors in terms of the
    accepted ones, over Fraction."""

    def __init__(self):
        self._pivots = []  # (pivot word, echelon vector, its combination of accepted vectors)
        self.count = 0

    def _reduce(self, vec):
        vec = {w: Fraction(c) for w, c in vec.items() if c}
        combo: dict = {}
        for pw, pv, pc in self._pivots:
            c = vec.get(pw)
            if c:
                f = c / pv[pw]
                add_scaled(vec, pv, -f)
                add_scaled(combo, pc, f)
        return vec, combo

    def add(self, vec) -> bool:
        """Accept vec if independent of the current span (as original
        vector number `count`); returns whether it was accepted."""
        res, combo = self._reduce(vec)
        if not res:
            return False
        pc = {idx: -x for idx, x in combo.items()}
        pc[self.count] = Fraction(1)
        self._pivots.append((min(res), res, pc))
        self.count += 1
        return True

    def coords(self, vec) -> dict:
        """Coordinates of vec in the accepted original vectors; raises
        ValueError if vec is outside the span."""
        res, combo = self._reduce(vec)
        if res:
            raise ValueError("vector outside subspace span")
        return combo


def sym_tensor(word) -> dict:
    """The symmetrized tensor of a multiset of letters: the average over all
    slot permutations, written over the distinct anagrams, each of which
    has coefficient 1 / (number of anagrams)."""
    anagrams = sorted(set(permutations(word)))
    return {w: Fraction(1, len(anagrams)) for w in anagrams}


def symmetrize_trailing(vec: dict, start: int) -> dict:
    """Average of the word vector vec over all permutations of the slots
    >= start."""
    out: dict = {}
    for w, c in vec.items():
        add_scaled(out, {w[:start] + w2: c2 for w2, c2 in sym_tensor(w[start:]).items()}, c)
    return out


def young_symmetrize(lam, boxes, vec) -> dict:
    """The Young symmetrizer of the filling that puts boxes[s] (row-major
    when boxes is None) in slot s, by brute force: each word w of vec goes
    to the sum of sign(q) times the word s -> w[r[q[s]]] over every slot
    permutation r that keeps each row and q that keeps each column, with
    no merging on the way; slots past the boxes stay put."""
    lam = trim(lam)
    boxes = [(r, c) for r in range(len(lam)) for c in range(lam[r])] if boxes is None else boxes
    n = len(boxes)

    def keeping(side):
        classes: dict = {}
        for s, box in enumerate(boxes):
            classes.setdefault(box[side], []).append(s)
        perms = []
        for images in product(*[permutations(c) for c in classes.values()]):
            p = list(range(n))
            for c, image in zip(classes.values(), images):
                for s, t in zip(c, image):
                    p[s] = t
            perms.append(p)
        return perms

    def sign(p) -> int:
        return (-1) ** sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n))

    out: dict = {}
    for w, c in vec.items():
        for r in keeping(0):
            for q in keeping(1):
                y = tuple([w[r[q[s]]] for s in range(n)]) + tuple(w[n:])
                out[y] = out.get(y, 0) + sign(q) * c
    return {y: c for y, c in out.items() if c}


def schur_basis(schur) -> list:
    """The basis vectors Y(P[s]) of a Schur realization, expanded over words."""
    return [schur.symmetrizer.apply({w: 1}) for w in schur.pivots]


class WordSlices:
    """Word-level reference realization of the slice complex: every slice
    basis vector is written out over all anagrams of its tail in E^(x)N
    (`sym_tensor`), and every map is applied word by word and reduced to
    coordinates by echelonizing the whole slice basis.  Every Schur module
    is realized in the library's chain filling.  Slow but direct; the
    library's multiset-tail matrices must agree with it entry for entry."""

    def __init__(self, d):
        self.d = tuple(d)
        self.m = len(self.d) - 1
        self._spaces: dict = {}

    def space(self, i: int, k: int):
        """(basis vectors, echelon) of (F_i)_k, or None below degree d_i."""
        key = (i, k)
        if key not in self._spaces:
            sp = None
            if k >= self.d[i]:
                schur = realize_schur(
                    alpha(self.d, i), self.m, boxes=chain_filling(self.d, i)
                )
                multisets = [
                    w
                    for w in product(range(self.m), repeat=k - self.d[i])
                    if list(w) == sorted(w)
                ]
                basis = []
                for s in schur_basis(schur):
                    for u in multisets:
                        tail = sym_tensor(u)
                        basis.append(
                            {h + w: c * x for h, c in s.items() for w, x in tail.items()}
                        )
                echelon = SubspaceBasis()
                assert all(echelon.add(v) for v in basis)
                sp = (basis, echelon)
            self._spaces[key] = sp
        return self._spaces[key]

    def _matrix(self, tgt, images) -> list:
        basis, echelon = tgt
        cols = []
        for img in images:
            col = [Fraction(0)] * len(basis)
            for idx, c in echelon.coords(img).items():
                col[idx] = c
            cols.append(col)
        return [[col[r] for col in cols] for r in range(len(basis))]

    def differential(self, i: int, k: int) -> list:
        src, tgt = self.space(i, k), self.space(i - 1, k)
        if src is None or tgt is None:
            rows = 0 if tgt is None else len(tgt[0])
            return [[Fraction(0)] * (0 if src is None else len(src[0])) for _ in range(rows)]
        lam = trim(alpha(self.d, i - 1))
        sym = YoungSymmetrizer(lam, chain_filling(self.d, i - 1))
        a = sum(lam)
        return self._matrix(tgt, [sym.apply(symmetrize_trailing(v, a)) for v in src[0]])

    def multiplication(self, i: int, k: int, var: int) -> list:
        src, tgt = self.space(i, k), self.space(i, k + 1)
        if src is None:
            return [[] for _ in range(0 if tgt is None else len(tgt[0]))]
        a = sum(alpha(self.d, i))
        return self._matrix(
            tgt,
            [symmetrize_trailing({w + (var,): c for w, c in v.items()}, a) for v in src[0]],
        )

    def letter_action(self, i: int, k: int, g) -> list:
        sp = self.space(i, k)
        if sp is None:
            return []
        return self._matrix(
            sp, [{tuple(g[x] for x in w): c for w, c in v.items()} for v in sp[0]]
        )
