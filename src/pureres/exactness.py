"""Explicit rational slice matrices of the equivariant pure complex in small
cases, and finite certificates of d^2 = 0, graded-slice exactness,
Hilbert-function agreement, A-linearity and equivariance, realizing no
slice above k_max.  Minimality holds by construction: d is strictly
increasing, so every map has positive degree.

The degree-k slice of the i-th term is S_alpha(i)(E) (x) Sym^j(E) with
dim E = m and j = k - d_i.  It lives in one ambient tensor power E^(x)N:
the Schur module is the image of a Young symmetrizer on the leading
|alpha(i)| slots (`realize_schur`, an explicit basis of word vectors), and
Sym^j is the symmetrized tensors on the trailing j slots.

Filling.  The Schur modules of one degree sequence share one filling, the
standard tableau of the chain alpha(0) < ... < alpha(m) (`chain_filling`):
the boxes of alpha(0) row by row, then for i = 1..m the e_i boxes of
alpha(i)/alpha(i-1) at the end of row i-1.  alpha(i) fills the first
|alpha(i)| slots, so the i-th map moves exactly its Pieri strip into the
tail and keeps a head filled as alpha(i-1) is (filling every module
row-major instead made maps vanish, e.g. for (0,2,3,4,6)).  Pieri's rule
has multiplicity one, so Hom_GL(S_alpha(i), S_alpha(i-1) (x) Sym^e_i) is
a line: a nonzero realization of the i-th map is the Pieri map times a
nonzero scalar, which changes no slice rank and keeps d^2 = 0,
A-linearity and equivariance.

Schur bases.  The symmetrizer Y (row symmetrizer, then column
antisymmetrizer) applied to {word: 1} has integer entries.  The basis of a
Schur module is Y(w) for the words w of the semistandard tableaux of
alpha with entries < m, each entry placed in the slot of its box: exactly
dim S_alpha(E) words, which are also the pivot words P (`realize_schur`).
The value of Y(p) at a word w is the number of row permutations fixing p
times the sum of sign(q) over the column permutations q for which q.w is a
row rearrangement of p.  A per-module table (`at_pivots`) holds that
value for every pivot word and row key, so the dim x dim integer matrix V
of the values of the Y(w) at P costs one lookup per entry, and no basis
vector is stored expanded.  The table walks each pivot word column by
column, merging partial walks (`YoungSymmetrizer.sums`), and never lists
the column group: det^7 over m = 3 has 279,936 column permutations.

Soundness.  Exact elimination proves V nonsingular.  A linear relation
among the Y(w) would hold among their values at P, that is among the
columns of V, so they are independent.  They are dim_gl(alpha, m) many,
and im Y is a copy of S_alpha(E) for every standard filling, of that
dimension; so they are a basis of im Y.  A singular V raises
DimMismatchError instead.

Schur coordinates.  The fraction-free elimination over Z of the slice ranks
(`_echelon`), run on the columns of V tagged with unit vectors and
followed by back-substitution (`_inverse`), gives an integer N and D with
N / D = V^-1: every vector v of im Y has coordinates N (v at P) / D.
The lab only asks for coordinates of vectors of im Y, so it never needs a
full residual reduction: Y(p) is in im Y for every word p, and a
permutation g of the letters commutes with every permutation of the
slots, so g Y(x) = Y(g x).  The coordinates of Y(p) come from its values
at P, which depend only on the row key of p (`scaled_image`), and those
of g(Y(w)) are the coordinates of Y(g w).  No basis vector is expanded:
the generator images walk Y(w) with the row step and sum it by key, one
source basis vector at a time.

Slices.  The slice (F_i)_k is read off two tables by index.  With P the
pivot words of S_alpha(i)(E) and n_tails sorted tail multisets of degree
j (`SliceLab.tails`), basis vector number s * n_tails + u of (F_i)_k is
Y(P[s]) (x) sym(u-th multiset), sym the normalized symmetric tensor.  It
is a basis because the Schur basis is one and the tail multisets are
distinct, so nothing is echelonized.

Symmetric tails are never expanded into their anagrams.  A slice vector is
written {(head word, sorted tail multiset): c}, where c is the sum of its
coefficients over all anagrams of the tail; every vector here is symmetric
in its tail slots, so this loses nothing.  The basis vector s (x) sym(u)
is then {(h, u): s[h]}.  Every tail operation has coefficient 1, because
the normalized symmetrizer sends each anagram of a multiset to the same
normalized symmetric tensor:

- the i-th map moves the last letters of the head into the tail,
  (h, u) -> (h[:a], sorted(h[a:] + u)) with a = |alpha(i-1)|, then
  applies the symmetrizer of the target to h[:a];
- multiplication by a variable sends (h, u) -> (h, sorted(u + (var,)));
- a permutation of the letters permutes head and tail, then re-sorts the
  tail.

The i-th map therefore walks each source basis vector once, summed by
target row key and sorted suffix, and its Schur coordinates are found
once per target row key.

Tables are cached on the `SliceLab` by what they depend on, the
arguments of the method that builds them (`_memo`).  The tail
multisets of a symmetric degree j and their index are built once per j
and shared by every slice with that tail degree.  Merging a suffix into
the tails of degree j is a table per (j, suffix): one letter is looked
up, and a longer suffix composes the one-letter maps.  The Schur
coordinates of a letter permutation g on F_i depend only on (i, g), so
the equivariance checks of maps i and i + 1 share F_i's.  Each lab starts
empty: nothing is shared between certificates.

Slice matrices are about 1-2% nonzero, so the certificate keeps them as
sparse columns, one {row: nonzero entry} dict per source basis vector;
integral entries are ints, the others Fractions.  Ranks come from sparse
fraction-free elimination over Z, d^2 and equivariance from one sparse
product, and A-linearity from comparing columns: multiplication by a
variable maps basis vectors injectively to basis vectors, so it is an
index map and needs no product.  Only the public `differential` turns
its sparse columns into dense rows.  All arithmetic is exact over Z and
Q; nothing is a float.

Equivariance.  The certificate checks equivariance under a transposition
and an m-cycle, which generate S_m (`symmetric_generators`).  The letter
action is a representation, so a slice matrix that commutes with the
action of both commutes with the action of every product of them, that
is of every letter permutation.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, update_wrapper
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, gcd, lcm, prod

from .partitions import dim_gl, trim
from .resolutions import (
    ResourceLimitError,
    alpha,
    betti_F,
    check_degrees,
    degree_data,
    hilbert_M_euler,
    hilbert_M_strips,
    int_text,
)

DEFAULT_TENSOR_LIMIT = 3**12

Vec = dict  # word tuple -> int or Fraction


class DimLimitError(ResourceLimitError):
    """Ambient tensor dimension exceeds the configured limit."""


class DimMismatchError(Exception):
    """A symmetrizer image has the wrong rank (implementation bug)."""


class ZeroMapError(Exception):
    """A differential vanished at its generator slice (implementation bug)."""


def _check_ambient(m: int, n: int, limit: int) -> None:
    """Refuse max(m, 2)^n over limit, the size of the ambient E^(x)n (for
    m = 1 it is 1 at any n, while the words still have n letters).  2^n >
    limit once n >= limit.bit_length(), so a huge n is refused without its
    power.  A limit below 1 is invalid input, not a resource limit."""
    if limit < 1:
        raise ValueError(f"tensor limit {limit} is below 1")
    if n >= limit.bit_length() or max(m, 2) ** n > limit:
        dim, n, limit = int_text(max(m, 2)), int_text(n), int_text(limit)
        raise DimLimitError(f"ambient dimension {dim}^{n} > limit {limit}")


# ---------------------------------------------------------------------------
# sparse vectors and symmetrizers


def _ratio(x, q):
    """x / q exactly: an int when q divides x, else a Fraction."""
    whole, rest = divmod(x, q)
    return whole if not rest else Fraction(x, q)


def _boxes(lam) -> list[tuple[int, int]]:
    return [(r, c) for r in range(len(lam)) for c in range(lam[r])]


def chain_filling(d, i: int) -> list[tuple[int, int]]:
    """Boxes of alpha(d, i) in the slot order of the standard tableau of the
    chain alpha(d, 0) < alpha(d, 1) < ... < alpha(d, i): the boxes of
    alpha(d, 0) row by row, then for j = 1..i the e_j boxes of
    alpha(d, j)/alpha(d, j-1) at the end of row j-1.  The filling of
    alpha(d, i-1) is the first |alpha(d, i-1)| slots of this one."""
    r = degree_data(d)
    boxes = _boxes(r.base)
    for j in range(1, i + 1):
        boxes += [(j - 1, r.base[j - 1] + c) for c in range(r.e[j])]
    return boxes


def _filling_groups(boxes) -> tuple[list[list[int]], list[list[int]]]:
    """Slot indices of each row (left to right) and each column (top to
    bottom) of the filling that puts boxes[s] in slot s."""
    rows: dict = {}
    cols: dict = {}
    for slot, (r, c) in sorted(enumerate(boxes), key=lambda sb: sb[1]):
        rows.setdefault(r, []).append(slot)
        cols.setdefault(c, []).append(slot)
    return list(rows.values()), list(cols.values())


@cache
def _signed_perms(n: int) -> tuple:
    """Every permutation of range(n) with its sign."""
    return tuple(
        (p, (-1) ** sum(p[a] > p[b] for a in range(n) for b in range(a + 1, n)))
        for p in permutations(range(n))
    )


class YoungSymmetrizer:
    """Row symmetrizer followed by column antisymmetrizer for a filling of
    a frame (`boxes[s]` is the (row, column) box of slot s; row-major by
    default), acting on the leading |lam| slots of words.

    Both are sums over the slot permutations that preserve every row
    (column).  `sums` walks them column by column, short columns first,
    and lists neither group.  A column meets rows 0..h-1: the row step
    takes one unused letter from each, h distinct letters (a repeated
    letter cancels, by swapping the two equal letters), and the column
    step puts them into the column's slots in every order, with its sign.
    So each distinct row rearrangement is taken once, and the walk starts
    from the number of row permutations fixing the word.  Partial walks
    that have used the same letters of every row and put the same letters
    into every group of slots merge.  Integer input coefficients give
    integer output."""

    def __init__(self, lam, boxes=None):
        self.lam = trim(lam)
        self.boxes = _boxes(self.lam) if boxes is None else list(boxes)
        if sorted(self.boxes) != _boxes(self.lam):
            raise ValueError(f"{boxes} are not the boxes of {self.lam}")
        self.rows, self.cols = _filling_groups(self.boxes)

    def row_key(self, word) -> tuple:
        """The sorted letters of every row: the same for exactly the row
        rearrangements of word."""
        return tuple([tuple(sorted([word[s] for s in row])) for row in self.rows])

    def sums(self, word, groups, rows: bool = True) -> dict:
        """Y(word) summed by key, {key: coefficient}: a word's key is the
        sorted letters of each group of slots, the groups covering the
        leading |lam| slots once.  rows=False leaves out the row step, so
        each column permutes the letters of word in its own slots: the sum
        of sign(q) over the column permutations q with key(q.word) = r,
        times the row stabilizer of r, is Y(p) at word for p of row key r."""
        group = {s: g for g, slots in enumerate(groups) for s in slots}
        start = self.row_key(word) if rows else None
        states = {(start, ((),) * len(groups)): _stabilizer(start) if rows else 1}
        for col in self.cols[::-1]:
            h, to = len(col), [group[s] for s in col]
            nxt: dict = {}
            for (unused, contents), c in states.items():
                picks = _picks(unused, h) if rows else [(None, [word[s] for s in col])]
                for left, letters in picks:
                    for p, sign in _signed_perms(h):
                        new = list(contents)
                        for g, j in zip(to, p):
                            new[g] = tuple(sorted(new[g] + (letters[j],)))
                        state = (left, tuple(new))
                        nxt[state] = nxt.get(state, 0) + sign * c
            states = {state: c for state, c in nxt.items() if c}
        return {contents: c for (_, contents), c in states.items()}

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        n = len(self.boxes)
        slots = [[s] for s in range(n)]
        for word, c in vec.items():
            for key, x in self.sums(word, slots).items():
                w = tuple([letter for (letter,) in key]) + tuple(word[n:])
                out[w] = out.get(w, 0) + c * x
        return {w: x for w, x in out.items() if x}


def _picks(unused, h: int):
    """(what stays unused, letters) for every choice of h distinct letters,
    one from each of the sorted rows unused[:h]."""
    for letters in product(*[sorted(set(row)) for row in unused[:h]]):
        if len(set(letters)) == h:
            at = map(tuple.index, unused, letters)
            left = tuple([row[:i] + row[i + 1 :] for row, i in zip(unused, at)])
            yield left + unused[h:], letters


def _stabilizer(key) -> int:
    """Number of row permutations that fix a word with row key `key`."""
    return prod([factorial(letters.count(x)) for letters in key for x in set(letters)])


# ---------------------------------------------------------------------------
# rational matrices
#
# Inside the lab a matrix is a list of sparse columns, one {row: nonzero
# entry} dict per source basis vector.  Only the public `differential` is
# converted to dense rows (lists), at the boundary.


def mul_columns(a, b) -> list:
    """Sparse columns of the product a b of two sparse column matrices:
    column j is the sum of x times column r of a over the entries (r, x)
    of column j of b."""
    out = []
    for col in b:
        acc: dict = {}
        for r, x in col.items():
            for q, y in a[r].items():
                acc[q] = acc.get(q, 0) + x * y
        out.append({q: z for q, z in acc.items() if z})
    return out


def _reduce(v: dict, p: dict, at) -> dict:
    """v with its entry at `at` cleared by the pivot p over Z: p_at v - v_at
    p, both divided by their gcd, then divided by its content (the gcd of
    its entries).  v may be modified in place."""
    g = gcd(p[at], v[at])
    a_p, a_v = p[at] // g, v[at] // g
    if a_p != 1:
        v = {j: a_p * x for j, x in v.items()}
    for j, x in p.items():
        y = v.get(j, 0) - a_v * x
        if y:
            v[j] = y
        else:
            del v[j]
    content = gcd(*v.values())
    if content > 1:
        v = {j: x // content for j, x in v.items()}
    return v


def _echelon(vectors) -> dict:
    """{lead: pivot} of sparse vectors ({index: nonzero entry} dicts of
    ints or Fractions), eliminated in order over Z.  A vector with a
    Fraction entry is scaled by the lcm of its denominators, which keeps
    its span.  While its leading (least) index has a pivot the vector is
    reduced by it (`_reduce`), and once the leading index is new it becomes
    that index's pivot, divided by its content; a vector that reduces to
    zero is dropped.  Every pivot is primitive.  Each vector is copied
    first, so the input is never modified."""
    pivots: dict = {}
    for vec in vectors:
        v = dict(vec)
        for x in v.values():
            if type(x) is not int:
                den = lcm(*[y.denominator for y in v.values()])
                v = {j: y.numerator * (den // y.denominator) for j, y in v.items()}
                break
        primitive = False  # content already divided out
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                if not primitive:
                    content = gcd(*v.values())
                    if content > 1:
                        v = {j: x // content for j, x in v.items()}
                pivots[lead] = v
                break
            v = _reduce(v, p, lead)
            primitive = True
    return pivots


def mat_rank(a) -> int:
    """Exact rank over Q of a matrix given as sparse vectors ({index:
    nonzero entry} dicts), its columns or its rows: row rank equals column
    rank, so either orientation serves.  Entries are ints or Fractions."""
    return len(_echelon(a))


# ---------------------------------------------------------------------------
# realizations


class SchurRealization(
    namedtuple(
        "SchurRealization",
        [
            "lam",
            "m",
            "symmetrizer",  # its filling orders the slots of the basis words
            "pivots",  # words P: basis vector s is Y(P[s]), Y the symmetrizer
            "solve",  # sparse columns of N, one per pivot word
            "denom",  # D: a vector v of the image has coordinates N (v at P) / D
            "at_pivots",  # row key r -> {j: value at P[j] of Y(p), p any word of key r}
        ],
    )
):
    """An explicit basis of S_lam(E), dim E = m, inside E^(x)|lam|: the
    images Y(P[s]) of the pivot words, never stored expanded."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def scaled_image(self, key) -> dict:
        """D times the coordinates of Y(p) for the words p of row key `key`
        (`YoungSymmetrizer.row_key`): N times its values at the pivot words,
        so integers stay integers.  Row rearrangements of p have the same
        image."""
        return mul_columns(self.solve, [self.at_pivots.get(key, {})])[0]


def _ssyt_words(lam, m: int, boxes) -> list:
    """Words of the semistandard tableaux of lam with entries < m (rows
    weakly increase, columns strictly increase), each entry placed in the
    slot of its box; there are dim_gl(lam, m) of them."""
    tableaux = [()]
    for length in lam:
        rows = list(combinations_with_replacement(range(m), length))
        tableaux = [
            t + (row,)
            for t in tableaux
            for row in rows
            if not t or all([x > y for x, y in zip(row, t[-1])])
        ]
    words = []
    for t in tableaux:
        w = [0] * len(boxes)
        for slot, (r, c) in enumerate(boxes):
            w[slot] = t[r][c]
        words.append(tuple(w))
    return words


def _inverse(columns: list) -> tuple[list, int] | None:
    """(N, D), N sparse integer columns and D the least common denominator
    of V^-1 = N / D, for the square matrix V with the sparse integer
    columns `columns`; None if V is singular.  Column s is tagged with a
    unit vector at index n + s, past every row, and the tagged columns are
    echelonized.  A pivot leading at a tag is a relation t among the columns
    of V, which is then singular.  Otherwise back-substitution from the last
    pivot up leaves pivot l as c e_l plus tags t with V t = c e_l: column l
    of V^-1 is t / c, and D = lcm |c| since the pivots are primitive."""
    n = len(columns)
    pivots = _echelon([{**col, n + s: 1} for s, col in enumerate(columns)])
    if any(lead >= n for lead in pivots):
        return None
    for lead in range(n - 1, -1, -1):
        for row in [row for row in pivots[lead] if lead < row < n]:
            pivots[lead] = _reduce(pivots[lead], pivots[row], row)
    denom = lcm(*[pivots[lead][lead] for lead in range(n)])
    return [
        {s - n: x * (denom // p[lead]) for s, x in p.items() if s >= n}
        for lead, p in sorted(pivots.items())
    ], denom


def realize_schur(lam, m: int, limit: int = DEFAULT_TENSOR_LIMIT, boxes=None) -> SchurRealization:
    """Basis of the Young-symmetrizer image inside E^(x)|lam|: the images
    Y(w) of the words w of the semistandard tableaux of lam, last tableau
    first, which are exactly dim S_lam(E) words and also the pivot words P.
    Nothing is expanded: the value of Y(w) at P[j] is read off the pivot
    table, and the dim x dim matrix V of these values is inverted exactly
    over Z: its columns, tagged with unit vectors, are echelonized and
    back-substituted (`_inverse`), giving N / D = V^-1 with N integral.  A
    nonsingular V makes the images independent, hence a basis; a singular
    one raises DimMismatchError."""
    lam = trim(lam)
    _check_ambient(m, sum(lam), limit)
    sym = YoungSymmetrizer(lam, boxes)
    pivots = _ssyt_words(lam, m, sym.boxes)[::-1]
    target = dim_gl(lam, m)
    if len(pivots) != target:
        raise DimMismatchError(f"{len(pivots)} tableaux of {lam} over dim {m}, expected {target}")
    at_pivots: dict = {}
    for j, w in enumerate(pivots):
        for key, x in sym.sums(w, sym.rows, rows=False).items():
            at_pivots.setdefault(key, {})[j] = x
    # times the row stabilizer of the key: the value of Y(p) at P[j]
    for key, row in at_pivots.items():
        mult = _stabilizer(key)
        at_pivots[key] = {j: mult * x for j, x in row.items()}
    inverse = _inverse([at_pivots.get(sym.row_key(w), {}) for w in pivots])
    if inverse is None:
        raise DimMismatchError(f"the {target} tableau images of {lam} over dim {m} are dependent")
    return SchurRealization(
        lam=lam, m=m, symmetrizer=sym, pivots=pivots, solve=inverse[0],
        denom=inverse[1], at_pivots=at_pivots,
    )


def _tensor_columns(parts, n_src: int, n_tgt: int) -> list:
    """Sparse columns of a map on Schur (x) tail bases.  parts[s] lists
    pairs (tails, {target Schur index r: x}) for source Schur vector s, and
    column s * n_src + u gets x at row r * n_tgt + tails[u]; the pairs of
    one s must hit distinct rows."""
    cols = []
    for pairs in parts:
        block = [{} for _ in range(n_src)]
        for tails, coeffs in pairs:
            for r, x in coeffs.items():
                row = r * n_tgt
                for col, t in zip(block, tails):
                    col[row + t] = x
        cols += block
    return cols


def _memo(table: str):
    """Cache a `SliceLab` method per lab, in the lab's dict `table`, keyed
    on the method's arguments, which are passed by position.  A call that
    raises stores nothing, so a refused or invalid call is refused again."""

    def wrap(method):
        def cached(self, *args):
            try:
                return self.__dict__[table][args]
            except KeyError:
                memo = self.__dict__.setdefault(table, {})
            out = memo[args] = method(self, *args)
            return out

        return update_wrapper(cached, method)

    return wrap


class SliceLab:
    """Shared realization context for one degree sequence.  A slice (F_i)_k
    is an index pair, read off two tables: the Schur realization of term
    i and the tail multisets of degree j = k - d_i (`tail_degree`).  Every
    table is a `_memo` of one method, kept per lab and keyed on exactly
    what its entries depend on, the method's arguments."""

    def __init__(self, d, limit: int = DEFAULT_TENSOR_LIMIT):
        _check_ambient(1, 0, limit)  # an invalid limit before any other refusal
        r = degree_data(d)
        self.d, self.m = r.d, r.m
        self.limit = limit
        if self.d[0] < 0:
            raise ValueError(
                f"d = {self.d} starts below 0: the lab realizes polynomial Schur"
                f" modules only; the untwisted d - d_0 = {tuple(x - self.d[0] for x in self.d)}"
                f" has the same slice ranks, with slice degrees shifted by {-self.d[0]}"
            )
        betti_F(self.d)  # for its limits on m and on the Weyl products only
        # all terms of the degree-k slice live in E^(x)(|alpha(0)| - d_0 + k)
        self._base = sum(r.base) - self.d[0]

    def guard(self, k: int) -> None:
        try:
            _check_ambient(self.m, self._base + k, self.limit)
        except DimLimitError as exc:  # the message is built only on refusal
            raise DimLimitError(f"slice degree {int_text(k)} needs {exc}") from None

    def tail_degree(self, i: int, k: int) -> int:
        """j = k - d_i, the tail degree of (F_i)_k; negative below the
        generator degree, where the slice is zero."""
        self.guard(k)
        return k - self.d[i]

    @_memo("_schur")
    def schur(self, i: int) -> SchurRealization:
        self.guard(self.d[i])  # m^|alpha(i)|, before the filling is built
        return realize_schur(alpha(self.d, i), self.m, self.limit, chain_filling(self.d, i))

    @_memo("_tails")
    def tails(self, j: int) -> tuple[list, dict]:
        """The sorted tail multisets of degree j, in the order of
        combinations_with_replacement, and their index."""
        multisets = list(combinations_with_replacement(range(self.m), j))
        return multisets, {u: n for n, u in enumerate(multisets)}

    @_memo("_merged")
    def merged_tails(self, j: int, suffix: tuple) -> list:
        """The list over the tails u of degree j of the index of
        sorted(u + suffix) in degree j + |suffix|.  A one-letter suffix is
        looked up; a longer one composes the one-letter maps, which
        measured faster than sorting every merged tail."""
        if len(suffix) == 1:
            index = self.tails(j + 1)[1]
            return [index[tuple(sorted(u + suffix))] for u in self.tails(j)[0]]
        up = self.merged_tails(j + len(suffix) - 1, suffix[-1:])
        return [up[x] for x in self.merged_tails(j, suffix[:-1])]

    def slice_dim(self, i: int, k: int) -> int:
        j = self.tail_degree(i, k)
        return 0 if j < 0 else self.schur(i).dim * len(self.tails(j)[0])

    @_memo("_images")
    def generator_images(self, i: int) -> list:
        """Image of each Schur basis vector of F_i under the i-th map, as
        {sorted suffix: {target Schur index: nonzero coefficient}}.  A
        suffix whose coefficients all cancel is left out, never held as an
        empty entry.

        The map symmetrizes the slots from a = |alpha(d, i-1)| on and then
        applies the symmetrizer Y of F_{i-1} to the first a slots.  A head
        word h goes to Y(h[:a]) (x) sym(h[a:]) with coefficient 1, and
        Y(h[:a]) depends only on the row key of h[:a] in the target.  So
        the source's walk (`YoungSymmetrizer.sums`) sums the head words, in
        integers, by key: the target's rows and the tail slots are its
        groups, so a key is a target row key and a sorted suffix, and no
        head word is listed.  The Schur coordinates of each row key
        (`scaled_image`, times the target's D) are found once per map, and
        the sums are divided by D once."""
        source, target = self.schur(i), self.schur(i - 1)
        den, a = target.denom, sum(target.lam)
        groups = target.symmetrizer.rows + [range(a, sum(source.lam))]
        coords: dict = {}  # target row key -> D times its Schur coordinates
        images = []
        for w in source.pivots:
            img: dict = {}
            for key, c in source.symmetrizer.sums(w, groups).items():
                rk, slot = key[:-1], img.setdefault(key[-1], {})
                rc = coords.get(rk)
                if rc is None:
                    rc = coords[rk] = target.scaled_image(rk)
                for r, x in rc.items():
                    slot[r] = slot.get(r, 0) + c * x
            images.append({
                suffix: coeffs
                for suffix, slot in img.items()
                if (coeffs := {r: _ratio(x, den) for r, x in slot.items() if x})
            })
        return images

    @_memo("_cols")
    def differential_columns(self, i: int, k: int) -> list:
        """Sparse columns of the i-th differential on the degree-k slice, in
        the realized bases.  The column of s (x) sym(u) is the generator
        image of s with every suffix merged into the tail u
        (`merged_tails`); distinct suffixes give distinct merged tails, so
        entries never collide."""
        if not 1 <= i <= self.m:
            raise ValueError(f"differential index {i} outside 1..{self.m}")
        j = self.tail_degree(i, k)
        if j < 0:
            return []
        n_tgt = len(self.tails(k - self.d[i - 1])[0])  # k - d_{i-1} > j >= 0
        parts = [
            [(self.merged_tails(j, suffix), coeffs) for suffix, coeffs in img.items()]
            for img in self.generator_images(i)
        ]
        cols = _tensor_columns(parts, len(self.tails(j)[0]), n_tgt)
        if k == self.d[i] and not any(cols):
            raise ZeroMapError(f"differential {i} vanished at its generator slice {k}")
        return cols

    def differential(self, i: int, k: int):
        """Matrix of the i-th differential on the degree-k slice, in the
        realized bases (target coordinates x source coordinates)."""
        cols = self.differential_columns(i, k)
        out = [[Fraction(0)] * len(cols) for _ in range(self.slice_dim(i - 1, k))]
        for j, col in enumerate(cols):
            for r, x in col.items():
                out[r][j] = x
        return out

    @_memo("_times")
    def times_var(self, i: int, k: int, var: int) -> list:
        """Multiplication by the var-th basis variable, (F_i)_k ->
        (F_i)_{k+1}, as an index map: s (x) sym(u) goes to s (x) sym(u +
        var), so basis vector number n goes to number out[n] with
        coefficient 1.  The map is injective."""
        if not 0 <= var < self.m:
            raise ValueError(f"variable {var} outside 0..{self.m - 1}")
        j = self.tail_degree(i, k)
        if j < 0:
            return []
        n_tgt = len(self.tails(self.tail_degree(i, k + 1))[0])
        up = self.merged_tails(j, (var,))
        return [s * n_tgt + t for s in range(self.schur(i).dim) for t in up]

    @_memo("_actions")
    def schur_action(self, i: int, g) -> list:
        """Schur coordinates of g(s) for every Schur basis vector s = Y(w)
        of F_i, g a permutation of the basis letters: g commutes with every
        permutation of the slots, so g(s) = Y(g w), read off `scaled_image`
        with nothing expanded."""
        schur = self.schur(i)
        acts = []
        for w in schur.pivots:
            scaled = schur.scaled_image(schur.symmetrizer.row_key([g[x] for x in w]))
            acts.append({r: _ratio(z, schur.denom) for r, z in scaled.items() if z})
        return acts

    def letter_action_columns(self, i: int, k: int, g) -> list:
        """Sparse columns of the permutation g of basis letters on (F_i)_k:
        s (x) sym(u) goes to g(s) (x) sym(g(u)), with g(s) from
        `schur_action`."""
        j = self.tail_degree(i, k)
        if j < 0:
            return []
        multisets, index = self.tails(j)
        tails = [index[tuple(sorted([g[x] for x in u]))] for u in multisets]
        acts = self.schur_action(i, tuple(g))
        return _tensor_columns([[(tails, coeffs)] for coeffs in acts], len(multisets), len(multisets))


# ---------------------------------------------------------------------------
# operations


def differential_slice(d, i: int, k: int):
    """Exact rational matrix of the i-th differential on the degree-k slice;
    for a non-default limit, `SliceLab(d, limit).differential(i, k)`."""
    return SliceLab(d).differential(i, k)


def _lab_for(d, lab: SliceLab | None) -> SliceLab:
    """lab, refused unless it realizes d; a new lab for d when lab is None."""
    if lab is not None and check_degrees(d) != lab.d:
        raise ValueError(f"d = {check_degrees(d)} but the lab realizes {lab.d}")
    return lab or SliceLab(d)


def verify_dsquared(d, k_max: int, lab: SliceLab | None = None):
    """Check that adjacent slice matrices compose to zero for every slice
    degree up to k_max.  Returns (ok, witnesses).  For a non-default limit,
    pass lab=SliceLab(d, limit)."""
    lab = _lab_for(d, lab)
    bad = []
    for i in range(2, lab.m + 1):
        for k in range(lab.d[0], k_max + 1):
            d_low, d_high = lab.differential_columns(i - 1, k), lab.differential_columns(i, k)
            if any(mul_columns(d_low, d_high)):
                bad.append((i, k))
    return not bad, bad


def equivariance_spotcheck(d, i: int, k: int, g, lab: SliceLab | None = None) -> bool:
    """Does the slice matrix commute with the permutation g of the basis of
    E, acting on all tensor factors?"""
    lab = _lab_for(d, lab)
    g = tuple(g)
    if sorted(g) != list(range(lab.m)):
        raise ValueError(f"{g} is not a permutation of 0..{lab.m - 1}")
    mat = lab.differential_columns(i, k)
    src = lab.letter_action_columns(i, k, g)
    tgt = lab.letter_action_columns(i - 1, k, g)
    return mul_columns(mat, src) == mul_columns(tgt, mat)


def symmetric_generators(m: int) -> list[tuple[int, ...]]:
    """The transposition (1 0 2 ... m-1) and the m-cycle (1 2 ... m-1 0) as
    letter permutations g (letter x goes to g[x]), without repeats or the
    identity: two for m >= 3, one for m = 2, none for m = 1.  They generate
    S_m."""
    gens = []
    if m >= 2:
        for g in ((1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)):
            if g not in gens:
                gens.append(g)
    return gens


def check_a_linearity(lab: SliceLab, i: int, k: int) -> bool:
    """Multiplication by each variable commutes with the differential between
    slices k and k+1; this is what glues the slice matrices into one map of
    free modules.  Multiplication by x_v sends basis vectors injectively to
    basis vectors, so d_{k+1} x_v = x_v d_k says: column x_v(c) of d_{k+1}
    is column c of d_k with every row r moved to x_v(r).  x_v is injective
    and stored columns hold no zeros, so the two columns are equal when
    they have as many entries and every entry (r, x) of column c is x at
    x_v(r) of column x_v(c)."""
    d_k = lab.differential_columns(i, k)
    d_k1 = lab.differential_columns(i, k + 1)
    for var in range(lab.m):
        src = lab.times_var(i, k, var)
        tgt = lab.times_var(i - 1, k, var)
        for col, c1 in zip(d_k, src):
            moved = d_k1[c1]
            if len(moved) != len(col):
                return False
            get = moved.get
            for r, x in col.items():
                if get(tgt[r]) != x:
                    return False
    return True


_SCOPE_NOTE = (
    "finite certificate: graded slices verified up to k_max; behaviour "
    "beyond is covered only by the Euler polynomial identity"
)


class Certificate(
    namedtuple(
        "Certificate",
        "d m k_range dsquared_ok slices_exact minimality_ok euler_identity_ok"
        " hf_match_ok alinearity_ok equivariance_ok failures scope_note",
    )
):
    """Finite exactness certificate: slice-by-slice evidence for degrees up
    to k_max plus the Euler polynomial identity beyond.  This is desk-scale
    evidence, not a proof for all degrees.  `failures` is a fresh list by
    default."""

    __slots__ = ()

    def __new__(
        cls, d, m, k_range, dsquared_ok, slices_exact, minimality_ok, euler_identity_ok,
        hf_match_ok, alinearity_ok=True, equivariance_ok=True, failures=None,
        scope_note=_SCOPE_NOTE,
    ):
        return super().__new__(
            cls, d, m, k_range, dsquared_ok, slices_exact, minimality_ok, euler_identity_ok,
            hf_match_ok, alinearity_ok, equivariance_ok,
            [] if failures is None else failures, scope_note,
        )

    @property
    def passed(self) -> bool:
        return (
            self.dsquared_ok
            and all(ok for ok, _ in self.slices_exact.values())
            and self.minimality_ok
            and self.euler_identity_ok
            and self.hf_match_ok
            and self.alinearity_ok
            and self.equivariance_ok
        )


def verify_exactness(d, k_max: int | None = None, limit: int = DEFAULT_TENSOR_LIMIT) -> Certificate:
    """Build every slice matrix of the complex up to k_max and certify
    d^2 = 0, exactness of each interior slice, injectivity of the last map,
    agreement of the cokernel with the strip-count Hilbert function,
    A-linearity coherence and equivariance under a transposition and an
    m-cycle, which generate S_m (see `symmetric_generators`).  No slice
    above k_max is realized.  Every failed check appends to `failures`,
    and a verdict (a slice's ok) is true when no failure of its kind (at
    its degree) was recorded.  `minimality_ok` is always true: d is
    strictly increasing, so no entry of any map is a unit.

    Raises ValueError for d_0 < 0 (the lab realizes polynomial Schur
    modules only) and for k_max < d_0, where no slice would be checked."""
    lab = SliceLab(d, limit)
    d, m = lab.d, lab.m
    if k_max is None:
        k_max = d[-1] + 2
    if k_max < d[0]:
        raise ValueError(f"k_max = {k_max} is below d_0 = {d[0]}: no slice would be checked")
    lab.guard(k_max)
    # realize every generator slice up to k_max before any rank work
    for i in range(1, m + 1):
        if d[i] <= k_max:
            lab.differential(i, d[i])

    failures = []
    slices_exact = {}
    for k in range(d[0], k_max + 1):
        ranks = [mat_rank(lab.differential_columns(i, k)) for i in range(1, m + 1)]
        before = len(failures)
        for i in range(1, m + 1):
            incoming = ranks[i] if i < m else 0
            if ranks[i - 1] + incoming != lab.slice_dim(i, k):
                failures.append(("exactness", i, k, ranks[i - 1], incoming))
        coker, hf = lab.slice_dim(0, k) - ranks[0], hilbert_M_strips(d, k)
        if coker != hf:
            failures.append(("hilbert", k, coker, hf))
        slices_exact[k] = (len(failures) == before, {"ranks": tuple(ranks), "coker": coker})

    failures += [("dsquared",) + b for b in verify_dsquared(d, k_max, lab=lab)[1]]
    top = alpha(d, 1)[0]
    if any(hilbert_M_euler(d, k) for k in range(top, top + m + 1)):
        failures.append(("euler", top))
    for i in range(1, m + 1):
        for k in range(d[0], k_max):
            if not check_a_linearity(lab, i, k):
                failures.append(("alinearity", i, k))
    for g in symmetric_generators(m):
        for i in range(1, m + 1):
            k = min(d[i] + 1, k_max)
            if not equivariance_spotcheck(d, i, k, g, lab=lab):
                failures.append(("equivariance", i, k, g))

    failed = {f[0] for f in failures}
    return Certificate(
        d=d,
        m=m,
        k_range=(d[0], k_max),
        dsquared_ok="dsquared" not in failed,
        slices_exact=slices_exact,
        minimality_ok=True,
        euler_identity_ok="euler" not in failed,
        hf_match_ok="hilbert" not in failed,
        alinearity_ok="alinearity" not in failed,
        equivariance_ok="equivariance" not in failed,
        failures=failures,
    )
