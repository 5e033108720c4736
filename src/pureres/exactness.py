"""Explicit rational slice matrices of the equivariant pure complex in small
cases, and finite certificates of d^2 = 0, graded-slice exactness,
minimality, Hilbert-function agreement, A-linearity and equivariance.

The degree-k slice of the i-th term is S_alpha(i)(E) (x) Sym^j(E) with
dim E = m and j = k - d_i.  It lives in one ambient tensor power E^(x)N:
the Schur module is the image of a Young symmetrizer on the leading
|alpha(i)| slots (`realize_schur`, an explicit basis of word vectors), and
Sym^j is the symmetrized tensors on the trailing j slots.

Symmetric tails are never expanded into their anagrams.  A slice vector is
stored as {(head word, sorted tail multiset): c}, where c is the sum of its
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

The symmetrizer and the Schur coordinates are therefore needed once per
distinct head word, not once per expanded vector.  All coefficients are
exact rationals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, prod

from .partitions import dim_gl, trim
from .resolutions import (
    ResourceLimitError,
    alpha,
    betti_F,
    check_degrees,
    hilbert_M_euler,
    hilbert_M_strips,
)

DEFAULT_TENSOR_LIMIT = 3**12

Vec = dict  # word tuple -> Fraction


class DimLimitError(ResourceLimitError):
    """Ambient tensor dimension exceeds the configured limit."""


class DimMismatchError(Exception):
    """A symmetrizer image has the wrong rank (implementation bug)."""


class ZeroMapError(Exception):
    """A differential realization vanished identically for every filling."""


def tensor_limit() -> int:
    env = os.environ.get("PURERES_TENSOR_LIMIT")
    return int(env) if env else DEFAULT_TENSOR_LIMIT


# ---------------------------------------------------------------------------
# sparse vectors and symmetrizers


def _add_scaled(acc: Vec, vec: Vec, c: Fraction) -> None:
    for w, x in vec.items():
        y = acc.get(w, 0) + c * x
        if y:
            acc[w] = y
        else:
            acc.pop(w, None)


def _boxes(lam, order: str) -> list[tuple[int, int]]:
    boxes = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    if order == "column":
        boxes.sort(key=lambda rc: (rc[1], rc[0]))
    return boxes


def _filling_groups(lam, order: str) -> tuple[list[list[int]], list[list[int]]]:
    """Slot indices of each row and each column of the diagram, for the
    canonical filling in row-major or column-major order."""
    lam = trim(lam)
    slot = {box: i for i, box in enumerate(_boxes(lam, order))}
    rows = [[slot[(r, c)] for c in range(lam[r])] for r in range(len(lam))]
    ncols = lam[0] if lam else 0
    cols = [
        [slot[(r, c)] for r in range(len(lam)) if lam[r] > c] for c in range(ncols)
    ]
    return rows, cols


def _block_perms(blocks: list[list[int]], t: int, signed: bool):
    """All slot permutations preserving each block, as (mapping, sign)."""
    out = [(tuple(range(t)), 1)]
    for block in blocks:
        if len(block) < 2:
            continue
        fresh = []
        for base, s in out:
            for perm in permutations(block):
                p = list(base)
                sign = 1
                if signed:
                    seen = list(perm)
                    for a in range(len(seen)):
                        for b in range(a + 1, len(seen)):
                            if seen[a] > seen[b]:
                                sign = -sign
                for src, dst in zip(block, perm):
                    p[dst] = base[src]
                fresh.append((tuple(p), s * sign if signed else s))
        out = fresh
    return out


class YoungSymmetrizer:
    """Row symmetrizer followed by column antisymmetrizer for the canonical
    filling of a frame, acting on the leading |lam| slots of words."""

    def __init__(self, lam, order: str = "row"):
        self.lam = trim(lam)
        self.t = sum(self.lam)
        rows, cols = _filling_groups(self.lam, order)
        self._row_perms = _block_perms(rows, self.t, signed=False)
        self._col_perms = _block_perms(cols, self.t, signed=True)

    def _apply_perms(self, vec: Vec, perms) -> Vec:
        out: Vec = {}
        for w, c in vec.items():
            head, tail = w[: self.t], w[self.t :]
            for p, s in perms:
                nw = tuple(head[p[i]] for i in range(self.t)) + tail
                y = out.get(nw, 0) + s * c
                if y:
                    out[nw] = y
                else:
                    out.pop(nw, None)
        return out

    def apply(self, vec: Vec) -> Vec:
        return self._apply_perms(self._apply_perms(vec, self._row_perms), self._col_perms)


def _multiset_perms(word):
    """Distinct rearrangements of a sorted word."""
    if not word:
        yield ()
        return
    seen = set()
    for i, x in enumerate(word):
        if x in seen:
            continue
        seen.add(x)
        rest = word[:i] + word[i + 1 :]
        for tail in _multiset_perms(rest):
            yield (x,) + tail


def sym_tensor(word) -> Vec:
    """The symmetrized tensor of a multiset of letters: average over all
    slot permutations, expressed over distinct anagrams."""
    key = tuple(sorted(word))
    counts: dict = {}
    for x in key:
        counts[x] = counts.get(x, 0) + 1
    coeff = Fraction(prod(factorial(c) for c in counts.values()), factorial(len(key)))
    return {w: coeff for w in _multiset_perms(key)}


def symmetrize_trailing(vec: Vec, start: int) -> Vec:
    """Average over all permutations of the slots >= start."""
    out: Vec = {}
    for w, c in vec.items():
        head, tail = w[:start], w[start:]
        for w2, c2 in sym_tensor(tail).items():
            nw = head + w2
            y = out.get(nw, 0) + c * c2
            if y:
                out[nw] = y
            else:
                out.pop(nw, None)
    return out


# ---------------------------------------------------------------------------
# echelonized subspace bases with coordinate recovery


class SubspaceBasis:
    """Incrementally echelonized spanning set with exact coordinates of new
    vectors in terms of the accepted ones."""

    def __init__(self):
        self._pivots = []  # (pivot_word, echelon vec, combo dict idx -> Fraction)
        self.count = 0

    def _reduce(self, vec: Vec):
        vec = dict(vec)
        combo: dict = {}
        for pw, pv, pc in self._pivots:
            c = vec.get(pw)
            if c:
                _add_scaled(vec, pv, -c)
                for idx, x in pc.items():
                    y = combo.get(idx, 0) + c * x
                    if y:
                        combo[idx] = y
                    else:
                        combo.pop(idx, None)
        return vec, combo

    def add(self, vec: Vec) -> bool:
        """Accept vec if independent of the current span; returns whether it
        was accepted (as original basis vector number `count`)."""
        res, combo = self._reduce(vec)
        if not res:
            return False
        pw = min(res)
        scale = res[pw]
        norm = {w: c / scale for w, c in res.items()}
        pc = {idx: -x / scale for idx, x in combo.items()}
        pc[self.count] = Fraction(1) / scale
        self._pivots.append((pw, norm, pc))
        self.count += 1
        return True

    def coords(self, vec: Vec) -> dict:
        """Coordinates of vec in the accepted original vectors; raises
        ValueError if vec is outside the span."""
        res, combo = self._reduce(vec)
        if res:
            raise ValueError("vector outside subspace span")
        return combo


# ---------------------------------------------------------------------------
# dense rational matrices


def mat_zero(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = mat_zero(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def mat_rank(a) -> int:
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


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


# ---------------------------------------------------------------------------
# realizations


@dataclass
class SchurRealization:
    lam: tuple[int, ...]
    m: int
    order: str
    basis: list  # projected vectors spanning the symmetrizer image
    echelon: SubspaceBasis  # the same vectors, echelonized for coordinates

    @property
    def dim(self) -> int:
        return len(self.basis)


def realize_schur(lam, m: int, limit: int | None = None, order: str = "row") -> SchurRealization:
    """Basis of the Young-symmetrizer image inside E^(x)|lam|, found by
    projecting spanning words and keeping an independent set.  The rank is
    checked against the Weyl dimension formula."""
    lam = trim(lam)
    if limit is None:
        limit = tensor_limit()
    t = sum(lam)
    if m**t > limit:
        raise DimLimitError(f"ambient dimension {m}^{t} exceeds limit {limit}")
    target = dim_gl(lam, m)
    sym = YoungSymmetrizer(lam, order)
    ech = SubspaceBasis()
    basis = []
    for word in product(range(m), repeat=t):
        v = sym.apply({word: Fraction(1)})
        if v and ech.add(v):
            basis.append(v)
            if len(basis) == target:
                break
    if len(basis) != target:
        raise DimMismatchError(
            f"symmetrizer image of {lam} over dim {m} has rank {len(basis)}, expected {target}"
        )
    return SchurRealization(lam=lam, m=m, order=order, basis=basis, echelon=ech)


class SliceSpace:
    """The degree-k slice S_lam(E) (x) Sym^j(E) of one free term, j = k - d_i.

    Basis vector number `s * len(multisets) + u` is schur.basis[s] (x)
    sym(multisets[u]), where sym(u) is the normalized symmetric tensor of
    the sorted tail multiset u.  A slice vector is written
    {(head word, sorted tail): c}, with c the sum of its coefficients over
    all anagrams of the tail in E^(x)N; the basis vector s (x) sym(u) is
    then {(h, u): s[h]}.  Maps that act on the tail (moving head letters
    into it, multiplying by a variable, permuting letters) send each
    (h, u) to a single (h', u') with coefficient 1, because the normalized
    symmetrizer sends every anagram of a multiset to the same sym(u).

    The basis is independent because the Schur basis is and the tail
    multisets are distinct, so nothing is echelonized here."""

    def __init__(self, schur: SchurRealization, sym_degree: int):
        self.schur = schur
        self.sym_degree = sym_degree
        self.multisets = list(combinations_with_replacement(range(schur.m), sym_degree))
        self.tail_index = {u: j for j, u in enumerate(self.multisets)}

    @property
    def dim(self) -> int:
        return self.schur.dim * len(self.multisets)


class SliceLab:
    """Shared realization context for one degree sequence: caches Schur
    realizations, slice spaces, generator images and differential
    matrices."""

    def __init__(self, d, limit: int | None = None, order: str = "row"):
        self.d = check_degrees(d)
        self.m = len(self.d) - 1
        self.limit = tensor_limit() if limit is None else limit
        self.order = order
        self.table = betti_F(self.d)
        self._schur: dict = {}
        self._spaces: dict = {}
        self._diff: dict = {}
        self._images: dict = {}

    def _ambient(self, k: int) -> int:
        # all terms of the degree-k slice live in E^(x)(|lambda| + k - d_0)
        return sum(alpha(self.d, 0)) + k - self.d[0]

    def guard(self, k: int) -> None:
        n = self._ambient(k)
        if self.m**n > self.limit:
            raise DimLimitError(
                f"slice degree {k} needs ambient dimension {self.m}^{n}"
                f" = {self.m ** n} > limit {self.limit}"
            )

    def schur(self, i: int) -> SchurRealization:
        if i not in self._schur:
            self._schur[i] = realize_schur(
                alpha(self.d, i), self.m, self.limit, self.order
            )
        return self._schur[i]

    def space(self, i: int, k: int) -> SliceSpace:
        """Realized (F_i)_k; zero-dimensional below the generator degree."""
        key = (i, k)
        if key not in self._spaces:
            self.guard(k)
            if k < self.d[i]:
                sp = None
            else:
                sp = SliceSpace(self.schur(i), k - self.d[i])
                expected = self.table.ranks[i] * comb(
                    k - self.d[i] + self.m - 1, self.m - 1
                )
                if sp.dim != expected:
                    raise DimMismatchError(
                        f"slice ({i}, {k}) has dimension {sp.dim}, expected {expected}"
                    )
            self._spaces[key] = sp
        return self._spaces[key]

    def slice_dim(self, i: int, k: int) -> int:
        sp = self.space(i, k)
        return 0 if sp is None else sp.dim

    def generator_images(self, i: int) -> list:
        """Image of each Schur basis vector of F_i under the i-th map, as
        {sorted suffix: {target Schur index: coefficient}}.

        The map symmetrizes the slots from a = |alpha(d, i-1)| on and then
        applies the symmetrizer Y of F_{i-1} to the first a slots.  A head
        word h goes to Y(h[:a]) (x) sym(h[a:]) with coefficient 1, so Y is
        applied and reduced to Schur coordinates once per distinct prefix
        h[:a]; each word only adds its coefficient to its suffix's entry."""
        if i not in self._images:
            target = self.schur(i - 1)
            sym = YoungSymmetrizer(target.lam, self.order)
            a = sum(target.lam)
            prefix_coords: dict = {}
            images = []
            for s in self.schur(i).basis:
                img: dict = {}
                for h, c in s.items():
                    p = h[:a]
                    pc = prefix_coords.get(p)
                    if pc is None:
                        pc = prefix_coords[p] = target.echelon.coords(
                            sym.apply({p: Fraction(1)})
                        )
                    slot = img.setdefault(tuple(sorted(h[a:])), {})
                    for r, x in pc.items():
                        slot[r] = slot.get(r, 0) + c * x
                images.append(img)
            self._images[i] = images
        return self._images[i]

    def differential(self, i: int, k: int):
        """Matrix of the i-th differential on the degree-k slice, in the
        realized bases (target coordinates x source coordinates).  The
        generator image of s, times the tail u, lands at the tails
        suffix + u."""
        if not 1 <= i <= self.m:
            raise ValueError(f"differential index {i} outside 1..{self.m}")
        key = (i, k)
        if key not in self._diff:
            src = self.space(i, k)
            tgt = self.space(i - 1, k)
            mat = mat_zero(0 if tgt is None else tgt.dim, 0 if src is None else src.dim)
            if src is not None and tgt is not None:
                n_src, n_tgt = len(src.multisets), len(tgt.multisets)
                for s, img in enumerate(self.generator_images(i)):
                    for j, u in enumerate(src.multisets):
                        col = s * n_src + j
                        for suffix, coeffs in img.items():
                            t = tgt.tail_index[tuple(sorted(suffix + u))]
                            for r, x in coeffs.items():
                                mat[r * n_tgt + t][col] += x
                if mat_is_zero(mat) and k == self.d[i] and src.dim and tgt.dim:
                    raise ZeroMapError(
                        f"differential {i} vanished at its generator slice {k}"
                    )
            self._diff[key] = mat
        return self._diff[key]

    def multiplication(self, i: int, k: int, var: int):
        """Matrix of multiplication by the var-th basis variable,
        (F_i)_k -> (F_i)_{k+1}: s (x) sym(u) goes to s (x) sym(u + var)."""
        src = self.space(i, k)
        tgt = self.space(i, k + 1)
        mat = mat_zero(0 if tgt is None else tgt.dim, 0 if src is None else src.dim)
        if src is not None:
            n_src, n_tgt = len(src.multisets), len(tgt.multisets)
            for s in range(src.schur.dim):
                for j, u in enumerate(src.multisets):
                    t = tgt.tail_index[tuple(sorted(u + (var,)))]
                    mat[s * n_tgt + t][s * n_src + j] = Fraction(1)
        return mat

    def letter_action(self, i: int, k: int, g) -> list:
        """Matrix of the permutation g of basis letters on (F_i)_k:
        s (x) sym(u) goes to g(s) (x) sym(g(u)), and g(s) is reduced to
        Schur coordinates once per basis vector."""
        sp = self.space(i, k)
        if sp is None:
            return []
        schur = sp.schur
        moved = [
            schur.echelon.coords({tuple(g[x] for x in h): c for h, c in s.items()})
            for s in schur.basis
        ]
        n = len(sp.multisets)
        mat = mat_zero(sp.dim, sp.dim)
        for s, coeffs in enumerate(moved):
            for j, u in enumerate(sp.multisets):
                t = sp.tail_index[tuple(sorted(g[x] for x in u))]
                for r, x in coeffs.items():
                    mat[r * n + t][s * n + j] = x
        return mat


# ---------------------------------------------------------------------------
# operations


def differential_slice(d, i: int, k: int, limit: int | None = None):
    """Exact rational matrix of the i-th differential restricted to the
    degree-k slice, retrying with the column-major filling if the row-major
    realization degenerates."""
    try:
        return SliceLab(d, limit).differential(i, k)
    except ZeroMapError:
        return SliceLab(d, limit, order="column").differential(i, k)


def verify_dsquared(d, k_max: int, limit: int | None = None, lab: SliceLab | None = None):
    """Check that adjacent slice matrices compose to zero for every slice
    degree up to k_max.  Returns (ok, witnesses)."""
    lab = lab or SliceLab(d, limit)
    bad = []
    for i in range(2, lab.m + 1):
        for k in range(lab.d[0], k_max + 1):
            prod_mat = mat_mul(lab.differential(i - 1, k), lab.differential(i, k))
            if not mat_is_zero(prod_mat):
                bad.append((i, k))
    return not bad, bad


def equivariance_spotcheck(d, i: int, k: int, g, lab: SliceLab | None = None) -> bool:
    """Does the slice matrix commute with the permutation g of the basis of
    E, acting on all tensor factors?"""
    lab = lab or SliceLab(d)
    g = tuple(g)
    if sorted(g) != list(range(lab.m)):
        raise ValueError(f"{g} is not a permutation of 0..{lab.m - 1}")
    mat = lab.differential(i, k)
    src = lab.letter_action(i, k, g)
    tgt = lab.letter_action(i - 1, k, g)
    return mat_mul(mat, src) == mat_mul(tgt, mat)


def check_a_linearity(lab: SliceLab, i: int, k: int) -> bool:
    """Multiplication by each variable commutes with the differential between
    slices k and k+1; this is what glues the slice matrices into one map of
    free modules."""
    d_k = lab.differential(i, k)
    d_k1 = lab.differential(i, k + 1)
    for var in range(lab.m):
        lhs = mat_mul(d_k1, lab.multiplication(i, k, var))
        rhs = mat_mul(lab.multiplication(i - 1, k, var), d_k)
        if lhs != rhs:
            return False
    return True


@dataclass
class Certificate:
    """Finite exactness certificate: slice-by-slice evidence for degrees up
    to k_max plus the Euler polynomial identity beyond.  This is desk-scale
    evidence, not a proof for all degrees."""

    d: tuple[int, ...]
    m: int
    k_range: tuple[int, int]
    dsquared_ok: bool
    slices_exact: dict
    minimality_ok: bool
    euler_identity_ok: bool
    hf_match_ok: bool
    alinearity_ok: bool = True
    equivariance_ok: bool = True
    failures: list = field(default_factory=list)
    scope_note: str = (
        "finite certificate: graded slices verified up to k_max; behaviour "
        "beyond is covered only by the Euler polynomial identity"
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


def verify_exactness(
    d,
    k_max: int | None = None,
    limit: int | None = None,
    check_alinearity: bool = True,
    spotcheck_perms: int = 5,
) -> Certificate:
    """Build every slice matrix of the complex up to k_max and certify
    d^2 = 0, exactness of each interior slice, injectivity of the last map,
    agreement of the cokernel with the strip-count Hilbert function,
    minimality, A-linearity coherence and equivariance spotchecks."""
    d = check_degrees(d)
    m = len(d) - 1
    if k_max is None:
        k_max = d[-1] + 2
    try:
        lab = SliceLab(d, limit)
        lab.guard(k_max)
        # force realization so a degenerate filling is caught up front
        for i in range(1, m + 1):
            lab.differential(i, d[i])
    except ZeroMapError:
        lab = SliceLab(d, limit, order="column")
        for i in range(1, m + 1):
            lab.differential(i, d[i])

    failures = []
    slices_exact = {}
    hf_ok = True
    for k in range(d[0], k_max + 1):
        ranks = [mat_rank(lab.differential(i, k)) for i in range(1, m + 1)]
        data = {"ranks": tuple(ranks)}
        ok = True
        for i in range(1, m + 1):
            incoming = ranks[i] if i < m else 0
            if ranks[i - 1] + incoming != lab.slice_dim(i, k):
                ok = False
                failures.append(("exactness", i, k, ranks[i - 1], incoming))
        coker = lab.slice_dim(0, k) - ranks[0]
        data["coker"] = coker
        if coker != hilbert_M_strips(d, k):
            hf_ok = False
            ok = False
            failures.append(("hilbert", k, coker, hilbert_M_strips(d, k)))
        slices_exact[k] = (ok, data)

    dsq_ok, dsq_bad = verify_dsquared(d, k_max, lab=lab)
    failures.extend(("dsquared",) + b for b in dsq_bad)

    # minimality: every term vanishes below its generator degree, so no map
    # can have a degree-0 (invertible) block
    minimal = all(
        lab.slice_dim(i, k) == 0
        for i in range(m + 1)
        for k in range(d[0], d[i])
    )

    top = alpha(d, 1)[0]
    euler_ok = all(hilbert_M_euler(d, k) == 0 for k in range(top, top + m + 1))
    if not euler_ok:
        failures.append(("euler", top))

    alin_ok = True
    if check_alinearity:
        for i in range(1, m + 1):
            for k in range(d[0], k_max):
                if not check_a_linearity(lab, i, k):
                    alin_ok = False
                    failures.append(("alinearity", i, k))

    equi_ok = True
    if spotcheck_perms:
        import random

        rng = random.Random(20260826)
        perms = [tuple(rng.sample(range(m), m)) for _ in range(spotcheck_perms)]
        for g in perms:
            for i in range(1, m + 1):
                k = min(d[i] + 1, k_max)
                if not equivariance_spotcheck(d, i, k, g, lab=lab):
                    equi_ok = False
                    failures.append(("equivariance", i, k, g))

    return Certificate(
        d=d,
        m=m,
        k_range=(d[0], k_max),
        dsquared_ok=dsq_ok,
        slices_exact=slices_exact,
        minimality_ok=minimal,
        euler_identity_ok=euler_ok,
        hf_match_ok=hf_ok,
        alinearity_ok=alin_ok,
        equivariance_ok=equi_ok,
        failures=failures,
    )
