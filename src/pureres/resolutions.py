"""Degree sequences, Betti tables of the pure complexes, and their
numerical invariants: Herzog-Kuhl primitive vectors, Hilbert functions of
the resolved module, socle data, and the self-duality check.

Conventions.  A degree sequence d = (d_0 < d_1 < ... < d_m) determines the
difference sequence e with e_0 = d_0 and e_i = d_i - d_{i-1}.  Tables of
kind "F" carry the absolute twists d_i; tables of kind "H" carry twists
d_i - d_0 (their terms are defined only up to that shift).

What follows from d is derived once per sequence into four parts, each
an LRU of RECORD_SIZE entries, keyed on the checked d and holding tuples
only: `degree_data`, `_f_terms`, `det_terms` and `_hilbert_function`, the
strip-count Hilbert function of M(d), which `module_profile` and
`hilbert_M_strips` share.  A part that checks a limit raises before it
computes, and a part that raises is not stored; every entry point checks
its input before it reads a part, and each limit before the work it bounds.

Every resource bound goes through `check_limit`, whose ResourceLimitError
reads "<what> = <cost> > limit <limit>", the cost as its bit length when
it has more digits than CPython converts to a string.  Tuples are built
from lists: tuple() of a generator guesses a length and resizes, which
moves a dead tuple onto another size's free list.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm, prod

from .partitions import (
    check_partition,
    complement_in_rectangle,
    dim_gl,
    dim_super,
    part,
    pieri_dim,
    pieri_dims,
    pieri_expand,
    trim,
)

RECORD_SIZE = 2  # one sequence's pipeline at a time shares the record


class BettiRayError(Exception):
    """A Betti table violates the pure-ray structure it is guaranteed to have."""


class NotOnRayError(BettiRayError):
    pass


class NotIntegralError(BettiRayError):
    pass


class ResourceLimitError(Exception):
    """An input would need more time or memory than a fixed budget allows."""


def int_text(x: int) -> str:
    """x in decimal, or its bit length past CPython's int-to-str digit cap."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit int"


def check_limit(what: str, cost: int, limit: int) -> None:
    """Refuse an input whose cost, named by `what`, is over its limit."""
    if cost > limit:
        raise ResourceLimitError(f"{what} = {int_text(cost)} > limit {limit}")


class AmbiguousSocleError(Exception):
    """The top-degree strip set of M(d) is not a singleton."""


def check_degrees(d) -> tuple[int, ...]:
    """d as a strictly increasing tuple of at least two plain ints: a bool
    or another int subclass becomes the int it equals."""
    d = tuple(d)
    if len(d) < 2:
        raise ValueError(f"degree sequence needs at least two entries: {d}")
    out, increasing = [], True
    for x in d:  # one pass; a non-integer is reported before a non-increase
        if not isinstance(x, int):
            raise ValueError(f"degree {x!r} in {d} is not an integer")
        x = int(x)
        if out and x <= out[-1]:
            increasing = False
        out.append(x)
    if not increasing:
        raise ValueError(f"degree sequence must be strictly increasing: {d}")
    return tuple(out)


# a checked d, its differences e, m = len(d) - 1, the base weight lambda
# (m parts) and the top degree lambda_1 + e_1 - 1 of the module M(d)
DegreeData = namedtuple("DegreeData", "d e m base top")


@lru_cache(maxsize=RECORD_SIZE)
def _degree_data(d: tuple[int, ...]) -> DegreeData:
    e = tuple([b - a for a, b in zip((0,) + d, d)])
    # lambda_i = e_0 + sum_{j>i} (e_j - 1), i = 1..m, from the bottom row up
    lam = tuple(list(accumulate(reversed(e[2:]), lambda a, x: a + x - 1, initial=e[0]))[::-1])
    return DegreeData(d, e, len(d) - 1, lam, lam[0] + e[1] - 1)


def degree_data(d) -> DegreeData:
    """e, m, the base weight and the top degree of M(d), from the record."""
    return _degree_data(check_degrees(d))


def diffs(d) -> tuple[int, ...]:
    """e with e_0 = d_0 and e_i = d_i - d_{i-1}."""
    return degree_data(d).e


def degrees(e) -> tuple[int, ...]:
    """Inverse of diffs: partial sums starting at e_0."""
    return check_degrees(accumulate(e))


def base_weight(d) -> tuple[int, ...]:
    """The weight of the 0-th term: lambda_i = e_0 + sum_{j>i} (e_j - 1)."""
    return degree_data(d).base


def alpha(d, i: int) -> tuple[int, ...]:
    """Weight of the i-th term: the first i parts of the base weight grow by
    e_1, ..., e_i respectively."""
    r = degree_data(d)
    if not 0 <= i <= r.m:
        raise ValueError(f"index {i} outside 0..{r.m}")
    return tuple([x + y for x, y in zip(r.base, r.e[1 : i + 1])]) + r.base[i:]


def _gamma(e, i: int, gaps) -> tuple[int, ...]:
    """gamma(d, i) from e and the gaps, the indices j >= 1 with e_j > 1 in
    decreasing order: e_j - 1 parts j - 1 for each gap j > max(i, 1), e_i
    parts i, then e_j - 1 parts j for each gap j < i.  Only the gaps are
    visited, so all s + 1 weights cost O(s * dim F)."""
    upper: list[int] = []
    lower: list[int] = []
    for j in gaps:
        if j > max(i, 1):
            upper += [j - 1] * (e[j] - 1)
        elif j < i:
            lower += [j] * (e[j] - 1)
    return tuple(upper + ([i] * e[i] if i else []) + lower)


def _gaps(e) -> list[int]:
    return [j for j in range(len(e) - 1, 0, -1) if e[j] > 1]


def gamma(d, i: int) -> tuple[int, ...]:
    """Weight on F of the i-th term of the determinantal complex:
    ((s-1)^{e_s - 1}, ..., i^{e_{i+1} - 1}, i^{e_i}, (i-1)^{e_{i-1} - 1},
    ..., 1^{e_1 - 1}), the conjugate of alpha(d, i).  It has dim F parts,
    dim F - e_1 at i = 0, and is refused past DET_COST_LIMIT of them."""
    r = degree_data(d)
    if not 0 <= i <= r.m:
        raise ValueError(f"index {i} outside 0..{r.m}")
    dim_f = r.d[-1] - r.d[0] - r.m + 1
    check_limit("gamma(d, i) parts", dim_f if i else dim_f - r.e[1], DET_COST_LIMIT)
    return _gamma(r.e, i, _gaps(r.e))


# Largest dim F the determinantal construction accepts.  The cost of the
# weights and Weyl dimensions grows about as dim_f^4: betti_H takes
# 0.1-0.2 s at 200 and 2.5-3 s at 400, and gamma() alone allocates a list
# of dim_f - 1 parts.
DET_DIM_LIMIT = 200

# Largest rows * (dim F)^2 + sum_i (d_i - d_0) that betti_H and scan_ranks
# accept.  Each row pays one Weyl dimension over dim F, (dim F)^2 / 2
# factors (about 65 ms at dim F = 200), and betti_H's weight2 rows hold
# sum_i (d_i - d_0) parts.  Without it (0, 200, 201, ..., 299) took 5.5 s
# and range(6000) 3.1 s.  At this bound the slowest accepted tables, six
# rows at dim F = 200, take about 0.4 s (2 vCPUs, CPython 3.11).
# det_bott_scan computes no Weyl dimension but builds a trace of dim F
# entries per u = 0..dim G, so it refuses (dim G + 1)(dim F + 1) over the
# same limit; its slowest accepted scan, range(125000), takes about 0.8 s.
# gamma(d, i) refuses a weight of more parts than this before building it;
# 250,000 parts take about 5 ms and 4 MB.
DET_COST_LIMIT = 250_000


def check_det_cost(d: tuple[int, ...], dim_f: int) -> None:
    """Refuse the determinantal table of d over DET_COST_LIMIT, before its
    first Weyl dimension."""
    cost = len(d) * dim_f * dim_f + sum(d) - len(d) * d[0]
    check_limit("determinantal table rows * dim F^2 + sum(d_i - d_0)", cost, DET_COST_LIMIT)


class DetSetup(namedtuple("DetSetup", "s dim_f dim_g lambda_det")):
    """Ambient data of the determinantal construction for a length-s sequence."""

    __slots__ = ()


@lru_cache(maxsize=RECORD_SIZE)
def _det_terms(d: tuple[int, ...]) -> tuple[DetSetup, tuple[tuple[int, ...], ...]]:
    e = _degree_data(d).e
    s = len(d) - 1
    dim_f = 1 + sum(e[i] - 1 for i in range(1, s + 1))
    check_limit("determinantal construction dim F", dim_f, DET_DIM_LIMIT)
    gaps = _gaps(e)
    gammas = tuple([_gamma(e, i, gaps) for i in range(s + 1)])
    return DetSetup(s=s, dim_f=dim_f, dim_g=dim_f + s - 1, lambda_det=gammas[0]), gammas


def det_terms(d) -> tuple[DetSetup, tuple[tuple[int, ...], ...]]:
    """det_setup(d) and gamma(d, 0..s), refused past DET_DIM_LIMIT."""
    return _det_terms(check_degrees(d))


def det_setup(d) -> DetSetup:
    return det_terms(d)[0]


BettiRow = namedtuple(
    "BettiRow", "i twist weight rank weight2 vanishing", defaults=(None, False)
)


class BettiTable(namedtuple("BettiTable", "kind d rows params truncated_at")):
    """A Betti table of kind "F", "H", "F_super" or "H_super".  `params`
    (a fresh dict by default) describes the construction and takes no part
    in equality or hashing."""

    __slots__ = ()

    def __new__(cls, kind, d, rows, params=None, truncated_at=None):
        params = {} if params is None else params
        return super().__new__(cls, kind, d, rows, params, truncated_at)

    def _key(self):
        return (self.kind, self.d, self.rows, self.truncated_at)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self._key())

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple([r.rank for r in self.rows])

    @property
    def twists(self) -> tuple[int, ...]:
        return tuple([r.twist for r in self.rows])


# Largest m (one less than the length of d) that betti_F accepts, and with
# it hilbert_M_euler, duality_check and the exactness lab.  Each of the
# m + 1 Weyl dimensions multiplies m(m - 1)/2 factors: on 2 cores with
# CPython 3.11, betti_F takes about 0.06 s at m = 64 (0.17 s with gaps of
# 1000), 0.5 s at 100, 11 s at 200 and 114 s at 300.  The `tables` inputs
# and the CLI examples have m <= 5.
BETTI_LENGTH_LIMIT = 64

# Largest m^2 * bitlen(d_m - d_0) that betti_F and herzog_kuhl_primitive
# accept, and largest m(m - 1)/2 * bitlen(d_m - d_0) that hilbert_M_strips
# accepts: their products also grow with the size of the degrees.  At this
# bound betti_F takes about 0.4 s at m = 64 (gaps of 2^26) and 0.07 s at
# m = 16 (gaps of 2^508); at twice it 1.4 s and 0.23 s.  Gaps of 10^100
# took 28 s at m = 64 and gaps of 10^4000 13 s at m = 16; at m = 30 with
# every other gap near 2^2047, herzog_kuhl_primitive took 9 s and
# hilbert_M_strips(d, d_0 + 2) over 20 s.  The tests, demos and benchmark
# inputs stay below 2^15.
BETTI_COST_LIMIT = 2**17


def _check_bits(d) -> DegreeData:
    """The record of d, refused when m^2 * bitlen(d_m - d_0) is over
    BETTI_COST_LIMIT."""
    r = degree_data(d)
    cost = r.m * r.m * (r.d[-1] - r.d[0]).bit_length()
    check_limit("degree sequence m^2 * bitlen(d_m - d_0)", cost, BETTI_COST_LIMIT)
    return r


@lru_cache(maxsize=RECORD_SIZE)
def _f_terms(d: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The weights alpha(d, 0..m) of the F-complex (m parts each) and their
    ranks dim S_alpha(E); refused over BETTI_LENGTH_LIMIT or
    BETTI_COST_LIMIT before any Weyl dimension is paid for."""
    m = len(d) - 1
    check_limit("degree sequence m", m, BETTI_LENGTH_LIMIT)
    _check_bits(d)
    weights = tuple([alpha(d, i) for i in range(m + 1)])
    return weights, tuple([dim_gl(w, m) for w in weights])


def betti_F(d) -> BettiTable:
    """Betti table of the length-m equivariant pure complex over Sym(E),
    dim E = m: the i-th term is generated in degree d_i by the Schur module
    of weight alpha(d, i)."""
    d = check_degrees(d)
    weights, ranks = _f_terms(d)
    rows = tuple(
        [BettiRow(i=i, twist=d[i], weight=trim(w), rank=rank)
         for i, (w, rank) in enumerate(zip(weights, ranks))]
    )
    return BettiTable(kind="F", d=d, rows=rows, params={"m": len(d) - 1})


def betti_H(d) -> BettiTable:
    """Betti table of the determinantal pure complex over Sym(F (x) G*):
    rank_i = dim S_{gamma(d,i)}(F) * C(dim G, d_i - d_0), twists relative
    to d_0."""
    d = check_degrees(d)
    setup, gammas = _det_terms(d)
    check_det_cost(d, setup.dim_f)
    rows = []
    for i, g in enumerate(gammas):
        t = d[i] - d[0]
        rank = dim_gl(g, setup.dim_f) * comb(setup.dim_g, t) if t <= setup.dim_g else 0
        rows.append(
            BettiRow(i=i, twist=t, weight=g, weight2=(1,) * t, rank=rank, vanishing=rank == 0)
        )
    return BettiTable(
        kind="H",
        d=d,
        rows=tuple(rows),
        params={"dim_f": setup.dim_f, "dim_g": setup.dim_g, "s": setup.s},
    )


class SuperDegreeData:
    """The degree data of the graded-commutative constructions: given the
    base weight lam and a first jump e1 >= 1, the difference rule is
    e_1 = e1, e_i = lam_{i-1} - lam_i + 1 for i >= 2 (so e_i = 1 beyond
    the nonzero parts of lam), with d_0 = 0."""

    def __init__(self, lam, e1: int):
        self.lam = check_partition(lam)
        if e1 < 1:
            raise ValueError(f"e1 must be >= 1, got {e1}")
        self.e1 = e1

    def e(self, i: int) -> int:
        if i < 1:
            raise ValueError("difference index starts at 1")
        if i == 1:
            return self.e1
        return part(self.lam, i - 2) - part(self.lam, i - 1) + 1

    def degree_prefix(self, n: int) -> tuple[int, ...]:
        """(d_0, ..., d_n)."""
        return tuple(list(accumulate([self.e(i) for i in range(1, n + 1)], initial=0)))

    def alpha(self, i: int) -> tuple[int, ...]:
        """lam_j + e_{j+1} for j < i and lam_j after: lam_0 + e1, then
        lam_{j-1} + 1, then the rest of lam."""
        if i < 1:
            return self.lam
        lam = self.lam + (0,) * (i - len(self.lam))
        return trim((lam[0] + self.e1,) + tuple([x + 1 for x in lam[: i - 1]]) + lam[i:])


def super_degree_data(lam, e1: int) -> SuperDegreeData:
    return SuperDegreeData(lam, e1)


def _default_truncation(lam, m: int, n: int) -> int:
    return len(trim(lam)) + m + n + 2


# Super tables are refused before any dimension is computed when they are
# truncated past BETTI_LENGTH_LIMIT rows, or when a dim_super call (weight
# lam, graded dimension (m, n)) would build entries that are too large or
# the estimated work of all calls is too high.  Unless lam is off the (m, n)
# hook, a call is a Weyl product of m^2 factors when n = 0, and otherwise a
# len(lam)^3 Bareiss determinant whose steps grow its entries len(lam)-fold.
# Its entries, at most len(lam) distinct per row of lam and fewer where rows
# are close, are sums of min(lam_1 + len(lam), n) + 1 products of about
# bitlen C(n, k) + m * bitlen(lam_1 + len(lam) + m) bits.  The entry bounds
# are SUPER_ENTRY_BITS for C(n, k) and BETTI_COST_LIMIT for m^2 *
# bitlen(lam_1 + m), as in betti_F.  On 2 cores with CPython 3.11, the
# slowest of 20,000 random tables accepted under these limits (parts and
# e1 up to 10^6, dimensions up to 10^40, up to 64 rows) took 0.07 s; the
# `tables` inputs stay below 1.7 * 10^4, the tests' besides the bound's own
# below 3.5 * 10^4.
SUPER_ENTRY_BITS = 4096
SUPER_COST_LIMIT = 4 * 10**6


def _truncated(data: SuperDegreeData, N: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(d_0, ..., d_N) and (alpha(0), ..., alpha(N)) of a super table
    truncated at N; refused past BETTI_LENGTH_LIMIT rows."""
    if N < 1:
        raise ValueError("truncation must be >= 1")
    check_limit("super table truncation N", N, BETTI_LENGTH_LIMIT)
    return data.degree_prefix(N), [data.alpha(i) for i in range(N + 1)]


def _check_super_cost(*factors) -> None:
    """Raise ResourceLimitError before the dim_super calls of a super table
    are made if they are over the limits above; each factor is (weights,
    m, n) for the calls dim_super(lam, m, n), lam in weights."""
    cost = 0
    for weights, m, n in factors:
        m, n = max(m, 0), max(n, 0)  # dim_super itself rejects negative dimensions
        for lam in weights:
            ell = len(lam)
            cost += ell + 1
            if ell > m and lam[m] > n:  # outside the (m, n) hook: zero at once
                continue
            top = lam[0] if lam else 0
            entry_bits = min(top + ell, n) * n.bit_length()
            weyl_bits = m * m * (top + m).bit_length()
            check_limit("dim_super entry bits", entry_bits, SUPER_ENTRY_BITS)
            check_limit("dim_super Weyl bits m^2 * bitlen(lam_1 + m)", weyl_bits, BETTI_COST_LIMIT)
            if n == 0:
                cost += m * m * (1 + weyl_bits // 128)
                continue
            bits = entry_bits + m * (top + ell + m).bit_length()
            entries = ell + sum([min(ell, x - y + 1) for x, y in zip(lam, lam[1:])])
            cost += entries * (min(top + ell, n) + 1) * (1 + bits // 64)
            cost += ell**3 * (1 + ell * bits // 64)
    check_limit("super table estimated word operations", cost, SUPER_COST_LIMIT)


def betti_F_super(lam, e1: int, m: int, n: int, N: int | None = None) -> BettiTable:
    """Truncated Betti table of the Z/2-graded pure complex over
    Sym(V0) (x) Exterior(V1), dim vector (m, n)."""
    data = super_degree_data(lam, e1)
    if N is None:
        N = _default_truncation(lam, m, n)
    d, weights = _truncated(data, N)
    _check_super_cost((weights, m, n))
    rows = []
    for i, a in enumerate(weights):
        rank = dim_super(a, m, n)
        rows.append(BettiRow(i=i, twist=d[i], weight=a, rank=rank, vanishing=rank == 0))
    return BettiTable(
        kind="F_super",
        d=d,
        rows=tuple(rows),
        params={"lam": data.lam, "e1": e1, "m": m, "n": n},
        truncated_at=N,
    )


def betti_H_super(
    lam,
    e1: int,
    mv: tuple[int, int],
    uv: tuple[int, int],
    N: int | None = None,
) -> BettiTable:
    """Truncated Betti table of the Z/2-graded determinantal complex over
    Sym(V (x) U), with dim vectors mv for V and uv for U:
    rank_i = dim S_{alpha(d,i)}(V) * dim S_{(d_i)}(U)."""
    m0, m1 = mv
    u0, u1 = uv
    data = super_degree_data(lam, e1)
    if N is None:
        N = _default_truncation(lam, m0 + u0, m1 + u1)
    d, weights = _truncated(data, N)
    sym = [(di,) if di else () for di in d]  # the weights (d_i) over U
    _check_super_cost((weights, m0, m1), (sym, u0, u1))
    rows = []
    for i, (a, b) in enumerate(zip(weights, sym)):
        rank = dim_super(a, m0, m1) * dim_super(b, u0, u1)
        rows.append(
            BettiRow(i=i, twist=d[i], weight=a, weight2=b, rank=rank, vanishing=rank == 0)
        )
    return BettiTable(
        kind="H_super",
        d=d,
        rows=tuple(rows),
        params={"lam": data.lam, "e1": e1, "m0": m0, "m1": m1, "u0": u0, "u1": u1},
        truncated_at=N,
    )


def herzog_kuhl_primitive(d) -> tuple[int, ...]:
    """The unique positive integer vector with gcd 1 proportional to
    (prod_{j != i} 1/|d_j - d_i|)_i.  These are the only Betti numbers a
    pure resolution of type d can have, up to an integer factor.  Refused
    over BETTI_COST_LIMIT before any product."""
    d = _check_bits(d).d
    dens = [prod(abs(d[j] - d[i]) for j in range(len(d)) if j != i) for i in range(len(d))]
    scale = lcm(*dens)
    ints = [scale // p for p in dens]
    g = gcd(*ints)
    return tuple([x // g for x in ints])


def multiple_of_primitive(table: BettiTable) -> int:
    """The integer c with rank_i = c * primitive_i.  Raises NotOnRayError /
    NotIntegralError when the guarantee fails (an implementation bug)."""
    if table.kind not in ("F", "H"):
        raise ValueError("only finite pure tables (kinds F, H) lie on a ray")
    prim = herzog_kuhl_primitive(table.d)
    ranks = table.ranks
    # every primitive entry is positive, so equal ratios are equal cross products
    if not ranks or any(r * prim[0] != ranks[0] * p for r, p in zip(ranks, prim)):
        raise NotOnRayError(f"ranks {ranks} not proportional to {prim}")
    c, rest = divmod(ranks[0], prim[0])
    if rest:
        raise NotIntegralError(f"multiple {ranks[0]}/{prim[0]} of {prim} is not an integer")
    return c


def check_herzog_kuhl(table: BettiTable, codim: int) -> bool:
    """Exact check of sum_i (-1)^i rank_i twist_i^p = 0 for p < codim."""
    if codim < 1:
        raise ValueError("codimension must be positive")
    return all(
        sum((-1) ** r.i * r.rank * r.twist**p for r in table.rows) == 0
        for p in range(codim)
    )


def hilbert_M_euler(d, k: int) -> int:
    """Hilbert function of the module resolved by the F-complex, as the
    alternating sum of the slice dimensions of the free terms generated in
    degree <= k.  The ranks are betti_F's, from the record, so betti_F's
    limits hold for every k."""
    d = check_degrees(d)
    ranks = _f_terms(d)[1]
    m = len(d) - 1
    return sum(
        (-1) ** i * ranks[i] * comb(k - d[i] + m - 1, m - 1)
        for i in range(m + 1)
        if d[i] <= k
    )


def hilbert_M_strips(d, k: int) -> int:
    """Hilbert function of the resolved module by direct representation
    bookkeeping: sum of dim S_mu(E) over the surviving Pieri strips.  Every
    strip mu contains the base weight lam, so mu contains alpha(d, 1)
    exactly when mu_1 >= lam_1 + e_1; the survivors are the strips with
    mu_1 <= top = lam_1 + e_1 - 1.  0 below d_0; else refused before any
    product when the bits of one Weyl numerator, m(m - 1)/2 *
    bitlen(d_m - d_0), are over BETTI_COST_LIMIT (at m = 1 there is no
    product).  Within module_profile's limits it is read off the record's
    Hilbert function, 0 past the top.  Past them degree k is walked alone,
    refused when the strips of size k - d_0 times m^2 may be over
    PROFILE_STRIP_LIMIT: at most C(k - d_0 + m - 1, m - 1) and prod e_i."""
    r = degree_data(d)
    if k < r.d[0]:
        return 0
    cost = r.m * (r.m - 1) // 2 * (r.d[-1] - r.d[0]).bit_length()
    check_limit("Weyl numerator bits m(m - 1)/2 * bitlen(d_m - d_0)", cost, BETTI_COST_LIMIT)
    try:
        hf = _hilbert_function(r.d)
    except ResourceLimitError:  # past module_profile's limits: degree k alone
        strips = min(comb(k - r.d[0] + r.m - 1, r.m - 1), prod(r.e[1:])) * r.m * r.m
        check_limit("Pieri strips of degree k * m^2", strips, PROFILE_STRIP_LIMIT)
        return pieri_dim(r.base, k - r.d[0], r.m, r.top)
    return hf[k - r.d[0]] if k - r.d[0] < len(hf) else 0


# Largest degree span top - d_0 whose Hilbert function module_profile
# builds, one entry per degree.  The strip limit below bounds the
# enumeration; this one bounds the number of degrees, which for m = 1 is
# the whole cost.  (0, 1, 200) takes about 1 ms and (0, 1, 1000)
# about 5 ms; the `tables` inputs have spans up to 23 and the published
# rays 4 to 6.
PROFILE_SPAN_LIMIT = 100

# Largest strip count times m^2 that module_profile accepts, and, past its
# limits, hilbert_M_strips for the strips of one degree.  M(d) has exactly
# prod_{i>=1} e_i Pieri strips, and pieri_dims sums them as one determinant
# with a row for each of the r gaps e_i > 1.  Since 2^r * r^2 <= prod e_i *
# m^2, the limit keeps r <= 13 and m <= 1414; m sets the Weyl factors.  On
# 2 vCPUs with CPython 3.11, module_profile takes about 0.2 ms at
# (0,10,20,45,95) and 1.2 ms at m = 10 with every e_i in {1, 2, 5} (both at
# the limit), 2.1 ms at m = 40 with e = (2^10, 1^30), 8 ms at m = 13 with
# every e_i = 2 (r = 13), and 0.5 ms at range(201) and 6 ms at range(1415),
# every row with room 0; a first hilbert_M_strips within the two profile
# limits pays the same determinant.  Past them it walks one degree, up to
# about 60 ms ((0, 10^6, 2 * 10^6) at k = 499,999; 41 ms at m = 40 with
# every e_i = 3 and k = d_0 + 2).  Over the limit, m = 20 with every e_i =
# 2 (4e8) takes 0.4 s.  `tables` inputs reach 6^5 * 5^2 = 194400, the CLI
# examples 900.
PROFILE_STRIP_LIMIT = 2_000_000


@lru_cache(maxsize=RECORD_SIZE)
def _hilbert_function(d: tuple[int, ...]) -> tuple[int, ...]:
    """The Hilbert values of M(d) in degrees d_0..top: the surviving strips
    of each size over the base weight, all summed by one determinant
    (pieri_dims).
    Refused past module_profile's limits, the span first: past it the
    strips are not counted."""
    r = _degree_data(d)
    check_limit("module profile span top - d_0", r.top - r.d[0], PROFILE_SPAN_LIMIT)
    check_limit("module profile strips * m^2", prod(r.e[1:]) * r.m * r.m, PROFILE_STRIP_LIMIT)
    return tuple(pieri_dims(r.base, r.m, r.top))


# hf is the Hilbert function {degree: dim}
ModuleProfile = namedtuple("ModuleProfile", "d hf top_degree socle_weight socle_dim")


def module_profile(d) -> ModuleProfile:
    """Hilbert function, top degree and socle of the finite-length module
    resolved by the F-complex.  The socle weight is alpha(d, m) with one
    column of full height m removed; its dimension equals the last Betti
    number (Cohen-Macaulay type)."""
    r = degree_data(d)
    d, m, top = r.d, r.m, r.top
    hf = dict(zip(range(d[0], top + 1), _hilbert_function(d)))
    top_strips = pieri_expand(r.base, top - d[0], m, cap=top)
    if len(top_strips) != 1:
        raise AmbiguousSocleError(f"top degree {top} carries strips {top_strips}")
    socle = top_strips[0]
    expected = trim([a - 1 for a in alpha(d, m)])  # one column of height m removed
    if socle != expected:
        raise AmbiguousSocleError(
            f"socle strip {socle} does not match predicted {expected}"
        )
    return ModuleProfile(
        d=d, hf=hf, top_degree=top, socle_weight=socle, socle_dim=dim_gl(socle, m)
    )


class DualityReport(
    namedtuple(
        "DualityReport",
        "d is_symmetric ranks_palindromic complements_match rectangle witnesses",
        defaults=(None, None, None, ()),
    )
):
    """Self-duality of the F-complex; only symmetric e get the other fields."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.is_symmetric and bool(self.ranks_palindromic) and bool(
            self.complements_match
        )


def duality_check(d) -> DualityReport:
    """Self-duality of the F-complex when e is palindromic: ranks are
    palindromic and alpha(d, i), alpha(d, m-i) are complementary in the
    rectangle of width lambda_1 + e_1 and height m."""
    r = degree_data(d)
    d, e, m = r.d, r.e, r.m
    symmetric = all(e[i] == e[m + 1 - i] for i in range(1, m + 1))
    if not symmetric:
        return DualityReport(d=d, is_symmetric=False)
    weights, ranks = _f_terms(d)
    ranks_ok = all(ranks[i] == ranks[m - i] for i in range(m + 1))
    # complementarity is a statement about the normalized weights: the
    # overall twist by d_0 is shared by every term and drops out
    width = r.top + 1 - d[0]
    bad = []
    for i in range(m + 1):
        norm = tuple([a - d[0] for a in weights[i]])
        norm_dual = trim([a - d[0] for a in weights[m - i]])
        comp = complement_in_rectangle(norm, width, m)
        if comp != norm_dual:
            bad.append((i, norm, comp, norm_dual))
    return DualityReport(
        d=d,
        is_symmetric=True,
        ranks_palindromic=ranks_ok,
        complements_match=not bad,
        rectangle=(width, m),
        witnesses=tuple(bad),
    )
