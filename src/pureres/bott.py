"""Bott's algorithm for twisted Schur bundles on projective space, the
pushforward profiles of symmetric algebras of the quotient bundle, and the
scan that regenerates the determinantal Betti table term by term.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .partitions import check_partition, dim_gl
from .resolutions import DET_COST_LIMIT, _det_terms, check_degrees, check_det_cost, check_limit


class ScanMismatchError(Exception):
    """The Bott scan disagrees with the predicted term-by-term correspondence."""


class BottOutcome(
    namedtuple("BottOutcome", "vanishes trace h_degree weight", defaults=(None, None))
):
    """Result of the Bott algorithm on S_alpha(Q) (x) S_u(R) over P^{m-1}.

    Either all cohomology vanishes, or exactly one degree h_degree carries
    the irreducible of highest weight `weight`.  `trace` is the intermediate
    sequence (alpha, u) + rho with rho = (m-1, ..., 1, 0).
    """

    __slots__ = ()


def _bott_head(alpha_q, m: int) -> tuple[int, ...]:
    """Check the quotient weight alpha and return alpha + (m-1, ..., 1),
    the first m - 1 entries of (alpha, u) + rho for every u.  They strictly
    decrease because alpha weakly does."""
    alpha_q = tuple(alpha_q)
    if m < 1:
        raise ValueError("ambient dimension must be >= 1")
    if len(alpha_q) != m - 1:
        raise ValueError(f"quotient weight must have length {m - 1}, got {alpha_q}")
    if any(alpha_q[i] < alpha_q[i + 1] for i in range(len(alpha_q) - 1)):
        raise ValueError(f"quotient weight must be weakly decreasing: {alpha_q}")
    return tuple([a + m - 1 - j for j, a in enumerate(alpha_q)])


def _bott(head: tuple[int, ...], u: int) -> BottOutcome:
    """The Bott algorithm on t = (alpha, u) + rho = head + (u,), with head
    from _bott_head.  Only the last entry u can repeat an entry or be out
    of order.  A repetition means vanishing; otherwise the entries of head
    smaller than u are the inversions, whose number is the cohomology
    degree, and t sorted minus rho is the output weight."""
    t = head + (u,)
    if u in head:
        return BottOutcome(True, t)  # positional: a scan builds dim G + 1 of these
    inversions = sum(1 for x in head if x < u)
    # from a list: tuple() resizes a generator's tuple, bypassing the free list
    beta = tuple([x - r for x, r in zip(sorted(t, reverse=True), range(len(head), -1, -1))])
    return BottOutcome(False, t, inversions, beta)


def bott_cohomology(alpha_q, u: int, m: int) -> BottOutcome:
    """Run the Bott algorithm on the weight (alpha, u) over P^{m-1}: add the
    staircase rho = (m-1, ..., 1, 0); a repetition means vanishing,
    otherwise the number of inversions is the cohomology degree and sorting
    minus the staircase is the output weight."""
    return _bott(_bott_head(alpha_q, m), u)


class PushforwardProfile(namedtuple("PushforwardProfile", "kind w0 w1", defaults=(None,))):
    """Minimal free resolution shape of H^0(S_lam(Q) (x) Sym(Q)) over Sym(E):
    a single free module (kind "free") when lam_{m-1} = 0, otherwise two
    terms one twist apart (kind "two_term")."""

    __slots__ = ()


def pushforward_profile(lam, m: int) -> PushforwardProfile:
    lam = tuple(lam)
    if len(lam) != m - 1:
        raise ValueError(f"weight must have length {m - 1}, got {lam}")
    check_partition(lam)
    if not lam or lam[-1] == 0:
        return PushforwardProfile(kind="free", w0=lam + (0,))
    return PushforwardProfile(kind="two_term", w0=lam + (0,), w1=lam + (1,))


class DetScan(namedtuple("DetScan", "d dim_f dim_g outcomes assignments")):
    """The Bott scan of a degree sequence: (u, BottOutcome) for u = 0..dim G,
    and assignments {homological index i: (u, cohomology degree, weight)}."""

    __slots__ = ()

    @property
    def nonvanishing(self) -> list[tuple[int, BottOutcome]]:
        return [(u, o) for u, o in self.outcomes if not o.vanishes]


def det_bott_scan(d) -> DetScan:
    """Scan u = 0..dim G over the weights (lambda_det padded, u) on
    P(dim F - 1) and check the outcomes regenerate the determinantal table:
    nonvanishing exactly at u = d_i - d_0, with weight gamma(d, i) in
    cohomology degree u - i.

    Note the nonvanishing positions are u = d_i - d_0, not the off-by-one
    expression one might expect from the term twists; the correspondence is
    validated against the table ranks and a ScanMismatchError is raised on
    any disagreement.
    """
    d = check_degrees(d)
    # a dim F-entry trace per u = 0..dim G; dim G = d_s - d_0, dim F = dim G - s + 1
    cost = (d[-1] - d[0] + 1) * (d[-1] - d[0] - len(d) + 3)
    check_limit("Bott scan (dim G + 1)(dim F + 1)", cost, DET_COST_LIMIT)
    setup, gammas = _det_terms(d)
    m = setup.dim_f
    padded = setup.lambda_det + (0,) * (m - 1 - len(setup.lambda_det))
    head = _bott_head(padded, m)
    outcomes = [(u, _bott(head, u)) for u in range(setup.dim_g + 1)]
    assignments: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    for u, o in outcomes:
        if o.vanishes:
            continue
        i = u - o.h_degree
        if i in assignments:
            raise ScanMismatchError(f"two nonvanishing u values map to index {i}")
        assignments[i] = (u, o.h_degree, o.weight)
    # every u = d_i - d_0 is at most d_s - d_0 = dim G, inside the scan
    expected = {
        i: (d[i] - d[0], d[i] - d[0] - i, g + (0,) * (m - len(g)))
        for i, g in enumerate(gammas)
    }
    if assignments != expected:
        raise ScanMismatchError(
            f"scan {assignments} does not match predicted {expected}"
        )
    return DetScan(
        d=d,
        dim_f=setup.dim_f,
        dim_g=setup.dim_g,
        outcomes=tuple(outcomes),
        assignments=assignments,
    )


def scan_ranks(scan: DetScan) -> dict[int, int]:
    """Ranks of the determinantal table recomputed from the scan output."""
    check_det_cost(scan.d, scan.dim_f)
    return {
        i: dim_gl(w, scan.dim_f) * comb(scan.dim_g, u)
        for i, (u, h, w) in scan.assignments.items()
    }


def line_bundle_oracle(a: int) -> tuple[int, int]:
    """Cohomology dimensions (h0, h1) of O(a) on the projective line."""
    return (max(a + 1, 0), max(-a - 1, 0))
